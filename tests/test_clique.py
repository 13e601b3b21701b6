import time

import numpy as np
import pytest

from glcensus import clique, oracle
from glcensus.census import UnsupportedRegimeError
from glcensus.clique import (
    NonComGraph,
    _bits_from_bools,
    _pairwise_noncommuting,
    build_graph,
    compute_omega,
    covering_upper_bound,
    max_clique,
    seed_clique,
    verify_clique,
)
from glcensus.oracle import Budget, BudgetError, _gl_group_cached, commuting_table, gl_group
from test_oracle import commutes, identity, matmul


def test_graph_shapes():
    assert build_graph(2, 2).vertex_count == 5  # 6 elements, trivial centre
    assert build_graph(2, 3).vertex_count == 46  # centre of order 2
    assert build_graph(2, 4).vertex_count == 177  # centre of order 3


def reference_degeneracy_order(adj: np.ndarray) -> list[int]:
    """The former element-level degeneracy order: repeatedly remove a
    smallest-degree vertex, the lowest such, and reverse the removal order."""
    V = adj.shape[0]
    alive = np.ones(V, dtype=bool)
    work = adj.sum(axis=1).astype(np.int64)
    removal: list[int] = []
    big = np.iinfo(np.int64).max
    for _ in range(V):
        v = int(np.argmin(np.where(alive, work, big)))
        removal.append(v)
        alive[v] = False
        work = work - adj[v]
    return removal[::-1]


def reference_build_graph(n: int, q: int) -> NonComGraph:
    """The former element-level build, the reference for the class build:
    the order^2 table of every non-central pair, reordered by its own
    degeneracy order."""
    group = gl_group(n, q)
    central = set(group.center_indices())
    verts = [i for i in range(group.order) if i not in central]
    lifted = group.lifted[verts]
    adj = ~commuting_table(lifted, lifted, group.field.p)
    order = reference_degeneracy_order(adj)
    return NonComGraph(n=n, q=q, vertices=tuple(verts[k] for k in order),
                       adjacency=_bits_from_bools(adj[np.ix_(order, order)]),
                       identity_index=group.center_indices()[0])


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (3, 2)])
def test_class_build_equals_the_element_build(n, q):
    graph, expect = build_graph(n, q), reference_build_graph(n, q)
    assert graph.vertices == expect.vertices
    assert graph.adjacency == expect.adjacency
    assert graph.identity_index == expect.identity_index


def test_class_members_share_one_row_object():
    graph = build_graph(2, 7)
    assert len({id(row) for row in graph.adjacency}) == len(set(graph.adjacency)) == 57


@pytest.mark.parametrize("seed", [8, 9])
def test_class_degeneracy_order_equals_the_element_order(seed):
    # random classes with random sizes, members interleaved in position:
    # ties in degree are frequent, so the tie-break is exercised
    rng = np.random.default_rng(seed)
    k = 30
    upper = np.triu(rng.random((k, k)) < 0.5, 1)
    adj = upper | upper.T
    label = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, 170)]))
    expect = reference_degeneracy_order(adj[np.ix_(label, label)])
    assert clique._degeneracy_order(adj, label).tolist() == expect


def test_graph_identity_index_is_the_identity():
    group = gl_group(2, 2)
    assert build_graph(2, 2).identity_index == 2
    assert group.mats[2] == identity(group.field, 2)
    assert build_graph(1, 3).identity_index == 0


def test_graph_adjacency_matches_group():
    graph = build_graph(2, 3)
    group = gl_group(2, 3)
    for i in range(0, graph.vertex_count, 7):
        for j in range(0, graph.vertex_count, 11):
            if i == j:
                continue
            a = group.mats[graph.vertices[i]]
            b = group.mats[graph.vertices[j]]
            edge = bool((graph.adjacency[i] >> j) & 1)
            assert edge == (not commutes(a, b))
    # no self loops
    assert all(not (graph.adjacency[k] >> k) & 1 for k in range(graph.vertex_count))


def test_seed_sizes():
    assert len(seed_clique(2, 3)) == 13
    assert len(seed_clique(2, 4)) == 21
    assert len(seed_clique(3, 2)) == 57


def test_seed_is_pairwise_noncommuting():
    group = gl_group(3, 2)
    seed = seed_clique(3, 2)
    mats = [group.mats[i] for i in seed]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert not commutes(mats[i], mats[j])


def test_covering_upper_bound():
    assert covering_upper_bound(2, 5) == 31
    assert covering_upper_bound(3, 3) == 1067
    # 27677140 (the n=4 census polynomial at q=4) minus 255*252*240*192/(3^4*4!)
    assert covering_upper_bound(4, 4) == 27677140 - 1523200 == 26153940
    for n, q in [(3, 2), (2, 2), (4, 2), (4, 3)]:
        with pytest.raises(UnsupportedRegimeError):
            covering_upper_bound(n, q)


def test_position_of_every_vertex():
    graph = build_graph(2, 3)
    assert [graph.position_of(e) for e in graph.vertices] == list(range(graph.vertex_count))
    with pytest.raises(ValueError):
        graph.position_of(graph.identity_index)  # central, so not a vertex
    assert not verify_clique(graph, (graph.identity_index,))


def test_verify_clique():
    graph = build_graph(2, 2)
    # empty and singleton witnesses are vacuously cliques
    assert verify_clique(graph, ())
    assert verify_clique(graph, (graph.vertices[0],))
    # a vertex repeated is not a set of distinct vertices
    assert not verify_clique(graph, (graph.vertices[0],) * 2)
    # two commuting elements are not a clique: an element and its square
    group = gl_group(2, 3)
    graph3 = build_graph(2, 3)
    for idx in graph3.vertices:
        M = group.mats[idx]
        sq = matmul(M, M)
        sq_idx = group.mats.index(sq)
        if sq_idx in graph3.vertices and sq_idx != idx:
            assert not verify_clique(graph3, (idx, sq_idx))
            break
    else:
        pytest.fail("no suitable commuting pair found")


def test_omega_gl22_exhaustive():
    res, seed_size = compute_omega(2, 2)
    assert res.size == 4
    assert res.optimal
    assert seed_size == 4
    assert verify_clique(build_graph(2, 2), res.witness)


def test_result_reports_the_searched_classes():
    assert compute_omega(2, 2)[0].classes == 4
    assert compute_omega(3, 2)[0].classes == 78
    assert max_clique(random_graph(60, 0.6, 4, twins=90)).classes == 60
    # no search ran: the seed met the cover, or the group is abelian
    assert compute_omega(2, 3)[0].classes is None
    assert max_clique(build_graph(1, 3)).classes is None


def test_omega_seed_meets_cover():
    for q, expect in [(3, 13), (4, 21), (5, 31)]:
        res, seed_size = compute_omega(2, q)
        assert res.size == expect
        assert res.optimal
        assert res.upper_bound_used == expect
        assert res.steps == 0  # certified without search
        assert seed_size == expect


def test_omega_gl32_certified():
    res, seed_size = compute_omega(3, 2)
    assert res.optimal
    assert seed_size == 57
    assert 57 <= res.size < 169
    assert res.size == 57  # certified by search; also matched by a clique cover
    graph = build_graph(3, 2)
    assert verify_clique(graph, res.witness)


def test_max_clique_without_seed_matches():
    graph = build_graph(3, 2)
    res = max_clique(graph)
    assert res.optimal and res.size == 57


def test_max_clique_rejects_bad_seed():
    graph = build_graph(2, 3)
    group = gl_group(2, 3)
    # an element and its square commute, so they cannot seed a clique
    for idx in graph.vertices:
        sq_idx = group.mats.index(matmul(group.mats[idx], group.mats[idx]))
        if sq_idx != idx and sq_idx in graph.vertices:
            with pytest.raises(ValueError):
                max_clique(graph, seed=(idx, sq_idx))
            return
    pytest.fail("no non-central element with a distinct non-central square found")


def test_budget_exhaustion_is_not_optimal():
    graph = build_graph(3, 2)
    res = max_clique(graph, budget=Budget(seconds=60.0, nodes=3))
    assert not res.optimal
    assert res.size >= 1
    assert verify_clique(graph, res.witness)


def test_solver_determinism():
    graph = build_graph(2, 3)
    a = max_clique(graph)
    b = max_clique(graph)
    assert a.size == b.size == 13
    assert a.witness == b.witness


def test_pairwise_noncommuting_extension_field():
    group = gl_group(2, 4)
    seed = seed_clique(2, 4)
    assert _pairwise_noncommuting(group, seed)
    M = group.mats[seed[0]]
    square = group.mats.index(matmul(M, M))
    assert square != seed[0]
    assert not _pairwise_noncommuting(group, (seed[0], square))
    assert not _pairwise_noncommuting(group, seed + (square,))


def test_pairwise_check_tests_each_pair_once_and_stops_at_a_commuting_pair(monkeypatch):
    """The seed check forms about half of the |seed|^2 pairs, tile by tile,
    and returns at the first tile holding a commuting pair i < j."""
    group = gl_group(3, 3)
    seed = seed_clique(3, 3)
    formed = []
    tiles = clique.commuting_tiles

    def counted(*args, **kwargs):
        for rows, columns, block in tiles(*args, **kwargs):
            formed.append(block.size)
            yield rows, columns, block

    monkeypatch.setattr(clique, "commuting_tiles", counted)
    assert _pairwise_noncommuting(group, seed)
    k = len(seed)
    assert k * (k - 1) / 2 <= sum(formed) < 0.55 * k * k
    M = group.mats[seed[0]]
    square = group.mats.index(matmul(M, M))
    formed.clear()
    assert not _pairwise_noncommuting(group, (seed[0], square) + seed[1:])
    assert len(formed) == 1


@pytest.mark.parametrize("where", [0, 30, 56])
def test_pairwise_check_finds_a_commuting_pair_in_any_tile(monkeypatch, where):
    """With tiles of a few pairs, a pair (seed member, its square) is found
    wherever the square is placed after it."""
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 2048)
    monkeypatch.setattr(oracle, "_TILE_COLUMNS", 4)
    group = gl_group(3, 2)
    seed = seed_clique(3, 2)
    assert len(seed) == 57 and _pairwise_noncommuting(group, seed)
    M = group.mats[seed[where]]
    square = group.mats.index(matmul(M, M))
    assert not _pairwise_noncommuting(group, seed[:where + 1] + (square,) + seed[where + 1:])
    assert not _pairwise_noncommuting(group, seed + (square,))


def test_graph_refusal_precedes_enumeration():
    cached = _gl_group_cached.cache_info().currsize
    with pytest.raises(BudgetError):
        build_graph(3, 4)
    assert _gl_group_cached.cache_info().currsize == cached


def test_omega_short_circuit_reports_elapsed_time():
    res, _ = compute_omega(2, 3)
    assert res.steps == 0
    assert res.seconds > 0


def test_omega_search_reports_time_from_the_start(monkeypatch):
    # GL_2(2) has no covering count, so it takes the search path; the graph
    # build, slowed by 0.05 s, must count in the reported time
    original = clique.build_graph

    def slow_build_graph(*args):
        time.sleep(0.05)
        return original(*args)

    monkeypatch.setattr(clique, "build_graph", slow_build_graph)
    res, _ = compute_omega(2, 2)
    assert res.steps > 0 and res.optimal
    assert res.seconds >= 0.05


def bits_by_loop(row) -> int:
    """The former per-bit packing, kept as the reference for _bits_from_bools."""
    out = 0
    for j in np.flatnonzero(row):
        out |= 1 << int(j)
    return out


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 1000])
def test_bits_from_bools_matches_loop(length):
    rng = np.random.default_rng(length)
    rows = np.stack([np.zeros(length, dtype=bool), np.ones(length, dtype=bool),
                     rng.random(length) < 0.5])
    assert _bits_from_bools(rows) == tuple(bits_by_loop(row) for row in rows)


def complete_graph(size: int) -> NonComGraph:
    full = (1 << size) - 1
    return NonComGraph(n=0, q=0, vertices=tuple(range(size)),
                       adjacency=tuple(full & ~(1 << v) for v in range(size)),
                       identity_index=0)


def test_deep_complete_graph_is_solved_optimally():
    # every vertex opens one more node, so the search is 1500 frames deep,
    # past the interpreter's default recursion limit
    res = max_clique(complete_graph(1500))
    assert res.size == 1500 and res.optimal
    assert res.witness == tuple(range(1500))


def test_zero_time_budget_stops_at_the_first_node():
    graph = build_graph(2, 3)
    res = max_clique(graph, budget=Budget(seconds=0))
    assert res.steps == 1 and not res.optimal
    assert verify_clique(graph, res.witness)


@pytest.mark.parametrize("limits", [{"seconds": -1.0}, {"seconds": float("nan")}, {"nodes": -1}])
def test_solver_budget_rejects_negative_and_nan_limits(limits):
    with pytest.raises(ValueError):
        Budget(**limits)


def recursive_max_clique(graph, seed=(), upper=None, budget=None):
    """The former recursive branch and bound, kept as the reference for the
    explicit-stack search: returns (size, steps, witness, optimal)."""
    budget = budget if budget is not None else Budget()
    start = time.monotonic()
    seed_positions = [graph.position_of(e) for e in seed]
    if upper is not None and len(seed_positions) == upper:
        return len(seed), 0, tuple(sorted(seed)), True
    adjacency = graph.adjacency
    steps = 0
    state = {"best_size": max(len(seed_positions), 1), "best": seed_positions or [0]}

    class Exhausted(Exception):
        pass

    class StopOptimal(Exception):
        pass

    def colour_order(P):
        order, bounds, colour, Q = [], [], 0, P
        while Q:
            colour += 1
            cand = Q
            while cand:
                v = (cand & -cand).bit_length() - 1
                bit = 1 << v
                cand &= ~adjacency[v]
                cand &= ~bit
                Q &= ~bit
                order.append(v)
                bounds.append(colour)
        return order, bounds

    def expand(R, P):
        nonlocal steps
        steps += 1
        if steps % 2048 == 0 and time.monotonic() - start > budget.seconds:
            raise Exhausted
        if steps > budget.nodes:
            raise Exhausted
        order, bounds = colour_order(P)
        for k in range(len(order) - 1, -1, -1):
            if len(R) + bounds[k] <= state["best_size"]:
                return
            v = order[k]
            R.append(v)
            nxt = P & adjacency[v]
            if nxt:
                expand(R, nxt)
            elif len(R) > state["best_size"]:
                state["best_size"] = len(R)
                state["best"] = list(R)
                if upper is not None and state["best_size"] == upper:
                    raise StopOptimal
            R.pop()
            if upper is not None and state["best_size"] == upper:
                raise StopOptimal
            P &= ~(1 << v)

    optimal = True
    try:
        expand([], (1 << graph.vertex_count) - 1)
    except Exhausted:
        optimal = False
    except StopOptimal:
        pass
    witness = tuple(sorted(graph.vertices[p] for p in state["best"]))
    return state["best_size"], steps, witness, optimal


def twin_quotient(graph: NonComGraph, seed=()) -> NonComGraph:
    """The twin quotient by plain loops, the reference for the one the
    solver builds: one vertex per class of equal rows, in order of first
    occurrence, adjacent when the classes' first vertices are.  Each class
    is labelled by its seed member if it holds one, else by its first
    vertex, so the seed maps in by ``position_of`` and a witness maps out
    by ``vertices``."""
    reps: list[int] = []
    for v, row in enumerate(graph.adjacency):
        if all(graph.adjacency[r] != row for r in reps):
            reps.append(v)
    labels = [graph.vertices[r] for r in reps]
    for e in seed:
        row = graph.adjacency[graph.position_of(e)]
        labels[[graph.adjacency[r] for r in reps].index(row)] = e
    rows = []
    for r in reps:
        row = 0
        for c, s in enumerate(reps):
            if (graph.adjacency[r] >> s) & 1:
                row |= 1 << c
        rows.append(row)
    return NonComGraph(n=graph.n, q=graph.q, vertices=tuple(labels), adjacency=tuple(rows),
                       identity_index=graph.identity_index)


def random_graph(size: int, density: float, seed: int, twins: int = 0) -> NonComGraph:
    """A random graph on ``size`` vertices; with ``twins`` > 0, that many
    planted twins are added and all vertices shuffled: each new vertex copies
    the row of a random original, so it is adjacent to the original's
    neighbours and not to the original."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((size, size)) < density, 1)
    adj = upper | upper.T
    if twins:
        source = rng.permutation(np.concatenate([np.arange(size), rng.integers(0, size, twins)]))
        adj = adj[np.ix_(source, source)]
    return NonComGraph(n=0, q=0, vertices=tuple(range(len(adj))),
                       adjacency=_bits_from_bools(adj), identity_index=0)


# The group graphs are the solver's real inputs, but each is solved in one
# dive; the random graphs have no twins and make the search backtrack
# through 790 to 2130 nodes; the planted twins exercise the class maps.
REFERENCE_GRAPHS = {
    "GL_2(3)": lambda: build_graph(2, 3),
    "GL_3(2)": lambda: build_graph(3, 2),
    "GL_2(7)": lambda: build_graph(2, 7),
    "G(120,0.5)": lambda: random_graph(120, 0.5, 1),
    "G(90,0.7)": lambda: random_graph(90, 0.7, 2),
    "G(200,0.3)": lambda: random_graph(200, 0.3, 3),
    "G(60,0.6)+90 twins": lambda: random_graph(60, 0.6, 4, twins=90),
}


@pytest.mark.parametrize("name", list(REFERENCE_GRAPHS))
def test_stack_search_matches_recursive_reference(name):
    graph = REFERENCE_GRAPHS[name]()
    size, steps, clique, _ = recursive_max_clique(twin_quotient(graph))
    seed = seed_clique(graph.n, graph.q) if graph.n else clique
    # the seed is a maximum clique, so its size serves as an upper bound
    # that stops a search early
    runs = [((), None, None), (seed, None, None), (clique[:2], None, None),
            ((), None, Budget(nodes=3)), (seed, None, Budget(nodes=3)),
            ((), None, Budget(nodes=steps // 2)), ((), size, None), (seed[:-1], size, None)]
    for start, upper, budget in runs:
        res = max_clique(graph, start, upper, budget)
        expect = recursive_max_clique(twin_quotient(graph, start), start, upper, budget)
        assert (res.size, res.steps, res.witness, res.optimal) == expect, (start, upper, budget)


@pytest.mark.parametrize("name", ["GL_2(7)", "G(60,0.6)+90 twins"])
def test_twin_quotient_matches_the_loop_reference(name):
    graph = REFERENCE_GRAPHS[name]()
    label, reps, rows = clique._twin_quotient(graph.adjacency)
    expect = twin_quotient(graph)
    assert rows == expect.adjacency
    assert [graph.vertices[r] for r in reps] == list(expect.vertices)
    assert [label[r] for r in reps] == list(range(len(reps))) and reps == sorted(reps)
    assert all(graph.adjacency[v] == graph.adjacency[reps[c]] for v, c in enumerate(label))


@pytest.mark.parametrize("name", ["G(120,0.5)", "G(90,0.7)", "G(200,0.3)"])
def test_random_graphs_have_no_twins(name):
    graph = REFERENCE_GRAPHS[name]()
    assert twin_quotient(graph) == graph


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_planted_twins_keep_the_clique_number(seed):
    graph = random_graph(40, 0.5, seed, twins=60)
    assert twin_quotient(graph).vertex_count == 40
    size, _, _, optimal = recursive_max_clique(graph)
    res = max_clique(graph)
    assert optimal and res.optimal and res.size == size
    assert verify_clique(graph, res.witness)


def test_planted_twin_seed_members_come_back():
    # the seed takes the last member of each class it meets, where a search
    # from no seed reports the first
    graph = REFERENCE_GRAPHS["G(60,0.6)+90 twins"]()
    clique = recursive_max_clique(twin_quotient(graph))[2]
    seed = tuple(max(v for v in graph.vertices if graph.adjacency[v] == graph.adjacency[e])
                 for e in clique)
    assert seed != clique
    res = max_clique(graph, seed)
    assert res.optimal and res.witness == tuple(sorted(seed))


def test_maximum_seed_comes_back_as_the_witness():
    graph = build_graph(2, 7)
    seed = seed_clique(2, 7)
    res = max_clique(graph, seed)
    assert res.optimal and res.size == 57
    assert res.witness == tuple(sorted(seed))


def test_omega_gl25_without_an_upper_bound():
    graph = build_graph(2, 5)
    res = max_clique(graph)
    assert (res.size, res.optimal, res.upper_bound_used) == (31, True, None)
    assert verify_clique(graph, res.witness)
