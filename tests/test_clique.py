import time

import numpy as np
import pytest

from glcensus.census import UnsupportedRegimeError
from glcensus.clique import (
    NonComGraph,
    _bits_from_bools,
    _pairwise_noncommuting,
    SolverBudget,
    build_graph,
    compute_omega,
    covering_upper_bound,
    max_clique,
    seed_clique,
    verify_clique,
)
from glcensus.oracle import BudgetError, FqMatrix, _gl_group_cached, gl_group


def test_graph_shapes():
    assert build_graph(2, 2).vertex_count == 5  # 6 elements, trivial centre
    assert build_graph(2, 3).vertex_count == 46  # centre of order 2
    assert build_graph(2, 4).vertex_count == 177  # centre of order 3


def test_graph_identity_index_is_the_identity():
    group = gl_group(2, 2)
    assert build_graph(2, 2).identity_index == 2
    assert group.mats[2] == FqMatrix.identity(group.field, 2)
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
            assert edge == (a @ b != b @ a)
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
            assert mats[i] @ mats[j] != mats[j] @ mats[i]


def test_covering_upper_bound():
    assert covering_upper_bound(2, 5) == 31
    assert covering_upper_bound(3, 3) == 1067
    # 27677140 (the n=4 census polynomial at q=4) minus 255*252*240*192/(3^4*4!)
    assert covering_upper_bound(4, 4) == 27677140 - 1523200 == 26153940
    for n, q in [(3, 2), (2, 2), (4, 2), (4, 3)]:
        with pytest.raises(UnsupportedRegimeError):
            covering_upper_bound(n, q)


def test_verify_clique():
    graph = build_graph(2, 2)
    # empty and singleton witnesses are vacuously cliques
    assert verify_clique(graph, ())
    assert verify_clique(graph, (graph.vertices[0],))
    # two commuting elements are not a clique: an element and its square
    group = gl_group(2, 3)
    graph3 = build_graph(2, 3)
    for idx in graph3.vertices:
        M = group.mats[idx]
        sq = M @ M
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
        sq_idx = group.mats.index(group.mats[idx] @ group.mats[idx])
        if sq_idx != idx and sq_idx in graph.vertices:
            with pytest.raises(ValueError):
                max_clique(graph, seed=(idx, sq_idx))
            return
    pytest.fail("no non-central element with a distinct non-central square found")


def test_budget_exhaustion_is_not_optimal():
    graph = build_graph(3, 2)
    res = max_clique(graph, budget=SolverBudget(seconds=60.0, steps=3))
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
    square = group.mats.index(M @ M)
    assert square != seed[0]
    assert not _pairwise_noncommuting(group, (seed[0], square))
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
    res = max_clique(graph, budget=SolverBudget(seconds=0))
    assert res.steps == 1 and not res.optimal
    assert verify_clique(graph, res.witness)


@pytest.mark.parametrize("limits", [{"seconds": -1.0}, {"seconds": float("nan")}, {"steps": -1}])
def test_solver_budget_rejects_negative_and_nan_limits(limits):
    with pytest.raises(ValueError):
        SolverBudget(**limits)


def recursive_max_clique(graph, seed=(), upper=None, budget=None):
    """The former recursive branch and bound, kept as the reference for the
    explicit-stack search: returns (size, steps, witness, optimal)."""
    budget = budget if budget is not None else SolverBudget()
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
        if steps > budget.steps:
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


def random_graph(size: int, density: float, seed: int) -> NonComGraph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((size, size)) < density, 1)
    adj = upper | upper.T
    return NonComGraph(n=0, q=0, vertices=tuple(range(size)),
                       adjacency=_bits_from_bools(adj), identity_index=0)


# The group graphs are the solver's real inputs, but each is solved in one
# dive; the random graphs make the search backtrack through 790 to 2130 nodes.
REFERENCE_GRAPHS = {
    "GL_2(3)": lambda: build_graph(2, 3),
    "GL_3(2)": lambda: build_graph(3, 2),
    "GL_2(7)": lambda: build_graph(2, 7),
    "G(120,0.5)": lambda: random_graph(120, 0.5, 1),
    "G(90,0.7)": lambda: random_graph(90, 0.7, 2),
    "G(200,0.3)": lambda: random_graph(200, 0.3, 3),
}


@pytest.mark.parametrize("name", list(REFERENCE_GRAPHS))
def test_stack_search_matches_recursive_reference(name):
    graph = REFERENCE_GRAPHS[name]()
    size, steps, clique, _ = recursive_max_clique(graph)
    seed = seed_clique(graph.n, graph.q) if graph.n else clique
    # the seed is a maximum clique, so its size serves as an upper bound
    # that stops a search early
    runs = [((), None, None), (seed, None, None), (clique[:2], None, None),
            ((), None, SolverBudget(steps=3)), (seed, None, SolverBudget(steps=3)),
            ((), None, SolverBudget(steps=steps // 2)), ((), size, None), (seed[:-1], size, None)]
    for start, upper, budget in runs:
        res = max_clique(graph, start, upper, budget)
        expect = recursive_max_clique(graph, start, upper, budget)
        assert (res.size, res.steps, res.witness, res.optimal) == expect, (start, upper, budget)
