"""Non-commuting graphs of small GL_n(q) and exact maximum cliques.

The graph has one vertex per non-central group element, with an edge exactly
when the two elements do not commute; its clique number equals the largest
pairwise non-commuting subset of the group (central elements never extend a
clique of size two or more, and the one-vertex case is the abelian group,
where the answer is 1).  Both the graph and the seed check read one table,
``oracle.commuting_table``, over the lifted group elements.  It takes each
element X as its commutator operator K_X = X (x) I - I (x) X^T, for which
K_X vec(S) = vec(XS - SX) in row-major vec, so X commutes with S exactly when
K_X vec(S) is 0 mod p; a block of operators meets all of the vec(S) in one
exact floating-point product of residues.  The adjacency is the table's
negation, packed into one bitset per row, and the seed is pairwise
non-commuting when the table is false off the diagonal.

The solver is a branch-and-bound over bitset adjacency rows with greedy
colouring bounds (the MCS/BBMC family: Tomita et al. 2010, San Segundo et
al. 2011), run as one loop over an explicit stack, so no graph is too deep
for it; the time budget is checked at every node.  It is seeded with the
pairwise non-commuting set built from one cyclic matrix per distinct
cyclic-matrix centralizer.  Whenever that seed already meets the covering
upper bound (one count per covering abelian subgroup), no search happens at
all: lower bound equals upper bound.  A finished search, or a met bound, is
the only way `optimal` is ever reported True; exhausting the time or step
budget returns the best clique found with `optimal=False`, never a wrong
certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from glcensus.census import UnsupportedRegimeError, a_polynomial, omega_closed
from glcensus.oracle import (
    Budget,
    GLGroup,
    check_scan_budget,
    commuting_table,
    count_cyclic_centralizers,
    gl_group,
)


@dataclass(frozen=True)
class SolverBudget:
    seconds: float = 60.0
    steps: int = 1_000_000_000

    def __post_init__(self) -> None:
        # `not seconds >= 0` also rejects NaN, a budget no elapsed time exceeds
        if not self.seconds >= 0:
            raise ValueError(f"time budget must be nonnegative seconds, got {self.seconds}")
        if self.steps < 0:
            raise ValueError(f"step budget must be nonnegative, got {self.steps}")


@dataclass(frozen=True)
class NonComGraph:
    """Bitset adjacency over the non-central elements of GL_n(q).

    ``vertices[i]`` is the group-element index of vertex i; vertices are in
    degeneracy order (smallest degree removed first), which the solver
    exploits.  ``adjacency[i]`` has bit j set when vertices i and j do not
    commute.
    """

    n: int
    q: int
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]
    identity_index: int

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def position_of(self, element_index: int) -> int:
        return self.vertices.index(element_index)


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]  # group-element indices
    optimal: bool
    upper_bound_used: int | None
    steps: int
    seconds: float


class SeedVerificationError(RuntimeError):
    """The constructed seed failed its pairwise non-commuting check.

    This cannot happen unless the centralizer census itself is wrong, so it
    aborts loudly instead of degrading."""


def build_graph(n: int, q: int, budget: Budget | None = None) -> NonComGraph:
    """Exact non-commuting graph of GL_n(q), vertices in degeneracy order."""
    check_scan_budget(n, q, f"non-commuting graph of GL_{n}({q})", budget=budget)
    group = gl_group(n, q, budget)
    central = set(group.center_indices())
    verts = [i for i in range(group.order) if i not in central]
    lifted = group.lifted[verts]
    adj = ~commuting_table(lifted, lifted, group.field.p)
    order = _degeneracy_order(adj)
    verts_ordered = tuple(verts[k] for k in order)
    rows = _bits_from_bools(adj[np.ix_(order, order)])
    return NonComGraph(n=n, q=q, vertices=verts_ordered, adjacency=rows,
                       identity_index=group.center_indices()[0])


def _degeneracy_order(adj: np.ndarray) -> list[int]:
    """Repeatedly remove a smallest-degree vertex; removal order reversed
    puts small degrees last, ties broken by vertex number for determinism."""
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


def _bits_from_bools(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of a 2-D bool array as a bitset: bit j of entry i is set
    exactly when rows[i, j] is true."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def seed_clique(n: int, q: int, budget: Budget | None = None) -> tuple[int, ...]:
    """One cyclic matrix per distinct cyclic-matrix centralizer; the result
    is pairwise non-commuting, and that is re-verified before returning."""
    count, reps = count_cyclic_centralizers(n, q, budget)
    group = gl_group(n, q, budget)
    if not _pairwise_noncommuting(group, reps):
        raise SeedVerificationError(
            f"seed for GL_{n}({q}) contains a commuting pair; centralizer census is inconsistent"
        )
    assert len(reps) == count
    return reps


def _pairwise_noncommuting(group: GLGroup, indices) -> bool:
    sel = group.lifted[list(indices)]
    commute = commuting_table(sel, sel, group.field.p)
    np.fill_diagonal(commute, False)
    return not commute.any()


def covering_upper_bound(n: int, q: int) -> int:
    """Count of covering abelian subgroups: a proven clique-number ceiling.

    Supported exactly where a closed count exists: q > n, and the refined
    q = n > 2 value.  Elsewhere raises, and the solver runs unbounded.
    """
    if q > n:
        return a_polynomial(n).eval(q)
    if q == n and q > 2:
        return omega_closed(n, q)
    raise UnsupportedRegimeError(
        f"no covering count available for GL_{n}({q}) (needs q > n, or q = n > 2)"
    )


def verify_clique(graph: NonComGraph, witness) -> bool:
    """Pairwise adjacency check, independent of any solver state."""
    try:
        positions = [graph.position_of(e) for e in witness]
    except ValueError:
        return False
    if len(set(positions)) != len(positions):
        return False
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            i, j = positions[a], positions[b]
            if not (graph.adjacency[i] >> j) & 1:
                return False
    return True


def _colour_order(P: int, adjacency) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of the candidate set P: the vertices in
    colour order, each with its colour number, an upper bound on the size
    of any clique among it and the vertices before it."""
    order: list[int] = []
    bounds: list[int] = []
    colour = 0
    while P:
        colour += 1
        cand = P
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~adjacency[v] & ~bit
            P &= ~bit
            order.append(v)
            bounds.append(colour)
    return order, bounds


def max_clique(graph: NonComGraph, seed=(), upper: int | None = None,
               budget: SolverBudget | None = None) -> CliqueResult:
    """Exact maximum clique by branch and bound with colouring bounds.

    ``seed`` must be a clique (raises ValueError otherwise) and is used as
    the starting incumbent.  If ``upper`` is supplied and the seed meets it,
    the result is certified without branching.  A finished search certifies
    optimality; running out of budget returns the incumbent, unmarked.

    The search is one loop over an explicit stack, so its depth is bounded
    only by memory, never by the interpreter's recursion limit.  Each frame
    is an open node [colour order, colour bounds, next position, candidate
    set]; its branches are taken from the highest colour down, and the node
    closes when the next bound cannot beat the incumbent.  Opening a node is
    one step, and both budgets are checked there, at every node.
    """
    budget = budget if budget is not None else SolverBudget()
    start = time.monotonic()
    if seed and not verify_clique(graph, seed):
        raise ValueError("seed is not a clique of this graph")

    if graph.vertex_count == 0:
        # abelian group: a single element is vacuously pairwise non-commuting
        return CliqueResult(size=1, witness=(graph.identity_index,), optimal=True,
                            upper_bound_used=upper, steps=0,
                            seconds=time.monotonic() - start)

    best = [graph.position_of(e) for e in seed]
    if upper is not None and len(best) == upper:
        return CliqueResult(size=len(best), witness=tuple(sorted(seed)), optimal=True,
                            upper_bound_used=upper, steps=0,
                            seconds=time.monotonic() - start)

    adjacency = graph.adjacency
    best = best or [0]
    steps = 0
    optimal = True
    R: list[int] = []  # the clique on the current branch, one vertex per frame below the top
    stack: list[list] = []
    nxt = (1 << graph.vertex_count) - 1
    while True:
        if nxt:
            steps += 1
            if steps > budget.steps or time.monotonic() - start > budget.seconds:
                optimal = False
                break
            order, bounds = _colour_order(nxt, adjacency)
            stack.append([order, bounds, len(order) - 1, nxt])
            nxt = 0
        frame = stack[-1]
        order, bounds, k, P = frame
        if k >= 0 and len(R) + bounds[k] > len(best):
            R.append(order[k])
            nxt = P & adjacency[order[k]]
            if nxt:
                continue
            if len(R) > len(best):
                best = list(R)
        else:
            stack.pop()
            if not stack:
                break
            frame = stack[-1]
        # the branch on R[-1] is finished: drop it from the frame that took it
        v = R.pop()
        if upper is not None and len(best) == upper:
            break
        frame[2] -= 1
        frame[3] &= ~(1 << v)

    witness_elements = tuple(sorted(graph.vertices[p] for p in best))
    if not verify_clique(graph, witness_elements):
        raise AssertionError("solver produced a non-clique witness")
    return CliqueResult(size=len(best), witness=witness_elements,
                        optimal=optimal, upper_bound_used=upper, steps=steps,
                        seconds=time.monotonic() - start)


def compute_omega(n: int, q: int, budget: Budget | None = None,
                  solver_budget: SolverBudget | None = None) -> tuple[CliqueResult, int]:
    """Seed, bound, and (only when needed) search; returns (result, seed size).

    When the seed size equals the covering bound the graph is never built:
    the two counts certify each other.
    """
    start = time.monotonic()
    seed = seed_clique(n, q, budget)
    try:
        upper = covering_upper_bound(n, q)
    except UnsupportedRegimeError:
        upper = None
    if upper is not None and len(seed) == upper:
        return (
            CliqueResult(size=len(seed), witness=tuple(sorted(seed)), optimal=True,
                         upper_bound_used=upper, steps=0,
                         seconds=time.monotonic() - start),
            len(seed),
        )
    graph = build_graph(n, q, budget)
    result = max_clique(graph, seed, upper, solver_budget)
    return result, len(seed)
