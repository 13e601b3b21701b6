"""Non-commuting graphs of small GL_n(q) and exact maximum cliques.

The graph has one vertex per non-central element of GL_n(q) and an edge
between two that do not commute; its clique number is the largest pairwise
non-commuting subset of the group (an abelian group answers 1).

It is built on classes, never on element pairs.  Elements with equal
``GLGroup.algebra_keys`` generate one algebra F_q[M], and C(M) is the
centralizer of that algebra, so they commute with the same elements: they
are twins.  One ``oracle.commuting_table`` over a representative per class
gives every edge in about k^2 / 2 pair tests, as the table is symmetric
(GL_2(7): 2010 vertices, 57 classes), the classes found by
``oracle.key_classes`` in one sort of the keys, and all members of a class
share one packed row.  The vertices are in degeneracy
order: the lowest vertex of least degree is removed first, and the removal
order is reversed.  Twins are never adjacent, so the living members of a
class share one degree, and removing one leaves its own class's degree
unchanged.  So the class of least (degree, lowest living member) gives the
element removed next, step for step as on the elements.

The solver is a branch-and-bound over bitset rows with greedy colouring
bounds (the MCS/BBMC family: Tomita et al. 2010, San Segundo et al. 2011),
one loop over an explicit stack whose frames hold int32 arrays,
with the request's ``oracle.Budget`` checked at every node.  It searches
the twin quotient, one vertex per class of equal rows.

Lemma: a loopless graph G and its twin quotient G/~ have the same clique
number.  Proof: bit v of row v is 0, so if u ~ v then bit v of row u is 0:
twins are never adjacent.  G is symmetric, so twins have equal columns too,
and adjacency between two classes does not depend on the members chosen.
A clique of G meets each class at most once and maps onto a clique of G/~
of the same size, and one member from each class of a clique of G/~ is a
clique of G.  So omega(G) = omega(G/~), and every colour bound on the
quotient bounds G.

The search is seeded with one cyclic matrix per distinct cyclic-matrix
centralizer, a pairwise non-commuting set, and does not run when the seed
meets the covering upper bound (one count per covering abelian subgroup).
Only a finished search or a met bound reports `optimal`; an exhausted
budget returns the best clique found with `optimal=False`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from glcensus.census import UnsupportedRegimeError, a_polynomial, omega_closed
from glcensus.oracle import (
    DEFAULT_BUDGET,
    Budget,
    GLGroup,
    _slices,
    check_scan_budget,
    commuting_table,
    commuting_tiles,
    count_cyclic_centralizers,
    gl_group,
    key_classes,
)


@dataclass(frozen=True)
class NonComGraph:
    """Bitset adjacency over the non-central elements of GL_n(q).

    ``vertices[i]`` is the group-element index of vertex i; vertices are in
    degeneracy order (smallest degree removed first), which the solver
    exploits.  ``adjacency[i]`` has bit j set when vertices i and j do not
    commute; a built graph gives all members of a class one row object.
    """

    n: int
    q: int
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]
    identity_index: int

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.vertices)}

    def position_of(self, element_index: int) -> int:
        """The vertex of a group element; ValueError if it is not one."""
        try:
            return self._positions[element_index]
        except KeyError:
            raise ValueError(f"element {element_index} is not a vertex of this graph") from None


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]  # group-element indices
    optimal: bool
    upper_bound_used: int | None
    steps: int
    seconds: float
    classes: int | None = None  # vertices of the searched quotient; None if no search ran


class SeedVerificationError(RuntimeError):
    """The constructed seed failed its pairwise non-commuting check.

    This cannot happen unless the centralizer census itself is wrong, so it
    aborts loudly instead of degrading."""


def build_graph(n: int, q: int, budget: Budget | None = None) -> NonComGraph:
    """Exact non-commuting graph of GL_n(q), vertices in degeneracy order,
    built on the classes of equal algebra keys (see the module docstring)."""
    check_scan_budget(n, q, f"non-commuting graph of GL_{n}({q})", budget=budget)
    group = gl_group(n, q, budget)
    centre = group.center_indices()
    verts = np.delete(np.arange(group.order), centre)
    first, label = key_classes(group.algebra_keys()[verts])
    reps = group.lifted[verts[first]]
    adj = ~commuting_table(reps, reps, group.field.p)
    order = _degeneracy_order(adj, label)
    label = label[order]
    rows = [row for s in _slices(len(adj), len(label)) for row in _bits_from_bools(adj[s][:, label])]
    return NonComGraph(n=n, q=q, vertices=tuple(verts[order].tolist()),
                       adjacency=tuple(rows[c] for c in label.tolist()), identity_index=centre[0])


def _degeneracy_order(adj: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The vertices in degeneracy order, found on their classes (vertex v in
    class label[v], ``adj`` the classes' adjacency): each step removes the
    lowest living member of the class of least key, degree * V + that
    member; a class with none left keeps a key above every living one."""
    V = len(label)
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=len(adj))
    end = np.cumsum(sizes)
    nxt = (end - sizes).tolist()  # per class, its lowest living member's place in members
    key = np.einsum("cd,d->c", adj, sizes) * V + members[nxt]
    members, end = members.tolist(), end.tolist()
    removal = []
    for _ in range(V):
        c = int(key.argmin())
        v = members[nxt[c]]
        removal.append(v)
        nxt[c] += 1
        np.subtract(key, V, out=key, where=adj[c])
        key[c] = key[c] - v + members[nxt[c]] if nxt[c] < end[c] else np.iinfo(np.int64).max
    return np.array(removal[::-1], dtype=np.int64)


def _bits_from_bools(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of a 2-D bool array as a bitset: bit j of entry i is set
    exactly when rows[i, j] is true."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def seed_clique(n: int, q: int, budget: Budget | None = None) -> tuple[int, ...]:
    """One cyclic matrix per distinct cyclic-matrix centralizer; the result
    is pairwise non-commuting, and that is re-verified before returning."""
    reps = count_cyclic_centralizers(n, q, budget)[1]
    if not _pairwise_noncommuting(gl_group(n, q, budget), reps):
        raise SeedVerificationError(
            f"seed for GL_{n}({q}) contains a commuting pair; centralizer census is inconsistent")
    return reps


def _pairwise_noncommuting(group: GLGroup, indices) -> bool:
    """Whether no two of the elements commute: only the pairs i < j are
    tested, tile by tile, and the first commuting pair ends the test."""
    sel = group.lifted[list(indices)]
    for rows, columns, commute in commuting_tiles(sel, sel, group.field.p, above_diagonal=True):
        if np.triu(commute, rows.start - columns.start + 1).any():
            return False
    return True


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
        f"no covering count available for GL_{n}({q}) (needs q > n, or q = n > 2)")


def verify_clique(graph: NonComGraph, witness) -> bool:
    """Pairwise adjacency check, independent of any solver state: the
    witness is distinct vertices, each row holding all the others."""
    try:
        positions = [graph.position_of(e) for e in witness]
    except ValueError:
        return False
    mask = sum(1 << i for i in set(positions))
    return mask.bit_count() == len(positions) and all(
        (graph.adjacency[i] | 1 << i) & mask == mask for i in positions)


def _colour_order(P: int, adjacency) -> tuple[np.ndarray, np.ndarray]:
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
            cand ^= bit
            cand -= cand & adjacency[v]
            P ^= bit
            order.append(v)
            bounds.append(colour)
    return np.array(order, dtype=np.int32), np.array(bounds, dtype=np.int32)


def _twin_quotient(adjacency) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The classes of equal adjacency rows, numbered in order of first
    occurrence: each vertex's class, each class's first vertex (its
    representative), and the quotient's rows, which are the representatives'
    rows read at the representatives' columns, k bits per row."""
    classes: dict[int, int] = {}
    label = [classes.setdefault(row, len(classes)) for row in adjacency]
    reps = np.unique(label, return_index=True)[1]
    width = (len(adjacency) + 7) // 8
    byte, shift = reps // 8, (reps % 8).astype(np.uint8)
    rows = []
    for r in reps.tolist():
        bits = np.frombuffer(adjacency[r].to_bytes(width, "little"), dtype=np.uint8)[byte] >> shift & 1
        rows.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return label, reps.tolist(), tuple(rows)


def max_clique(graph: NonComGraph, seed=(), upper: int | None = None,
               budget: Budget | None = None) -> CliqueResult:
    """Exact maximum clique by branch and bound with colouring bounds.

    ``seed`` must be a clique (raises ValueError otherwise) and is used as
    the starting incumbent.  If ``upper`` is supplied and the seed meets it,
    the result is certified without branching.  A finished search certifies
    optimality; running out of budget returns the incumbent, unmarked.

    The search runs on the twin quotient (see the module docstring), whose
    vertex count is ``classes``.  The seed maps in by class; the witness
    maps out with each class reporting its seed member if it holds one, else
    its first vertex, and is verified on the full graph.

    The search is one loop over an explicit stack, so its depth is bounded
    only by memory, never by the recursion limit.  Each frame is an open
    node [colour order, colour bounds, next position, candidate set]; its
    branches are taken from the highest colour down, and it closes when the
    next bound cannot beat the incumbent.  Opening a node is one step, and
    the budget's seconds and nodes are checked there.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    start = time.monotonic()
    if seed and not verify_clique(graph, seed):
        raise ValueError("seed is not a clique of this graph")

    if graph.vertex_count == 0:
        # abelian group: a single element is vacuously pairwise non-commuting
        return CliqueResult(size=1, witness=(graph.identity_index,), optimal=True,
                            upper_bound_used=upper, steps=0, seconds=time.monotonic() - start)

    best = [graph.position_of(e) for e in seed]
    if upper is not None and len(best) == upper:
        return CliqueResult(size=len(best), witness=tuple(sorted(seed)), optimal=True,
                            upper_bound_used=upper, steps=0, seconds=time.monotonic() - start)

    label, reps, adjacency = _twin_quotient(graph.adjacency)
    report = [graph.vertices[r] for r in reps]
    for p in best:
        report[label[p]] = graph.vertices[p]
    best = [label[p] for p in best] or [0]
    steps = 0
    optimal = True
    R: list[int] = []  # the clique on the current branch, one vertex per frame below the top
    stack: list[list] = []
    nxt = (1 << len(reps)) - 1
    while True:
        if nxt:
            steps += 1
            if steps > budget.nodes or time.monotonic() - start > budget.seconds:
                optimal = False
                break
            order, bounds = _colour_order(nxt, adjacency)
            stack.append([order, bounds, len(order) - 1, nxt])
            nxt = 0
        frame = stack[-1]
        order, bounds, k, P = frame
        if k >= 0 and len(R) + int(bounds[k]) > len(best):
            R.append(int(order[k]))
            nxt = P & adjacency[R[-1]]
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

    witness_elements = tuple(sorted(report[c] for c in best))
    if not verify_clique(graph, witness_elements):
        raise AssertionError("solver produced a non-clique witness")
    return CliqueResult(size=len(best), witness=witness_elements,
                        optimal=optimal, upper_bound_used=upper, steps=steps,
                        seconds=time.monotonic() - start, classes=len(reps))


def compute_omega(n: int, q: int, budget: Budget | None = None) -> tuple[CliqueResult, int]:
    """Seed, bound, and (only when needed) search; returns (result, seed size).

    When the seed size equals the covering bound the graph is never built:
    the two counts certify each other.  On both paths ``seconds`` runs from
    the start of this call.  The one budget caps the enumeration and scans
    and the search; its seconds limit only the search.
    """
    start = time.monotonic()
    seed = seed_clique(n, q, budget)
    try:
        upper = covering_upper_bound(n, q)
    except UnsupportedRegimeError:
        upper = None
    if upper is not None and len(seed) == upper:
        return (CliqueResult(size=len(seed), witness=tuple(sorted(seed)), optimal=True,
                             upper_bound_used=upper, steps=0, seconds=time.monotonic() - start),
                len(seed))
    graph = build_graph(n, q, budget)
    result = max_clique(graph, seed, upper, budget)
    return dataclasses.replace(result, seconds=time.monotonic() - start), len(seed)
