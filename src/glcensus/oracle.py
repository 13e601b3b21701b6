"""Brute-force ground truth over small general linear groups.

Everything here is explicit enumeration over F_q, q = p^e.  ``Fq`` builds
each field from one definition, its regular representation over F_p (Lidl
and Niederreiter, Finite Fields, ch. 2): element a becomes the e x e matrix
``Fq.blocks[a]`` of multiplication by a, and every field table is read off
those matrices.  A group element is kept as its code (its n^2 entries as
base-q digits, row-major), enumerated in ascending code order, and the group
work runs in numpy on its lift, each entry replaced by its block.  The lift
is an injective ring homomorphism, so rank and equality over F_q are
elimination mod p and array equality on d x d matrices over F_p, d = ne.

The two all-pairs scans are 2-D products of residues, run in floating point
where every partial sum is an integer the float holds exactly: float32 below
2^24, float64 below 2^53, and a ValueError before any product beyond that.
``commuting_table`` goes through the commutator operator: in row-major vec,
vec(XS - SX) = K_X vec(S) with K_X = X (x) I - I (x) X^T, so a chunk of X
against all of S is one (B d^2, d^2) @ (d^2, |S|) product of residues, whose
partial sums are at most d^2 (p-1)^2, and X_i commutes with S_j exactly when
column j of the block of X_i is 0 mod p.  ``normalizer_of_set`` forms only
column 0 of each e x e block of gC and Cg, the digits a code reads: one
product per side, with partial sums at most d (p-1)^2.

One kernel, ``_rref``, does every elimination, over a whole stack at once:
GL_n(q) is every entry array whose lift has rank ne; M is cyclic exactly
when the lifts of t^j M^k (j < e, k < n), which span F_q[M] over F_p, have
rank ne; and since C(M) = F_q[M]^x for cyclic M, the census keys each cyclic
M on the reduced echelon form of that span.  ``min_poly`` is the one
hand-written elimination left, for the block checks.  The ``*_task``
functions at the end are the checks both the CLI and the verify suite run.

Budgets are decided from closed forms before anything is built: the group
order caps enumeration, and jm-check's q + q^2 + q^3 candidate polynomials
count as elements; scan steps cap the quadratic tasks (the GL_3(4) census is
charged 3.3e10 steps and is refused by default).

On the lower-bound constant used by the proportion checks: the measured
proportion of cyclic matrices is compared against the exact estimate
(1 - q^-5)/(1 + q^-3) - 1/(q^n (q-1)) and its expanded weakening
1 - q^-3 - q^-5 + q^-6 - q^-n.  The final term enters with a minus sign;
superficially similar forms with +q^-n or -q^n in that position are not
equivalent and are not used here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from glcensus.census import a_polynomial, check_prime_power, gl_order


class BudgetError(RuntimeError):
    """A task would exceed the configured enumeration or scan budget."""

    def __init__(self, message: str, required: int, allowed: int):
        super().__init__(f"{message} (required {required}, budget {allowed})")
        self.required = required
        self.allowed = allowed


@dataclass(frozen=True)
class Budget:
    """Caps for oracle tasks: group elements enumerated, and scan steps."""

    elements: int = 200_000
    steps: int = 1_000_000_000

    def __post_init__(self) -> None:
        if self.elements < 0:
            raise ValueError(f"element budget must be nonnegative, got {self.elements}")
        if self.steps < 0:
            raise ValueError(f"step budget must be nonnegative, got {self.steps}")


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# finite fields
#
# Polynomials over F_q are ascending coefficient tuples.


class Fq:
    """The field with q = p^e elements, defined by its regular representation.

    Element a is the integer whose base-p digits are the coefficients of a
    residue mod f, the least monic irreducible of degree e in encoding order
    (f = t when e = 1).  ``blocks[a]`` = a(C) mod p, C the companion matrix of
    f, is the matrix of multiplication by a on 1, t, ..., t^(e-1): column j
    holds the digits of a t^j.  It is the one definition of the product; the
    dense add/mul/neg/inv tables are read off it and the digits.
    """

    def __init__(self, q: int):
        p, e = check_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        if e == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = next(f for f in (tuple(d) + (1,) for d in digits.tolist())
                                if fqpoly_is_irreducible(get_field(p), f))
        companion = np.eye(e, k=-1, dtype=np.int64)
        companion[:, -1] = np.negative(self.modulus[:e]) % p
        powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            powers.append(powers[-1] @ companion % p)
        self.blocks = np.einsum("ai,ijk->ajk", digits, np.array(powers)) % p
        self.blocks.flags.writeable = False
        mul = np.einsum("ajk,bk->abj", self.blocks, digits) % p @ place
        self.add_table = tuple(map(tuple, ((digits[:, None] + digits) % p @ place).tolist()))
        self.mul_table = tuple(map(tuple, mul.tolist()))
        self.neg_table = tuple((-digits % p @ place).tolist())
        self.inv_table = tuple(np.argmax(mul == 1, axis=1).tolist())

    # element operations
    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Fq", self.q))

    def __repr__(self) -> str:
        return f"Fq({self.q})"


@lru_cache(maxsize=None)
def get_field(q: int) -> Fq:
    return Fq(q)


# ---------------------------------------------------------------------------
# polynomials over Fq


def fqpoly_trim(field: Fq, c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fqpoly_mul(field: Fq, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return fqpoly_trim(field, out)


def fqpoly_pow(field: Fq, f, m: int) -> tuple[int, ...]:
    result = (1,)
    for _ in range(m):
        result = fqpoly_mul(field, result, f)
    return result


def fqpoly_divmod(field: Fq, a, b):
    a = list(a)
    db = len(b) - 1
    inv_lb = field.inv(b[-1])
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = field.mul(a[i + db], inv_lb)
        if c:
            quo[i] = c
            for j, bc in enumerate(b):
                a[i + j] = field.sub(a[i + j], field.mul(c, bc))
    return fqpoly_trim(field, quo), fqpoly_trim(field, a)


def fqpoly_is_irreducible(field: Fq, f) -> bool:
    d = len(f) - 1
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(field.q), repeat=deg):
            g = tail + (1,)
            if not fqpoly_divmod(field, f, g)[1]:
                return False
    return True


def monic_irreducibles(field: Fq, degree: int) -> list[tuple[int, ...]]:
    out = []
    for tail in itertools.product(range(field.q), repeat=degree):
        f = tail + (1,)
        if fqpoly_is_irreducible(field, f):
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class FqMatrix:
    field: Fq
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(field: Fq, n: int) -> FqMatrix:
        return FqMatrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: FqMatrix) -> FqMatrix:
        F = self.field
        n = self.n
        brows = other.rows
        out = []
        for i in range(n):
            arow = self.rows[i]
            row = []
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = F.add(acc, F.mul(arow[k], brows[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return FqMatrix(F, tuple(out))


# ---------------------------------------------------------------------------
# minimal polynomials


def min_poly(M: FqMatrix) -> tuple[int, ...]:
    """Monic minimal polynomial, ascending coefficients, via the first
    linear dependency among I, M, M^2, ... in the n^2-dimensional space."""
    F = M.field
    n = M.n
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, vector, combo)
    power = FqMatrix.identity(F, n)
    for k in range(n + 1):
        vec = [x for row in power.rows for x in row]
        combo = [0] * (n + 1)
        combo[k] = 1
        for pivot, bvec, bcombo in basis:
            c = vec[pivot]
            if c:
                vec = [F.sub(x, F.mul(c, y)) for x, y in zip(vec, bvec)]
                combo = [F.sub(x, F.mul(c, y)) for x, y in zip(combo, bcombo)]
        if not any(vec):
            lead_inv = F.inv(combo[k])
            return tuple(F.mul(lead_inv, c) for c in combo[: k + 1])
        pivot = next(i for i, x in enumerate(vec) if x)
        inv = F.inv(vec[pivot])
        vec = [F.mul(inv, x) for x in vec]
        combo = [F.mul(inv, x) for x in combo]
        basis.append((pivot, vec, combo))
        power = power @ M
    raise AssertionError("no dependency among n+1 matrix powers")


# ---------------------------------------------------------------------------
# block matrices from the module classification


def jm_block(field: Fq, f: tuple[int, ...], m: int) -> FqMatrix:
    """Block matrix with m companion blocks of the monic polynomial f on the
    diagonal and identity blocks on the superdiagonal; its minimal (and
    characteristic) polynomial is f^m."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("f must be monic of degree at least 1")
    n = d * m
    rows = [[0] * n for _ in range(n)]
    for b in range(m):
        off = b * d
        for i in range(d - 1):
            rows[off + i][off + i + 1] = 1
        for j in range(d):
            rows[off + d - 1][off + j] = field.neg(f[j])
        if b + 1 < m:
            for i in range(d):
                rows[off + i][off + d + i] = 1
    return FqMatrix(field, tuple(tuple(r) for r in rows))


def regular_unipotent(field: Fq, n: int) -> FqMatrix:
    """The full Jordan block with eigenvalue 1: minimal polynomial (t-1)^n."""
    return jm_block(field, (field.neg(1), 1), n)


def noncyclic_centralizer_witness() -> FqMatrix:
    """A 4x4 unipotent matrix over F_2 contained in no cyclic-matrix
    centralizer: its own centralizer has order 16 and no cyclic member."""
    return FqMatrix(get_field(2), ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))


# ---------------------------------------------------------------------------
# batched elimination, group enumeration and scans


# Entries of the largest stack one step of the group work materialises at once.
_CHUNK_ENTRIES = 2_000_000


def _slices(count: int, entries_per_item: int):
    """Consecutive slices of range(count), each of at most _CHUNK_ENTRIES entries."""
    step = max(1, _CHUNK_ENTRIES // max(1, entries_per_item))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _exact_dtypes(bound: int):
    """(float dtype, integer dtype) for a product of residues whose partial
    sums are integers in [0, bound]: float32 holds every integer below 2^24
    and float64 every one below 2^53, so either product is exact, and the
    integer dtype holds the result."""
    if bound >= 2**53:
        raise ValueError(f"partial sums up to {bound} exceed the exact float64 range 2^53")
    return (np.float32, np.int32) if bound < 2**24 else (np.float64, np.int64)


def _rref(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms mod p of a stack (B, r, c) of integer
    matrices, and their ranks: one pass over the columns, vectorised over B."""
    m = np.array(stack, dtype=np.int64) % p
    count, r, c = m.shape
    inv = np.array(get_field(p).inv_table, dtype=np.int64)
    batch, rows = np.arange(count), np.arange(r)
    rank = np.zeros(count, dtype=np.int64)
    for col in range(c):
        # the pivot is the first row at or below the rank with a nonzero entry;
        # a matrix without one keeps top = pivot and eliminates nothing.  The
        # pivot row is zero left of col, so elimination changes only col:.
        found = (m[:, :, col] != 0) & (rows >= rank[:, None])
        has = found.any(axis=1)
        top = np.minimum(rank, r - 1)
        pivot = np.where(has, found.argmax(axis=1), top)
        row = m[batch, pivot]
        m[batch, pivot] = m[batch, top]
        row = row * inv[row[:, col]][:, None] % p
        rest = m[:, :, col:]
        rest -= np.where(has[:, None], m[:, :, col], 0)[:, :, None] * row[:, None, col:]
        rest %= p
        m[batch, top] = np.where(has[:, None], row, m[batch, top])
        rank += has
    return m, rank


def commuting_table(X: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """Bool table over two stacks of d x d matrices over F_p (integer
    arrays, such as lifted group elements): entry (i, j) is whether
    X_i S_j = S_j X_i mod p.

    Each chunk of X is one product K @ V: K stacks the commutator operators
    K_X = X (x) I - I (x) X^T mod p, one d^2 x d^2 block per X_i, and V holds
    vec(S_j) mod p in column j.  Column j of the block of X_i is then
    congruent to vec(X_i S_j - S_j X_i) mod p, so the pair commutes exactly
    when every entry of that column is divisible by p.
    """
    d = X.shape[-1]
    real, whole = _exact_dtypes(d * d * (p - 1) ** 2)
    eye = np.eye(d, dtype=np.int64)
    V = (S.reshape(len(S), d * d).T % p).astype(real)
    table = np.empty((len(X), len(S)), dtype=bool)
    for s in _slices(len(X), len(S) * d * d):
        K = np.einsum("bak,jl->bajkl", X[s], eye) - np.einsum("ak,blj->bajkl", eye, X[s])
        v = ((K.reshape(-1, d * d) % p).astype(real) @ V).astype(whole)
        table[s] = (v // p * p == v).reshape(-1, d * d, len(S)).all(axis=1)
    return table


class GLGroup:
    """Fully enumerated GL_n(q), each element stored once: ``elements`` holds
    the codes in ascending order, ``lifted`` the matching stack over F_p.
    ``mats`` is a view of them as ``FqMatrix``, decoded on first read and kept
    for perfbench and the tests; no package path reads it."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.field = get_field(q)
        self.order = gl_order(n).eval(q)
        p, e = self.field.p, self.field.e
        d = n * e
        # place of entry (r, c) in a code: q^(n^2 - 1 - (rn + c)); digit i of it weighs p^i more
        self._place = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        self._weights = (self._place.reshape(n, 1, n) * p ** np.arange(e).reshape(1, e, 1)).reshape(-1)
        elements, lifted = [], []
        for s in _slices(q ** (n * n), d * d):
            code = np.arange(s.start, s.stop)
            lift = self.lift(self.decode(code))
            invertible = _rref(lift, p)[1] == d
            elements.append(code[invertible])
            lifted.append(lift[invertible])
        self.elements = np.concatenate(elements)
        self.lifted = np.concatenate(lifted)
        if len(self.elements) != self.order:
            raise AssertionError("enumeration does not match the group order")
        self._cyclic: tuple[bool, ...] | None = None
        self._keys: np.ndarray | None = None

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The F_q entries (..., n, n) of an array of codes."""
        return (codes[..., None] // self._place % self.q).reshape(codes.shape + (self.n, self.n))

    @cached_property
    def mats(self) -> tuple[FqMatrix, ...]:
        return tuple(FqMatrix(self.field, tuple(map(tuple, rows)))
                     for rows in self.decode(self.elements).tolist())

    def lift(self, entries) -> np.ndarray:
        """F_q entries of shape (..., n, n) as (..., ne, ne) matrices over F_p:
        the field's regular representation, entry a becoming ``field.blocks[a]``."""
        entries = np.asarray(entries, dtype=np.int64)
        d = self.n * self.field.e
        return self.field.blocks[entries].swapaxes(-3, -2).reshape(entries.shape[:-2] + (d, d))

    def codes(self, columns: np.ndarray) -> np.ndarray:
        """One integer per matrix in a stack of block columns (..., ne, n):
        column 0 of every e x e block of a reduced lifted matrix, which holds
        the digits of its n^2 F_q entries, read as base-q digits in row-major
        order, as in ``elements``.  The block columns of a lifted stack are
        ``lifted[..., ::e]``."""
        return np.einsum("...rj,rj->...", columns, self._weights.reshape(-1, self.n))

    def center_indices(self) -> tuple[int, ...]:
        """Indices of the scalars cI, c = 1..q-1, ascending: the code of cI is c
        times the sum of the diagonal places, so the identity comes first."""
        diagonal = int(self._place[:: self.n + 1].sum())
        codes = diagonal * np.arange(1, self.q, dtype=np.int64)
        return tuple(np.searchsorted(self.elements, codes).tolist())

    def cyclic_flags(self) -> tuple[bool, ...]:
        """Whether each element M is cyclic: the F_p-span of the t^j M^k
        (j < e, k < n), which is F_q[M] of dimension e deg(min poly of M), has
        rank ne.  Their digits are columns j of the blocks of the lifted M^k.
        The row codes of the span's echelon form are kept as census keys."""
        if self._cyclic is None:
            n, e, p = self.n, self.field.e, self.field.p
            d = n * e
            flags, keys = [], []
            for s in _slices(self.order, n * d * d):
                powers = [np.broadcast_to(np.eye(d, dtype=np.int64), self.lifted[s].shape)]
                for _ in range(n - 1):
                    powers.append(powers[-1] @ self.lifted[s] % p)
                blocks = np.stack(powers, axis=1).reshape(-1, n, n, e, n, e)
                rref, rank = _rref(blocks.transpose(0, 5, 1, 2, 3, 4).reshape(-1, d, n * d), p)
                flags.append(rank == d)
                keys.append(rref @ self._weights)
            self._cyclic = tuple(np.concatenate(flags).tolist())
            self._keys = np.concatenate(keys)
        return self._cyclic

    def commuting_indices(self, M: FqMatrix) -> tuple[int, ...]:
        """Indices of every group element commuting with M (full scan, with
        M on the operator side: one d^2 x d^2 operator against the group)."""
        row = commuting_table(self.lift([M.rows]), self.lifted, self.field.p)[0]
        return tuple(int(i) for i in np.flatnonzero(row))

    def cyclic_centralizer_census(self) -> tuple[int, ...]:
        """One representative index per distinct centralizer of a cyclic
        element, ascending: the least cyclic index with each census key.

        C(M) = F_q[M]^x for cyclic M, so equal keys (equal algebras) are
        exactly equal centralizers.  Cross-check: every cyclic element
        commutes with the representative of its key.
        """
        cyclic = np.flatnonzero(self.cyclic_flags())
        _, first, key = np.unique(self._keys[cyclic], axis=0, return_index=True, return_inverse=True)
        owner = cyclic[first][key.reshape(-1)]
        p = self.field.p
        for s in _slices(len(cyclic), self.lifted.shape[-1] ** 2):
            A, R = self.lifted[cyclic[s]], self.lifted[owner[s]]
            if not (A @ R % p == R @ A % p).all():
                raise AssertionError("a cyclic element does not commute with its key's representative")
        return tuple(sorted(cyclic[first].tolist()))


@lru_cache(maxsize=None)
def _gl_group_cached(n: int, q: int) -> GLGroup:
    return GLGroup(n, q)


def check_degree(n: int) -> None:
    """Refuse a matrix size n < 1, naming the n given."""
    if n < 1:
        raise ValueError(f"GL_n(q) needs n >= 1, got n = {n}")


def check_scan_budget(n: int, q: int, task: str, steps_per_element: int | None = None,
                      budget: Budget | None = None) -> None:
    """Refuse a task over GL_n(q) that would exceed either budget, decided
    from the closed-form group order before anything is enumerated.

    The task takes |GL_n(q)| * steps_per_element scan steps; the default is
    a pairwise scan, |GL_n(q)| steps per element.
    """
    check_degree(n)
    budget = budget if budget is not None else DEFAULT_BUDGET
    order = gl_order(n).eval(q)
    if order > budget.elements:
        raise BudgetError(f"|GL_{n}({q})| exceeds the enumeration budget", order, budget.elements)
    steps = order * (order if steps_per_element is None else steps_per_element)
    if steps > budget.steps:
        raise BudgetError(f"{task} exceeds the scan budget", steps, budget.steps)


def gl_group(n: int, q: int, budget: Budget | None = None) -> GLGroup:
    check_scan_budget(n, q, f"enumeration of GL_{n}({q})", 0, budget)
    return _gl_group_cached(n, q)


@dataclass(frozen=True)
class CentralizerSet:
    """A centralizer realised as a sorted tuple of group-element indices."""

    n: int
    q: int
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def centralizer(M: FqMatrix, budget: Budget | None = None) -> CentralizerSet:
    """Exact centralizer of M inside its ambient GL_n(q), by full scan."""
    n = M.n
    q = M.field.q
    group = gl_group(n, q, budget)
    return CentralizerSet(n=n, q=q, members=group.commuting_indices(M))


def count_cyclic_centralizers(n: int, q: int,
                              budget: Budget | None = None) -> tuple[int, tuple[int, ...]]:
    """Number of distinct centralizers of cyclic matrices, plus one cyclic
    representative index per centralizer (the least, so output is stable)."""
    check_scan_budget(n, q, f"centralizer census of GL_{n}({q})", budget=budget)
    reps = gl_group(n, q, budget).cyclic_centralizer_census()
    return len(reps), reps


def normalizer_of_set(cset: CentralizerSet, budget: Budget | None = None) -> int:
    """Order of {g : g C g^-1 = C}, by scanning the whole group.

    The condition is tested as the equivalent set equality gC = Cg, on the
    sorted codes of both products, so no inverse is ever formed.  A code
    reads only the block columns (column 0 of each e x e block), so only
    those n columns of each gc and cg are formed: per chunk of g, one
    product of the stacked g against the block columns of all of C, and one
    of the stacked members of C against the block columns of all the g.
    """
    check_scan_budget(cset.n, cset.q, "normalizer scan", cset.order, budget)
    group = gl_group(cset.n, cset.q, budget)
    n, e, p = group.n, group.field.e, group.field.p
    d = n * e
    real, whole = _exact_dtypes(d * (p - 1) ** 2)
    C = group.lifted[list(cset.members)]
    c = len(C)
    C_rows = C.reshape(c * d, d).astype(real)
    C_cols = C[..., ::e].transpose(1, 0, 2).reshape(d, c * n).astype(real)
    count = 0
    for s in _slices(group.order, 2 * c * d * n):
        G = group.lifted[s]
        b = len(G)
        # gc: rows (g, r), columns (c, j); cg: rows (c, r), columns (g, j)
        gc = (G.reshape(b * d, d).astype(real) @ C_cols).astype(whole)
        cg = (C_rows @ G[..., ::e].transpose(1, 0, 2).reshape(d, b * n).astype(real)).astype(whole)
        gc = (gc - gc // p * p).reshape(b, d, c, n).transpose(0, 2, 1, 3)
        cg = (cg - cg // p * p).reshape(c, d, b, n).transpose(2, 0, 1, 3)
        same = np.sort(group.codes(gc), axis=1) == np.sort(group.codes(cg), axis=1)
        count += int(same.all(axis=1).sum())
    return count


# ---------------------------------------------------------------------------
# the oracle tasks, each run by both the CLI and the verify suite


def wall_bound_task(n: int, q: int, budget: Budget | None = None):
    """(the exact fraction of cyclic elements of GL_n(q), its two lower
    bounds by name, whether it meets the first and exceeds the second)."""
    group = gl_group(n, q, budget)
    c = Fraction(sum(group.cyclic_flags()), group.order)
    qf = Fraction(q)
    bounds = {
        "estimate_minus_error": (1 - qf**-5) / (1 + qf**-3) - Fraction(1, q**n * (q - 1)),
        "expanded_lower": 1 - qf**-3 - qf**-5 + qf**-6 - qf**-n,
    }
    return c, bounds, c >= bounds["estimate_minus_error"] and c > bounds["expanded_lower"]


def centralizer_count_task(n: int, q: int, budget: Budget | None = None) -> tuple[int, int, bool]:
    """(distinct cyclic centralizers, a_n(q), whether the count equals a_n(q)
    for q > n and is strictly below it otherwise)."""
    count, _ = count_cyclic_centralizers(n, q, budget)
    value = a_polynomial(n).eval(q)
    return count, value, count == value if q > n else count < value


def regular_unipotent_task(n: int, q: int, budget: Budget | None = None) -> tuple[int, int, int, int]:
    """(centralizer order, expected, normalizer order, expected) for the
    regular unipotent of GL_n(q); for n = 1 the normalizer is all of GL_1(q)."""
    cset = centralizer(regular_unipotent(get_field(q), n), budget)
    expect_normalizer = (q - 1) ** 2 * q ** (2 * n - 3) if n > 1 else q - 1
    return cset.order, q**n - q ** (n - 1), normalizer_of_set(cset, budget), expect_normalizer


def jm_check_task(q: int,
                  budget: Budget | None = None) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(cases, failing (f, m)) of min_poly(J_m(f)) = f^m over F_q, for every
    monic irreducible f of degree at most 3 and m <= 3.  The q + q^2 + q^3
    candidate f are charged to the element budget before F_q is built."""
    budget = budget if budget is not None else DEFAULT_BUDGET
    candidates = q + q**2 + q**3
    if candidates > budget.elements:
        raise BudgetError(f"jm-check over F_{q} exceeds the enumeration budget", candidates, budget.elements)
    F = get_field(q)
    cases = [(f, m) for d in (1, 2, 3) for f in monic_irreducibles(F, d) for m in (1, 2, 3)]
    return len(cases), [(f, m) for f, m in cases if min_poly(jm_block(F, f, m)) != fqpoly_pow(F, f, m)]


def remark_matrix_task(budget: Budget | None = None) -> tuple[int, int]:
    """(centralizer order, cyclic members) of the GL_4(2) witness: (16, 0)."""
    cset = centralizer(noncyclic_centralizer_witness(), budget)
    flags = gl_group(4, 2, budget).cyclic_flags()
    return cset.order, sum(flags[i] for i in cset.members)
