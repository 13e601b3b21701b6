"""Brute-force ground truth over small general linear groups.

Everything here is explicit enumeration over F_q, q = p^e.  ``Fq`` builds
each field from one definition, its regular representation over F_p (Lidl
and Niederreiter, Finite Fields, ch. 2): element a becomes the e x e matrix
``Fq.blocks[a]`` of multiplication by a, and there is no other product in
F_q.  A matrix over F_q is worked on as its lift ``Fq.lift``, each entry
replaced by its block.  The lift is an injective ring homomorphism, so
products, rank and equality over F_q are products mod p, elimination mod p
and array equality on d x d matrices over F_p, d = ne.  A group element is
kept as its code (its n^2 entries as base-q digits, row-major), enumerated
in ascending code order beside its lift.  A cached group holds only such
arrays and scalars: ``GLGroup.mats``, the elements as ``FqMatrix``, is a view
decoded from the codes on every read, and nothing keeps what it decodes.
Codes and the row codes of algebra keys are below q^(n^2), so both are kept
in the narrowest signed dtype holding q^(n^2) - 1 (int16 for GL_3(3), int32
for GL_4(2)); the cyclic flags are one bool array.

Residues are stored narrow, and no product is formed in the narrow dtype: a
group's lifts are gathered and kept in the narrowest signed dtype holding
p - 1 (int8 for p <= 127) and widened before every product, to int64 or to
an exact float.  ``Fq.lift`` returns int64 by default, as the polynomial
checks multiply its results as they are.  The powers behind the cyclic flags,
the census cross-check and the two all-pairs scans are products of
residues run in floating point where every partial sum is an integer the
float holds exactly: float32 below 2^24, float64 below 2^53, and a
ValueError before any product beyond that.
``commuting_tiles`` goes through the commutator operator: in row-major vec,
vec(XS - SX) = K_X vec(S) with K_X = X (x) I - I (x) X^T, so a tile of B
elements X against C elements S is the stack K (B, d^2, d^2) @ vec(S)
(d^2, C) of products of residues, whose partial sums are at most
d^2 (p-1)^2, and X_i commutes with S_j exactly when column j of K_i vec(S)
is 0 mod p.  The census cross-check multiplies its pairs of lifts both
ways, with partial sums at most d (p-1)^2.  ``normalizer_of_set`` forms
only column 0 of each e x e block of gC, Cg and g c0, the digits a code
reads, for a chunk of b elements g: Cg as the stack of members C (c, d, d)
against the block columns (d, b n) of the g, and gC as the stack G
(b, d, d) against the block columns (d, c n) of the members, with partial
sums at most d (p-1)^2.

Every float product is such a stack of per-element products (with at most
_TILE_COLUMNS columns each in a commuting tile), never one large 2-D
product of concatenated elements: OpenBLAS, numpy's BLAS, runs a 2-D
product of more than a few hundred thousand multiply-adds on its worker
threads, which cost a fresh process up to a third of a second of waiting
and raised its peak resident set, and each small product of a stack on
the calling thread.  Each product is reduced mod p in the narrowest signed
dtype holding its partial-sum bound plus p (``_exact_dtypes``): int8 for
the commuting scans of GL_3(3), GL_2(8) and GL_4(2).

All group work runs in chunks of a stack, sized in bytes: each step passes
``_slices`` the bytes per item of the widest array it allocates, so that
array stays within ``_CHUNK_BYTES`` (512 KiB), and each kernel holds only
a few arrays of that width at once.  That bounds the transient memory of a
step whatever the group.  Stacks are kept narrow (lifts and spans in their
residue dtype, forms in ``_rref``'s working dtype, products in float32
where exact), so a chunk still holds many items.  A commuting tile is such
a chunk on both axes.

GL_n(q) is enumerated without elimination, one row at a time: a matrix is
invertible exactly when each row lies outside the F_q-span of the rows
above it, and each span is kept as a set of row codes, grown with F_q
addition and scalar multiplication tables on row codes read off
``Fq.blocks`` (``_row_tables``).  One kernel, ``_rref``, does the
eliminations that are left, over a whole stack at once: M is cyclic exactly
when the lifts of t^j M^k (j < e, k < n), which span F_q[M] over F_p, have
rank ne.  The reduced echelon form of that span keys M by its algebra: the
census keys cyclic M on it, as C(M) = F_q[M]^x for them, and the
non-commuting graph keys every non-central M, as C(M) = C(F_q[M]).  As
F_q[c M + b I] = F_q[M] for c != 0, both are formed once per affine class
{c M + b I}, on one representative each.  A
matrix leaves the kernel's working stack, of the narrowest signed dtype
holding (p - 1)^2 + p, which is also the dtype of the forms it returns,
as soon as its rank reaches its row count: no later
column then has a pivot row left to change it, and a cyclic span mostly
gets there within its first ne columns of n^2 e.  The polynomial checks run
on lifts too: irreducibility is Rabin's test on companion matrices, and the
block identity "J_m(f) has minimal polynomial f^m" is read off the powers of
f(J).  The checks that both the CLI and the verify suite run on all this,
each deciding its own verdict, are the ``*_task`` functions of
``glcensus.tasks``.

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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from glcensus.census import check_prime_power, gl_order


class BudgetError(RuntimeError):
    """A task would exceed the configured enumeration or scan budget."""

    def __init__(self, message: str, required: int, allowed: int):
        super().__init__(f"{message} (required {required}, budget {allowed})")
        self.required = required
        self.allowed = allowed


@dataclass(frozen=True)
class Budget:
    """The limits of one request: group elements enumerated and scan steps
    for the oracle tasks, and wall seconds and branch-and-bound nodes for the
    clique search."""

    elements: int = 200_000
    steps: int = 1_000_000_000
    seconds: float = 60.0
    nodes: int = 1_000_000_000

    def __post_init__(self) -> None:
        if self.elements < 0:
            raise ValueError(f"element budget must be nonnegative, got {self.elements}")
        if self.steps < 0:
            raise ValueError(f"step budget must be nonnegative, got {self.steps}")
        # `not seconds >= 0` also rejects NaN, a budget no elapsed time exceeds
        if not self.seconds >= 0:
            raise ValueError(f"time budget must be nonnegative seconds, got {self.seconds}")
        if self.nodes < 0:
            raise ValueError(f"node budget must be nonnegative, got {self.nodes}")


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
    holds the digits of a t^j.  It is the one definition of the product:
    matrices over F_q are multiplied as their ``lift``s, and only negation,
    which needs no product, is read off the digits.
    """

    def __init__(self, q: int):
        p, e = check_prime_power(q)
        self.q, self.p, self.e = q, p, e
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        self._digits, self._place = digits, place
        # row a of digits is the tail of the degree-e monic with code a
        self.modulus = (0, 1) if e == 1 else next(_irreducibles(get_field(p), digits))
        companion = np.eye(e, k=-1, dtype=np.int64)
        companion[:, -1] = np.negative(self.modulus[:e]) % p
        powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            powers.append(powers[-1] @ companion % p)
        self.blocks = np.einsum("ai,ijk->ajk", digits, np.array(powers)) % p
        self.blocks.flags.writeable = False

    def neg(self, a):
        """-a, for an element or an integer array of elements, digit by digit."""
        return (-self._digits[a] % self.p) @ self._place

    def lift(self, entries, dtype=np.int64) -> np.ndarray:
        """F_q entries of shape (..., n, n) as (..., ne, ne) matrices over F_p:
        the regular representation, entry a becoming ``blocks[a]``, gathered
        in the given dtype."""
        entries = np.asarray(entries, dtype=np.int64)
        d = entries.shape[-1] * self.e
        blocks = self.blocks.astype(dtype, copy=False)[entries]
        return blocks.swapaxes(-3, -2).reshape(entries.shape[:-2] + (d, d))

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


def _power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    """X^k mod p for a stack of square matrices over F_p, k >= 1, by
    repeated squaring."""
    if k == 1:
        return X
    half = _power(X @ X % p, k // 2, p)
    return half @ X % p if k % 2 else half


def _irreducibles(field: Fq, tails):
    """The monic irreducible f = t^d + tail among a stack (B, d) of tails
    (f_0, ..., f_(d-1)) over F_q, as ascending tuples in the order given,
    yielded chunk by chunk, so a caller that stops early tests no more.

    Rabin's test (Rabin 1980), on the lifted companion matrix C of each f:
    f is irreducible exactly when C^(q^d) = C and C^(q^(d/r)) - C is
    invertible for every prime r | d.  Since f is the minimal polynomial of
    C, g(C) = 0 exactly when f | g, and g(C) is invertible exactly when
    gcd(g, f) = 1; for g = t^(q^k) - t these are Rabin's f | t^(q^d) - t and
    gcd(f, t^(q^(d/r)) - t) = 1.  The lift keeps both products and
    invertibility, so they are tested mod p."""
    tails = np.asarray(tails, dtype=np.int64)
    d = tails.shape[1]
    size = d * field.e
    primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
    for s in _slices(len(tails), 8 * (d + 1) * size * size):  # the int64 powers C^(q^k)
        companion = np.zeros((len(tails[s]), d, d), dtype=np.int64)
        companion[:, np.arange(d - 1), np.arange(1, d)] = 1
        companion[:, -1] = field.neg(tails[s])
        frobenius = [field.lift(companion)]  # C^(q^k) for k = 0..d
        for _ in range(d):
            frobenius.append(_power(frobenius[-1], field.q, field.p))
        irreducible = (frobenius[d] == frobenius[0]).all(axis=(1, 2))
        for r in primes:
            irreducible &= _rref(frobenius[d // r] - frobenius[0], field.p)[1] == size
        yield from (tuple(tail) + (1,) for tail in tails[s][irreducible].tolist())


def monic_irreducibles(field: Fq, degree: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of the given degree over F_q, as ascending
    tuples, in lexicographic order of (f_0, ..., f_(degree-1))."""
    codes = np.arange(field.q**degree)[:, None]
    return list(_irreducibles(field, codes // field.q ** np.arange(degree - 1, -1, -1) % field.q))


# ---------------------------------------------------------------------------
# matrices, and the block matrices from the module classification


@dataclass(frozen=True)
class FqMatrix:
    """An n x n matrix over F_q as its rows of element encodings."""

    field: Fq
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)


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
            rows[off + d - 1][off + j] = int(field.neg(f[j]))
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


# Bytes of the widest array one step of the group work allocates.
_CHUNK_BYTES = 512 * 1024


def _slices(count: int, bytes_per_item: int, start: int = 0, most: int | None = None):
    """Consecutive slices of range(start, count), each of as many items as
    fit _CHUNK_BYTES at bytes_per_item, and at least one, but no more than
    ``most`` if it is given."""
    step = max(1, _CHUNK_BYTES // max(1, bytes_per_item))
    if most is not None:
        step = min(step, most)
    return (slice(i, min(i + step, count)) for i in range(start, count, step))


def _signed_dtype(bound: int):
    """The narrowest signed integer dtype holding every integer in [0, bound]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound)


def _exact_dtypes(bound: int, p: int):
    """(float dtype, integer dtype) for a product of residues mod p whose
    partial sums are integers in [0, bound]: float32 holds every integer
    below 2^24 and float64 every one below 2^53, so either product is exact.
    The product is reduced mod p in the integer dtype, the narrowest signed
    one holding bound + p: that holds the product, and ``_round_down`` of a
    difference of two products, which reaches down to -bound - (p - 1).
    The narrower that dtype, the cheaper the reduction: v // p * p takes a
    third to a quarter of the time in int8 that it takes in int32."""
    if bound >= 2**53:
        raise ValueError(f"partial sums up to {bound} exceed the exact float64 range 2^53")
    return (np.float32 if bound < 2**24 else np.float64), _signed_dtype(bound + p)


def _rref_dtype(p: int):
    """The working dtype of ``_rref`` mod p: the narrowest signed dtype
    holding (p - 1)^2 + p, which bounds every intermediate of a step."""
    return np.dtype(_signed_dtype((p - 1) ** 2 + p))


def _rref(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms mod p of a stack (B, r, c) of integer
    matrices, in the working dtype ``_rref_dtype(p)``, and their ranks as
    int64: one pass over the columns, vectorised over B.

    A matrix leaves the working stack once its rank reaches r, its form
    written back then: no later column has a pivot candidate at or below
    row r, so nothing would change it.  The input is reduced mod p in its
    own dtype and then narrowed to the working dtype."""
    dtype = _rref_dtype(p)
    m = (np.asarray(stack) % p).astype(dtype, copy=False)
    count, r, c = m.shape
    out = np.empty(m.shape, dtype=dtype)
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=dtype)
    rows = np.arange(r)
    live = np.arange(count)
    rank = np.zeros(count, dtype=np.int64)
    live_rank = np.zeros(count, dtype=np.int64)
    for col in range(c):
        if not len(live):
            break
        # the pivot is the first row at or below the rank with a nonzero entry;
        # a matrix without one keeps top = pivot and eliminates nothing.  The
        # pivot row is zero left of col, so elimination changes only col:.
        batch = np.arange(len(live))
        found = (m[:, :, col] != 0) & (rows >= live_rank[:, None])
        has = found.any(axis=1)
        top = np.minimum(live_rank, r - 1)
        pivot = np.where(has, found.argmax(axis=1), top)
        row = m[batch, pivot]
        m[batch, pivot] = m[batch, top]
        row = row * inv[row[:, col]][:, None] % p
        rest = m[:, :, col:]
        rest -= np.where(has[:, None], m[:, :, col], 0)[:, :, None] * row[:, None, col:]
        rest %= p
        m[batch, top] = np.where(has[:, None], row, m[batch, top])
        live_rank += has
        full = live_rank == r
        if full.any():
            out[live[full]] = m[full]
            rank[live[full]] = r
            # compact into the front of the same buffer, so no new stack is
            # allocated on every exit
            keep = ~full
            left = int(keep.sum())
            m[:left] = m[keep]
            m, live, live_rank = m[:left], live[keep], live_rank[keep]
    out[live] = m
    rank[live] = live_rank
    return out, rank


def _row_tables(field: Fq, n: int) -> tuple[np.ndarray, np.ndarray]:
    """F_q addition and scalar multiplication on row codes, the n entries of
    a row as base-q digits and so as ne base-p digits: add[x, y] is x + y,
    digit by digit mod p, and mul[a, x] is a x, each entry b of x becoming
    the element with digits blocks[a] @ digits(b).  Both are in the
    narrowest signed dtype holding q^n - 1."""
    p, q = field.p, field.q
    rows = np.arange(q**n, dtype=_signed_dtype(q**n - 1))
    add = np.zeros((len(rows), len(rows)), dtype=rows.dtype)
    for j in range(n * field.e):
        digit = rows // p**j % p
        add += (digit[:, None] + digit) % p * p**j
    # entry k of a row, weighing q^k, has its digits at k e .. k e + e - 1
    digits = field._digits[rows[:, None] // q ** np.arange(n) % q]
    products = np.einsum("aij,xkj->axki", field.blocks, digits) % p
    mul = products.reshape(q, len(rows), -1) @ p ** np.arange(n * field.e)
    return add, mul.astype(rows.dtype)


def _outside(spans: np.ndarray, size: int) -> np.ndarray:
    """A bool mask (len(spans), size): whether row i of spans leaves out r."""
    fresh = np.ones((len(spans), size), dtype=bool)
    np.put_along_axis(fresh, spans, False, axis=1)
    return fresh


def _round_down(v: np.ndarray, p: int) -> np.ndarray:
    """The largest multiple of p at or below each entry of an integer
    array, as one new array: v // p * p."""
    w = v // p
    w *= p
    return w


def _divisible(v: np.ndarray, p: int) -> np.ndarray:
    """Whether each entry of an integer array is divisible by p.  Callers
    pass a fresh product, so that it lives no longer than the call."""
    return _round_down(v, p) == v


def _pairs_commute(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """Whether A_i B_i = B_i A_i mod p for every i, over two stacks of d x d
    matrices over F_p, by one exact float product of the stacked pairs."""
    d = A.shape[-1]
    real, whole = _exact_dtypes(d * (p - 1) ** 2, p)
    pairs = np.stack([A, B]).astype(real)
    pairs = pairs @ pairs[::-1]  # AB, BA
    return bool(_divisible((pairs[0] - pairs[1]).astype(whole), p).all())


# Columns of one commuting tile; its rows fill the rest of _CHUNK_BYTES.
_TILE_COLUMNS = 256


def commuting_tiles(X: np.ndarray, S: np.ndarray, p: int, above_diagonal: bool = False):
    """Whether X_i S_j = S_j X_i mod p, over two stacks of d x d matrices
    over F_p (integer arrays, such as lifted group elements), yielded tile by
    tile as (rows, columns, block): block[a, b] is the pair (rows.start + a,
    columns.start + b).  With ``above_diagonal`` (S the stack X), a row tile
    meets only the columns after its first row, which still covers every
    pair i < j; its blocks also hold some pairs j <= i, correctly.

    A tile is one stack of products K_i @ V: K stacks the commutator
    operators K_X = X (x) I - I (x) X^T mod p, shape (rows, d^2, d^2), one
    per X_i of the row tile, and V, shape (d^2, columns), holds vec(S_j)
    mod p in column j of the column tile.  Column j of K_i @ V is then
    congruent to vec(X_i S_j - S_j X_i) mod p, so the pair commutes exactly
    when every entry of that column is divisible by p.  The stack is reduced
    in the integer dtype of ``_exact_dtypes``.  A tile has _TILE_COLUMNS
    columns, or all of S if it has fewer, and as many operators as keep the
    product within _CHUNK_BYTES; a tile of few operators, such as the one
    of a single X, still has no more columns.  So no product is large:
    OpenBLAS runs a large 2-D product (rows d^2 against thousands of
    columns) on its worker threads, and each small per-operator product on
    the calling one.
    """
    d = X.shape[-1]
    real, whole = _exact_dtypes(d * d * (p - 1) ** 2, p)
    size = np.dtype(real).itemsize
    eye = np.eye(d, dtype=np.int64)
    for rows in _slices(len(X), d * d * min(len(S), _TILE_COLUMNS) * size):
        K = np.einsum("bak,jl->bajkl", X[rows], eye) - np.einsum("ak,blj->bajkl", eye, X[rows])
        K = (K.reshape(-1, d * d, d * d) % p).astype(real)
        start = rows.start + 1 if above_diagonal else 0
        for columns in _slices(len(S), len(K) * d * d * size, start, most=_TILE_COLUMNS):
            V = (S[columns].reshape(-1, d * d) % p).astype(real)
            commute = _divisible((K @ V.T).astype(whole), p).all(axis=1)
            yield rows, columns, commute


def commuting_table(X: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """Bool table over two stacks of d x d matrices over F_p: entry (i, j)
    is whether X_i S_j = S_j X_i mod p, filled from ``commuting_tiles``.
    When S is X the table is symmetric with a true diagonal, so only the
    tiles above the diagonal are formed, each written and mirrored."""
    table = np.empty((len(X), len(S)), dtype=bool)
    symmetric = S is X
    for rows, columns, block in commuting_tiles(X, S, p, above_diagonal=symmetric):
        table[rows, columns] = block
        if symmetric:
            table[columns, rows] = block.T
    if symmetric:
        np.fill_diagonal(table, True)
    return table


def key_classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of equal rows of a 2-d integer array, numbered in
    ascending lexicographic order of their rows: each class's least row
    index, and each row's class.  These are ``np.unique(keys, axis=0,
    return_index=True, return_inverse=True)``'s index and inverse, from one
    stable lexsort (column 0 most significant), a mask of the sorted rows
    that differ from the row before, built column by column, and its
    cumulative sum."""
    order = np.lexsort(keys.T[::-1])
    new = np.zeros(len(keys), dtype=bool)
    new[:1] = True
    for column in keys.T:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    label = np.empty(len(keys), dtype=np.intp)
    label[order] = np.cumsum(new)
    label -= 1
    return order[new], label


class MatrixView(Sequence):
    """The elements of a group as ``FqMatrix``, in element order, decoded
    from the codes on every read and held by nothing: an index decodes that
    one element, a slice gives a tuple, and iteration decodes chunk by chunk.
    The matrices one view decodes share their row tuples, taken from its one
    table of the q^n rows of n entries."""

    def __init__(self, group: GLGroup):
        self._group = group

    def __len__(self) -> int:
        return len(self._group.elements)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._decode(self._group.elements[index]))
        i = range(len(self))[index]
        return next(self._decode(self._group.elements[i:i + 1]))

    def __iter__(self):
        elements = self._group.elements
        for s in _slices(len(elements), 8 * self._group.n ** 2):  # the int64 entries
            yield from self._decode(elements[s])

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # row r has the base-q digits of r, as a code's rows do
        return tuple(product(range(self._group.q), repeat=self._group.n))

    def _decode(self, codes: np.ndarray):
        """One ``FqMatrix`` per code, yielded one at a time."""
        group, rows = self._group, self._rows
        place = group.q ** np.arange(group.n - 1, -1, -1, dtype=np.int64)
        for row_codes in (group.decode(codes) @ place).tolist():
            yield FqMatrix(group.field, tuple(map(rows.__getitem__, row_codes)))


class GLGroup:
    """Fully enumerated GL_n(q), each element stored once: ``elements`` holds
    the codes in ascending order, in the narrowest signed dtype holding
    q^(n^2) - 1, and ``lifted`` their lifts over F_p in the narrowest signed
    dtype holding p - 1, widened before any product.  Both are read-only, as
    ``gl_group`` hands one cached group to every caller, and a group holds
    nothing else per element but the bool flags and the keys, in the codes'
    dtype, that ``_flags`` forms.  ``mats`` is a ``MatrixView`` of the
    elements as ``FqMatrix``, made and decoded anew on every read, for
    perfbench and the tests; no package path reads it.

    Enumeration eliminates nothing.  Rows r_1, ..., r_n are independent, so
    the matrix is invertible, exactly when each r_k lies outside the F_q-span
    of r_1, ..., r_(k-1).  So each prefix of k rows keeps its span as the
    q^k row codes of its combinations, only the rows outside it extend the
    prefix, and the span of the longer prefix is the sums s + c r, c in F_q,
    read off ``_row_tables``.  Row 0 is the most significant base-q^n digit
    of a code, and prefixes and then rows are taken in ascending order, so
    the codes come out sorted.

    The flags and keys are formed once per affine class {c M + b I : c != 0}.
    F_q[c M + b I] = F_q[M], as each of M and c M + b I is a polynomial of
    degree at most 1 in the other, and the flag (F_q[M] has dimension n) and
    the key (the echelon form of its F_p-span) read only that algebra.  The
    class of M is named by (M - m I)/v, m its entry (0, 0) and v the first
    nonzero entry of M - m I: c M + b I has entry (0, 0) c m + b, its
    difference from that scalar is c (M - m I), whose first nonzero entry is
    c v, so every member gives the same matrix, and that matrix is a member
    (c = 1/v, b = -m/v).  GL_3(3) has 3047 classes, GL_4(2) 17 248."""

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
        residue, code_dtype = _signed_dtype(p - 1), _signed_dtype(q ** (n * n) - 1)
        # the first k rows of the invertible matrices as codes, ascending, each
        # with its span as row codes; a matrix's code is its rows' codes in base q^n
        width = q**n
        prefixes, spans = np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
        if n > 1:
            add, mul = _row_tables(self.field, n)
        for _ in range(n - 1):
            i, row = np.nonzero(_outside(spans, width))
            prefixes = prefixes[i] * width + row
            spans = add[spans[i][:, :, None], mul[:, row].T[:, None]].reshape(len(i), -1)
        elements = []
        for s in _slices(len(prefixes), 8 * width):  # the int64 codes of the rows after a prefix
            codes = prefixes[s, None] * width + np.arange(width)
            elements.append(codes[_outside(spans[s], width)].astype(code_dtype))
        self.elements = np.concatenate(elements)
        if len(self.elements) != self.order:
            raise AssertionError("enumeration does not match the group order")
        self.lifted = np.empty((self.order, d, d), dtype=residue)
        for s in _slices(self.order, max(8 * n * n, d * d)):  # the int64 entries or the lifts
            self.lifted[s] = self.field.lift(self.decode(self.elements[s]), residue)
        self.elements.flags.writeable = self.lifted.flags.writeable = False
        self._cyclic: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._census: tuple[int, ...] | None = None

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The F_q entries (..., n, n) of an array of codes."""
        entries = codes[..., None] // self._place
        entries %= self.q
        return entries.reshape(codes.shape + (self.n, self.n))

    @property
    def mats(self) -> MatrixView:
        return MatrixView(self)

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
        codes = diagonal * np.arange(1, self.q, dtype=self.elements.dtype)
        return tuple(np.searchsorted(self.elements, codes).tolist())

    def cyclic_flags(self) -> tuple[bool, ...]:
        """Whether each element M is cyclic, as a new tuple on every call; the
        group keeps them as the one read-only bool array of ``_flags``."""
        return tuple(self._flags().tolist())

    def _flags(self) -> np.ndarray:
        """Whether each element M is cyclic: the F_p-span of the t^j M^k
        (j < e, k < n), which is F_q[M] of dimension e deg(min poly of M), has
        rank ne.  Their digits are columns j of the blocks of the lifted M^k.
        The span's echelon form is kept as ``algebra_keys``, which the census
        and the non-commuting graph read.  Both are formed once per affine
        class, on its representative from ``_affine_class``, lifted anew, and
        copied to every member."""
        if self._cyclic is None:
            n, e, p = self.n, self.field.e, self.field.p
            d = n * e
            real = np.dtype(_exact_dtypes(d * (p - 1) ** 2, p)[0])
            chunks = list(_slices(self.order, 8 * n * n))  # the int64 entries
            affine = np.zeros(self.order, dtype=self.elements.dtype)
            if n > 1:  # GL_1(q) is all scalars, one class
                add, mul = _row_tables(self.field, n)
                for s in chunks:
                    affine[s] = self._affine_class(self.elements[s], add, mul)
            classes = np.sort(affine)
            classes = classes[np.append(True, classes[1:] != classes[:-1])]
            class_flags = np.empty(len(classes), dtype=bool)
            class_keys = np.empty((len(classes), d), dtype=affine.dtype)
            # every partial sum of a row code is below q^(n^2), so einsum runs in the keys' dtype
            weights = self._weights.astype(class_keys.dtype)
            # the widest arrays are the two float casts and the product of a
            # power, or _rref's working stack of the span
            for s in _slices(len(classes), d * d * max(3 * real.itemsize, n * _rref_dtype(p).itemsize)):
                lifts = self.field.lift(self.decode(classes[s]), self.lifted.dtype)
                rref, rank = _rref(self._algebra_span(lifts), p)
                class_flags[s] = rank == d
                np.einsum("brj,j->br", rref, weights, out=class_keys[s], casting="unsafe")
            flags = np.empty(self.order, dtype=bool)
            keys = np.empty((self.order, d), dtype=affine.dtype)
            for s in chunks:
                owner = np.searchsorted(classes, affine[s])
                flags[s], keys[s] = class_flags[owner], class_keys[owner]
            flags.flags.writeable = keys.flags.writeable = False
            self._cyclic, self._keys = flags, keys
        return self._cyclic

    def _affine_class(self, codes: np.ndarray, add: np.ndarray, mul: np.ndarray) -> np.ndarray:
        """The code of (M - m I)/v for each code of an M, in the codes' dtype:
        m is M's entry (0, 0) and v the first nonzero entry of M - m I in
        row-major order, and a scalar M gives 0.  It is the same for every
        c M + b I, c != 0.  The entries are worked on with the tables of
        ``_row_tables``, whose first q columns are those of F_q: -m is
        (-1) m, -1 having code p - 1, and 1/v is the c with c v = 1."""
        entries = self.decode(codes).reshape(len(codes), -1)
        entries[:, :: self.n + 1] = add[entries[:, :: self.n + 1], mul[self.field.p - 1, entries[:, :1]]]
        v = entries[np.arange(len(codes)), (entries != 0).argmax(axis=1)]
        inverse = (mul[:, : self.q] == 1).argmax(axis=0)
        return (mul[inverse[v][:, None], entries] @ self._place).astype(codes.dtype)

    def _algebra_span(self, lifts: np.ndarray) -> np.ndarray:
        """The F_p-spanning rows of F_q[M] for a stack of lifted M, in the
        lifts' dtype, shape (B, ne, n^2 e): row (k, j) holds the digits of
        t^j M^k, column j of every e x e block of M^k.  The rows' order
        leaves the echelon form as it is.  Each power past M is one exact
        float product, narrowed once it is reduced."""
        n, e, p = self.n, self.field.e, self.field.p
        d = n * e
        real, whole = _exact_dtypes(d * (p - 1) ** 2, p)
        span = np.empty((len(lifts), n, e, n, e, n), dtype=lifts.dtype)
        power = np.broadcast_to(np.eye(d, dtype=lifts.dtype), lifts.shape)
        for k in range(n):
            if k == 1:
                power = lifts
            elif k:
                power = (power.astype(real) @ lifts.astype(real)).astype(whole)
                power = (power % p).astype(lifts.dtype)
            span[:, k] = power.reshape(-1, n, e, n, e).transpose(0, 4, 1, 2, 3)
        return span.reshape(-1, d, n * d)

    def algebra_keys(self) -> np.ndarray:
        """One read-only row per element M, the row codes of the echelon form
        of F_q[M] that ``_flags`` forms: equal rows, equal algebras."""
        self._flags()
        return self._keys

    def commuting_indices(self, M: FqMatrix) -> tuple[int, ...]:
        """Indices of every group element commuting with M (full scan, with
        M on the operator side: one d^2 x d^2 operator against the group)."""
        row = commuting_table(self.field.lift([M.rows]), self.lifted, self.field.p)[0]
        return tuple(int(i) for i in np.flatnonzero(row))

    def cyclic_centralizer_census(self) -> tuple[int, ...]:
        """One representative index per distinct centralizer of a cyclic
        element, ascending: the least cyclic index with each algebra key, as
        C(M) = F_q[M]^x for cyclic M.  Cross-check: every cyclic element
        commutes with the representative of its key.  The result is kept,
        so the keys are sorted and cross-checked once per group."""
        if self._census is None:
            cyclic = np.flatnonzero(self._flags())
            first, key = key_classes(self.algebra_keys()[cyclic])
            owner = cyclic[first][key]
            p, d = self.field.p, self.lifted.shape[-1]
            size = np.dtype(_exact_dtypes(d * (p - 1) ** 2, p)[0]).itemsize
            for s in _slices(len(cyclic), 2 * d * d * size):  # the float pairs
                if not _pairs_commute(self.lifted[cyclic[s]], self.lifted[owner[s]], p):
                    raise AssertionError("a cyclic element does not commute with its key's representative")
            self._census = tuple(sorted(cyclic[first].tolist()))
        return self._census


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
    those n columns of each gc and cg are formed: per chunk of b elements g,
    Cg as the stack C (c, d, d) of members against the block columns of all
    the g, (d, b n), and gC as the stack G (b, d, d) against the block
    columns of all the members, (d, c n).  Each is a stack of small
    products, which OpenBLAS runs on the calling thread, not one large 2-D
    product of concatenated elements, which it would run on its worker
    threads.  Both are reduced in the integer dtype of ``_exact_dtypes``.

    A prefilter keeps only the g with code(g c0) among the codes of Cg, for
    one non-central member c0 of C (any member if all are central): it is
    exact, since gC = Cg puts g c0 in Cg.  The product gC and the sorts are
    then formed for the survivors only.
    """
    check_scan_budget(cset.n, cset.q, "normalizer scan", cset.order, budget)
    group = gl_group(cset.n, cset.q, budget)
    n, e, p = group.n, group.field.e, group.field.p
    d = n * e
    real, whole = _exact_dtypes(d * (p - 1) ** 2, p)
    center = set(group.center_indices())
    c0 = next((i for i in cset.members if i not in center), cset.members[0])
    C = group.lifted[list(cset.members)].astype(real)
    c = len(C)
    C_cols = C[..., ::e].transpose(1, 0, 2).reshape(d, c * n)
    c0_cols = group.lifted[c0, :, ::e].astype(real)
    count = 0
    # the widest array is the product cg (or gc), c d n entries per g
    for s in _slices(group.order, c * d * n * np.dtype(real).itemsize):
        G = group.lifted[s].astype(real)
        b = len(G)
        # cg: (c, r, (g, j)); gc: (g, r, (c, j))
        cg = (C @ G[..., ::e].transpose(1, 0, 2).reshape(d, b * n)).astype(whole)
        cg -= _round_down(cg, p)
        cg = group.codes(cg.reshape(c, d, b, n).transpose(2, 0, 1, 3))
        gc0 = (G @ c0_cols).astype(whole)
        gc0 -= _round_down(gc0, p)
        keep = (cg == group.codes(gc0)[:, None]).any(axis=1)
        gc = (G[keep] @ C_cols).astype(whole)
        gc -= _round_down(gc, p)
        gc = gc.reshape(-1, d, c, n).transpose(0, 2, 1, 3)
        same = np.sort(group.codes(gc), axis=1) == np.sort(cg[keep], axis=1)
        count += int(same.all(axis=1).sum())
    return count
