"""Brute-force ground truth over small general linear groups.

Everything in this module is computed by explicit enumeration over a finite
field with q = p^e elements: matrices are tuples of field-element encodings,
invertibility is Gaussian elimination, centralizers are full scans of the
group, and minimal polynomials come from the first linear dependency among
the powers of a matrix.  Field elements are encoded as integers 0..q-1 (the
base-p digit vector of the residue polynomial), so every enumeration order is
reproducible.  F_q is built once, from the prime field: F_p has tables mod p,
and for e > 1 F_q is F_p[t]/(f), its tables computed with the same
polynomial helpers (``fqpoly_*``) over F_p that the rest of the module uses
over F_q.  The modulus f is the least monic irreducible of degree e in
encoding order.

The scans run in numpy on one representation for every q.  Each field
element a is replaced by the e x e matrix over F_p of multiplication by a on
the basis 1, t, ..., t^(e-1) (the regular representation, Lidl and
Niederreiter, Finite Fields, ch. 2), so an n x n matrix over F_q becomes an
ne x ne integer matrix.  That map is an injective ring homomorphism, so
products, commuting and equality over F_q are exactly integer matmul mod p
and array equality; for a prime field it is the identity.  Column 0 of each
e x e block holds the digits of the entry itself, which is how products are
read back as F_q entries.  Two budgets, both decided from the closed-form
group order before anything is enumerated, protect against accidentally huge
runs: a cap on the group order for enumeration, and a cap on scan steps for
the quadratic tasks (a full centralizer census of GL_3(4) would take 3.3e10
pair checks and is refused by default).

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
from functools import lru_cache

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
    """Caps for oracle tasks: group elements enumerated, and scan steps."""

    elements: int = 200_000
    steps: int = 1_000_000_000


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# finite fields
#
# Polynomials over F_q are ascending coefficient tuples.


class Fq:
    """The field with q = p^e elements, with dense add/mul/neg/inv tables.

    Elements are integers 0..q-1 encoding base-p digit vectors, and addition
    is digit-wise mod p.  Products are taken mod p in the prime field; for
    e > 1 they are polynomial products over F_p reduced modulo f, the least
    monic irreducible of degree e in encoding order.
    """

    def __init__(self, q: int):
        p, e = check_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        digits = [self._digits(a) for a in range(q)]
        add = [[self._encode((x + y) % p for x, y in zip(da, db)) for db in digits]
               for da in digits]
        if e == 1:
            self.modulus = (0, 1)
            mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            base = get_field(p)
            self.modulus = next(d + (1,) for d in digits if fqpoly_is_irreducible(base, d + (1,)))
            mul = [[self._encode(fqpoly_divmod(base, fqpoly_mul(base, da, db), self.modulus)[1])
                    for db in digits] for da in digits]
        self.add_table = tuple(map(tuple, add))
        self.mul_table = tuple(map(tuple, mul))
        self.neg_table = tuple(row.index(0) for row in self.add_table)
        self.inv_table = (0,) + tuple(row.index(1) for row in self.mul_table[1:])

    def _digits(self, enc: int) -> tuple[int, ...]:
        return tuple(enc // self.p**i % self.p for i in range(self.e))

    def _encode(self, digits) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

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
    if d == 1:
        return True
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

    @staticmethod
    def scalar(field: Fq, n: int, c: int) -> FqMatrix:
        return FqMatrix(field, tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n)))

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

    def __sub__(self, other: FqMatrix) -> FqMatrix:
        F = self.field
        return FqMatrix(F, tuple(
            tuple(F.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        ))

    def commutes_with(self, other: FqMatrix) -> bool:
        return (self @ other) == (other @ self)

    def rank(self) -> int:
        F = self.field
        m = [list(r) for r in self.rows]
        n = self.n
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = F.inv(m[rank][col])
            m[rank] = [F.mul(inv, x) for x in m[rank]]
            for r in range(n):
                if r != rank and m[r][col]:
                    c = m[r][col]
                    m[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> FqMatrix:
        F = self.field
        n = self.n
        m = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = F.inv(m[col][col])
            m[col] = [F.mul(inv, x) for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    c = m[r][col]
                    m[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(m[r], m[col])]
        return FqMatrix(F, tuple(tuple(row[n:]) for row in m))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def matrix_from_flat(field: Fq, n: int, entries) -> FqMatrix:
    entries = list(entries)
    return FqMatrix(field, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n)))


# ---------------------------------------------------------------------------
# minimal polynomials


def _vec(M: FqMatrix) -> tuple[int, ...]:
    return tuple(x for row in M.rows for x in row)


def min_poly(M: FqMatrix) -> tuple[int, ...]:
    """Monic minimal polynomial, ascending coefficients, via the first
    linear dependency among I, M, M^2, ... in the n^2-dimensional space."""
    F = M.field
    n = M.n
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, vector, combo)
    power = FqMatrix.identity(F, n)
    for k in range(n + 1):
        vec = list(_vec(power))
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


def is_cyclic(M: FqMatrix) -> bool:
    """True when the minimal polynomial has full degree n."""
    return len(min_poly(M)) - 1 == M.n


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
    one_minus_t = (field.neg(1), 1)  # t - 1
    return jm_block(field, one_minus_t, n)


def noncyclic_centralizer_witness() -> FqMatrix:
    """A 4x4 unipotent matrix over F_2 contained in no cyclic-matrix
    centralizer: its own centralizer has order 16 and no cyclic member."""
    return FqMatrix(get_field(2), ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))


# ---------------------------------------------------------------------------
# group enumeration and scans


# Entries of the largest product stack one scan step materialises at once.
_CHUNK_ENTRIES = 2_000_000


class GLGroup:
    """Fully enumerated GL_n(q) in lexicographic entry order, with caches."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.field = get_field(q)
        self.order = gl_order(n).eval_int(q)
        mats = []
        for entries in itertools.product(range(q), repeat=n * n):
            M = matrix_from_flat(self.field, n, entries)
            if M.is_invertible():
                mats.append(M)
        if len(mats) != self.order:
            raise AssertionError("enumeration does not match the group order")
        self.mats: tuple[FqMatrix, ...] = tuple(mats)
        self._index = {M.rows: i for i, M in enumerate(mats)}
        p, e = self.field.p, self.field.e
        # _blocks[a] is the matrix of multiplication by a: column j holds the
        # base-p digits of a * t^j, so column 0 holds the digits of a
        images = np.array(self.field.mul_table, dtype=np.int64)[:, p ** np.arange(e)]
        self._blocks = images[:, None, :] // p ** np.arange(e)[:, None] % p
        # weight of digit i of entry (r, c): p^i q^(n^2 - 1 - (rn + c))
        place = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64).reshape(n, 1, n)
        self._weights = (place * p ** np.arange(e).reshape(1, e, 1)).reshape(-1)
        self._lifted: np.ndarray | None = None
        self._cyclic: tuple[bool, ...] | None = None
        self._census: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None

    def index_of(self, M: FqMatrix) -> int:
        return self._index[M.rows]

    def lift(self, entries) -> np.ndarray:
        """F_q entries of shape (..., n, n) as (..., ne, ne) matrices over F_p:
        entry a becomes the e x e block of multiplication by a."""
        entries = np.asarray(entries, dtype=np.int64)
        d = self.n * self.field.e
        return self._blocks[entries].swapaxes(-3, -2).reshape(entries.shape[:-2] + (d, d))

    @property
    def lifted(self) -> np.ndarray:
        """Every group element lifted, stacked in group order."""
        if self._lifted is None:
            self._lifted = self.lift([M.rows for M in self.mats])
        return self._lifted

    def codes(self, lifted: np.ndarray) -> np.ndarray:
        """One integer per reduced lifted matrix in a stack: its n^2 F_q
        entries, read from column 0 of every e x e block, as base-q digits in
        row-major order (the group's enumeration order is ascending codes)."""
        n, e = self.n, self.field.e
        digits = lifted.reshape(lifted.shape[:-2] + (n, e, n, e))[..., 0]
        return digits.reshape(lifted.shape[:-2] + (-1,)) @ self._weights

    def products(self, X: np.ndarray, S: np.ndarray):
        """Yield (start, X_k S mod p, S X_k mod p) over consecutive chunks X_k
        of the lifted stack X, each product of shape (len(X_k), len(S), ne, ne)."""
        p = self.field.p
        chunk = max(1, _CHUNK_ENTRIES // max(1, len(S) * S.shape[-1] ** 2))
        for start in range(0, len(X), chunk):
            block = X[start:start + chunk, None]
            yield start, block @ S % p, S @ block % p

    def center_indices(self) -> tuple[int, ...]:
        out = []
        for c in range(1, self.q):
            out.append(self.index_of(FqMatrix.scalar(self.field, self.n, c)))
        return tuple(sorted(out))

    def cyclic_flags(self) -> tuple[bool, ...]:
        if self._cyclic is None:
            self._cyclic = tuple(is_cyclic(M) for M in self.mats)
        return self._cyclic

    def commuting(self, X: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Bool table over two lifted stacks: entry (i, j) is X_i S_j == S_j X_i."""
        table = np.empty((len(X), len(S)), dtype=bool)
        for start, left, right in self.products(X, S):
            table[start:start + len(left)] = (left == right).all(axis=(2, 3))
        return table

    def commuting_indices(self, M: FqMatrix) -> tuple[int, ...]:
        """Indices of every group element commuting with M (full scan)."""
        column = self.commuting(self.lifted, self.lift([M.rows]))[:, 0]
        return tuple(int(i) for i in np.flatnonzero(column))

    def cyclic_centralizer_census(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(representatives, member sets) of all distinct centralizers of
        cyclic elements, with the partition cross-check enforced.

        Each cyclic element lies in exactly one such centralizer, so scanning
        only uncovered cyclic elements is exhaustive; the cross-check below
        (distinctness plus the counting identity) would expose any violation.
        """
        if self._census is not None:
            return self._census
        flags = self.cyclic_flags()
        covered = [False] * self.order
        reps: list[int] = []
        sets: list[tuple[int, ...]] = []
        for idx, cyc in enumerate(flags):
            if not cyc or covered[idx]:
                continue
            members = self.commuting_indices(self.mats[idx])
            reps.append(idx)
            sets.append(members)
            for j in members:
                if flags[j]:
                    covered[j] = True
        if len(set(sets)) != len(sets):
            raise AssertionError("distinct-centralizer collision: uniqueness violated")
        inside = sum(sum(1 for j in s if flags[j]) for s in sets)
        if inside != sum(flags):
            raise AssertionError("cyclic elements are not partitioned by their centralizers")
        self._census = (tuple(reps), tuple(sets))
        return self._census


@lru_cache(maxsize=None)
def _gl_group_cached(n: int, q: int) -> GLGroup:
    return GLGroup(n, q)


def check_scan_budget(n: int, q: int, task: str, steps_per_element: int | None = None,
                      budget: Budget | None = None) -> None:
    """Refuse a task over GL_n(q) that would exceed either budget, decided
    from the closed-form group order before anything is enumerated.

    The task takes |GL_n(q)| * steps_per_element scan steps; the default is
    a pairwise scan, |GL_n(q)| steps per element.
    """
    if n < 1:
        raise ValueError(f"GL_n(q) needs n >= 1, got n = {n}")
    budget = budget if budget is not None else DEFAULT_BUDGET
    order = gl_order(n).eval_int(q)
    if order > budget.elements:
        raise BudgetError(f"|GL_{n}({q})| exceeds the enumeration budget", order, budget.elements)
    steps = order * (order if steps_per_element is None else steps_per_element)
    if steps > budget.steps:
        raise BudgetError(f"{task} exceeds the scan budget", steps, budget.steps)


def gl_group(n: int, q: int, budget: Budget | None = None) -> GLGroup:
    check_scan_budget(n, q, f"enumeration of GL_{n}({q})", 0, budget)
    return _gl_group_cached(n, q)


def cyclic_proportion(n: int, q: int, budget: Budget | None = None) -> Fraction:
    """Exact fraction of elements whose characteristic and minimal
    polynomials coincide."""
    group = gl_group(n, q, budget)
    return Fraction(sum(group.cyclic_flags()), group.order)


def wall_bound_terms(n: int, q: int) -> dict[str, Fraction]:
    """The two exact lower bounds the measured proportion must satisfy."""
    qf = Fraction(q)
    main = (1 - qf**-5) / (1 + qf**-3)
    return {
        "estimate_minus_error": main - Fraction(1, q**n * (q - 1)),
        "expanded_lower": 1 - qf**-3 - qf**-5 + qf**-6 - qf**-n,
    }


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
    reps, sets = gl_group(n, q, budget).cyclic_centralizer_census()
    return len(sets), reps


def normalizer_of_set(cset: CentralizerSet, budget: Budget | None = None) -> int:
    """Order of {g : g C g^-1 = C}, by scanning the whole group.

    The condition is tested as the equivalent set equality gC = Cg, on the
    sorted encodings of both products, so no inverse is ever formed.
    """
    check_scan_budget(cset.n, cset.q, "normalizer scan", cset.order, budget)
    group = gl_group(cset.n, cset.q, budget)
    C = group.lifted[list(cset.members)]
    count = 0
    for _, left, right in group.products(group.lifted, C):
        same = np.sort(group.codes(left), axis=1) == np.sort(group.codes(right), axis=1)
        count += int(same.all(axis=1).sum())
    return count
