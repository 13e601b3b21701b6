import itertools
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from glcensus import cli, oracle
from glcensus.census import a_polynomial, check_prime_power, gl_order
from glcensus.clique import build_graph, seed_clique
from glcensus.oracle import (
    Budget,
    BudgetError,
    CentralizerSet,
    FqMatrix,
    MatrixView,
    _exact_dtypes,
    _gl_group_cached,
    _rref,
    centralizer,
    centralizer_count_task,
    commuting_table,
    count_cyclic_centralizers,
    get_field,
    gl_group,
    jm_block,
    jm_check_task,
    key_classes,
    monic_irreducibles,
    noncyclic_centralizer_witness,
    normalizer_of_set,
    regular_unipotent,
    regular_unipotent_task,
    wall_bound_task,
)


# --- the tests' own F_q arithmetic ---------------------------------------------
#
# The references below multiply over F_q through the tables of
# ``reference_field_tables``, which builds each field by its own polynomial
# arithmetic mod p, so no reference reads the library's ``Fq.blocks``.


def reference_field_tables(q: int):
    """The former construction of F_q, kept as the reference: its own
    polynomial division and trial-division irreducibility test mod p, and a
    hand-written product loop.  Returns (modulus, add, mul, neg, inv)."""
    p, e = check_prime_power(q)

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def pf_divmod(a, b):
        a = list(a)
        db, inv_lb = len(b) - 1, pow(b[-1], p - 2, p)
        quo = [0] * max(len(a) - db, 0)
        for i in range(len(a) - db - 1, -1, -1):
            c = a[i + db] * inv_lb % p
            if c:
                quo[i] = c
                for j, bc in enumerate(b):
                    a[i + j] = (a[i + j] - c * bc) % p
        return trim(quo), trim(a)

    def is_irreducible(f):
        return all(pf_divmod(f, tail + (1,))[1]
                   for deg in range(1, (len(f) - 1) // 2 + 1)
                   for tail in itertools.product(range(p), repeat=deg))

    def decode(enc):
        digits = []
        while enc:
            enc, r = divmod(enc, p)
            digits.append(r)
        return digits

    def to_enc(digits):
        return sum(d * p**i for i, d in enumerate(digits))

    modulus = next(f for f in (tuple(decode(enc)) + (0,) * (e - len(decode(enc))) + (1,)
                               for enc in range(q)) if is_irreducible(f))
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        da = decode(a)
        for b in range(a, q):
            db = decode(b)
            s = da + [0] * (len(db) - len(da))
            for i, c in enumerate(db):
                s[i] = (s[i] + c) % p
            add[a][b] = add[b][a] = to_enc(s)
            prod = [0] * (len(da) + len(db) - 1 or 1)
            for i, ca in enumerate(da):
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
            mul[a][b] = mul[b][a] = to_enc(pf_divmod(tuple(prod), modulus)[1])
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return modulus, add, mul, neg, inv


class RefField:
    """F_q element operations read off ``reference_field_tables``."""

    def __init__(self, q: int):
        _, self._add, self._mul, self._neg, self._inv = reference_field_tables(q)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        assert a, "inverse of zero"
        return self._inv[a]


@lru_cache(maxsize=None)
def ref_field(q: int) -> RefField:
    return RefField(q)


def identity(field, n: int) -> FqMatrix:
    return FqMatrix(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def matmul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    """The former ``FqMatrix.__matmul__``, over the reference tables."""
    F = ref_field(A.field.q)
    n = A.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = F.add(acc, F.mul(A.rows[i][k], B.rows[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return FqMatrix(A.field, tuple(out))


def commutes(A: FqMatrix, B: FqMatrix) -> bool:
    return matmul(A, B) == matmul(B, A)


def inverse(M: FqMatrix) -> FqMatrix:
    """The former ``FqMatrix.inverse``, Gauss-Jordan over the reference
    tables, kept as the reference for conjugation."""
    F = ref_field(M.field.q)
    n = M.n
    m = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(M.rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        inv = F.inv(m[col][col])
        m[col] = [F.mul(inv, x) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                c = m[r][col]
                m[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(m[r], m[col])]
    return FqMatrix(M.field, tuple(tuple(row[n:]) for row in m))


def min_poly(M: FqMatrix) -> tuple[int, ...]:
    """The former library ``min_poly``: the monic minimal polynomial,
    ascending, from the first linear dependency among I, M, M^2, ..."""
    F = ref_field(M.field.q)
    n = M.n
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, vector, combo)
    power = identity(M.field, n)
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
        power = matmul(power, M)
    raise AssertionError("no dependency among n+1 matrix powers")


def poly_pow(q: int, f, m: int) -> tuple[int, ...]:
    """f^m over F_q, ascending; f monic, so no leading zero arises."""
    F = ref_field(q)
    result = (1,)
    for _ in range(m):
        out = [0] * (len(result) + len(f) - 1)
        for i, a in enumerate(result):
            for j, b in enumerate(f):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        result = tuple(out)
    return result


def poly_rem(q: int, a, b) -> tuple[int, ...]:
    """The remainder of a by monic b over F_q, ascending, trailing zeros trimmed."""
    F = ref_field(q)
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        for j, bc in enumerate(b):
            a[i + j] = F.sub(a[i + j], F.mul(c, bc))
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def enumerate_gl(n: int, q: int, budget: Budget | None = None) -> tuple[FqMatrix, ...]:
    """All invertible n x n matrices over F_q, lexicographic by entries."""
    return gl_group(n, q, budget).mats


def encode(M: FqMatrix) -> int:
    """The entries of M as base-q digits in row-major order."""
    enc = 0
    for row in M.rows:
        for x in row:
            enc = enc * M.field.q + x
    return enc


def index_of(group, M: FqMatrix) -> int:
    """The index of M in the group: the position of its code among the
    ascending ``elements``."""
    i = int(np.searchsorted(group.elements, encode(M)))
    assert i < group.order and group.elements[i] == encode(M), M
    return i


def is_cyclic(M: FqMatrix) -> bool:
    """The former library test, kept as the reference for the cyclic flags:
    the minimal polynomial has full degree n."""
    return len(min_poly(M)) - 1 == M.n


def reference_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], int]:
    """Reduced row echelon form mod p and rank, one matrix, in plain Python."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return m, rank


def reference_census(group) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The former census, kept as the reference: one full commuting scan per
    centralizer of a not yet covered cyclic element, with its distinctness
    and partition cross-checks."""
    flags = group.cyclic_flags()
    covered = [False] * group.order
    reps, sets = [], []
    for idx, cyc in enumerate(flags):
        if not cyc or covered[idx]:
            continue
        members = group.commuting_indices(group.mats[idx])
        reps.append(idx)
        sets.append(members)
        for j in members:
            if flags[j]:
                covered[j] = True
    assert len(set(sets)) == len(sets)
    assert sum(sum(1 for j in s if flags[j]) for s in sets) == sum(flags)
    return tuple(reps), tuple(sets)


def char_poly(M: FqMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(tI - M), ascending, by the
    division-free principal-minor recursion (Berkowitz)."""
    F = ref_field(M.field.q)
    n = M.n
    rows = M.rows
    # p holds det(tI - A_r) for the leading r x r block, descending degrees
    p = [1, F.neg(rows[0][0])]
    for r in range(2, n + 1):
        a = rows[r - 1][r - 1]
        row = [rows[r - 1][j] for j in range(r - 1)]
        col = [rows[i][r - 1] for i in range(r - 1)]
        q_vec = [1, F.neg(a)]
        vec = col
        for _ in range(r - 1):
            acc = 0
            for x, y in zip(row, vec):
                acc = F.add(acc, F.mul(x, y))
            q_vec.append(F.neg(acc))
            nxt = []
            for i in range(r - 1):
                s = 0
                for k in range(r - 1):
                    s = F.add(s, F.mul(rows[i][k], vec[k]))
                nxt.append(s)
            vec = nxt
        new_p = [0] * (r + 1)
        for i, qi in enumerate(q_vec):
            if qi and i <= r:
                for j, pj in enumerate(p):
                    if pj and i + j <= r:
                        new_p[i + j] = F.add(new_p[i + j], F.mul(qi, pj))
        p = new_p
    return tuple(reversed(p))


# --- fields -----------------------------------------------------------------


def element_of(F, matrix) -> int:
    """The element whose block is ``matrix``, which must be one."""
    hits = np.flatnonzero((F.blocks == matrix).all(axis=(1, 2)))
    assert len(hits) == 1, matrix
    return int(hits[0])


def test_field_f4_modulus_and_tables():
    F4 = get_field(4)
    assert F4.p == 2 and F4.e == 2
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic
    B = F4.blocks
    # addition is XOR of encodings in characteristic 2
    assert element_of(F4, (B[2] + B[3]) % 2) == 1
    # x * x = x + 1 -> encoding 2*2 = 3
    assert element_of(F4, B[2] @ B[2] % 2) == 3
    # every nonzero block is invertible, with an inverse among the blocks
    for a in range(1, 4):
        assert any(element_of(F4, B[a] @ B[b] % 2) == 1 for b in range(1, 4))


def test_field_f9():
    F9 = get_field(9)
    assert (F9.p, F9.e) == (3, 2)
    B = F9.blocks
    # the blocks are closed under + and *, commute, and the nonzero ones
    # are invertible: a field of 9 elements
    products = np.einsum("aij,bjk->abik", B, B) % 3
    sums = (B[:, None] + B[None]) % 3
    for a, b in itertools.product(range(9), repeat=2):
        assert element_of(F9, products[a, b]) == element_of(F9, products[b, a])
        element_of(F9, sums[a, b])
    assert (_rref(B[1:], 3)[1] == 2).all()
    assert list(F9.neg(np.arange(9))) == [element_of(F9, -B[a] % 3) for a in range(9)]


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        get_field(6)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 25, 27, 125])
def test_field_tables_match_reference_construction(q):
    # the modulus, and the blocks' sums, products and negatives read as
    # encodings, equal the tables built by the reference polynomial arithmetic
    F = get_field(q)
    modulus, add, mul, neg, _ = reference_field_tables(q)
    p = F.p
    assert F.modulus == modulus
    assert (F.blocks[add] == (F.blocks[:, None] + F.blocks[None]) % p).all()
    assert (F.blocks[mul] == np.einsum("aij,bjk->abik", F.blocks, F.blocks) % p).all()
    assert F.neg(np.arange(q)).tolist() == neg
    # column 0 of blocks[a] is a times 1: the base-p digits of a
    assert (F.blocks[:, :, 0] @ p ** np.arange(F.e) == np.arange(q)).all()


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_field_blocks_are_the_regular_representation(q):
    # blocks is a ring homomorphism into e x e matrices over F_p, t (encoded
    # p) goes to the companion matrix of the modulus, and column j of
    # blocks[a] holds the base-p digits of a t^j (t^j encodes as p^j)
    F = get_field(q)
    ref = ref_field(q)
    p, e = F.p, F.e
    blocks = F.blocks.tolist()
    assert F.blocks.shape == (q, e, e)
    f = F.modulus
    assert blocks[p] == [[((i == j + 1) - (j == e - 1) * f[i]) % p for j in range(e)] for i in range(e)]

    def digits(x):
        return [x // p**i % p for i in range(e)]

    for a in range(q):
        assert [list(col) for col in zip(*blocks[a])] == [digits(ref.mul(a, p**j)) for j in range(e)]
        for b in range(q):
            A, B = F.blocks[a], F.blocks[b]
            assert (F.blocks[ref.mul(a, b)] == A @ B % p).all(), (a, b)
            assert (F.blocks[ref.add(a, b)] == (A + B) % p).all(), (a, b)


def test_large_prime_field_tables():
    # q = 1009 is too large for the reference construction: its blocks are
    # the 1 x 1 matrices [a], and the lift multiplies as integers mod p
    F = get_field(1009)
    assert (F.p, F.e, F.modulus) == (1009, 1, (0, 1))
    assert (F.blocks.reshape(-1) == np.arange(1009)).all()
    assert (F.neg(np.arange(1009)) == -np.arange(1009) % 1009).all()
    rng = np.random.default_rng(1009)
    A, B = rng.integers(0, 1009, (2, 50, 2, 2))
    assert (F.lift(A) @ F.lift(B) % 1009 == (A @ B) % 1009).all()


def necklaces(q: int, d: int) -> int:
    """(1/d) sum over k | d of mu(d/k) q^k, the number of monic irreducibles
    of degree d over F_q (Lidl and Niederreiter, Theorem 3.25)."""
    def mu(k):
        primes = [r for r in range(2, k + 1) if k % r == 0 and all(r % s for s in range(2, r))]
        return 0 if any(k % (r * r) == 0 for r in primes) else (-1) ** len(primes)
    return sum(mu(d // k) * q**k for k in range(1, d + 1) if d % k == 0) // d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_irreducible_counts_are_necklace_counts(q):
    F = get_field(q)
    for d in (1, 2, 3):
        polys = monic_irreducibles(F, d)
        assert len(polys) == len(set(polys)) == necklaces(q, d), (q, d)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_irreducibles_have_no_factor(q):
    # degree 2 and 3 monics are irreducible exactly when no t - a divides
    # them: trial division over the reference tables, in the library's order
    F = get_field(q)
    linear = [(a, 1) for a in range(q)]
    for d in (2, 3):
        expect = [tail + (1,) for tail in itertools.product(range(q), repeat=d)
                  if all(poly_rem(q, tail + (1,), g) for g in linear)]
        assert monic_irreducibles(F, d) == expect, (q, d)


# --- enumeration ------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_gl(2, 2)) == 6
    assert len(enumerate_gl(2, 3)) == 48
    assert len(enumerate_gl(2, 4)) == 180
    assert len(enumerate_gl(3, 2)) == 168


def test_enumerate_lex_order_and_budget():
    mats = enumerate_gl(2, 2)
    encs = [encode(M) for M in mats]
    assert encs == sorted(encs)
    with pytest.raises(BudgetError) as err:
        enumerate_gl(4, 3, Budget(elements=10_000))
    assert err.value.required == gl_order(4).eval(3)


def test_budget_refuses_gl34_census_by_default():
    # enumeration of GL_3(4) fits the element budget, but the quadratic
    # centralizer census does not fit the step budget; the refusal comes
    # from the closed-form order, before the group is enumerated
    cached = _gl_group_cached.cache_info().currsize
    with pytest.raises(BudgetError):
        count_cyclic_centralizers(3, 4)
    assert _gl_group_cached.cache_info().currsize == cached


def test_jm_check_budget_counts_candidate_polynomials():
    # q + q^2 + q^3 candidates: 14 for q = 2, refused before F_q is built
    assert jm_check_task(2, Budget(elements=14)) == (15, [], True)
    with pytest.raises(BudgetError) as err:
        jm_check_task(2, Budget(elements=13))
    assert (err.value.required, err.value.allowed) == (14, 13)
    with pytest.raises(BudgetError) as err:
        jm_check_task(59)  # the default budget accepts q <= 58
    assert err.value.required == 59 + 59**2 + 59**3


def test_normalizer_refusal_precedes_enumeration():
    cached = _gl_group_cached.cache_info().currsize
    with pytest.raises(BudgetError) as err:
        normalizer_of_set(CentralizerSet(n=3, q=4, members=(0,)), Budget(steps=10))
    assert err.value.required == gl_order(3).eval(4)
    assert _gl_group_cached.cache_info().currsize == cached


# --- minimal and characteristic polynomials ----------------------------------


def test_min_poly_scalar():
    F2 = get_field(2)
    assert min_poly(identity(F2, 2)) == (1, 1)  # t - 1 over F_2


def test_min_poly_companion_is_f():
    F2 = get_field(2)
    f = (1, 1, 1)
    assert min_poly(jm_block(F2, f, 1)) == f


def test_jm_block_min_poly_grid():
    # min_poly(J_m(f)) = f^m for all monic irreducible f of degree <= 3,
    # m <= 3, over F_2 and F_3
    for q in (2, 3):
        F = get_field(q)
        for d in (1, 2, 3):
            for f in monic_irreducibles(F, d):
                for m in (1, 2, 3):
                    J = jm_block(F, f, m)
                    expect = poly_pow(q, f, m)
                    assert min_poly(J) == expect, (q, f, m)
                    assert char_poly(J) == expect, (q, f, m)
                    assert is_cyclic(J)
                    if J.n <= 3 and f[0]:  # f(0) != 0 makes J invertible
                        group = gl_group(J.n, q)
                        assert group.cyclic_flags()[index_of(group, J)], (q, f, m)


JM_BLOCK = oracle.jm_block


def corner_added(field, f, m):
    """J_m(f) with 1 added to its top right entry."""
    rows = [list(r) for r in JM_BLOCK(field, f, m).rows]
    rows[0][-1] = ref_field(field.q).add(rows[0][-1], 1)
    return FqMatrix(field, tuple(map(tuple, rows)))


def unsigned_tail(field, f, m):
    """J_m(f) with each companion block's last row f_0..f_(d-1), not its
    negative: the same matrix in characteristic 2 only."""
    d = len(f) - 1
    rows = [list(r) for r in JM_BLOCK(field, f, m).rows]
    for b in range(m):
        rows[b * d + d - 1][b * d:b * d + d] = f[:d]
    return FqMatrix(field, tuple(map(tuple, rows)))


@pytest.mark.parametrize("mutation,q,count", [
    (corner_added, 2, 8), (corner_added, 3, 16), (corner_added, 4, 36), (corner_added, 5, 55),
    (unsigned_tail, 2, 0), (unsigned_tail, 3, 39), (unsigned_tail, 5, 162)])
def test_jm_check_reports_exactly_the_broken_cases(monkeypatch, mutation, q, count):
    # the failures jm-check reports for a broken jm_block are exactly the
    # cases whose reference minimal polynomial is not f^m, in case order
    F = get_field(q)
    cases = [(f, m) for d in (1, 2, 3) for f in monic_irreducibles(F, d) for m in (1, 2, 3)]
    broken = [(f, m) for f, m in cases if min_poly(mutation(F, f, m)) != poly_pow(q, f, m)]
    monkeypatch.setattr(oracle, "jm_block", mutation)
    assert jm_check_task(q) == (len(cases), broken, not broken)
    assert len(broken) == count


def test_char_poly_against_leibniz():
    # independent oracle: det(tI - M) expanded over permutations, for
    # every matrix in GL_2(3) and a sample of GL_3(2)
    import itertools as it

    def leibniz_char(M):
        F = ref_field(M.field.q)
        n = M.n
        # entries of tI - M as degree<=1 polynomials over F
        entry = {}
        for i in range(n):
            for j in range(n):
                const = F.neg(M.rows[i][j])
                lin = 1 if i == j else 0
                entry[i, j] = (const, lin)
        total = [0] * (n + 1)
        for perm in it.permutations(range(n)):
            sign = 1
            seen = [False] * n
            # parity via cycle count
            cycles = 0
            for s in range(n):
                if not seen[s]:
                    cycles += 1
                    t = s
                    while not seen[t]:
                        seen[t] = True
                        t = perm[t]
            if (n - cycles) % 2:
                sign = F.neg(1)
            prod = [1]
            for i in range(n):
                c0, c1 = entry[i, perm[i]]
                nxt = [0] * (len(prod) + 1)
                for k, pc in enumerate(prod):
                    if pc:
                        nxt[k] = F.add(nxt[k], F.mul(pc, c0))
                        nxt[k + 1] = F.add(nxt[k + 1], F.mul(pc, c1))
                prod = nxt
            for k, pc in enumerate(prod):
                total[k] = F.add(total[k], F.mul(sign, pc))
        return tuple(total)

    for M in enumerate_gl(2, 3):
        assert char_poly(M) == leibniz_char(M)
    mats = enumerate_gl(3, 2)
    for M in mats[::17]:
        assert char_poly(M) == leibniz_char(M)


def test_min_divides_char_everywhere_small():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        for M in enumerate_gl(n, q):
            assert poly_rem(q, char_poly(M), min_poly(M)) == ()


# --- cyclicity and the proportion bound --------------------------------------


def test_regular_unipotent_is_cyclic():
    F2 = get_field(2)
    u = regular_unipotent(F2, 3)
    assert min_poly(u) == poly_pow(2, (1, 1), 3)  # (t-1)^3 = (t+1)^3 over F_2
    group = gl_group(3, 2)
    assert group.cyclic_flags()[index_of(group, u)]


def test_identity_not_cyclic():
    group = gl_group(2, 3)
    assert not group.cyclic_flags()[index_of(group, identity(group.field, 2))]


def test_witness_matrix_not_cyclic_nor_its_centralizer():
    x = noncyclic_centralizer_witness()
    assert not is_cyclic(x)
    cset = centralizer(x)
    assert cset.order == 16
    group = gl_group(4, 2)
    flags = group.cyclic_flags()
    assert not flags[index_of(group, x)]
    assert all(not flags[i] for i in cset.members)
    # the centralizer is all unipotent: every member minus 1 has rank <= 2
    ranks = _rref(group.lifted[list(cset.members)] - np.eye(4, dtype=np.int64), 2)[1]
    assert ranks.max() <= 2


def test_cyclic_proportion_gl22():
    assert wall_bound_task(2, 2)[0] == Fraction(5, 6)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_wall_bound_small(n, q):
    c, bounds, holds = wall_bound_task(n, q)
    assert c >= bounds["estimate_minus_error"]
    assert c > bounds["expanded_lower"]
    assert holds


# --- centralizers and normalizers --------------------------------------------


def test_regular_unipotent_centralizer_orders():
    # order (1 - 1/q) q^n, abelian; normalizer (1 - 1/q)^2 q^(2n-1)
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        F = get_field(q)
        u = regular_unipotent(F, n)
        cset = centralizer(u)
        assert cset.order == q**n - q ** (n - 1), (n, q)
        group = gl_group(n, q)
        members = [group.mats[i] for i in cset.members]
        assert all(commutes(a, b) for a in members for b in members)
        expected_norm = (q - 1) ** 2 * q ** (2 * n - 1) // q**2
        assert normalizer_of_set(cset) == expected_norm, (n, q)


def test_indecomposable_block_centralizer_orders():
    # a block with parameters (d, m) has abelian centralizer of order
    # (1 - q^-d) q^(dm)
    cases = [(3, 1, 2), (3, 2, 1), (2, 1, 2), (2, 2, 1), (2, 1, 3), (2, 3, 1)]
    for q, d, m in cases:
        F = get_field(q)
        f = monic_irreducibles(F, d)[-1]
        g = jm_block(F, f, m)
        cset = centralizer(g)
        assert cset.order == q ** (d * m) - q ** (d * m - d), (q, d, m)


def test_singer_normalizer():
    F3 = get_field(3)
    f = monic_irreducibles(F3, 2)[0]
    cset = centralizer(jm_block(F3, f, 1))
    assert cset.order == 8
    assert normalizer_of_set(cset) == 16  # d (q^d - 1) with d = 2


def test_centralizer_set_properties():
    group = gl_group(2, 3)
    for idx in (1, 5, 11):
        cset = centralizer(group.mats[idx])
        members = set(cset.members)
        assert index_of(group, identity(group.field, 2)) in members
        # closure under multiplication
        for i in list(members)[:6]:
            for j in list(members)[:6]:
                prod = matmul(group.mats[i], group.mats[j])
                assert index_of(group, prod) in members
        assert gl_order(2).eval(3) % cset.order == 0


# --- distinct centralizer counts ---------------------------------------------


def test_count_cyclic_centralizers_matches_census_when_q_gt_n():
    for (n, q), expect in [((2, 3), 13), ((2, 4), 21), ((2, 5), 31)]:
        count, reps = count_cyclic_centralizers(n, q)
        assert count == expect == a_polynomial(n).eval(q)
        assert len(reps) == count
        group = gl_group(n, q)
        assert all(group.cyclic_flags()[i] for i in reps)


def test_count_cyclic_centralizers_strict_when_q_le_n():
    for n, q in [(2, 2), (3, 2)]:
        count, _ = count_cyclic_centralizers(n, q)
        assert count < a_polynomial(n).eval(q)


def test_count_lower_bound_from_proportion():
    # N_n(q) >= q^-n |GL_n(q)| (1 - q^-3 - q^-5 + q^-6 - q^-n)
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        count, _ = count_cyclic_centralizers(n, q)
        bound = (
            Fraction(gl_order(n).eval(q), q**n)
            * wall_bound_task(n, q)[1]["expanded_lower"]
        )
        assert count >= bound


def test_cyclic_centralizers_are_small_and_abelian():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        group = gl_group(n, q)
        for rep in group.cyclic_centralizer_census():
            members = centralizer(group.mats[rep]).members
            assert len(members) <= q**n
            mats = [group.mats[i] for i in members]
            assert all(commutes(a, b) for a in mats for b in mats)


def test_normalizer_scan_budget():
    cset = centralizer(regular_unipotent(get_field(3), 2))
    with pytest.raises(BudgetError):
        normalizer_of_set(cset, Budget(elements=200_000, steps=10))


# --- matrix basics ------------------------------------------------------------


def test_matrix_inverse_roundtrip():
    group = gl_group(2, 4)
    I = identity(group.field, 2)
    for M in group.mats[::13]:
        assert matmul(M, inverse(M)) == matmul(inverse(M), M) == I
        assert inverse(M) in group.mats


def test_center_indices():
    assert len(gl_group(2, 2).center_indices()) == 1
    assert len(gl_group(2, 3).center_indices()) == 2
    assert len(gl_group(2, 4).center_indices()) == 3
    # brute-force confirmation at tiny scale: center = commuting-with-all
    group = gl_group(2, 3)
    brute = tuple(
        i for i, M in enumerate(group.mats)
        if all(commutes(M, H) for H in group.mats)
    )
    assert brute == group.center_indices()


# --- the lifted representation against the per-element reference -----------


# GL_2(13) is the widest int16 case (top code 13^4 - 1 = 28 560), GL_4(2)
# the first past int16 (top code 2^16 - 1 = 65 535 > 32 767)
ROUNDTRIP = [(2, 2), (2, 3), (2, 4), (2, 8), (2, 9), (2, 13), (4, 2)]


@pytest.mark.parametrize("n,q", ROUNDTRIP, ids=[str(q) if n == 2 else f"{n}-{q}" for n, q in ROUNDTRIP])
def test_lift_codes_roundtrip(n, q):
    """Codes and algebra keys are stored in the narrowest signed dtype
    holding q^(n^2) - 1, and hold the values the int64 arithmetic gives."""
    group = gl_group(n, q)
    e, p = group.field.e, group.field.p
    codes = group.codes(group.lifted[..., ::e])
    dtype = oracle._signed_dtype(q ** (n * n) - 1)
    assert group.elements.dtype == dtype
    assert (np.diff(group.elements) > 0).all()
    assert (codes == group.elements).all()
    assert codes.tolist() == [encode(M) for M in group.mats]
    assert group.lifted.shape[1:] == (n * e,) * 2
    forms = oracle._rref(group._algebra_span(group.lifted), p)[0].astype(np.int64)
    keys = group.algebra_keys()
    assert keys.dtype == dtype
    assert (keys == np.einsum("brj,j->br", forms, group._weights)).all()


@pytest.mark.parametrize("q", [4, 8, 9])
def test_lift_is_multiplicative(q):
    group = gl_group(2, q)
    p = group.field.p
    sample = group.mats[:: max(1, group.order // 40)]
    for A in sample:
        for B in sample[::3]:
            product = group.field.lift(A.rows) @ group.field.lift(B.rows) % p
            assert int(group.codes(product[..., ::group.field.e])) == encode(matmul(A, B))


def test_commuting_indices_matches_per_element_scan():
    group = gl_group(2, 4)
    F = group.field
    singular = FqMatrix(F, ((0, 2), (0, 0)))
    for M in list(group.mats[::23]) + [singular, identity(F, 2)]:
        expect = tuple(i for i, H in enumerate(group.mats) if commutes(H, M))
        assert group.commuting_indices(M) == expect


@pytest.mark.parametrize("q", [3, 4])
def test_commuting_table_matches_per_element(q):
    group = gl_group(2, q)
    mats = group.mats
    expect = np.zeros((group.order, group.order), dtype=bool)
    for i, A in enumerate(mats):
        for j in range(i, group.order):
            expect[i, j] = expect[j, i] = commutes(A, mats[j])
    p = group.field.p
    assert (commuting_table(group.lifted, group.lifted, p) == expect).all()
    columns = list(range(0, group.order, 7))
    assert (commuting_table(group.lifted, group.lifted[columns], p) == expect[:, columns]).all()


def normalizer_by_conjugation(group, cset) -> int:
    """The normalizer order by definition: g with g c g^-1 in C for every
    member c (conjugation is injective, so that is g C g^-1 = C)."""
    members = frozenset(group.mats[i].rows for i in cset.members)
    count = 0
    for g in group.mats:
        g_inv = inverse(g)
        count += all(matmul(matmul(g, group.mats[i]), g_inv).rows in members for i in cset.members)
    return count


def test_normalizer_matches_conjugation_reference():
    group = gl_group(2, 4)
    _, reps = count_cyclic_centralizers(2, 4)
    for idx in list(reps[::4]) + [group.center_indices()[1]]:
        cset = centralizer(group.mats[idx])
        assert normalizer_of_set(cset) == normalizer_by_conjugation(group, cset)


@pytest.mark.parametrize("n,q,positions", [(3, 2, range(0, 41, 8)), (2, 8, [55])])
def test_normalizer_matches_conjugation_on_gl32_and_gl28(n, q, positions):
    # GL_3(2) also gets the non-abelian centralizer (order 8) of a transvection
    group = gl_group(n, q)
    _, reps = count_cyclic_centralizers(n, q)
    elements = [group.mats[reps[pos]] for pos in positions]
    if n == 3:
        elements.append(FqMatrix(group.field, ((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    for M in elements:
        cset = centralizer(M)
        assert normalizer_of_set(cset) == normalizer_by_conjugation(group, cset)


@pytest.mark.parametrize("n,q,expected", [(1, 5, 4), (2, 3, 48)])
def test_normalizer_prefilter_keeps_the_whole_group(n, q, expected):
    # C = C(I) = G: in GL_1(5) every member is central, so the prefilter has
    # no non-central member to test and must keep every g; in GL_2(3) it has
    # one, and every g still lies in the normalizer
    group = gl_group(n, q)
    cset = centralizer(identity(group.field, n))
    assert cset.order == group.order
    assert normalizer_of_set(cset) == normalizer_by_conjugation(group, cset) == expected


# --- the exact float kernels against integer references -----------------------


def reference_commuting(X, S, p):
    """The former table: both int64 products of every pair, reduced mod p."""
    return (X[:, None] @ S[None] % p == S[None] @ X[:, None] % p).all(axis=(2, 3))


@pytest.mark.parametrize("p,d,real", [(2, 4, np.float32), (7, 3, np.float32),
                                      (4099, 1, np.float64), (4099, 3, np.float64)])
def test_commuting_table_matches_int64_reference(p, d, real, monkeypatch):
    assert _exact_dtypes(d * d * (p - 1) ** 2)[0] is real  # the branch under test
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 4096)  # many tiles on both axes
    monkeypatch.setattr(oracle, "_TILE_COLUMNS", 16)
    rng = np.random.default_rng(p + d)
    X = rng.integers(0, p, (70, d, d))
    # the polynomials a X_k^2 + b X_k + c I commute with X_k, and for d > 1
    # their unreduced commutators are often nonzero multiples of p
    a, b, c = rng.integers(0, p, (3, 70, 1, 1))
    polys = (a * (X @ X % p) + b * X + c * np.eye(d, dtype=np.int64)) % p
    S = np.concatenate([X, polys, rng.integers(0, p, (40, d, d))])
    tiles = [(rows, columns) for rows, columns, _ in oracle.commuting_tiles(X, S, p)]
    assert len({rows.start for rows, _ in tiles}) > 2 and len({columns.start for _, columns in tiles}) > 2
    table = commuting_table(X, S, p)
    assert (table == reference_commuting(X, S, p)).all()
    assert table[np.arange(70), 70 + np.arange(70)].all()
    # S is X: the tiles above the diagonal, mirrored
    assert (commuting_table(S, S, p) == reference_commuting(S, S, p)).all()


def test_exact_dtypes_bounds():
    assert _exact_dtypes(2**24 - 1) == (np.float32, np.int32)
    assert _exact_dtypes(2**24) == (np.float64, np.int64)
    assert _exact_dtypes(2**53 - 1) == (np.float64, np.int64)
    with pytest.raises(ValueError):
        _exact_dtypes(2**53)
    # p = 2^27 - 39 is prime and (p - 1)^2 >= 2^53: refused before any product
    one = np.ones((1, 1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        commuting_table(one, one, 2**27 - 39)


@pytest.mark.parametrize("n,q,step", [(3, 2, 1), (2, 8, 150)])
def test_commuting_table_matches_per_element_on_gl32_and_gl28(n, q, step):
    group = gl_group(n, q)
    columns = range(0, group.order, step)
    expect = [[commutes(A, group.mats[j]) for j in columns] for A in group.mats]
    table = commuting_table(group.lifted, group.lifted[list(columns)], group.field.p)
    assert table.tolist() == expect


# --- the batched elimination against plain Python ---------------------------


def _stacks(p: int):
    """Zero, rank-deficient, tall, wide and sparse stacks of integer
    matrices, and last a stack of full rank before its last column."""
    rng = np.random.default_rng(p)
    low = rng.integers(0, p, (30, 5, 2)) @ rng.integers(0, p, (30, 2, 6))
    yield np.zeros((4, 3, 5), dtype=np.int64)
    yield low  # rank at most 2, entries not yet reduced mod p
    yield rng.integers(0, p, (40, 7, 3))  # tall
    yield rng.integers(0, p, (40, 3, 8))  # wide
    yield rng.integers(0, 2, (40, 4, 4)) * rng.integers(0, p, (40, 4, 4))  # sparse square
    # full rank before the last column: k zero columns, an invertible L U
    # block (unit-diagonal U, L with a nonzero diagonal), then random columns
    diagonal = np.eye(4, dtype=np.int64) * rng.integers(1, p, (40, 1, 4))
    lower = np.tril(rng.integers(0, 3 * p, (40, 4, 4)), -1) + diagonal
    upper = np.triu(rng.integers(0, 3 * p, (40, 4, 4)), 1) + np.eye(4, dtype=np.int64)
    early = np.zeros((40, 4, 11), dtype=np.int64)
    for i, k in enumerate(rng.integers(0, 4, 40)):
        early[i, :, k:k + 4] = lower[i] @ upper[i]
        early[i, :, k + 4:] = rng.integers(0, p, (4, 7 - k))
    yield early


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 181, 191])  # both sides of each dtype bound
def test_rref_matches_plain_python(p):
    for stack in _stacks(p):
        expect = [reference_rref(matrix, p) for matrix in stack.tolist()]
        copies = [stack]
        if p <= 11:  # an int8 copy, entries in [-p, p) congruent to the stack's
            copies.append((stack % p - p * (stack % 2)).astype(np.int8))
        for copy in copies:
            before = copy.copy()
            rref, rank = _rref(copy, p)
            assert (copy == before).all()  # the input is not modified
            assert rref.shape == stack.shape and rref.dtype == oracle._rref_dtype(p)
            assert list(zip(rref.tolist(), rank.tolist())) == expect
    assert (rank == stack.shape[1]).all()  # the last stack leaves the elimination early


def reference_algebra_key(lift: list[list[int]], n: int, e: int, p: int) -> list[int]:
    """The algebra key of one lifted M in plain Python: the row codes of the
    echelon form of the digits of t^j M^k (k < n, j < e), read in the
    (block row, row, block column) order of the group's codes."""
    d = n * e
    power = [[int(r == c) for c in range(d)] for r in range(d)]
    rows = []
    for _ in range(n):
        rows += [[power[R * e + i][C * e + j] for R in range(n) for i in range(e) for C in range(n)]
                 for j in range(e)]
        power = [[sum(a * b for a, b in zip(row, column)) % p for column in zip(*lift)] for row in power]
    form, _ = reference_rref(rows, p)
    q = p**e
    weights = [q ** (n * n - 1 - (R * n + C)) * p**i for R in range(n) for i in range(e) for C in range(n)]
    return [sum(a * w for a, w in zip(row, weights)) for row in form]


@pytest.mark.parametrize("n,q", [(1, 9), (2, 4), (2, 5), (2, 9), (2, 13), (3, 2), (3, 3)])
def test_keys_from_narrow_forms_match_plain_python_forms(monkeypatch, n, q):
    """With the cap small, so that enumeration, the flags and the census
    cross-check run over many chunks, the keys read off ``_rref``'s forms in
    its narrow working dtype (int16 for p = 13, int8 below) equal the row
    codes of plain-Python forms, and the group, flags and census equal the
    cached group's, built with the default cap."""
    cached = gl_group(n, q)
    cached.cyclic_centralizer_census()
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 2048)
    group = oracle.GLGroup(n, q)
    e, p = group.field.e, group.field.p
    assert group.cyclic_centralizer_census() == cached.cyclic_centralizer_census()
    assert group.cyclic_flags() == cached.cyclic_flags()
    assert (group.algebra_keys() == cached.algebra_keys()).all()
    assert (group.elements == cached.elements).all() and (group.lifted == cached.lifted).all()
    sample = range(0, group.order, max(1, group.order // 200))
    for i in sample:
        assert group.algebra_keys()[i].tolist() == reference_algebra_key(group.lifted[i].tolist(), n, e, p)


def held_bytes(group) -> int:
    """The bytes of the arrays a group keeps per element: codes, lifts,
    algebra keys and cyclic flags."""
    return group.elements.nbytes + group.lifted.nbytes + group.algebra_keys().nbytes + group._flags().nbytes


def test_group_work_peaks_within_four_caps_plus_what_it_keeps():
    """Traced peaks on GL_3(3), each below four chunk caps plus the bytes
    the step returns or keeps: building the group and its flags, the census
    and its cross-check, and the commuting table of the census
    representatives (the seed), both as one stack and as two.  What the
    group keeps is exact: int16 codes, 9 int8 residues, 3 int16 key row
    codes and one bool per element of GL_3(3), and int32 codes and keys
    with 16 residues and one bool per element of GL_4(2)."""
    cap = oracle._CHUNK_BYTES

    def traced(work):
        tracemalloc.start()
        try:
            return work(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def build():
        group = oracle.GLGroup(3, 3)
        group.cyclic_flags()
        return group

    group, peak = traced(build)
    kept = held_bytes(group)
    assert kept == 11_232 * (2 + 9 + 6 + 1) == 202_176
    assert held_bytes(gl_group(4, 2)) == 20_160 * (4 + 16 + 16 + 1) == 745_920
    assert peak < 4 * cap + kept
    reps, peak = traced(group.cyclic_centralizer_census)
    assert len(reps) == 1067
    assert peak < 4 * cap + sys.getsizeof(reps) + sum(map(sys.getsizeof, reps))
    seed = group.lifted[list(reps)]
    for other in (seed, seed.copy()):
        table, peak = traced(lambda: commuting_table(seed, other, 3))
        assert peak < 4 * cap + table.nbytes


@pytest.mark.parametrize("n,q", [(1, 4), (2, 2), (2, 3), (2, 4), (2, 8), (2, 9), (3, 2)])
def test_cyclic_flags_match_min_poly(n, q):
    group = gl_group(n, q)
    assert group.cyclic_flags() == tuple(is_cyclic(M) for M in group.mats)


@pytest.mark.parametrize("n,q", [(1, 4), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_enumeration_matches_determinant_filter(n, q):
    group = gl_group(n, q)
    F = group.field
    expect = []
    for entries in itertools.product(range(q), repeat=n * n):
        M = FqMatrix(F, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n)))
        if char_poly(M)[0]:  # det M = (-1)^n char_poly(M)(0)
            expect.append(M)
    assert group.elements.tolist() == [encode(M) for M in expect]
    assert tuple(group.mats) == tuple(expect)  # decoded from the codes
    assert (group.lifted == F.lift([M.rows for M in expect])).all()


def test_package_paths_leave_mats_unbuilt(monkeypatch, capsys, tmp_path):
    """The package works on the codes and the lifts alone: on a fresh group,
    not the cached one, the census, the flags, the centre, a centralizer, a
    normalizer, the graph, the seed, the oracle tasks and the CLI witness
    file never decode an element through ``mats``."""
    group = oracle.GLGroup(2, 3)
    monkeypatch.setattr(oracle, "_gl_group_cached", lambda n, q: group)
    decodes = []
    decode = oracle.MatrixView._decode
    monkeypatch.setattr(oracle.MatrixView, "_decode",
                        lambda view, codes: decodes.append(len(codes)) or decode(view, codes))
    assert gl_group(2, 3) is group
    reps = group.cyclic_centralizer_census()
    assert count_cyclic_centralizers(2, 3) == (len(reps), reps)
    assert sum(group.cyclic_flags()) == 46  # all but the two scalars
    assert group.center_indices() == (12, 31)
    cset = centralizer(regular_unipotent(group.field, 2))
    assert (cset.order, normalizer_of_set(cset)) == (6, 12)
    assert build_graph(2, 3).vertex_count == 46
    assert len(seed_clique(2, 3)) == 13
    assert wall_bound_task(2, 3)[2]
    assert centralizer_count_task(2, 3)[2]
    assert regular_unipotent_task(2, 3) == (6, 6, 12, 12, True)
    assert cli.main(["clique", "omega", "--n", "2", "--q", "3",
                     "--emit-witness", str(tmp_path / "witness.txt")]) == 0
    capsys.readouterr()
    assert decodes == []
    assert len(group.mats[:3]) == 3 and decodes == [3]  # the counter sees a decode


@pytest.mark.parametrize("n,q", [(1, 4), (2, 3), (2, 4), (3, 2)])
def test_mats_view_decodes_the_elements(monkeypatch, n, q):
    """Every read of ``mats`` decodes ``elements`` afresh, and a fresh group
    keeps no matrix after a full iteration, run here over many chunks."""
    group = oracle.GLGroup(n, q)
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 320)  # 40 / n^2 elements a chunk
    expect = [FqMatrix(group.field, tuple(map(tuple, rows)))
              for rows in group.decode(group.elements).tolist()]
    view = group.mats
    assert isinstance(view, MatrixView) and view is not group.mats
    assert len(view) == group.order
    for i in (0, group.order // 2, group.order - 1, -1, -2, -group.order):
        assert view[i] == expect[i]
    for i in (group.order, -group.order - 1):
        with pytest.raises(IndexError):
            view[i]
    assert view[3:20:4] == tuple(expect[3:20:4]) and view[::-5] == tuple(expect[::-5])
    assert view.index(expect[-2]) == group.order - 2 and expect[1] in view
    mats = list(view)
    assert mats == expect
    rows = {}
    for M in mats:
        for row in M.rows:
            assert rows.setdefault(row, row) is row  # equal rows are one tuple
    assert len(rows) <= q**n
    held = [name for name, value in vars(group).items()
            if isinstance(value, FqMatrix)
            or isinstance(value, (tuple, list)) and any(isinstance(x, FqMatrix) for x in value)]
    assert held == []


@pytest.mark.parametrize("n,q", [(1, 4), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9),
                                 (3, 2), (3, 3)])
def test_census_matches_full_scan_reference(n, q):
    group = gl_group(n, q)
    reps, _ = reference_census(group)
    assert group.cyclic_centralizer_census() == reps
    assert count_cyclic_centralizers(n, q) == (len(reps), reps)


def test_census_runs_once_per_group(monkeypatch):
    """A second census call, and the seed that follows a count, return the
    kept tuple: the keys are sorted once per group."""
    group = oracle.GLGroup(2, 3)
    monkeypatch.setattr(oracle, "_gl_group_cached", lambda n, q: group)
    group.cyclic_flags()
    calls = []
    classes = oracle.key_classes
    monkeypatch.setattr(oracle, "key_classes", lambda keys: calls.append(1) or classes(keys))
    count, reps = count_cyclic_centralizers(2, 3)
    assert group.cyclic_centralizer_census() is reps
    assert seed_clique(2, 3) == reps and count == 13
    assert len(calls) == 1


def test_gl42_census_count():
    assert count_cyclic_centralizers(4, 2)[0] == 3886


def noncentral_key_classes(group) -> np.ndarray:
    """The class of each non-central element under equal ``algebra_keys``."""
    noncentral = np.delete(np.arange(group.order), group.center_indices())
    return np.unique(group.algebra_keys()[noncentral], axis=0, return_inverse=True)[1].reshape(-1)


def assert_key_classes_match_unique(keys):
    _, first, label = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    got_first, got_label = key_classes(keys)
    assert got_first.tolist() == first.tolist()
    assert got_label.tolist() == label.reshape(-1).tolist()


def test_key_classes_match_np_unique_on_random_ties():
    rng = np.random.default_rng(7)
    for rows, columns, high in [(2000, 3, 2), (1000, 5, 2), (500, 1, 4), (300, 2, 1000), (1, 4, 5),
                                (0, 3, 2)]:
        assert_key_classes_match_unique(rng.integers(-high, high, (rows, columns), dtype=np.int64))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2)])
def test_key_classes_match_np_unique_on_algebra_keys(n, q):
    assert_key_classes_match_unique(gl_group(n, q).algebra_keys())


@pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (3, 2)])
def test_equal_algebra_keys_have_equal_commuting_rows(n, q):
    # the keys are sound for the graph: elements with one key commute with
    # the same elements of the whole group, scalars included
    group = gl_group(n, q)
    noncentral = np.delete(np.arange(group.order), group.center_indices())
    table = commuting_table(group.lifted[noncentral], group.lifted, group.field.p)
    label = noncentral_key_classes(group)
    first = np.unique(label, return_index=True)[1]
    assert (table == table[first[label]]).all()


@pytest.mark.parametrize("n,q,classes", [(2, 2, 4), (3, 2, 78), (3, 3, 1236), (4, 2, 5447)])
def test_algebra_key_class_counts(n, q, classes):
    assert noncentral_key_classes(gl_group(n, q)).max() + 1 == classes


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 8), (2, 9), (3, 3)])
def test_lifts_are_stored_as_int8_residues(n, q):
    group = gl_group(n, q)
    d = n * group.field.e
    assert group.lifted.dtype == np.int8 and group.lifted.nbytes == group.order * d * d
    assert group.field.lift(group.decode(group.elements[:2])).dtype == np.int64


def test_elements_and_lifts_are_read_only():
    # the cached group is shared by every caller, so no caller may write to it
    group = gl_group(2, 3)
    for array in (group.elements, group.lifted, group.algebra_keys(), group._flags()):
        with pytest.raises(ValueError):
            array[0] = 1


def test_gl2_11_products_past_int8_are_exact(monkeypatch):
    # d (p - 1)^2 = 200 > 127: an int8 product of two lifts would wrap.  A
    # fresh group, so the census runs its commuting cross-check here.
    group = oracle.GLGroup(2, 11)
    monkeypatch.setattr(oracle, "_gl_group_cached", lambda n, q: group)
    assert group.lifted.dtype == np.int8
    assert count_cyclic_centralizers(2, 11)[0] == 133 == a_polynomial(2).eval(11)
    assert sum(group.cyclic_flags()) == 13190  # all but the 10 scalars
    cset = centralizer(FqMatrix(group.field, ((1, 1), (0, 1))))
    assert (cset.order, normalizer_of_set(cset)) == (110, 1100)


def test_algebra_keys_are_read_only_and_cover_the_group():
    group = gl_group(2, 3)
    keys = group.algebra_keys()
    assert keys is group.algebra_keys() and len(keys) == group.order
    with pytest.raises(ValueError):
        keys[0, 0] = 0
