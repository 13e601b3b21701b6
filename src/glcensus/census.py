"""Census of the abelian-cover classes of GL_n(q).

The conjugacy classes of covering subgroups are labelled by weight functions
mu : (d, m) -> multiplicities with sum d*m*mu(d,m) = n.  Each label carries an
explicit normaliser-order product, and summing the reciprocals over all
labels of weight n gives the census coefficient b_n.  Multiplying b_n by
|GL_n(q)| yields an integer polynomial a_n in q: the number of covering
subgroups, exact for q > 2 and an upper bound at q = 2.

The label sum is the definition, but it is not how b_n is computed.  Summing
over labels factors block by block, so b_n is the t^n coefficient of
exp(sum_k L_k t^k) with L_k = sum_{dm=k} 1/N(d, m), N the normaliser of one
block, and F' = (log F)' F gives j b_j = sum_{k=1..j} k L_k b_{j-k}.
Multiplying by |GL_j| turns it into a recurrence for a_j over Z[q]:

    j a_j = sum_{k=1..j} w_{j,k} a_{j-k},   a_0 = 1,
    w_{j,k} = sum_{dm=k} k |GL_j| / (|GL_{j-k}| N(d, m)).

Every factor of a term is sparse, so the kernel exp_coefficients builds
each term from its factors over plain coefficient lists, with no polynomial
product and no general division.  |GL_j| / |GL_{j-k}| is q^(k(2j-k-1)/2)
times the k binomials q^i - 1 with j-k < i <= j, and N(d, m) is d (q^d - 1)
when m = 1 and d (q^d - 1)^2 q^(d(2m-3)) when m >= 2.  So the (d, m) term is

    m q^(k(2j-k-1)/2 - [m>=2] d(2m-3)) P / (q^d - 1)^(1 or 2),
    P = a_{j-k} prod_{j-k<i<=j} (q^i - 1),

k = dm cancelling the d of N(d, m).  Each binomial is one shift-and-subtract.
P is kept for every k at once: stepping from j-1 to j multiplies each kept
product by q^j - 1 and adds a_{j-1} (q^j - 1) for k = 1.  Exactly m of the
i are multiples of d and q^d - 1 divides each such q^i - 1, so the division
is exact: C_t = C_{t-d} - A_t from the bottom, and the top d coefficients,
which must vanish, are the remainder.  Every division is checked, and the
sum of the terms must divide by j; any failure is a ConsistencyError.

The same recurrence over the blocks of a set of multiplicities m gives
c_j = |GL_j| [t^j] exp(sum t^(dm) / N(d, m)) over those blocks, so the one
kernel serves a_polynomial (every m), whose b_n are the coefficients of
qseries.build_fbar, and the qseries exp forms of f1 (m = 1) and f2
(m >= 2).  Every c_j is in Z[q]: f1 gives q^(j(j-1)),
and a_j = sum_i c1_i c2_{j-i} |GL_j| / (|GL_i| |GL_{j-i}|) makes c2_j
integral by induction on j.  a_polynomial also requires each a_j to be
monic of degree j^2 - j, and builds a_0, a_1, ... once per process.
b_coefficient is a_n / |GL_n| after one reduction; class_sum keeps the label
sum as the definition-level cross-check.  block_normalizer is N(d, m) as a
polynomial, and normalizer_order the label's N_mu built from it; class_sum
and the split-torus correction of omega_closed read N_mu from there, and
only exp_coefficients keeps its own sparse form of N(d, m), above.

All values are exact and in the formal symbol q: the normaliser orders,
|GL_n| and a_n are IntPolynomials, and b_n is a reduced RationalFunction.
Nothing here depends on a specific field size until an evaluation point is
supplied.  euler_table expands the Euler products
prod (1 - u^s t^m)^(-e) in integers; the class counts, the stabilised
prefix and the product forms in qseries all use it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from glcensus.exactalg import (
    ONE_POLY,
    RF_ONE,
    RF_ZERO,
    IntPolynomial,
    RationalFunction,
    make_rf,
)


class ConsistencyError(RuntimeError):
    """An internal identity that must hold exactly failed to hold."""


class UnsupportedRegimeError(ValueError):
    """A closed formula was requested outside the regime where one exists."""


@dataclass(frozen=True, order=True)
class MuFunction:
    """Finitely supported map (d, m) -> multiplicity, all entries positive.

    The keys of ``items`` are strictly ascending in (d, m), so each label has
    one form; that fixes the canonical ordering used by :func:`enumerate_phi`.
    """

    items: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self) -> None:
        prev = (0, 0)
        for (d, m), mult in self.items:
            if d < 1 or m < 1 or mult < 1:
                raise ValueError(f"invalid support entry ({d},{m}) -> {mult}")
            if (d, m) <= prev:
                raise ValueError("support keys must be strictly ascending in (d, m)")
            prev = (d, m)


def enumerate_phi(n: int) -> tuple[MuFunction, ...]:
    """All weight functions of total weight n, in canonical sorted order.
    Not cached, so no labels outlive their reader: its one caller in the
    package, :func:`class_sum`, reads them once per call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[MuFunction] = []

    # The labels (d, m) ascend, and taking (d, m) moves on to the labels
    # after it, so the functions come out in ascending order.  Only a take
    # recurses, and only on labels whose step d*m still fits.
    def descend(d0: int, m0: int, remaining: int, acc: tuple) -> None:
        if remaining == 0:
            out.append(MuFunction(acc))
            return
        for d in range(d0, remaining + 1):
            for m in range(m0 if d == d0 else 1, remaining // d + 1):
                step = d * m
                for mult in range(1, remaining // step + 1):
                    descend(d, m + 1, remaining - mult * step, acc + (((d, m), mult),))

    descend(1, 1, n, ())
    return tuple(out)


def phi_count(n: int) -> int:
    """Number of weight functions of total weight n, without listing them.

    It is the t^n coefficient of prod_k (1 - t^k)^(-tau(k)), tau(k) the
    number of pairs (d, m) with dm = k.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    factors = [(k, 0, sum(1 for d in range(1, k + 1) if k % d == 0)) for k in range(1, n + 1)]
    return euler_table(n + 1, 0, factors)[n][0]


def euler_table(length: int, u_order: int, factors) -> list[list[int]]:
    """prod (1 - u^s t^m)^(-e) over the (m, s, e) in factors, truncated at
    t^(length-1) and u^u_order, as one integer table F[t-degree][u-degree].

    Dividing by (1 - u^s t^m) is F[j][k] += F[j-m][k-s] for ascending j,
    each F[j-m] already divided, e times per factor.  Adding in place, with
    no row copied, keeps the u_order 0 tables of phi_count and
    stabilized_prefix nearly as cheap as a flat list.
    """
    table = [[0] * (u_order + 1) for _ in range(length)]
    table[0][0] = 1
    for m, s, e in factors:
        for _ in range(e):
            for j in range(m, length):
                row, prev = table[j], table[j - m]
                for k in range(s, u_order + 1):
                    row[k] += prev[k - s]
    return table


def normalizer_order(mu: MuFunction) -> IntPolynomial:
    """Order of the decomposition-preserving normaliser of the class A_mu.

    The block with parameters (d, m) contributes d*(1 - q^-d)*q^d when m = 1
    and d*(1 - q^-d)^2*q^(2dm-d) when m > 1, raised to the multiplicity, and
    repeated blocks contribute a factorial.  The result is an integer
    polynomial in q.
    """
    result = ONE_POLY
    for (d, m), mult in mu.items:
        result = (result * block_normalizer(d, m) ** mult).scale(math.factorial(mult))
    return result


@lru_cache(maxsize=None)
def block_normalizer(d: int, m: int) -> IntPolynomial:
    """N(d, m): the normaliser order of one block, d(q^d-1) when m = 1 and
    d(q^d-1)^2 q^(d(2m-3)) when m > 1."""
    qd_minus_1 = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    if m == 1:
        return qd_minus_1.scale(d)
    # d*(1-q^-d)^2*q^(2dm-d) = d*(q^d-1)^2*q^(d(2m-3))
    return (qd_minus_1 * qd_minus_1).scale(d).shift_up(d * (2 * m - 3))


def _rf_sum(terms: list[RationalFunction]) -> RationalFunction:
    """Balanced pairwise summation, keeping intermediate reductions small."""
    if not terms:
        return RF_ZERO
    while len(terms) > 1:
        nxt = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def class_sum(n: int) -> RationalFunction:
    """b_n straight from its definition: the sum over all weight-n labels of
    1/normalizer_order(mu).

    Not cached and not used by :func:`b_coefficient`; it is the independent
    reference against which the recurrence-built census is checked.
    """
    # N_mu is its content times a primitive q^e prod (q^d - 1)^(e_d): labels
    # of one shape add their 1/content first.  Summing the shapes in order
    # of their coefficients, top one first, keeps like denominators
    # adjacent; the order the labels come in is about 10 % slower.
    by_shape: dict[IntPolynomial, Fraction] = {}
    for mu in enumerate_phi(n):
        order = normalizer_order(mu)
        shape = order.primitive()
        by_shape[shape] = by_shape.get(shape, Fraction(0)) + Fraction(1, order.content())
    terms = [make_rf(IntPolynomial.const(scalar.numerator), shape.scale(scalar.denominator))
             for shape, scalar in sorted(by_shape.items(), key=lambda item: item[0].coeffs[::-1])]
    return _rf_sum(terms)


@lru_cache(maxsize=None)
def b_coefficient(n: int) -> RationalFunction:
    """The t^n coefficient of the census generating function: a_n / |GL_n|."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return RF_ONE
    return make_rf(a_polynomial(n), gl_order(n))


@lru_cache(maxsize=None)
def gl_order(n: int) -> IntPolynomial:
    """|GL_n(q)| = prod_{i=0..n-1} (q^n - q^i) = q^(n(n-1)/2) prod_{i=1..n} (q^i - 1)
    as an integer polynomial, one shift-and-subtract per binomial."""
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = _times_binomial(coeffs, i)
    return IntPolynomial(tuple(coeffs)).shift_up(n * (n - 1) // 2)


# a_0, a_1, ...: every census polynomial computed so far, each exactly once
_census: list[IntPolynomial] = [ONE_POLY]


def _times_binomial(coeffs: list[int], i: int) -> list[int]:
    """coeffs * (q^i - 1), as one shift-and-subtract."""
    pad = [0] * i
    return [hi - lo for hi, lo in zip(pad + coeffs, coeffs + pad)]


def _divide_by_binomial(coeffs: list[int], d: int, what: str) -> list[int]:
    """coeffs / (q^d - 1) in Z[q]; a remainder is a ConsistencyError.

    C_t = C_{t-d} - A_t from the bottom, one running sum per residue of t
    mod d; the division is exact exactly when the top d values vanish.
    """
    quo = [0] * len(coeffs)
    for r in range(d):
        quo[r::d] = [-s for s in accumulate(coeffs[r::d])]
    top = len(coeffs) - d
    if any(quo[top:]):
        raise ConsistencyError(f"{what}: division by q^{d} - 1 leaves a remainder")
    del quo[top:]
    return quo


def exp_coefficients(n: int, multiplicities: range, name: str,
                     start: Sequence[IntPolynomial] = (ONE_POLY,)) -> Iterator[IntPolynomial]:
    """c_j = |GL_j| [t^j] exp(sum t^(dm) / N(d, m)) over the blocks with m in
    multiplicities, for j = len(start) .. n in one ascending pass from the
    known c_0, c_1, ... in start; every division is checked (see the module
    docstring), and a sum not divisible by j is reported for name_j.
    """
    known = len(start)
    # products[j - k] = c_{j-k} prod_{j-k<i<=j} (q^i - 1) for the current j
    products: list[list[int]] = []
    prev = start[0]
    for j in range(1, n + 1):
        products.append(list(prev.coeffs))
        products = [_times_binomial(p, j) for p in products]
        if j < known:
            prev = start[j]
            continue
        total: list[int] = []
        for k in range(1, j + 1):
            product = products[j - k]
            base_shift = k * (2 * j - k - 1) // 2
            for d in range(1, k + 1):
                m = k // d
                if k % d or m not in multiplicities:
                    continue
                what = f"the ({d},{m}) term of w_{j},{k}"
                term = _divide_by_binomial(product, d, what)
                shift = base_shift
                if m >= 2:
                    term = _divide_by_binomial(term, d, what)
                    shift -= d * (2 * m - 3)
                end = shift + len(term)
                if end > len(total):
                    total.extend([0] * (end - len(total)))
                total[shift:end] = [t + m * c for t, c in zip(total[shift:end], term)]
        if any(c % j for c in total):
            raise ConsistencyError(f"{j} {name}_{j} / {j} is not an integer polynomial")
        prev = IntPolynomial(tuple(c // j for c in total))
        yield prev


def a_polynomial(n: int) -> IntPolynomial:
    """b_n * |GL_n(q)|: the subgroup count, monic of degree n^2 - n.

    Exact count for q > 2; an upper bound when evaluated at q = 2.
    exp_coefficients over every block, continued from the a_j already
    built; the shape of every new a_j is checked before it is kept.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = _census
    if n < len(a):
        return a[n]
    for j, poly in enumerate(exp_coefficients(n, range(1, n + 1), "a", a), start=len(a)):
        if poly.degree != j * j - j or poly.leading != 1:
            raise ConsistencyError(
                f"census polynomial for n={j} has degree {poly.degree}, leading {poly.leading}")
        a.append(poly)
    return a[n]


def omega_closed(n: int, q: int) -> int:
    """Exact maximum size of a pairwise non-commuting subset of GL_n(q).

    Only the two regimes with a closed formula are supported: q > n (the
    subgroup count itself) and q = n > 2 (subgroup count minus the correction
    for the split torus mu = {(1, 1): q}, |GL_q(q)| / N_mu(q)).  Anything
    else raises, deliberately: a bound is not a value.
    """
    check_prime_power(q)
    if q > n:
        value = a_polynomial(n).eval(q)
    elif q == n and q > 2:
        split_torus = MuFunction((((1, 1), q),))
        correction = Fraction(gl_order(q).eval(q), normalizer_order(split_torus).eval(q))
        value = a_polynomial(n).eval(q) - correction
    else:
        raise UnsupportedRegimeError(
            f"no closed formula for omega(GL_{n}({q})); only q > n or q = n > 2 are supported"
        )
    if value.denominator != 1 or value <= 0:
        raise ConsistencyError(f"omega formula gave non-integer or non-positive {value}")
    return int(value)


def stabilized_prefix(n: int) -> list[int]:
    """Leading coefficients shared by every census polynomial of index >= n.

    Returns the first floor(n/2) coefficients of the series expansion of
    prod_{k>=1} (1 - x^k)^(-k(k+1)/2).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    length = n // 2
    factors = [(k, 0, k * (k + 1) // 2) for k in range(1, length)]
    return [row[0] for row in euler_table(length, 0, factors)]


def check_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime; raise for anything else."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for cand in range(2, q):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e
