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

Each term of w_{j,k} is an integer polynomial.  |GL_j| / |GL_{j-k}| is
q^(k(2j-k-1)/2) times the k factors q^i - 1 with j-k < i <= j; exactly m of
those i are multiples of d, and q^d - 1 divides each of them, which covers
(q^d - 1)^2 once m >= 2; the q-power is at least d(2m-3), and k = dm cancels
the factor d of N(d, m).  a_polynomial builds a_1, a_2, ... once per process
in one ascending pass, checking every division (by |GL_{j-k}|, by N(d, m)
and by j) and that each a_j is monic of degree j^2 - j; b_coefficient is
then a_n / |GL_n| after one reduction.  class_sum keeps the label sum itself
as the definition-level cross-check for the verification suite and the
tests.

block_normalizer is the one definition of N(d, m); qseries builds the exp
forms of the generating function from it too.  _denominator_shape, which
class_sum uses, encodes the same normaliser independently as a q-power,
(q^d - 1)-exponents and an integer, so the cross-check does not share it.

All values are exact and in the formal symbol q: the normaliser orders,
|GL_n| and a_n are IntPolynomials, and b_n is a reduced RationalFunction.
Nothing here depends on a specific field size until an evaluation point is
supplied.  euler_table expands the Euler products
prod (1 - u^s t^m)^(-e) in integers; the class counts, the stabilised
prefix and the product forms in qseries all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from glcensus.exactalg import (
    ONE_POLY,
    RF_ONE,
    RF_ZERO,
    ZERO_POLY,
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

    ``items`` is sorted by (d, m), which fixes the canonical ordering used by
    :func:`enumerate_phi`.
    """

    items: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self) -> None:
        for (d, m), mult in self.items:
            if d < 1 or m < 1 or mult < 1:
                raise ValueError(f"invalid support entry ({d},{m}) -> {mult}")
        if list(self.items) != sorted(self.items):
            raise ValueError("support must be sorted by (d, m)")

    @property
    def weight(self) -> int:
        return sum(d * m * mult for (d, m), mult in self.items)

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return "{" + ", ".join(f"({d},{m}):{k}" for (d, m), k in self.items) + "}"


@lru_cache(maxsize=None)
def enumerate_phi(n: int) -> tuple[MuFunction, ...]:
    """All weight functions of total weight n, in canonical sorted order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    labels = [(d, m) for d in range(1, n + 1) for m in range(1, n // d + 1)]
    out: list[MuFunction] = []

    def descend(idx: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(MuFunction(tuple(acc)))
            return
        if idx == len(labels):
            return
        d, m = labels[idx]
        step = d * m
        # labels ascend, so taking this one before skipping it emits the
        # functions in ascending order
        for mult in range(1, remaining // step + 1):
            descend(idx + 1, remaining - mult * step, acc + [((d, m), mult)])
        descend(idx + 1, remaining, acc)

    descend(0, n, [])
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


def _denominator_shape(mu: MuFunction) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Split 1/normalizer_order(mu) as (q-power, (q^d-1)-exponents, integer).

    Lets class_sum group the many labels that share a polynomial
    denominator before doing any rational-function arithmetic.
    """
    qpow = 0
    exps: dict[int, int] = {}
    const = 1
    for (d, m), mult in mu.items:
        const *= d**mult * math.factorial(mult)
        if m == 1:
            exps[d] = exps.get(d, 0) + mult
        else:
            exps[d] = exps.get(d, 0) + 2 * mult
            qpow += d * (2 * m - 3) * mult
    return qpow, tuple(sorted(exps.items())), const


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
    by_shape: dict[tuple, Fraction] = {}
    for mu in enumerate_phi(n):
        qpow, exps, const = _denominator_shape(mu)
        key = (qpow, exps)
        by_shape[key] = by_shape.get(key, Fraction(0)) + Fraction(1, const)
    terms = []
    for (qpow, exps), scalar in sorted(by_shape.items()):
        den = ONE_POLY.shift_up(qpow).scale(scalar.denominator)
        for d, e in exps:
            qd_minus_1 = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
            den = den * qd_minus_1**e
        terms.append(make_rf(IntPolynomial.const(scalar.numerator), den))
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
    """|GL_n(q)| = prod_{i=0..n-1} (q^n - q^i) as an integer polynomial."""
    result = ONE_POLY
    for i in range(n):
        factor = [0] * (n + 1)
        factor[n] = 1
        factor[i] = -1
        result = result * IntPolynomial.from_coeffs(factor)
    return result


# a_0, a_1, ...: every census polynomial computed so far, each exactly once
_census: list[IntPolynomial] = [ONE_POLY]


def _exact_quotient(num: IntPolynomial, den: IntPolynomial, what: str) -> IntPolynomial:
    """num / den in Z[q]; a remainder or a non-integer coefficient is a ConsistencyError."""
    try:
        return num.exact_div(den)
    except ValueError:
        raise ConsistencyError(f"{what} is not an integer polynomial") from None


def a_polynomial(n: int) -> IntPolynomial:
    """b_n * |GL_n(q)|: the subgroup count, monic of degree n^2 - n.

    Exact count for q > 2; an upper bound when evaluated at q = 2.
    Built by j a_j = sum_{k=1..j} w_{j,k} a_{j-k} over Z[q], from a_0 = 1 up,
    with w_{j,k} = sum_{dm=k} k |GL_j| / (|GL_{j-k}| N(d, m)); every division
    and the shape of every a_j are checked.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    a = _census
    for j in range(len(a), n + 1):
        total = ZERO_POLY
        for k in range(1, j + 1):
            ratio = _exact_quotient(gl_order(j), gl_order(j - k), f"|GL_{j}| / |GL_{j - k}|")
            ratio = ratio.scale(k)
            weight = ZERO_POLY
            for d in range(1, k + 1):
                if k % d == 0:
                    weight = weight + _exact_quotient(
                        ratio, block_normalizer(d, k // d),
                        f"the ({d},{k // d}) term of w_{j},{k}")
            total = total + weight * a[j - k]
        poly = _exact_quotient(total, IntPolynomial.const(j), f"{j} a_{j} / {j}")
        if poly.degree != j * j - j or poly.leading != 1:
            raise ConsistencyError(
                f"census polynomial for n={j} has degree {poly.degree}, leading {poly.leading}")
        a.append(poly)
    return a[n]


def omega_closed(n: int, q: int) -> int:
    """Exact maximum size of a pairwise non-commuting subset of GL_n(q).

    Only the two regimes with a closed formula are supported: q > n (the
    subgroup count itself) and q = n > 2 (subgroup count minus the correction
    for the split torus, |GL_q(q)| / ((q-1)^q * q!)).  Anything else raises,
    deliberately: a bound is not a value.
    """
    check_prime_power(q)
    if q > n:
        value = a_polynomial(n).eval(q)
    elif q == n and q > 2:
        correction = Fraction(gl_order(q).eval(q), (q - 1) ** q * math.factorial(q))
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
