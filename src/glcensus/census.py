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
block.  At an integer point q = q0 the recurrence j b_j = sum_k k L_k b_{j-k}
gives b_n(q0) exactly in O(n^2) rational operations, hence the integer
a_n(q0).  a_polynomial interpolates a_n, of degree n^2 - n, from its values
at the consecutive nodes q0 = 2 .. n^2-n+2 in integer arithmetic (Newton
form), confirms it at one extra node and checks that it is monic of the
right degree; b_coefficient is then a_n / |GL_n| after one reduction.
class_sum keeps the label sum itself as the definition-level cross-check for
the verification suite and the tests.

block_normalizer is the one definition of N(d, m); qseries builds the exp
forms of the generating function from it too.  _denominator_shape, which
class_sum uses, encodes the same normaliser independently as a q-power,
(q^d - 1)-exponents and an integer, so the cross-check does not share it.

All values are exact rational functions of the formal symbol q; nothing here
depends on a specific field size until an evaluation point is supplied.
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
    IntPolynomial,
    RationalFunction,
    make_rf,
    rf_from_poly,
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
    labels.sort()
    out: list[MuFunction] = []

    def descend(idx: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(MuFunction(tuple(acc)))
            return
        if idx == len(labels):
            return
        d, m = labels[idx]
        step = d * m
        descend(idx + 1, remaining, acc)
        for mult in range(1, remaining // step + 1):
            descend(idx + 1, remaining - mult * step, acc + [((d, m), mult)])

    descend(0, n, [])
    out.sort()
    return tuple(out)


def phi_count(n: int) -> int:
    return len(enumerate_phi(n))


def normalizer_order(mu: MuFunction) -> RationalFunction:
    """Order of the decomposition-preserving normaliser of the class A_mu.

    The block with parameters (d, m) contributes d*(1 - q^-d)*q^d when m = 1
    and d*(1 - q^-d)^2*q^(2dm-d) when m > 1, raised to the multiplicity, and
    repeated blocks contribute a factorial.  The result is always an integer
    polynomial in q (wrapped as a RationalFunction).
    """
    result = RF_ONE
    for (d, m), mult in mu.items:
        base = block_normalizer(d, m)
        result = result * base ** mult
        result = result * make_rf(IntPolynomial.const(math.factorial(mult)), ONE_POLY)
    return result


@lru_cache(maxsize=None)
def block_normalizer(d: int, m: int) -> RationalFunction:
    """N(d, m): the normaliser order of one block, d(q^d-1) when m = 1 and
    d(q^d-1)^2 q^(d(2m-3)) when m > 1, as a polynomial RationalFunction."""
    qd_minus_1 = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    if m == 1:
        return rf_from_poly(qd_minus_1.scale(d))
    # d*(1-q^-d)^2*q^(2dm-d) = d*(q^d-1)^2*q^(d(2m-3))
    return rf_from_poly((qd_minus_1 * qd_minus_1).scale(d).shift_up(d * (2 * m - 3)))


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
    reference against which the interpolated census is checked.
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


def _node_value(n: int, q0: int) -> int:
    """a_n(q0) = b_n(q0) * |GL_n(q0)|, from the log/exp recurrence at q = q0.

    log F = sum_k L_k t^k with L_k = sum_{dm=k} 1/N(d, m), N the block
    normaliser; F' = (log F)' F gives j b_j = sum_{k=1..j} k L_k b_{j-k}.
    """
    k_log = [Fraction(0)] * (n + 1)  # k * L_k(q0)
    for d in range(1, n + 1):
        for m in range(1, n // d + 1):
            k_log[d * m] += Fraction(d * m, block_normalizer(d, m).num.eval_int(q0))
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(sum(k_log[k] * b[j - k] for k in range(1, j + 1)) / j)
    value = b[n] * gl_order(n).eval_int(q0)
    if value.denominator != 1:
        raise ConsistencyError(f"a_{n}({q0}) = {value} is not an integer")
    return value.numerator


def _newton_interpolate(values: list[int], first: int) -> IntPolynomial:
    """The integer polynomial of degree < len(values) taking values[i] at first + i.

    Newton form over the consecutive nodes: the k-th forward difference of an
    integer polynomial is divisible by k!, so every coefficient is an exact
    integer quotient, and a remainder means the values fit no such polynomial.
    """
    diffs = list(values)
    newton = []
    factorial = 1
    for k in range(len(values)):
        c, r = divmod(diffs[0], factorial)
        if r:
            raise ConsistencyError(f"forward difference {k} is not divisible by {k}!")
        newton.append(c)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        factorial *= k + 1
    # Horner: p = c_0 + (q - x_0)(c_1 + (q - x_1)(c_2 + ...)), x_k = first + k
    acc: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        x = first + k
        acc.insert(0, 0)
        for i in range(len(acc) - 1):
            acc[i] -= x * acc[i + 1]
        acc[0] += newton[k]
    return IntPolynomial.from_coeffs(acc)


@lru_cache(maxsize=None)
def a_polynomial(n: int) -> IntPolynomial:
    """b_n * |GL_n(q)|: the subgroup count, monic of degree n^2 - n.

    Exact count for q > 2; an upper bound when evaluated at q = 2.
    Interpolated from its values at q = 2..n^2-n+2 and checked at one more.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    degree = n * n - n
    poly = _newton_interpolate([_node_value(n, q0) for q0 in range(2, degree + 3)], 2)
    check = degree + 3
    if poly.eval_int(check) != _node_value(n, check):
        raise ConsistencyError(f"census polynomial for n={n} misses its check node q={check}")
    if poly.degree != degree or poly.leading != 1:
        raise ConsistencyError(
            f"census polynomial for n={n} has degree {poly.degree}, leading {poly.leading}"
        )
    return poly


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
        correction = Fraction(gl_order(q).eval_int(q), (q - 1) ** q * math.factorial(q))
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
    count = n // 2
    order = count - 1
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        exponent = k * (k + 1) // 2
        # multiply by (1 - x^k)^(-exponent) term by term
        factor = [0] * (order + 1)
        for j in range(0, order // k + 1):
            factor[j * k] = math.comb(j + exponent - 1, j)
        coeffs = _series_mul(coeffs, factor, order)
    return coeffs[:count]


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ca in enumerate(a):
        if ca:
            for j in range(0, order + 1 - i):
                if b[j]:
                    out[i + j] += ca * b[j]
    return out


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
