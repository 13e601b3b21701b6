"""Truncated formal power series in t over exact coefficient rings.

Two coefficient rings are supported:

  * RATFUNC: coefficients are reduced rational functions of q.  This is the
    ring in which the census generating function and its factors have closed
    per-coefficient forms.
  * USERIES: coefficients are truncated series in u = 1/q with rational
    coefficients (:class:`UCoeff`).  The infinite-product forms of the
    generating functions only have finite descriptions here, because their
    t-coefficients are infinite sums of powers of 1/q.

The census generating function is fbar = exp(sum_{d,m} t^(dm) / N(d, m)),
with N(d, m) = census.block_normalizer(d, m) the normaliser order of one
block.  It factors as fbar = f1 * f2, where f1 collects the multiplicity-one
blocks (maximal tori) and f2 the blocks of multiplicity at least two.  The
exp form of each is one ps_exp of one log series, the same log/exp
recurrence census runs at integer points.  f1 and f2 also have other,
provably equal forms (closed sum, infinite product), and the builders below
expose all of them so the equalities can be tested coefficient by
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from glcensus.census import block_normalizer
from glcensus.exactalg import (
    ONE_POLY,
    RF_ONE,
    RF_ZERO,
    IntPolynomial,
    PoleError,
    RationalFunction,
    make_rf,
    rf_from_fraction,
)

FORM_EXP = "exp"
FORM_SUM = "sum"
FORM_PRODUCT = "product"

DEFAULT_U_ORDER = 40


class RingMismatchError(ValueError):
    """Operation on series over different coefficient rings or orders."""


# ---------------------------------------------------------------------------
# the truncated u = 1/q coefficient ring


@dataclass(frozen=True)
class UCoeff:
    """Polynomial in u truncated at degree u_order, coefficients rational."""

    u_order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.u_order + 1:
            raise ValueError("coefficient list must have length u_order + 1")

    @staticmethod
    def zero(u_order: int) -> UCoeff:
        return UCoeff(u_order, (Fraction(0),) * (u_order + 1))

    @staticmethod
    def from_fraction(u_order: int, x: Fraction) -> UCoeff:
        return UCoeff(u_order, (Fraction(x),) + (Fraction(0),) * u_order)

    @staticmethod
    def monomial(u_order: int, degree: int, c: Fraction = Fraction(1)) -> UCoeff:
        coeffs = [Fraction(0)] * (u_order + 1)
        if degree <= u_order:
            coeffs[degree] = Fraction(c)
        return UCoeff(u_order, tuple(coeffs))

    def _check(self, other: UCoeff) -> None:
        if self.u_order != other.u_order:
            raise RingMismatchError("u-series truncation orders differ")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: UCoeff) -> UCoeff:
        self._check(other)
        return UCoeff(self.u_order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: UCoeff) -> UCoeff:
        self._check(other)
        return UCoeff(self.u_order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: UCoeff) -> UCoeff:
        self._check(other)
        out = [Fraction(0)] * (self.u_order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.u_order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return UCoeff(self.u_order, tuple(out))

    def scale(self, x: Fraction) -> UCoeff:
        return UCoeff(self.u_order, tuple(c * x for c in self.coeffs))


# ---------------------------------------------------------------------------
# ring descriptors


@dataclass(frozen=True)
class RatFuncRing:
    def zero(self) -> RationalFunction:
        return RF_ZERO

    def one(self) -> RationalFunction:
        return RF_ONE

    def from_fraction(self, x: Fraction) -> RationalFunction:
        return rf_from_fraction(x)

    def is_zero(self, c: RationalFunction) -> bool:
        return c.is_zero


@dataclass(frozen=True)
class USeriesRing:
    u_order: int

    def zero(self) -> UCoeff:
        return UCoeff.zero(self.u_order)

    def one(self) -> UCoeff:
        return UCoeff.from_fraction(self.u_order, Fraction(1))

    def from_fraction(self, x: Fraction) -> UCoeff:
        return UCoeff.from_fraction(self.u_order, x)

    def is_zero(self, c: UCoeff) -> bool:
        return c.is_zero


RATFUNC = RatFuncRing()


# ---------------------------------------------------------------------------
# power series


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients for t^0 .. t^order over a tagged coefficient ring."""

    order: int
    coeffs: tuple
    ring: RatFuncRing | USeriesRing

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must have length order + 1")

    def _check(self, other: PowerSeries) -> None:
        if self.ring != other.ring:
            raise RingMismatchError("series live over different coefficient rings")
        if self.order != other.order:
            raise RingMismatchError("series have different truncation orders")

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __add__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        return PowerSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.ring)

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        return ps_mul(self, other)


def ps_one(order: int, ring=RATFUNC) -> PowerSeries:
    return PowerSeries(order, (ring.one(),) + tuple(ring.zero() for _ in range(order)), ring)


def ps_from_dict(order: int, entries: dict, ring=RATFUNC) -> PowerSeries:
    coeffs = [ring.zero()] * (order + 1)
    for k, c in entries.items():
        if 0 <= k <= order:
            coeffs[k] = c
    return PowerSeries(order, tuple(coeffs), ring)


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at t^order; zero coefficients are skipped."""
    a._check(b)
    ring = a.ring
    out = [ring.zero()] * (a.order + 1)
    for i, ca in enumerate(a.coeffs):
        if ring.is_zero(ca):
            continue
        for j in range(a.order + 1 - i):
            cb = b.coeffs[j]
            if ring.is_zero(cb):
                continue
            out[i + j] = out[i + j] + ca * cb
    return PowerSeries(a.order, tuple(out), ring)


def ps_exp(a: PowerSeries) -> PowerSeries:
    """Exponential of a series with zero constant term, exact in its ring.

    F = exp(a) satisfies F' = a' F, so F_0 = 1 and
    j F_j = sum_{k=1..j} k a_k F_{j-k}: O(order^2) ring products.
    """
    ring = a.ring
    if not ring.is_zero(a.coeffs[0]):
        raise ValueError("ps_exp requires a zero constant term")
    k_a = [ring.from_fraction(Fraction(k)) * c for k, c in enumerate(a.coeffs)]
    out = [ring.one()]
    for j in range(1, a.order + 1):
        acc = ring.zero()
        for k in range(1, j + 1):
            if not ring.is_zero(k_a[k]) and not ring.is_zero(out[j - k]):
                acc = acc + k_a[k] * out[j - k]
        out.append(ring.from_fraction(Fraction(1, j)) * acc)
    return PowerSeries(a.order, tuple(out), ring)


# ---------------------------------------------------------------------------
# expansion of a rational function in powers of u = 1/q


def rf_to_useries(f: RationalFunction, u_order: int) -> UCoeff:
    """Expand f(q) in powers of u = 1/q, truncated at u^u_order.

    Defined exactly when deg num <= deg den (no pole at u = 0); census
    coefficients always satisfy this.
    """
    if f.is_zero:
        return UCoeff.zero(u_order)
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        raise PoleError("pole at u = 0: numerator degree exceeds denominator degree")
    shift = dd - dn
    # reversed coefficient lists: num(1/u) = u^-dn * N(u), den(1/u) = u^-dd * D(u)
    ncoef = list(reversed(f.num.coeffs))
    dcoef = list(reversed(f.den.coeffs))
    depth = u_order - shift
    out = [Fraction(0)] * (u_order + 1)
    if depth >= 0:
        series = [Fraction(0)] * (depth + 1)
        lead = Fraction(dcoef[0])
        for k in range(depth + 1):
            acc = Fraction(ncoef[k]) if k < len(ncoef) else Fraction(0)
            for j in range(1, min(k, len(dcoef) - 1) + 1):
                acc -= dcoef[j] * series[k - j]
            series[k] = acc / lead
        for k, c in enumerate(series):
            out[k + shift] = c
    return UCoeff(u_order, tuple(out))


# ---------------------------------------------------------------------------
# the census generating function and its factors


def _exp_form(order: int, multiplicities: range) -> PowerSeries:
    """exp(sum of t^(dm) / N(d, m) over the blocks with m in multiplicities)."""
    log = [RF_ZERO] * (order + 1)
    for m in multiplicities:
        for d in range(1, order // m + 1):
            log[d * m] = log[d * m] + RF_ONE / block_normalizer(d, m)
    return ps_exp(PowerSeries(order, tuple(log), RATFUNC))


def _geometric_factor(order: int, ring: USeriesRing, t_step: int, u_step: int,
                      exponent: int) -> PowerSeries:
    """(1 - u^u_step * t^t_step)^(-exponent) truncated in both variables."""
    entries = {}
    for k in range(0, order // t_step + 1):
        if k * u_step > ring.u_order and k > 0:
            break
        c = Fraction(math.comb(k + exponent - 1, k))
        entries[k * t_step] = UCoeff.monomial(ring.u_order, k * u_step, c)
    return ps_from_dict(order, entries, ring)


def build_f1(order: int, form: str, u_order: int = DEFAULT_U_ORDER) -> PowerSeries:
    """The maximal-torus factor of the census generating function.

    exp form:      exp(sum_d t^d / N(d, 1)), N(d, 1) = d (q^d - 1)  [RATFUNC]
    sum form:      sum_d t^d * q^(d(d-1)/2) / prod_i (q^i - 1)       [RATFUNC]
    product form:  prod_{i>=0} (1 - q^-(i+1) t)^-1                   [USERIES]
    """
    if form == FORM_EXP:
        return _exp_form(order, range(1, 2))
    if form == FORM_SUM:
        entries = {}
        for d in range(0, order + 1):
            num = ONE_POLY.shift_up(d * (d - 1) // 2)
            den = ONE_POLY
            for i in range(1, d + 1):
                den = den * IntPolynomial((-1,) + (0,) * (i - 1) + (1,))
            entries[d] = make_rf(num, den)
        return ps_from_dict(order, entries, RATFUNC)
    if form == FORM_PRODUCT:
        ring = USeriesRing(u_order)
        result = ps_one(order, ring)
        for i in range(0, u_order):
            factor = _geometric_factor(order, ring, t_step=1, u_step=i + 1, exponent=1)
            result = ps_mul(result, factor)
        return result
    raise ValueError(f"unknown form {form!r} for f1 (use exp, sum or product)")


def build_f2(order: int, form: str, u_order: int = DEFAULT_U_ORDER) -> PowerSeries:
    """The repeated-block factor of the census generating function.

    exp form:      exp(sum_{m>=2, d} t^(dm) / N(d, m)),
                   N(d, m) = d (q^d - 1)^2 q^(d(2m-3))                   [RATFUNC]
    product form:  prod_{m>=2, i,j>=0} (1 - q^-(i+j+2m-1) t^m)^-1         [USERIES]
    """
    if form == FORM_EXP:
        return _exp_form(order, range(2, order + 1))
    if form == FORM_PRODUCT:
        ring = USeriesRing(u_order)
        result = ps_one(order, ring)
        for m in range(2, order + 1):
            # group the (i, j) pairs by s = i + j + 2m - 1; there are
            # s - 2m + 2 pairs for each s
            for s in range(2 * m - 1, u_order + 1):
                factor = _geometric_factor(order, ring, t_step=m, u_step=s,
                                           exponent=s - 2 * m + 2)
                result = ps_mul(result, factor)
        return result
    if form == FORM_SUM:
        raise ValueError("f2 has no closed sum form")
    raise ValueError(f"unknown form {form!r} for f2 (use exp or product)")


def build_fbar(order: int) -> PowerSeries:
    """Full census generating function, exp(sum_{d,m} t^(dm) / N(d, m)) with
    one ps_exp over all blocks; the t^n coefficient is b_n."""
    return _exp_form(order, range(1, order + 1))
