"""Truncated formal power series in t, and the census generating function.

Series arithmetic (ps_mul) runs in one coefficient ring, RATFUNC: reduced
rational functions of q, the ring in which the census generating function
and its factors have closed per-coefficient forms.

The census generating function is fbar = exp(sum_{d,m} t^(dm) / N(d, m)),
with N(d, m) the normaliser order of one block; its t^n coefficient is
census.b_coefficient(n).  It factors as fbar = f1 * f2, where f1 collects
the multiplicity-one blocks (maximal tori) and f2 the blocks of
multiplicity at least two.  The exp form of each is c_j / |GL_j| at t^j,
with c_j in Z[q] from census.exp_coefficients, the checked recurrence that
also builds the census polynomials a_n, run over the blocks of the
factor's multiplicities.  f1 and f2 also have other,
provably equal forms (closed sum, infinite product), and the builders below
expose all of them so the equalities can be tested coefficient by
coefficient.

The infinite-product forms have finite descriptions only as series in
u = 1/q.  They are products of factors (1 - u^s t^m)^(-e), so every
u-coefficient is a nonnegative integer: each product form is one integer
table from census.euler_table, tagged USERIES, with one UCoeff record per
t-coefficient.  rf_to_useries expands a RATFUNC coefficient in u for the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from glcensus.census import b_coefficient, euler_table, exp_coefficients, gl_order
from glcensus.exactalg import (
    ONE_POLY,
    RF_ONE,
    RF_ZERO,
    PoleError,
    RationalFunction,
    make_rf,
)

FORM_EXP = "exp"
FORM_SUM = "sum"
FORM_PRODUCT = "product"

DEFAULT_U_ORDER = 40


class RingMismatchError(ValueError):
    """Operation on series over different coefficient rings or orders."""


# ---------------------------------------------------------------------------
# series


@dataclass(frozen=True)
class UCoeff:
    """One t-coefficient of a product form: the coefficients of u^0 ..
    u^u_order, u = 1/q."""

    u_order: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.u_order + 1:
            raise ValueError("coefficient list must have length u_order + 1")


@dataclass(frozen=True)
class RatFuncRing:
    """Tag of a series whose coefficients are RationalFunctions."""


@dataclass(frozen=True)
class USeriesRing:
    """Tag of a product form, whose coefficients are UCoeffs truncated at
    u^u_order; no series arithmetic runs over it."""

    u_order: int


RATFUNC = RatFuncRing()


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients for t^0 .. t^order over a tagged coefficient ring."""

    order: int
    coeffs: tuple
    ring: RatFuncRing | USeriesRing

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must have length order + 1")

    def __getitem__(self, k: int):
        return self.coeffs[k]


def ps_from_dict(order: int, entries: dict) -> PowerSeries:
    coeffs = [RF_ZERO] * (order + 1)
    for k, c in entries.items():
        if 0 <= k <= order:
            coeffs[k] = c
    return PowerSeries(order, tuple(coeffs), RATFUNC)


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at t^order; zero coefficients are skipped."""
    if a.ring != RATFUNC or b.ring != RATFUNC:
        raise RingMismatchError("series arithmetic runs over rational functions only")
    if a.order != b.order:
        raise RingMismatchError("series have different truncation orders")
    out = [RF_ZERO] * (a.order + 1)
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero:
            continue
        for j in range(a.order + 1 - i):
            cb = b.coeffs[j]
            if cb.is_zero:
                continue
            out[i + j] = out[i + j] + ca * cb
    return PowerSeries(a.order, tuple(out), RATFUNC)


# ---------------------------------------------------------------------------
# expansion of a rational function in powers of u = 1/q


def rf_to_useries(f: RationalFunction, u_order: int) -> UCoeff:
    """Expand f(q) in powers of u = 1/q, truncated at u^u_order.

    Defined exactly when deg num <= deg den (no pole at u = 0); census
    coefficients always satisfy this.
    """
    if f.is_zero:
        return UCoeff(u_order, (Fraction(0),) * (u_order + 1))
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


def _check_orders(order: int, u_order: int = 0) -> None:
    if order < 0 or u_order < 0:
        raise ValueError(f"truncation orders must be nonnegative (order {order}, u_order {u_order})")


def _exp_form(order: int, multiplicities: range, name: str) -> PowerSeries:
    """exp(sum of t^(dm) / N(d, m) over the blocks with m in multiplicities):
    c_j / |GL_j| at t^j, every c_j from one checked census pass."""
    c = list(exp_coefficients(order, multiplicities, name))
    return PowerSeries(order, (RF_ONE,) + tuple(make_rf(cj, gl_order(j))
                                                for j, cj in enumerate(c, start=1)), RATFUNC)


def _product_form(order: int, u_order: int, factors) -> PowerSeries:
    """prod (1 - u^s t^m)^(-e) over the (m, s, e) in factors, truncated at
    t^order and u^u_order: every coefficient is a nonnegative int, and no
    series arithmetic runs."""
    table = euler_table(order + 1, u_order, factors)
    return PowerSeries(order, tuple(UCoeff(u_order, tuple(row)) for row in table),
                       USeriesRing(u_order))


def build_f1(order: int, form: str, u_order: int = DEFAULT_U_ORDER) -> PowerSeries:
    """The maximal-torus factor of the census generating function.

    exp form:      exp(sum_d t^d / N(d, 1)), N(d, 1) = d (q^d - 1), as
                   c_j / |GL_j| from the census recurrence over m = 1  [RATFUNC]
    sum form:      sum_d t^d * q^(d(d-1)/2) / prod_i (q^i - 1)       [RATFUNC]
    product form:  prod_{i>=0} (1 - q^-(i+1) t)^-1, an integer table
                   in u = 1/q truncated at u^u_order                [USERIES]
    """
    _check_orders(order, u_order)
    if form == FORM_EXP:
        return _exp_form(order, range(1, 2), "|GL| f1")
    if form == FORM_SUM:
        # q^(d(d-1)/2) / prod_i (q^i - 1) = q^(d(d-1)) / |GL_d|
        return ps_from_dict(order, {d: make_rf(ONE_POLY.shift_up(d * (d - 1)), gl_order(d))
                                    for d in range(order + 1)})
    if form == FORM_PRODUCT:
        return _product_form(order, u_order, [(1, s, 1) for s in range(1, u_order + 1)])
    raise ValueError(f"unknown form {form!r} for f1 (use exp, sum or product)")


def build_f2(order: int, form: str, u_order: int = DEFAULT_U_ORDER) -> PowerSeries:
    """The repeated-block factor of the census generating function.

    exp form:      exp(sum_{m>=2, d} t^(dm) / N(d, m)),
                   N(d, m) = d (q^d - 1)^2 q^(d(2m-3)), as c_j / |GL_j|
                   from the census recurrence over m >= 2               [RATFUNC]
    product form:  prod_{m>=2, i,j>=0} (1 - q^-(i+j+2m-1) t^m)^-1, an
                   integer table in u = 1/q truncated at u^u_order       [USERIES]
    """
    _check_orders(order, u_order)
    if form == FORM_EXP:
        return _exp_form(order, range(2, order + 1), "|GL| f2")
    if form == FORM_PRODUCT:
        # the s - 2m + 2 pairs (i, j) with i + j + 2m - 1 = s give one factor
        # with exponent s - 2m + 2
        return _product_form(order, u_order, [(m, s, s - 2 * m + 2)
                                              for m in range(2, order + 1)
                                              for s in range(2 * m - 1, u_order + 1)])
    if form == FORM_SUM:
        raise ValueError("f2 has no closed sum form")
    raise ValueError(f"unknown form {form!r} for f2 (use exp or product)")


def build_fbar(order: int) -> PowerSeries:
    """Full census generating function, exp(sum_{d,m} t^(dm) / N(d, m)), as
    the series of census.b_coefficient: the t^n coefficient is
    b_n = a_n / |GL_n|, a_n from the census recurrence over all blocks."""
    _check_orders(order)
    return PowerSeries(order, tuple(b_coefficient(j) for j in range(order + 1)), RATFUNC)
