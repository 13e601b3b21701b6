from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcensus.census import b_coefficient, gl_order
from glcensus.exactalg import ONE_POLY, IntPolynomial, PoleError, make_rf, rf_from_fraction
from glcensus.qseries import (
    FORM_EXP,
    FORM_PRODUCT,
    FORM_SUM,
    RATFUNC,
    PowerSeries,
    RingMismatchError,
    UCoeff,
    USeriesRing,
    build_f1,
    build_f2,
    build_fbar,
    ps_exp,
    ps_from_dict,
    ps_mul,
    rf_to_useries,
)

P = IntPolynomial.from_coeffs


def rf(num, den=(1,)):
    return make_rf(P(num), P(den))


def ps_one(order):
    return ps_from_dict(order, {0: rf([1])})


def ps_add(a, b):
    assert (a.ring, b.ring, a.order) == (RATFUNC, RATFUNC, b.order)
    return PowerSeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), RATFUNC)


def const_series(order, values):
    return ps_from_dict(order, {k: rf_from_fraction(Fraction(v)) for k, v in values.items()})


def test_ps_mul_basic():
    one_plus_t = const_series(2, {0: 1, 1: 1})
    one_minus_t = const_series(2, {0: 1, 1: -1})
    assert ps_mul(one_plus_t, one_minus_t).coeffs == const_series(2, {0: 1, 2: -1}).coeffs


def test_ps_mul_identity():
    a = const_series(3, {0: 2, 1: 3, 3: -1})
    assert ps_mul(a, ps_one(3)).coeffs == a.coeffs


def test_ps_mul_mismatch():
    with pytest.raises(RingMismatchError):
        ps_mul(ps_one(2), ps_one(3))
    product = build_f1(2, FORM_PRODUCT, 5)
    with pytest.raises(RingMismatchError):
        ps_mul(ps_one(2), product)
    with pytest.raises(RingMismatchError):
        ps_mul(product, product)
    with pytest.raises(RingMismatchError):
        ps_exp(build_f2(2, FORM_PRODUCT, 5))


def test_ps_exp_zero_and_t():
    assert ps_exp(const_series(3, {})).coeffs == ps_one(3).coeffs
    e = ps_exp(const_series(3, {1: 1}))
    assert [c for c in e.coeffs] == [
        rf([1]),
        rf([1]),
        rf_from_fraction(Fraction(1, 2)),
        rf_from_fraction(Fraction(1, 6)),
    ]


def test_ps_exp_of_log_geometric():
    # -log(1-t) = sum t^k/k; its exponential is the geometric series
    order = 4
    log_series = ps_from_dict(order, {k: rf_from_fraction(Fraction(1, k)) for k in range(1, order + 1)})
    assert ps_exp(log_series).coeffs == tuple(rf([1]) for _ in range(order + 1))


def test_ps_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        ps_exp(ps_one(3))


def test_f1_coefficients():
    f1 = build_f1(4, FORM_SUM)
    assert f1[0] == rf([1])
    assert f1[1] == rf([1], [-1, 1])  # 1/(q-1)


def test_f1_exp_equals_sum():
    assert build_f1(12, FORM_EXP).coeffs == build_f1(12, FORM_SUM).coeffs


def test_f1_product_matches_exp_in_u_ring():
    exp_form = build_f1(10, FORM_EXP)
    prod_form = build_f1(10, FORM_PRODUCT, u_order=40)
    for n in range(11):
        assert rf_to_useries(exp_form[n], 40) == prod_form[n], f"t^{n}"


def test_f1_product_requires_u_ring():
    assert isinstance(build_f1(4, FORM_PRODUCT).ring, USeriesRing)


@cache
def partitions_into_exactly(n, k):
    if n == k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    # drop a part of size 1, or take 1 from each of the k parts
    return partitions_into_exactly(n - 1, k - 1) + partitions_into_exactly(n - k, k)


def test_f1_product_counts_partitions_into_exactly_k_parts():
    prod_form = build_f1(12, FORM_PRODUCT, 40)
    for k in range(13):
        coeffs = prod_form[k].coeffs
        assert all(type(c) is int for c in coeffs)
        assert list(coeffs) == [partitions_into_exactly(n, k) for n in range(41)], f"t^{k}"


def test_f2_low_coefficients():
    f2 = build_f2(6, FORM_EXP)
    assert f2[0] == rf([1])
    assert f2[1] == rf([0])
    # single contribution d=1, m=2: 1/((1-1/q)^2 q^3) = 1/(q(q-1)^2)
    assert f2[2] == rf([1], [0, 1, -2, 1])


def test_f2_product_matches_exp_in_u_ring():
    exp_form = build_f2(10, FORM_EXP)
    prod_form = build_f2(10, FORM_PRODUCT, u_order=40)
    for n in range(11):
        assert rf_to_useries(exp_form[n], 40) == prod_form[n], f"t^{n}"


def test_f2_has_no_sum_form():
    with pytest.raises(ValueError):
        build_f2(4, FORM_SUM)


def test_fbar_t1_matches_class_sum():
    # product coefficient at t^1 equals the single weight-1 label value
    assert build_fbar(3)[1] == b_coefficient(1) == rf([1], [-1, 1])


def test_fbar_against_published_polynomials():
    fbar = build_fbar(3)
    assert fbar[0] == rf([1])
    assert fbar[2] * make_rf(gl_order(2), ONE_POLY) == rf([1, 1, 1])
    assert fbar[3] * make_rf(gl_order(3), ONE_POLY) == rf([-1, -1, 1, 3, 3, 1, 1])


def test_fbar_matches_label_sums_to_12():
    fbar = build_fbar(12)
    for n in range(13):
        assert fbar[n] == b_coefficient(n), f"t^{n}"


def test_fbar_times_group_order_is_monic_polynomial():
    fbar = build_fbar(12)
    for n in range(1, 13):
        product = fbar[n] * make_rf(gl_order(n), ONE_POLY)
        assert product.is_polynomial, f"n={n}"
        poly = product.num
        assert poly.degree == n * n - n and poly.leading == 1


def test_rf_to_useries_geometric():
    u = rf_to_useries(rf([1], [-1, 1]), 6)  # 1/(q-1) = u + u^2 + ...
    assert u.coeffs == (Fraction(0),) + (Fraction(1),) * 6
    # 1/((1-1/q) q) = 1/(q-1) again
    assert rf_to_useries(rf([1], [-1, 1]), 6) == u


def test_rf_to_useries_pole():
    with pytest.raises(PoleError):
        rf_to_useries(rf([1, 1, 1]), 10)


def test_ucoeff_order_mismatch():
    assert UCoeff(3, (0, 1, 2, 3)).coeffs == (0, 1, 2, 3)
    for coeffs in [(0,) * 3, (0,) * 5]:
        with pytest.raises(ValueError):
            UCoeff(3, coeffs)


small_rfs = st.builds(
    lambda a, b, c: make_rf(P([a, b]), P([c, 1])),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_rfs, min_size=1, max_size=3), st.lists(small_rfs, min_size=1, max_size=3))
def test_exp_is_additive(acoeffs, bcoeffs):
    order = 4
    a = ps_from_dict(order, dict(enumerate(acoeffs, start=1)))
    b = ps_from_dict(order, dict(enumerate(bcoeffs, start=1)))
    assert ps_exp(ps_add(a, b)).coeffs == ps_mul(ps_exp(a), ps_exp(b)).coeffs


def power_sum_exp(a: PowerSeries) -> PowerSeries:
    """The former ps_exp, sum_k a^k / k!, kept as the reference for the recurrence."""
    result = ps_one(a.order)
    term = ps_one(a.order)
    for k in range(1, a.order + 1):
        term = ps_mul(term, a)
        inv_k = rf_from_fraction(Fraction(1, k))
        term = PowerSeries(a.order, tuple(c * inv_k for c in term.coeffs), RATFUNC)
        result = ps_add(result, term)
    return result


@st.composite
def exp_arguments(draw):
    """A series with zero constant term, with gaps."""
    order = draw(st.integers(0, 5))
    entries = {k: draw(small_rfs) for k in range(1, order + 1) if draw(st.booleans())}
    return ps_from_dict(order, entries)


@settings(max_examples=40, deadline=None)
@given(exp_arguments())
def test_ps_exp_matches_power_sum_reference(a):
    assert ps_exp(a).coeffs == power_sum_exp(a).coeffs


def per_block_product(order: int, multiplicities: range) -> PowerSeries:
    """The former exp forms: one power-sum exp per block (d, m), multiplied,
    with the block weights 1/N(d, m) written out here independently."""
    result = ps_one(order)
    for m in multiplicities:
        for d in range(1, order // m + 1):
            qd_minus_1 = P([-1] + [0] * (d - 1) + [1])
            if m == 1:
                weight = make_rf(P([1]), qd_minus_1.scale(d))
            else:
                weight = make_rf(P([1]), (qd_minus_1 * qd_minus_1).scale(d).shift_up(d * (2 * m - 3)))
            result = ps_mul(result, power_sum_exp(ps_from_dict(order, {d * m: weight})))
    return result


@pytest.mark.parametrize("order", range(9))
def test_exp_forms_match_per_block_product(order):
    assert build_f1(order, FORM_EXP).coeffs == per_block_product(order, range(1, 2)).coeffs
    assert build_f2(order, FORM_EXP).coeffs == per_block_product(order, range(2, order + 1)).coeffs
