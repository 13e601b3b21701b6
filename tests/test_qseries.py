import re
from fractions import Fraction
from functools import cache

import pytest

from glcensus import census, qseries, verify
from glcensus.census import ConsistencyError, b_coefficient, gl_order
from glcensus.exactalg import ONE_POLY, IntPolynomial, PoleError, make_rf
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
    ps_from_dict,
    ps_mul,
    rf_to_useries,
)

P = IntPolynomial.from_coeffs


def rf(num, den=(1,)):
    return make_rf(P(num), P(den))


def rf_const(x):
    """The rational x as a constant rational function."""
    x = Fraction(x)
    return rf([x.numerator], [x.denominator])


def ps_one(order):
    return ps_from_dict(order, {0: rf([1])})


def ps_add(a, b):
    assert (a.ring, b.ring, a.order) == (RATFUNC, RATFUNC, b.order)
    return PowerSeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), RATFUNC)


def const_series(order, values):
    return ps_from_dict(order, {k: rf_const(v) for k, v in values.items()})


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


def test_f1_coefficients():
    f1 = build_f1(4, FORM_SUM)
    assert f1[0] == rf([1])
    assert f1[1] == rf([1], [-1, 1])  # 1/(q-1)


def test_f1_sum_form_matches_the_binomial_product():
    # t^d coefficient q^(d(d-1)/2) / prod_{i=1..d} (q^i - 1), the product built term by term
    f1 = build_f1(20, FORM_SUM)
    for d in range(21):
        den = ONE_POLY
        for i in range(1, d + 1):
            den = den * IntPolynomial((-1,) + (0,) * (i - 1) + (1,))
        assert f1[d] == make_rf(ONE_POLY.shift_up(d * (d - 1) // 2), den), f"d={d}"


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


def power_sum_exp(a: PowerSeries) -> PowerSeries:
    """exp(a) as the power sum sum_k a^k / k!, the reference for the exp forms."""
    result = ps_one(a.order)
    term = ps_one(a.order)
    for k in range(1, a.order + 1):
        term = ps_mul(term, a)
        inv_k = rf_const(Fraction(1, k))
        term = PowerSeries(a.order, tuple(c * inv_k for c in term.coeffs), RATFUNC)
        result = ps_add(result, term)
    return result


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
    assert build_fbar(order).coeffs == per_block_product(order, range(1, order + 1)).coeffs


def test_f2_exp_form_checks_its_divisions(monkeypatch):
    # q - 1 read as q + 1: (q + 1)(q^2 - 1) / (q - 1) = (q + 1)^2, and the
    # second division of the (1,2) block leaves the remainder 4
    real = census._times_binomial

    def times(coeffs, i):
        return list((P(coeffs) * P([1, 1])).coeffs) if i == 1 else real(coeffs, i)
    monkeypatch.setattr(census, "_times_binomial", times)
    message = "the (1,2) term of w_2,2: division by q^1 - 1 leaves a remainder"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        build_f2(4, FORM_EXP)


def test_fbar_check_multiplies_the_factors(monkeypatch):
    assert verify.check_fbar_vs_class_sum()[0] == verify.PASS
    real = qseries.build_f2

    def wrong_last_coefficient(order, form):
        f2 = real(order, form)
        return PowerSeries(order, f2.coeffs[:-1] + (rf([1]),), RATFUNC)
    monkeypatch.setattr(qseries, "build_f2", wrong_last_coefficient)
    assert verify.check_fbar_vs_class_sum() == (verify.FAIL, "t^12")
