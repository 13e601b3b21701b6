import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcensus import exactalg
from glcensus.census import gl_order
from glcensus.exactalg import (
    ONE_POLY,
    ZERO_POLY,
    PoleError,
    IntPolynomial,
    _poly_gcd_prs,
    make_rf,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    rf_from_json,
    rf_to_json,
)

P = IntPolynomial.from_coeffs


def rf(num, den=(1,)):
    return make_rf(P(num), P(den))


def test_add_common_denominator_identity():
    # 1/(q-1) + 1/(q+1) = 2q/(q^2-1)
    lhs = rf([1], [-1, 1]) + rf([1], [1, 1])
    assert lhs == rf([0, 2], [-1, 0, 1])


def test_mul_factorisation_identity():
    # (q^2+q+1)(q-1) = q^3-1
    assert rf([1, 1, 1]) * rf([-1, 1]) == rf([-1, 0, 0, 1])


def test_eval_quadratic_at_3_and_5():
    f = rf([1, 1, 1])
    assert f.eval(3) == 13
    assert f.eval(5) == 31


def test_poly_eval_keeps_the_type_of_its_point():
    p = P([1, -2, 3])
    assert p.eval(2) == 9 and type(p.eval(2)) is int
    assert p.eval(Fraction(1, 2)) == Fraction(3, 4) and type(p.eval(Fraction(1, 2))) is Fraction
    assert rf([1, 1, 1]).eval(3) == Fraction(13) and type(rf([1]).eval(3)) is Fraction


def test_eval_at_pole():
    f = rf([1], [-1, 1])
    with pytest.raises(PoleError):
        f.eval(1)


def phi_product(d: int):
    """(1 - q^-1)(1 - q^-2)...(1 - q^-d), multiplied out one factor at a time."""
    out = rf([1])
    for i in range(1, d + 1):
        out = out * (rf([1]) - rf([1], [0] * i + [1]))
    return out


def phi_closed(d: int):
    """The same product as prod_{i<=d} (q^i - 1) / q^(d(d+1)/2)."""
    num = ONE_POLY
    for i in range(1, d + 1):
        num = num * P([-1] + [0] * (i - 1) + [1])
    return make_rf(num, ONE_POLY.shift_up(d * (d + 1) // 2))


def test_phi_d_small():
    assert phi_product(0) == phi_closed(0) == rf([1])
    assert phi_product(1) == phi_closed(1) == rf([-1, 1], [0, 1])
    # (q-1)(q^2-1)/q^3
    expected = rf([-1, 1], [0, 1]) * rf([-1, 0, 1], [0, 0, 1])
    assert phi_product(2) == phi_closed(2) == expected


def test_phi_recurrence():
    for d in range(1, 8):
        step = rf([1]) - rf([1], [0] * d + [1])
        assert phi_closed(d) == phi_closed(d - 1) * step == phi_product(d)


def test_gl_order_two_routes():
    # q^(n(n-1)/2) * prod(q^i - 1) == q^(n^2) * phi_n(1/q) == |GL_n(q)|
    for n in range(7):
        prod = rf([1])
        for i in range(1, n + 1):
            prod = prod * rf([-1] + [0] * (i - 1) + [1])
        lhs = rf([0] * (n * (n - 1) // 2) + [1]) * prod
        rhs = rf([0] * (n * n) + [1]) * phi_product(n)
        assert lhs == rhs == make_rf(gl_order(n), ONE_POLY)


def test_json_roundtrip():
    f = rf([0, 2], [-1, 0, 1])
    data = rf_to_json(f)
    assert data == {"num": ["0", "2"], "den": ["-1", "0", "1"]}
    assert rf_from_json(data) == f
    p = P([3, 0, -5])
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_gcd_basic():
    a = P([-1, 0, 0, 1])  # q^3-1
    b = P([-1, 1])  # q-1
    assert poly_gcd(a, b) == b
    c = P([1, 1, 1])  # q^2+q+1, coprime to q-1
    assert poly_gcd(c * a, b * a) == a
    assert poly_gcd(P([2, 2]), P([4])) == ONE_POLY


small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, min_size=0, max_size=6).map(P)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_canonical_form_unique(a, b, c, d):
    # (a/b) + (c/d) built in one shot equals the same value assembled the
    # long way round; canonical form makes this structural equality.
    x = make_rf(a, b)
    y = make_rf(c, d)
    direct = make_rf(a * d + c * b, b * d)
    assert x + y == direct
    assert (x + y) - y == x


@settings(max_examples=60, deadline=None)
@given(
    polys,
    nonzero_polys,
    polys,
    nonzero_polys,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_eval_commutes_with_arith(a, b, c, d, q0):
    x = make_rf(a, b)
    y = make_rf(c, d)
    for op in (operator.add, operator.sub, operator.mul):
        try:
            lhs = op(x, y).eval(q0)
            vx = x.eval(q0)
            vy = y.eval(q0)
        except PoleError:
            continue
        assert lhs == op(vx, vy)


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_poly_gcd_divides_and_is_maximal(a, b, g):
    h = poly_gcd(a * g, b * g)
    # exact_div raises ValueError unless the division leaves no remainder
    h.exact_div(g.primitive())
    (a * g).exact_div(h)
    (b * g).exact_div(h)


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_prs_gcd_equals_the_heuristic_gcd(a, b, g):
    assert _poly_gcd_prs(a * g, b * g) == poly_gcd(a * g, b * g)


def test_poly_gcd_falls_back_to_prs_when_every_heuristic_try_fails(monkeypatch):
    cases = [
        (P([-1, 0, 0, 1]), P([-1, 1])),  # q^3 - 1, q - 1
        (P([1, 1, 1]) * P([-1, 0, 0, 1]), P([-1, 1]) * P([-1, 0, 0, 1])),
        (P([0, 1, 2, 1]), P([0, 0, 3, 5, 2])),  # q (q+1)^2, q^2 (q+1)(2q+3)
        (P([2, 0, -2]), P([3, 6, 3])),  # coprime up to the factor q + 1
    ]
    expected = [poly_gcd(a, b) for a, b in cases]
    prs = exactalg._poly_gcd_prs
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(exactalg, "_reconstruct", lambda value, xi: ZERO_POLY)
    monkeypatch.setattr(exactalg, "_poly_gcd_prs", spy)
    assert [poly_gcd(a, b) for a, b in cases] == expected
    assert len(calls) == len(cases)
    assert expected[0] == P([-1, 1]) and expected[3] == P([1, 1])


def fraction_divmod(a: IntPolynomial, b: IntPolynomial):
    """The former rational long division, kept as the reference for divmod."""
    rem = [Fraction(c) for c in a.coeffs]
    db, lb = b.degree, b.coeffs[-1]
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] / lb
        if c:
            quo[i] = c
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
    for c in quo + rem:
        if c.denominator != 1:
            raise ValueError("division did not stay integral")
    return P([int(c) for c in quo]), P([int(c) for c in rem])


@st.composite
def division_cases(draw):
    """(dividend, divisor): exact multiples, multiples plus a remainder, and
    arbitrary pairs, whose quotient is often not integral."""
    b = draw(nonzero_polys)
    kind = draw(st.sampled_from(["exact", "remainder", "arbitrary"]))
    if kind == "arbitrary":
        return draw(polys), b
    a = draw(polys) * b
    if kind == "remainder":
        a = a + P(draw(st.lists(small_ints, max_size=max(b.degree, 0))))
    return a, b


@settings(max_examples=200, deadline=None)
@given(division_cases())
def test_divmod_matches_fraction_reference(case):
    a, b = case
    try:
        expected = fraction_divmod(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            a.divmod(b)
    else:
        assert a.divmod(b) == expected


def test_divmod_raises_on_non_integral_quotient():
    with pytest.raises(ValueError):
        P([1, 0, 1]).divmod(P([1, 2]))  # (q^2+1)/(2q+1) needs halves
    assert P([1, 0, 2]).divmod(P([0, 2])) == (P([0, 1]), P([1]))
