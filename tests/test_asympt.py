from fractions import Fraction

import pytest

from glcensus.asympt import (
    HOLDS,
    INCONCLUSIVE,
    DivergenceError,
    RatInterval,
    check_estimates,
    convergence_report,
    exp_interval,
    fraction_to_decimal,
    l_of_q,
)
from glcensus.census import b_coefficient


def test_l2_certified_bracket():
    iv = l_of_q(2, 30)
    assert iv.lo > Fraction("278.98")
    assert iv.hi < Fraction("395.0005")


def test_l3_cubic_bounds():
    iv = l_of_q(3, 30)
    x = Fraction(1, 3)
    assert iv.lo > 1 + 2 * x + 7 * x**2 + 19 * x**3
    assert iv.hi < 1 + 2 * x + 7 * x**2 + 114 * x**3


def test_interval_nesting():
    prev = l_of_q(3, 2)
    for terms in (4, 8, 16, 30):
        cur = l_of_q(3, terms)
        assert prev.lo <= cur.lo and cur.hi <= prev.hi
        assert cur.width <= prev.width
        prev = cur


def test_rational_q_allowed():
    iv = l_of_q(Fraction(5, 2), 20)
    assert iv.lo > 1


def test_divergence():
    with pytest.raises(DivergenceError):
        l_of_q(1, 10)
    with pytest.raises(DivergenceError):
        l_of_q(Fraction(1, 2), 10)


def test_check_estimates_verdicts():
    r2 = check_estimates(2)
    assert r2.verdicts == {"a": HOLDS, "b": HOLDS, "d": HOLDS}
    assert r2.all_hold
    for q in (3, 4, 5, 7, 8, 9):
        r = check_estimates(q)
        assert r.verdicts == {"a": HOLDS, "b": HOLDS, "c": HOLDS}, q


def test_check_estimates_can_be_inconclusive():
    # with a 2-term product the q=3 interval is still wide
    loose = check_estimates(3, terms=2)
    tight = check_estimates(3, terms=30)
    assert INCONCLUSIVE in loose.verdicts.values() or loose.all_hold is False
    assert tight.all_hold


def test_exp_interval_encloses():
    # e^4 = 54.598150033144236...
    iv = exp_interval(Fraction(4), 30)
    assert iv.lo < Fraction("54.5981500332")
    assert iv.hi > Fraction("54.5981500331")
    assert iv.width < Fraction(1, 10**6)


def test_convergence_gaps():
    for q in (2, 3):
        rep = convergence_report(q, 12)
        assert [n for n, _ in rep] == list(range(1, 13))
        hi_l = l_of_q(q, 30).hi
        for n, gap in rep:
            value = b_coefficient(n).eval(q) * Fraction(q) ** n
            assert value < hi_l, (q, n)
            assert gap.lo > 0, (q, n)
        uppers = [gap.hi for _, gap in rep]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))


def test_first_gap_value_q3():
    # 3 * b_1 = 3/2, so the first gap is l(3) - 3/2
    (n, gap), *_ = convergence_report(3, 1)
    assert n == 1
    assert b_coefficient(1).eval(3) * 3 == Fraction(3, 2)
    assert gap.lo > Fraction(9, 2)  # l(3) > 6 so the gap exceeds 4.5


def test_interval_invariant():
    with pytest.raises(ValueError):
        RatInterval(Fraction(2), Fraction(1))


def test_decimal_display_directions():
    x = Fraction(1, 3)
    assert fraction_to_decimal(x, 4) == "0.3333"
    assert fraction_to_decimal(x, 4, round_up=True) == "0.3334"
