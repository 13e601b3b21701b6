import math
import random
import time
from fractions import Fraction

import pytest

from glcensus.asympt import (
    HOLDS,
    INCONCLUSIVE,
    MAX_ENDPOINT_BITS,
    DivergenceError,
    EndpointSizeError,
    RatInterval,
    _exponent,
    _numerator_power,
    _power_fraction,
    _power_product,
    check_estimates,
    exp_interval,
    fraction_to_decimal,
    l_of_q,
    scaled_coefficients,
)
from glcensus.census import ConsistencyError, b_coefficient


# Reference for l_of_q: the partial product as a loop of Fraction divisions,
# each one reduced by big-integer gcds.  l_of_q builds the same lo as one
# coprime integer pair; both must give the same reduced endpoints and raise
# the same errors.
def fraction_loop_l_of_q(q, terms):
    q = Fraction(q)
    if q <= 1:
        raise DivergenceError("the product diverges for q <= 1")
    if terms < 1:
        raise ValueError("need at least one product term")
    x = 1 / q
    partial = Fraction(1)
    partial_quadratic = Fraction(0)
    xk = Fraction(1)
    for k in range(1, terms + 1):
        xk *= x
        partial /= (1 - xk) ** (k * (k + 1) // 2 + 1)
        partial_quadratic += math.comb(k + 1, 2) * xk
    tail_sum = (x / (1 - x) ** 3 - partial_quadratic) + xk * x / (1 - x)
    log_bound = tail_sum / (1 - xk * x)
    if log_bound >= 1:
        raise DivergenceError("tail bound too large; increase the number of terms")
    return RatInterval(partial, partial / (1 - log_bound))


def _outcome(fn, q, terms):
    try:
        iv = fn(q, terms)
    except ValueError as err:  # DivergenceError is a ValueError
        return type(err), str(err)
    return [(end.numerator, end.denominator) for end in (iv.lo, iv.hi)]


GRID_Q = (2, 3, 4, 5, 7, 8, 9, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3),
          Fraction(11, 10), Fraction(101, 100))


# terms = 45 costs the reference loop 0.6 s at q = 2 and up to 7 s at q = 9,
# so the deepest row runs at q = 2 only.
@pytest.mark.parametrize("q, terms", [(q, t) for q in GRID_Q for t in (1, 2, 3, 5, 12, 30)]
                         + [(2, 45)], ids=str)
def test_l_of_q_endpoints_equal_the_fraction_loop(q, terms):
    assert _outcome(l_of_q, q, terms) == _outcome(fraction_loop_l_of_q, q, terms)


@pytest.mark.parametrize("q, terms", [
    (1, 10), (Fraction(1, 2), 10), (0, 10), (-3, 10),  # q <= 1
    (2, 0), (3, -1),  # terms < 1
    (2, 1), (Fraction(3, 2), 12), (Fraction(101, 100), 5),  # tail bound >= 1
    (1, 0),  # q is checked before terms
], ids=str)
def test_l_of_q_raises_what_the_fraction_loop_raises(q, terms):
    expected = _outcome(fraction_loop_l_of_q, q, terms)
    assert isinstance(expected, tuple)
    assert _outcome(l_of_q, q, terms) == expected


def endpoint_bits(q, terms):
    """l_of_q's bound on the bits of a^P and D: P * a.bit_length()."""
    return _numerator_power(terms) * Fraction(q).numerator.bit_length()


@pytest.mark.parametrize("q", [2, 3, 4, 7, Fraction(3, 2), Fraction(101, 100)], ids=str)
def test_endpoint_bits_bound_both_endpoint_integers(q):
    # the closed form of P, and a bound at most twice the bits it bounds
    a = Fraction(q).numerator
    for terms in range(1, 13):
        power = _numerator_power(terms)
        assert power == sum(k * _exponent(k) for k in range(1, terms + 1))
        bits = (a**power).bit_length()
        assert bits <= endpoint_bits(q, terms) <= 2 * bits
        try:
            lo = l_of_q(q, terms).lo
        except DivergenceError:  # the tail bound is unusable at so few terms
            continue
        assert max(lo.numerator.bit_length(), lo.denominator.bit_length()) <= endpoint_bits(q, terms)


def test_l_of_q_admits_every_request_the_package_makes():
    # l_of_q(3, 45) is the deepest: perfbench's series-limits workload
    assert endpoint_bits(3, 45) == 1_104_690 <= MAX_ENDPOINT_BITS
    assert endpoint_bits(Fraction(101, 100), 30) <= MAX_ENDPOINT_BITS
    assert endpoint_bits(7, 30) <= MAX_ENDPOINT_BITS


@pytest.mark.parametrize("q, terms", [(2, 1000), (3, 10**9), (Fraction(101, 100), 200)], ids=str)
def test_l_of_q_refuses_oversized_endpoints_before_any_product(q, terms):
    start = time.perf_counter()
    with pytest.raises(EndpointSizeError, match=str(endpoint_bits(q, terms))):
        l_of_q(q, terms)
    assert time.perf_counter() - start < 0.1
    assert issubclass(EndpointSizeError, ValueError)


def test_power_fraction_equals_the_reduced_fraction():
    rng = random.Random(9)
    for _ in range(300):
        num = rng.randrange(-10**30, 10**30)
        den = rng.randrange(1, 10**30)
        if math.gcd(num, den) != 1:
            continue
        power = rng.randrange(1, 4)
        got, want = _power_fraction(num, power, den), Fraction(num**power, den)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)
        other = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        assert (got < other) == (want < other) and (other < got) == (other < want)
    assert _power_fraction(7, 0, 5) == Fraction(1, 5)


@pytest.mark.parametrize("base, power, den", [(6, 1, 4), (2, 5, 6), (3, 2, 0), (3, 1, -2)])
def test_power_fraction_rejects_a_pair_not_in_lowest_terms(base, power, den):
    with pytest.raises(ConsistencyError):
        _power_fraction(base, power, den)


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
        assert cur.hi - cur.lo <= prev.hi - prev.lo
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
    assert iv.hi - iv.lo < Fraction(1, 10**6)


def test_first_gap_value_q3():
    # 3 * b_1 = 3/2, so the first gap is l(3) - 3/2
    values = scaled_coefficients(3, 1)
    assert values == [1, Fraction(3, 2)]
    assert b_coefficient(1).eval(3) * 3 == Fraction(3, 2)
    assert l_of_q(3, 30).lo - values[1] > Fraction(9, 2)  # l(3) > 6 so the gap exceeds 4.5


def test_scaled_coefficients_start_at_one_and_refuse_a_negative_index():
    assert scaled_coefficients(2, 0) == [1]
    with pytest.raises(ValueError):
        scaled_coefficients(2, -1)


def test_interval_invariant():
    with pytest.raises(ValueError):
        RatInterval(Fraction(2), Fraction(1))


@pytest.mark.parametrize("lo, r", [
    (Fraction(3), Fraction(0)), (Fraction(3), Fraction(-1, 2)),  # r <= 0
    (Fraction(3), Fraction(3, 2)), (Fraction(0), Fraction(2)),  # r > 1
    (Fraction(-1), Fraction(1, 2)), (Fraction(-1, 7), Fraction(1)),  # lo < 0
], ids=str)
def test_from_ratio_refuses_what_it_cannot_certify(lo, r):
    with pytest.raises(ValueError, match="empty interval"):
        RatInterval.from_ratio(lo, r)


def test_from_ratio_at_r_one_is_a_point():
    for lo in (Fraction(0), Fraction(5, 3)):
        iv = RatInterval.from_ratio(lo, Fraction(1))
        assert iv == RatInterval(lo, lo)


def test_from_ratio_equals_the_checked_constructor():
    rng = random.Random(13)
    for _ in range(300):
        lo = Fraction(rng.randrange(0, 10**40), rng.randrange(1, 10**40))
        r = Fraction(rng.randrange(1, 10**6), 10**6) if rng.random() < 0.9 else Fraction(1)
        got, want = RatInterval.from_ratio(lo, r), RatInterval(lo, lo / r)
        assert got == want and hash(got) == hash(want)


def test_power_product_equals_the_product_of_powers():
    rng = random.Random(15)
    for _ in range(200):
        size = rng.randrange(1, 12)
        bases = [rng.randrange(-10**12, 10**12) for _ in range(size)]
        exponents = [rng.choice((0, 0, 1, 2, rng.randrange(0, 300))) for _ in range(size)]
        assert _power_product(bases, exponents) == math.prod(x**e for x, e in zip(bases, exponents))
    assert _power_product([7], [13]) == 7**13
    assert _power_product([7], [0]) == 1
    assert _power_product([5, 3], [0, 0]) == 1
    assert _power_product([], []) == 1


def test_decimal_display_directions():
    x = Fraction(1, 3)
    assert fraction_to_decimal(x, 4) == "0.3333"
    assert fraction_to_decimal(x, 4, round_up=True) == "0.3334"
