"""Certified rational enclosures for the census growth constant.

The scaled census coefficients q^n b_n increase to the limit

    l(q) = prod_{k>=1} (1 - q^-k)^(-(k(k+1)/2 + 1)),

and every numeric claim made about l(q) is verified here with exact rational
interval arithmetic: the lower endpoint is a finite partial product, the
upper endpoint multiplies in a closed-form bound on the discarded tail.  No
floating point takes part in any verdict; decimals appear only in display
strings.

Tail bound: each neglected factor satisfies
    -log(1 - x^k) <= x^k / (1 - x^(K+1))        (k > K, x = 1/q),
so log(tail) <= S_K / (1 - x^(K+1)) with
    S_K = sum_{k>K} (C(k+1,2) + 1) x^k
        = x^(K+1) ((C(K+2,2) + 1)/(1-x) + (K+2) x/(1-x)^2 + x^2/(1-x)^3),
from C(K+2+j, 2) = C(K+2,2) + (K+2) j + C(j,2) summed over j >= 0.  Finally
exp(y) <= 1/(1-y) for 0 <= y < 1 keeps everything rational.

Lower endpoint: with q = a/b in lowest terms and e_k = k(k+1)/2 + 1, each
factor (1 - q^-k)^(-e_k) is (a^k / (a^k - b^k))^(e_k), so the partial product
over k <= K is the integer pair

    a^P / D,   P = sum_k k e_k,   D = prod_k (a^k - b^k)^(e_k),

with D formed by one square-and-multiply over the bits of all the e_k at
once: from the top bit down, D is squared and then multiplied by the small
product of the a^k - b^k whose e_k has that bit set.  The big operand is so
squared about log2(max e_k) times, never multiplied by another big operand.
The pair is already in lowest terms: gcd(a^k - b^k, a) = gcd(b^k, a) = 1,
hence gcd(a^P, D) = 1.  One unbalanced gcd(a, D) == 1 certifies that, in
place of the big-integer gcds that reducing a^P / D (or a loop of Fraction
divisions) would spend; a failure is a ConsistencyError.  Only
hi = lo / r, r = 1 - log bound, goes through Fraction arithmetic, against a
small operand.

Nonemptiness: lo <= hi is certified on the small factor r, not by
cross-multiplying the two big endpoints.  For lo >= 0 and 0 < r <= 1,
lo / r >= lo, so RatInterval.from_ratio(lo, r) checks only the sign of lo
and the range of r.  The plain RatInterval(lo, hi) constructor keeps the
full lo <= hi comparison for every other caller.

Size: both a^P and D are below a^P < 2^(P * a.bit_length()), so that
product bounds the bits of either endpoint integer.  P has the closed form
sum_k k e_k = (T^2 + T (2K + 1) / 3) / 2 + T, T = K (K + 1) / 2, so the bound
is known before any product is formed, and l_of_q refuses a request whose
bound passes MAX_ENDPOINT_BITS with EndpointSizeError: such a^P grows as
K^4 / 8 * log2(a), and at K = 1000, q = 2 would need about 10^11 bits.

scaled_coefficients gives the sequence itself, q^n b_n for n = 0..upto: the
one producer of those values for the monotonicity and convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from glcensus.census import ConsistencyError, b_coefficient

DEFAULT_TERMS = 30

# The ceiling on the predicted bits of l_of_q's endpoint integers, 2 MiB
# each.  The deepest request the package makes, l_of_q(3, 45), is predicted
# at 1 104 690 bits (the numerator 3^P has 875 447); l_of_q(3, 85), predicted
# at 13 574 670, is admitted and took 3 s on a 2-CPU x86-64 machine.
MAX_ENDPOINT_BITS = 2**24

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class DivergenceError(ValueError):
    """The defining product diverges (q <= 1) or the tail bound is unusable."""


class EndpointSizeError(ValueError):
    """The exact endpoints of l_of_q would pass MAX_ENDPOINT_BITS."""


@dataclass(frozen=True)
class RatInterval:
    """Exact rational interval [lo, hi] certified to contain a quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def from_ratio(cls, lo: Fraction, r: Fraction) -> RatInterval:
        """[lo, lo / r], certified nonempty by lo >= 0 and 0 < r <= 1 alone.

        Those give lo / r >= lo without comparing the two endpoints, which
        costs a product of both when they are big.  Any other lo or r is
        refused with ValueError, as RatInterval refuses an empty interval.
        """
        if lo < 0 or not 0 < r <= 1:
            raise ValueError("empty interval")
        out = object.__new__(cls)
        object.__setattr__(out, "lo", lo)
        object.__setattr__(out, "hi", lo / r)
        return out


def _exponent(k: int) -> int:
    return k * (k + 1) // 2 + 1


def _numerator_power(terms: int) -> int:
    """P = sum_{k <= terms} k e_k, in closed form: with T = sum k and
    sum k^3 = T^2, sum k^2 = T (2 terms + 1) / 3, it is
    (sum k^3 + sum k^2) / 2 + T, and k^3 + k^2 = k^2 (k + 1) is even."""
    t = terms * (terms + 1) // 2
    return (t * t + t * (2 * terms + 1) // 3) // 2 + t


def _power_fraction(base: int, power: int, den: int) -> Fraction:
    """base**power / den as a Fraction, certified in lowest terms by gcd(base, den) == 1.

    Since gcd(base, den) == 1 implies gcd(base**power, den) == 1, the pair is
    stored as it is, the way CPython 3.12's Fraction._from_coprime_ints does,
    with no gcd on the large operands.  A positive den is required too.
    """
    if den < 1 or math.gcd(base, den) != 1:
        raise ConsistencyError(f"{base}^{power} / den is not in lowest terms")
    out = super(Fraction, Fraction).__new__(Fraction)
    out._numerator = base**power
    out._denominator = den
    return out


def _power_product(bases: list[int], exponents: list[int]) -> int:
    """prod(x**e) over the pairs, by one square-and-multiply over all the exponent bits.

    From the top bit j down, out becomes out**2 times the product of the bases
    whose exponent has bit j set.  The exponents must be nonnegative.
    """
    out = 1
    for j in reversed(range(max(exponents, default=0).bit_length())):
        out *= out
        out *= math.prod(x for x, e in zip(bases, exponents) if e >> j & 1)
    return out


def l_of_q(q: Fraction | int, terms: int = DEFAULT_TERMS) -> RatInterval:
    """Certified interval for the limit of q^n b_n, from a K-term product.

    lo is the exact partial product over k <= terms, built as the coprime
    integer pair a^P / D described in the module docstring; hi multiplies in
    the rational tail bound.  Widths shrink monotonically as terms grows.
    Raises DivergenceError for q <= 1 or a tail bound >= 1, ValueError for
    terms < 1, EndpointSizeError, before any product, if the size bound
    P * a.bit_length() of a^P and D passes MAX_ENDPOINT_BITS, and
    ConsistencyError if a^P / D fails its lowest-terms check.
    """
    q = Fraction(q)
    if q <= 1:
        raise DivergenceError("the product diverges for q <= 1")
    if terms < 1:
        raise ValueError("need at least one product term")
    a, b = q.numerator, q.denominator
    power = _numerator_power(terms)
    bits = power * a.bit_length()
    if bits > MAX_ENDPOINT_BITS:
        raise EndpointSizeError(f"l(q) with {terms} terms needs endpoints of up to {bits} bits, "
                                f"over the limit of {MAX_ENDPOINT_BITS}")
    x = 1 / q
    y = 1 - x
    x_next = x ** (terms + 1)
    # S_K = sum_{k>K} (C(k+1,2) + 1) x^k, in closed form
    tail_sum = x_next * ((math.comb(terms + 2, 2) + 1) / y + (terms + 2) * x / y**2 + x**2 / y**3)
    log_bound = tail_sum / (1 - x_next)
    if log_bound >= 1:
        raise DivergenceError("tail bound too large; increase the number of terms")
    ks = range(1, terms + 1)
    den = _power_product([a**k - b**k for k in ks], [_exponent(k) for k in ks])
    partial = _power_fraction(a, power, den)
    return RatInterval.from_ratio(partial, 1 - log_bound)


def exp_interval(x: Fraction, terms: int = 30) -> RatInterval:
    """Certified enclosure of exp(x) for x >= 0 by Taylor partial sums."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("only nonnegative arguments are needed or supported")
    lo = Fraction(0)
    term = Fraction(1)
    for k in range(terms + 1):
        lo += term
        term = term * x / (k + 1)
    # remaining terms are term * (1 + x/(terms+2) + ...) <= geometric
    ratio = x / (terms + 2)
    if ratio >= 1:
        raise ValueError("increase terms: tail ratio not below 1")
    return RatInterval(lo, lo + term / (1 - ratio))


@dataclass(frozen=True)
class EstimateReport:
    """Verdicts for the four published estimates on l(q).

    Keys: 'a' (cubic lower bound), 'b' (closed exponential upper bound),
    'c' (cubic upper bound, q > 2 only), 'd' (the numeric bracket for q = 2).
    Each verdict is 'holds', 'fails' or 'inconclusive'.
    """

    q: Fraction
    terms: int
    interval: RatInterval
    verdicts: dict[str, str]

    @property
    def all_hold(self) -> bool:
        return all(v == HOLDS for v in self.verdicts.values())


def _compare_lower_claim(interval: RatInterval, bound: Fraction) -> str:
    # claim: quantity > bound
    if interval.lo > bound:
        return HOLDS
    if interval.hi <= bound:
        return FAILS
    return INCONCLUSIVE


def _compare_upper_claim(interval: RatInterval, bound: RatInterval) -> str:
    # claim: quantity < bound
    if interval.hi < bound.lo:
        return HOLDS
    if interval.lo >= bound.hi:
        return FAILS
    return INCONCLUSIVE


def check_estimates(q: Fraction | int, terms: int = DEFAULT_TERMS) -> EstimateReport:
    """Decide the published estimates on l(q) by exact interval comparison."""
    q = Fraction(q)
    if q < 2:
        raise ValueError("estimates are stated for q >= 2")
    x = 1 / q
    enclosure = l_of_q(q, terms)
    verdicts: dict[str, str] = {}

    lower_cubic = 1 + 2 * x + 7 * x**2 + 19 * x**3
    verdicts["a"] = _compare_lower_claim(enclosure, lower_cubic)

    prefactor = 1 / (1 - x - x**2)
    e1 = exp_interval(x / (1 - x) ** 3)
    e2 = exp_interval(x**2 * (1 + x) / (2 * (1 - x**2) ** 4))
    rhs = RatInterval(prefactor * e1.lo * e2.lo, prefactor * e1.hi * e2.hi)
    verdicts["b"] = _compare_upper_claim(enclosure, rhs)

    if q > 2:
        upper_cubic = 1 + 2 * x + 7 * x**2 + 114 * x**3
        verdicts["c"] = _compare_upper_claim(enclosure, RatInterval(upper_cubic, upper_cubic))
    if q == 2:
        low, high = Fraction("278.98"), Fraction("395.0005")
        lower_ok = _compare_lower_claim(enclosure, low)
        upper_ok = _compare_upper_claim(enclosure, RatInterval(high, high))
        if lower_ok == upper_ok == HOLDS:
            verdicts["d"] = HOLDS
        elif FAILS in (lower_ok, upper_ok):
            verdicts["d"] = FAILS
        else:
            verdicts["d"] = INCONCLUSIVE

    return EstimateReport(q=q, terms=terms, interval=enclosure, verdicts=verdicts)


def scaled_coefficients(q: int, upto: int) -> list[Fraction]:
    """q^n b_n(q) for n = 0..upto: exact rationals that increase strictly to
    l(q)."""
    if upto < 0:
        raise ValueError("need a nonnegative last index")
    return [b_coefficient(n).eval(q) * Fraction(q) ** n for n in range(upto + 1)]


def fraction_to_decimal(x: Fraction, digits: int = 12, round_up: bool = False) -> str:
    """Decimal display string; exact verdicts never depend on this."""
    scale = 10**digits
    scaled = x * scale
    num = scaled.numerator
    den = scaled.denominator
    q, r = divmod(num, den)
    if round_up and r:
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
