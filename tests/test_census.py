import math
import re
from fractions import Fraction

import pytest

from glcensus import census
from glcensus.census import (
    ConsistencyError,
    MuFunction,
    UnsupportedRegimeError,
    a_polynomial,
    b_coefficient,
    block_normalizer,
    class_sum,
    enumerate_phi,
    gl_order,
    normalizer_order,
    omega_closed,
    phi_count,
    stabilized_prefix,
)
from glcensus.exactalg import ONE_POLY, ZERO_POLY, IntPolynomial, make_rf

P = IntPolynomial.from_coeffs


def rf(num, den=(1,)):
    return make_rf(P(num), P(den))


# Independent oracle for |Phi_n|: the Euler product with divisor-count
# exponents, prod_k (1 - t^k)^(-tau(k)), expanded with plain integers.
def euler_transform_counts(n: int) -> list[int]:
    series = [1] + [0] * n
    for k in range(1, n + 1):
        tau = sum(1 for d in range(1, k + 1) if k % d == 0)
        factor = [0] * (n + 1)
        for j in range(0, n // k + 1):
            factor[j * k] = math.comb(j + tau - 1, j)
        out = [0] * (n + 1)
        for i, ca in enumerate(series):
            if ca:
                for j in range(n + 1 - i):
                    out[i + j] += ca * factor[j]
        series = out
    return series


def test_phi_1_single_class():
    (mu,) = enumerate_phi(1)
    assert mu == MuFunction((((1, 1), 1),))


def test_phi_2_three_classes_in_canonical_order():
    mus = enumerate_phi(2)
    assert [m.items for m in mus] == [
        ((((1, 1), 2)),),
        ((((1, 2), 1)),),
        ((((2, 1), 1)),),
    ]


# The label descent as first written, kept as the reference for the pruned
# one: every label is either taken (with each multiplicity that fits) or
# skipped, one recursion level per label.
def reference_enumerate_phi(n: int) -> list[MuFunction]:
    labels = [(d, m) for d in range(1, n + 1) for m in range(1, n // d + 1)]
    out = []

    def descend(idx, remaining, acc):
        if remaining == 0:
            out.append(MuFunction(tuple(acc)))
            return
        if idx == len(labels):
            return
        d, m = labels[idx]
        step = d * m
        for mult in range(1, remaining // step + 1):
            descend(idx + 1, remaining - mult * step, acc + [((d, m), mult)])
        descend(idx + 1, remaining, acc)

    descend(0, n, [])
    return out


def test_enumerate_phi_matches_the_reference_descent():
    for n in range(17):
        assert list(enumerate_phi(n)) == reference_enumerate_phi(n), f"n={n}"
    for n in range(21):
        assert len(enumerate_phi(n)) == phi_count(n), f"n={n}"


def test_mu_function_keys_strictly_ascending():
    twice = MuFunction((((1, 1), 2),))
    assert normalizer_order(twice) == P([2, -4, 2])
    for items in ((((1, 1), 1), ((1, 1), 1)),   # the same label written twice
                  (((1, 2), 1), ((1, 1), 1)),   # descending
                  (((0, 1), 1),)):
        with pytest.raises(ValueError):
            MuFunction(items)


def test_phi_counts_against_euler_transform():
    oracle = euler_transform_counts(12)
    assert [phi_count(n) for n in range(13)] == oracle
    assert [len(enumerate_phi(n)) for n in range(13)] == oracle
    assert phi_count(4) == 11
    assert phi_count(30) == 451402


def test_enumerate_phi_is_strictly_ascending():
    for n in range(13):
        mus = enumerate_phi(n)
        assert all(a < b for a, b in zip(mus, mus[1:])), f"n={n}"


def test_phi_weights_and_uniqueness():
    for n in range(9):
        mus = enumerate_phi(n)
        assert len(set(mus)) == len(mus)
        for mu in mus:
            assert sum(d * m * mult for (d, m), mult in mu.items) == n


def test_normalizer_order_single_blocks():
    assert normalizer_order(MuFunction((((1, 1), 1),))) == P([-1, 1])  # q - 1
    # (1 - 1/q)^2 q^3 = q(q-1)^2
    assert normalizer_order(MuFunction((((1, 2), 1),))) == P([0, 1, -2, 1])
    # two split-torus blocks: (q-1)^2 * 2!
    assert normalizer_order(MuFunction((((1, 1), 2),))) == P([2, -4, 2])
    # (2(q^2-1))^2 * 2! * (q-1)
    assert normalizer_order(MuFunction((((1, 1), 1), ((2, 1), 2)))) == \
        P([-1, 1]) * P([-2, 0, 2]) * P([-2, 0, 2]) * P([2])


def test_b2_three_term_sum():
    expected = (
        rf([1], [2, -4, 2])  # 1 / (2 (q-1)^2)
        + rf([1], [0, 1, -2, 1])  # 1 / ((1-q^-1)^2 q^3)
        + rf([1], [-2, 0, 2])  # 1 / (2 (1-q^-2) q^2)
    )
    assert b_coefficient(2) == expected
    # and it reduces against the group order to q^2+q+1
    assert b_coefficient(2) * rf(gl_order(2).coeffs) == rf([1, 1, 1])


def test_b_trivial_values():
    assert b_coefficient(0) == rf([1])
    assert b_coefficient(1) == rf([1], [-1, 1])
    with pytest.raises(ValueError):
        b_coefficient(-1)


def test_b_matches_naive_label_sum():
    # the recurrence-built b_n equals the grouped label sum, which must equal the
    # plain sum over labels
    for n in range(11):
        grouped = class_sum(n)
        assert b_coefficient(n) == grouped, f"n={n}"
        if n < 7:
            naive = rf([0])
            for mu in enumerate_phi(n):
                naive = naive + make_rf(ONE_POLY, normalizer_order(mu))
            assert grouped == naive, f"n={n}"


def _wrong_binomial(i, factor):
    """_times_binomial with q^i - 1 replaced by the polynomial `factor`."""
    real = census._times_binomial

    def times(coeffs, k):
        return list((P(coeffs) * P(factor)).coeffs) if k == i else real(coeffs, k)
    return times


# Each case feeds the recurrence one wrong input and names the check that
# must catch it.  The census cache is replaced by a fresh list for the test,
# so no a_j built from a wrong input outlives it: after the undo, a_4 is
# read from the real cache again.
@pytest.mark.parametrize("patch, start, message", [
    # q - 1 read as q + 1: the k = 1 term of 1 a_1 leaves a remainder 2
    pytest.param("_times_binomial", _wrong_binomial(1, [1, 1]),
                 "the (1,1) term of w_1,1: division by q^1 - 1 leaves a remainder",
                 id="binomial-remainder-d1"),
    # q^2 - 1 read as q^2 - q: the d = 1 divisions still go through, but
    # (q - 1) (q^2 - q) is not divisible by q^2 - 1
    pytest.param("_times_binomial", _wrong_binomial(2, [0, -1, 1]),
                 "the (2,1) term of w_2,2: division by q^2 - 1 leaves a remainder",
                 id="binomial-remainder-d2"),
    # a wrong a_1 = q: 2 a_2 = q^3 + 2q^2 + q + 2 is not divisible by 2
    pytest.param(None, [P([1]), P([0, 1])], "2 a_2 / 2", id="sum-not-divisible-by-j"),
    # a_0 = 2: every a_j doubles, so a_1 = 2 is not monic
    pytest.param(None, [P([2])], "n=1 has degree 0, leading 2", id="not-monic"),
    # a_0 = q: every a_j gains a factor q, so a_1 = q has degree 1, not 0
    pytest.param(None, [P([0, 1])], "n=1 has degree 1, leading 1", id="wrong-degree"),
])
def test_a_polynomial_checks_every_division_and_shape(monkeypatch, patch, start, message):
    if patch is None:
        monkeypatch.setattr(census, "_census", start)
    else:
        monkeypatch.setattr(census, "_census", [P([1])])
        monkeypatch.setattr(census, patch, start)
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        census.a_polynomial(4)
    monkeypatch.undo()
    assert a_polynomial(4) == P(TABLE1[4])


def reference_a_polynomials(n: int) -> list[IntPolynomial]:
    """a_0..a_n by the recurrence over whole IntPolynomials, the census's
    first route: w_{j,k} from the quotient |GL_j| / |GL_{j-k}| and the
    divisions by block_normalizer, each exact division checked."""
    a = [ONE_POLY]
    for j in range(1, n + 1):
        total = ZERO_POLY
        for k in range(1, j + 1):
            ratio = gl_order(j).exact_div(gl_order(j - k)).scale(k)
            weight = ZERO_POLY
            for d in range(1, k + 1):
                if k % d == 0:
                    weight = weight + ratio.exact_div(block_normalizer(d, k // d))
            total = total + weight * a[j - k]
        a.append(total.exact_div(IntPolynomial.const(j)))
    return a


def test_a_polynomial_matches_the_reference_recurrence():
    reference = reference_a_polynomials(20)
    for n in range(1, 21):
        assert a_polynomial(n) == reference[n], f"n={n}"


def fraction_node_value(n: int, q0: int) -> int:
    """a_n(q0) from the log/exp recurrence in rationals at one point q = q0.

    log F = sum_k L_k t^k with L_k = sum_{dm=k} 1/N(d, m); F' = (log F)' F
    gives j b_j = sum_{k=1..j} k L_k b_{j-k}, and a_n(q0) = b_n(q0) |GL_n(q0)|.
    """
    k_log = [Fraction(0)] * (n + 1)  # k * L_k(q0)
    for d in range(1, n + 1):
        for m in range(1, n // d + 1):
            k_log[d * m] += Fraction(d * m, block_normalizer(d, m).eval(q0))
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(sum(k_log[k] * b[j - k] for k in range(1, j + 1)) / j)
    value = b[n] * gl_order(n).eval(q0)
    assert value.denominator == 1
    return value.numerator


@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("q0", [2, 3, 7])
def test_a_polynomial_matches_the_rational_recurrence(n, q0):
    assert a_polynomial(n).eval(q0) == fraction_node_value(n, q0)


def test_gl_order():
    assert gl_order(0) == P([1])
    assert gl_order(1) == P([-1, 1])
    assert gl_order(2) == P([0, 1, -1, -1, 1])  # q^4-q^3-q^2+q
    assert gl_order(3).eval(3) == 26 * 24 * 18 == 11232
    assert gl_order(2).eval(2) == 6
    assert gl_order(4).eval(2) == 20160


# Census polynomials for n = 1..6, frozen from the published table.
TABLE1 = {
    1: [1],
    2: [1, 1, 1],
    3: [-1, -1, 1, 3, 3, 1, 1],
    4: [0, 1, 1, -1, -2, -3, 2, 5, 9, 7, 4, 1, 1],
    5: [0, 0, 0, -1, -1, 1, 2, 1, -2, -6, -7, -4, 6, 15, 22, 22, 18, 9, 4, 1, 1],
    6: [0, 0, 0, 0, 0, 0, 1, 1, -1, -1, 0, 5, 6, 6, 1, -7, -16, -19, -8, 5,
        33, 53, 68, 65, 60, 40, 23, 10, 4, 1, 1],
}


def test_a_polynomial_table1():
    for n, coeffs in TABLE1.items():
        assert a_polynomial(n) == P(coeffs), f"n={n}"


def test_a_polynomial_shape():
    for n in (*range(1, 11), 16, 20):
        poly = a_polynomial(n)
        assert poly.degree == n * n - n
        assert poly.leading == 1


def test_omega_closed_values():
    assert omega_closed(2, 3) == 13
    assert omega_closed(2, 4) == 21
    assert omega_closed(2, 5) == 31
    assert omega_closed(3, 4) == 6091  # Table-1 n=3 polynomial at q=4
    assert omega_closed(3, 3) == 1301 - 11232 // 48 == 1067
    assert omega_closed(4, 4) == a_polynomial(4).eval(4) - (
        gl_order(4).eval(4) // (3**4 * math.factorial(4))
    )


def test_omega_closed_rejected_regimes():
    for n, q in [(3, 2), (2, 2), (4, 3), (5, 2)]:
        with pytest.raises(UnsupportedRegimeError):
            omega_closed(n, q)
    with pytest.raises(ValueError):
        omega_closed(2, 6)  # not a prime power


def test_monotonicity_qn_bn():
    for q in (2, 3, 4, 5):
        values = [b_coefficient(n).eval(q) * Fraction(q) ** n for n in range(14)]
        for n in range(13):
            assert values[n] < values[n + 1], (q, n)


def test_stabilized_prefix():
    assert stabilized_prefix(2) == [1]
    assert stabilized_prefix(6) == [1, 1, 4]
    assert stabilized_prefix(8) == [1, 1, 4, 10]
    for n in (*range(2, 11), 16):
        poly = a_polynomial(n)
        top = list(reversed(poly.coeffs))[: n // 2]
        assert top == stabilized_prefix(n), f"n={n}"


def test_census_row():
    # one census row is the class count, b_n and a_n = b_n |GL_n|
    assert phi_count(3) == 5
    assert a_polynomial(3) == P([-1, -1, 1, 3, 3, 1, 1])
    assert b_coefficient(3) == make_rf(a_polynomial(3), gl_order(3))
