"""The oracle tasks: the checks over enumerated groups and fields that both
the CLI's ``oracle`` command and the verify suite run.  Each returns what it
measured together with its own verdict."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from glcensus import oracle
from glcensus.census import a_polynomial
from glcensus.oracle import DEFAULT_BUDGET, Budget, BudgetError, Fq


def wall_bound_task(n: int, q: int, budget: Budget | None = None):
    """(the exact fraction of cyclic elements of GL_n(q), its two lower
    bounds by name, whether it meets the first and exceeds the second)."""
    group = oracle.gl_group(n, q, budget)
    c = Fraction(int(group._flags().sum()), group.order)
    qf = Fraction(q)
    bounds = {
        "estimate_minus_error": (1 - qf**-5) / (1 + qf**-3) - Fraction(1, q**n * (q - 1)),
        "expanded_lower": 1 - qf**-3 - qf**-5 + qf**-6 - qf**-n,
    }
    return c, bounds, c >= bounds["estimate_minus_error"] and c > bounds["expanded_lower"]


def centralizer_count_task(n: int, q: int, budget: Budget | None = None) -> tuple[int, int, bool]:
    """(distinct cyclic centralizers, a_n(q), whether the count equals a_n(q)
    for q > n and is strictly below it otherwise)."""
    count, _ = oracle.count_cyclic_centralizers(n, q, budget)
    value = a_polynomial(n).eval(q)
    return count, value, count == value if q > n else count < value


def regular_unipotent_task(n: int, q: int,
                           budget: Budget | None = None) -> tuple[int, int, int, int, bool]:
    """(centralizer order, expected, normalizer order, expected, whether both
    are as expected) for the regular unipotent of GL_n(q); for n = 1 the
    normalizer is all of GL_1(q)."""
    cset = oracle.centralizer(oracle.regular_unipotent(oracle.get_field(q), n), budget)
    expect = q**n - q ** (n - 1)
    norm = oracle.normalizer_of_set(cset, budget)
    expect_norm = (q - 1) ** 2 * q ** (2 * n - 3) if n > 1 else q - 1
    return cset.order, expect, norm, expect_norm, cset.order == expect and norm == expect_norm


def _block_identity_fails(field: Fq, polys: list[tuple[int, ...]], m: int) -> np.ndarray:
    """Whether the minimal polynomial of J_m(f) is not f^m, for each
    irreducible f of one degree d in ``polys``: one bool per f.

    With g = f(J): if g^m = 0 then the minimal polynomial of J divides f^m,
    so it is f^k for some k <= m, as f is irreducible; g^(m-1) != 0 then
    rules out every k < m.  Conversely, minimal polynomial f^m gives g^m = 0
    and, f^(m-1) being no multiple of it, g^(m-1) != 0.  So the identity
    holds exactly when g^m = 0 and g^(m-1) != 0.  g is formed in the lift as
    sum_i lift(f_i I) lift(J)^i, by Horner's rule."""
    d, p = len(polys[0]) - 1, field.p
    size = d * m * field.e
    fails = []
    for s in oracle._slices(len(polys), 8 * (d + 1) * size * size):  # the int64 scalars f_i I
        entries = np.array([oracle.jm_block(field, f, m).rows for f in polys[s]], dtype=np.int64)
        J = field.lift(entries)
        # the scalars f_i I, as entry arrays (B, d + 1, n, n)
        eye = np.eye(entries.shape[-1], dtype=np.int64)
        scalars = np.array(polys[s], dtype=np.int64)[:, :, None, None] * eye
        g = power = field.lift(scalars[:, d])  # f_d I = I = g^0, f being monic
        for i in range(d - 1, -1, -1):
            g = (g @ J + field.lift(scalars[:, i])) % p
        for _ in range(m - 1):
            power = power @ g % p
        fails.append(~power.any(axis=(1, 2)) | (power @ g % p).any(axis=(1, 2)))
    return np.concatenate(fails)


def jm_check_task(q: int, budget: Budget | None = None
                  ) -> tuple[int, list[tuple[tuple[int, ...], int]], bool]:
    """(cases, failing (f, m), whether none fails) of "J_m(f) has minimal
    polynomial f^m" over F_q, for every monic irreducible f of degree at
    most 3 and m <= 3, in order of degree, f and m.  The q + q^2 + q^3
    candidate f are charged to the element budget before F_q is built."""
    budget = budget if budget is not None else DEFAULT_BUDGET
    candidates = q + q**2 + q**3
    if candidates > budget.elements:
        raise BudgetError(f"jm-check over F_{q} exceeds the enumeration budget", candidates, budget.elements)
    F = oracle.get_field(q)
    cases, failures = 0, []
    for d in (1, 2, 3):
        polys = oracle.monic_irreducibles(F, d)
        fails = np.stack([_block_identity_fails(F, polys, m) for m in (1, 2, 3)], axis=1)
        cases += fails.size
        failures += [(f, m) for f, row in zip(polys, fails.tolist())
                     for m, fail in zip((1, 2, 3), row) if fail]
    return cases, failures, not failures


def remark_matrix_task(budget: Budget | None = None) -> tuple[int, int, int, bool]:
    """(centralizer order, expected order 16, cyclic members, whether the
    order is 16 and no member is cyclic) for the GL_4(2) witness."""
    expect = 16
    cset = oracle.centralizer(oracle.noncyclic_centralizer_witness(), budget)
    cyclic_members = int(oracle.gl_group(4, 2, budget)._flags()[list(cset.members)].sum())
    return cset.order, expect, cyclic_members, cset.order == expect and cyclic_members == 0
