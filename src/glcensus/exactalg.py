"""Exact arithmetic substrate: integer polynomials and reduced rational functions.

Everything downstream (census coefficients, generating-function expansions,
certified interval bounds) is built on top of three exact types:

  * rationals: ``fractions.Fraction`` from the standard library, used as-is
    (always reduced, denominator positive);
  * ``IntPolynomial``: a dense integer-coefficient polynomial in the formal
    symbol q, stored as a coefficient tuple indexed by degree, with no
    trailing zeros;
  * ``RationalFunction``: a quotient ``num/den`` of integer polynomials kept
    in a canonical form, so that equality is plain structural comparison.

Canonical form of a rational function: num and den are coprime over the
rationals, the pair carries no common integer content, and den has positive
leading coefficient.  Two arithmetic routes to the same value therefore
produce bit-identical objects.

Division runs in one loop, IntPolynomial.divmod, and IntPolynomial.exact_div
is the one check that a division leaves no remainder.  Polynomial gcds are
computed with the evaluation-homomorphism heuristic (reconstruct the gcd from
a single big-integer gcd), using an evaluation point large enough that a
successful exact_div certifies the result; a primitive-remainder-sequence
fallback covers the retry path.  No floating point is used anywhere in this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a root of its denominator."""


# ---------------------------------------------------------------------------
# integer polynomials


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial in q; ``coeffs[i]`` is the degree-i coefficient.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.  Instances are immutable and hashable.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            object.__setattr__(self, "coeffs", _trim(list(self.coeffs)))

    @staticmethod
    def from_coeffs(coeffs) -> IntPolynomial:
        return IntPolynomial(_trim([int(c) for c in coeffs]))

    @staticmethod
    def const(c: int) -> IntPolynomial:
        return IntPolynomial((int(c),) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(_trim(out))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def scale(self, c: int) -> IntPolynomial:
        if c == 0:
            return ZERO_POLY
        return IntPolynomial(tuple(c * x for x in self.coeffs))

    def __pow__(self, k: int) -> IntPolynomial:
        result = ONE_POLY
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def eval(self, x: Fraction | int) -> Fraction | int:
        """Horner's rule from the integer 0: an int at an int point, and a
        Fraction at a Fraction point unless the polynomial is zero."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # the same function under its former name, which the benchmark's
    # reference script, perfbench/make_reference.py, still calls
    eval_int = eval

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> IntPolynomial:
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial(tuple(x // c for x in self.coeffs))

    def shift_up(self, k: int) -> IntPolynomial:
        """Multiply by q**k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def divmod(self, other: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Quotient and remainder over the rationals, returned exactly.

        Raises ValueError unless both are representable with integer
        coefficients, which is the only case this package needs (exact
        divisions and pseudo-remainders).  Every quotient coefficient is an
        integer exactly when each step's division by the leading coefficient
        is, so the work stays in integers.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.coeffs[-1]
        quo = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - db - 1, -1, -1):
            c, r = divmod(rem[i + db], lb)
            if r:
                raise ValueError("division did not stay integral")
            if c:
                quo[i] = c
                for j, bc in enumerate(other.coeffs):
                    rem[i + j] -= c * bc
        return IntPolynomial(_trim(quo)), IntPolynomial(_trim(rem))

    def exact_div(self, other: IntPolynomial) -> IntPolynomial:
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise ValueError("not an exact polynomial division")
        return quo

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            parts.append(("-" if c < 0 else "+", body))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


ZERO_POLY = IntPolynomial(())
ONE_POLY = IntPolynomial((1,))


def _norm1(p: IntPolynomial) -> int:
    return sum(abs(c) for c in p.coeffs)


def _poly_gcd_prs(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive-remainder-sequence gcd, the slow certain fallback."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        # pseudo-remainder of a by b
        da, db = a.degree, b.degree
        if da < db:
            a, b = b, a
            continue
        rem = a.scale(b.leading ** (da - db + 1)).divmod(b)[1]
        a, b = b, rem.primitive()
    if a.leading < 0:
        a = -a
    return a


def _reconstruct(value: int, xi: int) -> IntPolynomial:
    """Balanced xi-adic digit expansion of an integer, read as a polynomial."""
    coeffs = []
    half = xi // 2
    while value:
        digit = value % xi
        if digit > half:
            digit -= xi
        coeffs.append(digit)
        value = (value - digit) // xi
    return IntPolynomial(_trim(coeffs))


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """gcd in Z[q] of the primitive parts, normalised to positive leading coeff.

    Strategy: strip any common power of q, then reconstruct the gcd from the
    integer gcd of both polynomials evaluated at a point xi chosen beyond the
    coefficient bound of any divisor (so a successful trial division proves
    maximality, not just common divisorship).  Falls back to the primitive
    remainder sequence if the heuristic keeps failing.
    """
    if a.is_zero:
        g = b.primitive()
        return -g if g.leading < 0 else g
    if b.is_zero:
        g = a.primitive()
        return -g if g.leading < 0 else g
    # common power of q
    za = next(i for i, c in enumerate(a.coeffs) if c)
    zb = next(i for i, c in enumerate(b.coeffs) if c)
    shift = min(za, zb)
    if za:
        a = IntPolynomial(a.coeffs[za:])
    if zb:
        b = IntPolynomial(b.coeffs[zb:])
    a, b = a.primitive(), b.primitive()
    if a.degree > b.degree:
        a, b = b, a
    if a.degree == 0:
        return ONE_POLY.shift_up(shift)
    # Any divisor of a has 1-norm at most 2^deg(a) * norm1(a) (Mignotte-type
    # bound); xi beyond twice that makes the division check a certificate.
    bound = (_norm1(a) + 1) << (a.degree + 2)
    xi = max(bound, 4)
    for _ in range(4):
        cand = _reconstruct(math.gcd(a.eval(xi), b.eval(xi)), xi).primitive()
        if not cand.is_zero:
            try:
                a.exact_div(cand)
                b.exact_div(cand)
            except ValueError:
                pass
            else:
                return (-cand if cand.leading < 0 else cand).shift_up(shift)
        xi = xi * 3 + 1
    return _poly_gcd_prs(a, b).shift_up(shift)


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Reduced quotient of integer polynomials in q.

    Invariants: den is nonzero with positive leading coefficient, num and den
    are coprime over the rationals, and gcd(content(num), content(den)) = 1.
    Construct through :func:`make_rf` (or the arithmetic operators), which
    enforce the canonical form.
    """

    num: IntPolynomial
    den: IntPolynomial

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE_POLY

    def __add__(self, other: RationalFunction) -> RationalFunction:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = poly_gcd(self.den, other.den)
        da = self.den.exact_div(g)
        db = other.den.exact_div(g)
        num = self.num * db + other.num * da
        return make_rf(num, da * other.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        if self.is_zero or other.is_zero:
            return RF_ZERO
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        num = self.num.exact_div(g1) * other.num.exact_div(g2)
        den = self.den.exact_div(g2) * other.den.exact_div(g1)
        return make_rf(num, den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RationalFunction(other.den, other.num)

    def eval(self, q0: Fraction | int) -> Fraction:
        d = self.den.eval(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return Fraction(self.num.eval(q0), d)

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def make_rf(num: IntPolynomial, den: IntPolynomial) -> RationalFunction:
    """Build a rational function, reducing to canonical form."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalFunction(ZERO_POLY, ONE_POLY)
    g = poly_gcd(num, den)
    if g != ONE_POLY:
        num = num.exact_div(g)
        den = den.exact_div(g)
    c = math.gcd(num.content(), den.content())
    if c > 1:
        num = IntPolynomial(tuple(x // c for x in num.coeffs))
        den = IntPolynomial(tuple(x // c for x in den.coeffs))
    if den.leading < 0:
        num, den = -num, -den
    return RationalFunction(num, den)


RF_ZERO = RationalFunction(ZERO_POLY, ONE_POLY)
RF_ONE = RationalFunction(ONE_POLY, ONE_POLY)


# ---------------------------------------------------------------------------
# JSON wire format: coefficient lists are decimal strings, ascending degree


def poly_to_json(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def poly_from_json(data) -> IntPolynomial:
    return IntPolynomial.from_coeffs(int(s) for s in data)


def rf_to_json(f: RationalFunction) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rf_from_json(data) -> RationalFunction:
    return make_rf(poly_from_json(data["num"]), poly_from_json(data["den"]))
