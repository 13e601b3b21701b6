"""Exact census of the abelian covers of GL_n(q) and its group-level verification."""

from glcensus.exactalg import IntPolynomial, RationalFunction

__all__ = ["IntPolynomial", "RationalFunction"]
