"""Exact univariate polynomials over Q, used for Hilbert polynomials and
the face weight polynomials of the stability machinery."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .frozen import Frozen


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Drop trailing zeros from a fresh list of Fractions (RatPoly.of is the
    one place that converts entries)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RatPoly(Frozen):
    """Polynomial in t with rational coefficients, low degree first."""

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @staticmethod
    def of(coeffs: Sequence) -> "RatPoly":
        return RatPoly(_trim([Fraction(c) for c in coeffs]))

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self.coeff(i) + other.coeff(i) for i in range(n)]))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self.coeff(i) - other.coeff(i) for i in range(n)]))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if not self.coeffs or not other.coeffs:
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(_trim(out))

    def scale(self, c) -> "RatPoly":
        f = Fraction(c)
        return RatPoly(_trim([f * x for x in self.coeffs]))

    def __call__(self, t) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(t) + c
        return acc
