"""Exact reference for orbit steps: (start + j <a, b>) mod 1 in Fraction
arithmetic when every product is rational, in 50-digit mpmath otherwise.

The labels stand for their true values here, not for the Fractions within
2^-128 of them that ``gaborzak.numerics`` holds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

DIGITS = 50


def _mp_value(mpmath, c):
    if c.is_rational:
        return mpmath.mpf(c.fraction.numerator) / c.fraction.denominator
    if c.label is None:
        return mpmath.mpf(c.float())
    base = c.label.lstrip("-")
    value = {"sqrt2": mpmath.sqrt(2), "sqrt3": mpmath.sqrt(3), "sqrt5": mpmath.sqrt(5),
             "pi": mpmath.pi, "e": mpmath.e}[base]
    return -value if c.label.startswith("-") else +value


def exact_turn(start: float, a, b, j: int):
    """(start + j <a, b>) mod 1 for integers a and Coordinates b: a Fraction,
    or an mpf of DIGITS digits when some product with a_i != 0 is irrational."""
    pairs = [(int(x), c) for x, c in zip(a, b) if x]
    if all(c.is_rational for _, c in pairs):
        v = Fraction(start) + j * sum((x * c.fraction for x, c in pairs), Fraction(0))
        return v - math.floor(v)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        v = mpmath.mpf(start) + j * mpmath.fsum(x * _mp_value(mpmath, c) for x, c in pairs)
        return v - mpmath.floor(v)


def exact_point(z0, gamma, j: int) -> list:
    """The exact turns of z0 + j gamma mod 1, one per coordinate."""
    return [exact_turn(z, (1,), (c,), j) for z, c in zip(z0.coords, gamma.coords)]


def turn_gap(got, want) -> float:
    """Distance mod 1 from ``got``, a float or a uint64 turn (units of
    2^-64) read exactly, to the exact turn ``want``."""
    if isinstance(got, np.unsignedinteger):
        got = Fraction(int(got), 2**64)
    else:
        got = Fraction(float(got))
    if isinstance(want, Fraction):
        d = got - want
        return float(abs(d - round(d)))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        d = mpmath.mpf(got.numerator) / got.denominator - want
        return float(abs(d - mpmath.nint(d)))
