"""Exact/float coordinate arithmetic, torus reduction, exactly rounded summation,
the exact/long-double inner product, the one orbit-step kernel
(``step_turns``), product grids, and the row-block runner of the large
kernels.

Coordinates are either exact rationals (stored as ``fractions.Fraction`` in
lowest terms) or tagged irrationals (a float64 value plus an optional label
such as ``"sqrt2"``).  Known labels expand to extended-precision
(``np.longdouble``) constants so that long orbit sums keep more headroom than
float64 would allow.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Coordinate",
    "TorusPoint",
    "QuadratureSpec",
    "reduce_mod1",
    "SUM_BLOCK",
    "exact_sum",
    "mod1_dist",
    "split_inner_product",
    "inner_product_mod1_dist",
    "STEP_BLOCK",
    "step_turns",
    "product_grid",
    "fixed_order_matmul",
    "parse_coordinate",
    "coordinate_from_json",
    "coordinate_to_json",
]

# Extended-precision expansions for the labels the CLI accepts.  Strings are
# parsed by numpy at longdouble precision (64-bit mantissa on x86).
_LABEL_LONGDOUBLE: dict[str, np.longdouble] = {
    "sqrt2": np.sqrt(np.longdouble(2)),
    "sqrt3": np.sqrt(np.longdouble(3)),
    "sqrt5": np.sqrt(np.longdouble(5)),
    "pi": np.longdouble("3.14159265358979323846264338328"),
    "e": np.longdouble("2.71828182845904523536028747135"),
}


class Coordinate:
    """An exact rational or a tagged irrational real number.

    Rational coordinates support exact arithmetic (orbit periods, annihilator
    lattices); irrational ones carry a float plus an optional label.  Equality
    is *exact*: a rational never equals an irrational, even if their float
    values coincide.
    """

    __slots__ = ("_frac", "_value", "label")

    def __init__(self, _frac: Fraction | None, _value: float, label: str | None):
        self._frac = _frac
        self._value = _value
        self.label = label

    @classmethod
    def rational(cls, numerator: int, denominator: int = 1) -> "Coordinate":
        frac = Fraction(numerator, denominator)
        return cls(frac, float(frac), None)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "Coordinate":
        return cls(Fraction(frac), float(frac), None)

    @classmethod
    def irrational(cls, value: float, label: str | None = None) -> "Coordinate":
        if not math.isfinite(value):
            raise ValueError("irrational coordinate must carry a finite value")
        base = label.lstrip("-") if label else None
        if base in _LABEL_LONGDOUBLE:
            canon = float(_LABEL_LONGDOUBLE[base])
            if label.startswith("-"):
                canon = -canon
            if abs(value - canon) > 1e-6:
                raise ValueError(
                    f"value {value} does not match label {label!r} ({canon})"
                )
            value = canon
        return cls(None, float(value), label)

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("coordinate is not rational")
        return self._frac

    def float(self) -> float:
        return self._value

    def longdouble(self) -> np.longdouble:
        if self._frac is not None:
            return np.longdouble(self._frac.numerator) / np.longdouble(
                self._frac.denominator
            )
        base = self.label.lstrip("-") if self.label else None
        if base in _LABEL_LONGDOUBLE:
            ld = _LABEL_LONGDOUBLE[base]
            return -ld if self.label.startswith("-") else ld
        return np.longdouble(self._value)

    def __neg__(self) -> "Coordinate":
        if self._frac is not None:
            return Coordinate.from_fraction(-self._frac)
        if self.label is None:
            return Coordinate.irrational(-self._value, None)
        neg = self.label[1:] if self.label.startswith("-") else "-" + self.label
        return Coordinate(None, -self._value, neg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coordinate):
            return NotImplemented
        if self.is_rational != other.is_rational:
            return False
        if self.is_rational:
            return self._frac == other._frac
        return self._value == other._value and self.label == other.label

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(("rat", self._frac))
        return hash(("irr", self._value, self.label))

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Coordinate({self._frac})"
        tag = f", label={self.label!r}" if self.label else ""
        return f"Coordinate({self._value}{tag})"


def parse_coordinate(token: str) -> Coordinate:
    """Parse a command-line coordinate token.

    Grammar: an integer (``3``, ``-2``), a rational ``p/q``, a known label
    (``sqrt2``, ``sqrt3``, ``sqrt5``, ``pi``, ``e``, optionally ``-``-prefixed)
    or an explicitly irrational float ``irr:1.234``.  Bare floats are rejected
    so exactness is always declared.
    """
    token = token.strip()
    if not token:
        raise ValueError("empty coordinate token")
    base = token.lstrip("-")
    if base in _LABEL_LONGDOUBLE:
        value = float(_LABEL_LONGDOUBLE[base])
        if token.startswith("-"):
            return Coordinate.irrational(-value, token)
        return Coordinate.irrational(value, token)
    if token.startswith("irr:"):
        return Coordinate.irrational(float(token[4:]), None)
    if "/" in token:
        num, den = token.split("/", 1)
        return Coordinate.rational(int(num), int(den))
    try:
        return Coordinate.rational(int(token))
    except ValueError:
        raise ValueError(
            f"coordinate token {token!r} not understood: use an integer, p/q, "
            "a label (sqrt2, sqrt3, sqrt5, pi, e), or irr:FLOAT"
        ) from None


def coordinate_from_json(obj) -> Coordinate:
    """Decode a coordinate from the JSON configuration grammar:
    an integer, a string ``"p/q"``, or ``{"value": float, "label": str}``."""
    if isinstance(obj, bool):
        raise ValueError(f"invalid coordinate {obj!r}")
    if isinstance(obj, int):
        return Coordinate.rational(obj)
    if isinstance(obj, str):
        return parse_coordinate(obj)
    if isinstance(obj, dict) and "value" in obj:
        return Coordinate.irrational(float(obj["value"]), obj.get("label"))
    raise ValueError(f"invalid coordinate {obj!r}")


def coordinate_to_json(c: Coordinate):
    if c.is_rational:
        f = c.fraction
        if f.denominator == 1:
            return int(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    out = {"value": c.float()}
    if c.label is not None:
        out["label"] = c.label
    return out


@dataclass(frozen=True)
class TorusPoint:
    """A point of [0,1)^m stored as float64 coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        for c in self.coords:
            if not (0.0 <= c < 1.0):
                raise ValueError(f"torus coordinate {c} outside [0,1)")

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class QuadratureSpec:
    """The composite midpoint rule at ``points_per_axis`` nodes per axis.

    The Gram and residual quadratures and Haar Theta's directions of H
    outside Jensen's formula read only the point count.  ``scheme`` admits
    only "composite-midpoint", and nothing reads ``refine_near_singularity``;
    both stay for the callers that still pass them."""

    scheme: str = "composite-midpoint"
    points_per_axis: int = 256
    refine_near_singularity: bool = False

    def __post_init__(self):
        if self.scheme != "composite-midpoint":
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        _check_integer(self.points_per_axis, "points-per-axis must be an integer")
        if self.points_per_axis < 2:
            raise ValueError("points-per-axis must be at least 2")


def reduce_mod1(v: Sequence[float] | np.ndarray) -> TorusPoint:
    """Reduce a real vector into the fundamental domain [0,1)^m (floor-based,
    so negative inputs land in [0,1) too)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a flat coordinate vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coordinate in torus reduction")
    red = arr - np.floor(arr)
    # floats just below an integer can round up to exactly 1.0
    red[red >= 1.0] -= 1.0
    return TorusPoint(tuple(float(x) for x in red))


def mod1_dist(x: float) -> float:
    """Distance from x to the nearest integer."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def split_inner_product(a, b) -> tuple[Fraction, np.longdouble, bool]:
    """<a, b> over ints or Coordinates as (exact rational part, long-double
    irrational part, whether every product was rational).

    A product joins the exact part only when both factors are rational; one
    with an irrational factor goes to the long-double part.  Products with an
    exact zero factor are skipped, so they never make the result inexact.
    """
    rat = Fraction(0)
    irr = np.longdouble(0.0)
    exact = True
    for x, y in zip(a, b):
        x = x if isinstance(x, Coordinate) else Coordinate.rational(int(x))
        y = y if isinstance(y, Coordinate) else Coordinate.rational(int(y))
        if (x.is_rational and x.fraction == 0) or (y.is_rational and y.fraction == 0):
            continue
        if x.is_rational and y.is_rational:
            rat += x.fraction * y.fraction
        else:
            exact = False
            irr += x.longdouble() * y.longdouble()
    return rat, irr, exact


def inner_product_mod1_dist(a, b) -> float:
    """Distance from <a, b> to the nearest integer: exact when every product
    is rational, from the j = 1 turn of ``step_turns`` otherwise."""
    rat, _, exact = split_inner_product(a, b)
    if exact:
        frac = rat - math.floor(rat)
        return float(min(frac, 1 - frac))
    t = step_turns(a, b, [1])[0]
    return float(min(t, 1 - t))


def _check_integer(x, message: str = "n must be an integer") -> None:
    """Raise ValueError(message) unless x is a Python or numpy integer; a bool
    is not one."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(message)


STEP_BLOCK = 1024  # orbit steps j = q * STEP_BLOCK + r, with r < STEP_BLOCK
GRID_BUDGET_DEFAULT = 2**24  # most values a Zak, Gram or Haar grid may allocate


def step_turns(a, b, steps, start=0.0) -> np.ndarray:
    """(start + j <a, b>) mod 1 at the int64 steps j, in long double: the one
    orbit-step kernel outside the phase lift.

    The rational part num/den of <a, b> (``split_inner_product``) adds the
    exact residue (j num) mod den over den, in int64 while no product can
    overflow and in Python ints past that; the irrational part, reduced mod 1
    first, adds j times itself.  A part that is zero mod 1 adds nothing.
    With ``start`` reduced mod 1, a turn with no irrational part lies in
    [0, 2) and loses 1 once, with no long-double np.mod.  A float64 cast of a
    turn may round up to 1.0.
    """
    rat, irr, _ = split_inner_product(a, b)
    j = np.asarray(steps, dtype=np.int64)
    start = np.longdouble(start) % 1
    num, den = rat.numerator % rat.denominator, rat.denominator
    if num:
        if int(np.abs(j).max(initial=0)) * num < 1 << 63 and den < 1 << 63:
            res = j * num % den
        else:
            res = np.array([s * num % den for s in j.tolist()], dtype=object)
        turns = res.astype(np.longdouble)
        turns /= np.longdouble(den)
        turns += start
    else:
        turns = np.full(j.shape, start)
    if irr:
        turns += j * np.mod(irr, np.longdouble(1.0))
        return np.mod(turns, np.longdouble(1.0), out=turns)
    return np.subtract(turns, 1, out=turns, where=turns >= 1)


def product_grid(axis: np.ndarray, k: int) -> np.ndarray:
    """(n**k, k) array of every k-tuple of entries of the 1-D ``axis`` in ij
    order: the last coordinate varies fastest; k = 0 gives one empty row."""
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1) if k else np.zeros((1, 0))


_POOL = (0, None)  # (workers, ThreadPoolExecutor) of _map_blocks, made on first use
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """In a forked child, which has none of the pool's threads: a call
    handed to the inherited pool would wait for ever."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = (0, None), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask (``taskset`` narrows it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, n: int, block: int) -> list:
    """[fn(lo, hi) for each block [lo, hi) of range(n), ``block`` rows each],
    in block order.

    The blocks run on a thread pool with one worker per usable CPU; one
    block, or one CPU, runs inline and starts no thread.  The block bounds
    depend only on n and block, and each fn writes its own rows or returns
    its own part, so no bit of a result depends on the CPU count.  The
    threads gain only where fn is numpy work that releases the GIL; fn must
    not call _map_blocks itself.
    """
    global _POOL
    if n <= block:  # the phase layer's many small calls skip the set-up below
        return [fn(0, n)] if n else []
    los = range(0, n, block)
    his = [min(lo + block, n) for lo in los]
    workers = _usable_cpus()
    if workers < 2:
        return [fn(lo, hi) for lo, hi in zip(los, his)]
    with _POOL_LOCK:
        if _POOL[0] != workers:  # a replaced pool's idle threads exit once it is collected
            from concurrent.futures import ThreadPoolExecutor

            _POOL = (workers, ThreadPoolExecutor(workers))
        pool = _POOL[1]
    return list(pool.map(fn, los, his))


def fixed_order_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (n, k) and (k, p) arrays, summed over k in order: unlike a
    BLAS product, each entry's rounding depends on its own row and column."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(b.shape[0]):
        out += a[:, i, None] * b[i]
    return out


SUM_BLOCK = 1 << 16  # values per np.bincount pass of exact_sum, one _map_blocks block
# fsum of a list takes 0.0003 ms on one value, the bins about 0.04 ms at any
# short length; the two cross at 1,000-1,500 values (a finite H sums one-value rows)
SHORT_SUM = 1024
_EXP_BIAS = 1074  # np.frexp exponents of finite doubles lie in [-1073, 1024]


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a float array, bit for bit, with no Python loop.

    Fewer than SHORT_SUM values go to fsum itself.  Otherwise a finite value
    is m * 2**(e - 53) with an integer |m| < 2**53 (``np.frexp``).  Its
    halves hi = trunc(m / 2**26) and lo = m - hi * 2**26 (as lo / 2**26)
    are summed per exponent by ``np.bincount``, SUM_BLOCK values at a time
    (the blocks of ``_map_blocks``), so every partial is below 2**43 units and
    exact; the int64 bins, which add exactly in any order, form one Python
    int, rounded once (``float(int)`` and int / int round correctly).
    Non-finite values and overflow give what fsum gives, except that where
    fsum meets an intermediate overflow but the exact total is finite, the
    bins return that total.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < SHORT_SUM:
        return math.fsum(x.tolist())
    finite, special = np.isfinite(x), None
    if not finite.all():
        special, x = x[~finite], x[finite]
    bins = _EXP_BIAS + 1025

    def block_bins(lo: int, hi: int) -> np.ndarray:
        m, e = np.frexp(x[lo:hi])
        m *= 2.0**27  # hi + lo / 2**26
        top = np.trunc(m)
        m -= top
        e += _EXP_BIAS
        return np.stack([np.bincount(e, top, bins), np.bincount(e, m, bins) * 2.0**26]
                        ).astype(np.int64)

    acc = sum(_map_blocks(block_bins, x.size, SUM_BLOCK), np.zeros((2, bins), dtype=np.int64))
    used = np.flatnonzero(acc.any(axis=0)).tolist() or [0]
    total = sum(((int(acc[0, b]) << 26) + int(acc[1, b])) << (b - used[0]) for b in used)
    shift = used[0] - _EXP_BIAS - 53  # total counts units of 2**shift
    value = float(total << shift) if shift >= 0 else total / (1 << -shift)
    return value if special is None else math.fsum(special)  # fsum's nan/inf rule
