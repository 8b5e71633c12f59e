"""Exact/float coordinate arithmetic, torus reduction, exactly rounded summation,
the split inner product, the one orbit-step kernel (``StepKernel``), product
grids, and the row-block runner of the large kernels.

Coordinates are exact rationals (``fractions.Fraction``) or tagged irrationals
(a float64 plus an optional label such as ``"sqrt2"``); each has an exact value,
for a label a Fraction within 2^-128 of it.  A quantity mod 1 is a turn, a
uint64 count of 2^-64: wrap-around is reduction mod 1, exact on every platform,
and a float appears only where a turn is read out (``turns_to_float``).
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
    "StepKernel",
    "step_turns",
    "turns_to_float",
    "product_grid",
    "fixed_order_matmul",
    "parse_coordinate",
    "coordinate_from_json",
    "coordinate_to_json",
]

# The labels the CLI accepts, as Fractions within 2^-128 of their values:
# floor(sqrt(k) 2^128) / 2^128, and 50-digit decimals for pi and e.
_LABEL_VALUE: dict[str, Fraction] = {
    **{f"sqrt{k}": Fraction(math.isqrt(k << 256), 1 << 128) for k in (2, 3, 5)},
    "pi": Fraction("3.14159265358979323846264338327950288419716939937510"),
    "e": Fraction("2.71828182845904523536028747135266249775724709369995"),
}
_LABEL_VALUE.update({"-" + k: -v for k, v in _LABEL_VALUE.items()})


class Coordinate:
    """An exact rational or a tagged irrational real number.

    Rational coordinates support exact arithmetic (orbit periods, annihilator
    lattices); irrational ones carry a float plus an optional label.  Equality
    is *exact*: a rational never equals an irrational, even if their float
    values coincide.
    """

    __slots__ = ("_frac", "_value", "label", "_exact")

    def __init__(self, _frac: Fraction | None, _value: float, label: str | None):
        self._frac = _frac
        self._value = _value
        self.label = label
        self._exact = _frac  # an irrational's is made on first use

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
        if label and label.lstrip("-") in _LABEL_VALUE:  # "--sqrt2" matches no value
            canon = float(_LABEL_VALUE.get(label, math.nan))
            if not abs(value - canon) <= 1e-6:
                raise ValueError(f"value {value} does not match label {label!r} ({canon})")
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

    @property
    def exact(self) -> Fraction:
        """The exact value: the fraction, a label's value to within 2^-128,
        or the float's own dyadic value."""
        if self._exact is None:
            self._exact = _LABEL_VALUE.get(self.label) or Fraction(self._value)
        return self._exact

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
    if token in _LABEL_VALUE:
        return Coordinate.irrational(float(_LABEL_VALUE[token]), token)
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


def _json_list(obj, what: str) -> list:
    """A JSON array entry of an input file; ValueError naming it otherwise."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list, got {obj!r}")
    return obj


def _json_number(obj, what: str):
    """A JSON number entry (a bool is not one); ValueError naming it otherwise."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValueError(f"{what} must be a number, got {obj!r}")
    return obj


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
    both stay because the benchmark tasks (``bench/tasks.py``: the Gram
    certificates and the Haar Theta tasks) pass all three fields by
    position."""

    scheme: str = "composite-midpoint"
    points_per_axis: int = 256
    refine_near_singularity: bool = False

    def __post_init__(self):
        if self.scheme != "composite-midpoint":
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        _check_integer(self.points_per_axis, "points-per-axis must be an integer",
                       2, "points-per-axis must be at least 2")


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


_ONE = 1 << 64  # a turn counts units of 2^-64


def _real_turn(x) -> tuple[int, int]:
    """A float or Fraction x as (n, t), x = n + t 2^-64 to the nearest turn t."""
    return divmod(round(x * _ONE), _ONE)


def split_inner_product(a, b) -> tuple[Fraction, int, bool]:
    """<a, b> over ints or Coordinates as (exact rational part, turn of the
    irrational part, whether every product was rational).

    A product joins the rational part only when both factors are rational;
    one with an irrational factor joins the irrational part, summed exactly
    (``Coordinate.exact``) and rounded once.  Products with an exact zero
    factor are skipped, so they never make the result inexact.
    """
    rat = irr = 0
    exact = True
    for x, y in zip(a, b):
        (x, x_rat), (y, y_rat) = ((v.exact, v.is_rational) if isinstance(v, Coordinate)
                                  else (int(v), True) for v in (x, y))
        if (x_rat and x == 0) or (y_rat and y == 0):  # not an irrational 0.0
            continue
        if x_rat and y_rat:
            rat += x * y
        else:
            exact = False
            irr += x * y
    return Fraction(rat), _real_turn(irr)[1], exact


def _unit_turn(rat: Fraction, irr: int) -> int:
    """The step-1 turn of num/den + irr: floor((num mod den) 2^64 / den) + irr."""
    return ((rat.numerator % rat.denominator << 64) // rat.denominator + irr) % _ONE


def inner_product_mod1_dist(a, b) -> float:
    """Distance from <a, b> to the nearest integer: exact when every product
    is rational, from the j = 1 turn of ``step_turns`` otherwise."""
    rat, irr, exact = split_inner_product(a, b)
    if exact:
        frac = rat - math.floor(rat)
        return float(min(frac, 1 - frac))
    t = _unit_turn(rat, irr)
    return float(turns_to_float(np.uint64(min(t, _ONE - t))))


def _check_integer(x, message: str = "n must be an integer", least=None, small="") -> None:
    """Raise ValueError(message) unless x is a Python or numpy integer (a bool
    is not one), and ValueError(small) if it is below ``least``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(message)
    if least is not None and x < least:
        raise ValueError(small)


STEP_BLOCK = 1024  # orbit steps j = q * STEP_BLOCK + r, with r < STEP_BLOCK
GRID_BUDGET_DEFAULT = 2**24  # most values a Zak, Gram or Haar grid may allocate


class StepKernel:
    """The one orbit-step kernel: uint64 turns (start + j <a, b>) mod 1 at
    int64 steps j (cast to uint64, right mod 2^64), for fixed columns (a, b,
    start).  With C the irrational part's turn and num/den the rational part
    (``split_inner_product``), j C + floor((j num mod den) 2^64 / den) is j
    times the step-1 turn (``_unit_turn``) plus floor(j rho / den), rho =
    num 2^64 mod den: int64 while no product overflows, Python ints past
    that.  The rational part is exact, the irrational one within j 2^-65."""

    def __init__(self, columns):
        parts = []
        for a, b, s in columns:
            rat, irr, _ = split_inner_product(a, b)
            rho = (rat.numerator << 64) % rat.denominator
            parts.append((_real_turn(s)[1], _unit_turn(rat, irr), rho, rat.denominator))
        start, whole, rho, den = zip(*parts)
        self._start, self._whole = np.array([start, whole], dtype=np.uint64)
        self._rho, self._den, self._rho_max = *np.array([rho, den], dtype=object), max(rho)
        self._small = np.array([rho, den], dtype=np.int64) if max(den) < 1 << 63 else None

    def __call__(self, steps) -> np.ndarray:
        """(k, c) turns at steps of shape (k,) (all columns) or (k, c)."""
        j = np.asarray(steps, dtype=np.int64)
        j = j[:, None] if j.ndim == 1 else j
        turns = np.multiply(j, self._whole, dtype=np.uint64, casting="unsafe")
        turns += self._start
        if self._rho_max:
            big = (int(np.abs(j).max(initial=0)) + 1) * self._rho_max >= 1 << 63
            if self._small is not None and not big:
                carry = j * self._small[0] // self._small[1]
            else:
                carry = (j.astype(object) * self._rho // self._den).astype(np.int64)
            np.add(turns, carry, out=turns, dtype=np.uint64, casting="unsafe")
        return turns


def step_turns(a, b, steps, start=0.0) -> np.ndarray:
    """One ``StepKernel`` column's turns at 1-D steps."""
    return StepKernel([(a, b, start)])(steps)[:, 0]


def _float_turns(x) -> np.ndarray:
    """Floats in [0, 1) as uint64 turns, rounded to nearest."""
    return np.rint(np.multiply(x, 2.0**64)).astype(np.uint64)


def turns_to_float(turns) -> np.ndarray:
    """uint64 turns as float64 in [0, 1), rounded to nearest but for a turn
    within 2^-54 of 1, which reads as the float below 1: n + a turn read out
    stays below n + 1."""
    return np.minimum(np.multiply(turns, 2.0**-64), 1.0 - 2.0**-53)


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
