"""Schwartz-class window functions with pointwise evaluation and decay metadata.

Three kinds ship built in:

* ``GaussianWindow(d)`` — the unit-norm Gaussian 2^{d/4} e^{-pi |t|^2};
* ``HermiteWindow(n)`` — one-dimensional Hermite functions
  (2^{1/4}/sqrt(2^n n!)) H_n(sqrt(2 pi) t) e^{-pi t^2}, unit L2 norm,
  parity (-1)^n, order 0 identical to the Gaussian;
* ``SampledGridWindow`` — values on a uniform 1-D grid, cubic interpolation
  inside the support, hard zero outside.

A ``DecayBound`` certifies |f(t)| <= C (1+|t|)^{-M} on a verification grid and
drives the truncation-radius choice for lattice sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupport
from .numerics import product_grid

__all__ = [
    "Window",
    "GaussianWindow",
    "HermiteWindow",
    "SampledGridWindow",
    "DecayBound",
    "l2_norm",
    "decay_bound",
    "decay_bounds",
    "sampled_window_from_csv",
]


def _squared_norm(pts: np.ndarray) -> np.ndarray:
    """|t|^2 over the last axis, summed column by column in order: bit for
    bit np.sum(pts * pts, axis=-1) without the (..., d) array of squares."""
    r2 = pts[..., 0] * pts[..., 0]
    for j in range(1, pts.shape[-1]):
        r2 += pts[..., j] * pts[..., j]
    return r2


@dataclass(frozen=True)
class DecayBound:
    constant: float
    order: int


class Window:
    """Base class; concrete windows implement ``eval_many`` on (n, d) arrays."""

    dimension: int = 1
    effective_radius: float = 6.0

    def eval_many(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class GaussianWindow(Window):
    """2^{d/4} e^{-pi |t|^2}, unit L2 norm."""

    def __init__(self, dimension: int = 1):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        # |f| < 1e-49 beyond radius 6, far below every tolerance used here
        self.effective_radius = 6.0

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"window dimension {self.dimension}, got points of dimension {pts.shape[-1]}"
            )
        r2 = _squared_norm(pts)
        amp = 2.0 ** (self.dimension / 4.0)
        return amp * np.exp(-math.pi * r2)


class HermiteWindow(Window):
    """Hermite function of given order (dimension 1), unit L2 norm."""

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = int(order)
        self.dimension = 1
        self.effective_radius = 6.0 + 0.15 * self.order
        self._coeffs = np.zeros(self.order + 1)
        self._coeffs[self.order] = 1.0
        self._amp = 2.0 ** 0.25 / math.sqrt(2.0 ** self.order * math.factorial(self.order))

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim > 1:
            if pts.shape[-1] != 1:
                raise ValueError("Hermite windows are one-dimensional")
            pts = pts[..., 0]
        x = math.sqrt(2.0 * math.pi) * pts
        herm = np.polynomial.hermite.hermval(x, self._coeffs)
        return self._amp * herm * np.exp(-math.pi * pts * pts)


class SampledGridWindow(Window):
    """Window given by samples on the uniform grid -radius + k*step.

    Cubic interpolation between samples, exactly zero outside the support.
    Values may be complex.
    """

    def __init__(self, values, step: float, radius: float):
        vals = np.asarray(values)
        if vals.ndim != 1 or len(vals) < 4:
            raise ValueError("need a flat array of at least 4 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        if step <= 0 or radius <= 0:
            raise ValueError("step and radius must be positive")
        self.dimension = 1
        self.values = vals
        self.step = float(step)
        self.radius = float(radius)
        self._x = -self.radius + self.step * np.arange(len(vals))
        self.effective_radius = float(self._x[-1])
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(self._x, vals, extrapolate=False)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim > 1:
            if pts.shape[-1] != 1:
                raise ValueError("sampled windows are one-dimensional")
            pts = pts[..., 0]
        out = self._spline(pts)
        return np.where(np.isnan(out), 0.0, out)


def l2_norm(w: Window, grid_step: float = 1.0 / 64, radius: float | None = None) -> float:
    """Riemann-sum L2 norm over [-radius, radius]^d."""
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    if radius is None:
        radius = w.effective_radius
    ax = np.arange(-radius, radius + grid_step / 2, grid_step)
    pts = product_grid(ax, w.dimension)
    vals = w.eval_many(pts)
    s = float(np.sum(np.abs(vals) ** 2, dtype=np.longdouble) * grid_step ** w.dimension)
    return math.sqrt(s)


def decay_bound(w: Window, order: int, grid_step: float = 1.0 / 64) -> DecayBound:
    """Smallest C on a verification grid with |f(t)| (1+|t|)^order <= C."""
    return decay_bounds(w, (order,), grid_step)[0]


def decay_bounds(w: Window, orders, grid_step: float = 1.0 / 64) -> list[DecayBound]:
    """``decay_bound`` for every order from one evaluation of the window on
    the verification grid."""
    if any(order < 0 for order in orders):
        raise ValueError("order must be >= 0")
    if isinstance(w, SampledGridWindow):
        if w.radius < 2.0:
            raise InsufficientSupport(
                f"support radius {w.radius} too small to assess decay"
            )
        radius = w.radius
    else:
        radius = w.effective_radius + 2.0
    ax = np.arange(-radius, radius + grid_step / 2, grid_step)
    pts = product_grid(ax, w.dimension)
    vals = np.abs(w.eval_many(pts))
    base = 1.0 + np.sqrt(_squared_norm(pts))
    return [
        DecayBound(constant=float(np.max(vals * base**order)), order=int(order))
        for order in orders
    ]


def sampled_window_from_csv(path: str) -> SampledGridWindow:
    """Load a sampled window from CSV rows (t, value); a header row is allowed."""
    ts: list[float] = []
    vs: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                t = float(row[0])
            except ValueError:
                continue  # header
            if len(row) < 2:
                raise ValueError("each CSV row needs columns t,value")
            ts.append(t)
            vs.append(float(row[1]))
    if len(ts) < 4:
        raise ValueError("need at least 4 samples")
    order = np.argsort(ts)
    t_arr = np.asarray(ts)[order]
    v_arr = np.asarray(vs)[order]
    steps = np.diff(t_arr)
    step = float(steps[0])
    if np.max(np.abs(steps - step)) > 1e-9:
        raise ValueError("sample grid must be uniform")
    if t_arr[0] > 0:
        raise ValueError("sample grid must start at -radius <= 0")
    return SampledGridWindow(v_arr, step=step, radius=float(-t_arr[0]))
