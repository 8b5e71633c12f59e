"""Schwartz-class window functions with pointwise evaluation and decay metadata.

Three kinds ship built in:

* ``GaussianWindow(d)`` — the unit-norm Gaussian 2^{d/4} e^{-pi |t|^2};
* ``HermiteWindow(n)`` — one-dimensional Hermite functions
  (2^{1/4}/sqrt(2^n n!)) H_n(sqrt(2 pi) t) e^{-pi t^2}, unit L2 norm,
  parity (-1)^n, order 0 identical to the Gaussian;
* ``SampledGridWindow`` — values on a uniform 1-D grid, their not-a-knot
  cubic spline inside the support, hard zero outside.

Each window bounds its own decay: ``decay_constant(M)`` is a C with
|f(t)| <= C (1+|t|)^{-M} for every t, a true upper bound and not a sampled
maximum.  The Gaussian's comes in closed form from its peak, the Hermite
function's from its value and first two derivatives on a grid of step 1/64
plus a Taylor remainder, and the sampled window's from the exact maximum of
each cubic piece on parts of width at most 1/1024.  A ``DecayBound``
carries one such constant and drives the truncation-radius choice for
lattice sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InsufficientSupport
from .numerics import _check_integer, exact_sum, product_grid

__all__ = [
    "Window",
    "GaussianWindow",
    "HermiteWindow",
    "SampledGridWindow",
    "DecayBound",
    "l2_norm",
    "decay_bound",
    "sampled_window_from_csv",
]


def _squared_norm(pts: np.ndarray) -> np.ndarray:
    """|t|^2 over the last axis, summed column by column in order: bit for
    bit np.sum(pts * pts, axis=-1) without the (..., d) array of squares."""
    r2 = pts[..., 0] * pts[..., 0]
    for j in range(1, pts.shape[-1]):
        r2 += pts[..., j] * pts[..., j]
    return r2


_SLACK = 2.0**-40  # relative allowance per term, far above libm and float rounding
_PART_WIDTH = 1.0 / 1024  # widest part of a cubic cell for a sampled window's decay constant


def _round_up(x: float, ulps: int = 4) -> float:
    """x moved ``ulps`` floating-point steps towards +inf."""
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


def _check_order(order) -> int:
    _check_integer(order, "order must be an integer")
    if order < 0:
        raise ValueError("order must be >= 0")
    return int(order)


def _gaussian_peak(order: int, log_amp: float = 0.0) -> float:
    """An upper bound on e^{log_amp} sup_{r >= 0} (1+r)^order e^{-pi r^2}.

    Its logarithm h(r) = log_amp + order ln(1+r) - pi r^2 has h'' <= -2 pi,
    so for every r~ the maximum of h is at most h(r~) + h'(r~)^2 / (4 pi).
    r~ is the float nearest the peak (-1 + sqrt(1 + 2 order/pi)) / 2, where
    h' nearly vanishes.  Each term carries a relative slack of 2^-40, far
    above the error of log1p and of the arithmetic, and the result of exp
    is moved up four ulps."""
    r = (math.sqrt(1.0 + 2.0 * order / math.pi) - 1.0) / 2.0
    pull, push = order / (1.0 + r), 2.0 * math.pi * r
    slope = abs(pull - push) + _SLACK * (pull + push)
    terms = (log_amp, order * math.log1p(r), -math.pi * r * r, slope * slope / (4.0 * math.pi))
    log_c = math.fsum(terms) + _SLACK * math.fsum(abs(x) for x in terms)
    return _round_up(math.exp(log_c))


def _cubic_cell_max(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max |S| over [lo, hi] for each real cubic S(s) = c0 s^3 + c1 s^2 +
    c2 s + c3 (columns of c, as in ``SampledGridWindow._c``; lo and hi are (q, n)
    arrays with 0 <= lo <= hi).  The maximum is at an end or a root of
    S' = 3 c0 s^2 + 2 c1 s + c2; roots outside [lo, hi], or not real, are
    clipped to a point of it, which cannot raise the maximum.  8 eps sum
    |c_k| hi^{3-k} covers the rounding of Horner's rule."""
    a, b, c2 = 3.0 * c[0], 2.0 * c[1], c[2]
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c2, 0.0))
    q = -0.5 * (b + np.copysign(sq, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = (q / a, c2 / q)
    best = np.zeros_like(lo)
    for s in (lo, hi, *(np.clip(np.nan_to_num(x, nan=0.0), lo, hi) for x in roots)):
        best = np.maximum(best, np.abs(((c[0] * s + c[1]) * s + c[2]) * s + c[3]))
    a0, a1, a2, a3 = np.abs(c)
    return best + 8.0 * np.finfo(float).eps * (((a0 * hi + a1) * hi + a2) * hi + a3)


@dataclass(frozen=True)
class DecayBound:
    constant: float
    order: int


class Window:
    """Base class; concrete windows implement ``eval_many`` on (n, d) arrays
    and ``decay_constant(order)``, an upper bound on sup |f(t)| (1+|t|)^order."""

    dimension: int = 1
    effective_radius: float = 6.0

    def eval_many(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def decay_constant(self, order: int) -> float:  # pragma: no cover
        raise NotImplementedError


class GaussianWindow(Window):
    """2^{d/4} e^{-pi |t|^2}, unit L2 norm."""

    def __init__(self, dimension: int = 1):
        _check_integer(dimension, "dimension must be an integer")
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

    def decay_constant(self, order: int) -> float:
        """2^{d/4} sup_r (1+r)^order e^{-pi r^2} rounded up, in closed form
        (``_gaussian_peak``): the window depends on r = |t|_2 only, so no
        point is evaluated in any dimension."""
        return _gaussian_peak(_check_order(order), self.dimension * math.log(2.0) / 4.0)


class HermiteWindow(Window):
    """Hermite function of given order (dimension 1), unit L2 norm."""

    def __init__(self, order: int):
        self.order = _check_order(order)
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

    def decay_constant(self, order: int) -> float:
        """A Taylor bound on each cell of a step-1/64 grid, plus the tail
        past it (``_hermite_decay_constant``); it depends on the Hermite
        order and ``order`` only, so it is computed once per pair."""
        return _hermite_decay_constant(self.order, _check_order(order))


@lru_cache(maxsize=64)
def _hermite_decay_grid(n: int):
    """The order-free part of ``_hermite_decay_constant``, shared by every
    order: the grid t on [0, effective_radius + 2] with step <= 1/64,
    e^{-pi t^2} there, and for the polynomials V_i with g^(i) = amp V_i
    e^{-pi t^2} (V_0 = H_n(sqrt(2 pi) t), V_{i+1} = V_i' - 2 pi t V_i) the
    values (1+t)^i V_i(t) for i <= 2 and the bounds (1+t)^i sum_k |v_ik| t^k
    on their moduli for i <= 3."""
    R = HermiteWindow(n).effective_radius + 2.0
    t = np.linspace(0.0, R, math.ceil(64.0 * R) + 1)
    k = np.arange(n + 4)
    v = np.zeros((4, n + 4))  # row i: power coefficients of V_i
    v[0, : n + 1] = np.polynomial.hermite.herm2poly(np.eye(n + 1)[n])
    v[0] *= math.sqrt(2.0 * math.pi) ** k
    for i in range(3):
        v[i + 1, :-1] = k[1:] * v[i, 1:]
        v[i + 1, 1:] -= 2.0 * math.pi * v[i, :-1]
    polyval = np.polynomial.polynomial.polyval
    lift = (1.0 + t) ** k[:4, None]
    values = lift[:3] * polyval(t, v[:3].T)
    bounds = lift * polyval(t, np.abs(v).T)
    return t, np.exp(-math.pi * t * t), values, bounds


@lru_cache(maxsize=1024)
def _hermite_decay_constant(n: int, M: int) -> float:
    """An upper bound on sup |F|, F(t) = g(t) (1+t)^M, g the Hermite
    function of order n.

    |g| is even, so t >= 0 suffices.  By Leibniz, F^(j) = amp e^{-pi t^2}
    (1+t)^{M-j} sum_i C(j,i) M!/(M-j+i)! (1+t)^i V_i (``_hermite_decay_grid``).
    Every t in a grid cell [a, b] of width <= h lies within h/2 of an end
    e, so by Taylor's theorem |F(t)| <= max_e sum_{j<3} |F^(j)(e)|
    (h/2)^j / j! + (h/2)^3 / 6 sup |F^(3)| over the cell.  The same sum
    bounds sup |F^(3)|, with |V_i| <= sum_k |v_ik| b^k, e^{-pi t^2} <=
    e^{-pi a^2} and (1+t)^k <= (1+b)^k (terms with k < 0 have weight 0).
    Each value carries the rounding of Horner's rule, and the result a
    relative 2^-40 more.  Past the grid radius R, |F| <= amp sum_k |v_0k|
    t^k (1+t)^M e^{-pi t^2}; each term is log-concave and peaks below
    sqrt((n+M) / (2 pi)), which is checked to lie below R, so its value
    at R bounds it there."""
    t, gauss, values, bounds = _hermite_decay_grid(n)
    R, h = float(t[-1]), float(np.max(np.diff(t)))
    if math.sqrt((n + M) / (2.0 * math.pi)) >= R:
        raise ValueError(f"order {M} peaks past the Hermite grid radius {R}")
    rounding = (n + 12) * np.finfo(float).eps

    def weights(j):
        return np.array([math.comb(j, i) * math.perm(M, j - i) for i in range(j + 1)], dtype=float)

    one = 1.0 + t
    near = np.zeros_like(t)
    for j in range(3):  # Horner in 1+t: sum_j |F^(j)| (1+t)^{2-j} (h/2)^j / j!
        w = weights(j)
        size = np.abs(w @ values[: j + 1]) + rounding * (w @ bounds[: j + 1])
        near = near * one + size * ((h / 2.0) ** j / math.factorial(j))
    near *= one ** (M - 2) * gauss
    third = weights(3) @ bounds[:, 1:]
    third *= one[1:] ** (M - 3) * gauss[:-1] * ((h / 2.0) ** 3 / 6.0)
    inside = float(np.max(np.maximum(near[:-1], near[1:]) + third))
    past = bounds[0][-1] * (1.0 + R) ** M * math.exp(-math.pi * R * R)
    return _round_up(HermiteWindow(n)._amp * max(inside, past) * (1.0 + _SLACK))


def _not_a_knot_coefficients(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (4, n-1) power coefficients of the not-a-knot cubic spline through
    (x_i, values_i), n >= 4: bit for bit ``CubicSpline``'s for real values.
    Its tridiagonal system for the slopes (the same rows, the same order of
    float operations) is solved in LAPACK gtsv's order, which interchanges
    no row as |d_i| >= |dl_i| on each (a tie at row 0); the back substitution
    keeps gtsv's zeroed dl term, which can flip the sign of a zero.  The
    coefficients are formed as ``CubicHermiteSpline`` forms them."""
    y = values.astype(complex if np.iscomplexobj(values) else float)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n, d0, d1 = len(x), x[2] - x[0], x[-1] - x[-3]
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1])).tolist()
    lower = np.concatenate((dx[1:], [d1])).tolist()
    b = np.empty(n, dtype=y.dtype)
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    b = b.tolist()
    for i in range(n - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= diag[-1]
    b[-2] = (b[-2] - upper[-1] * b[-1]) / diag[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1] - 0.0 * b[i + 2]) / diag[i]
    s = np.array(b, dtype=y.dtype)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class SampledGridWindow(Window):
    """Window given by samples on the uniform grid -radius + k*step: the
    not-a-knot cubic spline through them, exactly zero outside the support.
    Values may be complex.
    """

    def __init__(self, values, step: float, radius: float):
        vals = np.asarray(values)
        if vals.ndim != 1 or len(vals) < 4:
            raise ValueError("need a flat array of at least 4 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        if not (0 < step < math.inf and 0 < radius < math.inf):
            raise ValueError("step and radius must be positive and finite")
        self.dimension = 1
        self.values = vals
        self.step = float(step)
        self.radius = float(radius)
        self._x = -self.radius + self.step * np.arange(len(vals))
        if not (math.isfinite(self._x[-1]) and np.all(np.diff(self._x) > 0)):
            raise ValueError("the grid -radius + k*step must be finite and strictly increasing")
        self.effective_radius = float(self._x[-1])
        self._c = _not_a_knot_coefficients(self._x, vals)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Cell i's cubic (x_i <= t < x_{i+1}, the last knot in the last cell)
        at s = t - x_i, summed from 0 as ``PPoly`` sums it; zero at the points
        that clipping to the support moves (outside [x_0, x_last], NaN)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim > 1:
            if pts.shape[-1] != 1:
                raise ValueError("sampled windows are one-dimensional")
            pts = pts[..., 0]
        x = self._x
        t = np.clip(pts, x[0], x[-1])
        i = np.searchsorted(x[1:-1], t, side="right")
        c0, c1, c2, c3 = self._c.take(i, axis=1)
        s = t - x[i]
        s2 = s * s
        return np.where(t == pts, ((0.0 + c3 + c2 * s) + c1 * s2) + c0 * (s2 * s), 0.0)

    @cached_property
    def _cell_maxima(self):
        """The exact maximum of |f| on each of the q equal parts of each
        cubic cell, q = ceil(step / _PART_WIDTH) (``_cubic_cell_max``; for
        complex values, hypot of the real and imaginary parts' maxima), and
        each part's far end from 0."""
        c, x = self._c, self._x
        q = math.ceil(self.step / _PART_WIDTH)
        ends = np.diff(x) * (np.arange(q + 1) / q)[:, None]
        lo, hi = ends[:-1], ends[1:]
        part = _cubic_cell_max(c.real, lo, hi)
        if np.iscomplexobj(c):
            part = np.hypot(part, _cubic_cell_max(c.imag, lo, hi))
        return part, np.maximum(np.abs(x[:-1] + lo), np.abs(x[:-1] + hi))

    def decay_constant(self, order: int) -> float:
        """The largest exact maximum of |f| over a part of a cubic cell times
        (1 + the part's far end)^order, with a relative 2^-40 for the
        rounding of 1 + far and its power, rounded up; f is zero outside
        its support.
        A support radius below 2 raises InsufficientSupport."""
        M = _check_order(order)
        if self.radius < 2.0:
            raise InsufficientSupport(
                f"support radius {self.radius} too small to assess decay"
            )
        cell, far = self._cell_maxima
        return _round_up(float(np.max(cell * (1.0 + far) ** M)) * (1.0 + _SLACK))


def l2_norm(w: Window, grid_step: float = 1.0 / 64, radius: float | None = None) -> float:
    """Riemann-sum L2 norm over [-radius, radius]^d, the squares summed with
    one exact rounding (``exact_sum``)."""
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    if radius is None:
        radius = w.effective_radius
    ax = np.arange(-radius, radius + grid_step / 2, grid_step)
    pts = product_grid(ax, w.dimension)
    vals = w.eval_many(pts)
    return math.sqrt(exact_sum(np.abs(vals) ** 2) * grid_step ** w.dimension)


def decay_bound(w: Window, order: int) -> DecayBound:
    """|f(t)| <= C (1+|t|)^{-order} for every t, C = w.decay_constant(order):
    the Gaussian's closed form at its peak, the Hermite function's Taylor
    bound on each cell of a step-1/64 grid, the sampled window's exact
    maximum on each part of a cubic cell.  Each is a true upper bound, not
    a sampled maximum; |t| is the Euclidean norm, so the bound also holds
    with the max-norm that the Zak tail sums use.  An order that is not an
    integer (a bool is not one) or is negative raises ValueError."""
    return DecayBound(constant=w.decay_constant(order), order=int(order))


def sampled_window_from_csv(path: str) -> SampledGridWindow:
    """Load a sampled window from CSV rows (t, value), the first one maybe a
    header; a later t that does not parse, or a non-finite t, raises ValueError."""
    ts: list[float] = []
    vs: list[float] = []
    with open(path, newline="") as fh:
        rows = [(n, row) for n, row in enumerate(csv.reader(fh), 1) if row]
    for k, (n, row) in enumerate(rows):
        try:
            t = float(row[0])
        except ValueError:
            if k == 0:
                continue  # header
            raise ValueError(f"CSV row {n}: t {row[0]!r} is not a number") from None
        if len(row) < 2:
            raise ValueError(f"CSV row {n}: need columns t,value")
        if not math.isfinite(t):
            raise ValueError(f"CSV row {n}: t {row[0]!r} is not finite")
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
