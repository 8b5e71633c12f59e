"""Truncated Zak transform on torus grids.

    Zf(t, w) = sum_{kappa in Z^d} e^{-2 pi i <w, kappa>} f(t + kappa)

truncated at |kappa|_inf <= K, with K chosen so a decay-bound tail estimate
is below target.  Two kernels compute it: one FFT per (possibly shifted)
grid, and one paired sum over scattered points.  Off-grid values are always
fresh sums, never interpolation: the downstream cocycle machinery shifts by
irrational amounts, and interpolation error would contaminate it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSupport, NumericalFailure, TruncationError
from .numerics import GRID_BUDGET_DEFAULT, TorusPoint, _check_integer, _map_blocks, product_grid
from .windows import Window, decay_bound

__all__ = """ZakGrid ZeroSet zak_transform zak_point quasi_periodicity_residual
    functional_equation_residual locate_zero_set""".split()

_DECAY_ORDERS = (4, 8, 12, 16, 20, 24)
_FFT_BLOCK = 1 << 18  # values per _map_blocks block here (floats in grid_mean_square)


def _kappa_tuples(K: int, d: int) -> list[tuple[int, ...]]:
    return sorted(itertools.product(range(-K, K + 1), repeat=d))


def _shell_term(constant: float, order: int, s: int, d: int) -> float:
    return constant * ((2 * s + 1) ** d - (2 * s - 1) ** d) * float(s) ** (-order)


def _tail_sum(constant: float, order: int, K: int, d: int) -> float:
    """Upper bound on the dropped mass sum_{|kappa|_inf > K} sup_t |f(t+kappa)|
    using |f(u)| <= C (1+|u|_inf)^{-order} and |t+kappa|_inf >= |kappa|_inf - 1
    for t in the unit cube.

    Shells K < s <= S are summed explicitly; past the last one, S, the shell
    size (2s+1)^d - (2s-1)^d <= 2d (2s+1)^(d-1) <= 2d 3^(d-1) s^(d-1) and the
    integral comparison sum_{s>S} s^(d-1-order) <= S^(d-order) / (order-d)
    bound the rest."""
    if constant == 0.0:
        return 0.0
    if order <= d:
        return math.inf
    total = 0.0
    s = K + 1
    while True:
        term = _shell_term(constant, order, s, d)
        total += term
        if term < 1e-3 * max(total, 1e-300) and s > K + 8:
            rest = 2 * d * 3 ** (d - 1) * constant * float(s) ** (d - order)
            return total + rest / (order - d)
        if s > K + 100000:
            return math.inf
        s += 1


def _decay_bounds(window: Window) -> list:
    """One DecayBound per order of _DECAY_ORDERS; none when the support is
    too small to assess decay (that check does not depend on the order)."""
    try:
        return [decay_bound(window, order) for order in _DECAY_ORDERS]
    except InsufficientSupport:
        return []


def _best_tail(bounds, K: int, d: int) -> float:
    return min((_tail_sum(b.constant, b.order, K, d) for b in bounds), default=math.inf)


def _choose_truncation(bounds: list, d: int, target: float) -> tuple[int, float]:
    for K in range(1, 61):
        # a tail sum is never below its first term: skip orders that miss with it
        live = [b for b in bounds if _shell_term(b.constant, b.order, K + 1, d) < target]
        tail = _best_tail(live, K, d)
        if tail < target:
            return K, tail
    raise TruncationError(f"no truncation radius up to 60 meets the tail target {target:g} "
                          "for this window", suggested_k=61)


def _grid_sums(window: Window, M: int, K: int, shift_t=0.0, shift_w=0.0) -> np.ndarray:
    """Truncated Zak sums at (t, w) = (i/M - a, j/M + b), a = shift_t and
    b = shift_w (scalars or length d), as an (M^d, M, ..., M) array (rows: t;
    last d axes: w).  Bin kappa mod M takes f(t - a + kappa) e^{-2 pi i <kappa,
    b>} (bins alias when 2K+1 > M); an in-place FFT over the bin axes, by
    blocks of rows on ``_map_blocks``, applies numpy's forward phases e^{-2 pi
    i jk/M}, which are Zak's.  A non-finite value raises NumericalFailure."""
    d = window.dimension
    t_flat = product_grid(np.arange(M) / M, d) - shift_t
    b = np.broadcast_to(np.asarray(shift_w, dtype=float), (d,))
    bins = np.zeros((t_flat.shape[0],) + (M,) * d, dtype=complex)
    for kappa in _kappa_tuples(K, d):
        step = np.array(kappa, dtype=float)
        f = window.eval_many(t_flat + step)
        if b.any():
            f = f * np.exp(-2j * np.pi * (step @ b))
        bins[(slice(None),) + tuple(k % M for k in kappa)] += f

    def fft_rows(lo: int, hi: int) -> bool:
        block = np.fft.fftn(bins[lo:hi], axes=tuple(range(1, d + 1)), out=bins[lo:hi])
        return bool(np.isfinite(block).all())

    if not all(_map_blocks(fft_rows, len(bins), max(1, _FFT_BLOCK // M**d))):
        raise NumericalFailure("non-finite Zak values on the grid")
    return bins


def _paired_sums(window: Window, t, w, truncation: int) -> np.ndarray:
    """Fresh truncated sums Zf(t_i, w_i) at the rows of the (n, d) arrays t
    and w, real (possibly unreduced) arguments.  Row i sums over |kappa|_inf
    <= truncation + ceil(|t_i|_inf), the radius widened by the integer part
    of its shift.  One ``eval_many`` call takes every (kappa, row) pair;
    terms past a row's radius are zeroed, and the kappa are added one at a
    time in lexicographic order, so a row's sum does not depend on the others."""
    d = window.dimension
    t, w = np.asarray(t, dtype=float), np.asarray(w, dtype=float)
    if t.shape[1] != d or w.shape[1] != d:
        raise ValueError(f"window dimension {d}, got t, w of lengths {t.shape[1]}, {w.shape[1]}")
    radii = truncation + np.ceil(np.max(np.abs(t), axis=1))  # int() refuses nan and inf
    kappa = np.array(_kappa_tuples(int(radii.max(initial=truncation)), d), dtype=float)
    f = np.asarray(window.eval_many((t + kappa[:, None]).reshape(-1, d))).reshape(len(kappa), -1)
    phase = sum((np.multiply.outer(kappa[:, i], w[:, i]) for i in range(d)), np.zeros(f.shape))
    terms = f * np.exp(-2j * np.pi * phase)
    terms[np.max(np.abs(kappa), axis=1)[:, None] > radii] = 0.0
    return sum(terms, np.zeros(len(t), dtype=complex))


def _square_sum(z: np.ndarray) -> float:
    """sum |z|^2 of a contiguous complex block: one ``np.einsum`` dot product
    of its real and imaginary parts (no BLAS, no temporary)."""
    x = z.reshape(-1).view(float)
    return float(np.einsum("i,i->", x, x))


@dataclass(frozen=True)
class ZakGrid:
    """Zf sampled at (t, w) = (i/M, j/M); values has shape (M,)*2d."""

    dimension: int
    resolution: int
    truncation: int
    tail_bound: float
    values: np.ndarray = field(repr=False)
    window: Window = field(repr=False)

    @property
    def axis(self) -> np.ndarray:
        return np.arange(self.resolution) / self.resolution

    def grid_mean_square(self) -> float:
        """(1/M^{2d}) sum |Zf|^2: the grid-scale L^2([0,1)^{2d}) mass, equal
        to ||f||_2^2 in the exact (unitary) limit.

        The squares of the real and imaginary parts are summed by blocks of
        _FFT_BLOCK on ``_map_blocks`` (``_square_sum``), and ``math.fsum``
        adds the partial sums in block order, so no bit depends on the CPU
        count."""
        x = self.values.reshape(-1)
        parts = _map_blocks(lambda lo, hi: _square_sum(x[lo:hi]), x.size, _FFT_BLOCK // 2)
        return math.fsum(parts) / self.values.size

    def point_values(self, points) -> np.ndarray:
        """Fresh truncated sums at the (n, 2d) rows (t, w) (``_paired_sums``)."""
        rows, d = np.atleast_2d(np.asarray(points, dtype=float)), self.dimension
        return _paired_sums(self.window, rows[:, :d], rows[:, d:], self.truncation)


@dataclass(frozen=True)
class ZeroSet:
    points: tuple[TorusPoint, ...]
    threshold: float


def zak_transform(
    window: Window,
    resolution: int,
    truncation: int | None = None,
    tail_target: float = 1e-10,
) -> ZakGrid:
    """Fill the (M,)*2d grid of truncated Zak values.

    With truncation=None, K is the smallest radius whose decay-bound tail is
    below tail_target; an explicit K that misses the target raises
    TruncationError carrying a sufficient radius.  A resolution that is not
    an integer >= 4, a tail target that is not positive, a grid of more than
    GRID_BUDGET_DEFAULT values, and a truncation that is not an integer >= 1
    (a bool is not one), raise ValueError before anything is computed.
    """
    M, d = resolution, window.dimension
    _check_integer(M, "resolution must be an integer", 4, "resolution must be >= 4")
    if not tail_target > 0:
        raise ValueError("tail target must be positive")
    if M ** (2 * d) > GRID_BUDGET_DEFAULT:
        raise ValueError(f"grid of {M ** (2 * d)} values exceeds the budget {GRID_BUDGET_DEFAULT}")
    if truncation is not None:
        _check_integer(truncation, "truncation must be an integer", 1, "truncation must be >= 1")
    bounds = _decay_bounds(window)
    if truncation is None:
        K, tail = _choose_truncation(bounds, d, tail_target)
    else:
        K = int(truncation)
        tail = _best_tail(bounds, K, d)
        if not tail < tail_target:
            raise TruncationError(f"truncation K={K} gives tail bound {tail:.3e} >= target "
                                  f"{tail_target:g}",
                                  suggested_k=_choose_truncation(bounds, d, tail_target)[0])
    return ZakGrid(dimension=d, resolution=M, truncation=K, tail_bound=tail,
                   values=_grid_sums(window, M, K).reshape((M,) * (2 * d)), window=window)


def zak_point(window: Window, t, omega, truncation: int) -> complex:
    """One fresh truncated sum, the one-row case of ``_paired_sums``: the
    arguments may lie outside [0,1).  A truncation that is not an integer
    >= 1 (a bool is not one) raises ValueError."""
    _check_integer(truncation, "truncation must be an integer", 1, "truncation must be >= 1")
    t, omega = np.reshape(t, (1, -1)), np.reshape(omega, (1, -1))
    return complex(_paired_sums(window, t, omega, truncation)[0])


def _shifted_blocks(Z: ZakGrid, K: int, a, b, fn) -> list:
    """fn(lo, hi, rows) for each block of rows [lo, hi) of Zf(t - a, w + b)
    on Z's grid (``_grid_sums`` at radius K), on ``_map_blocks``: the
    residuals compare it with Z.values by rows and build no difference grid."""
    n = Z.resolution**Z.dimension
    shifted = _grid_sums(Z.window, Z.resolution, K, a, b).reshape(n, n)
    return _map_blocks(lambda lo, hi: fn(lo, hi, shifted[lo:hi]), n, max(1, _FFT_BLOCK // n))


def quasi_periodicity_residual(Z: ZakGrid) -> float:
    """max over the grid and over unit shifts e_l of
    |Zf(t+e_l, w) - e^{2 pi i w_l} Zf(t, w)| and |Zf(t, w+e_l) - Zf(t, w)|.

    Both halves are grid FFTs: t + e_l at radius K + 1, and w + e_l, whose bins
    are Z's own times e(-kappa_l).  On this path the w-shift half tests only
    the rounding of e(-kappa); the t-shift half tests the truncation and binning."""
    d, K = Z.dimension, Z.truncation
    w = product_grid(Z.axis, d)
    base = Z.values.reshape(len(w), -1)
    worst = 0.0
    for axis_i, unit in enumerate(np.eye(d)):
        turn = np.exp(2j * np.pi * w[:, axis_i])
        for radius, a, b, factor in ((K + 1, -unit, 0.0, turn), (K, 0.0, unit, 1.0)):
            worst = max(worst, *_shifted_blocks(Z, radius, a, b, lambda lo, hi, rows: float(
                np.max(np.abs(rows - factor * base[lo:hi])))))
    return worst


def functional_equation_residual(Z: ZakGrid, p, alpha, beta) -> float:
    """Grid L^2 norm (root mean square over the (M,)*2d grid) of

        p(t,w) Zf(t,w) - e^{-2 pi i <t,beta>} Zf(t-alpha, w+beta)

    with the shifted factor a fresh grid FFT at the real (unreduced)
    arguments t - alpha, w + beta, compared by blocks of rows; each block
    reads p on its own rows of the product grid (``trigpoly._grid_rows``)."""
    from .trigpoly import _grid_rows

    d = Z.dimension
    if p.dimension != 2 * d:
        raise ValueError("polynomial dimension must be 2d")
    a, b = (np.array([c.float() for c in v], dtype=float) for v in (alpha, beta))
    if a.shape != (d,) or b.shape != (d,):
        raise ValueError("alpha and beta must each have length d")
    t = product_grid(Z.axis, d)
    z = Z.values.reshape(len(t), -1)
    mod_phase = np.exp(-2j * np.pi * (t @ b))[:, None]
    K = Z.truncation + int(np.ceil(np.max(np.abs(a)))) + 1
    sums = _shifted_blocks(Z, K, a, b, lambda lo, hi, rows: _square_sum(
        _grid_rows(p, Z.resolution, d, lo, hi) * z[lo:hi] - mod_phase[lo:hi] * rows))
    return math.sqrt(math.fsum(sums) / z.size)


def locate_zero_set(Z: ZakGrid, threshold: float | None = None) -> ZeroSet:
    """Grid points where |Zf| falls under the threshold (default
    1e-3 * max |Zf|); row-major grid order.  Both passes run by blocks on
    ``_map_blocks``, with no grid-sized temporary; the second compares
    |Zf|^2 with threshold^2 and takes no square root."""
    z = np.ascontiguousarray(Z.values, dtype=complex).reshape(-1)
    if threshold is None:
        top = _map_blocks(lambda lo, hi: np.max(np.abs(z[lo:hi])), z.size, _FFT_BLOCK)
        threshold = 1e-3 * float(max(top))
        if threshold == 0.0:  # identically-zero grid: every point qualifies
            threshold = np.finfo(float).tiny
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    # scaling by a power of two is exact and keeps the squares of a tiny or
    # huge threshold from underflowing or overflowing
    scale = 1.0 if 2.0**-500 < threshold < 2.0**500 else math.ldexp(1.0, -math.frexp(threshold)[1])
    bound = (threshold * scale) ** 2

    def below(lo: int, hi: int) -> np.ndarray:
        x = z[lo:hi].view(float)
        x = np.square(x if scale == 1.0 else x * scale)
        return lo + np.flatnonzero(x[0::2] + x[1::2] < bound)

    index = np.unravel_index(np.concatenate(_map_blocks(below, z.size, _FFT_BLOCK)), Z.values.shape)
    pts = tuple(TorusPoint(tuple(float(i) / Z.resolution for i in idx)) for idx in zip(*index))
    return ZeroSet(points=pts, threshold=float(threshold))
