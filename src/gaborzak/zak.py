"""Truncated Zak transform on torus grids.

    Zf(t, w) = sum_{kappa in Z^d} e^{-2 pi i <w, kappa>} f(t + kappa)

truncated at |kappa|_inf <= K, with K chosen so a decay-bound tail estimate
is below target.  Grid values come from one FFT over the folded lattice index
(f(t + kappa) summed into bin kappa mod M).  Off-grid values are always fresh
direct sums in the same kappa order, never interpolation: the downstream
cocycle machinery shifts by irrational amounts, and interpolation error would
contaminate it.  Over a product of t and w points they factor: each kappa
takes one f(t + kappa) per t and one phase e^{-2 pi i <w, kappa>} per w.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSupport, NumericalFailure, TruncationError
from .numerics import GRID_BUDGET_DEFAULT, TorusPoint, _check_integer, _map_blocks, product_grid
from .windows import Window, decay_bound

__all__ = [
    "ZakGrid",
    "ZeroSet",
    "zak_transform",
    "zak_point",
    "quasi_periodicity_residual",
    "functional_equation_residual",
    "locate_zero_set",
]

_DECAY_ORDERS = (4, 8, 12, 16, 20, 24)
_FFT_BLOCK = 1 << 18  # values per block: rows of the _grid_sums FFT, floats of grid_mean_square


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
    raise TruncationError(
        "no truncation radius up to 60 meets the tail target "
        f"{target:g} for this window",
        suggested_k=61,
    )


def _lattice_sums(window: Window, tpts: np.ndarray, opts: np.ndarray, K: int) -> np.ndarray:
    """Fresh truncated Zak sums at every pair (t_a, w_b) of the (n_t, d) and
    (n_w, d) argument arrays, as an (n_t, n_w) array.

    Each kappa, in fixed lexicographic order, adds f(t + kappa) times the
    phase row e^{-2 pi i <w, kappa>}, so results are bitwise reproducible
    regardless of threading and equal to summing pair by pair."""
    d = tpts.shape[1]
    out = np.zeros((tpts.shape[0], opts.shape[0]), dtype=complex)
    for kappa in _kappa_tuples(K, d):
        f = np.asarray(window.eval_many(tpts + np.array(kappa, dtype=float)))
        phase = np.zeros(opts.shape[0])
        for axis in range(d):
            if kappa[axis] != 0:
                phase = phase + opts[:, axis] * kappa[axis]
        out += f[:, None] * np.exp(-2j * np.pi * phase)
    return out


def _grid_sums(window: Window, M: int, K: int) -> np.ndarray:
    """Truncated Zak sums at (t, w) = (i/M, j/M) as an (M^d, M, ..., M) array
    (rows: the (M,)*d t grid; last d axes: w).  f(t + kappa) goes into bin
    kappa mod M (bins alias when 2K+1 > M); an FFT over the bin axes then
    applies the phases, numpy's forward sign e^{-2 pi i jk/M} being Zak's.
    The FFT runs in place by blocks of rows on every usable CPU
    (``_map_blocks``); each row's transform is its own, whatever its block,
    and a non-finite value anywhere raises NumericalFailure."""
    d = window.dimension
    t_flat = product_grid(np.arange(M) / M, d)
    bins = np.zeros((t_flat.shape[0],) + (M,) * d, dtype=complex)
    for kappa in _kappa_tuples(K, d):
        f = window.eval_many(t_flat + np.array(kappa, dtype=float))
        bins[(slice(None),) + tuple(k % M for k in kappa)] += f

    def fft_rows(lo: int, hi: int) -> bool:
        block = np.fft.fftn(bins[lo:hi], axes=tuple(range(1, d + 1)), out=bins[lo:hi])
        return bool(np.isfinite(block).all())

    if not all(_map_blocks(fft_rows, len(bins), max(1, _FFT_BLOCK // M**d))):
        raise NumericalFailure("non-finite Zak values on the grid")
    return bins


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

        The sum of squares of the real and imaginary parts runs in one pass:
        each block of _FFT_BLOCK of them is one ``np.einsum`` dot product
        (no BLAS, no temporary), the blocks run on ``_map_blocks``, and
        ``math.fsum`` adds their partial sums in block order, so no bit
        depends on the CPU count."""
        x = self.values.reshape(-1).view(float)

        def square_sum(lo: int, hi: int) -> float:
            return float(np.einsum("i,i->", x[lo:hi], x[lo:hi]))

        return math.fsum(_map_blocks(square_sum, x.size, _FFT_BLOCK)) / self.values.size

    def point_value(self, t, omega) -> complex:
        """Fresh truncated sum at real (possibly unreduced) arguments."""
        return zak_point(self.window, t, omega, self.truncation)


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
    TruncationError carrying a sufficient radius.  A grid of more than
    GRID_BUDGET_DEFAULT values, and a truncation that is not an integer >= 1
    (a bool is not one), raise ValueError before anything is computed.
    """
    M = resolution
    d = window.dimension
    if M < 4:
        raise ValueError("resolution must be >= 4")
    if M ** (2 * d) > GRID_BUDGET_DEFAULT:
        raise ValueError(
            f"grid of {M ** (2 * d)} values exceeds the budget {GRID_BUDGET_DEFAULT}"
        )
    if truncation is not None:
        _check_integer(truncation, "truncation must be an integer", 1, "truncation must be >= 1")
    bounds = _decay_bounds(window)
    if truncation is None:
        K, tail = _choose_truncation(bounds, d, tail_target)
    else:
        K = int(truncation)
        tail = _best_tail(bounds, K, d)
        if not tail < tail_target:
            KK, _ = _choose_truncation(bounds, d, tail_target)
            raise TruncationError(
                f"truncation K={K} gives tail bound {tail:.3e} >= "
                f"target {tail_target:g}",
                suggested_k=KK,
            )
    vals = _grid_sums(window, M, K)
    return ZakGrid(
        dimension=d,
        resolution=M,
        truncation=K,
        tail_bound=tail,
        values=vals.reshape((M,) * (2 * d)),
        window=window,
    )


def zak_point(window: Window, t, omega, truncation: int) -> complex:
    """One fresh truncated sum; arguments may lie outside [0,1) (the series
    converges for all real arguments, with the truncation radius widened by
    the integer part of the shift)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if len(t) != window.dimension or len(omega) != window.dimension:
        raise ValueError(f"window dimension {window.dimension}, got t, omega of "
                         f"lengths {len(t)}, {len(omega)}")
    margin = int(np.ceil(np.max(np.abs(t)))) if t.size else 0
    K = truncation + max(0, margin)
    return complex(_lattice_sums(window, t[None, :], omega[None, :], K)[0, 0])


def quasi_periodicity_residual(Z: ZakGrid) -> float:
    """max over the grid and over unit shifts e_l of
    |Zf(t+e_l, w) - e^{2 pi i w_l} Zf(t, w)| and |Zf(t, w+e_l) - Zf(t, w)|,
    with shifted values recomputed as fresh sums."""
    d = Z.dimension
    grid = product_grid(Z.axis, d)
    base = Z.values.reshape(len(grid), len(grid))
    worst = 0.0
    for axis_i in range(d):
        shift = np.zeros(d)
        shift[axis_i] = 1.0
        t_shift = _lattice_sums(Z.window, grid + shift, grid, Z.truncation + 1)
        expected = np.exp(2j * np.pi * grid[:, axis_i]) * base
        worst = max(worst, float(np.max(np.abs(t_shift - expected))))
        o_shift = _lattice_sums(Z.window, grid, grid + shift, Z.truncation)
        worst = max(worst, float(np.max(np.abs(o_shift - base))))
    return worst


def functional_equation_residual(Z: ZakGrid, p, alpha, beta) -> float:
    """Grid L^2 norm (root mean square over the (M,)*2d grid) of

        p(t,w) Zf(t,w) - e^{-2 pi i <t,beta>} Zf(t-alpha, w+beta)

    with the shifted factor evaluated by fresh truncated sums at the real
    (unreduced) arguments t - alpha, w + beta."""
    d, M = Z.dimension, Z.resolution
    if p.dimension != 2 * d:
        raise ValueError("polynomial dimension must be 2d")
    a = np.array([c.float() for c in alpha], dtype=float)
    b = np.array([c.float() for c in beta], dtype=float)
    if a.shape != (d,) or b.shape != (d,):
        raise ValueError("alpha and beta must each have length d")
    flat = product_grid(Z.axis, 2 * d)
    grid = product_grid(Z.axis, d)
    lhs = p.eval_points(flat) * Z.values.ravel()
    margin = int(np.ceil(np.max(np.abs(a)))) + 1 if d else 1
    shifted = _lattice_sums(Z.window, grid - a, grid + b, Z.truncation + margin).ravel()
    # on the 2d rows: a BLAS product's last bit can depend on a row's batch position
    mod_phase = np.exp(-2j * np.pi * (flat[:, :d] @ b))
    diff = lhs - mod_phase * shifted
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


def locate_zero_set(Z: ZakGrid, threshold: float | None = None) -> ZeroSet:
    """Grid points where |Zf| falls under the threshold (default
    1e-3 * max |Zf|); row-major grid order."""
    mod = np.abs(Z.values)
    if threshold is None:
        threshold = 1e-3 * float(np.max(mod))
        if threshold == 0.0:  # identically-zero grid: every point qualifies
            threshold = np.finfo(float).tiny
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    M = Z.resolution
    index = np.unravel_index(np.flatnonzero(mod < threshold), mod.shape)
    pts = tuple(TorusPoint(tuple(float(i) / M for i in idx)) for idx in zip(*index))
    return ZeroSet(points=pts, threshold=float(threshold))
