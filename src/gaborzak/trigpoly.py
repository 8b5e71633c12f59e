"""Trigonometric polynomials on the m-torus.

A polynomial is a finite term list {(frequency, coefficient)} evaluated as

    p(z) = sum_k  c_k * exp(2 pi i <freq_k, z>),

with integer frequency vectors.  The lattice part of a time-frequency
configuration with coefficients c produces the polynomial

    p(t, w) = sum_k c_k e^{-2 pi i <y_k, t>} e^{-2 pi i <w, x_k>},

i.e. the term for the point (x_k, y_k) carries frequency (-y_k, -x_k) in the
(t, w) coordinate ordering.

Values come from one vectorized path at arbitrary points, ``eval_points``,
and one product-grid evaluator, ``_grid_rows``, read a block of rows at a
time; ``eval`` is the scalar reference that the tests compare them against.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .lattice import lattice_contains
from .numerics import (GRID_BUDGET_DEFAULT, TorusPoint, _check_integer, _json_list,
                       _json_number, _map_blocks, fixed_order_matmul, product_grid, reduce_mod1)

__all__ = [
    "TrigPolynomial",
    "from_lattice_config",
    "min_modulus",
    "MinModulusResult",
    "haar_average",
    "load_polynomial",
]

TWO_PI = 2.0 * math.pi
# phases per eval_points block: keeps temporaries in cache; at 2**14 the
# thread hand-offs ate a sixth of the two-CPU gain on 10^6 points
_EVAL_BLOCK = 1 << 15
_GRID_BLOCK = 1 << 18  # values per min_modulus block of grid rows


class TrigPolynomial:
    """Immutable finite Fourier series with integer frequencies.

    Terms are kept sorted by frequency for deterministic iteration; exact-zero
    coefficients are dropped (an empty term list is the zero polynomial).
    """

    __slots__ = ("dimension", "terms", "_freq_arr", "_coeff_arr")

    def __init__(self, dimension: int, terms: Iterable[tuple[Sequence[int], complex]]):
        if dimension < 1:
            raise ValueError("torus dimension must be >= 1")
        merged: dict[tuple[int, ...], complex] = {}
        for freq, coeff in terms:
            key = tuple(int(f) for f in freq)
            if len(key) != dimension:
                raise ValueError(f"frequency {key} has wrong length")
            if any(f != q for f, q in zip(key, freq)):
                raise ValueError(f"non-integer frequency {tuple(freq)}")
            merged[key] = merged.get(key, 0j) + complex(coeff)
        clean = {k: v for k, v in sorted(merged.items()) if v != 0}
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "terms", tuple(clean.items()))
        object.__setattr__(self, "_freq_arr", np.array(list(clean), float).reshape(-1, dimension))
        object.__setattr__(self, "_coeff_arr", np.array(list(clean.values()), dtype=complex))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("TrigPolynomial is immutable")

    def __repr__(self) -> str:
        return f"TrigPolynomial(dim={self.dimension}, nterms={len(self.terms)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TrigPolynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, self.terms))

    # -- evaluation ---------------------------------------------------------

    def eval(self, z) -> complex:
        """Value at a single torus point (TorusPoint or coordinate sequence)."""
        coords = z.coords if isinstance(z, TorusPoint) else tuple(z)
        if len(coords) != self.dimension:
            raise ValueError(
                f"point has dimension {len(coords)}, polynomial {self.dimension}"
            )
        vals = [
            coeff * np.exp(2j * math.pi * math.fsum(f * c for f, c in zip(freq, coords)))
            for freq, coeff in self.terms
        ]
        return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))

    def eval_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized values at an (n, m) array of points, by blocks of rows
        on every usable CPU (``_map_blocks``); phases sum in a fixed order, so
        no value depends on its block."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, polynomial {self.dimension}"
            )
        out = np.zeros(len(pts), dtype=complex)

        def block(lo: int, hi: int) -> None:
            part = out[lo:hi]
            phases = fixed_order_matmul(self._freq_arr, pts[lo:hi].T.copy())
            for term in self._coeff_arr[:, None] * np.exp(2j * math.pi * phases):
                part += term

        _map_blocks(block, len(pts), max(1, _EVAL_BLOCK // max(1, len(self.terms))))
        return out

    def lipschitz_bound(self) -> float:
        """Global bound on |p(z) - p(z')| / |z - z'|_inf:  2 pi sum |c| |freq|_1."""
        return TWO_PI * sum(
            abs(coeff) * sum(abs(f) for f in freq) for freq, coeff in self.terms
        )


def from_lattice_config(cfg, coefficients) -> TrigPolynomial:
    """Build p(t, w) from the integer lattice part of a configuration.

    ``coefficients`` is either a plain sequence aligned with the non-target
    points in configuration order, or an object with ``c`` and
    ``target_index`` attributes.  Colliding frequencies merge by coefficient
    addition; a non-integer lattice point is rejected.
    """
    if hasattr(coefficients, "c") and hasattr(coefficients, "target_index"):
        target = coefficients.target_index
        coeffs = list(coefficients.c)
        lattice_pts = [pt for i, pt in enumerate(cfg.points) if i != target]
    else:
        coeffs = list(coefficients)
        lattice_pts = [
            pt for pt, is_lat in zip(cfg.points, cfg.lattice_mask) if is_lat
        ]
    if len(coeffs) != len(lattice_pts):
        raise ValueError(
            f"{len(coeffs)} coefficients for {len(lattice_pts)} lattice points"
        )
    d = cfg.dimension
    terms = []
    for pt, coeff in zip(lattice_pts, coeffs):
        freq = []
        for coord in list(pt.y) + list(pt.x):
            if not (coord.is_rational and coord.fraction.denominator == 1):
                raise ValueError(f"non-integer lattice coordinate {coord!r}")
            freq.append(-int(coord.fraction))
        terms.append((tuple(freq), coeff))
    return TrigPolynomial(2 * d, terms)


class MinModulusResult(NamedTuple):
    minimum: float
    argmin: TorusPoint
    lower_bound: float
    lipschitz: float


def _rounding_radius(terms, m: int) -> float:
    """A bound on the rounding error of p's value at a point of [0, 1)^m by
    ``eval_points`` or ``_grid_rows``.  On the grid, axis j of a term rounds
    i/R, pi, 2 pi f_j and the phase (4 pi |f_j| eps in all, within the 2 pi
    (m + 1) |f|_1 eps here); its m exponentials and m complex products add at
    most 2.2 m eps, within the 2 pi (m - 1) |f|_1 + 4 eps left over (f = 0
    multiplies by an exact 1); the sum of T terms adds (T - 1) eps sum |c|."""
    return np.finfo(float).eps * sum(
        abs(c) * (len(terms) + 3 + 2.0 * math.pi * (m + 1) * sum(map(abs, f))) for f, c in terms
    )


def _grid_rows(p: TrigPolynomial, R: int, k: int, lo: int, hi: int) -> np.ndarray:
    """p on the grid (i/R)^m at the row-major rows [lo, hi) of its first k
    axes (1 <= k <= m), shape (hi - lo, R^(m-k)).  The exp tables are built
    once per call, at the rows' own coordinates on the first k axes; a term
    is reduce(np.multiply.outer, [c E_0[i_0] ... E_{k-1}[i_{k-1}], E_k, ...,
    E_{m-1}]), multiplied left to right, and the terms add in order, so no
    bit depends on the rows asked for, on k or on R (i/R is 2i/2R)."""
    m, rows = p.dimension, np.arange(lo, hi)
    ax = np.arange(R) / R
    phase = 2j * math.pi * p._freq_arr[:, :, None]  # (terms, m, 1)
    heads = [np.exp(phase[:, j] * ax[rows // R ** (k - 1 - j) % R]) for j in range(k)]
    tails = np.exp(phase[:, k:] * ax)
    out = np.zeros((hi - lo, R ** (m - k)), dtype=complex)
    for t, (_, coeff) in enumerate(p.terms):
        head = functools.reduce(np.multiply, [table[t] for table in heads[1:]], coeff * heads[0][t])
        out += functools.reduce(np.multiply.outer, [head, *tails[t]]).reshape(hi - lo, -1)
    return out


def min_modulus(p: TrigPolynomial, resolution: int) -> MinModulusResult:
    """min |p| on the grid (i/R)^m, R = resolution, by blocks of rows on
    ``_map_blocks`` that keep only their minimum and first argmin, then one
    ``eval_points`` call on the local grid of step h/q over +-h around the
    grid argmin (h = 1/R); the grid point wins ties.  [lower_bound, minimum]
    brackets min |p| over the torus: lower_bound = grid_min - L h/2 - rho,
    rounded down, since each point is within h/2 of a node in the max norm,
    for which L (``lipschitz_bound``) is a Lipschitz constant, and rho bounds
    the rounding (``_rounding_radius``).  A resolution that is not an
    integer >= 16, or more than GRID_BUDGET_DEFAULT points (resolution^m),
    raises ValueError before any value is computed."""
    from fractions import Fraction

    _check_integer(resolution, "resolution must be an integer", 16, "resolution must be >= 16")
    m = p.dimension
    if resolution**m > GRID_BUDGET_DEFAULT:
        raise ValueError(f"min |p| grid of {resolution}^{m} points exceeds the budget "
                         f"{GRID_BUDGET_DEFAULT}")
    h, width = 1.0 / resolution, resolution ** (m - 1)

    def block(lo: int, hi: int) -> tuple[float, int]:
        mods = np.abs(_grid_rows(p, resolution, 1, lo, hi)).reshape(-1)
        i = int(np.argmin(mods))
        return float(mods[i]), lo * width + i

    # min keeps the first of equal minima, as argmin does within a block
    blocks = _map_blocks(block, resolution, max(1, _GRID_BLOCK // width))
    grid_min, flat = min(blocks, key=lambda part: part[0])
    node = np.array(np.unravel_index(flat, (resolution,) * m), dtype=float) * h
    q = (int(4096 ** (1 / m)) - 1) // 2  # (2q + 1)^m <= 2^12 local points
    near = node + product_grid(np.arange(-q, q + 1) * (h / max(q, 1)), m)
    mods = np.abs(p.eval_points(near))
    i = int(np.argmin(mods))
    minimum, best = min((grid_min, node), (float(mods[i]), near[i]), key=lambda part: part[0])
    lip, rho = p.lipschitz_bound(), _rounding_radius(p.terms, m)
    exact = Fraction(grid_min) - Fraction(lip) / (2 * resolution) - Fraction(rho)
    lower = float(exact)
    lower = math.nextafter(lower, -math.inf) if Fraction(lower) > exact else lower
    return MinModulusResult(minimum, reduce_mod1(best), lower, lip)


def haar_average(p: TrigPolynomial, hperp_basis: Sequence[Sequence[int]]) -> TrigPolynomial:
    """Exact Haar convolution over the subgroup annihilated by ``hperp_basis``:
    keeps precisely the terms whose frequency lies in the integer span of the
    basis (decided by exact integer linear algebra)."""
    basis = []
    for row in hperp_basis:
        row = list(row)
        if any(int(x) != x for x in row):
            raise ValueError("annihilator basis must be integral")
        if len(row) != p.dimension:
            raise ValueError("annihilator basis has wrong dimension")
        basis.append([int(x) for x in row])
    kept = [
        (freq, coeff)
        for freq, coeff in p.terms
        if lattice_contains(basis, list(freq))
    ]
    return TrigPolynomial(p.dimension, kept)


def load_polynomial(path: str) -> TrigPolynomial:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "dimension" not in data or "terms" not in data:
        raise ValueError("polynomial file needs 'dimension' and 'terms'")
    d = data["dimension"]
    _check_integer(d, f"polynomial 'dimension' must be an integer, got {d!r}")
    terms = []
    for i, t in enumerate(_json_list(data["terms"], "polynomial 'terms'")):
        what = f"polynomial term {i}"
        if not isinstance(t, dict):
            raise ValueError(f"{what} must be an object, got {t!r}")
        freq = _json_list(t.get("freq"), f"{what} 'freq'")
        freq = [_json_number(f, f"{what} 'freq' entry") for f in freq]
        re, im = (_json_number(t.get(k, 0.0), f"{what} '{k}'") for k in ("re", "im"))
        terms.append((tuple(freq), complex(re, im)))
    return TrigPolynomial(d, terms)
