"""Finite Gabor configurations and their linear-independence certificates.

Atoms follow the sign convention  a_k(t) = e^{-2 pi i <y_k, t>} f(t - x_k).
The Gram matrix G[j,k] = <a_j, a_k> (inner product conjugate-linear in the
second slot) gives a numerical independence certificate through its smallest
eigenvalue, and the least-squares dependence residual

    min_c || sum_k c_k a_k - a_target ||_2

is the testable quantity: it stays strictly positive for nonzero windows.
Both quadrature Grams are one rectangle rule on a product grid: the time
domain takes the composite midpoint nodes, and the Zak domain the nodes i/M,
which is what the grid mean of the atoms' Zak images reduces to.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfigWarning, NumericalFailure
from .numerics import (
    GRID_BUDGET_DEFAULT,
    Coordinate,
    QuadratureSpec,
    _check_integer,
    _json_list,
    coordinate_from_json,
    coordinate_to_json,
    product_grid,
)
from .windows import GaussianWindow, Window

__all__ = [
    "TFPoint",
    "GaborConfig",
    "GramResult",
    "DependenceCoefficients",
    "gram_matrix",
    "gram_matrix_zak",
    "gaussian_gram_closed_form",
    "dependence_residual",
    "fourier_dual_config",
    "config_from_json",
    "config_to_json",
]


@dataclass(frozen=True)
class TFPoint:
    """Time-frequency point (x, y) with exact coordinates."""

    x: tuple[Coordinate, ...]
    y: tuple[Coordinate, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y) or not self.x:
            raise ValueError("x and y must have equal positive length")

    @property
    def dimension(self) -> int:
        return len(self.x)

    def is_integer(self) -> bool:
        return all(
            c.is_rational and c.fraction.denominator == 1 for c in self.x + self.y
        )

    def x_floats(self) -> np.ndarray:
        return np.array([c.float() for c in self.x])

    def y_floats(self) -> np.ndarray:
        return np.array([c.float() for c in self.y])


@dataclass(frozen=True)
class GaborConfig:
    dimension: int
    points: tuple[TFPoint, ...]
    lattice_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.points) != len(self.lattice_mask):
            raise ValueError("mask length must match point count")
        for pt, is_lat in zip(self.points, self.lattice_mask):
            if pt.dimension != self.dimension:
                raise ValueError("point dimension mismatch")
            if is_lat and not pt.is_integer():
                raise ValueError(
                    "declared lattice point has a non-integer coordinate"
                )
        seen = set()
        for pt in self.points:
            key = (pt.x, pt.y)
            if key in seen:
                warnings.warn(
                    "configuration contains duplicate points; Gram matrix "
                    "will be singular",
                    DegenerateConfigWarning,
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.points)

    def off_lattice_indices(self) -> list[int]:
        return [i for i, b in enumerate(self.lattice_mask) if not b]

    def default_target_index(self) -> int:
        off = self.off_lattice_indices()
        return off[0] if len(off) == 1 else len(self.points) - 1


@dataclass(frozen=True)
class GramResult:
    matrix: np.ndarray = field(repr=False)
    smallest_eigenvalue: float
    residual_vector_norm: float
    method: str  # time-domain | zak-domain | closed-form

    @property
    def eigenvalues(self) -> np.ndarray:
        # same LAPACK driver as the stored smallest_eigenvalue, so the two
        # views never disagree (eigvalsh picks a different driver and can
        # drift by an ulp)
        return np.linalg.eigh(self.matrix)[0]


@dataclass(frozen=True)
class DependenceCoefficients:
    c: tuple[complex, ...]
    target_index: int


def _atom_eval_many(w: Window, pt: TFPoint, tpts: np.ndarray) -> np.ndarray:
    vals = np.asarray(w.eval_many(tpts - pt.x_floats()[None, :]))
    phase = tpts @ pt.y_floats()
    return vals * np.exp(-2j * np.pi * phase)


def _finalize_gram(G: np.ndarray, method: str) -> GramResult:
    if not np.all(np.isfinite(G)):
        raise NumericalFailure("non-finite Gram entries from quadrature")
    G = 0.5 * (G + G.conj().T)
    eigvals, eigvecs = np.linalg.eigh(G)
    v0 = eigvecs[:, 0]
    resid = float(np.linalg.norm(G @ v0 - eigvals[0] * v0))
    return GramResult(
        matrix=G,
        smallest_eigenvalue=float(eigvals[0]),
        residual_vector_norm=resid,
        method=method,
    )


def _rule_gram(w: Window, cfg: GaborConfig, count: int, axis, step: float, method: str) -> GramResult:
    """The rectangle rule G[j,k] = step^d sum_t conj(a_k(t)) a_j(t) over the
    product of ``count`` nodes per axis that ``axis()`` returns, spaced
    ``step`` apart.  More than GRID_BUDGET_DEFAULT atom values (count^d per
    atom) raise ValueError before the axis is built."""
    d = cfg.dimension
    if w.dimension != d:
        raise ValueError(f"window dimension {w.dimension} does not match the "
                         f"configuration dimension {d}")
    if count**d * len(cfg) > GRID_BUDGET_DEFAULT:
        raise ValueError(f"Gram rule on {count}^{d} nodes x {len(cfg)} atoms exceeds the "
                         f"budget of {GRID_BUDGET_DEFAULT}; lower --points or --resolution")
    nodes = product_grid(axis(), d)
    atoms = np.stack([_atom_eval_many(w, pt, nodes) for pt in cfg.points], axis=1)
    G = (atoms * math.prod([step] * d)).conj().T @ atoms
    # (h^d A^H A)[j,k] = h^d sum_t conj(a_j) a_k = <a_k, a_j>: transpose
    return _finalize_gram(G.T, method)


def _rule_radius(w: Window, cfg: GaborConfig) -> float:
    """Half-width of the box that holds every atom: the window's decay
    radius plus the largest time shift, plus 2."""
    if len(cfg) < 1:
        raise ValueError("configuration must have at least one point")
    max_shift = max(float(np.max(np.abs(pt.x_floats()))) for pt in cfg.points)
    return w.effective_radius + max_shift + 2.0


def gram_matrix(w: Window, cfg: GaborConfig, quad: QuadratureSpec) -> GramResult:
    """Pairwise atom inner products by the composite midpoint rule with
    ``quad.points_per_axis`` nodes per axis of [-R, R]^d (``_rule_radius``)."""
    radius = _rule_radius(w, cfg)
    n = quad.points_per_axis
    h = 2.0 * radius / n
    return _rule_gram(w, cfg, n, lambda: -radius + (np.arange(n) + 0.5) * h, h, "time-domain")


def gram_matrix_zak(
    w: Window, cfg: GaborConfig, resolution: int = 64, truncation: int | None = None
) -> GramResult:
    """Gram matrix through the Zak image, which is the rectangle rule with
    step 1/M.  By unitarity <a_j, a_k> is the mean of Za_j conj(Za_k) over
    [0,1)^{2d}; on the M-grid the w-mean of e(-<w, kappa - kappa'>) vanishes
    unless kappa = kappa' mod M, which for |kappa|_inf <= K and 2K + 1 <= M
    leaves kappa = kappa', so the grid mean is

        M^-d sum_{t in (Z/M)^d, |kappa|_inf <= K} a_j(t + kappa) conj(a_k(t + kappa)),

    the rule on the nodes i/M with -KM <= i < (K+1)M per axis.  (For
    2K + 1 > M the grid mean adds aliased cross terms; this sum drops them.)
    With truncation=None the nodes are (1/M)Z in [-R, R] (``_rule_radius``).
    A resolution that is not an integer >= 4, and a truncation that is not
    an integer >= 1, raise ValueError."""
    M = resolution
    _check_integer(M, "resolution must be an integer", 4, "resolution must be >= 4")
    if truncation is not None:
        _check_integer(truncation, "truncation must be an integer >= 1",
                       1, "truncation must be an integer >= 1")
    if truncation is None:
        radius = _rule_radius(w, cfg)
        lo, hi = math.ceil(-radius * M), math.floor(radius * M) + 1
    else:
        lo, hi = -truncation * M, (truncation + 1) * M
    return _rule_gram(w, cfg, hi - lo, lambda: np.arange(lo, hi) / M, 1.0 / M, "zak-domain")


def gaussian_gram_closed_form(cfg: GaborConfig, window: Window | None = None) -> GramResult:
    """Exact Gram entries for the unit-normalized Gaussian window.

    For g(t) = 2^{d/4} e^{-pi |t|^2}, completing the square in

        <a_j, a_k> = int e^{-2 pi i <y_j - y_k, t>} g(t-x_j) g(t-x_k) dt

    gives, with u = x_j - x_k and v = y_j - y_k,

        G[j,k] = e^{-pi (|u|^2 + |v|^2) / 2} * e^{-pi i <v, x_j + x_k>}.

    (Magnitude and phase checked against a 50-digit quadrature oracle.)
    """
    if window is not None:
        if not isinstance(window, GaussianWindow):
            raise ValueError(
                "closed form supports only the unit-normalized Gaussian window"
            )
        if window.dimension != cfg.dimension:
            raise ValueError(f"window dimension {window.dimension} does not match the "
                             f"configuration dimension {cfg.dimension}")
    n = len(cfg)
    xs = [pt.x_floats() for pt in cfg.points]
    ys = [pt.y_floats() for pt in cfg.points]
    G = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            u = xs[j] - xs[k]
            v = ys[j] - ys[k]
            mag = math.exp(-math.pi * (float(u @ u) + float(v @ v)) / 2.0)
            G[j, k] = mag * np.exp(-1j * math.pi * float(v @ (xs[j] + xs[k])))
    return _finalize_gram(G, "closed-form")


def dependence_residual(
    w: Window,
    cfg: GaborConfig,
    method: str = "time-domain",
    quad: QuadratureSpec | None = None,
    resolution: int = 64,
    target_index: int | None = None,
) -> tuple[DependenceCoefficients, float]:
    """Least-squares coefficients against the target atom and the minimized
    residual norm.

    Normal equations in Gram form: with b_k = G[k, target] the optimal
    coefficients satisfy conj(c) = Gsub^{-1} b, and
    residual^2 = G[target,target] - b^H Gsub^{-1} b (Schur complement).
    A target_index that is not an integer (a bool is not one) or lies
    outside 0..N-1 raises ValueError.
    """
    if len(cfg) < 2:
        raise ValueError("need at least two points")
    target = cfg.default_target_index() if target_index is None else target_index
    _check_integer(target, f"target index {target!r} is not an integer")
    if not 0 <= target < len(cfg):
        raise ValueError(f"target index {target} is outside 0..{len(cfg) - 1}")
    if method == "time-domain":
        quad = quad or QuadratureSpec("composite-midpoint", 512, False)
        gram = gram_matrix(w, cfg, quad)
    elif method == "zak-domain":
        gram = gram_matrix_zak(w, cfg, resolution=resolution)
    else:
        raise ValueError(f"unknown method {method!r}")
    G = gram.matrix
    others = [i for i in range(len(cfg)) if i != target]
    Gsub = G[np.ix_(others, others)]
    b = G[others, target]
    try:
        x = np.linalg.solve(Gsub, b)
    except np.linalg.LinAlgError:
        warnings.warn(
            "reduced Gram block is singular; using pseudo-inverse",
            DegenerateConfigWarning,
        )
        x = np.linalg.pinv(Gsub) @ b
    coeffs = np.conj(x)
    resid_sq = float(np.real(G[target, target] - b.conj() @ x))
    residual = math.sqrt(max(resid_sq, 0.0))
    return (
        DependenceCoefficients(c=tuple(complex(v) for v in coeffs), target_index=target),
        residual,
    )


def fourier_dual_config(cfg: GaborConfig) -> GaborConfig:
    """(x, y) -> (-y, x) on every point, exactly; with the convention
    g^(xi) = int g(t) e^{-2 pi i <xi, t>} dt the Fourier transform maps the
    atom at (x, y) to a unimodular multiple of the atom at (-y, x), so the
    mixed-integer shape is preserved and (alpha, beta) becomes (-beta, alpha).
    """
    new_pts = tuple(
        TFPoint(x=tuple(-c for c in pt.y), y=pt.x) for pt in cfg.points
    )
    return GaborConfig(
        dimension=cfg.dimension, points=new_pts, lattice_mask=cfg.lattice_mask
    )


def config_from_json(source) -> GaborConfig:
    """Load a configuration from a JSON file path, file object, or dict."""
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    if not isinstance(data, dict) or "dimension" not in data or "points" not in data:
        raise ValueError("config needs 'dimension' and 'points'")
    d = data["dimension"]
    _check_integer(d, f"config 'dimension' must be an integer, got {d!r}")
    pts, mask = [], []
    for i, entry in enumerate(_json_list(data["points"], "config 'points'")):
        what = f"config point {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{what} must be an object, got {entry!r}")
        x, y = (tuple(map(coordinate_from_json, _json_list(entry.get(k), f"{what} '{k}'")))
                for k in ("x", "y"))
        pt = TFPoint(x=x, y=y)
        pts.append(pt)
        mask.append(bool(entry.get("lattice", pt.is_integer())))
    return GaborConfig(dimension=d, points=tuple(pts), lattice_mask=tuple(mask))


def config_to_json(cfg: GaborConfig) -> dict:
    return {
        "dimension": cfg.dimension,
        "points": [
            {
                "x": [coordinate_to_json(c) for c in pt.x],
                "y": [coordinate_to_json(c) for c in pt.y],
                "lattice": bool(is_lat),
            }
            for pt, is_lat in zip(cfg.points, cfg.lattice_mask)
        ],
    }
