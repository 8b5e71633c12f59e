"""Finite Gabor configurations and their linear-independence certificates.

Atoms follow the sign convention  a_k(t) = e^{-2 pi i <y_k, t>} f(t - x_k).
The Gram matrix G[j,k] = <a_j, a_k> (inner product conjugate-linear in the
second slot) gives a numerical independence certificate through its smallest
eigenvalue, and the least-squares dependence residual

    min_c || sum_k c_k a_k - a_target ||_2

is the testable quantity: it stays strictly positive for nonzero windows.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfigWarning, NumericalFailure
from .numerics import (
    Coordinate,
    QuadratureSpec,
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


class _AtomAsWindow:
    """Adapter letting the Zak lattice-sum machinery run on a single atom."""

    def __init__(self, w: Window, pt: TFPoint):
        self.window = w
        self.pt = pt
        self.dimension = w.dimension
        self.normalization = w.normalization
        self.effective_radius = w.effective_radius + float(
            np.max(np.abs(pt.x_floats()))
        )

    def eval_many(self, tpts: np.ndarray) -> np.ndarray:
        return _atom_eval_many(self.window, self.pt, tpts)


def _quadrature_nodes(spec: QuadratureSpec, radius: float, d: int):
    n = spec.points_per_axis
    if spec.scheme == "gauss-legendre":
        x, wts = np.polynomial.legendre.leggauss(n)
        nodes1 = radius * x
        w1 = radius * wts
    else:
        h = 2.0 * radius / n
        nodes1 = -radius + (np.arange(n) + 0.5) * h
        w1 = np.full(n, h)
    return product_grid(nodes1, d), np.prod(product_grid(w1, d), axis=1)


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


def gram_matrix(w: Window, cfg: GaborConfig, quad: QuadratureSpec) -> GramResult:
    """Pairwise atom inner products by quadrature over a hypercube whose
    radius covers the window decay radius plus the largest time shift."""
    if len(cfg) < 1:
        raise ValueError("configuration must have at least one point")
    max_shift = max(
        float(np.max(np.abs(pt.x_floats()))) for pt in cfg.points
    )
    radius = w.effective_radius + max_shift + 2.0
    nodes, wts = _quadrature_nodes(quad, radius, cfg.dimension)
    atoms = np.stack(
        [_atom_eval_many(w, pt, nodes) for pt in cfg.points], axis=1
    )
    G = (atoms * wts[:, None]).conj().T @ atoms
    # (weighted A^H A)[j,k] = sum_t w_t conj(a_j) a_k = <a_k, a_j>: transpose
    G = G.T
    return _finalize_gram(G, "time-domain")


def gram_matrix_zak(
    w: Window, cfg: GaborConfig, resolution: int = 64, truncation: int | None = None
) -> GramResult:
    """Gram matrix through the Zak image: <a_j, a_k> equals the grid mean of
    Za_j conj(Za_k) over [0,1)^{2d} (unitarity); the integrand's
    quasi-periodic phases cancel pairwise, so the grid mean converges fast.
    With the atoms' grid images as the columns of A, G = A^T conj(A) / M^{2d}
    is one matrix product."""
    from .zak import _choose_truncation, _decay_bounds, _grid_sums

    d, M = cfg.dimension, resolution
    images = []
    for pt in cfg.points:
        adapter = _AtomAsWindow(w, pt)
        if truncation is None:
            K, _ = _choose_truncation(_decay_bounds(adapter), d, 1e-10)
        else:
            K = truncation
        images.append(_grid_sums(adapter, M, K).ravel())
    A = np.stack(images, axis=1)
    G = A.T @ A.conj() / M ** (2 * d)
    return _finalize_gram(G, "zak-domain")


def gaussian_gram_closed_form(cfg: GaborConfig, window: Window | None = None) -> GramResult:
    """Exact Gram entries for the unit-normalized Gaussian window.

    For g(t) = 2^{d/4} e^{-pi |t|^2}, completing the square in

        <a_j, a_k> = int e^{-2 pi i <y_j - y_k, t>} g(t-x_j) g(t-x_k) dt

    gives, with u = x_j - x_k and v = y_j - y_k,

        G[j,k] = e^{-pi (|u|^2 + |v|^2) / 2} * e^{-pi i <v, x_j + x_k>}.

    (Magnitude and phase checked against a 50-digit quadrature oracle.)
    """
    if window is not None:
        if not isinstance(window, GaussianWindow) or window.normalization != 1.0:
            raise ValueError(
                "closed form supports only the unit-normalized Gaussian window"
            )
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
    """
    if len(cfg) < 2:
        raise ValueError("need at least two points")
    if method == "time-domain":
        quad = quad or QuadratureSpec("composite-midpoint", 512, False)
        gram = gram_matrix(w, cfg, quad)
    elif method == "zak-domain":
        gram = gram_matrix_zak(w, cfg, resolution=resolution)
    else:
        raise ValueError(f"unknown method {method!r}")
    G = gram.matrix
    target = cfg.default_target_index() if target_index is None else target_index
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
    if "dimension" not in data or "points" not in data:
        raise ValueError("config needs 'dimension' and 'points'")
    d = int(data["dimension"])
    pts, mask = [], []
    for entry in data["points"]:
        x = tuple(coordinate_from_json(c) for c in entry["x"])
        y = tuple(coordinate_from_json(c) for c in entry["y"])
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
