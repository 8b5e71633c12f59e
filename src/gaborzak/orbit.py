"""Orbits of the torus translation z -> z + gamma.

Classifies the orbit closure (finite / dense / infinite-non-dense), computes
the annihilator lattice H-perp = {r in Z^m : <r, gamma> in Z}, parametrizes
the closure subgroup H through the Smith normal form of the relation matrix,
samples H on an equispaced grid, and lists orbit points (``StepKernel``).

Relations supported entirely on coordinates declared rational are computed by
exact integer arithmetic (unbounded).  Relations involving declared-irrational
coordinates are the short rows (w r, P(<r,gamma> - k)) of an integer LLL
reduction, kept up to a coefficient bound and a tolerance; they are advisory.
Declared tags stay authoritative, and a numerically-rational "irrational"
coordinate is reported as an ambiguity rather than silently reclassified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousClassification, NumericalFailure
from .lattice import hnf_basis, kernel_of_form, smith_normal_form
from .numerics import (
    STEP_BLOCK,
    Coordinate,
    StepKernel,
    TorusPoint,
    _check_integer,
    _map_blocks,
    fixed_order_matmul,
    inner_product_mod1_dist,
    parse_coordinate,
    product_grid,
    reduce_mod1,
    turns_to_float,
)

__all__ = [
    "Gamma",
    "OrbitClass",
    "SubgroupH",
    "classify",
    "subgroup_closure",
    "haar_sample_points",
    "orbit_points",
    "FINITE",
    "DENSE",
    "INFINITE_NON_DENSE",
]

FINITE = "Finite"
DENSE = "Dense"
INFINITE_NON_DENSE = "InfiniteNonDense"


@dataclass(frozen=True)
class Gamma:
    """Translation vector on T^m with exact per-coordinate arithmetic."""

    coords: tuple[Coordinate, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("gamma needs at least one coordinate")

    @classmethod
    def from_config(cls, cfg) -> "Gamma":
        """gamma = (-alpha, beta) from the unique off-lattice point of cfg."""
        off = [pt for pt, is_lat in zip(cfg.points, cfg.lattice_mask) if not is_lat]
        if len(off) != 1:
            raise ValueError(
                f"configuration has {len(off)} off-lattice points, need exactly 1"
            )
        alpha, beta = off[0].x, off[0].y
        return cls(tuple(-a for a in alpha) + tuple(beta))

    @classmethod
    def from_tokens(cls, text: str) -> "Gamma":
        return cls(tuple(parse_coordinate(tok) for tok in text.split(",")))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def all_rational(self) -> bool:
        return all(c.is_rational for c in self.coords)


@dataclass(frozen=True)
class OrbitClass:
    kind: str  # Finite | Dense | InfiniteNonDense
    relations: tuple[tuple[int, ...], ...]  # HNF basis of found relations
    order: int | None
    search_bound: int
    tolerance: float


@dataclass(frozen=True)
class SubgroupH:
    """Closure subgroup H of the orbit, described exactly.

    z lies in H iff <r, z> is an integer for every annihilator basis row.  The
    identity component is spanned by the connected-direction integer vectors;
    there are component_count torsion cosets.
    """

    dimension: int
    annihilator_basis: tuple[tuple[int, ...], ...]
    connected_directions: tuple[tuple[int, ...], ...]
    component_count: int
    torsion_representatives: tuple[TorusPoint, ...]

    @property
    def haar_dimension(self) -> int:
        return len(self.connected_directions)


def _exact_rational_relations(gamma: Gamma) -> list[list[int]]:
    """Basis of relations supported on the rational coordinates (exact)."""
    m = gamma.dimension
    rat_idx = [i for i, c in enumerate(gamma.coords) if c.is_rational]
    if not rat_idx:
        return []
    fracs = [gamma.coords[i].fraction for i in rat_idx]
    q_lcm = math.lcm(*(f.denominator for f in fracs))
    form = [int(f * q_lcm) for f in fracs] + [q_lcm]
    rows = []
    for vec in kernel_of_form(form):
        full = [0] * m
        for j, i in enumerate(rat_idx):
            full[i] = vec[j]
        if any(full):
            rows.append(full)
    return [list(r) for r in hnf_basis(rows)]


_RELATION_SCALE = 10**15


def _lll(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of linearly independent integer rows,
    by the all-integer variant (Cohen, GTM 138, Algorithm 2.6.7): d[i + 1] is
    the Gram determinant of rows 0..i and lam[k][j] = d[j + 1] mu[k][j], so
    the Gram-Schmidt data stay exact and every division is exact."""
    b = [list(r) for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk * lk:
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            big = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
            d[k] = big
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def _numeric_relation_search(gamma: Gamma, bound: int, tol: float, support):
    """Relations r supported on `support` with |<r,gamma> - k| < tol, max |r_i|
    <= bound and a nonzero coefficient on an irrational coordinate, read off
    the LLL-reduced basis of the rows w e_i + round(P gamma_i) e_m (i in
    support) and P e_m.  The weight w = P tol / bound makes that box a cube of
    side P tol in the lattice norm, so its relations are short vectors."""
    m = gamma.dimension
    w = max(1, round(_RELATION_SCALE * tol / bound))
    rows = [[w * (i == j) for j in range(m)] + [round(gamma.coords[i].exact * _RELATION_SCALE)]
            for i in support]
    irr = [not c.is_rational for c in gamma.coords]
    hits = []
    for row in _lll(rows + [[0] * m + [_RELATION_SCALE]]):
        r = [x // w for x in row[:m]]
        if not any(ri != 0 and ir for ri, ir in zip(r, irr)):
            continue  # purely-rational support handled exactly elsewhere
        if max(abs(x) for x in r) > bound:
            continue
        if inner_product_mod1_dist(r, gamma.coords) >= tol:
            continue
        sign = -1 if next(x for x in r if x != 0) < 0 else 1
        hits.append(tuple(sign * x for x in r))
    return sorted(hits)


def classify(gamma: Gamma, search_bound: int = 50, tolerance: float = 1e-9) -> OrbitClass:
    """Orbit-closure trichotomy for the translation by gamma.

    Finite iff every coordinate is declared rational (exact; order is the lcm
    of denominators).  Otherwise the exact rational relations and the LLL
    search decide: Dense means it found no relation r touching an irrational
    coordinate with max |r_i| <= search_bound and |<r,gamma> - k| < tolerance.
    A declared-irrational coordinate that carries such a relation together
    with the rational coordinates alone raises AmbiguousClassification.
    """
    _check_integer(search_bound, "search bound must be an integer", 1, "search bound must be >= 1")
    if not (0.0 < tolerance <= 1e-6):
        raise ValueError("tolerance must lie in (0, 1e-6]")
    m = gamma.dimension
    exact = _exact_rational_relations(gamma)
    if gamma.all_rational:
        return OrbitClass(
            kind=FINITE,
            relations=tuple(tuple(r) for r in exact),
            order=math.lcm(*(c.fraction.denominator for c in gamma.coords)),
            search_bound=search_bound,
            tolerance=tolerance,
        )
    rat = [j for j, c in enumerate(gamma.coords) if c.is_rational]
    single = [(r, i) for i in range(m) if i not in rat
              for r in _numeric_relation_search(gamma, search_bound, tolerance, [i] + rat)]
    if single:
        r, i = min(single)
        raise AmbiguousClassification(
            f"declared-irrational coordinate {i} satisfies the integer relation "
            f"{r} within tolerance {tolerance}; declaration and numerics disagree",
            coordinate_index=i,
        )
    numeric = _numeric_relation_search(gamma, search_bound, tolerance, range(m))
    basis = hnf_basis(exact + [list(r) for r in numeric])
    return OrbitClass(
        kind=INFINITE_NON_DENSE if basis else DENSE,
        relations=tuple(tuple(r) for r in basis),
        order=None,
        search_bound=search_bound,
        tolerance=tolerance,
    )


def subgroup_closure(gamma: Gamma, cls: OrbitClass) -> SubgroupH:
    """Closure subgroup H from the classification's relation basis.

    Smith form U B V = diag(d) of the relation matrix B turns membership
    B z in Z^k into d_i y_i in Z for y = V^{-1} z: the last m-k columns of V
    span the identity component's tangent lattice and the torsion cosets are
    V (j_1/d_1, ..., j_k/d_k, 0, ...) mod 1.
    """
    m = gamma.dimension
    basis = [list(r) for r in cls.relations]
    # HNF reduction takes integer combinations of the found relations, which
    # can amplify advisory residuals; anything past 1e-6 is inconsistent.
    for row in basis:
        resid = inner_product_mod1_dist(row, gamma.coords)
        if resid >= 1e-6:
            raise NumericalFailure(
                f"relation {tuple(row)} has residual {resid:.3e}; "
                "relation set is numerically inconsistent"
            )
    if not basis:
        ident = tuple(
            tuple(1 if i == j else 0 for i in range(m)) for j in range(m)
        )
        return SubgroupH(
            dimension=m,
            annihilator_basis=(),
            connected_directions=ident,
            component_count=1,
            torsion_representatives=(TorusPoint((0.0,) * m),),
        )
    _, dvec, vmat = smith_normal_form(basis)
    k = len(basis)
    if len(dvec) < k or any(d == 0 for d in dvec[:k]):
        raise NumericalFailure("relation basis is rank-deficient")
    dvec = [abs(d) for d in dvec[:k]]
    tangent = tuple(
        tuple(vmat[i][j] for i in range(m)) for j in range(k, m)
    )
    component_count = 1
    for d in dvec:
        component_count *= d
    if component_count > 10**6:
        raise ValueError(
            f"component count {component_count} too large to materialize"
        )
    reps = []
    for combo in itertools.product(*(range(d) for d in dvec)):
        coords = []
        for i in range(m):
            val = Fraction(0)
            for j, (jj, dj) in enumerate(zip(combo, dvec)):
                val += Fraction(vmat[i][j] * jj, dj)
            val -= math.floor(val)
            coords.append(float(val))
        reps.append(reduce_mod1(np.array(coords)))
    return SubgroupH(
        dimension=m,
        annihilator_basis=tuple(tuple(r) for r in basis),
        connected_directions=tangent,
        component_count=component_count,
        torsion_representatives=tuple(reps),
    )


def _haar_grid(H: SubgroupH, n: int, k: int) -> np.ndarray:
    """(component_count * n**k, m) rows, not reduced mod 1: each torsion
    representative of H plus sum_{i<k} (l_i/n) b_i along the first k
    connected directions b_i, the last l_i varying fastest."""
    m = H.dimension
    dirs = np.array(H.connected_directions[:k], dtype=float).reshape(k, m)
    steps = fixed_order_matmul(product_grid(np.arange(n) / n, k), dirs)
    reps = np.array([r.coords for r in H.torsion_representatives])
    return (reps[:, None, :] + steps).reshape(-1, m)


def haar_sample_points(H: SubgroupH, points_per_dimension: int) -> np.ndarray:
    """(component_count * N**t, m) array in [0, 1)^m of the equispaced grid
    on H (``_haar_grid`` over all t connected directions).  A count that is
    not an integer >= 2 raises ValueError."""
    _check_integer(points_per_dimension, "points-per-dimension must be an integer",
                   2, "points-per-dimension must be >= 2")
    pts = np.mod(_haar_grid(H, points_per_dimension, H.haar_dimension), 1.0)
    pts[pts >= 1.0] -= 1.0  # a tiny negative sum rounds up to 1.0
    return pts


_ORBIT_BLOCK = 64 * STEP_BLOCK  # steps per orbit_points block


def orbit_points(z0: TorusPoint, gamma: Gamma, count: int) -> np.ndarray:
    """(count, m) float array of z0 + j*gamma mod 1 for j = 0..count-1, the
    turns of one ``StepKernel`` per block of steps, read out, on every
    usable CPU (``_map_blocks``); a point does not depend on its block."""
    _check_integer(count, least=1, small="count must be >= 1")
    m = gamma.dimension
    if len(z0) != m:
        raise ValueError("dimension mismatch between point and gamma")
    out = np.empty((count, m), dtype=float)
    kernel = StepKernel([((1,), (c,), z) for c, z in zip(gamma.coords, z0.coords)])

    def block(lo: int, hi: int) -> None:
        out[lo:hi] = turns_to_float(kernel(np.arange(lo, hi)))

    _map_blocks(block, count, _ORBIT_BLOCK)
    return out
