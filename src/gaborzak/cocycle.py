"""Multiplicative and phase cocycles along torus translation orbits.

The modulus cocycle F(z+gamma) = q(z) F(z) with q = |p| is propagated by
accumulating ln q along the orbit.  Its log-growth functional

    Theta(lambda) = integral over H of ln q(lambda + h) dm_H(h)

is computed two ways: a Birkhoff average along the orbit and a Haar-grid
quadrature on the closure subgroup H (they agree by unique ergodicity), whose
one rule is the composite midpoint refined near zeros of p.  Either raises
NumericalFailure when zeros of p leave 1% of its steps or of H unresolved.

The phase side implements the measurable branch theta of a nonzero complex
value (four-case arctangent ladder), the n-step phase recursion

    theta_n = theta_0 + sum_{j<n} phi(t-j a, w+j b) + n<t,b> - n(n-1)/2 <a,b>

(everything mod 1), synthetic phase fields built from the one-step recursion,
the normalized sequence zeta_n = exp(2 pi i theta_n / n), and the two cluster
set descriptions whose forced equality drives the rigidity argument.

The Birkhoff average and ``propagate`` read p along the orbit by its
characters: p(lambda + j gamma) = sum_k c_k e(<f_k, lambda>) e(<f_k, gamma>)^j,
from two small exp tables per term (``_orbit_values``).  The Birkhoff logs, the
phase mean's lifts and each component of a Haar grid are summed with one exact
rounding (``exact_sum``).
The phase entry points read one vectorized orbit pass over an array of steps
j: the long-double lift t - j alpha, the reduced points, one ``eval_points``
call (Zak-field sources have no characters) and the branch ladder as nested
``np.where``.  A call's fixed cost is a handful of array operations: alpha and
beta become long doubles once per call (once per synthetic field), with no
per-step Python loop and no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalFailure, PhaseUndefined
from .numerics import (
    GRID_BUDGET_DEFAULT,
    Coordinate,
    STEP_BLOCK,
    QuadratureSpec,
    TorusPoint,
    exact_sum,
    fixed_order_matmul,
    inner_product_mod1_dist,
    product_grid,
    reduce_mod1,
    split_inner_product,
    step_residue_tables,
    step_residues,
)
# haar_sample_points and orbit_points are unused here but stay module
# attributes: the traced benchmark (bench/tracing.py) rebinds both
from .orbit import Gamma, SubgroupH, haar_sample_points, orbit_points  # noqa: F401
from .trigpoly import TrigPolynomial

__all__ = [
    "CocycleTrajectory",
    "ThetaEstimate",
    "PhaseBranch",
    "ClusterSet",
    "propagate",
    "theta_birkhoff",
    "theta_haar",
    "case3_verdict",
    "balanced_fraction",
    "phase_branch",
    "phase_cocycle_iterate",
    "SyntheticPhaseField",
    "normalized_phase_sequence",
    "phase_mean_along_orbit",
    "cluster_set_c1",
    "cluster_set_c2",
    "cluster_sets_match",
    "rigidity_scan",
]

_REFINE_DEPTH_CAP = 40
# total split budget per quadrature call: isolated zeros need a few hundred
# splits, while a zero set of positive measure doubles the frontier at every
# depth.  Exhausting it routes the rest into the at-cap tally instead of
# hanging; splits are granted in frontier order, so coarse cells go first
_REFINE_CELL_BUDGET = 50_000
# grid points per walk of Theta over many base points, so memory stays bounded
_HAAR_GROUP_POINTS = 1 << 16


@dataclass(frozen=True)
class CocycleTrajectory:
    base: TorusPoint
    gamma: Gamma
    logF: np.ndarray  # length n_max+1, logF[n] = ln F(base + n gamma)
    skipped: tuple[tuple[int, str], ...]
    comparable: np.ndarray  # comparable[n] False once a gap occurred before n

    @property
    def zero_orbit(self) -> bool:
        return bool(np.all(np.isneginf(self.logF)))


@dataclass(frozen=True)
class ThetaEstimate:
    value: float
    method: str  # birkhoff | haar-quadrature
    samples: int  # orbit length n, or points per tangent direction
    skipped_fraction: float
    splits: int = 0  # Haar refinement: cells split near a zero of p
    unresolved_volume: float = 0.0  # Haar measure left at the depth or split cap

    @property
    def reliable(self) -> bool:
        return self.skipped_fraction < 0.01


@dataclass(frozen=True)
class PhaseBranch:
    theta: float  # in [0, 1)
    case_tag: str  # re-positive | re-negative | im-positive | im-negative


@dataclass(frozen=True)
class ClusterSet:
    kind: str  # finite-roots | full-circle
    points: tuple[complex, ...]
    generator_angle: float  # angle of e^{-pi i <a,b>} in turns, mod 1


def _e(x) -> np.ndarray:
    """e(x) = exp(2 pi i x) of long-double turns x, reduced mod 1 first."""
    return np.exp(2j * np.pi * np.mod(x, np.longdouble(1.0)).astype(float))


def _orbit_values(p: TrigPolynomial, base: TorusPoint, gamma: Gamma, n: int) -> np.ndarray:
    """p(base + j gamma) for j < n, by characters, with no orbit points.

    Term k adds c_k e(<f_k, base>) w_k^j with w_k = e(theta_k) and theta_k =
    <f_k, gamma>.  For j = q B + r (B = STEP_BLOCK) that is the outer product
    of a table over the block starts, c_k e(<f_k, base>) e(theta_k q B), and
    one over the offsets, e(theta_k r).  A phase is its exact rational residue
    over den plus the step times the long-double irrational part of theta_k,
    reduced mod 1 first, so the value at a step does not depend on n.
    """
    m = gamma.dimension
    if p.dimension != m or len(base) != m:
        raise ValueError("dimension mismatch")
    starts = np.arange(-(-n // STEP_BLOCK), dtype=np.longdouble) * STEP_BLOCK
    offsets = np.arange(min(STEP_BLOCK, n), dtype=np.longdouble)
    z = np.array(base.coords, dtype=np.longdouble)
    out = np.zeros((len(starts), len(offsets)), dtype=complex)
    for freq, coeff in p.terms:
        rat, irr, _ = split_inner_product(freq, gamma.coords)
        irr = np.mod(irr, np.longdouble(1.0))
        den = np.longdouble(rat.denominator)
        rat_starts, rat_offsets = (
            np.asarray(t, dtype=np.longdouble) / den for t in step_residue_tables(rat, n)
        )
        lead = coeff * _e(np.dot(freq, z))
        out += (lead * _e(rat_starts + starts * irr))[:, None] * _e(
            rat_offsets + offsets * irr
        )
    return out.ravel()[:n]


def propagate(
    F0: float,
    base: TorusPoint,
    gamma: Gamma,
    q_source: TrigPolynomial,
    n_max: int,
    skip_threshold: float = 1e-8,
) -> CocycleTrajectory:
    """Accumulate logF[n] = ln F0 + sum_{j<n} ln |p(base + j gamma)|.

    The values of p along the orbit come from ``_orbit_values``.  Steps where
    |p| falls under the threshold contribute nothing and are recorded; all
    later values carry a non-comparable flag.  F0 = 0 encodes a zero of F:
    the whole forward orbit stays at log-value -inf.  A threshold that is not
    positive and an F0 that is not >= 0 (NaN included) raise ValueError.
    """
    if n_max < 1:
        raise ValueError("n-max must be >= 1")
    if not skip_threshold > 0:
        raise ValueError("skip threshold must be positive")
    if not F0 >= 0:
        raise ValueError("F0 must be >= 0")
    q = np.abs(_orbit_values(q_source, base, gamma, n_max))
    good = q >= skip_threshold
    contrib = np.where(good, np.log(np.where(good, q, 1.0)), 0.0)
    log_f0 = math.log(F0) if F0 > 0 else -math.inf
    logF = np.empty(n_max + 1)
    logF[0] = log_f0
    logF[1:] = log_f0 + np.cumsum(contrib)
    skipped = tuple(
        (int(j), f"|p| = {q[j]:.3e} below skip threshold")
        for j in np.nonzero(~good)[0]
    )
    comparable = np.ones(n_max + 1, dtype=bool)
    if skipped:
        comparable[skipped[0][0] + 1 :] = False
    return CocycleTrajectory(
        base=base,
        gamma=gamma,
        logF=logF,
        skipped=skipped,
        comparable=comparable,
    )


def theta_birkhoff(
    p: TrigPolynomial,
    lam: TorusPoint,
    gamma: Gamma,
    n: int,
    delta: float = 1e-8,
) -> ThetaEstimate:
    """(1/n) sum_{j<n} ln |p(lambda + j gamma)| over the non-skipped steps.

    The values along the orbit come from ``_orbit_values``, by characters; the
    logs of the steps with |p| >= delta are summed with one exact rounding
    (``exact_sum``).  Skipping 1% of the steps or more (an estimate that is
    not ``reliable``) raises NumericalFailure; delta <= 0 raises ValueError.
    """
    if n < 1000:
        raise ValueError("Birkhoff averaging needs n >= 1000")
    if not delta > 0:
        raise ValueError("delta must be positive")
    q = np.abs(_orbit_values(p, lam, gamma, n))
    good = q >= delta
    total = exact_sum(np.log(q[good]))
    est = ThetaEstimate(
        value=total / n,
        method="birkhoff",
        samples=n,
        skipped_fraction=1.0 - float(np.count_nonzero(good)) / n,
    )
    if not est.reliable:
        raise NumericalFailure(f"Birkhoff average skipped a fraction {est.skipped_fraction:.3e}"
                               f" of its steps with |p| below delta = {delta:g}")
    return est


def _refine_cells(p, bases, comp, dirs, centers, hw0, lips, delta, stats):
    """vol * ln max(|p|, delta) of each root cell, refined level by level.

    Cell i lies around tangent coordinates centers[i] on the coset through
    bases[comp[i]], with comp sorted and the rows in len(stats["splits"])
    equal blocks, one per base point.  Cells split while |p(center)| is within
    their Lipschitz radius, along the axis of largest lips * halfwidth, so a
    depth shares one halfwidth and one ``eval_points`` call; a block's splits
    go in frontier order, under its own budget.  A cell of radius 0 (p
    constant along H, as on a finite H) never splits, and at a zero of p it
    is unresolved.  ``stats`` gets each depth's clamped and unresolved volume
    per row, and the splits per block.  A split cell's value is value(lo) +
    value(hi) of its children, as in a recursion."""
    levels = []  # (values, split mask) per depth
    hw = hw0.copy()
    while len(centers):
        raw = p.eval_points(np.mod(bases[comp] + fixed_order_matmul(centers, dirs), 1.0))
        vals = np.hypot(raw.real, raw.imag)
        vol = float(np.prod(2.0 * hw))
        radius = 2.0 * float(np.dot(lips, hw))
        want = ~(vals > radius)
        block = comp // (len(bases) // len(stats["splits"]))
        # a cell's rank in its block is csum[1:] minus csum at the block's first cell
        csum = np.append(0, np.cumsum(want))
        room = _REFINE_CELL_BUDGET - stats["splits"][block] + csum[np.searchsorted(block, block)]
        split = want & (csum[1:] <= room) & (len(levels) < _REFINE_DEPTH_CAP)
        split &= radius > 0.0
        stats["splits"] += np.bincount(block[split], None, len(stats["splits"]))
        stats["at_cap"].append(vol * np.bincount(comp[want & ~split], None, len(bases)))
        leaf_vals = vals[~split]
        clamped = comp[~split][leaf_vals < delta]
        stats["clamped"].append(vol * np.bincount(clamped, None, len(bases)))
        # scalar math.log: np.log's SIMD loop differs in the last bit
        logs = map(math.log, np.maximum(leaf_vals, delta))
        values = np.empty(len(centers))
        values[~split] = vol * np.fromiter(logs, float, len(leaf_vals))
        levels.append((values, split))
        if not split.any():
            break
        axis = int(np.argmax(lips * hw))
        hw[axis] *= 0.5
        comp = np.repeat(comp[split], 2)
        centers = np.repeat(centers[split], 2, axis=0)
        centers[0::2, axis] -= hw[axis]
        centers[1::2, axis] += hw[axis]
    for (values, split), (below, _) in zip(levels[-2::-1], levels[:0:-1]):
        values[split] = below[0::2] + below[1::2]
    return levels[0][0] if levels else np.zeros(0)


def _tally(columns, k) -> np.ndarray:
    """Sum of the per-row columns per block of rows, row by row, as a loop adds them."""
    return np.column_stack(columns).reshape(k, -1).cumsum(axis=1)[:, -1]


def theta_haar(
    p: TrigPolynomial,
    lam: TorusPoint,
    H: SubgroupH,
    quad: QuadratureSpec,
    delta: float = 1e-8,
) -> ThetaEstimate:
    """Haar quadrature of ln max(|p|, delta) over the coset lambda + H.

    The one rule is the composite midpoint (ln |p| is periodic along H) with
    ``quad.points_per_axis`` nodes per tangent direction of H, on every torsion
    component in one ``eval_points`` call.  Cells near a zero of p, and the
    nodes of a finite H, go into one ``_refine_cells`` walk; the rest are
    plain.  Theta is the exact sum per component, then over the components,
    over their count.  A Gauss-Legendre or unrefined ``quad``, delta <= 0 and
    a grid of more than ``GRID_BUDGET_DEFAULT`` points raise ValueError; more
    than 1% of H unresolved, or clamped at |p| < delta (an estimate that is
    not ``reliable``), raises NumericalFailure.  This is the one-base call of
    ``_theta_haar_many``, which walks many bases at once, group by group.
    """
    return _theta_haar_many(p, [lam], H, quad, delta)[0]


def _theta_haar_many(p, lams, H, quad, delta=1e-8) -> list[ThetaEstimate]:
    """``theta_haar`` at every base point in ``lams``: coset i is the i-th block
    of component rows of one grid and one walk, with its own split budget and
    tallies, so each estimate has the bits of its own call.  The bases go in
    groups of at most ``_HAAR_GROUP_POINTS`` grid points (at least one base a
    group); the first failing base, in input order, raises."""
    if quad.scheme != "composite-midpoint" or not quad.refine_near_singularity:
        raise ValueError("Haar Theta takes only the refined composite-midpoint rule")
    if not delta > 0:
        raise ValueError("delta must be positive")
    n = quad.points_per_axis
    m, t_dim, n_reps = H.dimension, H.haar_dimension, H.component_count
    if p.dimension != m or any(len(lam) != m for lam in lams):
        raise ValueError("dimension mismatch")
    if n_reps * n**t_dim > GRID_BUDGET_DEFAULT:
        raise ValueError(f"Haar grid of {n_reps} x {n}^{t_dim} points exceeds the "
                         f"budget of {GRID_BUDGET_DEFAULT}; lower --points")
    # midpoint node l/N is the center of a cell of halfwidth 1/(2N) per axis
    hw0 = np.full(t_dim, 0.5 / n)
    vol = float(np.prod(2.0 * hw0))
    ygrid = product_grid(np.arange(n) / n, t_dim)
    dirs = np.array(H.connected_directions, dtype=float).reshape(t_dim, m)
    reps = np.array([r.coords for r in H.torsion_representatives])
    lips = np.array([p.lipschitz_along(b) for b in H.connected_directions])
    per_group = max(1, _HAAR_GROUP_POINTS // (n_reps * len(ygrid)))
    out = []
    for start in range(0, len(lams), per_group):
        group = np.array([lam.coords for lam in lams[start:start + per_group]])
        k = len(group)
        bases = (group[:, None, :] + reps).reshape(k * n_reps, m)
        grid = bases[:, None, :] + fixed_order_matmul(ygrid, dirs)
        grid = p.eval_points(np.mod(grid, 1.0, out=grid).reshape(-1, m))  # points -> values
        vals = np.abs(grid).reshape(len(bases), len(ygrid))
        plain = (vals > 2.0 * float(np.dot(lips, hw0))) & (t_dim > 0)
        logs = np.where(plain, np.log(np.maximum(vals, delta)), 0.0)
        clamped = vol * np.count_nonzero(plain & ~(vals >= delta), axis=1)
        stats = {"clamped": [clamped], "at_cap": [np.zeros(len(bases))], "splits": np.zeros(k, int)}
        comp, cell = np.divmod(np.flatnonzero(~plain), len(ygrid))
        leaves = _refine_cells(p, bases, comp, dirs, ygrid[cell], hw0, lips, delta, stats)
        bounds = np.searchsorted(comp, np.arange(len(bases) + 1)).tolist()
        contributions = [
            vol * exact_sum(row) + exact_sum(leaves[lo:hi])
            for row, lo, hi in zip(logs, bounds, bounds[1:])
        ]
        unresolved = _tally(stats["at_cap"], k) / n_reps
        skipped = _tally(stats["clamped"], k) / n_reps
        for i in range(k):
            if unresolved[i] > 1e-2:
                raise NumericalFailure(
                    "Haar quadrature failed to converge: refinement budget exhausted "
                    f"with volume fraction {unresolved[i]:.3e} unresolved"
                )
            value = math.fsum(contributions[i * n_reps:(i + 1) * n_reps]) / n_reps
            out.append(ThetaEstimate(value, "haar-quadrature", n, float(skipped[i]),
                                     int(stats["splits"][i]), float(unresolved[i])))
            if not out[-1].reliable:
                raise NumericalFailure(f"Haar quadrature clamped a fraction {skipped[i]:.3e} of H"
                                       f" with |p| below delta = {delta:g}")
    return out


def case3_verdict(theta: ThetaEstimate, tolerance: float = 1e-3) -> str:
    """growth (Theta > 0), decay (Theta < 0), or balanced (|Theta| small).

    Growth contradicts boundedness of a continuous F on the torus; decay
    contradicts recurrence of the orbit; balanced is the regime the modulus
    arguments cannot settle.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not theta.reliable:
        raise ValueError(
            f"estimate skipped {theta.skipped_fraction:.1%} of its mass; "
            "refusing a verdict on an unreliable estimate"
        )
    if theta.value > tolerance:
        return "growth"
    if theta.value < -tolerance:
        return "decay"
    return "balanced"


def balanced_fraction(
    p: TrigPolynomial,
    H: SubgroupH,
    quad: QuadratureSpec,
    resolution: int = 16,
    tolerance: float = 1e-6,
    delta: float = 1e-8,
) -> float:
    """Measure fraction of base points with |Theta| <= tolerance on a coarse
    grid.  Grid scale cannot distinguish measure-zero from positive-measure
    vanishing; this reports the fraction without adjudicating.  A resolution
    below 1 raises ValueError."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    flat = product_grid(np.arange(resolution) / resolution, H.dimension)
    ests = _theta_haar_many(p, [reduce_mod1(row) for row in flat], H, quad, delta)
    return sum(abs(est.value) <= tolerance for est in ests) / len(ests)


_CASE_TAGS = ("re-positive", "re-negative", "im-positive", "im-negative")


def _branch_ladder(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The four-case ladder of ``phase_branch`` over an array of values:
    branch values in [0, 1) and case indices into _CASE_TAGS."""
    values = np.asarray(values, dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"phase of non-finite value {values[~finite][0]} is undefined")
    if (values == 0).any():
        raise ValueError("phase of zero is undefined")
    pos, neg, up = values.real > 0.0, values.real < 0.0, values.imag > 0.0
    case = np.where(pos, 0, np.where(neg, 1, np.where(up, 2, 3)))
    with np.errstate(all="ignore"):  # Re = 0 rows are not read
        slope = np.arctan(values.imag / values.real)
    axis = np.where(up, 0.5 * math.pi, 1.5 * math.pi)
    rad = np.where(pos, slope, np.where(neg, slope + math.pi, axis))
    theta = np.mod(rad / (2.0 * math.pi), 1.0)
    # float modulo of a tiny negative angle rounds up to the excluded
    # endpoint; 0 and 1 are the same branch value
    theta[theta >= 1.0] = 0.0
    return theta, case


def phase_branch(value: complex) -> PhaseBranch:
    """Measurable phase branch of a nonzero finite complex number.

    Four-case ladder (radians): Re > 0 -> arctan(Im/Re); Re < 0 -> the same
    plus pi; Re = 0 -> pi/2 or 3 pi/2 by the sign of Im.  The result is
    divided by 2 pi and reduced into [0, 1) (the first case is negative for
    Im < 0); different branches differ by integers only.
    """
    theta, case = _branch_ladder(np.array([complex(value)]))
    return PhaseBranch(theta=float(theta[0]), case_tag=_CASE_TAGS[case[0]])


def _ld(coords) -> np.ndarray:  # Coordinates as a long-double array
    return np.array([c.longdouble() for c in coords])


def _phase_args(dimension, base, alpha, beta, ns=(), least=0):
    """alpha and beta as ``_ld`` arrays and the steps ns as int64, once alpha,
    beta and the base point fit a phase source on the 2d-torus of the given
    dimension; a mismatch, a non-integer n or one below ``least`` raise
    ValueError."""
    d = len(alpha)
    if len(beta) != d or dimension != 2 * d or len(base) != 2 * d:
        raise ValueError("dimension mismatch")
    if np.size(ns) and np.asarray(ns).dtype.kind not in "iu":  # [] comes back float64
        raise ValueError("n must be an integer")
    ns = np.asarray(ns, dtype=np.int64)
    if ns.min(initial=least) < least:
        raise ValueError(f"n must be >= {least}")
    return _ld(alpha), _ld(beta), ns


def _phase_orbit(base, a, b, steps, values=None, delta=1e-8, name="p"):
    """The orbit z_j = (t - j a, w + j b) at the integer steps j (``_ld`` arrays).

    Returns the unreduced long-double lift t - j a, shape (k, d); the points
    z_j mod 1 as float64, shape (k, 2d); and, given ``values`` (a map from
    those points to complex values, such as ``p.eval_points``), their
    measurable branch (else None).  Raises PhaseUndefined at the first step
    where |value| < delta, ValueError for delta <= 0 or NaN.
    """
    if values is not None and not delta > 0:
        raise ValueError("delta must be positive")
    d = len(a)
    if isinstance(steps, range):  # np.arange: no walk over the range's ints
        steps = np.arange(steps.start, steps.stop)
    steps = np.asarray(steps, dtype=np.int64)
    j = steps.astype(np.longdouble)[:, None]
    coords = np.asarray(base.coords, dtype=np.longdouble)
    t = coords[:d] - j * a
    z = np.mod(np.concatenate([t, coords[d:] + j * b], axis=1), np.longdouble(1.0)).astype(float)
    if values is None:
        return t, z, None
    vals = values(z)
    small = np.flatnonzero(np.abs(vals) < delta)
    if small.size:
        i = small[0]
        raise PhaseUndefined(
            f"|{name}| = {abs(vals[i]):.3e} below {delta:g} at orbit step {steps[i]}",
            step=int(steps[i]),
        )
    return t, z, _branch_ladder(vals)[0]


def _phase_cocycle_rhs(theta0, phi_source, base, alpha, beta, ns, delta=1e-8):
    """phase_cocycle_iterate at every n in ns, as a float64 array, from one
    orbit pass over the steps j < max(ns) and its long-double prefix sums."""
    a, b, ns = _phase_args(phi_source.dimension, base, alpha, beta, ns)
    _, _, phi = _phase_orbit(base, a, b, range(ns.max(initial=0)), phi_source.eval_points, delta)
    phi_sums = np.concatenate([[0], np.cumsum(phi, dtype=np.longdouble)])[ns]
    tb = np.dot(np.asarray(base.coords[:len(b)], dtype=np.longdouble), b)
    ab_rat, ab_irr, _ = split_inner_product(alpha, beta)
    # the rational part of n(n-1)/2 <a,b> is reduced mod 1 exactly
    num, den = ab_rat.numerator, ab_rat.denominator
    rational_part = [(-(n * (n - 1) // 2) * num) % den for n in ns.tolist()]
    total = (
        np.longdouble(theta0)
        + phi_sums
        + ns.astype(np.longdouble) * tb
        - (ns * (ns - 1)).astype(np.longdouble) / np.longdouble(2.0) * ab_irr
        + np.array(rational_part, dtype=np.longdouble) / np.longdouble(den)
    )
    return np.mod(total, np.longdouble(1.0)).astype(float)


def phase_cocycle_iterate(
    theta0: float,
    phi_source: TrigPolynomial,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n: int,
    delta: float = 1e-8,
) -> float:
    """Right-hand side of the n-step phase relation, mod 1:

        theta0 + sum_{j<n} phi(t-j a, w+j b) + n <t,b> - n(n-1)/2 <a,b>.

    phi comes from the measurable branch of p along the orbit (p is periodic,
    so reduced arguments suffice there); the <t,b> term uses the base point's
    representative coordinates, exactly as the one-step relation telescopes.
    A negative or non-integer n and a delta <= 0 or NaN raise ValueError.
    """
    return float(_phase_cocycle_rhs(theta0, phi_source, base, alpha, beta, [n], delta)[0])


class SyntheticPhaseField:
    """Phase field on one orbit, built from the one-step recursion

        theta_{j+1} = theta_j + phi(z_j) + <t - j alpha, beta>

    (a real lift; globally consistent phase fields need not exist, so this
    constructs one synthetically from any seed value).  phi is the
    measurable branch of the supplied polynomial, which must stay nonzero
    along the orbit.  Lifts are cached and extended by a running sum seeded
    with the last cached lift.  A step n that is not an integer raises
    ValueError.
    """

    def __init__(
        self,
        phi_source: TrigPolynomial,
        base: TorusPoint,
        alpha: tuple[Coordinate, ...],
        beta: tuple[Coordinate, ...],
        theta0: float = 0.0,
        delta: float = 1e-8,
    ):
        self._a, self._b, _ = _phase_args(phi_source.dimension, base, alpha, beta)
        self.phi_source = phi_source
        self.base = base
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.delta = delta
        self._lifts = np.array([theta0], dtype=np.longdouble)

    def phase_lift(self, n: int) -> float:
        """Real-valued lift of theta at orbit step n."""
        if not isinstance(n, (int, np.integer)):
            raise ValueError("n must be an integer")
        if n < 0:
            raise ValueError("n must be >= 0")
        done = len(self._lifts) - 1
        if n > done:
            t, _, phi = _phase_orbit(self.base, self._a, self._b, range(done, n),
                                     self.phi_source.eval_points, self.delta)
            # phi_j and <t_j, beta> enter the running sum as separate terms,
            # in the recursion's order: lifts grow like n^2 <alpha, beta>, and
            # the float64 result would turn any reassociation into ~1e-11 jumps
            terms = np.stack([phi.astype(np.longdouble), t @ self._b], axis=1).ravel()
            lifts = np.cumsum(np.concatenate([self._lifts[-1:], terms]))
            self._lifts = np.concatenate([self._lifts, lifts[2::2]])
        return float(self._lifts[n])

    def phase_at_step(self, n: int) -> float:
        return self.phase_lift(n) % 1.0

    def point_at_step(self, n: int) -> TorusPoint:
        if not isinstance(n, (int, np.integer)):
            raise ValueError("n must be an integer")
        _, z, _ = _phase_orbit(self.base, self._a, self._b, [n])
        return reduce_mod1(z[0])


def normalized_phase_sequence(
    field,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n_list,
    delta: float = 1e-8,
) -> list[complex]:
    """zeta_n = exp(2 pi i theta(t - n alpha, w + n beta) / n) for n in n_list.

    Synthetic fields supply their own real lift.  For a Zak grid the phase at
    the unreduced argument is the measurable branch at the reduced point plus
    the quasi-periodicity correction <integer part of t - n alpha,
    fractional part of w + n beta>.  A non-integer n, an n below 1, and a
    base, alpha, beta or delta other than a synthetic field's own raise
    ValueError.
    """
    synthetic = isinstance(field, SyntheticPhaseField)
    dimension = field.phi_source.dimension if synthetic else 2 * field.dimension
    ns = list(n_list)
    a, b, steps = _phase_args(dimension, base, alpha, beta, ns, 1)
    if synthetic:
        own = (field.base, field.alpha, field.beta, field.delta)
        if (base, tuple(alpha), tuple(beta), delta) != own:
            raise ValueError("base, alpha, beta and delta must be the synthetic field's own")
        field.phase_lift(max(ns, default=0))  # one orbit pass fills the cache
        thetas = np.array([field.phase_lift(n) for n in ns])
    else:
        d = len(alpha)

        def fresh_sums(z):  # one fresh lattice sum per point, never the grid
            return np.array([field.point_value(r[:d], r[d:]) for r in z], dtype=complex)

        t, z, branch = _phase_orbit(base, a, b, steps, fresh_sums, delta, "Zf")
        iota = (t - np.mod(t, np.longdouble(1.0))).astype(float)
        corr = np.sum(iota * z[:, d:].astype(np.longdouble), axis=1).astype(float)
        thetas = branch + corr
    return [complex(np.exp(2j * np.pi * th / n)) for th, n in zip(thetas, ns)]


def phase_mean_along_orbit(
    phi_source: TrigPolynomial,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n: int,
    delta: float = 1e-8,
) -> tuple[float, int]:
    """Birkhoff average of phi along the orbit with stepwise unwrapping.

    Approximates I(t,w) = integral of phi over H.  A global continuous branch
    need not exist on the coset, so the average uses a lift that changes by
    less than half a turn per step; the returned winding count is the total
    number of integer corrections applied (a diagnostic: large winding means
    the branch average is trustworthy only mod 1).  A dimension mismatch and
    an n that is not an integer >= 1 raise ValueError.
    """
    a, b, _ = _phase_args(phi_source.dimension, base, alpha, beta, [n], 1)
    _, _, raw = _phase_orbit(base, a, b, range(n), phi_source.eval_points, delta)
    # k_j: the integer keeping step j within half a turn of step j - 1's lift
    k = np.concatenate([[0.0], np.cumsum(np.rint(raw[:-1] - raw[1:]))])
    return exact_sum(raw + k) / n, int(np.sum(np.abs(k)))


def cluster_set_c1(inner_product_alpha_beta: Coordinate) -> ClusterSet:
    """Closure of {e^{-pi i (n-1) <a,b>} : n in N}: the cyclic group generated
    by e^{-pi i <a,b>} when <a,b> is rational (2q/gcd(p,2q) points), the whole
    circle otherwise.  More than 10**6 points raise ValueError, as in
    ``subgroup_closure``."""
    ab = inner_product_alpha_beta
    if ab.is_rational:
        fr = ab.fraction
        pnum, q = fr.numerator, fr.denominator
        gen_angle = Fraction(-pnum, 2 * q)
        order = (2 * q) // math.gcd(pnum, 2 * q) if pnum != 0 else 1
        if order > 10**6:
            raise ValueError(
                f"<alpha, beta> = {fr} has denominator {q}: its cluster set "
                f"of {order} points is too large to materialize"
            )
        pts = []
        for k in range(order):
            ang = (k * gen_angle) % 1
            pts.append(complex(np.exp(2j * np.pi * float(ang))))
        return ClusterSet(
            kind="finite-roots",
            points=tuple(pts),
            generator_angle=float(gen_angle % 1),
        )
    gen = float(np.mod(-ab.longdouble() / np.longdouble(2.0), np.longdouble(1.0)))
    return ClusterSet(kind="full-circle", points=(), generator_angle=gen)


def cluster_set_c2(
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    omega: TorusPoint,
    n_max: int,
    tolerance: float = 1e-10,
) -> list[complex]:
    """Sample {e^{-2 pi i <alpha, [omega + n beta]>} : 1 <= n <= n_max} with
    duplicates collapsed at the tolerance; integer beta freezes the
    fractional part, collapsing everything to e^{-2 pi i <alpha, [omega]>}."""
    if n_max < 1:
        raise ValueError("n-max must be >= 1")
    d = len(alpha)
    if len(beta) != d or len(omega) != d:
        raise ValueError("dimension mismatch")
    a_ld = _ld(alpha)
    inners = np.zeros(n_max, dtype=np.longdouble)
    nvals = np.arange(1, n_max + 1, dtype=np.longdouble)
    for i in range(d):
        c = beta[i]
        if c.is_rational:
            f = c.fraction
            resid = np.asarray(step_residues(f, n_max + 1)[1:], dtype=np.longdouble)
            frac = np.mod(
                np.longdouble(omega[i]) + resid / f.denominator,
                np.longdouble(1.0),
            )
        else:
            frac = np.mod(
                np.longdouble(omega[i]) + nvals * c.longdouble(), np.longdouble(1.0)
            )
        inners += a_ld[i] * frac
    vals = np.exp(-2j * np.pi * inners.astype(float))
    # tolerance-collapse: cluster along sorted order, represent each cluster
    # by its earliest n
    order = np.argsort(np.angle(vals), kind="stable")
    kept_idx: list[int] = []
    cluster_rep = None
    for idx in order:
        v = vals[idx]
        if cluster_rep is None or abs(v - cluster_rep) > tolerance:
            kept_idx.append(int(idx))
            cluster_rep = v
        else:
            if idx < kept_idx[-1]:
                kept_idx[-1] = int(idx)
    # wraparound: first and last clusters on the angle circle may coincide
    if len(kept_idx) > 1 and abs(vals[kept_idx[0]] - vals[kept_idx[-1]]) <= tolerance:
        kept_idx[0] = min(kept_idx[0], kept_idx[-1])
        kept_idx.pop()
    kept_idx.sort()
    return [complex(vals[i]) for i in kept_idx]


def cluster_sets_match(
    c1: ClusterSet,
    c2_points,
    tolerance: float = 1e-8,
) -> bool:
    """Existential comparison of the two cluster-set descriptions.

    The first description is known only up to a unimodular prefactor (the
    base-point constants are not materialized); the match succeeds when some
    rotation carries the first set onto the sampled second one.  A
    full-circle first set is compatible with anything; a finite one requires
    the sample to realize exactly its rotated points.
    """
    pts2 = [complex(v) for v in c2_points]
    if c1.kind == "full-circle":
        return True
    if not pts2:
        return False
    base = c1.points[0]
    for anchor in pts2:
        rho = anchor / base
        rotated = [rho * v for v in c1.points]
        if all(
            any(abs(r - v) <= tolerance for v in pts2) for r in rotated
        ) and all(
            any(abs(r - v) <= tolerance for r in rotated) for v in pts2
        ):
            return True
    return False


def rigidity_scan(
    p: TrigPolynomial,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    lattice_shifts,
) -> list[tuple[tuple[int, ...], float]]:
    """Defect dist(<l, beta>, Z) for each integer shift l.

    All defects vanishing is the rigidity conclusion beta in Z^d; any nonzero
    defect certifies that the phase constraint fails for this (alpha, beta),
    so no dependence of the assumed shape can exist.
    """
    d = len(beta)
    if len(alpha) != d or p.dimension != 2 * d:
        raise ValueError("dimension mismatch")
    out = []
    for shift in lattice_shifts:
        shift = tuple(int(s) for s in shift)
        if len(shift) != d:
            raise ValueError(f"shift {shift} has wrong length")
        if not any(shift):
            raise ValueError("shifts must be nonzero")
        out.append((shift, inner_product_mod1_dist(shift, beta)))
    return out
