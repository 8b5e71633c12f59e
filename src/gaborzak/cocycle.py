"""Multiplicative and phase cocycles along torus translation orbits.

The modulus cocycle F(z+gamma) = q(z) F(z) with q = |p| grows along the
orbit by the Birkhoff sums of ln q.  Its log-growth functional

    Theta(lambda) = integral over H of ln q(lambda + h) dm_H(h)

is computed two ways (they agree by unique ergodicity): a Birkhoff average
along the orbit, and a Haar mean on the closure subgroup H by Jensen's
formula along one connected direction of H, where p is a Laurent polynomial
in one variable (its one-variable Mahler measure), with the midpoint rule
over any other directions, on the grid layout of ``haar_sample_points``.
Birkhoff raises NumericalFailure when it skips 1% of its steps at zeros of
p; the Haar mean raises when p vanishes within rounding on some row of H.

The phase side implements the measurable branch theta of a nonzero complex
value (four-case arctangent ladder), the n-step phase recursion

    theta_n = theta_0 + sum_{j<n} phi(t-j a, w+j b) + n<t,b> - n(n-1)/2 <a,b>

(everything mod 1), synthetic phase fields built from the one-step recursion,
the normalized sequence zeta_n = exp(2 pi i theta_n / n), and the two cluster
set descriptions whose forced equality drives the rigidity argument: the
samples collapse by single linkage at a tolerance, and a finite first set
matches when its roots, rotated onto the first sample, pair off with them.

The Birkhoff average reads p along the orbit by its characters:
p(lambda + j gamma) = sum_k c_k e(<f_k, lambda>) e(<f_k, gamma>)^j, from
two small exp tables per term (``_orbit_groups``).  The steps come in
groups of 64 rows of STEP_BLOCK steps that run on every usable CPU, and the
Birkhoff average keeps only each group's logs, never the 10^6 values.  The
Birkhoff logs, the phase mean's lifts and the row means of a Haar coset are
summed with one exact rounding (``exact_sum``), so no bit depends on the CPU
count.
The phase entry points read one vectorized orbit pass over an array of steps
j: the turns of the orbit points, one ``eval_points`` call (Zak-field sources
have no characters) and the branch ladder: one arctangent, pi added in place
where Re < 0, and pi/2 or 3 pi/2 set where Re = 0.  Each raises PhaseUndefined
at the first step where the value is below one fixed floor, 1e-8.  The phase
identity and a synthetic field's lifts sum uint64 turns, exact mod 1.  A
synthetic field caches its lifts and at least doubles the cache in each pass,
so lifts requested one step at a time up to step n cost O(log n) passes.
"""

from __future__ import annotations

import functools
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
    StepKernel,
    TorusPoint,
    _check_integer,
    _float_turns,
    _map_blocks,
    _real_turn,
    exact_sum,
    inner_product_mod1_dist,
    product_grid,
    reduce_mod1,
    step_turns,
    turns_to_float,
)
# haar_sample_points and orbit_points are unused here but stay module
# attributes: the traced benchmark (bench/tracing.py) rebinds both
from .orbit import Gamma, SubgroupH, _haar_grid, haar_sample_points, orbit_points  # noqa: F401
from .trigpoly import TrigPolynomial, _rounding_radius

__all__ = [
    "ThetaEstimate",
    "PhaseBranch",
    "ClusterSet",
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

# rows (components x outer nodes, weighted by the companion matrix size) per
# evaluation of Haar Theta, so memory stays bounded
_HAAR_GROUP_POINTS = 1 << 16
# the phase entry points raise PhaseUndefined where |p| (or |Zf|) is below this
_PHASE_FLOOR = 1e-8


@dataclass(frozen=True)
class ThetaEstimate:
    value: float
    method: str  # birkhoff | haar-quadrature
    samples: int  # orbit length n, or midpoint nodes per outer direction of H
    skipped_fraction: float

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


def _e(turns) -> np.ndarray:
    """e(x) = exp(2 pi i x) of the uint64 turns of x."""
    return np.exp(2j * np.pi * turns_to_float(turns))


_ORBIT_GROUP = 64  # block-start rows (of STEP_BLOCK steps) per _orbit_groups block


def _orbit_groups(p: TrigPolynomial, base: TorusPoint, gamma: Gamma, n: int, fn) -> list:
    """[fn(p(base + j gamma) for the steps j of a group)] over the groups of
    _ORBIT_GROUP block-start rows of j < n, in order, by characters and with
    no orbit points; the groups run on every usable CPU (``_map_blocks``).

    Term k adds c_k e(<f_k, base>) w_k^j with w_k = e(theta_k) and theta_k =
    <f_k, gamma>.  For j = q B + r (B = STEP_BLOCK) that is the outer product
    of a table over the block starts, c_k e(<f_k, base>) e(theta_k q B), and
    one over the offsets, e(theta_k r).  Both tables and <f_k, base>, from
    the base's exact values, take their turns from ``step_turns``, so the
    value at a step does not depend on n or on its group.
    """
    m = gamma.dimension
    if p.dimension != m or len(base) != m:
        raise ValueError("dimension mismatch")
    starts = np.arange(-(-n // STEP_BLOCK), dtype=np.int64) * STEP_BLOCK
    offsets = np.arange(min(STEP_BLOCK, n), dtype=np.int64)
    z = tuple(map(Coordinate.irrational, base.coords))  # exact values of the floats
    tables = []
    for freq, coeff in p.terms:
        lead = coeff * _e(step_turns(freq, z, [1]))
        tables.append((lead * _e(step_turns(freq, gamma.coords, starts)),
                       _e(step_turns(freq, gamma.coords, offsets))))

    def group(lo: int, hi: int):
        out = np.zeros((hi - lo, len(offsets)), dtype=complex)
        for row, col in tables:
            out += row[lo:hi, None] * col
        return fn(out.ravel()[:n - lo * STEP_BLOCK])

    return _map_blocks(group, len(starts), _ORBIT_GROUP)


def theta_birkhoff(
    p: TrigPolynomial,
    lam: TorusPoint,
    gamma: Gamma,
    n: int,
    delta: float = 1e-8,
) -> ThetaEstimate:
    """(1/n) sum_{j<n} ln |p(lambda + j gamma)| over the non-skipped steps.

    The values along the orbit come from ``_orbit_groups``, by characters;
    each group takes |p|, drops the steps with |p| < delta and takes the logs,
    and the logs of all groups are summed with one exact rounding
    (``exact_sum``).  Skipping 1% of the steps or more (an estimate that is
    not ``reliable``) raises NumericalFailure; delta <= 0 and an n that is
    not an integer raise ValueError.
    """
    _check_integer(n, least=1000, small="Birkhoff averaging needs n >= 1000")
    if not delta > 0:
        raise ValueError("delta must be positive")

    def logs(values: np.ndarray) -> np.ndarray:
        q = np.abs(values)
        return np.log(q[q >= delta])

    kept = np.concatenate(_orbit_groups(p, lam, gamma, n, logs))
    est = ThetaEstimate(
        value=exact_sum(kept) / n,
        method="birkhoff",
        samples=n,
        skipped_fraction=1.0 - float(len(kept)) / n,
    )
    if not est.reliable:
        raise NumericalFailure(f"Birkhoff average skipped a fraction {est.skipped_fraction:.3e}"
                               f" of its steps with |p| below delta = {delta:g}")
    return est


def _jensen_means(a: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Mean of ln |P| on the unit circle for each row of coefficients of
    P(zeta) = sum_d a[:, d] zeta^d, by Jensen's formula.

    End coefficients within their rounding ``radius``, within eps times the
    row's coefficient sum or below the smallest normal float are dropped; a
    row with none left (P = 0 within rounding) gives NaN.  Each row is read
    from its larger end c, reversed if that is the low one (zeta^deg P(1/zeta)
    has the same mean), so its companion matrix stays below 1/eps: the mean
    is ln |c| + sum of ln max(1, |s|) over its roots s.  That is ln |a_low|
    exactly when every root of P lies outside the circle, and ln max(|a_low|,
    |a_top|) at degree 1 with no roots taken; higher degrees take the
    eigenvalues of stacked companion matrices, one call per degree.  No row
    depends on another."""
    eps = np.finfo(float).eps
    floor = np.maximum(radius, np.finfo(float).tiny)
    keep = np.abs(a) > np.maximum(floor, eps * np.abs(a).sum(axis=1, keepdims=True))
    dead = ~keep.any(axis=1)
    lo = np.argmax(keep, axis=1)
    deg = np.where(dead, 0, a.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1) - lo)
    ends = np.abs([a[np.arange(len(a)), lo], a[np.arange(len(a)), lo + deg]])
    out = np.log(np.where(dead, 1.0, ends.max(axis=0)))
    out[dead] = np.nan
    for e in np.flatnonzero(np.bincount(deg[deg > 1])).tolist():
        rows = np.flatnonzero(deg == e)
        c = a[rows[:, None], lo[rows, None] + np.arange(e + 1)]
        flip = ends[0, rows] > ends[1, rows]
        c[flip] = c[flip, ::-1]
        companion = np.zeros((len(rows), e, e), dtype=complex)
        companion[:, 0, :] = -c[:, e - 1::-1] / c[:, e:]
        companion[:, np.arange(1, e), np.arange(e - 1)] = 1.0
        mods = np.abs(np.linalg.eigvals(companion))
        out[rows] += np.log(np.maximum(mods, 1.0)).sum(axis=1)
    return out


def theta_haar(
    p: TrigPolynomial,
    lam: TorusPoint,
    H: SubgroupH,
    quad: QuadratureSpec,
) -> ThetaEstimate:
    """Haar mean of ln |p| over the coset lambda + H, by Jensen's formula.

    H's connected directions are integer vectors, so on each circle through
    a row z along the last one, b, p is a Laurent polynomial in zeta = e(s)
    whose coefficient a_n(z) sums the terms with <f, b> = n; its mean of
    ln |p| is exact (``_jensen_means``).  A row is a torsion component of H
    (Haar dimension 1), a component x midpoint node of the other directions,
    ``quad.points_per_axis`` per axis (dimension 2 or more), or a point (a
    finite H, where the mean is ln |p| there).  Theta is the exact sum of the
    row means over their count.  A zero of p on a circle is a root of modulus
    1 and adds 0.  A row where p vanishes within rounding raises
    NumericalFailure with the fraction of H it covers; a dimension mismatch
    and more than ``GRID_BUDGET_DEFAULT`` rows raise ValueError.  This is the
    one-base call of ``_theta_haar_many``.
    """
    return _theta_haar_many(p, [lam], H, quad)[0]


def _theta_haar_many(p, lams, H, quad) -> list[ThetaEstimate]:
    """``theta_haar`` at every base point in ``lams``: the flat rows (base,
    offset) run through one loop, at most ``_HAAR_GROUP_POINTS`` rows per
    evaluation, weighted by the companion matrix size, and reshape to one
    row of means per base.  No row depends on its batch, so each estimate
    has the bits of its own call.  The first failing base, in input order,
    raises."""
    n = quad.points_per_axis
    m, t_dim, n_reps = H.dimension, H.haar_dimension, H.component_count
    if p.dimension != m or any(len(lam) != m for lam in lams):
        raise ValueError("dimension mismatch")
    outer = max(t_dim - 1, 0)
    if n_reps * n**outer > GRID_BUDGET_DEFAULT:
        raise ValueError(f"Haar Theta over {n_reps} x {n}^{outer} rows exceeds the "
                         f"budget of {GRID_BUDGET_DEFAULT}; lower --points")
    b = H.connected_directions[-1] if t_dim else (0,) * m
    degrees = [sum(f * d for f, d in zip(freq, b)) for freq, _ in p.terms]
    low = min(degrees, default=0)
    classes = [[] for _ in range(max(degrees, default=0) - low + 1)]
    for d, term in zip(degrees, p.terms):
        classes[d - low].append(term)
    classes = [TrigPolynomial(m, terms) for terms in classes]  # empty: the zero polynomial
    radius = np.array([_rounding_radius(q.terms, m) for q in classes])
    offsets = _haar_grid(H, n, outer)
    step = max(1, _HAAR_GROUP_POINTS // max(1, len(classes) - 1) ** 2)  # rows per evaluation
    bases = np.array([lam.coords for lam in lams]).reshape(-1, m)
    means = np.empty(len(bases) * len(offsets))
    for lo in range(0, means.size, step):
        flat = np.arange(lo, min(lo + step, means.size))
        rows = np.mod(bases[flat // len(offsets)] + offsets[flat % len(offsets)], 1.0)
        coeffs = np.column_stack([q.eval_points(rows) for q in classes])
        means[lo:lo + step] = _jensen_means(coeffs, radius)
    means = means.reshape(len(bases), len(offsets))
    vanishing = np.count_nonzero(np.isnan(means), axis=1) / len(offsets)
    if vanishing.any():
        raise NumericalFailure(f"p vanishes within rounding on a volume fraction "
                               f"{vanishing[vanishing > 0][0]:.3e} of H, where ln |p| is -inf")
    return [ThetaEstimate(exact_sum(mu) / len(offsets), "haar-quadrature", n, 0.0) for mu in means]


def _check_tolerance(tolerance) -> None:
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")


def case3_verdict(theta: ThetaEstimate, tolerance: float = 1e-3) -> str:
    """growth (Theta > 0), decay (Theta < 0), or balanced (|Theta| small).

    Growth contradicts boundedness of a continuous F on the torus; decay
    contradicts recurrence of the orbit; balanced is the regime the modulus
    arguments cannot settle.  A tolerance that is not positive and finite
    and a value that is not finite raise ValueError.
    """
    _check_tolerance(tolerance)
    if not math.isfinite(theta.value):
        raise ValueError(f"refusing a verdict on the non-finite value {theta.value}")
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
) -> float:
    """Measure fraction of base points with |Theta| <= tolerance on a coarse
    grid.  Grid scale cannot distinguish measure-zero from positive-measure
    vanishing; this reports the fraction without adjudicating.  A resolution
    that is not an integer >= 1 and a tolerance that is not positive and
    finite raise ValueError."""
    _check_integer(resolution, "resolution must be an integer", 1, "resolution must be >= 1")
    _check_tolerance(tolerance)
    flat = product_grid(np.arange(resolution) / resolution, H.dimension)
    ests = _theta_haar_many(p, [reduce_mod1(row) for row in flat], H, quad)
    return sum(abs(est.value) <= tolerance for est in ests) / len(ests)


def _branch_ladder(values: np.ndarray) -> np.ndarray:
    """The four-case ladder of ``phase_branch`` over an array of values:
    branch values in [0, 1)."""
    values = np.asarray(values, dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"phase of non-finite value {values[~finite][0]} is undefined")
    if (values == 0).any():
        raise ValueError("phase of zero is undefined")
    re, im = values.real, values.imag
    with np.errstate(all="ignore"):  # Re = 0 rows are overwritten
        rad = np.arctan(im / re)
    np.add(rad, math.pi, out=rad, where=re < 0.0)
    axis = re == 0.0
    rad[axis] = np.where(im[axis] > 0.0, 0.5 * math.pi, 1.5 * math.pi)
    theta = np.mod(rad / (2.0 * math.pi), 1.0)
    # float modulo of a tiny negative angle rounds up to the excluded
    # endpoint; 0 and 1 are the same branch value
    theta[theta >= 1.0] = 0.0
    return theta


def phase_branch(value: complex) -> PhaseBranch:
    """Measurable phase branch of a nonzero finite complex number.

    Four-case ladder (radians): Re > 0 -> arctan(Im/Re); Re < 0 -> the same
    plus pi; Re = 0 -> pi/2 or 3 pi/2 by the sign of Im.  The result is
    divided by 2 pi and reduced into [0, 1) (the first case is negative for
    Im < 0); different branches differ by integers only.
    """
    z = complex(value)
    theta = float(_branch_ladder(np.array([z]))[0])
    if z.real != 0.0:
        return PhaseBranch(theta=theta, case_tag="re-positive" if z.real > 0.0 else "re-negative")
    return PhaseBranch(theta=theta, case_tag="im-positive" if z.imag > 0.0 else "im-negative")


def _phase_args(dimension, base, alpha, beta, ns=(), least=0):
    """alpha and beta as tuples and the steps ns as int64, once alpha, beta
    and the base point fit a phase source on the 2d-torus of the given
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
    return tuple(alpha), tuple(beta), ns


@functools.lru_cache(maxsize=256)
def _phase_kernels(base, a, b) -> tuple[StepKernel, StepKernel]:
    """Step kernels of the orbit (t - j a, w + j b) through base, and of <t, b>
    (the floats t taken exactly) and <a, b> from 0: made once per orbit."""
    d = len(a)
    t, w = base.coords[:d], base.coords[d:]
    orbit = StepKernel([((-1,), (c,), x) for c, x in zip(a, t)]
                       + [((1,), (c,), x) for c, x in zip(b, w)])
    return orbit, StepKernel([(tuple(map(Coordinate.irrational, t)), b, 0.0), (a, b, 0.0)])


def _phase_orbit(base, a, b, steps, values=None, name="p"):
    """The orbit z_j = (t - j a, w + j b) at the integer steps j.

    Returns a float estimate of the unreduced t - j a, shape (k, d); the
    points z_j mod 1 as float64, shape (k, 2d), read out from their turns;
    and, given ``values`` (a map from those points to complex values, such as
    ``p.eval_points``), their measurable branch (else None).  Raises
    PhaseUndefined at the first step where |value| < _PHASE_FLOOR.
    """
    if isinstance(steps, range):  # np.arange: no walk over the range's ints
        steps = np.arange(steps.start, steps.stop)
    steps = np.asarray(steps, dtype=np.int64)
    t = np.asarray(base.coords[:len(a)]) - np.multiply.outer(steps, [c.float() for c in a])
    z = turns_to_float(_phase_kernels(base, a, b)[0](steps))
    if values is None:
        return t, z, None
    vals = values(z)
    small = np.flatnonzero(np.abs(vals) < _PHASE_FLOOR)
    if small.size:
        i = small[0]
        raise PhaseUndefined(
            f"|{name}| = {abs(vals[i]):.3e} below {_PHASE_FLOOR:g} at orbit step {steps[i]}",
            step=int(steps[i]),
        )
    return t, z, _branch_ladder(vals)


def _phase_cocycle_rhs(theta0, phi_source, base, alpha, beta, ns):
    """phase_cocycle_iterate at every n in ns, as a float64 array, from one
    orbit pass over the steps j < max(ns): the turns of theta0, of the prefix
    sums of phi, of n <t, b> and of <a, b> at step -n(n-1)/2, added mod 1."""
    a, b, ns = _phase_args(phi_source.dimension, base, alpha, beta, ns)
    _, _, phi = _phase_orbit(base, a, b, range(ns.max(initial=0)), phi_source.eval_points)
    phi_sums = np.zeros(len(phi) + 1, dtype=np.uint64)
    np.cumsum(_float_turns(phi), out=phi_sums[1:])
    terms = _phase_kernels(base, a, b)[1](np.stack([ns, -(ns * (ns - 1) // 2)], axis=1))
    return turns_to_float(phi_sums[ns] + terms.sum(axis=1) + _real_turn(theta0)[1])


def phase_cocycle_iterate(
    theta0: float,
    phi_source: TrigPolynomial,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n: int,
) -> float:
    """Right-hand side of the n-step phase relation, mod 1:

        theta0 + sum_{j<n} phi(t-j a, w+j b) + n <t,b> - n(n-1)/2 <a,b>.

    phi comes from the measurable branch of p along the orbit (p is periodic,
    so reduced arguments suffice there); the <t,b> term uses the base point's
    representative coordinates, exactly as the one-step relation telescopes.
    A negative or non-integer n raises ValueError.
    """
    return float(_phase_cocycle_rhs(theta0, phi_source, base, alpha, beta, [n])[0])


# most steps a SyntheticPhaseField pass adds past the one requested
_LIFT_AHEAD = 1 << 16


class SyntheticPhaseField:
    """Phase field on one orbit, built from the one-step recursion

        theta_{j+1} = theta_j + phi(z_j) + <t - j alpha, beta>

    (a real lift; globally consistent phase fields need not exist, so this
    constructs one synthetically from any seed value).  phi is the
    measurable branch of the supplied polynomial, which must stay nonzero
    along the orbit.  Lifts are cached and extended by a running sum seeded
    with the last cached lift.  A request past the d cached steps runs one
    orbit pass to max(n, min(2d, n + 2^16)), so steps requested one by one
    cost O(log n) passes; the lifts do not depend on how the cache grew.  The
    first step s with |phi_source| < _PHASE_FLOOR ends the cache at lift s (which
    needs phi up to step s - 1 only); that PhaseUndefined is kept, and every
    request past s, in that call or a later one, raises it without a new
    pass.  A step n that is not an integer >= 0 raises ValueError.
    """

    def __init__(
        self,
        phi_source: TrigPolynomial,
        base: TorusPoint,
        alpha: tuple[Coordinate, ...],
        beta: tuple[Coordinate, ...],
        theta0: float = 0.0,
    ):
        self.alpha, self.beta, _ = _phase_args(phi_source.dimension, base, alpha, beta)
        self.phi_source = phi_source
        self.base = base
        whole, turn = _real_turn(theta0)
        self._wholes = np.array([whole], dtype=np.int64)  # lift n: wholes[n] + turns[n] 2^-64
        self._turns = np.array([turn], dtype=np.uint64)
        self._undefined: PhaseUndefined | None = None  # the zero that ends the cache

    def phase_lift(self, n: int) -> float:
        """Real-valued lift of theta at orbit step n."""
        _check_integer(n, least=0, small="n must be >= 0")
        done = len(self._turns) - 1
        if n > done and self._undefined is None:
            stop = max(n, min(2 * done, n + _LIFT_AHEAD))
            try:
                self._extend(done, stop)
            except PhaseUndefined as exc:
                self._undefined = exc
                self._extend(done, exc.step)
        if n >= len(self._turns):
            raise self._undefined.with_traceback(None)
        return float(self._wholes[n] + turns_to_float(self._turns[n]))

    def _extend(self, done: int, stop: int) -> None:
        """Append the lifts done + 1 .. stop, from one orbit pass over the
        steps done .. stop - 1: the turns of phi_j and of <t - j alpha,
        beta> = <t, beta> - j <alpha, beta> in one running sum, which carries
        1 into the integer part wherever it wraps round, i.e. decreases."""
        t, _, phi = _phase_orbit(self.base, self.alpha, self.beta, range(done, stop),
                                 self.phi_source.eval_points)
        steps = np.arange(done, stop)
        inner = _phase_kernels(self.base, self.alpha, self.beta)[1](
            np.stack([np.ones_like(steps), -steps], axis=1)).sum(axis=1)
        terms = np.stack([_float_turns(phi), inner], axis=1).ravel()
        turns = np.cumsum(np.concatenate([self._turns[-1:], terms]))
        wraps = (turns[1:] < turns[:-1]).reshape(-1, 2).sum(axis=1)
        # the integer part of <t - j alpha, beta>, from a float estimate
        whole = np.rint(t @ [b.float() for b in self.beta] - turns_to_float(inner)).astype(np.int64)
        wholes = self._wholes[-1] + np.cumsum(whole + wraps)
        self._wholes = np.concatenate([self._wholes, wholes])
        self._turns = np.concatenate([self._turns, turns[2::2]])

    def phase_at_step(self, n: int) -> float:
        self.phase_lift(n)
        return float(turns_to_float(self._turns[n]))


def normalized_phase_sequence(
    field,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n_list,
) -> list[complex]:
    """zeta_n = exp(2 pi i theta(t - n alpha, w + n beta) / n) for n in n_list.

    Synthetic fields supply their own real lift.  For a Zak grid the phase at
    the unreduced argument is the measurable branch at the reduced point plus
    the quasi-periodicity correction <integer part of t - n alpha,
    fractional part of w + n beta>.  A non-integer n, an n below 1, and a
    base, alpha or beta other than a synthetic field's own raise ValueError.
    """
    synthetic = isinstance(field, SyntheticPhaseField)
    dimension = field.phi_source.dimension if synthetic else 2 * field.dimension
    ns = list(n_list)
    a, b, steps = _phase_args(dimension, base, alpha, beta, ns, 1)
    if synthetic:
        if (base, tuple(alpha), tuple(beta)) != (field.base, field.alpha, field.beta):
            raise ValueError("base, alpha and beta must be the synthetic field's own")
        field.phase_lift(max(ns, default=0))  # one orbit pass fills the cache
        thetas = np.array([field.phase_lift(n) for n in ns])
    else:
        d = len(alpha)
        # fresh lattice sums at the orbit points, never the grid
        t, z, branch = _phase_orbit(base, a, b, steps, field.point_values, "Zf")
        iota = np.rint(t - z[:, :d])  # goes with z's own turn
        thetas = branch + np.sum(iota * z[:, d:], axis=1)
    return [complex(np.exp(2j * np.pi * th / n)) for th, n in zip(thetas, ns)]


def phase_mean_along_orbit(
    phi_source: TrigPolynomial,
    base: TorusPoint,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    n: int,
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
    _, _, raw = _phase_orbit(base, a, b, range(n), phi_source.eval_points)
    # k_j: the integer keeping step j within half a turn of step j - 1's lift
    k = np.concatenate([[0.0], np.cumsum(np.rint(raw[:-1] - raw[1:]))])
    return exact_sum(raw + k) / n, int(np.sum(np.abs(k)))


def cluster_set_c1(inner_product_alpha_beta: Coordinate) -> ClusterSet:
    """Closure of {e^{-pi i (n-1) <a,b>} : n in N}: the cyclic group generated
    by e^{-pi i <a,b>} when <a,b> is rational (2q/gcd(p,2q) points), the whole
    circle otherwise.  More than 10**6 points raise ValueError, as in
    ``subgroup_closure``.  Point k is e(((k num) mod den) / den), an exact
    int64 residue of the generator angle num/den = -p/(2q) mod 1."""
    ab = inner_product_alpha_beta
    if ab.is_rational:
        fr = ab.fraction
        gen_angle = Fraction(-fr.numerator, 2 * fr.denominator) % 1
        order = gen_angle.denominator
        if order > 10**6:
            raise ValueError(
                f"<alpha, beta> = {fr} has denominator {fr.denominator}: its cluster set "
                f"of {order} points is too large to materialize"
            )
        turns = np.arange(order, dtype=np.int64) * gen_angle.numerator % order / order
        pts = np.exp(2j * np.pi * turns)
        return ClusterSet("finite-roots", tuple(pts.tolist()), float(gen_angle))
    gen = float(-ab.exact / 2 % 1)
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
    fractional part, collapsing everything to e^{-2 pi i <alpha, [omega]>}.
    The collapse is single linkage: after a stable sort by angle, a gap
    |v_{i+1} - v_i| above the tolerance (also from the last value round to the
    first) starts a cluster, represented by its earliest n; the result is in
    order of n.  A tolerance that is not positive and finite raises ValueError."""
    _check_integer(n_max, least=1, small="n-max must be >= 1")
    _check_tolerance(tolerance)
    d = len(alpha)
    if len(beta) != d or len(omega) != d:
        raise ValueError("dimension mismatch")
    kernel = StepKernel([((1,), (b,), w) for b, w in zip(beta, omega.coords)])
    fracs = turns_to_float(kernel(np.arange(1, n_max + 1)))
    vals = np.exp(-2j * np.pi * np.sum(fracs * [a.float() for a in alpha], axis=1))
    order = np.argsort(np.angle(vals), kind="stable")
    starts = np.flatnonzero(np.abs(np.diff(vals[order])) > tolerance) + 1
    kept = np.minimum.reduceat(order, np.concatenate([[0], starts]))
    if len(kept) > 1 and abs(vals[order[-1]] - vals[order[0]]) <= tolerance:
        kept[0] = min(kept[0], kept[-1])
        kept = kept[:-1]
    return vals[np.sort(kept)].tolist()


def cluster_sets_match(
    c1: ClusterSet,
    c2_points,
    tolerance: float = 1e-8,
) -> bool:
    """Existential comparison of the two cluster-set descriptions.

    The first description is known only up to a unimodular prefactor (the
    base-point constants are not materialized); the match succeeds when some
    rotation carries the first set onto the sampled second one.  A
    full-circle first set is compatible with anything.  A finite one, the
    q-th roots of unity, is rotated onto the first sample rho: it matches when
    each sample v lies within the tolerance of its nearest rotated root
    rho e(j/q), j = rint(q arg(v / rho) / 2 pi) mod q, and the j hit all q
    roots.  A tolerance that is not positive and finite raises ValueError.
    """
    _check_tolerance(tolerance)
    if c1.kind == "full-circle":
        return True
    v = np.fromiter(c2_points, dtype=complex)
    if not v.size:
        return False
    q = len(c1.points)
    j = np.rint(np.angle(v / v[0]) * (q / (2 * np.pi))).astype(np.int64) % q
    near = np.abs(v - v[0] * np.exp(2j * np.pi * j / q)) <= tolerance
    return bool(near.all() and np.bincount(j, minlength=q).all())


def rigidity_scan(
    p: TrigPolynomial,
    alpha: tuple[Coordinate, ...],
    beta: tuple[Coordinate, ...],
    lattice_shifts,
) -> list[tuple[tuple[int, ...], float]]:
    """Defect dist(<l, beta>, Z) for each integer shift l.

    All defects vanishing is the rigidity conclusion beta in Z^d; any nonzero
    defect certifies that the phase constraint fails for this (alpha, beta),
    so no dependence of the assumed shape can exist.  A shift entry that is
    not a Python or numpy integer (a bool is not one) raises ValueError.
    """
    d = len(beta)
    if len(alpha) != d or p.dimension != 2 * d:
        raise ValueError("dimension mismatch")
    out = []
    for shift in lattice_shifts:
        for s in shift:
            _check_integer(s, "shift entries must be integers")
        shift = tuple(int(s) for s in shift)
        if len(shift) != d:
            raise ValueError(f"shift {shift} has wrong length")
        if not any(shift):
            raise ValueError("shifts must be nonzero")
        out.append((shift, inner_product_mod1_dist(shift, beta)))
    return out
