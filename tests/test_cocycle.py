import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gaborzak import cocycle, numerics
from gaborzak.cocycle import (
    _phase_cocycle_rhs,
    SyntheticPhaseField,
    ThetaEstimate,
    balanced_fraction,
    case3_verdict,
    cluster_set_c1,
    cluster_set_c2,
    cluster_sets_match,
    normalized_phase_sequence,
    phase_branch,
    phase_cocycle_iterate,
    phase_mean_along_orbit,
    rigidity_scan,
    theta_birkhoff,
    theta_haar,
)
from gaborzak.errors import NumericalFailure, PhaseUndefined
from gaborzak.numerics import (
    STEP_BLOCK,
    QuadratureSpec,
    mod1_dist,
    parse_coordinate,
    reduce_mod1,
)
from gaborzak.orbit import (
    Gamma,
    classify,
    orbit_points,
    subgroup_closure,
)
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow, HermiteWindow
from gaborzak.zak import ZakGrid, zak_transform
import cluster_oracle
from orbit_oracle import _mp_value as _mp, exact_point
from zak_oracle import pairwise_lattice_sums

mk = parse_coordinate

# 1 + e^{-2 pi i t} - e^{-2 pi i w}: mean log-modulus over w has the closed
# form ln max(2|cos pi t|, 1)
P1 = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])
# never vanishes: |p| >= 1 - 1/4 - 1/4 = 1/2
P2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])


def _closure(tokens):
    g = Gamma.from_tokens(tokens)
    return subgroup_closure(g, classify(g))


VERT = _closure("0,sqrt2")  # {0} x T
HORIZ = _closure("sqrt2,0")  # T x {0}
DIAG = _closure("sqrt2,sqrt2")  # {(s, s)}

MID = QuadratureSpec("composite-midpoint", 1024)

# 50-digit quadrature values of the w-mean of ln|P2(t, .)|
P2_VERTICAL_THETA = {
    0.0: 0.0150479661889,
    0.1: -0.0128163092881,
    0.37: 0.00347460978505,
}


def _orbit_values(p, base, gamma, n):
    """p(base + j gamma) for j < n, from the engine of ``theta_birkhoff``."""
    return np.concatenate(cocycle._orbit_groups(p, base, gamma, n, lambda values: values))


def _random_poly(m, terms, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-3, 4, size=(terms, m))
    coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    return TrigPolynomial(m, [(tuple(f), c) for f, c in zip(freqs, coeffs)])


class TestOrbitValues:
    @pytest.mark.parametrize("tokens", [
        "sqrt2",
        "3/7",
        "1/3,sqrt2",
        "irr:0.2718281828459045,-sqrt3",
        "1/2,1/3,2/7",
        "sqrt2,sqrt3,sqrt5",
        "sqrt2,1/3,irr:0.7071,-sqrt5",
        "5/11,-1/4,13/17,pi",
    ])
    def test_matches_eval_points_of_orbit_points(self, tokens):
        gamma = Gamma.from_tokens(tokens)
        m = gamma.dimension
        p = _random_poly(m, 5, m)
        base = reduce_mod1(np.linspace(0.1, 0.9, m))
        n = 10**6
        got = _orbit_values(p, base, gamma, n)
        idx = np.concatenate([np.arange(2000), np.random.default_rng(0).integers(0, n, 2000),
                              np.arange(n - 2000, n)])
        want = p.eval_points(orbit_points(base, gamma, n)[idx])
        scale = sum(abs(c) for _, c in p.terms)
        assert got.shape == (n,)
        assert np.max(np.abs(got[idx] - want)) <= 1e-11 * scale

    def test_values_do_not_depend_on_the_orbit_length(self):
        gamma = Gamma.from_tokens("1/3,sqrt2")
        base = reduce_mod1([0.1, 0.7])
        for p in (P1, P2, _random_poly(2, 6, 7)):
            long = _orbit_values(p, base, gamma, 10**6)
            assert np.array_equal(_orbit_values(p, base, gamma, 5000), long[:5000])

    def test_rational_gamma_is_periodic(self):
        # the orbit of (1/3, 2/7) has period 21
        values = _orbit_values(P2, reduce_mod1([0.1, 0.2]), Gamma.from_tokens("1/3,2/7"), 5000)
        assert np.max(np.abs(values[21:] - values[:-21])) <= 1e-14

    @pytest.mark.parametrize("tokens", [
        "99999999999999/100000000000000,sqrt2",
        f"{3**40 + 2}/{3**40 - 2},sqrt2",  # den > 2**62: Python-int residues
    ])
    def test_exact_past_int64_residue_products(self, tokens):
        gamma = Gamma.from_tokens(tokens)
        base = reduce_mod1([0.3, 0.6])
        values = _orbit_values(P2, base, gamma, 200_001)
        for n in (92_233, 92_234, 200_000):
            want = P2.eval([float(t) for t in exact_point(base, gamma, n)])
            assert abs(values[n] - want) <= 1e-11 * 1.5, n  # sum |c_k| of P2 is 1.5

    def test_zero_polynomial_skips_every_step(self):
        # every step is skipped: a value of 0.0 would read as "balanced"
        zero = TrigPolynomial(2, [])
        with pytest.raises(NumericalFailure, match="fraction 1.000e\\+00 .* delta = 1e-08"):
            theta_birkhoff(zero, reduce_mod1([0.1, 0.2]), Gamma.from_tokens("sqrt2,sqrt3"), 1000)


class TestThetaBirkhoff:
    def test_smooth_coset(self):
        est = theta_birkhoff(
            P1, reduce_mod1([0.0, 0.2]), Gamma.from_tokens("0,sqrt2"), 200_000
        )
        assert est.method == "birkhoff"
        assert est.reliable
        assert abs(est.value - math.log(2)) < 1e-4

    def test_unimodular_coset_is_exact_zero(self):
        # at t = 1/2 the polynomial reduces to -e^{-2 pi i w}
        est = theta_birkhoff(
            P1, reduce_mod1([0.5, 0.2]), Gamma.from_tokens("0,sqrt2"), 2000
        )
        assert abs(est.value) < 1e-12

    def test_finite_orbit_equals_representative_mean(self):
        gamma = Gamma.from_tokens("1/2,1/3")
        lam = reduce_mod1([0.05, 0.11])
        est = theta_birkhoff(P2, lam, gamma, 6000)
        H = _closure("1/2,1/3")
        manual = np.mean(
            [
                math.log(abs(P2.eval(np.mod(lam.array() + r.array(), 1.0))))
                for r in H.torsion_representatives
            ]
        )
        assert abs(est.value - manual) < 1e-12

    def test_default_orbit_length_sum_is_fsum_bit_for_bit(self):
        # the P1 coset of the README and CI at the CLI's default n
        lam, gamma, n = reduce_mod1([0.25, 0.0]), Gamma.from_tokens("0,sqrt2"), 10**6
        est = theta_birkhoff(P1, lam, gamma, n)
        assert est.skipped_fraction == 0.0
        assert est.value == math.fsum(np.log(np.abs(_orbit_values(P1, lam, gamma, n)))) / n

    def test_needs_minimum_samples(self):
        with pytest.raises(ValueError):
            theta_birkhoff(P1, reduce_mod1([0, 0]), Gamma.from_tokens("0,sqrt2"), 999)

    @pytest.mark.parametrize("dimension,tokens,lam", [
        (3, "sqrt2,sqrt3", [0.1, 0.2]),
        (2, "sqrt2,sqrt3,sqrt5", [0.1, 0.2, 0.3]),
        (2, "sqrt2,sqrt3", [0.1, 0.2, 0.3]),
    ])
    def test_dimension_mismatch(self, dimension, tokens, lam):
        top = (0,) * (dimension - 1) + (1,)
        p = TrigPolynomial(dimension, [((0,) * dimension, 1.0), (top, 0.5)])
        gamma, base = Gamma.from_tokens(tokens), reduce_mod1(lam)
        with pytest.raises(ValueError, match="dimension mismatch"):
            theta_birkhoff(p, base, gamma, 1000)


# P1 vanishes (1.1e-16) at the float point (1/3, 1/6) and nowhere else on
# its orbit under (0, 1/211): one step in 211 is skipped, under 1%
ZERO_BASE = reduce_mod1([0.3333333333333333, 0.16666666666666666])


def _same_for_cpus_and_groups(call, monkeypatch):
    """call() inline in one group of rows, which it then returns again under
    1, 2 and 3 CPUs with groups of 1 and 3 block-start rows."""
    want = call()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        for group in (1, 3):
            monkeypatch.setattr(cocycle, "_ORBIT_GROUP", group)
            assert call() == want, (cpus, group)
    return want


class TestBlockSplit:
    @pytest.mark.parametrize("tokens", [
        "1/3,sqrt2", "sqrt2,sqrt3,sqrt5", f"{3**40 + 2}/{3**40 - 2},sqrt2",  # den > 2**62
    ])
    def test_orbit_values_do_not_depend_on_the_groups_or_the_cpu_count(self, tokens, monkeypatch):
        gamma = Gamma.from_tokens(tokens)
        p = _random_poly(gamma.dimension, 5, 3)
        base = reduce_mod1(np.linspace(0.1, 0.9, gamma.dimension))
        n = 7 * STEP_BLOCK + 5
        _same_for_cpus_and_groups(lambda: _orbit_values(p, base, gamma, n).tobytes(), monkeypatch)

    def test_birkhoff_with_skipped_steps_does_not_depend_on_the_groups(self, monkeypatch):
        gamma, n = Gamma.from_tokens("0,1/211"), 211 * 40
        est = _same_for_cpus_and_groups(lambda: theta_birkhoff(P1, ZERO_BASE, gamma, n),
                                        monkeypatch)
        q = np.abs(_orbit_values(P1, ZERO_BASE, gamma, n))
        assert est.value == math.fsum(np.log(q[q >= 1e-8])) / n
        assert est.skipped_fraction == 1.0 - (n - 40) / n

    def test_birkhoff_failure_does_not_depend_on_the_groups(self, monkeypatch):
        def failure():
            with pytest.raises(NumericalFailure) as exc:
                theta_birkhoff(P1, ZERO_BASE, Gamma.from_tokens("0,1/7"), 7000)
            return str(exc.value)

        assert _same_for_cpus_and_groups(failure, monkeypatch) == (
            "Birkhoff average skipped a fraction 1.429e-01 of its steps with |p| below "
            "delta = 1e-08")

    @pytest.mark.parametrize("call", [
        lambda n: theta_birkhoff(P1, reduce_mod1([0.25, 0.0]), Gamma.from_tokens("0,sqrt2"), n),
    ], ids=["theta_birkhoff"])
    @pytest.mark.parametrize("n", [1000.0, np.float64(2000.0), 2.5, True, False, "7"])
    def test_non_integer_step_count_is_refused(self, call, n):
        # a TypeError from slicing before; True ran as n = 1
        with pytest.raises(ValueError, match="n must be an integer"):
            call(n)

    def test_numpy_integer_step_counts_are_accepted(self):
        lam, gamma = reduce_mod1([0.25, 0.0]), Gamma.from_tokens("0,sqrt2")
        assert theta_birkhoff(P1, lam, gamma, np.int64(2000)) == theta_birkhoff(P1, lam, gamma, 2000)


class TestThetaHaar:
    def test_reference_values_on_vertical_cosets(self):
        cases = [
            (0.0, math.log(2.0), 1e-12),
            (0.25, 0.5 * math.log(2.0), 1e-12),
            (0.4, 0.0, 1e-9),
        ]
        for t, want, tol in cases:
            est = theta_haar(P1, reduce_mod1([t, 0.0]), VERT, MID)
            assert abs(est.value - want) < tol, f"t={t}"
            assert est.method == "haar-quadrature"

    def test_singular_coset_is_exact(self):
        # |1 + e^{-2 pi i /3}| = 1, so the zero sits on the coset itself: a
        # root of modulus 1, which adds 0 (the refinement walk left 1.2e-4 here)
        est = theta_haar(P1, reduce_mod1([1 / 3, 0.0]), VERT, MID)
        assert abs(est.value) <= 1e-15
        assert est.skipped_fraction == 0.0

    @pytest.mark.parametrize("quad", [("gauss-legendre", 64, True), ("gauss-legendre", 64, False)])
    def test_only_the_midpoint_rule_is_accepted(self, quad):
        # QuadratureSpec refuses every other scheme, so theta_haar never sees one
        with pytest.raises(ValueError, match="unknown quadrature scheme 'gauss-legendre'"):
            QuadratureSpec(*quad)

    def test_refine_flag_changes_nothing(self):
        # nothing is refined any more: the flag stays only for QuadratureSpec's other readers
        lam = reduce_mod1([0.2, 0.7])
        H = _closure("sqrt2,sqrt3")
        specs = [QuadratureSpec("composite-midpoint", 32, flag) for flag in (False, True)]
        assert theta_haar(P2, lam, H, specs[0]) == theta_haar(P2, lam, H, specs[1])

    def test_nonvanishing_poly_frozen_values(self):
        for t, want in P2_VERTICAL_THETA.items():
            est = theta_haar(P2, reduce_mod1([t, 0.0]), VERT, MID)
            assert abs(est.value - want) < 1e-10

    def test_horizontal_mean_vanishes_for_p2(self):
        # as a function of t the polynomial has all its reciprocal roots
        # inside the unit disk, so the t-mean of the log-modulus is zero
        quad = QuadratureSpec("composite-midpoint", 512, True)
        est = theta_haar(P2, reduce_mod1([0.0, 0.37]), HORIZ, quad)
        # Jensen's formula then gives ln |a_low| = ln 1, exactly
        assert est.value == 0.0

    def test_finite_subgroup_is_representative_average(self):
        H = _closure("1/2,1/3")
        lam = reduce_mod1([0.05, 0.11])
        est = theta_haar(P2, lam, H, MID)
        manual = np.mean(
            [
                math.log(abs(P2.eval(np.mod(lam.array() + r.array(), 1.0))))
                for r in H.torsion_representatives
            ]
        )
        assert abs(est.value - manual) < 1e-12

    def test_identically_zero_coset_fails_loudly(self, monkeypatch):
        # 1 - e^{2 pi i (t - w)} vanishes on the whole diagonal coset and is
        # constant along it: both terms have <f, b> = 0, so the circle's one
        # coefficient is 0 and one evaluation of one row decides it
        calls = []
        original = TrigPolynomial.eval_points

        def counting(self, pts):
            calls.append(len(pts))
            return original(self, pts)

        monkeypatch.setattr(TrigPolynomial, "eval_points", counting)
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), -1.0)])
        quad = QuadratureSpec("composite-midpoint", 32, True)
        with pytest.raises(NumericalFailure, match="volume fraction 1.000e\\+00"):
            theta_haar(p, reduce_mod1([0.0, 0.0]), DIAG, quad)
        assert calls == [1]

    def test_unresolved_volume_is_a_fraction_of_the_components(self):
        # 1 - e(t) vanishes on the t = 0 component of H = {0, 1/2} x T and is
        # 2 on the t = 1/2 one: half of H is unresolved
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0)])
        H = _closure("1/2,sqrt2")
        assert H.component_count == 2
        with pytest.raises(NumericalFailure, match="volume fraction 5.000e-01"):
            theta_haar(p, reduce_mod1([0.0, 0.0]), H, MID)

    def test_a_zero_on_both_components_is_all_of_h(self):
        # 1 - e(2t) vanishes at t = 0 and at t = 1/2, where e(1.0) rounds
        # 2.4e-16 away from 1: within rounding, so all of H vanishes
        p = TrigPolynomial(2, [((0, 0), 1.0), ((2, 0), -1.0)])
        with pytest.raises(NumericalFailure, match="volume fraction 1.000e\\+00"):
            theta_haar(p, reduce_mod1([0.0, 0.0]), _closure("1/2,sqrt2"), MID)

    def test_exact_zero_on_a_finite_subgroup_is_unresolved(self):
        # 1 - e(t + w) vanishes exactly at the component (0, 0) of the 143
        # points of H = <(1/11, 1/13)>, and nowhere else on it: ln |p| is -inf
        # on 1/143 of H, so no finite Theta exists
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), -1.0)])
        H = _closure("1/11,1/13")
        assert H.component_count == 143
        quad = QuadratureSpec("composite-midpoint", 8, True)
        with pytest.raises(NumericalFailure, match="volume fraction 6.993e-03"):
            theta_haar(p, reduce_mod1([0.0, 0.0]), H, quad)

    def test_near_zero_on_a_finite_subgroup_is_refused(self):
        # P1 is 1.1e-16 at (1/3, 1/6), one of the six points of <(1/2, 1/3)>:
        # within the rounding radius of p there, so Theta is refused, as
        # Birkhoff refuses it (the refinement walk once returned -2.609)
        H = _closure("1/2,1/3")
        lam = reduce_mod1([0.3333333333333333, 0.16666666666666666])
        with pytest.raises(NumericalFailure, match="volume fraction 1.667e-01 of H"):
            theta_haar(P1, lam, H, MID)

    def test_oversized_grid_raises_before_allocating(self, monkeypatch):
        # two components of a 3-dimensional H at 4096 points per axis would
        # be 2 x 4096^2 = 2^25 rows of Jensen's formula
        def no_grid(*args):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(cocycle, "product_grid", no_grid)
        p = TrigPolynomial(4, [((0, 0, 0, 0), 1.0), ((1, 1, 1, 1), 0.5)])
        H = _closure("sqrt2,sqrt3,1/2,sqrt5")
        assert (H.component_count, H.haar_dimension) == (2, 3)
        quad = QuadratureSpec("composite-midpoint", 4096, True)
        with pytest.raises(ValueError, match="--points"):
            theta_haar(p, reduce_mod1([0.1, 0.2, 0.3, 0.4]), H, quad)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            theta_haar(P1, reduce_mod1([0.3]), VERT, MID)


def test_two_torus_is_smyths_mahler_measure():
    # m(1 + x + y) = (3 sqrt3 / 4 pi) L(chi_-3, 2) (Smyth 1981): Jensen's formula
    # along w, and the midpoint rule at 1024 nodes in t, with its kink where a
    # root crosses the circle
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        smyth = 3 * mpmath.sqrt(3) / (4 * mpmath.pi) * mpmath.dirichlet(2, [0, 1, -1])
        est = theta_haar(P1, reduce_mod1([0.0, 0.0]), _closure("sqrt2,sqrt3"), MID)
        assert abs(est.value - smyth) <= 1e-6


@st.composite
def _circle_polys(draw):
    """A Laurent polynomial in e(w) of degree <= 4, as a 2-torus polynomial."""
    low = draw(st.integers(-2, 2))
    parts = st.floats(-1.0, 1.0)
    coeffs = draw(st.lists(st.builds(complex, parts, parts), min_size=1, max_size=5))
    return TrigPolynomial(2, [((0, low + d), c) for d, c in enumerate(coeffs)])


@settings(max_examples=60, deadline=None)
@given(_circle_polys(), st.floats(0.0, 1.0, exclude_max=True))
def test_jensen_matches_a_dense_midpoint_mean(p, t):
    # with |p| >= 0.1 on the circle, ln |p| is analytic near it and the
    # 4096-point midpoint rule converges geometrically
    nodes = np.column_stack([np.full(4096, t), (np.arange(4096) + 0.5) / 4096])
    mods = np.abs(p.eval_points(nodes))
    assume(mods.min() >= 0.1)
    est = theta_haar(p, reduce_mod1([t, 0.0]), VERT, MID)
    assert abs(est.value - np.mean(np.log(mods))) <= 1e-10


def _mahler_by_np_roots(coeffs):
    """ln |a_top| + sum of ln max(1, |r|) over the roots: the reference form."""
    roots = np.roots(coeffs[::-1])
    return math.log(abs(coeffs[-1])) + float(np.sum(np.log(np.maximum(1.0, np.abs(roots)))))


# coefficients a_0 .. a_6, with roots inside, on both sides of and outside the circle
_COEFFS = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.7j, 2.0, -0.5 + 0.5j, 0.9, 0.25 - 1j])


class TestJensenMeans:
    @pytest.mark.parametrize("degree", range(7))
    def test_matches_the_mahler_measure_by_roots(self, degree):
        a = _COEFFS[: degree + 1]
        got = cocycle._jensen_means(a[None, :], np.zeros(degree + 1))
        assert abs(got[0] - _mahler_by_np_roots(a)) <= 1e-13

    @pytest.mark.parametrize("end", ["low", "top"])
    def test_end_coefficients_within_rounding_are_dropped(self, end):
        # a coefficient of 1e-17 at either end would put a root at 1e17 or
        # 1e-17; within its radius it is a zero, and the mean is that of the rest
        a = np.array([1e-17, 3.0, 1.0]) if end == "low" else np.array([3.0, 1.0, 1e-17])
        radius = np.where(np.abs(a) < 1e-16, 1e-15, 0.0)
        got = cocycle._jensen_means(a[None, :], radius)
        assert got[0] == math.log(3.0)

    def test_a_row_with_every_coefficient_within_rounding_is_nan(self):
        a = np.array([[1e-17, 0.0, -1e-17], [1.0, 0.0, 0.0]])
        got = cocycle._jensen_means(a, np.full(3, 1e-15))
        assert math.isnan(got[0]) and got[1] == 0.0

    def test_rows_do_not_depend_on_their_batch(self):
        # rows of degrees 0..3 in one batch, and each row alone
        a = np.array([[2.0, 0, 0, 0], [0.5, 1.5j, 0, 0], [1, -3, 0.5, 0], [0, 1, 2j, -0.25],
                      [0.1, 0.2, 0.3, 0.4]], dtype=complex)
        batch = cocycle._jensen_means(a, np.zeros(4))
        singles = [cocycle._jensen_means(row[None, :], np.zeros(4))[0] for row in a]
        assert batch.tolist() == singles


@pytest.mark.parametrize("t", [0.0, 0.1, 1 / 3, 0.45, 2 / 3, 0.9])
def test_vertical_circles_match_ln_max_of_the_coefficients(t):
    # A(t) + B(t) e(-w) on H = {0} x T: Jensen's formula is ln max(|A|, |B|),
    # with |A| > |B| at t = 0, 0.1 and 0.9 and |A| < |B| at the others
    p = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((1, -1), -1.0), ((0, -1), 0.5)])
    A = 1.0 + cmath.exp(-2j * math.pi * t)
    B = -cmath.exp(2j * math.pi * t) + 0.5
    est = theta_haar(p, reduce_mod1([t, 0.3]), VERT, MID)
    assert abs(est.value - math.log(max(abs(A), abs(B)))) <= 1e-15


def test_three_dimensional_h_takes_the_midpoint_rule_outside_one_circle():
    # |2| > |e(t1)| + |0.5 e(t2 - t3)|: the mean over T^3 is ln 2, and the
    # 64 x 64 outer nodes alias nothing that the coefficients' decay leaves
    p = TrigPolynomial(3, [((0, 0, 0), 2.0), ((1, 0, 0), 1.0), ((0, 1, -1), 0.5)])
    H = _closure("sqrt2,sqrt3,sqrt5")
    assert H.haar_dimension == 3
    est = theta_haar(p, reduce_mod1([0.1, 0.2, 0.3]), H, QuadratureSpec("composite-midpoint", 64))
    assert abs(est.value - math.log(2.0)) <= 1e-12
    assert est.samples == 64


@pytest.mark.parametrize("excess", [0, 1])
def test_row_budget_counts_components_times_outer_nodes(excess, monkeypatch):
    # H from (sqrt2, sqrt3, 1/2, sqrt5): 2 components, dimension 3, so 2 x 8^2 rows
    H = _closure("sqrt2,sqrt3,1/2,sqrt5")
    monkeypatch.setattr(cocycle, "GRID_BUDGET_DEFAULT", 2 * 8**2 - excess)
    p = TrigPolynomial(4, [((0, 0, 0, 0), 1.0), ((1, 1, 1, 1), 0.5)])
    call = lambda: theta_haar(p, reduce_mod1([0.1, 0.2, 0.3, 0.4]), H,  # noqa: E731
                              QuadratureSpec("composite-midpoint", 8))
    if excess:
        with pytest.raises(ValueError, match="2 x 8\\^2 rows exceeds the budget of 127"):
            call()
    else:
        assert abs(call().value) <= 1e-15


@pytest.mark.parametrize("delta", [0.0, -1e-8, math.nan])
def test_delta_must_be_positive(delta):
    # delta = 0 used to put ln 0 = -inf into the value
    lam = reduce_mod1([0.25, 0.0])
    with pytest.raises(ValueError, match="delta must be positive"):
        theta_birkhoff(P1, lam, Gamma.from_tokens("0,sqrt2"), 1000, delta=delta)


# remark1's p has zeros at (1/3, 1/6) and (2/3, 5/6), so the bases (k/12, 1/6)
# put cosets through, near and away from them
_PARITY_TOKENS = ["0,sqrt2", "sqrt2,0", "sqrt2,sqrt3", "1/3,sqrt2", "1/2,1/3"]
_PARITY_BASES = [reduce_mod1([k / 12, 1 / 6]) for k in range(13)]


def _singles(p, lams, H, quad):
    """Each base's own theta_haar call: its estimate or its failure text."""
    out = []
    for lam in lams:
        try:
            out.append(theta_haar(p, lam, H, quad))
        except NumericalFailure as exc:
            out.append(str(exc))
    return out


def _assert_many_match(singles, lams, H, quad, p=P1):
    """The many-base call gives every passing base's estimate field for field,
    and over all bases raises the first failing base's text."""
    kept = [lam for lam, s in zip(lams, singles) if isinstance(s, ThetaEstimate)]
    assert cocycle._theta_haar_many(p, kept, H, quad) == [
        s for s in singles if isinstance(s, ThetaEstimate)
    ]
    failures = [s for s in singles if isinstance(s, str)]
    if failures:
        with pytest.raises(NumericalFailure) as exc:
            cocycle._theta_haar_many(p, lams, H, quad)
        assert str(exc.value) == failures[0]


@pytest.mark.parametrize("group_points", [50000, 7])
@pytest.mark.parametrize("tokens", _PARITY_TOKENS)
@pytest.mark.parametrize("points", [7, 32, 101])
def test_many_bases_match_single_calls(tokens, points, group_points, monkeypatch):
    # each coset is a block of rows whose means are summed on their own, so
    # one call over 13 bases equals 13 calls bit for bit, failures included,
    # whether a group holds whole cosets or splits one over many evaluations
    monkeypatch.setattr(cocycle, "_HAAR_GROUP_POINTS", group_points)
    H = _closure(tokens)
    quad = QuadratureSpec("composite-midpoint", points, True)
    singles = _singles(P1, _PARITY_BASES, H, quad)
    _assert_many_match(singles, _PARITY_BASES, H, quad)


@pytest.mark.parametrize("tokens", ["sqrt2,0", "sqrt2,sqrt2", "1/3,sqrt3"])
def test_many_bases_match_single_calls_through_companion_roots(tokens):
    # P2 along (1, 0) or (1, 1) is a quartic or cubic in e(s): its roots come
    # from one eigvals call over all the rows of a degree
    H = _closure(tokens)
    quad = QuadratureSpec("composite-midpoint", 16)
    singles = _singles(P2, _PARITY_BASES, H, quad)
    assert all(isinstance(s, ThetaEstimate) for s in singles)
    _assert_many_match(singles, _PARITY_BASES, H, quad, P2)


@pytest.mark.parametrize("tokens", _PARITY_TOKENS)
def test_many_bases_do_not_depend_on_the_group_size(tokens, monkeypatch):
    H = _closure(tokens)
    quad = QuadratureSpec("composite-midpoint", 32, True)
    singles = _singles(P1, _PARITY_BASES, H, quad)
    three_bases = 3 * H.component_count * 32 ** max(H.haar_dimension - 1, 0)
    for group_points in (1, three_bases):
        monkeypatch.setattr(cocycle, "_HAAR_GROUP_POINTS", group_points)
        _assert_many_match(singles, _PARITY_BASES, H, quad)


class TestCase3Verdict:
    def test_three_regimes(self):
        grow = theta_haar(P2, reduce_mod1([0.0, 0.0]), VERT, MID)
        decay = theta_haar(P2, reduce_mod1([0.1, 0.0]), VERT, MID)
        flat = theta_haar(P1, reduce_mod1([0.4, 0.0]), VERT, MID)
        assert case3_verdict(grow) == "growth"
        assert case3_verdict(decay) == "decay"
        assert case3_verdict(flat) == "balanced"

    def test_tolerance_validated(self):
        est = ThetaEstimate(0.0, "birkhoff", 1000, 0.0)
        with pytest.raises(ValueError):
            case3_verdict(est, tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance_that_is_not_positive_and_finite_is_refused(self, tolerance):
        # a NaN tolerance used to return "balanced"
        est = ThetaEstimate(0.0, "birkhoff", 1000, 0.0)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            case3_verdict(est, tolerance=tolerance)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, value):
        # a NaN value used to return "balanced"
        est = ThetaEstimate(value, "birkhoff", 1000, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            case3_verdict(est)

    def test_unreliable_estimate_refused(self):
        est = ThetaEstimate(0.0, "birkhoff", 1000, 0.5)
        with pytest.raises(ValueError):
            case3_verdict(est)


@pytest.mark.parametrize("resolution", [8, np.int64(8)])
def test_balanced_fraction_matches_closed_form(resolution):
    # ln max(2|cos pi t|, 1) vanishes exactly for t in [1/3, 2/3]; on the
    # 8-point grid that is t in {3/8, 4/8, 5/8}, at every w
    quad = QuadratureSpec("composite-midpoint", 256, True)
    frac = balanced_fraction(P1, VERT, quad, resolution=resolution)
    assert frac == 3 / 8


@pytest.mark.parametrize("tokens", ["0,sqrt2", "sqrt2,0", "1/2,sqrt2", "1/2,1/3"])
@pytest.mark.parametrize("p", [P1, P2], ids=["P1", "P2"])
def test_balanced_fraction_equals_a_loop_of_single_calls(p, tokens):
    H = _closure(tokens)
    quad = QuadratureSpec("composite-midpoint", 64, True)
    grid = [reduce_mod1([i / 5, j / 5]) for i in range(5) for j in range(5)]
    singles = _singles(p, grid, H, quad)
    if all(isinstance(s, ThetaEstimate) for s in singles):
        hits = sum(abs(s.value) <= 1e-6 for s in singles)
        assert balanced_fraction(p, H, quad, resolution=5) == hits / 25
    else:
        with pytest.raises(NumericalFailure):
            balanced_fraction(p, H, quad, resolution=5)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
def test_balanced_fraction_refuses_a_bad_tolerance(tolerance):
    # NaN and -1 used to return 0.0, as if no base point were balanced
    quad = QuadratureSpec("composite-midpoint", 64, True)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        balanced_fraction(P1, VERT, quad, resolution=2, tolerance=tolerance)


@pytest.mark.parametrize("resolution", [0, -3])
def test_balanced_fraction_refuses_an_empty_grid(resolution):
    # resolution 0 divided the hit count by an empty grid (ZeroDivisionError)
    quad = QuadratureSpec("composite-midpoint", 64, True)
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        balanced_fraction(P1, VERT, quad, resolution=resolution)


@pytest.mark.parametrize("resolution", [2.5, 2.0, True, np.float64(4.0), "4"])
def test_balanced_fraction_refuses_a_non_integer_resolution(resolution):
    # 2.5 scanned a 3-point grid spaced 0.4, and True one point
    quad = QuadratureSpec("composite-midpoint", 64, True)
    with pytest.raises(ValueError, match="^resolution must be an integer$"):
        balanced_fraction(P1, VERT, quad, resolution=resolution)


def _select_ladder(values):
    """The branch ladder as two np.select calls: the reference for the
    theta-only ladder and the case tags of ``phase_branch``."""
    values = np.asarray(values, dtype=complex)
    finite = np.isfinite(values)
    if not np.all(finite):
        raise ValueError(f"phase of non-finite value {values[~finite][0]} is undefined")
    re, im = values.real, values.imag
    cases = [re > 0.0, re < 0.0, im > 0.0, im < 0.0]
    case = np.select(cases, [0, 1, 2, 3], -1)
    if np.any(case < 0):
        raise ValueError("phase of zero is undefined")
    with np.errstate(all="ignore"):
        slope = np.arctan(im / re)
    rad = np.select(cases, [slope, slope + math.pi, 0.5 * math.pi, 1.5 * math.pi])
    theta = np.mod(rad / (2.0 * math.pi), 1.0)
    theta[theta >= 1.0] = 0.0
    return theta, case


# real and imaginary parts: moderate values, any finite double (subnormals
# included), signed zeros, the extreme subnormal, huge values, non-finite ones
_CASE_TAGS = ("re-positive", "re-negative", "im-positive", "im-negative")


def _where_ladder(values):
    """The branch ladder as nested np.where calls, which also built a case
    column: the formula the theta-only ladder replaced."""
    values = np.asarray(values, dtype=complex)
    pos, neg, up = values.real > 0.0, values.real < 0.0, values.imag > 0.0
    with np.errstate(all="ignore"):
        slope = np.arctan(values.imag / values.real)
    axis = np.where(up, 0.5 * math.pi, 1.5 * math.pi)
    rad = np.where(pos, slope, np.where(neg, slope + math.pi, axis))
    theta = np.mod(rad / (2.0 * math.pi), 1.0)
    theta[theta >= 1.0] = 0.0
    return theta


_LADDER_PARTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestPhaseBranch:
    def test_axis_cases(self):
        assert phase_branch(1.0).theta == 0.0
        assert phase_branch(1.0).case_tag == "re-positive"
        assert phase_branch(-2.0).theta == 0.5
        assert phase_branch(-2.0).case_tag == "re-negative"
        assert phase_branch(3j).theta == 0.25
        assert phase_branch(3j).case_tag == "im-positive"
        assert phase_branch(-0.5j).theta == 0.75
        assert phase_branch(-0.5j).case_tag == "im-negative"

    def test_quadrant_values(self):
        assert abs(phase_branch(1 + 1j).theta - 0.125) < 1e-15
        assert abs(phase_branch(1 - 1j).theta - 0.875) < 1e-15
        assert abs(phase_branch(-1 + 1j).theta - 0.375) < 1e-15
        assert abs(phase_branch(-1 - 1j).theta - 0.625) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            phase_branch(0.0)

    @pytest.mark.parametrize(
        "z", [complex(math.nan, 1.0), complex(math.nan, 0.0), complex(math.inf, 0.0)]
    )
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError, match="non-finite"):
            phase_branch(z)

    def test_orbit_pass_rejects_non_finite_values(self):
        p_nan = TrigPolynomial(2, [((0, 0), complex(math.nan, 1.0))])
        base, alpha, beta = reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("1"),)
        with pytest.raises(ValueError, match="non-finite"):
            phase_cocycle_iterate(0.0, p_nan, base, alpha, beta, 3)

    @given(st.lists(st.builds(complex, _LADDER_PARTS, _LADDER_PARTS), min_size=1, max_size=12))
    @example([complex(-0.0, 0.0)])
    @example([1j, complex(0.0, -0.0)])
    @example([complex(-0.0, 5e-324), complex(0.0, -1e300), complex(-5e-324, -0.0)])
    @example([complex(1e300, -5e-324), complex(-1e-300, 1e300), complex(math.inf, 0.0), 0j])
    @settings(max_examples=400, deadline=None)
    def test_where_ladder_matches_select_ladder(self, zs):
        # the ladder gives the np.select ladder's bits and errors, and
        # phase_branch its case tags
        try:
            want = _select_ladder(np.array(zs))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cocycle._branch_ladder(np.array(zs))
            assert str(got.value) == str(exc)
            return
        assert cocycle._branch_ladder(np.array(zs)).tobytes() == want[0].tobytes()
        assert [phase_branch(z).case_tag for z in zs] == [_CASE_TAGS[c] for c in want[1]]

    def test_where_ladder_matches_select_ladder_on_many_values(self):
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.uniform(-320, 300, size=(2, 200_000))
        parts = np.where(rng.random((2, 200_000)) < 0.5, rng.normal(size=(2, 200_000)), scale)
        parts *= rng.choice([-1.0, 1.0], size=parts.shape)
        parts[:, :4000] *= rng.random((2, 4000)) < 0.5  # +-0.0 on one or both axes
        zs = parts[0] + 1j * parts[1]
        zs[:4000][zs[:4000] == 0] = 1.0
        assert cocycle._branch_ladder(zs).tobytes() == _select_ladder(zs)[0].tobytes()

    def test_ladder_matches_the_nested_where_formula(self):
        # random values, both axes with signed zeros, subnormals and angles
        # just below 0, whose float modulo rounds up to the endpoint 1
        rng = np.random.default_rng(11)
        parts = rng.normal(size=(2, 100_000)) * 10.0 ** rng.uniform(-8, 8, size=(2, 100_000))
        edges = [complex(0.0, 1.0), complex(-0.0, 2.5), complex(0.0, -1.0), complex(-0.0, -3.0),
                 complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-2.0, -0.0),
                 complex(1.0, -1e-17), complex(1.0, -5e-324), complex(1e300, -1e-300),
                 complex(-1.0, 1e-17), complex(5e-324, -5e-324), complex(-5e-324, 0.0)]
        zs = np.concatenate([parts[0] + 1j * parts[1], edges])
        theta = cocycle._branch_ladder(zs)
        assert theta.tobytes() == _where_ladder(zs).tobytes()
        assert np.all((theta >= 0.0) & (theta < 1.0))
        tags = [phase_branch(z).case_tag for z in edges]
        assert tags == ["im-positive", "im-positive", "im-negative", "im-negative",
                        "re-positive", "re-positive", "re-negative", "re-negative",
                        "re-positive", "re-positive", "re-positive",
                        "re-negative", "re-positive", "re-negative"]

    @given(
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_differs_from_principal_argument_by_integer(self, z):
        theta = phase_branch(z).theta
        assert 0.0 <= theta < 1.0
        rebuilt = abs(z) * cmath.exp(2j * math.pi * theta)
        assert abs(rebuilt - z) <= 1e-9 * abs(z)


class TestPhaseCocycleIterate:
    BASE = reduce_mod1([0.3, 0.7])
    PAIRS = [  # <alpha, beta> in {0, 1/2, 1, sqrt2}
        ("sqrt2", "0"),
        ("1/2", "1"),
        ("1", "1"),
        ("1", "sqrt2"),
    ]

    def test_zero_steps_returns_seed(self):
        got = phase_cocycle_iterate(0.37, P2, self.BASE, (mk("1"),), (mk("1"),), 0)
        assert got == 0.37

    def test_single_step_formula(self):
        alpha, beta = (mk("1/2"),), (mk("1"),)
        got = phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, 1)
        phi0 = phase_branch(P2.eval(self.BASE.array())).theta
        want = (0.37 + phi0 + self.BASE[0] * 1.0) % 1.0
        assert mod1_dist(got - want) < 1e-10

    def test_closed_form_matches_stepwise_recursion(self):
        for a_tok, b_tok in self.PAIRS:
            alpha, beta = (mk(a_tok),), (mk(b_tok),)
            field = SyntheticPhaseField(P2, self.BASE, alpha, beta, theta0=0.37)
            for n in range(65):
                lhs = field.phase_at_step(n)
                rhs = phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, n)
                assert mod1_dist(lhs - rhs) < 1e-8, (a_tok, b_tok, n)

    def test_constant_polynomial_telescopes_to_quadratic_term(self):
        # p = 1 has zero branch angle, and n(n-1)/2 <a,b> is an integer for
        # <a,b> = 1, so only the n <t,b> term survives
        one = TrigPolynomial(2, [((0, 0), 1.0)])
        alpha, beta = (mk("1"),), (mk("1"),)
        for n in (1, 2, 7, 50):
            got = phase_cocycle_iterate(0.2, one, self.BASE, alpha, beta, n)
            want = (0.2 + n * self.BASE[0]) % 1.0
            assert mod1_dist(got - want) < 1e-10

    def test_matches_scalar_reference(self):
        # per-step reference: scalar eval and phase_branch at the exact orbit
        # points, summed in fsum; the closed form differs only by rounding
        alpha, beta = (mk("sqrt2"),), (mk("sqrt3"),)
        gamma = Gamma((-alpha[0], beta[0]))
        n = 50
        phis = [
            phase_branch(P2.eval([float(t) for t in exact_point(self.BASE, gamma, j)])).theta
            for j in range(n)
        ]
        a, b = math.sqrt(2), math.sqrt(3)
        want = 0.37 + math.fsum(phis) + n * self.BASE[0] * b - n * (n - 1) / 2 * a * b
        got = phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, n)
        assert mod1_dist(got - want) < 1e-9

    def test_one_pass_matches_each_n(self):
        # phase-check reads every n <= N off one orbit pass and prefix sum
        for a_tok, b_tok in self.PAIRS + [("1/3", "2/5")]:
            alpha, beta = (mk(a_tok),), (mk(b_tok),)
            every = _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, range(65))
            for n in range(65):
                one = phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, n)
                assert mod1_dist(every[n] - one) <= 1e-15, (a_tok, b_tok, n)

    def test_each_call_equals_the_one_pass_bitwise(self):
        # one call per n, as the benchmark's identity loop makes them, gives
        # the bits of phase-check's single pass over every n <= 400
        for a_tok, b_tok in [("sqrt2", "sqrt3"), ("1/3", "2/5"), ("-sqrt5", "1/2")]:
            alpha, beta = (mk(a_tok),), (mk(b_tok),)
            every = _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, range(401))
            each = [phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, n) for n in range(401)]
            assert np.array(each).tobytes() == every.tobytes(), (a_tok, b_tok)

    @pytest.mark.parametrize("a_tok, b_tok", [("sqrt2", "sqrt3"), ("1", "sqrt5")])
    def test_lifts_match_the_identity_at_long_orbits(self, a_tok, b_tok):
        # a float lift taken mod 1 lost the fraction here: the lifts grow
        # like n^2 <alpha, beta> / 2, and at n = 10^5 a float64 lift keeps
        # only a few digits of it, far past TOL_PHASE = 1e-8
        alpha, beta = (mk(a_tok),), (mk(b_tok),)
        field = SyntheticPhaseField(P2, self.BASE, alpha, beta, theta0=0.37)
        for n in (10**4, 10**5):
            rhs = _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, [n])[0]
            assert mod1_dist(field.phase_at_step(n) - rhs) <= 1e-12, (a_tok, b_tok, n)

    @pytest.mark.parametrize("a_tok, b_tok, old_max", [
        ("sqrt2", "-sqrt3", 1.08e-7), ("-sqrt5", "1/2", 2.81e-8)])
    def test_telescoped_terms_match_mpmath(self, a_tok, b_tok, old_max):
        # theta0 + n <t, beta> - n(n-1)/2 <alpha, beta> mod 1 (p = 1 has no
        # phase) against 50 digits: within the turns' rounding, C's at most
        # 2^-65 per step of the kernel, and below old_max, the largest error
        # of the earlier x87 long-double sums over these n
        mpmath = pytest.importorskip("mpmath")
        one = TrigPolynomial(2, [((0, 0), 1.0)])
        alpha, beta = (mk(a_tok),), (mk(b_tok),)
        worst = 0.0
        for n in (400, 10**4, 10**6):
            got = phase_cocycle_iterate(0.37, one, self.BASE, alpha, beta, n)
            with mpmath.workdps(50):
                a, b = _mp(mpmath, alpha[0]), _mp(mpmath, beta[0])
                want = mpmath.mpf(0.37) + n * mpmath.mpf(self.BASE[0]) * b - n * (n - 1) // 2 * a * b
                d = mpmath.mpf(got) - want
                gap = float(abs(d - mpmath.nint(d)))
            assert gap <= (n * (n - 1) / 2 + n + 2) * 2.0**-65 + 2.0**-54, (a_tok, b_tok, n)
            worst = max(worst, gap)
        assert worst <= old_max

    def test_non_integer_n_is_refused(self):
        # 1.5 used to be cast to the n = 1 value and 2.7 to the n = 2 value
        alpha, beta = (mk("sqrt2"),), (mk("sqrt3"),)
        with pytest.raises(ValueError, match="n must be an integer"):
            _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, [3, 1.5])
        with pytest.raises(ValueError, match="n must be an integer"):
            phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, 2.7)
        # Python ints and numpy integers of any width still pass
        every = _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, np.arange(4, dtype=np.int32))
        assert every[3] == phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, np.uint8(3))
        assert every[3] == phase_cocycle_iterate(0.37, P2, self.BASE, alpha, beta, 3)
        # no n at all, as phase-check --n 0 asks, is not refused either
        assert _phase_cocycle_rhs(0.37, P2, self.BASE, alpha, beta, range(1, 1)).shape == (0,)

    def test_vanishing_orbit_point_raises_with_step(self):
        # P1(1/3, 1/6) = 0; place the zero at step 1
        base = reduce_mod1([1 / 3, 1 / 6 - 0.25])
        with pytest.raises(PhaseUndefined) as exc:
            phase_cocycle_iterate(0.0, P1, base, (mk("0"),), (mk("1/4"),), 3)
        assert exc.value.step == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_cocycle_iterate(0.0, P2, self.BASE, (mk("1"),), (mk("1"),), -1)
        with pytest.raises(ValueError):
            phase_cocycle_iterate(0.0, P2, reduce_mod1([0.3]), (mk("1"),), (mk("1"),), 1)


@pytest.fixture(scope="module")
def gaussian_zak():
    return zak_transform(GaussianWindow(), resolution=16, truncation=6)


@pytest.mark.parametrize("k", [2, 3])
def test_interior_zero_reports_its_step(k):
    # P1 vanishes at (1/3, 1/6); beta = 1/4 walks the base onto it at step k
    base = reduce_mod1([1 / 3, 1 / 6 - k / 4])
    alpha, beta = (mk("0"),), (mk("1/4"),)
    calls = (
        lambda: phase_cocycle_iterate(0.0, P1, base, alpha, beta, k + 2),
        lambda: SyntheticPhaseField(P1, base, alpha, beta).phase_lift(k + 2),
        lambda: phase_mean_along_orbit(P1, base, alpha, beta, k + 2),
    )
    for call in calls:
        with pytest.raises(PhaseUndefined, match=f"at orbit step {k}$") as exc:
            call()
        assert exc.value.step == k


class TestSyntheticPhaseField:
    @pytest.mark.parametrize("call", ["phase_lift", "phase_at_step"])
    @pytest.mark.parametrize("n", [1.5, 2.0, np.float64(3.0), True, False, "7"])
    def test_non_integer_step_is_refused(self, call, n):
        # phase_lift(1.5) raised a TypeError from range, and
        # phase_lift(True) one from numpy's bool indexing
        field = SyntheticPhaseField(P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        with pytest.raises(ValueError, match="n must be an integer"):
            getattr(field, call)(n)

    def test_numpy_integer_steps_are_accepted(self):
        args = (P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        field = SyntheticPhaseField(*args)
        assert field.phase_lift(np.int64(5)) == SyntheticPhaseField(*args).phase_lift(5)

    def test_lift_extension_is_order_independent(self):
        args = (P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        eager = SyntheticPhaseField(*args, theta0=0.1)
        lazy = SyntheticPhaseField(*args, theta0=0.1)
        direct = eager.phase_lift(40)
        lazy.phase_lift(7)
        lazy.phase_lift(23)
        assert lazy.phase_lift(40) == direct

    def test_stepwise_fill_equals_one_pass(self):
        # the benchmark extends a field one step per call, phase-check fills
        # it in one pass: the lifts are the same bits
        args = (P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("-sqrt3"),))
        stepwise = SyntheticPhaseField(*args, theta0=0.1)
        one_pass = SyntheticPhaseField(*args, theta0=0.1)
        one_pass.phase_lift(400)
        each = [stepwise.phase_lift(n) for n in range(401)]
        assert each == [one_pass.phase_lift(n) for n in range(401)]
        assert stepwise._wholes[:401].tobytes() == one_pass._wholes.tobytes()
        assert stepwise._turns[:401].tobytes() == one_pass._turns.tobytes()

    def test_vanishing_orbit_raises(self):
        field = SyntheticPhaseField(
            P1, reduce_mod1([1 / 3, 1 / 6]), (mk("0"),), (mk("0"),)
        )
        with pytest.raises(PhaseUndefined) as exc:
            field.phase_lift(1)
        assert exc.value.step == 0

    def test_lifts_before_a_failure_stay_available(self):
        args = (P1, reduce_mod1([1 / 3, 1 / 6 - 3 / 4]), (mk("0"),), (mk("1/4"),))
        field = SyntheticPhaseField(*args, theta0=0.2)
        with pytest.raises(PhaseUndefined):
            field.phase_lift(6)
        assert field.phase_lift(3) == SyntheticPhaseField(*args, theta0=0.2).phase_lift(3)

    @pytest.mark.parametrize("call", ["phase_lift", "phase_at_step"])
    def test_negative_step_is_refused(self, call):
        field = SyntheticPhaseField(P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            getattr(field, call)(-2)

    @staticmethod
    def _count_passes(monkeypatch):
        passes = []
        orbit_pass = cocycle._phase_orbit

        def counted(base, a, b, steps, *args, **kwargs):
            passes.append((steps.start, steps.stop) if isinstance(steps, range) else len(steps))
            return orbit_pass(base, a, b, steps, *args, **kwargs)

        monkeypatch.setattr(cocycle, "_phase_orbit", counted)
        return passes

    def test_steps_one_by_one_take_logarithmically_many_passes(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        field = SyntheticPhaseField(P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        for n in range(1, 401):
            field.phase_at_step(n)
        assert len(passes) <= math.ceil(math.log2(400)) + 2
        assert passes[:4] == [(0, 1), (1, 2), (2, 4), (4, 8)]
        # a first request runs one pass to exactly its step
        passes.clear()
        fresh = SyntheticPhaseField(P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        fresh.phase_lift(400)
        assert passes == [(0, 400)] and len(fresh._turns) == 401

    def test_growth_ahead_is_capped(self, monkeypatch):
        monkeypatch.setattr(cocycle, "_LIFT_AHEAD", 8)
        passes = self._count_passes(monkeypatch)
        field = SyntheticPhaseField(P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),))
        field.phase_lift(100)
        field.phase_lift(101)
        assert passes == [(0, 100), (100, 109)]

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_any_request_order_gives_the_one_pass_lifts(self, ns):
        args = (P2, reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("-sqrt3"),))
        field = SyntheticPhaseField(*args, theta0=0.1)
        got = [field.phase_lift(n) for n in ns]
        one_pass = SyntheticPhaseField(*args, theta0=0.1)
        one_pass.phase_lift(max(ns))
        assert np.array(got).tobytes() == np.array([one_pass.phase_lift(n) for n in ns]).tobytes()
        assert field._wholes[: max(ns) + 1].tobytes() == one_pass._wholes.tobytes()
        assert field._turns[: max(ns) + 1].tobytes() == one_pass._turns.tobytes()

    def test_a_zero_past_the_requested_step_is_kept_for_later(self, monkeypatch):
        # P1 vanishes at (1/3, 1/6), which beta = 1/4 reaches at step 3
        args = (P1, reduce_mod1([1 / 3, 5 / 12]), (mk("0"),), (mk("1/4"),))
        field = SyntheticPhaseField(*args)
        field.phase_lift(1)
        field.phase_lift(2)
        # this pass runs over steps 2 and 3, past the lifts asked for
        assert field.phase_lift(3) == SyntheticPhaseField(*args).phase_lift(3)
        passes = self._count_passes(monkeypatch)
        for _ in range(2):
            with pytest.raises(PhaseUndefined, match="at orbit step 3$") as exc:
                field.phase_lift(4)
            assert exc.value.step == 3
        assert passes == []
        assert field.phase_lift(3) == SyntheticPhaseField(*args).phase_lift(3)


class TestNormalizedPhaseSequence:
    BASE = reduce_mod1([0.3, 0.7])

    def test_unit_modulus_and_determinism(self):
        field = SyntheticPhaseField(P2, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),))
        ns = [1, 5, 25, 125]
        first = normalized_phase_sequence(
            field, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), ns
        )
        again = normalized_phase_sequence(
            field, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), ns
        )
        assert first == again
        for z in first:
            assert abs(abs(z) - 1.0) < 1e-12

    def test_synthetic_field_is_walked_once(self, monkeypatch):
        # the lifts up to max(ns) come from one orbit pass, not one per n
        calls = []
        original = TrigPolynomial.eval_points

        def counting(self, pts):
            calls.append(len(pts))
            return original(self, pts)

        field = SyntheticPhaseField(P2, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),))
        monkeypatch.setattr(TrigPolynomial, "eval_points", counting)
        normalized_phase_sequence(field, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), [1, 5, 25, 125])
        assert calls == [125]

    def test_untwisted_sequence_converges_to_branch_mean(self):
        # with beta = 0 the lift is theta0 plus the plain branch sum, so
        # zeta_n tends to exp(2 pi i mean(phi)); the witness polynomial
        # stays inside one branch sheet (no winding)
        pw = TrigPolynomial(2, [((0, 0), 4 + 1j), ((1, 1), 1.0)])
        alpha, beta = (mk("sqrt2"),), (mk("0"),)
        n = 4000
        field = SyntheticPhaseField(pw, self.BASE, alpha, beta, theta0=0.11)
        zeta = normalized_phase_sequence(field, self.BASE, alpha, beta, [n])[0]
        mean, winding = phase_mean_along_orbit(pw, self.BASE, alpha, beta, n)
        assert winding == 0
        want = cmath.exp(2j * math.pi * (0.11 / n + mean))
        assert abs(zeta - want) < 1e-10

    def test_zak_grid_branch_matches_fresh_sums(self):
        # the reduced-point branch plus quasi-periodicity correction must
        # reproduce the measurable branch of the unreduced lattice sum
        Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
        alpha, beta = (mk("sqrt2"),), (mk("sqrt3"),)
        ns = [1, 2, 3, 7]
        zetas = normalized_phase_sequence(Z, self.BASE, alpha, beta, ns)
        for n, zeta in zip(ns, zetas):
            t_n = self.BASE[0] - n * math.sqrt(2)
            w_n = self.BASE[1] + n * math.sqrt(3)
            direct = phase_branch(Z.point_values([[t_n, w_n]])[0]).theta
            theta_n = (np.angle(zeta**n) / (2 * np.pi)) % 1.0
            assert mod1_dist(theta_n - direct) < 1e-10

    @pytest.mark.parametrize("window", [GaussianWindow(), HermiteWindow(3)], ids=["gauss", "hermite3"])
    def test_zak_grid_sequence_is_bitwise_the_per_point_sums(self, window, monkeypatch):
        # one paired sum over every orbit point gives the bits of one sum per point
        Z = zak_transform(window, resolution=16)
        args = (self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), [1, 2, 3, 7, 20])
        got = normalized_phase_sequence(Z, *args)

        def per_point(grid, z):
            return np.array([pairwise_lattice_sums(grid.window, r[None, :1], r[None, 1:],
                                                   grid.truncation + math.ceil(r[0]))[0]
                             for r in z])

        monkeypatch.setattr(ZakGrid, "point_values", per_point)
        assert got == normalized_phase_sequence(Z, *args)

    def test_zak_zero_raises(self):
        Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
        base = reduce_mod1([0.5, 0.5])
        with pytest.raises(PhaseUndefined):
            normalized_phase_sequence(Z, base, (mk("1"),), (mk("1"),), [1])

    def test_n_must_be_positive(self):
        field = SyntheticPhaseField(P2, self.BASE, (mk("1"),), (mk("1"),))
        with pytest.raises(ValueError):
            normalized_phase_sequence(field, self.BASE, (mk("1"),), (mk("1"),), [0])

    def test_non_integer_n_is_refused_on_a_zak_grid(self, gaussian_zak):
        # n = 1.5 used to take the orbit step 1 and divide its phase by 1.5
        with pytest.raises(ValueError, match="n must be an integer"):
            normalized_phase_sequence(
                gaussian_zak, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), [1, 1.5, 2]
            )

    def test_non_integer_n_is_refused_on_a_synthetic_field(self):
        # n = 1.5 used to index the lift cache (IndexError)
        alpha, beta = (mk("sqrt2"),), (mk("sqrt3"),)
        field = SyntheticPhaseField(P2, self.BASE, alpha, beta)
        with pytest.raises(ValueError, match="n must be an integer"):
            normalized_phase_sequence(field, self.BASE, alpha, beta, [1, 1.5, 2])

    @pytest.mark.parametrize("change", ["base", "alpha", "beta"])
    def test_synthetic_field_refuses_arguments_other_than_its_own(self, change):
        # the field used to read its own base, alpha and beta and silently
        # ignore the ones given
        alpha, beta = (mk("sqrt2"),), (mk("sqrt3"),)
        field = SyntheticPhaseField(P2, self.BASE, alpha, beta)
        args = {"base": self.BASE, "alpha": alpha, "beta": beta}
        args.update({
            "base": {"base": reduce_mod1([0.3, 0.71])},
            "alpha": {"alpha": (mk("sqrt5"),)},
            "beta": {"beta": (mk("1/2"),)},
        }[change])
        with pytest.raises(ValueError, match="synthetic field's own"):
            normalized_phase_sequence(field, n_list=[1, 2], **args)


class TestPhaseMeanAlongOrbit:
    BASE = reduce_mod1([0.3, 0.7])

    def test_no_wrap_polynomial_recovers_harmonic_mean(self):
        # mean of arg(c + u) over |u| = 1 is arg(c) when |c| > 1
        pw = TrigPolynomial(2, [((0, 0), 4 + 1j), ((1, 1), 1.0)])
        mean, winding = phase_mean_along_orbit(
            pw, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), 20000
        )
        assert winding == 0
        assert abs(mean - math.atan2(1, 4) / (2 * math.pi)) < 1e-4

    def test_wrapping_branch_averages_to_integer(self):
        # P2's branch oscillates across the 0/1 seam; the unwrapped mean is
        # an integer mod 1 and the winding count records the crossings
        mean, winding = phase_mean_along_orbit(
            P2, self.BASE, (mk("sqrt2"),), (mk("sqrt3"),), 1001
        )
        assert winding == 489
        assert mod1_dist(mean) < 1e-3
        assert mean == pytest.approx(0.9999709064357214, abs=1e-12)

    def test_dimension_mismatch_is_refused(self):
        # alpha of length 2 with beta of length 1 used to walk t - j alpha
        # alone and return (0.996, 5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            phase_mean_along_orbit(P2, self.BASE, (mk("sqrt2"), mk("1")), (mk("sqrt3"),), 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_mean_along_orbit(P2, self.BASE, (mk("1"),), (mk("1"),), 0)
        with pytest.raises(PhaseUndefined):
            phase_mean_along_orbit(
                P1, reduce_mod1([1 / 3, 1 / 6]), (mk("0"),), (mk("0"),), 5
            )


class TestClusterSets:
    def test_c1_past_a_million_points_is_refused(self):
        # <a,b> = 1/10^6 generates 2 * 10^6 roots of unity; the cap is the
        # component cap of subgroup_closure
        with pytest.raises(ValueError, match="denominator 1000000"):
            cluster_set_c1(mk("1/1000000"))

    def test_c1_orders(self):
        assert len(cluster_set_c1(mk("2")).points) == 1
        assert len(cluster_set_c1(mk("0")).points) == 1
        assert len(cluster_set_c1(mk("1")).points) == 2
        assert len(cluster_set_c1(mk("1/2")).points) == 4
        assert len(cluster_set_c1(mk("2/3")).points) == 3

    def test_c1_finite_is_a_group(self):
        pts = cluster_set_c1(mk("1/2")).points
        assert any(abs(p - 1.0) < 1e-12 for p in pts)
        for a in pts:
            for b in pts:
                assert any(abs(a * b - c) < 1e-12 for c in pts)

    def test_c1_irrational_is_full_circle(self):
        c1 = cluster_set_c1(mk("sqrt2"))
        assert c1.kind == "full-circle"
        assert c1.points == ()
        assert abs(c1.generator_angle - ((-math.sqrt(2) / 2) % 1.0)) < 1e-12

    def test_c2_integer_beta_freezes_fractional_part(self):
        pts = cluster_set_c2((mk("sqrt2"),), (mk("2"),), reduce_mod1([0.3]), 500)
        assert len(pts) == 1
        want = cmath.exp(-2j * math.pi * math.sqrt(2) * 0.3)
        assert abs(pts[0] - want) < 1e-12

    def test_c2_rational_beta_cycles(self):
        pts = cluster_set_c2((mk("sqrt2"),), (mk("1/3"),), reduce_mod1([0.3]), 500)
        assert len(pts) == 3
        want = {
            cmath.exp(-2j * math.pi * math.sqrt(2) * ((0.3 + k / 3) % 1.0))
            for k in range(3)
        }
        for p in pts:
            assert min(abs(p - w) for w in want) < 1e-10

    def test_c2_keeps_earliest_representative(self):
        pts = cluster_set_c2((mk("sqrt2"),), (mk("1/3"),), reduce_mod1([0.3]), 500)
        direct = [
            cmath.exp(-2j * math.pi * math.sqrt(2) * ((0.3 + n / 3) % 1.0))
            for n in (1, 2, 3)
        ]
        for got, want in zip(pts, direct):
            assert abs(got - want) < 1e-12

    def test_c2_is_exact_past_int64_residue_products(self):
        # omega + n beta = 0.25 - n 1e-14 mod 1; n * den passes 2**63 at n = 92,234
        beta = (mk("99999999999999/100000000000000"),)
        pts = cluster_set_c2((mk("1"),), beta, reduce_mod1([0.25]), 100_000)
        assert max(abs(p + 1j) for p in pts) < 1e-8

    def test_c2_irrational_beta_fills_circle(self):
        pts = cluster_set_c2((mk("1"),), (mk("sqrt2"),), reduce_mod1([0.0]), 4000)
        assert len(pts) > 500
        angles = np.sort(np.angle(pts))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        assert np.max(gaps) < 0.05

    def test_match_accepts_rotation(self):
        c1 = cluster_set_c1(mk("1"))  # {1, -1}
        rho = cmath.exp(0.3j)
        assert cluster_sets_match(c1, [rho, -rho])
        assert not cluster_sets_match(c1, [rho])
        assert not cluster_sets_match(c1, [rho, rho * cmath.exp(1j)])

    def test_match_full_circle_is_uninformative(self):
        c1 = cluster_set_c1(mk("sqrt2"))
        assert cluster_sets_match(c1, [1.0 + 0j])

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster_set_c2((mk("1"),), (mk("1"),), reduce_mod1([0.0]), 0)
        with pytest.raises(ValueError):
            cluster_set_c2((mk("1"),), (mk("1"), mk("1")), reduce_mod1([0.0]), 10)

    @pytest.mark.parametrize("n_max", [True, 2.5, 3.0, "3"])
    def test_c2_refuses_a_non_integer_count(self, n_max):
        # numpy raised its TypeError "expected a sequence of integers" here
        with pytest.raises(ValueError, match="^n must be an integer$"):
            cluster_set_c2((mk("1"),), (mk("sqrt2"),), reduce_mod1([0.25]), n_max)


_CLUSTER_TOKENS = ["sqrt2", "-sqrt3", "sqrt5", "pi", "-e", "0", "1", "-2", "1/2", "1/3",
                   "-2/7", "5/4", "3/5"]


@st.composite
def _cluster_inputs(draw):
    d = draw(st.integers(1, 2))
    coords = st.lists(st.sampled_from(_CLUSTER_TOKENS).map(mk), min_size=d, max_size=d)
    omega = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=d, max_size=d))
    return (tuple(draw(coords)), tuple(draw(coords)), reduce_mod1(omega),
            draw(st.integers(1, 2000)))


@st.composite
def _rotated_groups(draw):
    """(c1, c2 points, the verdict they should get): the q-th roots rotated
    by rho and shuffled, then left as they are, perturbed by at most tol/4
    each, with one point moved by at least 4 tol, with a root dropped or with
    a stray point between two roots."""
    q = draw(st.integers(1, 12))
    c1 = cluster_set_c1(mk(f"{draw(st.integers(-q, q))}/{q}"))
    n = len(c1.points)
    rho = cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
    pts = [rho * v for v in draw(st.permutations(c1.points))]
    tol = 1e-8
    mode = draw(st.sampled_from(["exact", "near", "far", "drop", "stray"]))
    if mode == "near":
        pts = [v + tol / 4 * cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
               for v in pts]
    elif mode == "far":
        k = draw(st.integers(0, n - 1))
        pts[k] *= 1 + draw(st.floats(4.0, 1e6)) * tol * cmath.exp(1j * draw(st.floats(0, 6.3)))
    elif mode == "drop" and n > 1:
        pts.pop(draw(st.integers(0, n - 1)))
    elif mode == "stray":
        pts.insert(draw(st.integers(0, n)), rho * cmath.exp(1j * math.pi / n))
    expected = mode in ("exact", "near") or (mode in ("far", "drop") and n == 1)
    return c1, pts, expected


class TestClusterOracle:
    """The array passes against the per-point loops of ``cluster_oracle``."""

    @pytest.mark.parametrize("ab", ["1/12", "3/1000", "2/7919", "1/99991"])
    def test_c1_is_the_oracle_bit_for_bit(self, ab):
        assert cluster_set_c1(mk(ab)) == cluster_oracle.cluster_set_c1(mk(ab))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5000).flatmap(
        lambda q: st.tuples(st.integers(-3 * q, 3 * q), st.just(q))))
    def test_c1_matches_the_oracle(self, pq):
        p, q = pq
        assume((2 * q) // math.gcd(p, 2 * q) <= 10**4)
        ab = mk(f"{p}/{q}")
        assert cluster_set_c1(ab) == cluster_oracle.cluster_set_c1(ab)

    @settings(max_examples=60, deadline=None)
    @given(_cluster_inputs())
    @example(((mk("sqrt2"),), (mk("1/3"),), reduce_mod1([0.3]), 500))
    # -1 and i: the rounding of {0.1 + n sqrt2} + {0.4 - n sqrt2} puts the
    # samples at -1 on both sides of the cut at angle pi
    @example(((mk("1"), mk("1"), mk("1/2")), (mk("sqrt2"), mk("-sqrt2"), mk("1/2")),
              reduce_mod1([0.1, 0.4, 0.0]), 2000))
    def test_c2_matches_the_oracle(self, args):
        assert cluster_set_c2(*args) == cluster_oracle.cluster_set_c2(*args)

    @settings(max_examples=120, deadline=None)
    @given(_rotated_groups())
    def test_match_matches_the_oracle(self, case):
        c1, pts, expected = case
        assert cluster_sets_match(c1, pts) == cluster_oracle.cluster_sets_match(c1, pts)
        assert cluster_sets_match(c1, pts) == expected

    def test_c2_collapses_a_drift_chain_to_one_point(self):
        # omega + n beta = 0.25 - n 1e-14 mod 1: neighbours 6e-14 apart, but
        # 10^5 of them span 6e-9.  The collapse is single linkage: a gap
        # above the tolerance between angle-sorted neighbours starts a
        # cluster, so the chain is one.  The oracle's rule (a cluster ends
        # past the tolerance from its first sorted value) cut it into 63.
        args = ((mk("1"),), (mk("99999999999999/100000000000000"),), reduce_mod1([0.25]), 100_000)
        pts = cluster_set_c2(*args)
        assert len(pts) == 1 and abs(pts[0] + 1j) < 1e-8
        assert len(cluster_oracle.cluster_set_c2(*args)) == 63

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
    def test_tolerances_must_be_positive_and_finite(self, tolerance):
        # nan used to collapse 1,000 distinct points into 1, -1 switched the
        # collapse off, and a nan match refused identical sets
        c1 = cluster_set_c1(mk("1/2"))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            cluster_set_c2((mk("1"),), (mk("sqrt2"),), reduce_mod1([0.25]), 1000,
                           tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            cluster_sets_match(c1, c1.points, tolerance=tolerance)


class TestRigidityScan:
    def test_integer_beta_has_no_defect(self):
        out = rigidity_scan(P2, (mk("sqrt2"),), (mk("2"),), [(1,), (3,), (-2,)])
        assert [d for _, d in out] == [0.0, 0.0, 0.0]

    def test_fractional_beta_defects(self):
        out = rigidity_scan(P2, (mk("1"),), (mk("1/3"),), [(1,), (3,)])
        assert out[0] == ((1,), pytest.approx(1 / 3, abs=1e-15))
        assert out[1] == ((3,), 0.0)

    def test_irrational_beta_defect(self):
        out = rigidity_scan(P2, (mk("1"),), (mk("sqrt2"),), [(1,)])
        assert abs(out[0][1] - (math.sqrt(2) - 1)) < 1e-12

    def test_two_dimensional_shift(self):
        p4 = TrigPolynomial(4, [((0, 0, 0, 0), 1.0)])
        out = rigidity_scan(
            p4, (mk("1"), mk("1")), (mk("1/2"), mk("1/3")), [(1, 2)]
        )
        # <(1,2), (1/2,1/3)> = 7/6, one sixth away from the integers
        assert out[0][1] == pytest.approx(1 / 6, abs=1e-15)

    @pytest.mark.parametrize("shift", [(1.5,), (True,), (np.float64(2.0),), ("1",)])
    def test_non_integer_shift_is_refused(self, shift):
        # 1.5 and True both returned the defect of the shift (1,)
        with pytest.raises(ValueError, match="^shift entries must be integers$"):
            rigidity_scan(P2, (mk("1"),), (mk("1/3"),), [shift])

    def test_numpy_integer_shifts_are_accepted(self):
        shifts = [np.array([3], dtype=np.int64), (np.int32(-2),)]
        out = rigidity_scan(P2, (mk("1"),), (mk("1/3"),), shifts)
        assert out == rigidity_scan(P2, (mk("1"),), (mk("1/3"),), [(3,), (-2,)])
        assert all(type(x) is int for shift, _ in out for x in shift)

    def test_validation(self):
        with pytest.raises(ValueError):
            rigidity_scan(P2, (mk("1"),), (mk("1"),), [(0,)])
        with pytest.raises(ValueError):
            rigidity_scan(P2, (mk("1"),), (mk("1"),), [(1, 1)])
