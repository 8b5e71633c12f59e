import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborzak import numerics, orbit
from gaborzak.errors import AmbiguousClassification, NumericalFailure
from gaborzak.numerics import STEP_BLOCK, QuadratureSpec, parse_coordinate, reduce_mod1, step_turns
from gaborzak.orbit import (
    Gamma,
    classify,
    haar_sample_points,
    orbit_points,
    subgroup_closure,
)
from gaborzak.trigpoly import TrigPolynomial, haar_average
from orbit_oracle import exact_point, exact_turn, turn_gap

P2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])


class TestClassify:
    def test_rational_is_finite(self):
        cls = classify(Gamma.from_tokens("1/2,1/3"))
        assert cls.kind == "Finite"
        assert cls.order == 6
        assert cls.relations == ((2, 0), (0, 3))

    def test_mixed_is_infinite_non_dense(self):
        cls = classify(Gamma.from_tokens("0,sqrt2"))
        assert cls.kind == "InfiniteNonDense"
        assert cls.relations == ((1, 0),)

    def test_independent_irrationals_dense(self):
        cls = classify(Gamma.from_tokens("sqrt2,sqrt3"), search_bound=100)
        assert cls.kind == "Dense"
        assert cls.relations == ()
        assert cls.search_bound == 100

    def test_linked_irrationals_found(self):
        # sqrt2 and sqrt2/2 satisfy r1 - 2 r2 = 0
        g = Gamma.from_tokens("sqrt2,irr:0.7071067811865476")
        cls = classify(g)
        assert cls.kind == "InfiniteNonDense"
        assert (1, -2) in cls.relations or (-1, 2) in cls.relations

    def test_ambiguous_near_rational(self):
        # a coordinate declared irrational but numerically 1/3
        g = Gamma.from_tokens("irr:0.3333333333333333,sqrt2")
        with pytest.raises(AmbiguousClassification) as exc:
            classify(g)
        assert exc.value.coordinate_index == 0

    @pytest.mark.parametrize(
        "tokens, index",
        [
            # 3 x - 1 = 8e-10 lies inside the default tolerance of 1e-9
            ("sqrt2,sqrt3,sqrt5,irr:0.3333333336", 3),
            # x1 near 17/23 and x2 near 7/18, which a reduced basis may carry
            # only inside relations touching both coordinates
            ("irr:0.2817181715409549,irr:0.7391304348235365,irr:0.3888888889833333", 1),
        ],
    )
    def test_ambiguous_within_tolerance(self, tokens, index):
        with pytest.raises(AmbiguousClassification) as exc:
            classify(Gamma.from_tokens(tokens))
        assert exc.value.coordinate_index == index

    def test_permutation_stability(self):
        a = classify(Gamma.from_tokens("1/2,sqrt2,sqrt3"), search_bound=20)
        b = classify(Gamma.from_tokens("sqrt2,1/2,sqrt3"), search_bound=20)
        assert a.kind == b.kind
        swapped = sorted(tuple((r[1], r[0], r[2])) for r in b.relations)
        assert sorted(a.relations) == swapped


    def test_m5_finds_every_relation(self):
        # a one-relation search reported Haar dimension 4 here
        g = Gamma.from_tokens("sqrt2,-sqrt2,sqrt3,-sqrt3,sqrt5")
        cls = classify(g)
        assert cls.kind == "InfiniteNonDense"
        assert cls.relations == ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))
        assert subgroup_closure(g, cls).haar_dimension == 3

    def test_repeated_label_with_two_rationals_is_fast(self):
        # a box scan over all 101^4 coefficient vectors took 20-25 s here;
        # the bound is wide so that a loaded host cannot fail it
        g = Gamma.from_tokens("1/2,1/3,sqrt2,sqrt2")
        start = time.perf_counter()
        cls = classify(g)
        assert time.perf_counter() - start < 10.0
        assert cls.relations == ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, -1))

    @pytest.mark.parametrize(
        "offset, relation",
        [(math.sqrt(2) + 5e-10, (1, 0, 0, -1)), (math.sqrt(2) - math.sqrt(3) + 7e-10, (1, -1, 0, -1))],
    )
    def test_near_relation_within_tolerance_is_found(self, offset, relation):
        g = Gamma.from_tokens("sqrt2,sqrt3,sqrt5,irr:" + repr(offset))
        cls = classify(g)
        assert cls.kind == "InfiniteNonDense"
        assert cls.relations == (relation,)

    @pytest.mark.parametrize("bound", [2.5, 50.0, True, "50"])
    def test_non_integer_search_bound_is_refused(self, bound):
        with pytest.raises(ValueError, match="^search bound must be an integer$"):
            classify(Gamma.from_tokens("sqrt2,sqrt3"), search_bound=bound)

    def test_search_bound_caps_the_coefficients(self):
        # sqrt2 - 60 (sqrt2 / 60) = 0 needs a coefficient of 60
        g = Gamma.from_tokens("sqrt2,irr:" + repr(math.sqrt(2) / 60))
        assert classify(g, search_bound=50).kind == "Dense"
        cls = classify(g, search_bound=60)
        assert cls.kind == "InfiniteNonDense"
        assert cls.relations == ((1, -60),)

    @given(
        st.lists(
            st.sampled_from(
                ["sqrt2", "-sqrt2", "sqrt3", "-sqrt3", "sqrt5", "-sqrt5",
                 "0", "1", "1/2", "-1/3", "2/5", "3/4"]
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_relation_rank_counts_rationals_and_repeats(self, tokens):
        # 1, sqrt2, sqrt3, sqrt5 are linearly independent over Q, so the
        # relations are q e_i per rational and e_i -+ e_j per repeated label
        labels = [t.lstrip("-") for t in tokens if "sqrt" in t]
        n_rational = len(tokens) - len(labels)
        expected = n_rational + sum(labels.count(b) - 1 for b in set(labels))
        g = Gamma.from_tokens(",".join(tokens))
        cls = classify(g)
        assert len(cls.relations) == expected
        assert subgroup_closure(g, cls).haar_dimension == len(set(labels))


class TestSubgroupClosure:
    def test_full_torus(self):
        g = Gamma.from_tokens("sqrt2,sqrt3")
        H = subgroup_closure(g, classify(g, search_bound=100))
        assert H.haar_dimension == 2
        assert H.component_count == 1

    def test_vertical_line(self):
        g = Gamma.from_tokens("0,sqrt2")
        H = subgroup_closure(g, classify(g))
        assert H.connected_directions == ((0, 1),)
        assert H.component_count == 1
        assert H.torsion_representatives[0].coords == (0.0, 0.0)

    def test_finite_orbit_components(self):
        g = Gamma.from_tokens("1/2,1/3")
        H = subgroup_closure(g, classify(g))
        assert H.haar_dimension == 0
        assert H.component_count == 6
        reps = {r.coords for r in H.torsion_representatives}
        assert len(reps) == 6
        expect = {(i / 2 % 1.0, j / 3 % 1.0) for i in range(2) for j in range(3)}
        assert reps == expect

    def test_diagonal_line(self):
        g = Gamma.from_tokens("sqrt2,sqrt2")
        H = subgroup_closure(g, classify(g))
        assert H.haar_dimension == 1
        # tangent direction proportional to (1,1)
        d = H.connected_directions[0]
        assert d[0] == d[1] != 0


class TestHaarSamples:
    def test_samples_annihilated_by_hperp(self):
        for toks in ("0,sqrt2", "sqrt2,sqrt2", "1/2,1/3"):
            g = Gamma.from_tokens(toks)
            H = subgroup_closure(g, classify(g))
            samples = haar_sample_points(H, 8)
            assert samples.shape == (H.component_count * 8**H.haar_dimension, 2)
            assert np.all((samples >= 0.0) & (samples < 1.0))
            for mu in H.annihilator_basis:
                for s in samples:
                    v = float(np.dot(mu, s))
                    assert abs(v - round(v)) <= 1e-10

    def test_nontrivial_character_mean_vanishes(self):
        g = Gamma.from_tokens("0,sqrt2")
        H = subgroup_closure(g, classify(g))
        samples = haar_sample_points(H, 16)
        assert len(samples) == 16
        vals = np.exp(2j * np.pi * samples[:, 1])
        assert abs(np.mean(vals)) < 1e-12

    def test_links_to_coefficient_filter(self):
        # empirical coset mean equals the filtered polynomial at the base
        g = Gamma.from_tokens("0,sqrt2")
        H = subgroup_closure(g, classify(g))
        lam = np.array([0.21, 0.68])
        samples = haar_sample_points(H, 512)
        emp = np.mean(
            [P2.eval(np.mod(lam + s, 1.0)) for s in samples]
        )
        filtered = haar_average(P2, [list(m) for m in H.annihilator_basis])
        assert abs(emp - filtered.eval(lam)) < 1e-10

    def test_minimum_two_points(self):
        g = Gamma.from_tokens("0,sqrt2")
        H = subgroup_closure(g, classify(g))
        with pytest.raises(ValueError):
            haar_sample_points(H, 1)

    @pytest.mark.parametrize("count", [2.5, 8.0, True, "8"])
    def test_non_integer_count_is_refused(self, count):
        # 2.5 gave the nodes 0, 0.4 and 0.8
        g = Gamma.from_tokens("0,sqrt2")
        H = subgroup_closure(g, classify(g))
        with pytest.raises(ValueError, match="^points-per-dimension must be an integer$"):
            haar_sample_points(H, count)


def _point_bound(c, n: int) -> float:
    """Float64 rounding, and for a label n times a bound on its step's
    rounding."""
    return 2.0**-53 + (0.0 if c.is_rational else n * abs(c.float()) * 2.0**-63)


class TestOrbitIteration:
    def test_finite_orbit_returns_exactly(self):
        g = Gamma.from_tokens("1/2,1/3")
        z0 = reduce_mod1([0.123, 0.456])
        z6 = orbit_points(z0, g, 7)[6]
        assert max(abs(a - b) for a, b in zip(z0.coords, z6)) < 1e-12

    def test_rational_arithmetic_is_exact(self):
        # 10^12 + 1 = 2 mod 3, computed on residues rather than floats
        c = parse_coordinate("1/3")
        turn = step_turns((1,), (c,), [10**12 + 1])[0]
        assert turn == (2 << 64) // 3
        assert turn_gap(turn, exact_turn(0.0, (1,), (c,), 10**12 + 1)) <= 2.0**-64

    def test_points_match_the_exact_oracle(self):
        g = Gamma.from_tokens("sqrt2,sqrt3")
        z0 = reduce_mod1([0.9, 0.1])
        pts = orbit_points(z0, g, 500)
        for n in (0, 1, 99, 499):
            for c, got, want in zip(g.coords, pts[n], exact_point(z0, g, n)):
                assert turn_gap(got, want) <= _point_bound(c, n), n

    def test_points_are_exact_past_int64_residue_products(self):
        # j * den passes 2**63 at j = 92,234 for den = 10**14
        g = Gamma.from_tokens("99999999999999/100000000000000,sqrt2")
        z0 = reduce_mod1([0.3, 0.6])
        pts = orbit_points(z0, g, 200_001)
        for n in (92_233, 92_234, 200_000):
            for c, got, want in zip(g.coords, pts[n], exact_point(z0, g, n)):
                assert turn_gap(got, want) <= _point_bound(c, n), n

    @pytest.mark.parametrize("tokens, z0, old_max", [
        ("sqrt2,-sqrt3", [0.9, 0.1], 6.62e-14),
        ("2/7,sqrt5,-1/3,pi", [0.3, 0.6, 0.125, 0.7], 5.98e-14),
    ])
    def test_points_match_mpmath_over_a_million_steps(self, tokens, z0, old_max):
        # 2,000 sampled steps of j < 10^6 against 50 digits: within the
        # read-out's rounding plus j times C's (2^-65 a step), and below
        # old_max, the largest error over every j < 10^6 of the earlier x87
        # long-double kernel
        g = Gamma.from_tokens(tokens)
        z = reduce_mod1(z0)
        pts = orbit_points(z, g, 10**6)
        worst = 0.0
        for n in np.linspace(0, 10**6 - 1, 2000).astype(int).tolist():
            for got, want in zip(pts[n], exact_point(z, g, n)):
                gap = turn_gap(got, want)
                assert gap <= 2.0**-54 + (n + 2) * 2.0**-65, n
                worst = max(worst, gap)
        assert worst <= old_max

    def test_equidistribution_weyl_bound(self):
        # |(1/n) sum e^{2 pi i <mu, z_j>}| <= 5/sqrt(n) for dense gamma
        g = Gamma.from_tokens("sqrt2,sqrt3")
        n = 10**5
        pts = orbit_points(reduce_mod1([0.0, 0.0]), g, n)
        bound = 5.0 / math.sqrt(n)
        for mu in [(1, 0), (0, 1), (2, -3), (4, 4), (-1, 2)]:
            s = np.exp(2j * np.pi * (pts @ np.array(mu)))
            assert abs(s.mean()) <= bound

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        g = Gamma.from_tokens("0,sqrt2")
        with pytest.raises(ValueError, match="count must be >= 1"):
            orbit_points(reduce_mod1([0.0, 0.0]), g, count)

    @pytest.mark.parametrize("count", [1000.0, np.float64(2000.0), 2.5, True, "7"])
    def test_non_integer_count_is_refused(self, count):
        # a TypeError from slicing before; True gave one point
        with pytest.raises(ValueError, match="n must be an integer"):
            orbit_points(reduce_mod1([0.1, 0.2]), Gamma.from_tokens("1/3,sqrt2"), count)

    def test_numpy_integer_count_is_accepted(self):
        z0, g = reduce_mod1([0.1, 0.2]), Gamma.from_tokens("1/3,sqrt2")
        assert np.array_equal(orbit_points(z0, g, np.int64(3000)), orbit_points(z0, g, 3000))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("tokens", [
        "1/3,sqrt2", "sqrt2,-sqrt3,1/7", f"{3**40 + 2}/{3**40 - 2},sqrt2",  # den > 2**62
    ])
    def test_points_do_not_depend_on_the_blocks_or_the_cpu_count(self, tokens, cpus, monkeypatch):
        g = Gamma.from_tokens(tokens)
        z0 = reduce_mod1(np.linspace(0.1, 0.9, g.dimension))
        count = 5 * STEP_BLOCK + 17
        want = orbit_points(z0, g, count).tobytes()  # one block, inline
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(orbit, "_ORBIT_BLOCK", STEP_BLOCK)
        assert orbit_points(z0, g, count).tobytes() == want


def test_gamma_from_config():
    from gaborzak.gabor import GaborConfig, TFPoint

    mk = parse_coordinate
    cfg = GaborConfig(
        dimension=1,
        points=(
            TFPoint((mk("0"),), (mk("0"),)),
            TFPoint((mk("sqrt2"),), (mk("sqrt3"),)),
        ),
        lattice_mask=(True, False),
    )
    g = Gamma.from_config(cfg)
    # gamma = (-alpha, beta)
    assert g.coords[0] == -mk("sqrt2")
    assert g.coords[1] == mk("sqrt3")
