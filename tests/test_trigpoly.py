import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborzak import numerics, trigpoly
from gaborzak.gabor import GaborConfig, TFPoint
from gaborzak.numerics import parse_coordinate
from gaborzak.trigpoly import (
    TrigPolynomial,
    from_lattice_config,
    haar_average,
    load_polynomial,
    min_modulus,
)
from peak_rss import peak_rss_mb

P1 = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])
P2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])


def test_eval_reference_values():
    assert abs(P1.eval([0.0, 0.0]) - 1.0) < 1e-15  # 1 + 1 - 1
    # at (1/2, 0): 1 + e^{-pi i} - 1 = -1
    assert abs(P1.eval([0.5, 0.0]) - (-1.0)) < 1e-15
    assert abs(abs(P2.eval([0.25, 0.25])) - 0.5) < 1e-15


def test_eval_points_matches_eval():
    rng = np.random.default_rng(3)
    pts = rng.random((50, 2))
    vals = P2.eval_points(pts)
    for z, v in zip(pts, vals):
        assert abs(v - P2.eval(z)) < 1e-13


@pytest.mark.parametrize("m", [2, 4])
def test_eval_points_is_independent_of_the_batch(m):
    # a point's value must not depend on the rows evaluated with it
    rng = np.random.default_rng(m)
    freqs = rng.integers(-5, 6, size=(6, m))
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = TrigPolynomial(m, zip(map(tuple, freqs), coeffs))
    pts = rng.random((6000, m))  # more than one block of rows
    full = p.eval_points(pts)
    singles = np.concatenate([p.eval_points(pts[i : i + 1]) for i in range(1000)])
    assert np.array_equal(singles, full[:1000])
    for lo, hi in [(0, 7), (13, 500), (999, 1000), (100, 1000), (2700, 2800), (1, 6000)]:
        assert np.array_equal(p.eval_points(pts[lo:hi]), full[lo:hi])


@pytest.mark.parametrize("width", [1, 3])
def test_eval_points_rejects_a_point_width_other_than_the_dimension(width):
    p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), 0.5)])
    with pytest.raises(ValueError, match="dimension"):
        p.eval_points(np.zeros((5, width)))


def _random_polynomial(m, seed, terms=6):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-5, 6, size=(terms, m))
    return TrigPolynomial(m, zip(map(tuple, freqs), rng.normal(size=terms) + 1j * rng.normal(size=terms)))


def _grid(p, resolution):
    """The whole grid of ``_grid_rows``, shape (resolution,) * m."""
    rows = trigpoly._grid_rows(p, resolution, 1, 0, resolution)
    return rows.reshape((resolution,) * p.dimension)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eval_grid_matches_pointwise(m):
    M = 16
    p = P1 if m == 2 else _random_polynomial(m, m)
    grid = _grid(p, M)
    assert grid.shape == (M,) * m
    axis = np.arange(M) / M
    for idx in [(0,) * m, (3, 7, 15)[:m], (11, 0, 4)[:m], (15,) * m]:
        assert abs(grid[idx] - p.eval(axis[list(idx)])) < 1e-13


@pytest.mark.parametrize("resolution", [16, 64, 1024])
@pytest.mark.parametrize("p", [P1, P2, _random_polynomial(2, 7)], ids=["P1", "P2", "random"])
def test_grid_values_are_the_per_term_outer_product_sum_bit_for_bit(p, resolution):
    # reference: the per-term np.outer(coeff * col, row) sum, written out
    ax = np.arange(resolution) / resolution
    want = np.zeros((resolution, resolution), dtype=complex)
    for (f0, f1), coeff in p.terms:
        col = np.exp(2j * math.pi * f0 * ax)
        row = np.exp(2j * math.pi * f1 * ax)
        want += np.outer(coeff * col, row)
    assert _grid(p, resolution).tobytes() == want.tobytes()


@pytest.mark.parametrize("m, resolution", [(1, 64), (2, 16), (3, 8), (4, 5)])
def test_grid_rows_do_not_depend_on_k_or_the_row_blocks(m, resolution):
    # every split of the grid into rows of its first k axes, read by blocks
    # of rows, gives the same bits
    p = _random_polynomial(m, 17 + m, terms=5)
    want = _grid(p, resolution).reshape(-1).tobytes()
    for k in range(1, m + 1):
        n = resolution**k
        for block in (1, 7, n):
            parts = [trigpoly._grid_rows(p, resolution, k, lo, min(lo + block, n))
                     for lo in range(0, n, block)]
            assert all(part.shape[1] == resolution ** (m - k) for part in parts)
            assert np.concatenate(parts).reshape(-1).tobytes() == want, (k, block)


@pytest.mark.parametrize("m, resolutions", [(2, (64, 128, 256, 1024)), (3, (16, 32, 64))])
def test_grid_values_at_a_point_do_not_depend_on_the_resolution(m, resolutions):
    # a coefficient multiplied into the whole outer product rounded by the
    # grid size: 1,665 of the 4,096 R = 64 values of this p moved at R = 256
    p = _random_polynomial(m, 11, terms=7)
    coarse = _grid(p, resolutions[0])
    for r in resolutions[1:]:
        shared = _grid(p, r)[(slice(None, None, r // resolutions[0]),) * m]
        assert shared.tobytes() == coarse.tobytes(), r


def test_zero_coefficients_dropped_and_frozen():
    p = TrigPolynomial(1, [((3,), 0.0), ((1,), 2.0)])
    assert p.terms == (((1,), 2.0 + 0j),)
    with pytest.raises(AttributeError):
        p.dimension = 5


def test_non_integer_frequency_rejected():
    with pytest.raises(ValueError):
        TrigPolynomial(1, [((0.5,), 1.0)])


_A_PLUS_B = st.lists(st.tuples(st.integers(-3, 3), st.complex_numbers(max_magnitude=1.0)),
                     min_size=1, max_size=3)


class TestMinModulus:
    def test_positive_example_grid(self):
        # P2 is remark 2's p: |p| is 0.5 at the node (1/4, 1/4), and the
        # local grid around it finds nothing lower
        res = min_modulus(P2, 1024)
        assert (res.minimum, res.argmin.coords) == (0.5, (0.25, 0.25))
        assert res.lower_bound <= res.minimum

    def test_vanishing_example(self):
        # zeros exist where 2|cos pi t| <= 1
        res = min_modulus(P1, 512)
        assert res.minimum < 1e-3

    def test_certificate_sound_on_finer_grid(self):
        res = min_modulus(P2, 128)
        fine = np.abs(_grid(P2, 1024)).min()
        assert res.lower_bound <= fine + 1e-15

    def test_zero_polynomial_is_zero_at_the_origin(self):
        res = min_modulus(TrigPolynomial(3, []), 16)
        assert res == (0.0, trigpoly.TorusPoint((0.0,) * 3), 0.0, 0.0)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            min_modulus(P2, 8)

    @pytest.mark.parametrize("resolution", [64.5, 64.0, True, "64"])
    def test_non_integer_resolution_is_refused(self, resolution):
        # 64.5 raised a TypeError from np.zeros
        with pytest.raises(ValueError, match="^resolution must be an integer$"):
            min_modulus(P2, resolution)

    def test_oversized_grid_is_refused_before_any_value(self, monkeypatch):
        # 257^3 points is past the 2^24 budget
        def never(*args):
            raise AssertionError("_grid_rows was called")

        monkeypatch.setattr(trigpoly, "_grid_rows", never)
        with pytest.raises(ValueError, match="257\\^3 points exceeds the budget 16777216"):
            min_modulus(_random_polynomial(3, 1), 257)

    def test_budget_counts_resolution_to_the_dimension(self, monkeypatch):
        monkeypatch.setattr(trigpoly, "GRID_BUDGET_DEFAULT", 17**2)
        assert min_modulus(P2, 17).minimum >= 0.5
        with pytest.raises(ValueError, match="18\\^2 points exceeds the budget 289"):
            min_modulus(P2, 18)

    @given(_A_PLUS_B, _A_PLUS_B, st.sampled_from([16, 64, 256]))
    @settings(max_examples=30, deadline=None)
    def test_bracket_holds_the_minimum_over_the_torus(self, a_terms, b_terms, resolution):
        # min over T^2 of |A(t) + B(t) e(-w)| is min_t ||A(t)| - |B(t)||, which
        # lies in [hi - L h/2, hi] for hi its minimum over 2^16 values of t
        p = TrigPolynomial(2, [((k, 0), c) for k, c in a_terms] + [((k, -1), c) for k, c in b_terms])
        t = np.arange(1 << 16) / (1 << 16)
        a, b = (sum(c * np.exp(2j * np.pi * k * t) for k, c in terms) for terms in (a_terms, b_terms))
        hi = float(np.min(np.abs(np.abs(a) - np.abs(b))))
        lo = hi - 2 * math.pi * sum(abs(c) * abs(k) for k, c in a_terms + b_terms) * 0.5 / (1 << 16)
        res = min_modulus(p, resolution)
        assert res.lower_bound <= hi + 1e-12
        assert lo - 1e-12 <= res.minimum
        assert res.lower_bound <= res.minimum

    def test_peak_rss_at_the_grid_cap(self):
        # 4096^2 points by blocks of rows; the whole grid, each term's outer
        # product beside it and |p| of it took 541 MB
        assert peak_rss_mb("""
from gaborzak.cli import remark2_polynomial
from gaborzak.trigpoly import min_modulus
assert min_modulus(remark2_polynomial(), 4096).minimum == 0.5
""") < 150


def test_parseval():
    for p in (P1, P2):
        coeff_power = sum(abs(c) ** 2 for _, c in p.terms)
        grid = _grid(p, 16)
        assert abs(np.mean(np.abs(grid) ** 2) - coeff_power) < 1e-10


class TestHaarAverage:
    def test_exact_filter(self):
        # H = {0} x T: keep frequencies with zero omega component
        avg = haar_average(P1, [[1, 0]])
        assert avg.terms == (((-1, 0), 1 + 0j), ((0, 0), 1 + 0j))

    def test_idempotent(self):
        avg = haar_average(P2, [[1, 0]])
        assert haar_average(avg, [[1, 0]]).terms == avg.terms

    def test_commutes_with_subgroup_translation(self):
        # translating by h with <mu, h> integer for mu in Hperp commutes
        # with the filter, exactly on coefficients
        h = np.array([0.0, 0.37])  # Hperp = span{(1,0)} annihilates it
        hperp = [[1, 0]]

        def translate(p):
            return TrigPolynomial(
                p.dimension,
                [
                    (f, c * cmath.exp(2j * math.pi * float(np.dot(f, h))))
                    for f, c in p.terms
                ],
            )

        assert translate(haar_average(P1, hperp)).terms == haar_average(
            translate(P1), hperp
        ).terms

    def test_non_integer_basis_rejected(self):
        with pytest.raises(ValueError):
            haar_average(P1, [[0.5, 0]])


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    terms = [{"freq": list(f), "re": c.real, "im": c.imag} for f, c in P2.terms]
    path.write_text(json.dumps({"dimension": P2.dimension, "terms": terms}))
    q = load_polynomial(str(path))
    assert q.dimension == P2.dimension
    assert q.terms == P2.terms


def _config_with_offsets(alpha_tok, beta_tok):
    mk = parse_coordinate
    pts = (
        TFPoint((mk("0"),), (mk("0"),)),
        TFPoint((mk("1"),), (mk("0"),)),
        TFPoint((mk("0"),), (mk("1"),)),
        TFPoint((mk(alpha_tok),), (mk(beta_tok),)),
    )
    return GaborConfig(dimension=1, points=pts, lattice_mask=(True, True, True, False))


def test_from_lattice_config_two_formula_comparison():
    cfg = _config_with_offsets("sqrt2", "sqrt3")
    coeffs = [0.3 - 0.1j, -0.5j, 0.25 + 0.25j]
    p = from_lattice_config(cfg, coeffs)
    assert p.dimension == 2
    rng = np.random.default_rng(9)
    lattice_pts = [pt for pt, flag in zip(cfg.points, cfg.lattice_mask) if flag]
    for z in rng.random((20, 2)):
        t, w = z
        direct = sum(
            c
            * cmath.exp(-2j * math.pi * pt.y_floats()[0] * t)
            * cmath.exp(-2j * math.pi * w * pt.x_floats()[0])
            for c, pt in zip(coeffs, lattice_pts)
        )
        assert abs(p.eval(z) - direct) < 1e-12


def test_lipschitz_bound_property():
    L = P2.lipschitz_bound()
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = rng.random(2), rng.random(2)
        lhs = abs(P2.eval(a) - P2.eval(b))
        assert lhs <= L * np.max(np.abs(a - b)) + 1e-12


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_eval_points_do_not_depend_on_the_blocks_or_the_cpu_count(cpus, monkeypatch):
    pts = np.random.default_rng(5).random((1000, 2))
    want = P2.eval_points(pts).tobytes()  # one block, inline
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
    for rows in (1, 7, 1000):
        monkeypatch.setattr(trigpoly, "_EVAL_BLOCK", rows * len(P2.terms))
        assert P2.eval_points(pts).tobytes() == want, rows
