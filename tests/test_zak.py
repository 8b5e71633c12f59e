import math

import numpy as np
import pytest

from gaborzak.errors import NumericalFailure, TruncationError
from gaborzak.gabor import TFPoint, _AtomAsWindow
from gaborzak.numerics import parse_coordinate, product_grid
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow, HermiteWindow, SampledGridWindow, decay_bound
from gaborzak import zak
from gaborzak.zak import (
    ZakGrid,
    functional_equation_residual,
    locate_zero_set,
    quasi_periodicity_residual,
    zak_point,
    zak_transform,
)


def _sampled_gaussian():
    ts = np.arange(-8.0, 8.0 + 1e-9, 1 / 64)
    return SampledGridWindow(2**0.25 * np.exp(-np.pi * ts * ts), step=1 / 64, radius=8.0)


def _irrational_atom(d):
    """A Gaussian atom at irrational x and y, as gram_matrix_zak feeds it."""
    x = tuple(parse_coordinate(tok) for tok in ("sqrt2", "-sqrt3")[:d])
    y = tuple(parse_coordinate(tok) for tok in ("sqrt5", "irr:0.7390851332151607")[:d])
    return _AtomAsWindow(GaussianWindow(d), TFPoint(x, y))


def _zero_window():
    ts = np.arange(-3, 3.0001, 1 / 8)
    return SampledGridWindow(values=np.zeros_like(ts), step=1 / 8, radius=3.0)


def test_gaussian_theta_value():
    # sum_k 2^{1/4} e^{-pi k^2}, a rapidly converging theta value
    Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
    assert abs(Z.values[0, 0] - 1.2919960074815039) < 1e-12


def test_unitarity_at_grid_scale():
    Z = zak_transform(GaussianWindow(), resolution=128, truncation=6)
    assert abs(Z.grid_mean_square() - 1.0) < 1e-5


def test_unitarity_stable_under_doubling():
    a = zak_transform(GaussianWindow(), resolution=64, truncation=6)
    b = zak_transform(GaussianWindow(), resolution=128, truncation=6)
    assert abs(a.grid_mean_square() - b.grid_mean_square()) < 1e-5


def test_quasi_periodicity_residual():
    Z = zak_transform(GaussianWindow(), resolution=64, truncation=6)
    assert quasi_periodicity_residual(Z) < 1e-8


def test_quasi_periodicity_improves_with_truncation():
    r4 = quasi_periodicity_residual(
        zak_transform(GaussianWindow(), resolution=16, truncation=4, tail_target=1e-6)
    )
    r8 = quasi_periodicity_residual(
        zak_transform(GaussianWindow(), resolution=16, truncation=8, tail_target=1e-6)
    )
    assert r8 <= r4


def test_hermite_window_grid():
    Z = zak_transform(HermiteWindow(order=2), resolution=32, truncation=6)
    assert abs(Z.grid_mean_square() - 1.0) < 1e-4


def test_zero_window_all_zero():
    Z = zak_transform(_zero_window(), resolution=8, truncation=2)
    assert np.all(Z.values == 0)
    zs = locate_zero_set(Z)
    assert len(zs.points) == 8 * 8


def test_truncation_error_suggests_k():
    with pytest.raises(TruncationError) as exc:
        zak_transform(GaussianWindow(), resolution=8, truncation=1, tail_target=1e-30)
    assert exc.value.suggested_k > 1


def test_grid_budget():
    with pytest.raises(ValueError):
        zak_transform(GaussianWindow(), resolution=8192, truncation=6)
    # explicit override admits the same request in principle
    Z = zak_transform(
        GaussianWindow(), resolution=128, truncation=6, grid_budget=2**20
    )
    assert Z.resolution == 128


def test_gaussian_zero_location():
    g = GaussianWindow()
    assert abs(zak_point(g, [0.5], [0.5], 6)) <= 1e-8
    Z = zak_transform(g, resolution=128, truncation=6)
    zs = locate_zero_set(Z)
    best = min(
        max(min(abs(c - 0.5), 1 - abs(c - 0.5)) for c in pt.coords)
        for pt in zs.points
    )
    assert best <= 1 / 128


def test_constant_grid_zero_set_empty():
    Z = ZakGrid(
        dimension=1,
        resolution=8,
        truncation=1,
        tail_bound=0.0,
        values=np.ones((8, 8), dtype=complex),
        window=GaussianWindow(),
    )
    assert locate_zero_set(Z).points == ()


def test_point_value_matches_grid():
    Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
    axis = Z.axis
    for i, j in [(0, 0), (3, 11), (15, 7)]:
        assert abs(Z.point_value([axis[i]], [axis[j]]) - Z.values[i, j]) < 1e-12


def test_off_grid_point_fresh_sum():
    # off-grid evaluations recompute the lattice sum; quasi-periodicity
    # must hold at non-grid arguments too
    g = GaussianWindow()
    t, w = 0.2371, 0.6189
    lhs = zak_point(g, [t + 1.0], [w], 6)
    rhs = np.exp(2j * np.pi * w) * zak_point(g, [t], [w], 6)
    assert abs(lhs - rhs) < 1e-12


class TestFunctionalEquation:
    def test_identity_shift(self):
        Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
        pone = TrigPolynomial(2, [((0, 0), 1.0)])
        zero = (parse_coordinate("0"),)
        assert functional_equation_residual(Z, pone, zero, zero) < 1e-10

    def test_zero_window(self):
        Z = zak_transform(_zero_window(), resolution=8, truncation=2)
        pone = TrigPolynomial(2, [((0, 0), 1.0)])
        s2 = (parse_coordinate("sqrt2"),)
        assert functional_equation_residual(Z, pone, s2, s2) == 0.0

    def test_nonzero_for_candidate_coefficients(self):
        # the Gaussian system is independent, so any candidate coefficient
        # choice leaves a visible residual
        Z = zak_transform(GaussianWindow(), resolution=16, truncation=6)
        p = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 0.5), ((0, -1), -0.5)])
        s2 = (parse_coordinate("sqrt2"),)
        assert functional_equation_residual(Z, p, s2, s2) > 1e-2


def test_zero_set_invariance_under_integer_shift():
    # with integer (alpha, beta) quasi-periodicity forces |Zf| to be
    # shift-invariant, so zero-set points map to zero-set points
    Z = zak_transform(GaussianWindow(), resolution=128, truncation=6)
    zs = locate_zero_set(Z)
    assert zs.points
    one = 1.0
    for pt in zs.points:
        val = zak_point(GaussianWindow(), [pt.coords[0] - one], [pt.coords[1] + one], 6)
        assert abs(val) <= 10 * zs.threshold


def test_resolution_validation():
    with pytest.raises(ValueError):
        zak_transform(GaussianWindow(), resolution=2, truncation=6)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [4, 8, 24])
@pytest.mark.parametrize("K", [1, 5, 20])
def test_tail_sum_bounds_the_dropped_shells(d, order, K):
    # the partial sum over shells K < s < K + 3000 is below the true tail;
    # ending the series by doubling its last term claimed 0.12885 < 0.13116
    # at C=1, order=4, K=5, d=2
    partial = math.fsum(
        ((2 * s + 1) ** d - (2 * s - 1) ** d) * float(s) ** (-order)
        for s in range(K + 1, K + 3000)
    )
    assert zak._tail_sum(1.0, order, K, d) >= partial


def test_truncation_choice_computes_each_decay_bound_once(monkeypatch):
    # one window evaluation on the verification grid (radius 6 + 2, step
    # 1/64) per zak_transform call yields every decay constant
    w = GaussianWindow()
    n_verify = len(np.arange(-8.0, 8.0 + 1 / 128, 1 / 64))
    sizes = []
    original = w.eval_many

    def counting(points):
        sizes.append(len(points))
        return original(points)

    monkeypatch.setattr(w, "eval_many", counting)
    grid = zak_transform(w, resolution=8)
    assert grid.tail_bound < 1e-10
    assert sizes == [n_verify] + [8] * (2 * grid.truncation + 1)
    sizes.clear()
    zak_transform(w, resolution=8, truncation=grid.truncation)
    assert sizes == [n_verify] + [8] * (2 * grid.truncation + 1)
    sizes.clear()
    # an explicit K that misses the target still suggests a K from the same bounds
    with pytest.raises(TruncationError) as exc:
        zak_transform(w, resolution=8, truncation=1)
    assert exc.value.suggested_k == grid.truncation
    assert sizes == [n_verify]


@pytest.mark.parametrize(
    "window", [GaussianWindow(), GaussianWindow(2), HermiteWindow(3), _sampled_gaussian()]
)
def test_one_pass_decay_constants_equal_separate_decay_bounds(window):
    together = zak._decay_bounds(window)
    apart = [decay_bound(window, order) for order in (4, 8, 12, 16, 20, 24)]
    assert [(b.constant, b.order) for b in together] == [
        (b.constant, b.order) for b in apart
    ]


@pytest.mark.parametrize(
    "window, M, K",
    [
        (GaussianWindow(), 64, 6),
        (HermiteWindow(3), 32, 7),
        (_sampled_gaussian(), 16, 9),
        (_irrational_atom(1), 16, 8),
        (GaussianWindow(), 8, 8),  # 2K+1 > M: the bins alias
        (GaussianWindow(2), 8, 8),
        (_irrational_atom(2), 8, 8),
        (_irrational_atom(2), 16, 5),
    ],
    ids=["gauss", "hermite3", "sampled", "atom", "gauss-aliased", "gauss-d2-aliased",
         "atom-d2-aliased", "atom-d2"],
)
def test_fft_grid_matches_direct_lattice_sums(window, M, K):
    d = window.dimension
    flat = product_grid(np.arange(M) / M, 2 * d)
    direct = zak._lattice_sums(window, flat[:, :d], flat[:, d:], K)
    assert np.max(np.abs(zak._grid_sums(window, M, K).ravel() - direct)) < 1e-14


@pytest.mark.parametrize("window", [HermiteWindow(3), GaussianWindow(2)])
def test_grid_values_are_bitwise_reproducible(window):
    first = zak_transform(window, resolution=16).values
    assert np.array_equal(first, zak_transform(window, resolution=16).values)
