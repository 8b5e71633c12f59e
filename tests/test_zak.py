import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from gaborzak.errors import NumericalFailure, TruncationError
from gaborzak.gabor import TFPoint, _atom_eval_many
from gaborzak.numerics import parse_coordinate, product_grid
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow, HermiteWindow, SampledGridWindow
from gaborzak import numerics, zak
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
    """A Gaussian atom at irrational x and y, as a window of dimension d."""
    x = tuple(parse_coordinate(tok) for tok in ("sqrt2", "-sqrt3")[:d])
    y = tuple(parse_coordinate(tok) for tok in ("sqrt5", "irr:0.7390851332151607")[:d])
    return SimpleNamespace(dimension=d, eval_many=partial(_atom_eval_many, GaussianWindow(d), TFPoint(x, y)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize("K, message", [
    (6.9, "truncation must be an integer"), (7.5, "truncation must be an integer"),
    ("7", "truncation must be an integer"), (True, "truncation must be an integer"),
    (7.0, "truncation must be an integer"), (0, "truncation must be >= 1"),
    (np.int64(-2), "truncation must be >= 1"),
])
def test_truncation_that_is_not_a_positive_integer_is_refused_before_any_work(K, message, monkeypatch):
    # int(K) ran 6.9 as K = 6, 7.5 as 7 and '7' as 7
    def no_work(*args):
        raise AssertionError("the decay bounds were computed")

    monkeypatch.setattr(zak, "_decay_bounds", no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        zak_transform(GaussianWindow(), resolution=16, truncation=K)


def test_numpy_integer_truncation_is_accepted():
    a = zak_transform(GaussianWindow(), resolution=16, truncation=np.int64(6))
    assert a.values.tobytes() == zak_transform(GaussianWindow(), resolution=16, truncation=6).values.tobytes()


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
    # one decay_bound call per order, each a closed form for the Gaussian:
    # the window is evaluated on the Zak grid only, once per lattice shift
    # (a 1025-point verification grid call used to lead)
    w = GaussianWindow()
    sizes, orders = [], []
    original, original_bound = w.eval_many, zak.decay_bound

    def counting(points):
        sizes.append(len(points))
        return original(points)

    def counting_bound(window, order):
        orders.append(order)
        return original_bound(window, order)

    monkeypatch.setattr(w, "eval_many", counting)
    monkeypatch.setattr(zak, "decay_bound", counting_bound)
    grid = zak_transform(w, resolution=8)
    assert grid.tail_bound < 1e-10
    assert sizes == [8] * (2 * grid.truncation + 1)
    assert orders == list(zak._DECAY_ORDERS)
    sizes.clear()
    orders.clear()
    zak_transform(w, resolution=8, truncation=grid.truncation)
    assert sizes == [8] * (2 * grid.truncation + 1)
    assert orders == list(zak._DECAY_ORDERS)
    sizes.clear()
    orders.clear()
    # an explicit K that misses the target still suggests a K from the same bounds
    with pytest.raises(TruncationError) as exc:
        zak_transform(w, resolution=8, truncation=1)
    assert exc.value.suggested_k == grid.truncation
    assert sizes == []
    assert orders == list(zak._DECAY_ORDERS)


_GRID_CASES = pytest.mark.parametrize(
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


@_GRID_CASES
def test_fft_grid_matches_direct_lattice_sums(window, M, K):
    grid = product_grid(np.arange(M) / M, window.dimension)
    direct = zak._lattice_sums(window, grid, grid, K).ravel()
    assert np.max(np.abs(zak._grid_sums(window, M, K).ravel() - direct)) < 1e-14


@_GRID_CASES
def test_in_place_fft_grid_is_bitwise_out_of_place(window, M, K):
    d = window.dimension
    t_flat = product_grid(np.arange(M) / M, d)
    bins = np.zeros((t_flat.shape[0],) + (M,) * d, dtype=complex)
    for kappa in zak._kappa_tuples(K, d):
        bins[(slice(None),) + tuple(k % M for k in kappa)] += window.eval_many(
            t_flat + np.array(kappa, dtype=float)
        )
    want = np.fft.fftn(bins, axes=tuple(range(1, d + 1)))
    assert _same_bits(zak._grid_sums(window, M, K), want)


@pytest.mark.parametrize("window", [HermiteWindow(3), GaussianWindow(2)])
def test_grid_values_are_bitwise_reproducible(window):
    first = zak_transform(window, resolution=16).values
    assert np.array_equal(first, zak_transform(window, resolution=16).values)


def _pairwise_lattice_sums(window, tpts, opts, K):
    """The sums one (t, w) row at a time: one window value and one complex
    exponential per row and kappa, as the Zak layer once evaluated them."""
    n, d = tpts.shape
    out = np.zeros(n, dtype=complex)
    for kappa in zak._kappa_tuples(K, d):
        f = np.asarray(window.eval_many(tpts + np.array(kappa, dtype=float)))
        phase = np.zeros(n)
        for axis in range(d):
            if kappa[axis] != 0:
                phase = phase + opts[:, axis] * kappa[axis]
        out = out + f * np.exp(-2j * np.pi * phase)
    return out


def _pairwise_quasi_periodicity(Z):
    d = Z.dimension
    flat = product_grid(Z.axis, 2 * d)
    tpts, opts = flat[:, :d], flat[:, d:]
    base = Z.values.ravel()
    worst = 0.0
    for axis_i in range(d):
        shift = np.zeros(d)
        shift[axis_i] = 1.0
        t_shift = _pairwise_lattice_sums(Z.window, tpts + shift, opts, Z.truncation + 1)
        expected = np.exp(2j * np.pi * opts[:, axis_i]) * base
        worst = max(worst, float(np.max(np.abs(t_shift - expected))))
        o_shift = _pairwise_lattice_sums(Z.window, tpts, opts + shift, Z.truncation)
        worst = max(worst, float(np.max(np.abs(o_shift - base))))
    return worst


def _pairwise_functional_equation(Z, p, a, b):
    d = Z.dimension
    flat = product_grid(Z.axis, 2 * d)
    tpts, opts = flat[:, :d], flat[:, d:]
    lhs = p.eval_points(flat) * Z.values.ravel()
    margin = int(np.ceil(np.max(np.abs(a)))) + 1
    shifted = _pairwise_lattice_sums(Z.window, tpts - a, opts + b, Z.truncation + margin)
    diff = lhs - np.exp(-2j * np.pi * (tpts @ b)) * shifted
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


@pytest.mark.parametrize(
    "window, M",
    [(GaussianWindow(), 16), (HermiteWindow(3), 16), (_sampled_gaussian(), 8), (GaussianWindow(2), 4)],
    ids=["gauss", "hermite3", "sampled", "gauss-d2"],
)
def test_product_form_sums_are_bitwise_the_pairwise_sums(window, M):
    d = window.dimension
    Z = zak_transform(window, resolution=M)
    assert quasi_periodicity_residual(Z) == _pairwise_quasi_periodicity(Z)
    p = TrigPolynomial(2 * d, [((0,) * 2 * d, 1.0), ((-1,) + (0,) * (2 * d - 1), 0.5)])
    alpha = tuple(parse_coordinate(tok) for tok in ("-7/3", "sqrt2")[:d])
    beta = tuple(parse_coordinate(tok) for tok in ("sqrt3", "1/5")[:d])
    a = np.array([c.float() for c in alpha])
    b = np.array([c.float() for c in beta])
    assert functional_equation_residual(Z, p, alpha, beta) == _pairwise_functional_equation(
        Z, p, a, b
    )
    for t, w in [(-2.3, 0.41), (1.7, -0.6), (0.25, 0.5)]:
        t_pt, w_pt = np.full(d, t), np.full(d, w)
        K = Z.truncation + math.ceil(abs(t))
        want = _pairwise_lattice_sums(window, t_pt[None, :], w_pt[None, :], K)[0]
        assert _same_bits(zak_point(window, t_pt, w_pt, Z.truncation), want)


@pytest.mark.parametrize(
    "window", [GaussianWindow(), GaussianWindow(2), HermiteWindow(3), _sampled_gaussian()]
)
def test_pruned_truncation_choice_equals_the_full_scan(window):
    bounds = zak._decay_bounds(window)
    d = window.dimension
    for target in (1e-4, 1e-8, 1e-10, 1e-13, 1e-16):
        want = next(
            ((K, zak._best_tail(bounds, K, d)) for K in range(1, 61)
             if zak._best_tail(bounds, K, d) < target),
            None,
        )
        if want is None:
            with pytest.raises(TruncationError):
                zak._choose_truncation(bounds, d, target)
        else:
            assert zak._choose_truncation(bounds, d, target) == want


def test_zak_point_rejects_a_wrong_argument_length():
    # a surplus omega entry was ignored, a missing one raised IndexError
    with pytest.raises(ValueError, match="dimension 1"):
        zak_point(GaussianWindow(1), 0.3, [0.7, 0.2], 6)
    with pytest.raises(ValueError, match="dimension 2"):
        zak_point(GaussianWindow(2), [0.3, 0.1], [0.7], 6)
    with pytest.raises(ValueError, match="dimension 1"):
        zak_point(GaussianWindow(1), [0.3, 0.1], 0.7, 6)
    Z = zak_transform(GaussianWindow(), resolution=8)
    with pytest.raises(ValueError, match="dimension 1"):
        Z.point_value([0.3], [0.7, 0.2])


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("d, M", [(1, 64), (1, 100), (2, 16)])
def test_grid_does_not_depend_on_the_fft_blocks_or_the_cpu_count(d, M, cpus, monkeypatch):
    want = zak_transform(GaussianWindow(d), M).values.tobytes()  # one block, inline
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
    for rows in (1, 3):
        monkeypatch.setattr(zak, "_FFT_BLOCK", rows * M**d)
        assert zak_transform(GaussianWindow(d), M).values.tobytes() == want, rows


@pytest.mark.parametrize("d, M", [(1, 64), (1, 2048), (2, 32)])
def test_grid_mean_square_is_the_exact_mean_on_any_cpu_count(d, M, monkeypatch):
    # (1, 2048) and (2, 32) span 32 and 8 blocks of _FFT_BLOCK floats
    Z = zak_transform(GaussianWindow(d), M)
    sums = []
    for cpus in (1, 2):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        sums.append(Z.grid_mean_square())
    assert sums[0].hex() == sums[1].hex()
    exact = numerics.exact_sum(np.abs(Z.values) ** 2) / Z.values.size
    assert abs(sums[0] - exact) <= 1e-15 * exact


def _random_grid(d, M, seed):
    rng = np.random.default_rng(seed)
    shape = (M,) * (2 * d)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return ZakGrid(dimension=d, resolution=M, truncation=1, tail_bound=0.0,
                   values=values, window=GaussianWindow(d))


@pytest.mark.parametrize("Z, threshold", [
    (zak_transform(GaussianWindow(), 64), None),
    (zak_transform(HermiteWindow(3), 32), 0.2),
    (_random_grid(1, 16, 0), 0.5),
    (_random_grid(2, 6, 1), 0.5),
], ids=["gaussian", "hermite3", "random-d1", "random-d2"])
def test_zero_set_is_the_argwhere_points_in_row_major_order(Z, threshold):
    zs = locate_zero_set(Z, threshold)
    mask = np.abs(Z.values) < zs.threshold
    want = tuple(tuple(float(i) / Z.resolution for i in idx) for idx in np.argwhere(mask))
    assert tuple(p.coords for p in zs.points) == want
    assert want  # every case finds a zero


class _InfiniteAtHalf(GaussianWindow):
    """The Gaussian, but +inf at t = 1/2 + kappa: one grid row of the Zak
    sums is non-finite."""

    def eval_many(self, points):
        vals = super().eval_many(points)
        return np.where(np.asarray(points)[:, 0] % 1.0 == 0.5, np.inf, vals)


@pytest.mark.filterwarnings("ignore:invalid value encountered in fft:RuntimeWarning")
@pytest.mark.parametrize("cpus", [1, 2])
def test_non_finite_grid_values_raise_on_any_cpu_count(cpus, monkeypatch):
    # 1024 rows of 1024 values run as 4 blocks; the row t = 1/2 starts the third
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
    with pytest.raises(NumericalFailure, match="^non-finite Zak values on the grid$"):
        zak_transform(_InfiniteAtHalf(), 1024)
