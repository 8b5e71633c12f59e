import copy
import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborzak import zak
from gaborzak.errors import InsufficientSupport
from gaborzak.numerics import product_grid
from gaborzak.windows import (
    GaussianWindow,
    HermiteWindow,
    SampledGridWindow,
    _cubic_cell_max,
    _squared_norm,
    decay_bound,
    l2_norm,
    sampled_window_from_csv,
)


def test_gaussian_unit_norm():
    g = GaussianWindow()
    assert abs(l2_norm(g) - 1.0) < 1e-10


def test_gaussian_even():
    g = GaussianWindow()
    ts = np.linspace(-3, 3, 41)
    assert np.array_equal(g.eval_many(ts), g.eval_many(-ts))


def test_gaussian_point_value():
    # 2^{1/4} e^{-pi}
    g = GaussianWindow()
    assert abs(g.eval_many(np.array([[1.0]]))[0] - 2**0.25 * math.exp(-math.pi)) < 1e-15


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hermite_unit_norm(n):
    h = HermiteWindow(order=n)
    assert abs(l2_norm(h, grid_step=1 / 128) - 1.0) < 1e-8


@pytest.mark.parametrize("w", [GaussianWindow(), GaussianWindow(dimension=2), HermiteWindow(order=5)],
                         ids=["gaussian-d1", "gaussian-d2", "hermite-5"])
def test_l2_norm_sums_the_squares_with_one_rounding(w):
    # a long-double np.sum rounds differently from platform to platform
    ax = np.arange(-w.effective_radius, w.effective_radius + 1 / 128, 1 / 64)
    squares = np.abs(w.eval_many(product_grid(ax, w.dimension))) ** 2
    assert l2_norm(w) == math.sqrt(math.fsum(squares.tolist()) / 64**w.dimension)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermite_parity(n):
    h = HermiteWindow(order=n)
    ts = np.linspace(-2, 2, 17)
    np.testing.assert_allclose(
        h.eval_many(-ts), (-1.0) ** n * h.eval_many(ts), atol=1e-14
    )


def test_decay_bound_is_a_bound():
    g = GaussianWindow()
    db = decay_bound(g, order=8)
    assert db.order == 8
    ts = np.linspace(-8, 8, 1601)
    vals = np.abs(g.eval_many(ts))
    assert np.all(vals <= db.constant * (1 + np.abs(ts)) ** -8.0 + 1e-300)


def test_sampled_window_roundtrip(tmp_path):
    ts = np.arange(-4, 4.0001, 1 / 32)
    vals = np.exp(-np.pi * ts**2)
    path = tmp_path / "w.csv"
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(ts, vals):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
    w = sampled_window_from_csv(str(path))
    vals = w.eval_many(np.array([[0.5], [10.0]]))
    assert abs(vals[0] - math.exp(-math.pi * 0.25)) < 1e-6
    assert vals[1] == 0.0  # outside support


def test_sampled_window_narrow_support_rejected():
    ts = np.arange(-1, 1.0001, 1 / 16)
    w = SampledGridWindow(values=np.exp(-ts**2), step=1 / 16, radius=1.0)
    with pytest.raises(InsufficientSupport):
        decay_bound(w, order=4)


def test_eval_many_shapes():
    g = GaussianWindow()
    flat = g.eval_many(np.array([0.0, 0.5, 1.0]))
    cols = g.eval_many(np.array([[0.0], [0.5], [1.0]]))
    assert flat.shape == (3,)
    np.testing.assert_allclose(flat, cols, rtol=0, atol=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_columnwise_squared_norm_is_bitwise_np_sum(d):
    pts = np.random.default_rng(d).normal(scale=5.0, size=(4099, d))
    want = np.sum(pts * pts, axis=-1)
    assert _squared_norm(pts).tobytes() == want.tobytes()


def _gaussian_sup(mpmath, d, order):
    """sup_r 2^{d/4} (1+r)^order e^{-pi r^2} to 50 digits, at its one peak."""
    with mpmath.workdps(50):
        r = (mpmath.sqrt(1 + 2 * mpmath.mpf(order) / mpmath.pi) - 1) / 2
        amp = mpmath.mpf(2) ** (mpmath.mpf(d) / 4)
        return amp * (1 + r) ** order * mpmath.exp(-mpmath.pi * r * r)


@pytest.mark.parametrize("d", [1, 2, 3, 40])
def test_gaussian_decay_constant_bounds_the_true_supremum(d):
    # the step-1/64 grid maximum sat below it (order 20, d = 1: 2.1e-4 low),
    # and at d = 3 it needed 8 GiB
    mpmath = pytest.importorskip("mpmath")
    w = GaussianWindow(d)
    for order in range(25):
        sup = _gaussian_sup(mpmath, d, order)
        c = mpmath.mpf(w.decay_constant(order))
        assert sup <= c <= sup * (1 + mpmath.mpf("1e-10"))


_TS = np.arange(-8.0, 8.0 + 1e-9, 1 / 64)
# the benchmark's sampled Gaussian
_SAMPLED_GAUSSIAN = SampledGridWindow(2**0.25 * np.exp(-np.pi * _TS * _TS), step=1 / 64, radius=8.0)
_RNG = np.random.default_rng(21)
_DENSE_CASES = {
    **{f"hermite{n}": (HermiteWindow(n), 1.01) for n in range(9)},
    "sampled-gaussian": (_SAMPLED_GAUSSIAN, 1.02),
    # coarse cells, where the spline's extrema lie between the samples
    "sampled-real": (SampledGridWindow(_RNG.normal(size=25), step=1 / 4, radius=3.0), 1.02),
    "sampled-complex": (
        SampledGridWindow(_RNG.normal(size=25) + 1j * _RNG.normal(size=25), step=1 / 4, radius=3.0),
        1.02,
    ),
}


def _dense_maximum(window, order):
    """max |f(t)| (1+|t|)^order over a step-2^-12 grid reaching 4 past the
    window's effective radius: a lower estimate of the supremum."""
    reach = window.effective_radius + 4.0
    t = np.arange(-reach, reach + 2.0**-13, 2.0**-12)
    return float(np.max(np.abs(window.eval_many(t)) * (1.0 + np.abs(t)) ** order))


@pytest.mark.parametrize("window, ratio", _DENSE_CASES.values(), ids=_DENSE_CASES.keys())
def test_decay_constant_bounds_a_dense_maximum(window, ratio):
    for order in (0, 1, 4, 8, 12, 16, 20, 24):
        dense = _dense_maximum(window, order)
        c = window.decay_constant(order)
        assert dense <= c <= ratio * dense


def test_cubic_cell_max_finds_interior_extrema():
    # random cubics, a quadratic (c0 = 0), a line and a constant on [0, 1]:
    # the maximum of |S| often lies between the ends
    rng = np.random.default_rng(4)
    c = np.concatenate([rng.normal(size=(4, 200)) * [[8.0], [8.0], [3.0], [0.5]],
                        [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.6, 2.0, 0.0], [0.2, -1.0, -3.0]]], axis=1)
    got = _cubic_cell_max(c, np.zeros((1, c.shape[1])), np.ones((1, c.shape[1])))[0]
    s = np.linspace(0.0, 1.0, 100001)[:, None]
    dense = np.max(np.abs(((c[0] * s + c[1]) * s + c[2]) * s + c[3]), axis=0)
    assert np.all(dense <= got) and np.all(got <= dense + 1e-8)
    ends = np.maximum(np.abs(c[3]), np.abs(c.sum(axis=0)))
    assert np.sum(got > ends + 1e-3) >= 20


_ORACLE_CASES = {
    **{f"gaussian-d{d}": (GaussianWindow(d), "mpmath") for d in (1, 2, 3)},
    **{f"hermite{n}": (HermiteWindow(n), "dense") for n in range(9)},
    "sampled-gaussian": (_SAMPLED_GAUSSIAN, "dense"),
}


@pytest.mark.parametrize("window, oracle", _ORACLE_CASES.values(), ids=_ORACLE_CASES.keys())
def test_chosen_truncation_meets_its_target_with_the_oracle_constants(window, oracle):
    # the 50-digit supremum for the Gaussian, the dense maximum otherwise
    if oracle == "mpmath":
        mpmath = pytest.importorskip("mpmath")
        exact = partial(_gaussian_sup, mpmath, window.dimension)
    else:
        exact = partial(_dense_maximum, window)
    d = window.dimension
    bounds = zak._decay_bounds(window)
    true = [float(exact(b.order)) for b in bounds]
    for target in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-16):
        K, _ = zak._choose_truncation(bounds, d, target)
        assert min(zak._tail_sum(c, b.order, K, d) for c, b in zip(true, bounds)) < target


@pytest.mark.parametrize("order, message", [
    (-1, "order must be >= 0"),
    (2.5, "order must be an integer"),
    (True, "order must be an integer"),
    ("4", "order must be an integer"),
])
@pytest.mark.parametrize("window", [GaussianWindow(2), HermiteWindow(3), _SAMPLED_GAUSSIAN])
def test_decay_bound_refuses_an_order_that_is_not_a_non_negative_integer(window, order, message):
    # 2.5 gave the order-2.5 constant labelled order 2, and True order 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        decay_bound(window, order)
    with pytest.raises(ValueError, match=f"^{message}$"):
        window.decay_constant(order)


@pytest.mark.parametrize("value", [2.5, 2.7, True, "2"])
@pytest.mark.parametrize("make, message", [
    (GaussianWindow, "dimension must be an integer"),
    (HermiteWindow, "order must be an integer"),
])
def test_window_constructors_refuse_a_non_integer(make, message, value):
    # HermiteWindow(2.5) was order 2 and GaussianWindow(True) dimension 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(value)


def test_decay_bound_keeps_a_numpy_integer_order():
    b = decay_bound(GaussianWindow(), np.int64(8))
    assert b == decay_bound(GaussianWindow(), 8) and type(b.order) is int


def test_hermite_decay_constant_refuses_an_order_peaking_past_its_grid():
    # the bound past the grid radius needs every term to decrease there
    with pytest.raises(ValueError, match="peaks past"):
        HermiteWindow(0).decay_constant(500)


# -- the sampled window's spline: bit for bit scipy's not-a-knot CubicSpline -------


def _assert_matches_scipy(window, rng):
    """Coefficients, values (knots, one ulp either side, random points in
    and past the support, NaN, +-inf) and decay constants equal, bit for
    bit, those of ``CubicSpline(x, values, extrapolate=False)``, whose NaN
    outside the support reads as 0."""
    interpolate = pytest.importorskip("scipy.interpolate")
    spline = interpolate.CubicSpline(window._x, window.values, extrapolate=False)
    assert window._c.tobytes() == spline.c.tobytes()
    x = window._x
    t = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                        rng.uniform(x[0] - 1.0, x[-1] + 1.0, 4000), [np.nan, np.inf, -np.inf]])
    want = spline(t)
    assert window.eval_many(t).tobytes() == np.where(np.isnan(want), 0.0, want).tobytes()
    twin = copy.copy(window)
    twin.__dict__.pop("_cell_maxima", None)
    twin._c = spline.c
    for order in (0, 4, 12, 24):
        assert window.decay_constant(order) == twin.decay_constant(order)


_TS_COARSE = np.arange(-4.0, 4.0 + 1e-9, 0.1)


@pytest.mark.parametrize("window", [
    _SAMPLED_GAUSSIAN,
    SampledGridWindow(np.exp(-np.pi * _TS_COARSE * _TS_COARSE), step=0.1, radius=4.0),
], ids=["benchmark-gaussian", "step-0.1-gaussian"])
def test_sampled_spline_is_scipys_bit_for_bit(window):
    _assert_matches_scipy(window, np.random.default_rng(3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=60),
       st.sampled_from([1 / 64, 0.1, 0.25, 1 / 3, 0.7, 1.0, 2.5]), st.floats(2.0, 10.0))
def test_random_sampled_splines_are_scipys_bit_for_bit(values, step, radius):
    _assert_matches_scipy(SampledGridWindow(np.array(values), step, radius), np.random.default_rng(len(values)))


@pytest.mark.parametrize("seed", range(20))
def test_complex_sampled_splines_are_scipys_within_rounding(seed):
    # the complex solve may round in another order than scipy's zgtsv
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 61))
    w = SampledGridWindow(rng.normal(size=n) + 1j * rng.normal(size=n), step=0.25, radius=3.0)
    want = interpolate.CubicSpline(w._x, w.values, extrapolate=False).c
    assert np.max(np.abs(w._c - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", ["step", "radius"])
def test_sampled_window_refuses_a_non_finite_step_or_radius(argument, value):
    # refused before only by scipy's own check of the grid
    kwargs = {"step": 0.25, "radius": 3.0, argument: value}
    with pytest.raises(ValueError, match="step and radius must be positive and finite"):
        SampledGridWindow(np.ones(25), **kwargs)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("step, radius", [(1e308, 1.0), (1e-10, 1e20)])
def test_sampled_window_refuses_a_grid_that_floats_cannot_hold(step, radius):
    # the last knot overflows to inf; the knots round onto one another
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        SampledGridWindow(np.ones(25), step=step, radius=radius)


def _write_rows(tmp_path, rows):
    path = tmp_path / "w.csv"
    path.write_text("".join(f"{row}\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("rows, message", [
    # kept with 5 samples before, 0.3 landing at t = 1
    (["-3,0.1", "-2,0.5", "-1,0.9", "0,0.5", "nan,0.3"], "CSV row 5: t 'nan' is not finite"),
    # the typo row was dropped, shrinking the support to [-3, 1]
    (["-3,0.1", "-2,0.5", "-1,0.9", "0,0.5", "1,0.4", "2x,0.2"], "CSV row 6: t '2x' is not a number"),
    # a mid-file header was skipped
    (["t,value", "-3,0.1", "-2,0.5", "t,value", "-1,0.9", "0,0.5"], "CSV row 4: t 't' is not a number"),
    (["-3,0.1", "-2,0.5", "-inf,0.9", "0,0.5"], "CSV row 3: t '-inf' is not finite"),
], ids=["nan-t", "typo-row", "mid-file-header", "infinite-t"])
def test_window_csv_refuses_a_bad_row_and_names_it(tmp_path, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sampled_window_from_csv(_write_rows(tmp_path, rows))


def test_window_csv_header_is_the_first_non_empty_row(tmp_path):
    w = sampled_window_from_csv(_write_rows(tmp_path, ["", "t,value", "-3,0.1", "", "-2,0.5", "-1,0.9", "0,0.5"]))
    assert (w.radius, w.step, w.values.tolist()) == (3.0, 1.0, [0.1, 0.5, 0.9, 0.5])


def test_a_sampled_zak_grid_and_a_haar_theta_load_neither_scipy_nor_numpy_ma():
    # scipy.interpolate took about 0.4 s to import, numpy.ma came with np.unique
    code = """
import sys
import numpy as np
from gaborzak.cocycle import theta_haar
from gaborzak.numerics import QuadratureSpec, reduce_mod1
from gaborzak.orbit import Gamma, classify, subgroup_closure
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import SampledGridWindow
from gaborzak.zak import zak_transform
ts = np.arange(-8.0, 8.0 + 1e-9, 1 / 64)
zak_transform(SampledGridWindow(2**0.25 * np.exp(-np.pi * ts * ts), step=1 / 64, radius=8.0), 64)
p = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
g = Gamma.from_tokens("0,sqrt2")
theta_haar(p, reduce_mod1([0.25, 0.0]), subgroup_closure(g, classify(g)), QuadratureSpec("composite-midpoint", 64))
print(*sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
