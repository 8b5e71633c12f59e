import math
from functools import partial

import numpy as np
import pytest

from gaborzak import zak
from gaborzak.errors import InsufficientSupport
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


def test_decay_bound_keeps_a_numpy_integer_order():
    b = decay_bound(GaussianWindow(), np.int64(8))
    assert b == decay_bound(GaussianWindow(), 8) and type(b.order) is int


def test_hermite_decay_constant_refuses_an_order_peaking_past_its_grid():
    # the bound past the grid radius needs every term to decrease there
    with pytest.raises(ValueError, match="peaks past"):
        HermiteWindow(0).decay_constant(500)
