import math

import numpy as np
import pytest

from gaborzak.errors import InsufficientSupport
from gaborzak.windows import (
    GaussianWindow,
    HermiteWindow,
    SampledGridWindow,
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
