import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gaborzak import cli
from gaborzak.cli import main
from gaborzak.gabor import GaborConfig, TFPoint, config_to_json
from gaborzak.numerics import parse_coordinate as mk
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow
from gaborzak.zak import zak_transform


@pytest.fixture
def cfg_file(tmp_path):
    pts = (
        TFPoint((mk("0"),), (mk("0"),)),
        TFPoint((mk("1"),), (mk("0"),)),
        TFPoint((mk("0"),), (mk("1"),)),
        TFPoint((mk("sqrt2"),), (mk("sqrt2"),)),
    )
    cfg = GaborConfig(
        dimension=1, points=pts, lattice_mask=(True, True, True, False)
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    return str(path)


def _save_poly(p, path):
    """Write p in the JSON layout that ``load_polynomial`` reads."""
    terms = [{"freq": list(f), "re": c.real, "im": c.imag} for f, c in p.terms]
    with open(path, "w") as fh:
        json.dump({"dimension": p.dimension, "terms": terms}, fh)


@pytest.fixture
def p1_file(tmp_path):
    p = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])
    path = tmp_path / "p1.json"
    _save_poly(p, str(path))
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassify:
    def test_finite(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", "--gamma", "1/2,1/3", "--out", str(out)]) == 0
        data = _load(out)
        assert data["kind"] == "Finite"
        assert data["order"] == 6
        assert data["relations"] == [[2, 0], [0, 3]]

    def test_mixed(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", "--gamma", "0,sqrt2", "--out", str(out)]) == 0
        data = _load(out)
        assert data["kind"] == "InfiniteNonDense"
        assert data["relations"] == [[1, 0]]

    def test_dense(self, tmp_path):
        out = tmp_path / "c.json"
        args = ["classify", "--gamma", "sqrt2,sqrt3", "--search-bound", "100"]
        assert main(args + ["--out", str(out)]) == 0
        assert _load(out)["kind"] == "Dense"

    def test_ambiguous_is_exit_code_4(self):
        assert main(["classify", "--gamma", "irr:0.3333333333333333,sqrt2"]) == 4


class TestGram:
    def test_closed_form(self, cfg_file, tmp_path):
        out = tmp_path / "g.json"
        args = ["gram", "--config", cfg_file, "--method", "closed-form"]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["method"] == "closed-form"
        assert data["independent"] is True
        assert abs(data["smallest_eigenvalue"] - 0.6832678721915559) < 1e-10
        assert len(data["matrix"]) == 4
        assert all(len(row) == 4 and len(row[0]) == 2 for row in data["matrix"])
        assert data["eigenvalues"][0] == data["smallest_eigenvalue"]
        assert data["residual_vector_norm"] < 1e-10

    def test_quadrature_agrees(self, cfg_file, tmp_path):
        out = tmp_path / "g.json"
        args = ["gram", "--config", cfg_file, "--method", "quadrature",
                "--points", "512"]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["method"] == "time-domain"
        assert abs(data["smallest_eigenvalue"] - 0.6832678721915559) < 1e-8

    def test_missing_config_is_exit_code_2(self, tmp_path):
        args = ["gram", "--config", str(tmp_path / "nope.json")]
        assert main(args) == 2

    def test_closed_form_refuses_a_non_gaussian_window(self, cfg_file, capsys):
        # the closed form ignored --window: Hermite 3 exited 0 with the
        # Gaussian's lambda_min 0.683..., where quadrature gives 0.547...
        args = ["gram", "--config", cfg_file, "--method", "closed-form",
                "--window", "hermite", "--order", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "only the unit-normalized Gaussian window" in captured.err

    def test_a_d2_config_takes_the_d2_gaussian(self, tmp_path):
        # the quadrature methods were handed the 1-D Gaussian and exited 2
        cfg = tmp_path / "d2.json"
        cfg.write_text(json.dumps({"dimension": 2, "points": [
            {"x": ["0", "0"], "y": ["0", "0"]}, {"x": ["1", "0"], "y": ["0", "1"]},
            {"x": ["sqrt2", "1/2"], "y": ["1/3", "sqrt3"]}]}))
        grams = {}
        for method, extra in [("closed-form", []), ("quadrature", ["--points", "128"]),
                              ("zak", ["--resolution", "16"])]:
            out = tmp_path / f"{method}.json"
            args = ["gram", "--config", str(cfg), "--method", method, *extra, "--out", str(out)]
            assert main(args) == 0
            grams[method] = np.array([[complex(*v) for v in row] for row in _load(out)["matrix"]])
        for method in ("quadrature", "zak"):
            assert np.max(np.abs(grams[method] - grams["closed-form"])) < 1e-14

    @pytest.mark.parametrize("args, nodes", [
        (["gram", "--points", "100000000000"], "100000000000^1"),
        (["gram", "--method", "zak", "--resolution", "100000000"], "1882842713^1"),
        (["residual", "--points", "100000000000"], "100000000000^1"),
        (["residual", "--method", "zak-domain", "--resolution", "100000000"], "1882842713^1"),
        (["gram", "--points", "100000", "--config", "D2"], "100000^2"),
    ], ids=["gram-points", "gram-resolution", "residual-points", "residual-resolution", "gram-d2"])
    def test_oversized_gram_grid_is_exit_code_2(self, args, nodes, cfg_file, tmp_path,
                                                monkeypatch, capsys):
        # each was an _ArrayMemoryError traceback with exit code 1
        from gaborzak import gabor

        def never(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(gabor, "product_grid", never)
        d2 = tmp_path / "d2.json"
        d2.write_text(json.dumps({"dimension": 2, "points": [
            {"x": ["0", "0"], "y": ["0", "0"]}, {"x": ["1", "0"], "y": ["0", "1"]},
            {"x": ["0", "1"], "y": ["1", "0"]}, {"x": ["sqrt2", "1/2"], "y": ["1/3", "sqrt3"]}]}))
        if "--config" in args:
            args = [str(d2) if a == "D2" else a for a in args]
        else:
            args = args + ["--config", cfg_file]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"Gram rule on {nodes} nodes x 4 atoms exceeds the budget of 16777216" in captured.err
        assert "lower --points or --resolution" in captured.err

    @pytest.mark.parametrize("args", [
        ["gram", "--method", "zak", "--resolution", "0"],
        ["gram", "--method", "zak", "--resolution", "2"],
        ["residual", "--method", "zak-domain", "--resolution", "0"],
    ], ids=lambda a: f"{a[0]}-{a[-1]}")
    def test_zak_resolution_below_4_is_exit_code_2(self, args, cfg_file, capsys):
        # 0 was a ZeroDivisionError traceback, 2 printed "independent": true
        assert main(args + ["--config", cfg_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resolution must be >= 4" in captured.err


@pytest.mark.parametrize("value, message", [
    ("0.5x", "value '0.5x' is not a number"),
    ("nan", "value 'nan' is not finite"),
    ("inf", "value 'inf' is not finite"),
])
def test_a_bad_window_value_is_exit_code_2_naming_its_row(value, message, tmp_path, capsys):
    # "0.5x" exited 2 with float's own message; nan and inf as "samples
    # must be finite": neither named the row
    path = tmp_path / "w.csv"
    path.write_text(f"t,value\n-3,0.1\n-2,{value}\n-1,0.9\n0,0.5\n")
    assert main(["zak", "--window", "sampled", "--window-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"CSV row 3: {message}" in captured.err


def test_residual(cfg_file, tmp_path):
    out = tmp_path / "r.json"
    args = ["residual", "--config", cfg_file, "--method", "time-domain"]
    assert main(args + ["--out", str(out)]) == 0
    data = _load(out)
    assert abs(data["residual"] - 0.9989307701487270) < 1e-8
    assert data["target_index"] == 3
    assert len(data["coefficients"]) == 3


@pytest.mark.parametrize("target", ["-1", "-3", "4", "9"])
def test_residual_target_outside_the_config_is_exit_code_2(target, cfg_file, capsys):
    # -1 exited 0 with "residual": 0.0; 9 was an IndexError traceback
    assert main(["residual", "--config", cfg_file, "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target index" in captured.err


class TestZak:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "z.csv"
        args = ["zak", "--resolution", "8", "--truncation", "6"]
        assert main(args + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,omega,re,im,abs"
        assert len(lines) == 1 + 8 * 8
        first = lines[1].split(",")
        assert [float(first[0]), float(first[1])] == [0.0, 0.0]
        for ln in lines[1:]:
            t, w, re, im, ab = map(float, ln.split(","))
            assert abs(complex(re, im)) == pytest.approx(ab, abs=1e-15)

    @pytest.mark.parametrize("dimension, resolution", [(1, 64), (1, 256), (2, 8)])
    def test_csv_bytes_match_per_value_formatting(
        self, dimension, resolution, tmp_path, monkeypatch
    ):
        window = GaussianWindow(dimension)
        monkeypatch.setattr(cli, "_window_from_args", lambda args: window)
        out = tmp_path / "z.csv"
        assert main(["zak", "--resolution", str(resolution), "--out", str(out)]) == 0
        Z = zak_transform(window, resolution=resolution, tail_target=1e-10)
        labels = (
            ["t", "omega"]
            if dimension == 1
            else ["t1", "t2", "omega1", "omega2"]
        )
        # the former per-value loop: np.ndindex, numpy scalar abs
        lines = [",".join(labels + ["re", "im", "abs"])]
        for idx in np.ndindex(*Z.values.shape):
            z = Z.values[idx]
            coords = [repr(i / resolution) for i in idx]
            lines.append(
                ",".join(
                    coords
                    + [repr(float(z.real)), repr(float(z.imag)), repr(float(abs(z)))]
                )
            )
        text = out.read_text()
        got = text.splitlines()
        differ = [i for i, (a, b) in enumerate(zip(got, lines)) if a != b]
        assert len(got) == len(lines) and not differ, f"lines {differ[:3]} differ"
        assert text.endswith("\n")

    @pytest.mark.parametrize("target", ["0", "-1", "nan"])
    def test_tail_target_that_is_not_positive_is_exit_code_2(self, target, capsys):
        # exit 3, "no truncation radius up to 60 meets the tail target"
        assert main(["zak", "--resolution", "16", "--tail-target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid configuration: tail target must be positive" in captured.err

    def test_oversized_grid_is_exit_code_2(self, monkeypatch, capsys):
        # 4097^2 values is past the 2^24 budget: refused before any lattice sum
        from gaborzak import zak

        def never(*args, **kwargs):
            raise AssertionError("_grid_sums was called")

        monkeypatch.setattr(zak, "_grid_sums", never)
        assert main(["zak", "--resolution", "4097"]) == 2
        assert "exceeds the budget 16777216" in capsys.readouterr().err


class TestTheta:
    def test_haar(self, p1_file, tmp_path):
        out = tmp_path / "t.json"
        args = [
            "theta", "--poly", p1_file, "--gamma", "0,sqrt2",
            "--lambda", "0.25,0", "--method", "haar", "--points", "512",
        ]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["method"] == "haar-quadrature"
        assert abs(data["value"] - 0.5 * math.log(2)) < 1e-10
        assert data["skipped_fraction"] == 0.0

    def test_birkhoff(self, p1_file, tmp_path):
        out = tmp_path / "t.json"
        args = [
            "theta", "--poly", p1_file, "--gamma", "0,sqrt2",
            "--lambda", "0,0.2", "--method", "birkhoff", "--n", "20000",
        ]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["method"] == "birkhoff"
        assert abs(data["value"] - math.log(2)) < 5e-3

    @pytest.mark.parametrize("dimension,gamma,lam", [
        (3, "sqrt2,sqrt3", "0.1,0.2"),
        (2, "sqrt2,sqrt3,sqrt5", "0.1,0.2,0.3"),
    ])
    def test_birkhoff_dimension_mismatch_is_exit_code_2(
        self, tmp_path, capsys, dimension, gamma, lam
    ):
        # 1 + 0.5 e(t_m) once read only the columns it had points for
        top = (0,) * (dimension - 1) + (1,)
        p = TrigPolynomial(dimension, [((0,) * dimension, 1.0), (top, 0.5)])
        path = tmp_path / "p.json"
        _save_poly(p, str(path))
        args = [
            "theta", "--method", "birkhoff", "--poly", str(path), "--gamma", gamma,
            "--lambda", lam, "--n", "1000",
        ]
        assert main(args) == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_unresolvable_zero_set_is_exit_code_3(self, tmp_path):
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), -1.0)])
        path = tmp_path / "diag.json"
        _save_poly(p, str(path))
        args = [
            "theta", "--poly", str(path), "--gamma", "sqrt2,sqrt2",
            "--lambda", "0,0", "--method", "haar", "--points", "32",
        ]
        assert main(args) == 3

    def test_birkhoff_on_a_zero_coset_is_exit_code_3(self, tmp_path, capsys):
        # 1 - e(t - w) vanishes on the whole diagonal coset: every step is
        # skipped, and the average once wrote "value": 0.0 ("balanced")
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), -1.0)])
        path = tmp_path / "diag.json"
        _save_poly(p, str(path))
        args = [
            "theta", "--poly", str(path), "--gamma", "sqrt2,sqrt2",
            "--lambda", "0,0", "--method", "birkhoff",
        ]
        assert main(args) == 3
        assert "skipped a fraction 1.000e+00" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["birkhoff", "haar"])
    def test_near_zero_on_a_finite_subgroup_is_exit_code_3(self, p1_file, capsys, method):
        # P1 is 1.1e-16 at (1/3, 1/6), one of the six points of H = <(1/2, 1/3)>:
        # Haar once clamped a sixth of H and wrote -2.609, where Birkhoff exits 3
        args = [
            "theta", "--poly", p1_file, "--gamma", "1/2,1/3",
            "--lambda", "0.3333333333333333,0.16666666666666666", "--method", method,
        ]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fraction 1.667e-01" in captured.err

    def test_nonpositive_delta_is_exit_code_2(self, p1_file, capsys):
        # --delta 0 once wrote "value": -Infinity, which is not JSON
        args = [
            "theta", "--poly", p1_file, "--gamma", "0,sqrt2", "--lambda", "0.25,0",
            "--method", "birkhoff", "--n", "1000", "--delta", "0",
        ]
        assert main(args) == 2
        assert "delta must be positive" in capsys.readouterr().err

    def test_haar_ignores_delta(self, p1_file, capsys):
        # --delta is the Birkhoff skip threshold; Haar Theta clamps nothing
        args = ["theta", "--poly", p1_file, "--gamma", "0,sqrt2", "--lambda", "0.25,0"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--delta", "0"]) == 0
        assert capsys.readouterr().out == plain

    def test_oversized_haar_grid_is_exit_code_2(self, tmp_path, capsys):
        # 2 components x 4096^2 outer nodes of a 3-dimensional H: 2^25 rows
        p = TrigPolynomial(4, [((0, 0, 0, 0), 1.0), ((1, 1, 1, 1), 0.5)])
        path = tmp_path / "q.json"
        _save_poly(p, str(path))
        args = [
            "theta", "--poly", str(path), "--gamma", "sqrt2,sqrt3,1/2,sqrt5",
            "--lambda", "0.1,0.2,0.3,0.4", "--points", "4096",
        ]
        assert main(args) == 2
        assert "--points" in capsys.readouterr().err


def test_phase_check(tmp_path):
    p2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
    path = tmp_path / "p2.json"
    _save_poly(p2, str(path))
    out = tmp_path / "pc.json"
    args = [
        "phase-check", "--poly", str(path), "--base", "0.3,0.7",
        "--alpha", "1", "--beta", "sqrt2", "--n", "32", "--theta0", "0.37",
    ]
    assert main(args + ["--out", str(out)]) == 0
    data = _load(out)
    assert data["steps"] == 32
    assert data["max_mod1_error"] < 1e-8
    assert abs(data["inner_product_alpha_beta"] - math.sqrt(2)) < 1e-12


def test_phase_check_walks_the_orbit_once(tmp_path, monkeypatch):
    # the right-hand side for every n <= N comes from one pass over N steps,
    # and the field fills its cache in another: 2N points, not N^2/2
    from gaborzak import cocycle

    steps = []
    original = cocycle._phase_orbit

    def counting(base, alpha, beta, js, *args, **kwargs):
        steps.append(len(js))
        return original(base, alpha, beta, js, *args, **kwargs)

    monkeypatch.setattr(cocycle, "_phase_orbit", counting)
    p2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
    path = tmp_path / "p2.json"
    _save_poly(p2, str(path))
    args = [
        "phase-check", "--poly", str(path), "--base", "0.3,0.7",
        "--alpha", "1/2", "--beta", "sqrt2", "--n", "100",
        "--out", str(tmp_path / "pc.json"),
    ]
    assert main(args) == 0
    assert sum(steps) == 200
    assert _load(tmp_path / "pc.json")["max_mod1_error"] < 1e-8


def test_phase_check_evaluates_p_twice(tmp_path, monkeypatch):
    # one eval_points call for the right-hand side and one for the field's
    # lifts, where a cache extended per step made N + 1
    calls = []
    original = TrigPolynomial.eval_points

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(TrigPolynomial, "eval_points", counting)
    p2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
    path = tmp_path / "p2.json"
    _save_poly(p2, str(path))
    args = [
        "phase-check", "--poly", str(path), "--base", "0.3,0.7",
        "--alpha", "1/2", "--beta", "sqrt2", "--out", str(tmp_path / "pc.json"),
    ]
    assert main(args) == 0
    assert len(calls) <= 2
    assert sum(calls) == 128


def test_phase_check_vanishing_base_is_exit_code_3(p1_file, capsys):
    # 1 + e^{-2pi i t} - e^{-2pi i w} = 0 at (1/3, 1/6): the phase field is
    # undefined at step 0 and the CLI must report it like any other
    # numerical failure, not leak a traceback.
    args = [
        "phase-check", "--poly", p1_file, "--base",
        "0.3333333333333333,0.16666666666666666",
        "--alpha", "sqrt2", "--beta", "0", "--n", "8",
    ]
    assert main(args) == 3
    assert "numerical failure" in capsys.readouterr().err


class TestCluster:
    def test_integer_beta_consistent(self, tmp_path):
        out = tmp_path / "cl.json"
        args = ["cluster", "--alpha", "1", "--beta", "2", "--n-max", "200"]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["c1"]["kind"] == "finite-roots"
        assert len(data["c1"]["points"]) == 1
        assert len(data["c2"]) == 1
        assert data["consistent"] is True

    def test_inner_product_override_exposes_contradiction(self, tmp_path):
        # numerically sqrt2*sqrt2 cannot be recognized as rational, so the
        # caller supplies the exact product; the dense c2 then contradicts
        # the one-point c1, which is the rigidity obstruction
        out = tmp_path / "cl.json"
        args = [
            "cluster", "--alpha", "sqrt2", "--beta", "sqrt2",
            "--inner-product", "2", "--n-max", "500",
        ]
        assert main(args + ["--out", str(out)]) == 0
        data = _load(out)
        assert data["c1"]["kind"] == "finite-roots"
        assert len(data["c1"]["points"]) == 1
        assert len(data["c2"]) > 100
        assert data["consistent"] is False


def test_dual_four_times_is_identity(cfg_file, tmp_path):
    src = cfg_file
    for k in range(4):
        dst = tmp_path / f"dual{k}.json"
        assert main(["dual", "--config", src, "--out", str(dst)]) == 0
        src = str(dst)
    assert _load(src) == _load(cfg_file)
    assert _load(tmp_path / "dual0.json") != _load(cfg_file)


class TestRemarkCommands:
    def test_remark1_output(self, tmp_path, capsys):
        out = tmp_path / "r1.csv"
        args = ["remark1", "--points", "256", "--t-count", "9"]
        assert main(args + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max |theta_quadrature - theta_closed_form|" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "t,theta_quadrature,theta_closed_form"
        assert len(lines) == 10
        for ln in lines[1:]:
            t, q, c = map(float, ln.split(","))
            assert abs(q - c) < 1e-4

    def test_remark1_reruns_byte_identical(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["remark1", "--points", "128", "--t-count", "5"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert main(["--threads", "2"] + base + ["--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_remark2_output(self, tmp_path, capsys):
        out = tmp_path / "r2.csv"
        args = [
            "remark2", "--points", "256", "--w-count", "4", "--min-grid", "64",
        ]
        assert main(args + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "grid min |p| = 0.5" in printed
        assert "max |theta|" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "w,theta"
        assert len(lines) == 5
        for ln in lines[1:]:
            _, v = map(float, ln.split(","))
            assert abs(v) < 1e-6

    def test_oversized_min_grid_is_exit_code_2(self, monkeypatch, capsys):
        # 4097^2 points is past the 2^24 budget, as for zak --resolution 4097
        from gaborzak import trigpoly

        def never(*args):
            raise AssertionError("_grid_rows was called")

        monkeypatch.setattr(trigpoly, "_grid_rows", never)
        assert main(["remark2", "--w-count", "1", "--min-grid", "4097"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4097^2 points exceeds the budget 16777216" in captured.err

    @pytest.mark.parametrize("args, flag", [
        (["remark1", "--t-count", "1"], "--t-count"),
        (["remark1", "--t-count", "0"], "--t-count"),
        (["remark2", "--w-count", "0"], "--w-count"),
    ])
    def test_too_few_curve_points_is_exit_code_2(self, args, flag, capsys):
        # --t-count 1 divided by t_count - 1 (a ZeroDivisionError traceback)
        assert main(args + ["--points", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_remark1_curve_is_the_closed_form(self):
        # Jensen's formula on each vertical circle: the walk was off by 1e-11
        rows = cli.remark1_curve()
        assert len(rows) == 101
        assert max(abs(q - c) for _, q, c in rows) <= 1e-14

    def test_remark2_curve_is_exactly_zero(self):
        # every root lies outside the circle, so Theta is ln |a_low| = ln 1
        rows, _ = cli.remark2_curve(w_count=32, min_grid=16)
        assert [v for _, v in rows] == [0.0] * 32


class TestErrorPaths:
    def test_unknown_flag_is_exit_code_2(self):
        assert main(["classify", "--gamma", "1,1", "--frobnicate"]) == 2

    def test_missing_subcommand_is_exit_code_2(self):
        assert main([]) == 2

    def test_bad_poly_file_is_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        args = ["theta", "--poly", str(bad), "--gamma", "0,sqrt2",
                "--lambda", "0,0"]
        assert main(args) == 2

    @pytest.mark.parametrize("terms, message", [
        ([[1, 0], [1.0, 0.0]], "polynomial term 0 must be an object"),
        ([{"freq": [0, 0], "re": "1.0"}], "polynomial term 0 're' must be a number"),
        (5, "polynomial 'terms' must be a list"),
        ([{"freq": [0, 0], "re": 1.0}, {"freq": 1, "re": 0.5}], "polynomial term 1 'freq'"),
    ], ids=["list-term", "string-re", "scalar-terms", "scalar-freq"])
    def test_malformed_poly_json_is_exit_code_2_naming_the_entry(self, terms, message,
                                                                   tmp_path, capsys):
        # each of these exited 1 with a TypeError traceback
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2, "terms": terms}))
        args = ["theta", "--poly", str(bad), "--gamma", "0,sqrt2", "--lambda", "0,0"]
        assert main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"dimension": 1, "points": [{"x": "1", "y": ["0"]}]}, "config point 0 'x' must be a list"),
        ({"dimension": 1, "points": 3}, "config 'points' must be a list"),
        ({"dimension": 1, "points": [5]}, "config point 0 must be an object"),
        ({"dimension": 1, "points": [{"x": [0], "y": [0]}, [[0], [1]]]},
         "config point 1 must be an object"),
        ({"dimension": None, "points": []}, "config 'dimension' must be an integer"),
        (5, "config needs 'dimension' and 'points'"),
    ], ids=["scalar-x", "scalar-points", "scalar-point", "list-point", "null-dimension",
            "scalar-file"])
    def test_malformed_config_json_is_exit_code_2_naming_the_entry(self, config, message,
                                                                     tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["gram", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--gamma", ["classify", "--gamma", "-sqrt2,sqrt3"]),
        ("--lambda", ["theta", "--poly", "P1", "--gamma", "0,sqrt2", "--lambda",
                      "-0.25,0", "--method", "birkhoff", "--n", "2000"]),
        ("--base", ["phase-check", "--poly", "P1", "--base", "-0.3,0.7",
                    "--alpha", "1", "--beta", "sqrt2", "--n", "8"]),
        ("--alpha", ["phase-check", "--poly", "P1", "--base", "0.3,0.7",
                     "--alpha", "-1/2", "--beta", "sqrt2", "--n", "8"]),
        ("--beta", ["phase-check", "--poly", "P1", "--base", "0.3,0.7",
                    "--alpha", "1", "--beta", "-sqrt2", "--n", "8"]),
        ("--omega", ["cluster", "--alpha", "1,2", "--beta", "sqrt2,1",
                     "--omega", "-0.25,0.5", "--n-max", "50"]),
        ("--inner-product", ["cluster", "--alpha", "1/2", "--beta=-1",
                             "--inner-product", "-1/2", "--n-max", "50"]),
    ],
)
def test_value_starting_with_minus_is_read_as_the_flag_value(flag, args, p1_file, tmp_path):
    # "--flag -x,y" must mean the same as "--flag=-x,y", not a new option
    args = [p1_file if a == "P1" else a for a in args]
    i = args.index(flag)
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(args + ["--out", str(spaced)]) == 0
    attached = args[:i] + [f"{flag}={args[i + 1]}"] + args[i + 2:]
    assert main(attached + ["--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_missing_flag_value_is_still_exit_code_2():
    assert main(["classify", "--gamma", "--search-bound", "5"]) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gaborzak.cli", "classify", "--gamma", "0,sqrt2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "InfiniteNonDense"


# (option strings, default, choices, required, dest, type) of every flag of
# every subcommand, frozen from the parser that declared each flag per
# subcommand; None is the top-level parser
PARSER_SURFACE = {
    None: [
        (["--threads"], 1, None, False, "threads", "int"),
    ],
    'classify': [
        (["--gamma"], None, None, True, "gamma", None),
        (["--out"], None, None, False, "out", None),
        (["--search-bound"], 50, None, False, "search_bound", "int"),
        (["--tolerance"], 1e-09, None, False, "tolerance", "float"),
    ],
    'gram': [
        (["--config"], None, None, True, "config", None),
        (["--method"], "quadrature", ["quadrature", "closed-form", "zak"], False, "method", None),
        (["--order"], 0, None, False, "order", "int"),
        (["--out"], None, None, False, "out", None),
        (["--points"], 512, None, False, "points", "int"),
        (["--resolution"], 64, None, False, "resolution", "int"),
        (["--window"], "gaussian", ["gaussian", "hermite", "sampled"], False, "window", None),
        (["--window-file"], None, None, False, "window_file", None),
    ],
    'residual': [
        (["--config"], None, None, True, "config", None),
        (["--method"], "time-domain", ["time-domain", "zak-domain"], False, "method", None),
        (["--order"], 0, None, False, "order", "int"),
        (["--out"], None, None, False, "out", None),
        (["--points"], 512, None, False, "points", "int"),
        (["--resolution"], 64, None, False, "resolution", "int"),
        (["--target"], None, None, False, "target", "int"),
        (["--window"], "gaussian", ["gaussian", "hermite", "sampled"], False, "window", None),
        (["--window-file"], None, None, False, "window_file", None),
    ],
    'zak': [
        (["--order"], 0, None, False, "order", "int"),
        (["--out"], None, None, False, "out", None),
        (["--resolution"], 64, None, False, "resolution", "int"),
        (["--tail-target"], 1e-10, None, False, "tail_target", "float"),
        (["--truncation"], None, None, False, "truncation", "int"),
        (["--window"], "gaussian", ["gaussian", "hermite", "sampled"], False, "window", None),
        (["--window-file"], None, None, False, "window_file", None),
    ],
    'theta': [
        (["--delta"], 1e-08, None, False, "delta", "float"),
        (["--gamma"], None, None, True, "gamma", None),
        (["--lambda"], None, None, True, "lam", None),
        (["--method"], "haar", ["birkhoff", "haar"], False, "method", None),
        (["--n"], 1000000, None, False, "n", "int"),
        (["--out"], None, None, False, "out", None),
        (["--points"], 1024, None, False, "points", "int"),
        (["--poly"], None, None, True, "poly", None),
        (["--search-bound"], 50, None, False, "search_bound", "int"),
        (["--tolerance"], 1e-09, None, False, "tolerance", "float"),
    ],
    'phase-check': [
        (["--alpha"], None, None, True, "alpha", None),
        (["--base"], None, None, True, "base", None),
        (["--beta"], None, None, True, "beta", None),
        (["--n"], 64, None, False, "n", "int"),
        (["--out"], None, None, False, "out", None),
        (["--poly"], None, None, True, "poly", None),
        (["--theta0"], 0.0, None, False, "theta0", "float"),
    ],
    'cluster': [
        (["--alpha"], None, None, True, "alpha", None),
        (["--beta"], None, None, True, "beta", None),
        (["--inner-product"], None, None, False, "inner_product", None),
        (["--n-max"], 1000, None, False, "n_max", "int"),
        (["--omega"], None, None, False, "omega", None),
        (["--out"], None, None, False, "out", None),
    ],
    'dual': [
        (["--config"], None, None, True, "config", None),
        (["--out"], None, None, False, "out", None),
    ],
    'remark1': [
        (["--out"], None, None, False, "out", None),
        (["--points"], 1024, None, False, "points", "int"),
        (["--t-count"], 101, None, False, "t_count", "int"),
    ],
    'remark2': [
        (["--min-grid"], 1024, None, False, "min_grid", "int"),
        (["--out"], None, None, False, "out", None),
        (["--points"], 1024, None, False, "points", "int"),
        (["--w-count"], 32, None, False, "w_count", "int"),
    ],
}


def _parser_surface(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            (a.option_strings, a.default, a.choices and list(a.choices), a.required, a.dest,
             a.type and a.type.__name__)
            for a in p._actions if a.option_strings and a.dest != "help"
        )
        for name, p in {None: parser, **sub.choices}.items()
    }


def test_parser_surface_is_unchanged():
    surface = _parser_surface(cli._build_parser())
    assert list(surface) == list(PARSER_SURFACE)
    for name, rows in PARSER_SURFACE.items():
        assert surface[name] == rows, name


@pytest.mark.parametrize("argv", [
    ["classify", "--gamma", "1/2,1/3"],
    ["gram", "--config", "CFG", "--method", "closed-form"],
    ["residual", "--config", "CFG", "--points", "128"],
    ["zak", "--resolution", "8", "--truncation", "6"],
    ["theta", "--poly", "P1", "--gamma", "0,sqrt2", "--lambda", "0.25,0", "--points", "64"],
    ["phase-check", "--poly", "P1", "--base", "0.3,0.7", "--alpha", "1", "--beta", "sqrt2",
     "--n", "8"],
    ["cluster", "--alpha", "1", "--beta", "1/3", "--n-max", "50"],
    ["dual", "--config", "CFG"],
    ["remark1", "--points", "64", "--t-count", "5"],
    ["remark2", "--points", "64", "--w-count", "4", "--min-grid", "64"],
], ids=lambda argv: argv[0])
def test_main_is_the_only_writer(argv, cfg_file, p1_file, tmp_path, capsys):
    argv = [{"CFG": cfg_file, "P1": p1_file}.get(a, a) for a in argv]
    out = tmp_path / "artifact"
    # the subcommand returns its artifact and writes nothing itself
    args = cli._build_parser().parse_args(argv + ["--out", str(out)])
    assert args.func(args) is not None
    assert capsys.readouterr().out == "" and not out.exists()
    # stdout without --out is the --out file, then the summary lines
    assert main(argv) == 0
    to_stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert to_stdout.encode() == out.read_bytes() + summary.encode()
    assert bool(summary) == (argv[0] in ("remark1", "remark2"))


# -- import graph: a subcommand loads only the layers it runs ---------------------

LAYERS = {"numerics", "windows", "gabor", "zak", "lattice", "trigpoly", "orbit", "cocycle"}


def _loaded_after(code):
    """numpy and the gaborzak layers in sys.modules after ``code`` runs in a
    fresh interpreter (``code`` must print nothing)."""
    probe = ("\nimport sys\nprint(*sorted(m.removeprefix('gaborzak.') for m in sys.modules"
             " if m == 'numpy' or m.startswith('gaborzak.')))")
    proc = subprocess.run([sys.executable, "-c", code + probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_layer():
    loaded = _loaded_after("import gaborzak.cli")
    assert loaded == {"cli", "errors"}


@pytest.mark.parametrize("argv, runs, not_loaded", [
    (["classify", "--gamma", "1/2,1/3"], "orbit", {"cocycle", "gabor", "zak", "windows"}),
    (["theta", "--poly", "P1", "--gamma", "0,sqrt2", "--lambda", "0.25,0", "--points", "64"],
     "cocycle", {"zak", "windows", "gabor"}),
    (["phase-check", "--poly", "P1", "--base", "0.3,0.7", "--alpha", "1", "--beta", "sqrt2",
      "--n", "8"], "cocycle", {"zak", "windows", "gabor"}),
    (["cluster", "--alpha", "1", "--beta", "1/3", "--n-max", "50"],
     "cocycle", {"zak", "windows", "gabor"}),
    (["zak", "--resolution", "8", "--truncation", "6"], "zak", {"cocycle", "orbit", "gabor"}),
    (["dual", "--config", "CFG"], "gabor", {"cocycle", "orbit", "zak"}),
    (["gram", "--config", "CFG", "--method", "zak", "--resolution", "16"], "gabor",
     {"cocycle", "orbit", "zak"}),
    (["residual", "--config", "CFG", "--method", "zak-domain", "--resolution", "16"], "gabor",
     {"cocycle", "orbit", "zak"}),
], ids=["classify", "theta", "phase-check", "cluster", "zak", "dual", "gram-zak", "residual-zak"])
def test_a_subcommand_loads_only_its_layers(argv, runs, not_loaded, cfg_file, p1_file, tmp_path):
    argv = [{"CFG": cfg_file, "P1": p1_file}.get(a, a) for a in argv]
    argv += ["--out", str(tmp_path / "artifact")]
    loaded = _loaded_after(f"from gaborzak.cli import main\nassert main({argv!r}) == 0")
    assert {"numpy", runs} <= loaded
    assert not loaded & not_loaded


def test_package_names_resolve_lazily():
    import importlib

    import gaborzak

    for name in gaborzak.__all__:
        module = importlib.import_module(f"gaborzak.{gaborzak._SOURCE[name]}")
        assert getattr(gaborzak, name) is getattr(module, name), name
    assert set(gaborzak.__all__) <= set(dir(gaborzak))
    with pytest.raises(AttributeError, match="no_such_name"):
        gaborzak.no_such_name
    loaded = _loaded_after("from gaborzak import classify")
    assert "orbit" in loaded and not loaded & {"cocycle", "gabor", "zak", "windows"}
