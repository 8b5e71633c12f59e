import json
import math
import subprocess
import sys

import pytest

from gaborzak.cli import main
from gaborzak.gabor import GaborConfig, TFPoint, config_to_json
from gaborzak.numerics import parse_coordinate as mk
from gaborzak.trigpoly import TrigPolynomial, save_polynomial


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


@pytest.fixture
def p1_file(tmp_path):
    p = TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])
    path = tmp_path / "p1.json"
    save_polynomial(p, str(path))
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


def test_residual(cfg_file, tmp_path):
    out = tmp_path / "r.json"
    args = ["residual", "--config", cfg_file, "--method", "time-domain"]
    assert main(args + ["--out", str(out)]) == 0
    data = _load(out)
    assert abs(data["residual"] - 0.9989307701487270) < 1e-8
    assert data["target_index"] == 3
    assert len(data["coefficients"]) == 3


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

    def test_grid_budget_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRL_MAX_GRID", "100")
        args = ["zak", "--resolution", "64", "--out", str(tmp_path / "z.csv")]
        assert main(args) == 2


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

    def test_unresolvable_zero_set_is_exit_code_3(self, tmp_path):
        p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), -1.0)])
        path = tmp_path / "diag.json"
        save_polynomial(p, str(path))
        args = [
            "theta", "--poly", str(path), "--gamma", "sqrt2,sqrt2",
            "--lambda", "0,0", "--method", "haar", "--points", "32",
        ]
        assert main(args) == 3


def test_phase_check(tmp_path):
    p2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
    path = tmp_path / "p2.json"
    save_polynomial(p2, str(path))
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
    # and the field extends its cache one step per n: 2N points, not N^2/2
    from gaborzak import cocycle

    steps = []
    original = cocycle._phase_orbit

    def counting(base, alpha, beta, js, *args, **kwargs):
        steps.append(len(js))
        return original(base, alpha, beta, js, *args, **kwargs)

    monkeypatch.setattr(cocycle, "_phase_orbit", counting)
    p2 = TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])
    path = tmp_path / "p2.json"
    save_polynomial(p2, str(path))
    args = [
        "phase-check", "--poly", str(path), "--base", "0.3,0.7",
        "--alpha", "1/2", "--beta", "sqrt2", "--n", "100",
        "--out", str(tmp_path / "pc.json"),
    ]
    assert main(args) == 0
    assert sum(steps) == 200
    assert _load(tmp_path / "pc.json")["max_mod1_error"] < 1e-8


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
