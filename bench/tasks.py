"""Tasks of the four workloads, built from seeded specs.  Every task calls
gaborzak through ``Api`` (so a traced pass can swap in span wrappers) and
checks each answer against its known reference."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaborzak import cli as gz_cli, cocycle, gabor, orbit, trigpoly, zak
from gaborzak.errors import AmbiguousClassification, NumericalFailure, PhaseUndefined, TruncationError
from gaborzak.gabor import GaborConfig, TFPoint
from gaborzak.numerics import Coordinate, QuadratureSpec, parse_coordinate, reduce_mod1
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow, HermiteWindow, SampledGridWindow

import inputs
import reference as ref
from reference import check, expect_raises, max_gap, mod1_dist, rel_gap


@dataclass
class Task:
    kind: str
    run: Callable[[], None]


class Api:
    """The gaborzak functions the benchmark calls.  ``bind(wrap)`` replaces
    each with ``wrap(fn)``; ``bind(None)`` restores the originals."""

    FUNCTIONS = {
        zak: ("zak_transform", "zak_point", "quasi_periodicity_residual", "locate_zero_set"),
        gabor: ("gram_matrix", "gram_matrix_zak", "gaussian_gram_closed_form", "dependence_residual"),
        orbit: ("classify", "subgroup_closure", "orbit_points"),
        trigpoly: ("min_modulus",),
        cocycle: ("theta_birkhoff", "theta_haar", "phase_cocycle_iterate", "phase_mean_along_orbit",
                  "normalized_phase_sequence", "cluster_set_c1", "cluster_set_c2",
                  "cluster_sets_match", "rigidity_scan"),
        gz_cli: ("remark1_curve", "remark2_curve"),
    }

    def __init__(self):
        self.bind(None)

    def bind(self, wrap) -> None:
        for module, names in self.FUNCTIONS.items():
            for name in names:
                fn = getattr(module, name)
                setattr(self, name, fn if wrap is None else wrap(fn))


# -- shared inputs ---------------------------------------------------------------

QUAD_TIME = QuadratureSpec("composite-midpoint", 512, False)
QUAD_HAAR = QuadratureSpec("composite-midpoint", 1024, True)


def coords(tokens) -> tuple[Coordinate, ...]:
    return tuple(parse_coordinate(t) for t in tokens)


def make_config(points) -> GaborConfig:
    pts = tuple(TFPoint(coords(x), coords(y)) for x, y in points)
    return GaborConfig(len(points[0][0]), pts, tuple(p.is_integer() for p in pts))


def sampled_gaussian() -> SampledGridWindow:
    ts = np.arange(-8.0, 8.0 + 1e-9, 1.0 / 64)
    return SampledGridWindow(2 ** 0.25 * np.exp(-np.pi * ts * ts), step=1.0 / 64, radius=8.0)


def make_window(spec):
    if spec[0] == "gaussian":
        return GaussianWindow()
    if spec[0] == "hermite":
        return HermiteWindow(spec[1])
    return sampled_gaussian()


def poly_from_terms(terms) -> TrigPolynomial:
    return TrigPolynomial(2, ref.dominant_terms(terms))


def jensen_poly(poly) -> TrigPolynomial:
    return TrigPolynomial(2, ref.jensen_terms(poly))


# -- zak-certify ----------------------------------------------------------------


def _certify_d1(api: Api, spec) -> None:
    w = make_window(spec["window"])
    M = spec["M"]
    Z = api.zak_transform(w, M)
    mass = Z.grid_mean_square()
    check(abs(mass - 1.0) <= ref.TOL_UNITARITY, f"grid L2 mass {mass!r} vs 1")
    if M <= 256:  # the residual recomputes 4 M^2 fresh sums
        res = api.quasi_periodicity_residual(Z)
        check(res <= ref.TOL_QUASI_PERIODIC, f"quasi-periodicity residual {res:.3e}")
    t0, w0 = ref.window_zero(spec["window"])
    val = abs(api.zak_point(w, t0, w0, Z.truncation))
    check(val <= ref.TOL_ZAK_ZERO, f"|Zf({t0},{w0})| = {val:.3e}")
    zs = api.locate_zero_set(Z)
    dist = min((max(mod1_dist(p[0] - t0), mod1_dist(p[1] - w0)) for p in zs.points), default=math.inf)
    check(dist <= 1.0 / M + 1e-12, f"nearest located zero at {dist:.4g}")

    cfg = make_config(spec["points"])
    time_g = api.gram_matrix(w, cfg, QUAD_TIME)
    zak_g = api.gram_matrix_zak(w, cfg)
    reference_g = ref.gaussian_gram(ref.float_points(spec["points"]))
    kind = spec["window"][0]
    if kind == "gaussian":
        closed = api.gaussian_gram_closed_form(cfg, w)
        check(max_gap(closed.matrix, reference_g) <= ref.TOL_CLOSED_FORM, "closed form vs reference")
    if kind == "hermite":
        check(max_gap(np.diag(time_g.matrix), 1.0) <= ref.TOL_GRAM_ENTRY, "unit-norm atoms")
        check(max_gap(time_g.matrix, zak_g.matrix) <= ref.TOL_GRAM_ENTRY, "time vs zak Gram")
    else:
        tol = ref.TOL_GRAM_ENTRY if kind == "gaussian" else ref.TOL_SAMPLED_GRAM
        check(max_gap(time_g.matrix, reference_g) <= tol, "time-domain Gram vs closed form")
        check(max_gap(zak_g.matrix, reference_g) <= tol, "zak-domain Gram vs closed form")
    check(time_g.smallest_eigenvalue > ref.TOL_LAMBDA_MIN, f"lambda_min {time_g.smallest_eigenvalue:.3e}")
    coeffs_t, rt = api.dependence_residual(w, cfg, method="time-domain")
    _, rz = api.dependence_residual(w, cfg, method="zak-domain")
    check(rt > 0 and rel_gap(rz, rt) <= ref.TOL_RESIDUAL_REL, f"residuals {rt!r} / {rz!r}")
    if kind == "gaussian":
        want = ref.schur_residual(reference_g, coeffs_t.target_index)
        check(rel_gap(rt, want) <= ref.TOL_RESIDUAL_REL, f"residual {rt!r} vs {want!r}")


def _zak_d2(api: Api, spec) -> None:
    M = spec["M"]
    Z = api.zak_transform(GaussianWindow(2), M)
    mass = Z.grid_mean_square()
    check(abs(mass - 1.0) <= ref.TOL_UNITARITY, f"d=2 grid L2 mass {mass!r}")
    # Zg factorises, so it vanishes wherever (t1, w1) = (1/2, 1/2)
    h = M // 2
    check(float(np.max(np.abs(Z.values[h, :, h, :]))) <= ref.TOL_ZAK_ZERO, "d=2 zero plane")


def _gram_d2(api: Api, spec) -> None:
    w = GaussianWindow(2)
    cfg = make_config(spec["points"])
    want = ref.gaussian_gram(ref.float_points(spec["points"]))
    closed = api.gaussian_gram_closed_form(cfg, w)
    check(max_gap(closed.matrix, want) <= ref.TOL_CLOSED_FORM, "d=2 closed form")
    quad = QuadratureSpec("composite-midpoint", 128, False)
    time_g = api.gram_matrix(w, cfg, quad)
    check(max_gap(time_g.matrix, want) <= ref.TOL_GRAM_ENTRY, "d=2 time-domain Gram")
    zak_g = api.gram_matrix_zak(w, cfg, resolution=8, truncation=8)
    check(max_gap(zak_g.matrix, want) <= ref.TOL_GRAM_ENTRY, "d=2 zak-domain Gram")
    check(time_g.smallest_eigenvalue > ref.TOL_LAMBDA_MIN, "d=2 lambda_min")
    coeffs, rt = api.dependence_residual(w, cfg, method="time-domain", quad=quad)
    r_want = ref.schur_residual(want, coeffs.target_index)
    check(rel_gap(rt, r_want) <= ref.TOL_RESIDUAL_REL, f"d=2 residual {rt!r} vs {r_want!r}")


def _zak_m2048_k6(api: Api, spec) -> None:
    M = spec["M"]
    Z = api.zak_transform(GaussianWindow(), M, truncation=spec["K"])
    mass = Z.grid_mean_square()
    check(abs(mass - 1.0) <= ref.TOL_UNITARITY, f"grid L2 mass {mass!r}")
    check(abs(Z.values[M // 2, M // 2]) <= ref.TOL_ZAK_ZERO, "Zg(1/2, 1/2)")


def _truncation_error(api: Api, spec) -> None:
    exc = expect_raises(TruncationError, api.zak_transform, make_window(spec["window"]), 64,
                        truncation=spec["K"])
    check(exc.suggested_k > spec["K"], f"suggested K {exc.suggested_k}")


def zak_certify_tasks(api: Api, specs) -> list[Task]:
    runners = {"zak-d2-m16": _zak_d2, "gram-d2": _gram_d2, "zak-d1-m2048-k6": _zak_m2048_k6,
               "truncation-error": _truncation_error}
    return [Task(s["kind"], _bind(runners.get(s["kind"], _certify_d1), api, s)) for s in specs]


def _bind(fn, api, spec):
    return lambda: fn(api, spec)


# -- theta-orbit ----------------------------------------------------------------


def _classify(api: Api, spec) -> None:
    gamma = orbit.Gamma.from_tokens(spec["gamma"])
    cls = api.classify(gamma)
    exp = ref.check_relations(spec["gamma"], cls.kind, cls.relations, cls.order)
    H = api.subgroup_closure(gamma, cls)
    check(H.haar_dimension == exp["haar_dimension"],
          f"{spec['gamma']}: Haar dimension {H.haar_dimension}, expected {exp['haar_dimension']}")
    check(H.component_count == exp["component_count"],
          f"{spec['gamma']}: {H.component_count} components, expected {exp['component_count']}")


def _ambiguous(api: Api, spec) -> None:
    exc = expect_raises(AmbiguousClassification, api.classify, orbit.Gamma.from_tokens(spec["gamma"]))
    check(exc.coordinate_index == 0, f"ambiguous coordinate {exc.coordinate_index}")


def _closure(api: Api, gamma_text: str):
    gamma = orbit.Gamma.from_tokens(gamma_text)
    return gamma, api.subgroup_closure(gamma, api.classify(gamma))


def _theta_jensen(api: Api, spec) -> None:
    p = jensen_poly(spec["poly"])
    gamma, H = _closure(api, spec["gamma"])
    lam = reduce_mod1(spec["lam"])
    want = ref.jensen_theta(spec["poly"], spec["gamma"], spec["lam"][0])
    tol = ref.TOL_THETA_SINGULAR if spec["kind"].endswith("zero") else ref.TOL_THETA_SMOOTH
    haar = api.theta_haar(p, lam, H, QUAD_HAAR).value
    check(abs(haar - want) <= tol, f"Haar Theta {haar!r} vs Jensen {want!r}")
    birk = api.theta_birkhoff(p, lam, gamma, 10**6).value
    check(abs(birk - want) <= ref.TOL_BIRKHOFF, f"Birkhoff Theta {birk!r} vs Jensen {want!r}")


def _theta_dense2d(api: Api, spec) -> None:
    p = poly_from_terms(spec["terms"])
    gamma, H = _closure(api, spec["gamma"])
    check(H.haar_dimension == 2, f"H has dimension {H.haar_dimension}, expected 2")
    lam = reduce_mod1(spec["lam"])
    want = math.log(abs(ref.dominant_constant(spec["terms"])))
    haar = api.theta_haar(p, lam, H, QuadratureSpec("composite-midpoint", 64, True)).value
    check(abs(haar - want) <= ref.TOL_THETA_SMOOTH, f"Haar Theta {haar!r} vs ln|c0| {want!r}")
    birk = api.theta_birkhoff(p, lam, gamma, 10**6).value
    check(abs(birk - want) <= ref.TOL_BIRKHOFF, f"Birkhoff Theta {birk!r} vs ln|c0| {want!r}")


def _orbit_eval(api: Api, spec) -> None:
    gamma = orbit.Gamma.from_tokens(spec["gamma"])
    pts = api.orbit_points(reduce_mod1(spec["z0"]), gamma, 10**6)
    check(pts.shape == (10**6, 2), f"orbit shape {pts.shape}")
    for j in [0, 1, 10**6 - 1] + spec["probe"]:
        want = ref.orbit_reference(spec["z0"], spec["gamma"], j)
        gap = max(mod1_dist(a - b) for a, b in zip(pts[j], want))
        check(gap <= 1e-9, f"orbit point {j} off by {gap:.2e}")
    terms = ref.dominant_terms(spec["terms"])
    vals = TrigPolynomial(2, terms).eval_points(pts)
    for j in spec["probe"]:
        gap = abs(vals[j] - ref.eval_terms(terms, pts[j]))
        check(gap <= 1e-12, f"eval_points at {j} off by {gap:.2e}")


def _remark1(api: Api, spec) -> None:
    err_smooth = err_singular = flat = 0.0
    for t, got, want in api.remark1_curve(points=1024, t_count=101):
        err = abs(got - want)
        if min(abs(t - 1 / 3), abs(t - 2 / 3)) <= 1 / 64:
            err_singular = max(err_singular, err)
        else:
            err_smooth = max(err_smooth, err)
        if 1 / 3 + 1 / 64 <= t <= 2 / 3 - 1 / 64:
            flat = max(flat, abs(got))
    check(err_smooth <= ref.TOL_THETA_SMOOTH, f"remark1 smooth error {err_smooth:.2e}")
    check(err_singular <= ref.TOL_THETA_SINGULAR, f"remark1 singular error {err_singular:.2e}")
    check(flat <= ref.TOL_THETA_FLAT, f"remark1 flat interval {flat:.2e}")


def _remark2(api: Api, spec) -> None:
    rows, grid_min = api.remark2_curve(points=1024, w_count=32, min_grid=1024)
    check(0.5 <= grid_min <= 0.501, f"remark2 grid min {grid_min!r}")
    worst = max(abs(v) for _, v in rows)
    check(worst <= ref.TOL_THETA_FLAT, f"remark2 max |theta| {worst:.2e}")


def _min_modulus(api: Api, spec) -> None:
    res = api.min_modulus(jensen_poly(spec["poly"]), spec["resolution"])
    lo, hi = ref.min_modulus_bracket(spec["poly"])
    check(res.minimum >= lo - 1e-12, f"minimum {res.minimum!r} below the true minimum {lo!r}")
    check(res.lower_bound <= hi + 1e-12, f"lower bound {res.lower_bound!r} above {hi!r}")
    check(res.minimum <= hi + res.lipschitz / spec["resolution"], f"minimum {res.minimum!r} vs {hi!r}")


def _zero_coset(api: Api, spec) -> None:
    # p = 1 - e^{2 pi i (t - w)} vanishes on the whole coset (0,0) + {(s, s)}
    p = TrigPolynomial(2, [((0, 0), 1.0), ((1, -1), -1.0)])
    _, H = _closure(api, "sqrt2,sqrt2")
    quad = QuadratureSpec("composite-midpoint", 32, True)
    expect_raises(NumericalFailure, api.theta_haar, p, reduce_mod1([0.0, 0.0]), H, quad)


def theta_orbit_tasks(api: Api, specs) -> list[Task]:
    runners = {"ambiguous": _ambiguous, "theta-jensen": _theta_jensen,
               "theta-jensen-zero": _theta_jensen, "theta-dense2d": _theta_dense2d,
               "orbit-eval-1e6": _orbit_eval, "remark1": _remark1, "remark2": _remark2,
               "min-modulus": _min_modulus, "zero-coset": _zero_coset}
    return [Task(s["kind"], _bind(runners.get(s["kind"], _classify), api, s)) for s in specs]


# -- phase-cocycle --------------------------------------------------------------


def _phase_identity(api: Api, spec) -> None:
    p = poly_from_terms(spec["terms"])
    base = reduce_mod1(spec["base"])
    alpha, beta = coords([spec["alpha"]]), coords([spec["beta"]])
    field = cocycle.SyntheticPhaseField(p, base, alpha, beta, theta0=spec["theta0"])
    worst = 0.0
    for n in range(1, spec["n"] + 1):
        lhs = field.phase_at_step(n)
        rhs = api.phase_cocycle_iterate(spec["theta0"], p, base, alpha, beta, n)
        worst = max(worst, mod1_dist(lhs - rhs))
    check(worst <= ref.TOL_PHASE, f"max mod-1 gap {worst:.2e} over n <= {spec['n']}")


def _phase_mean(api: Api, spec) -> None:
    p = poly_from_terms(spec["terms"])
    mean, _ = api.phase_mean_along_orbit(
        p, reduce_mod1(spec["base"]), coords([spec["alpha"]]), coords([spec["beta"]]), spec["n"]
    )
    c0 = ref.dominant_constant(spec["terms"])
    want = math.atan2(c0.imag, c0.real) / (2 * math.pi)
    check(mod1_dist(mean - want) <= ref.TOL_BIRKHOFF, f"phase mean {mean!r} vs arg(c0) {want!r}")


def _normalized_synthetic(api: Api, spec) -> None:
    p = poly_from_terms(spec["terms"])
    base = reduce_mod1(spec["base"])
    alpha, beta = coords([spec["alpha"]]), coords([spec["beta"]])
    field = cocycle.SyntheticPhaseField(p, base, alpha, beta, theta0=spec["theta0"])
    ns = range(1, spec["n_max"] + 1)
    zetas = api.normalized_phase_sequence(field, base, alpha, beta, ns)
    for n, z in zip(ns, zetas):
        check(abs(abs(z) - 1.0) <= 1e-12, f"|zeta_{n}| = {abs(z)!r}")
        rhs = api.phase_cocycle_iterate(spec["theta0"], p, base, alpha, beta, n)
        turns = n * math.atan2(z.imag, z.real) / (2 * math.pi)
        check(mod1_dist(turns - rhs) <= ref.TOL_PHASE, f"zeta_{n}^n vs the n-step identity")


def _normalized_zak(api: Api, spec) -> None:
    Z = api.zak_transform(GaussianWindow(), 64)
    base = reduce_mod1(spec["base"])
    alpha, beta = coords([spec["alpha"]]), coords([spec["beta"]])
    ns = range(1, spec["n_max"] + 1)
    zetas = api.normalized_phase_sequence(Z, base, alpha, beta, ns)
    a, b = alpha[0].float(), beta[0].float()
    for n, z in zip(ns, zetas):
        t_n, w_n = spec["base"][0] - n * a, spec["base"][1] + n * b
        t_red, w_red = t_n % 1.0, w_n % 1.0
        val = inputs.gaussian_zak_reference(t_red, w_red)
        theta = (math.atan2(val.imag, val.real) / (2 * math.pi)) % 1.0 + (t_n - t_red) * w_red
        # at the branch cut the two sides of theta are both valid readings
        gap = min(abs(z - np.exp(2j * np.pi * (theta + k) / n)) for k in (-1, 0, 1)
                  if k == 0 or min(theta % 1.0, 1 - theta % 1.0) < 1e-9)
        check(gap <= ref.TOL_PHASE, f"zeta_{n} off by {gap:.2e}")


def _cluster(api: Api, spec) -> None:
    alpha, beta = coords([spec["alpha"]]), coords([spec["beta"]])
    ab = ref.inner_product(spec["alpha"], spec["beta"])
    ab_coord = Coordinate.from_fraction(ab) if not isinstance(ab, float) else Coordinate.irrational(ab)
    c1 = api.cluster_set_c1(ab_coord)
    c2 = api.cluster_set_c2(alpha, beta, reduce_mod1(spec["omega"]), spec["n_max"])
    match = api.cluster_sets_match(c1, c2)
    exp = ref.cluster_expectation(spec["alpha"], spec["beta"], spec["n_max"])
    check(c1.kind == exp["c1_kind"] and len(c1.points) == exp["c1_size"],
          f"c1 {c1.kind}/{len(c1.points)} vs {exp['c1_kind']}/{exp['c1_size']}")
    if exp["c2_size"] is not None:
        check(len(c2) == exp["c2_size"], f"c2 has {len(c2)} points, expected {exp['c2_size']}")
    if exp["match"] is not None:
        check(match == exp["match"], f"cluster match {match}, expected {exp['match']}")


def _rigidity(api: Api, spec) -> None:
    p = poly_from_terms(spec["terms"])
    out = api.rigidity_scan(p, coords([spec["alpha"]]), coords([spec["beta"]]), spec["shifts"])
    for (shift, defect) in out:
        want = ref.rigidity_defect(shift[0], spec["beta"])
        check(abs(defect - want) <= 1e-12, f"defect at {shift}: {defect!r} vs {want!r}")


def _phase_undefined(api: Api, spec) -> None:
    # 1 + e^{-2 pi i t} - e^{-2 pi i w} vanishes at (1/3, 1/6): step 0 is undefined
    p = gz_cli.remark1_polynomial()
    base = reduce_mod1([1 / 3, 1 / 6])
    exc = expect_raises(PhaseUndefined, api.phase_cocycle_iterate, 0.0, p, base,
                        coords(["sqrt2"]), coords(["0"]), 8)
    check(exc.step == 0, f"PhaseUndefined at step {exc.step}")


def phase_cocycle_tasks(api: Api, specs) -> list[Task]:
    runners = {"phase-mean": _phase_mean, "normalized-synthetic": _normalized_synthetic,
               "normalized-zak": _normalized_zak, "cluster": _cluster, "rigidity": _rigidity,
               "phase-undefined": _phase_undefined}
    return [Task(s["kind"], _bind(runners.get(s["kind"], _phase_identity), api, s)) for s in specs]


# -- cli ------------------------------------------------------------------------


class CliRunner:
    """Runs one ``python -m gaborzak.cli`` child at a time; in traced passes
    the child is the bootstrap that installs the span wrappers first."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_summaries: list[str] | None = None  # set for traced passes
        self.output_bytes = 0
        self.wall: dict[str, float] = {}

    def run(self, kind: str, argv: list[str], out_name: str | None = None):
        out_path = os.path.join(self.workdir, out_name) if out_name else None
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        full = argv + (["--out", out_path] if out_path else [])
        if self.trace_summaries is None:
            cmd = [sys.executable, "-m", "gaborzak.cli", *full]
        else:
            summary = os.path.join(self.workdir, f"span-{len(self.trace_summaries)}.json")
            self.trace_summaries.append(summary)
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"), summary, *full]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        self.wall[kind] = time.perf_counter() - t0
        out = b""
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                out = fh.read()
        self.output_bytes += len(proc.stdout) + len(out)
        return proc.returncode, proc.stdout, out, proc.stderr

    def ok(self, kind, argv, out_name=None) -> tuple[bytes, bytes]:
        rc, stdout, out, stderr = self.run(kind, argv, out_name)
        check(rc == 0, f"{kind}: exit {rc}: {stderr.decode(errors='replace')[-300:]}")
        return stdout, out

    def fails(self, kind, argv, code: int) -> None:
        rc, _, _, stderr = self.run(kind, argv)
        check(rc == code, f"{kind}: exit {rc}, expected {code}")
        check(b"Traceback" not in stderr, f"{kind}: traceback on stderr")


def write_cli_inputs(spec: dict, workdir: str) -> dict:
    """Input files for the cli children; returns their paths."""
    os.makedirs(workdir, exist_ok=True)
    paths = {k: os.path.join(workdir, f"{k}.json") for k in ("config", "poly", "phase_poly", "remark1_poly")}
    cfg = {"dimension": 1, "points": [
        {"x": x, "y": y, "lattice": all("/" not in t and "sqrt" not in t for t in x + y)}
        for x, y in spec["points"]]}
    poly = {"dimension": 2, "terms": [{"freq": list(f), "re": c.real, "im": c.imag}
                                      for f, c in ref.jensen_terms(spec["poly"])]}
    phase = {"dimension": 2, "terms": [{"freq": f, "re": re, "im": im} for f, re, im in spec["phase_terms"]]}
    remark1 = {"dimension": 2, "terms": [{"freq": [0, 0], "re": 1.0, "im": 0.0},
                                         {"freq": [-1, 0], "re": 1.0, "im": 0.0},
                                         {"freq": [0, -1], "re": -1.0, "im": 0.0}]}
    for key, data in (("config", cfg), ("poly", poly), ("phase_poly", phase), ("remark1_poly", remark1)):
        with open(paths[key], "w") as fh:
            json.dump(data, fh)
    return paths


def _json_coord(c) -> float:
    """Float value of a coordinate in the configuration JSON grammar."""
    if isinstance(c, dict):
        return c["value"]
    return ref.token_float(str(c))


def _gram_json(out: bytes) -> np.ndarray:
    data = json.loads(out)
    return np.array([[complex(re, im) for re, im in row] for row in data["matrix"]]), data


def _zak_csv(out: bytes, M: int) -> None:
    lines = out.decode().splitlines()
    check(len(lines) == M * M + 1, f"zak CSV has {len(lines)} lines")
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    mass = float(np.mean(vals[:, 4] ** 2))
    check(abs(mass - 1.0) <= ref.TOL_UNITARITY, f"zak CSV L2 mass {mass!r}")
    h = (M // 2) * M + M // 2
    check(vals[h, 4] <= ref.TOL_ZAK_ZERO, f"zak CSV |Zg(1/2,1/2)| {vals[h, 4]!r}")


def cli_tasks(runner: CliRunner, spec: dict, paths: dict) -> list[Task]:
    pts = ref.float_points(spec["points"])
    G_want = ref.gaussian_gram(pts)
    target = len(pts) - 1
    r_want = ref.schur_residual(G_want, target)
    theta_want = ref.jensen_theta(spec["poly"], spec["theta_gamma"], spec["lam"][0])
    lam = f"{spec['lam'][0]!r},{spec['lam'][1]!r}"
    # --opt=value keeps a leading minus sign from reading as a flag
    phase_args = ["phase-check", "--poly", paths["phase_poly"],
                  "--base=" + ",".join(repr(v) for v in spec["phase_base"]),
                  f"--alpha={spec['alpha']}", f"--beta={spec['beta']}"]
    cl = spec["cluster"]
    remark_out: dict[str, bytes] = {}

    def startup():
        t0 = time.perf_counter()
        rc = subprocess.run([sys.executable, "-c", "import gaborzak.cli"], cwd=runner.root,
                            env=runner.env, capture_output=True, timeout=120).returncode
        runner.wall["cli-startup"] = time.perf_counter() - t0
        check(rc == 0, f"import-only child exit {rc}")

    def classify():
        _, out = runner.ok("cli-classify", ["classify", f"--gamma={spec['gamma']}"], "classify.json")
        data = json.loads(out)
        ref.check_relations(spec["gamma"], data["kind"], data["relations"], data["order"])

    def gram(kind, extra):
        _, out = runner.ok(kind, ["gram", "--config", paths["config"], *extra], f"{kind}.json")
        G, data = _gram_json(out)
        check(max_gap(G, G_want) <= ref.TOL_GRAM_ENTRY, f"{kind}: Gram vs closed form")
        check(data["independent"] and data["smallest_eigenvalue"] > ref.TOL_LAMBDA_MIN, f"{kind}: certificate")

    def residual(kind, extra):
        _, out = runner.ok(kind, ["residual", "--config", paths["config"], *extra], f"{kind}.json")
        data = json.loads(out)
        check(data["target_index"] == target, f"{kind}: target {data['target_index']}")
        check(rel_gap(data["residual"], r_want) <= ref.TOL_RESIDUAL_REL, f"{kind}: residual {data['residual']!r}")

    def zak_grid(kind, M):
        stdout, _ = runner.ok(kind, ["zak"] + (["--resolution", str(M)] if M != 64 else []))
        _zak_csv(stdout, M)

    def theta(kind, extra, tol):
        _, out = runner.ok(kind, ["theta", "--poly", paths["poly"], f"--gamma={spec['theta_gamma']}",
                                  f"--lambda={lam}", *extra], f"{kind}.json")
        value = json.loads(out)["value"]
        check(abs(value - theta_want) <= tol, f"{kind}: Theta {value!r} vs Jensen {theta_want!r}")

    def phase_check(kind, n):
        _, out = runner.ok(kind, phase_args + (["--n", str(n)] if n != 64 else []), f"{kind}.json")
        data = json.loads(out)
        check(data["steps"] == n and data["max_mod1_error"] < ref.TOL_PHASE, f"{kind}: {data}")
        want = ref.token_float(spec["alpha"]) * ref.token_float(spec["beta"])
        check(abs(data["inner_product_alpha_beta"] - want) <= 1e-12, f"{kind}: <alpha,beta>")

    def cluster():
        _, out = runner.ok("cli-cluster", ["cluster", f"--alpha={cl['alpha']}", f"--beta={cl['beta']}",
                                           f"--omega={cl['omega'][0]!r}", "--n-max", str(cl["n_max"])],
                           "cluster.json")
        data = json.loads(out)
        exp = ref.cluster_expectation(cl["alpha"], cl["beta"], cl["n_max"])
        check(data["c1"]["kind"] == exp["c1_kind"] and len(data["c1"]["points"]) == exp["c1_size"], "cli c1")
        if exp["c2_size"] is not None:
            check(len(data["c2"]) == exp["c2_size"], "cli c2 size")
        if exp["match"] is not None:
            check(data["consistent"] == exp["match"], "cli cluster verdict")

    def dual():
        _, out = runner.ok("cli-dual", ["dual", "--config", paths["config"]], "dual.json")
        got = [([_json_coord(c) for c in p["x"]], [_json_coord(c) for c in p["y"]])
               for p in json.loads(out)["points"]]
        for (x, y), (gx, gy) in zip(pts, got):
            check(max_gap(gx, [-v for v in y]) <= 1e-15 and max_gap(gy, x) <= 1e-15, "dual (x,y) -> (-y,x)")

    def remark1(kind, threads):
        stdout, out = runner.ok(kind, ["--threads", str(threads), "remark1"], f"{kind}.csv")
        rows = [tuple(map(float, ln.split(","))) for ln in out.decode().splitlines()[1:]]
        check(len(rows) == 101, f"{kind}: {len(rows)} rows")
        for t, q, c in rows:
            tol = ref.TOL_THETA_SINGULAR if min(abs(t - 1 / 3), abs(t - 2 / 3)) <= 1 / 64 else ref.TOL_THETA_SMOOTH
            check(abs(q - c) <= tol, f"{kind}: row t={t!r}")
        _same_as_threads1(kind, "remark1", out)

    def remark2(kind, threads):
        stdout, out = runner.ok(kind, ["--threads", str(threads), "remark2"], f"{kind}.csv")
        rows = [tuple(map(float, ln.split(","))) for ln in out.decode().splitlines()[1:]]
        check(len(rows) == 32 and max(abs(v) for _, v in rows) <= ref.TOL_THETA_FLAT, f"{kind}: theta rows")
        grid_min = float(stdout.decode().split("grid min |p| = ")[1].split()[0])
        check(0.5 <= grid_min <= 0.501, f"{kind}: grid min {grid_min!r}")
        _same_as_threads1(kind, "remark2", out)

    def _same_as_threads1(kind, name, out):
        # --threads only changes scheduling: outputs are byte-identical
        if kind.endswith("threads2"):
            check(out == remark_out.get(name), f"{kind}: output differs from --threads 1")
        else:
            remark_out[name] = out

    T = Task
    return [
        T("cli-startup", startup),
        T("cli-classify", classify),
        T("cli-gram", lambda: gram("cli-gram", [])),
        T("cli-residual", lambda: residual("cli-residual", [])),
        T("cli-zak", lambda: zak_grid("cli-zak", 64)),
        T("cli-theta", lambda: theta("cli-theta", [], ref.TOL_THETA_SMOOTH)),
        T("cli-phase-check", lambda: phase_check("cli-phase-check", 64)),
        T("cli-cluster", cluster),
        T("cli-dual", dual),
        T("cli-remark1", lambda: remark1("cli-remark1", 1)),
        T("cli-remark2", lambda: remark2("cli-remark2", 1)),
        T("cli-zak-m256", lambda: zak_grid("cli-zak-m256", 256)),
        T("cli-phase-check-n400", lambda: phase_check("cli-phase-check-n400", 400)),
        T("cli-theta-birkhoff", lambda: theta("cli-theta-birkhoff", ["--method", "birkhoff"], ref.TOL_BIRKHOFF)),
        T("cli-gram-zak", lambda: gram("cli-gram-zak", ["--method", "zak"])),
        T("cli-residual-zak", lambda: residual("cli-residual-zak", ["--method", "zak-domain"])),
        T("cli-remark1-threads2", lambda: remark1("cli-remark1-threads2", 2)),
        T("cli-remark2-threads2", lambda: remark2("cli-remark2-threads2", 2)),
        T("cli-exit2", lambda: runner.fails("cli-exit2", ["gram", "--config",
                                                         os.path.join(runner.workdir, "missing.json")], 2)),
        T("cli-exit3", lambda: runner.fails("cli-exit3", ["zak", "--truncation", "1"], 3)),
        T("cli-exit3-phase", lambda: runner.fails("cli-exit3-phase", [
            "phase-check", "--poly", paths["remark1_poly"], "--base",
            "0.3333333333333333,0.16666666666666666", "--alpha", "sqrt2", "--beta", "0", "--n", "8"], 3)),
        T("cli-exit4", lambda: runner.fails("cli-exit4", ["classify", "--gamma", "irr:0.5,sqrt2"], 4)),
    ]
