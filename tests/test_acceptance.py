"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line with the measured
quantities, then asserts.  Run with `pytest -s tests/test_acceptance.py` to
see the full scoreboard.
"""

import cmath
import math
import time

import numpy as np

from gaborzak.cli import (
    remark1_curve,
    remark1_polynomial,
    remark2_curve,
    remark2_polynomial,
)
from gaborzak.cocycle import (
    SyntheticPhaseField,
    cluster_set_c1,
    cluster_set_c2,
    phase_branch,
    phase_cocycle_iterate,
    theta_birkhoff,
    theta_haar,
)
from gaborzak.gabor import (
    GaborConfig,
    TFPoint,
    dependence_residual,
    fourier_dual_config,
    gaussian_gram_closed_form,
    gram_matrix,
)
from gaborzak.numerics import (
    QuadratureSpec,
    mod1_dist,
    parse_coordinate,
    reduce_mod1,
)
from gaborzak.orbit import (
    Gamma,
    classify,
    haar_sample_points,
    orbit_points,
    subgroup_closure,
)
from gaborzak.trigpoly import haar_average, min_modulus
from gaborzak.windows import GaussianWindow
from gaborzak.zak import locate_zero_set, zak_point, zak_transform

mk = parse_coordinate


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _config(alpha_tok, beta_tok):
    pts = (
        TFPoint((mk("0"),), (mk("0"),)),
        TFPoint((mk("1"),), (mk("0"),)),
        TFPoint((mk("0"),), (mk("1"),)),
        TFPoint((mk(alpha_tok),), (mk(beta_tok),)),
    )
    return GaborConfig(dimension=1, points=pts, lattice_mask=(True, True, True, False))


def _vertical():
    g = Gamma.from_tokens("0,sqrt2")
    return subgroup_closure(g, classify(g))


def test_criterion_01_theta_profile_vs_jensen_closed_form():
    start = time.monotonic()
    rows = remark1_curve(points=1024, t_count=101)
    elapsed = time.monotonic() - start
    err_smooth = err_singular = interval_max = 0.0
    for t, got, want in rows:
        near = min(abs(t - 1 / 3), abs(t - 2 / 3)) <= 1 / 64
        err = abs(got - want)
        if near:
            err_singular = max(err_singular, err)
        else:
            err_smooth = max(err_smooth, err)
        if 1 / 3 + 1 / 64 <= t <= 2 / 3 - 1 / 64:
            interval_max = max(interval_max, abs(got))
    ok = (
        err_smooth <= 1e-4
        and err_singular <= 1e-3
        and interval_max <= 1e-6
        and elapsed <= 10.0
    )
    _report(
        1,
        ok,
        f"max err {err_smooth:.2e} (smooth) / {err_singular:.2e} (near t=1/3,2/3), "
        f"sup on flat interval {interval_max:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_positive_modulus_example():
    start = time.monotonic()
    rows, grid_min = remark2_curve(points=1024, w_count=32, min_grid=1024)
    elapsed = time.monotonic() - start
    max_theta = max(abs(v) for _, v in rows)
    ok = 0.5 <= grid_min <= 0.501 and max_theta <= 1e-6 and elapsed <= 20.0
    _report(
        2,
        ok,
        f"grid min {grid_min:.6f}, max |theta| {max_theta:.2e} over 32 w, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_birkhoff_matches_haar():
    gamma = Gamma.from_tokens("0,sqrt2")
    H = _vertical()
    quad = QuadratureSpec("composite-midpoint", 1024, True)
    bases = [reduce_mod1([t, 0.2]) for t in (0.02, 0.11, 0.21, 0.45, 0.77)]
    worst = 0.0
    ok = True
    for p in (remark1_polynomial(), remark2_polynomial()):
        start = time.monotonic()
        for lam in bases:
            b = theta_birkhoff(p, lam, gamma, 10**6)
            h = theta_haar(p, lam, H, quad)
            worst = max(worst, abs(b.value - h.value))
        ok = ok and (time.monotonic() - start) <= 30.0
    ok = ok and worst <= 5e-3
    _report(3, ok, f"max |birkhoff(1e6) - haar| {worst:.2e} over 2x5 base points")


def test_criterion_04_zak_unitarity():
    Z = zak_transform(GaussianWindow(), resolution=128, truncation=6)
    mass = Z.grid_mean_square()
    ok = abs(mass - 1.0) <= 1e-5
    _report(4, ok, f"grid L2 mass {mass:.8f} vs 1")


def test_criterion_05_quasi_periodicity():
    from gaborzak.zak import quasi_periodicity_residual

    Z = zak_transform(GaussianWindow(), resolution=64, truncation=6)
    res = quasi_periodicity_residual(Z)
    ok = res <= 1e-8
    _report(5, ok, f"max unit-shift residual {res:.2e}")


def test_criterion_06_gaussian_zak_zero():
    val = abs(zak_point(GaussianWindow(), 0.5, 0.5, truncation=6))
    Z = zak_transform(GaussianWindow(), resolution=128, truncation=6)
    zs = locate_zero_set(Z)
    dist = min(
        max(mod1_dist(pt[0] - 0.5), mod1_dist(pt[1] - 0.5)) for pt in zs.points
    )
    ok = val <= 1e-8 and dist <= 1 / 128 + 1e-12
    _report(6, ok, f"|Zg(1/2,1/2)| {val:.2e}, nearest located zero at distance {dist:.4f}")


def test_criterion_07_gram_certificates():
    quad = QuadratureSpec("composite-midpoint", 512, False)
    details = []
    ok = True
    for tag, cfg in (("sqrt2,sqrt2", _config("sqrt2", "sqrt2")),
                     ("sqrt2,sqrt3", _config("sqrt2", "sqrt3"))):
        closed = gaussian_gram_closed_form(cfg)
        quadr = gram_matrix(GaussianWindow(), cfg, quad)
        entry_gap = float(np.max(np.abs(closed.matrix - quadr.matrix)))
        _, rt = dependence_residual(GaussianWindow(), cfg, method="time-domain")
        _, rz = dependence_residual(GaussianWindow(), cfg, method="zak-domain")
        rel = abs(rt - rz) / rt
        ok = ok and closed.smallest_eigenvalue > 1e-6 and entry_gap <= 1e-8
        ok = ok and rel <= 1e-5
        details.append(
            f"({tag}) lambda_min {closed.smallest_eigenvalue:.4f}, "
            f"entries {entry_gap:.1e}, residual rel {rel:.1e}"
        )
    _report(7, ok, "; ".join(details))


def test_criterion_08_fourier_duality():
    cfg = _config("sqrt2", "sqrt3")
    rolled = cfg
    for _ in range(4):
        rolled = fourier_dual_config(rolled)
    lam_cfg = gaussian_gram_closed_form(cfg).smallest_eigenvalue
    lam_dual = gaussian_gram_closed_form(
        fourier_dual_config(cfg)
    ).smallest_eigenvalue
    gap = abs(lam_cfg - lam_dual)
    ok = rolled == cfg and gap <= 1e-6
    _report(8, ok, f"dual^4 == id: {rolled == cfg}, lambda_min gap {gap:.2e}")


def test_criterion_09_orbit_trichotomy_table():
    fin = classify(Gamma.from_tokens("1/2,1/3"))
    mix = classify(Gamma.from_tokens("0,sqrt2"))
    den = classify(
        Gamma.from_tokens("sqrt2,sqrt3"), search_bound=100, tolerance=1e-9
    )
    ok = (
        fin.kind == "Finite"
        and fin.order == 6
        and mix.kind == "InfiniteNonDense"
        and list(mix.relations) == [(1, 0)]
        and den.kind == "Dense"
    )
    _report(
        9,
        ok,
        f"(1/2,1/3)->{fin.kind}({fin.order}), (0,sqrt2)->{mix.kind} "
        f"relations {list(mix.relations)}, (sqrt2,sqrt3)->{den.kind}",
    )


def test_criterion_10_haar_coefficient_filter():
    p = remark1_polynomial()
    filtered = haar_average(p, [[1, 0]])
    exact = dict(filtered.terms) == {(0, 0): 1.0 + 0j, (-1, 0): 1.0 + 0j}
    H = _vertical()
    samples = haar_sample_points(H, 64)
    gap = 0.0
    for lam in (reduce_mod1([0.37, 0.88]), reduce_mod1([0.05, 0.4])):
        empirical = np.mean(
            p.eval_points(
                np.mod(lam.array()[None, :] + samples, 1.0)
            )
        )
        gap = max(gap, abs(empirical - filtered.eval(lam.array())))
    ok = exact and gap <= 1e-10
    _report(
        10, ok, f"filter keeps exactly the zero-omega terms: {exact}, "
        f"empirical-mean gap {gap:.2e}"
    )


def test_criterion_11_phase_cocycle_identity():
    p = remark2_polynomial()
    base = reduce_mod1([0.3, 0.7])
    worst = 0.0
    for a_tok, b_tok in (("sqrt2", "0"), ("1/2", "1"), ("1", "1"), ("1", "sqrt2")):
        alpha, beta = (mk(a_tok),), (mk(b_tok),)
        field = SyntheticPhaseField(p, base, alpha, beta, theta0=0.37)
        for n in range(65):
            lhs = field.phase_at_step(n)
            rhs = phase_cocycle_iterate(0.37, p, base, alpha, beta, n)
            worst = max(worst, mod1_dist(lhs - rhs))
    ok = worst <= 1e-8
    _report(
        11, ok,
        f"max mod-1 gap {worst:.2e} over n<=64 and <a,b> in {{0,1/2,1,sqrt2}}",
    )


def test_criterion_12_cluster_sets():
    sizes = {
        "2": len(cluster_set_c1(mk("2")).points),
        "1": len(cluster_set_c1(mk("1")).points),
        "1/2": len(cluster_set_c1(mk("1/2")).points),
    }
    full = cluster_set_c1(mk("sqrt2")).kind == "full-circle"
    pts = cluster_set_c2(
        (mk("sqrt3"),), (mk("5"),), reduce_mod1([0.3]), 1000, tolerance=1e-10
    )
    frozen = cmath.exp(-2j * math.pi * math.sqrt(3) * 0.3)
    spread = abs(pts[0] - frozen) if len(pts) == 1 else math.inf
    ok = (
        sizes == {"2": 1, "1": 2, "1/2": 4}
        and full
        and len(pts) == 1
        and spread <= 1e-10
    )
    _report(
        12, ok,
        f"c1 sizes {sizes}, irrational full-circle: {full}, "
        f"c2 integer-beta points {len(pts)} (spread {spread:.1e})",
    )


def test_criterion_13_property_suites():
    rng = np.random.default_rng(7)
    # Gram Hermitian-PSD on random integer configurations
    psd = True
    for _ in range(5):
        raw = {tuple(v) for v in rng.integers(-3, 4, size=(4, 2))}
        pts = tuple(TFPoint((mk(str(x)),), (mk(str(y)),)) for x, y in raw)
        cfg = GaborConfig(dimension=1, points=pts, lattice_mask=(True,) * len(pts))
        res = gaussian_gram_closed_form(cfg)
        psd = psd and np.array_equal(res.matrix, res.matrix.conj().T)
        psd = psd and res.eigenvalues.min() >= -1e-10
    # reduce_mod1 idempotence and integer-shift invariance
    red = True
    for _ in range(20):
        v = rng.normal(scale=5.0, size=3)
        k = rng.integers(-4, 5, size=3)
        a = reduce_mod1(v)
        red = red and reduce_mod1(a.array()) == a
        red = red and np.max(
            np.abs(reduce_mod1(v + k).array() - a.array())
        ) <= 1e-12
    # haar_average idempotence
    p = remark1_polynomial()
    once = haar_average(p, [[1, 0]])
    idem = haar_average(once, [[1, 0]]).terms == once.terms
    # phase branch integer-difference property
    branch = True
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-9:
            continue
        theta = phase_branch(z).theta
        branch = branch and 0.0 <= theta < 1.0
        branch = branch and abs(abs(z) * cmath.exp(2j * math.pi * theta) - z) <= 1e-9 * abs(z)
    # Weyl equidistribution bound for a dense orbit
    n = 10**5
    pts = orbit_points(reduce_mod1([0.0, 0.0]), Gamma.from_tokens("sqrt2,sqrt3"), n)
    weyl = max(
        abs(np.exp(2j * np.pi * (pts @ np.array(mu))).mean())
        for mu in [(1, 0), (0, 1), (2, -3), (4, 4), (-1, 2)]
    )
    weyl_ok = weyl <= 5.0 / math.sqrt(n)
    ok = psd and red and idem and branch and weyl_ok
    _report(
        13, ok,
        f"gram PSD {psd}, reduce {red}, haar idempotent {idem}, "
        f"branch {branch}, weyl max {weyl:.2e} <= {5.0 / math.sqrt(n):.2e}",
    )
