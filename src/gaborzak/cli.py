"""Command-line front end.

Subcommands: classify, gram, residual, zak, theta, phase-check, cluster,
dual, remark1, remark2.  JSON is the machine surface (keys sorted, stable
float repr); CSV columns are fixed per subcommand.  Exit codes: 0 success,
2 invalid configuration or flags, 3 numerical failure, 4 ambiguous
classification.  All defaults are deterministic; --threads > 1 only changes
scheduling of independent base points, never the reduction order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cocycle import (
    SyntheticPhaseField,
    _phase_cocycle_rhs,
    cluster_set_c1,
    cluster_set_c2,
    cluster_sets_match,
    theta_birkhoff,
    theta_haar,
)
from .errors import (
    AmbiguousClassification,
    NumericalFailure,
    PhaseUndefined,
    TruncationError,
)
from .gabor import (
    config_from_json,
    config_to_json,
    dependence_residual,
    fourier_dual_config,
    gaussian_gram_closed_form,
    gram_matrix,
    gram_matrix_zak,
)
from .numerics import (
    Coordinate,
    QuadratureSpec,
    parse_coordinate,
    reduce_mod1,
    split_inner_product,
)
from .orbit import Gamma, classify, subgroup_closure
from .trigpoly import TrigPolynomial, load_polynomial, min_modulus
from .windows import GaussianWindow, HermiteWindow, sampled_window_from_csv
from .zak import GRID_BUDGET_DEFAULT, zak_transform

__all__ = [
    "main",
    "remark1_polynomial",
    "remark1_closed_form",
    "remark1_curve",
    "remark2_polynomial",
    "remark2_curve",
]


# ---------------------------------------------------------------------------
# built-in reproduction curves


def remark1_polynomial() -> TrigPolynomial:
    """p(t,w) = 1 + e^{-2 pi i t} - e^{-2 pi i w}; its vertical Haar average
    has the Jensen closed form ln max(2|cos pi t|, 1), vanishing for
    t in [1/3, 2/3]."""
    return TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])


def remark1_closed_form(t: float) -> float:
    return math.log(max(2.0 * abs(math.cos(math.pi * t)), 1.0))


def remark2_polynomial() -> TrigPolynomial:
    """p(t,w) = 1 + (1/4) e^{2 pi i (t+w)} + (1/4) e^{4 pi i (2t-w)}; the
    modulus is bounded below by 1/2, and the horizontal Haar average
    vanishes identically (all zeros of the associated one-variable
    polynomial lie outside the unit circle)."""
    return TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _vertical_subgroup():
    """H = {0} x T, the orbit closure of translation by (0, sqrt2)."""
    gamma = Gamma.from_tokens("0,sqrt2")
    return subgroup_closure(gamma, classify(gamma))


def _horizontal_subgroup():
    """H = T x {0}, the orbit closure of translation by (sqrt2, 0)."""
    gamma = Gamma.from_tokens("sqrt2,0")
    return subgroup_closure(gamma, classify(gamma))


def remark1_curve(points: int = 1024, t_count: int = 101, threads: int = 1):
    """(t, theta_quadrature, theta_closed_form) rows at equispaced t."""
    p = remark1_polynomial()
    H = _vertical_subgroup()
    quad = QuadratureSpec("composite-midpoint", points, True)
    ts = [k / (t_count - 1) for k in range(t_count)]

    def one(t):
        est = theta_haar(p, reduce_mod1([t, 0.0]), H, quad)
        return (t, est.value, remark1_closed_form(t))

    return _map_ordered(one, ts, threads)


def remark2_curve(
    points: int = 1024,
    w_count: int = 32,
    min_grid: int = 1024,
    threads: int = 1,
):
    """((w, theta) rows, grid minimum of |p|)."""
    p = remark2_polynomial()
    H = _horizontal_subgroup()
    quad = QuadratureSpec("composite-midpoint", points, True)
    ws = [k / w_count for k in range(w_count)]

    def one(w):
        est = theta_haar(p, reduce_mod1([0.0, w]), H, quad)
        return (w, est.value)

    rows = _map_ordered(one, ws, threads)
    grid_min = min_modulus(p, min_grid).minimum
    return rows, grid_min


# ---------------------------------------------------------------------------
# plumbing


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_coords(text: str) -> tuple[Coordinate, ...]:
    return tuple(parse_coordinate(tok) for tok in text.split(","))


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _window_from_args(args):
    kind = getattr(args, "window", "gaussian")
    if kind == "gaussian":
        return GaussianWindow()
    if kind == "hermite":
        return HermiteWindow(order=args.order)
    if kind == "sampled":
        if args.window_file is None:
            raise ValueError("--window sampled requires --window-file")
        return sampled_window_from_csv(args.window_file)
    raise ValueError(f"unknown window kind {kind!r}")


def _add_window_flags(sp):
    sp.add_argument(
        "--window",
        choices=["gaussian", "hermite", "sampled"],
        default="gaussian",
    )
    sp.add_argument("--order", type=int, default=0, help="Hermite order")
    sp.add_argument("--window-file", default=None, help="CSV of samples")


def _grid_budget() -> int:
    return int(os.environ.get("GRL_MAX_GRID", str(GRID_BUDGET_DEFAULT)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    gamma = Gamma.from_tokens(args.gamma)
    cls = classify(gamma, search_bound=args.search_bound, tolerance=args.tolerance)
    out = {
        "kind": cls.kind,
        "order": cls.order,
        "relations": [list(r) for r in cls.relations],
        "search_bound": cls.search_bound,
        "tolerance": cls.tolerance,
    }
    _write_text(args.out, _json_text(out))
    return 0


def _gram_result(args):
    cfg = config_from_json(args.config)
    if args.method == "closed-form":
        return gaussian_gram_closed_form(cfg), cfg
    w = _window_from_args(args)
    if args.method == "zak":
        return gram_matrix_zak(w, cfg, resolution=args.resolution), cfg
    quad = QuadratureSpec(args.scheme, args.points, False)
    return gram_matrix(w, cfg, quad), cfg


def _cmd_gram(args) -> int:
    gram, _ = _gram_result(args)
    out = {
        "matrix": [[_pair(v) for v in row] for row in gram.matrix],
        "eigenvalues": [float(v) for v in gram.eigenvalues],
        "smallest_eigenvalue": gram.smallest_eigenvalue,
        "residual_vector_norm": gram.residual_vector_norm,
        "method": gram.method,
        "independent": bool(gram.smallest_eigenvalue > 0.0),
    }
    _write_text(args.out, _json_text(out))
    return 0


def _cmd_residual(args) -> int:
    cfg = config_from_json(args.config)
    w = _window_from_args(args)
    quad = QuadratureSpec(args.scheme, args.points, False)
    coeffs, residual = dependence_residual(
        w,
        cfg,
        method=args.method,
        quad=quad,
        resolution=args.resolution,
        target_index=args.target,
    )
    out = {
        "residual": residual,
        "coefficients": [_pair(c) for c in coeffs.c],
        "target_index": coeffs.target_index,
        "method": args.method,
    }
    _write_text(args.out, _json_text(out))
    return 0


def _cmd_zak(args) -> int:
    w = _window_from_args(args)
    Z = zak_transform(
        w,
        resolution=args.resolution,
        truncation=args.truncation,
        tail_target=args.tail_target,
        grid_budget=_grid_budget(),
    )
    d = Z.dimension
    M = Z.resolution
    labels = (
        ["t", "omega"]
        if d == 1
        else [f"t{i+1}" for i in range(d)] + [f"omega{i+1}" for i in range(d)]
    )
    lines = [",".join(labels + ["re", "im", "abs"])]
    vals = Z.values
    for idx in np.ndindex(*vals.shape):
        z = vals[idx]
        coords = [repr(i / M) for i in idx]
        lines.append(
            ",".join(
                coords
                + [repr(float(z.real)), repr(float(z.imag)), repr(float(abs(z)))]
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_theta(args) -> int:
    p = load_polynomial(args.poly)
    gamma = Gamma.from_tokens(args.gamma)
    lam = reduce_mod1(_parse_floats(args.lam))
    if args.method == "birkhoff":
        est = theta_birkhoff(p, lam, gamma, args.n, delta=args.delta)
    else:
        cls = classify(
            gamma, search_bound=args.search_bound, tolerance=args.tolerance
        )
        H = subgroup_closure(gamma, cls)
        quad = QuadratureSpec(args.scheme, args.points, True)
        est = theta_haar(p, lam, H, quad, delta=args.delta)
    out = {
        "value": est.value,
        "method": est.method,
        "skipped_fraction": est.skipped_fraction,
    }
    _write_text(args.out, _json_text(out))
    return 0


def _cmd_phase_check(args) -> int:
    p = load_polynomial(args.poly)
    base = reduce_mod1(_parse_floats(args.base))
    alpha = _parse_coords(args.alpha)
    beta = _parse_coords(args.beta)
    field = SyntheticPhaseField(p, base, alpha, beta, theta0=args.theta0)
    steps = range(1, args.n + 1)
    rhs = _phase_cocycle_rhs(args.theta0, p, base, alpha, beta, steps).tolist()
    worst = 0.0
    for n, rhs_n in zip(steps, rhs):
        lhs = field.phase_at_step(n)
        diff = abs(lhs - rhs_n) % 1.0
        worst = max(worst, min(diff, 1.0 - diff))
    inner = math.fsum(a.float() * b.float() for a, b in zip(alpha, beta))
    out = {
        "max_mod1_error": worst,
        "steps": args.n,
        "inner_product_alpha_beta": inner,
    }
    _write_text(args.out, _json_text(out))
    return 0


def _cmd_cluster(args) -> int:
    alpha = _parse_coords(args.alpha)
    beta = _parse_coords(args.beta)
    d = len(alpha)
    if len(beta) != d:
        raise ValueError("alpha and beta must have the same length")
    if args.inner_product is not None:
        ab = parse_coordinate(args.inner_product)
    else:
        rat, irr, _ = split_inner_product(alpha, beta)
        ab = Coordinate.from_fraction(rat)
        if irr != 0.0:  # irrational products that cancel keep the result exact
            total = np.longdouble(rat.numerator) / rat.denominator + irr
            ab = Coordinate.irrational(float(total))
    omega = (
        reduce_mod1(_parse_floats(args.omega))
        if args.omega
        else reduce_mod1([0.0] * d)
    )
    c1 = cluster_set_c1(ab)
    c2 = cluster_set_c2(alpha, beta, omega, args.n_max)
    out = {
        "c1": {
            "kind": c1.kind,
            "generator_angle": c1.generator_angle,
            "points": [_pair(v) for v in c1.points],
        },
        "c2": [_pair(v) for v in c2],
        "consistent": cluster_sets_match(c1, c2),
    }
    _write_text(args.out, _json_text(out))
    return 0


def _cmd_dual(args) -> int:
    cfg = config_from_json(args.config)
    dual = fourier_dual_config(cfg)
    _write_text(args.out, _json_text(config_to_json(dual)))
    return 0


def _cmd_remark1(args) -> int:
    rows = remark1_curve(
        points=args.points, t_count=args.t_count, threads=args.threads
    )
    lines = ["t,theta_quadrature,theta_closed_form"]
    lines += [f"{t!r},{q!r},{c!r}" for t, q, c in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    max_err = max(abs(q - c) for _, q, c in rows)
    print(f"max |theta_quadrature - theta_closed_form| = {max_err:.6e}")
    return 0


def _cmd_remark2(args) -> int:
    rows, grid_min = remark2_curve(
        points=args.points,
        w_count=args.w_count,
        min_grid=args.min_grid,
        threads=args.threads,
    )
    lines = ["w,theta"]
    lines += [f"{w!r},{v!r}" for w, v in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    max_theta = max(abs(v) for _, v in rows)
    print(f"grid min |p| = {grid_min!r}")
    print(f"max |theta| = {max_theta:.6e}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaborzak",
        description="Zak-transform linear-independence toolkit for finite "
        "Gabor systems: Gram certificates, orbit classification, log-growth "
        "functionals, and phase-cocycle diagnostics.",
    )
    ap.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for independent base points (default 1; "
        "results are identical, only scheduling changes)",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("classify", help="orbit-closure trichotomy for gamma")
    sp.add_argument("--gamma", required=True, help='e.g. "1/2,1/3" or "0,sqrt2"')
    sp.add_argument("--search-bound", type=int, default=50)
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("gram", help="Gram matrix with independence certificate")
    sp.add_argument("--config", required=True, help="configuration JSON path")
    sp.add_argument(
        "--method",
        choices=["quadrature", "closed-form", "zak"],
        default="quadrature",
    )
    _add_window_flags(sp)
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument(
        "--scheme",
        choices=["composite-midpoint", "gauss-legendre"],
        default="composite-midpoint",
    )
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_gram)

    sp = sub.add_parser("residual", help="least-squares dependence residual")
    sp.add_argument("--config", required=True)
    sp.add_argument(
        "--method", choices=["time-domain", "zak-domain"], default="time-domain"
    )
    _add_window_flags(sp)
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument(
        "--scheme",
        choices=["composite-midpoint", "gauss-legendre"],
        default="composite-midpoint",
    )
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--target", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_residual)

    sp = sub.add_parser("zak", help="Zak transform sampled on a torus grid")
    _add_window_flags(sp)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--truncation", type=int, default=None)
    sp.add_argument("--tail-target", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_zak)

    sp = sub.add_parser("theta", help="log-growth functional along an orbit")
    sp.add_argument("--poly", required=True, help="polynomial JSON path")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--lambda", dest="lam", required=True, help="base point")
    sp.add_argument("--method", choices=["birkhoff", "haar"], default="haar")
    sp.add_argument("--n", type=int, default=10**6, help="Birkhoff orbit length")
    sp.add_argument("--points", type=int, default=1024, help="Haar grid points")
    sp.add_argument(
        "--scheme",
        choices=["composite-midpoint", "gauss-legendre"],
        default="composite-midpoint",
    )
    sp.add_argument("--delta", type=float, default=1e-8)
    sp.add_argument("--search-bound", type=int, default=50)
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_theta)

    sp = sub.add_parser(
        "phase-check",
        help="n-step phase identity on a synthetic field",
    )
    sp.add_argument("--poly", required=True)
    sp.add_argument("--base", required=True, help="torus base point floats")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--theta0", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_phase_check)

    sp = sub.add_parser("cluster", help="cluster sets of the normalized phases")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--omega", default=None)
    sp.add_argument("--n-max", type=int, default=1000)
    sp.add_argument(
        "--inner-product",
        default=None,
        help="exact <alpha,beta> token overriding the numeric product "
        '(e.g. "2" or "1/2" when the labels multiply to a rational)',
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_cluster)

    sp = sub.add_parser("dual", help="Fourier-dual configuration")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("remark1", help="Theta profile vs Jensen closed form")
    sp.add_argument("--points", type=int, default=1024)
    sp.add_argument("--t-count", type=int, default=101)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_remark1)

    sp = sub.add_parser("remark2", help="positive-modulus example diagnostics")
    sp.add_argument("--points", type=int, default=1024)
    sp.add_argument("--w-count", type=int, default=32)
    sp.add_argument("--min-grid", type=int, default=1024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_remark2)

    return ap


# comma lists and tokens may start with "-" (--gamma -sqrt2,sqrt3); argparse
# takes such a value for an option unless it is attached as --gamma=-sqrt2,sqrt3
_SIGNED_VALUE_FLAGS = {
    "--gamma", "--alpha", "--beta", "--base", "--lambda", "--omega", "--inner-product"
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _SIGNED_VALUE_FLAGS and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AmbiguousClassification as exc:
        print(f"ambiguous classification: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, PhaseUndefined, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
