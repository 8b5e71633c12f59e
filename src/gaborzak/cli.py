"""Command-line front end.

Subcommands: classify, gram, residual, zak, theta, phase-check, cluster,
dual, remark1, remark2.  JSON is the machine surface (keys sorted, stable
float repr); CSV columns are fixed per subcommand.  Exit codes: 0 success,
2 invalid configuration or flags, 3 numerical failure, 4 ambiguous
classification.  All defaults are deterministic.  The large kernels (orbit
points, polynomial values, the Birkhoff average, Zak grid FFTs) run in
blocks of rows on every CPU of the process's affinity mask; ``taskset``
narrows it, and no output bit depends on it.  The global --threads flag is
accepted and has no effect.  A subcommand imports numpy and its own layers
only when it runs, so ``gaborzak classify`` never loads the Zak or phase
layers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .errors import (
    AmbiguousClassification,
    NumericalFailure,
    PhaseUndefined,
    TruncationError,
)

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
    from .trigpoly import TrigPolynomial

    return TrigPolynomial(2, [((0, 0), 1.0), ((-1, 0), 1.0), ((0, -1), -1.0)])


def remark1_closed_form(t: float) -> float:
    return math.log(max(2.0 * abs(math.cos(math.pi * t)), 1.0))


def remark2_polynomial() -> TrigPolynomial:
    """p(t,w) = 1 + (1/4) e^{2 pi i (t+w)} + (1/4) e^{4 pi i (2t-w)}; the
    modulus is bounded below by 1/2, and the horizontal Haar average
    vanishes identically (all zeros of the associated one-variable
    polynomial lie outside the unit circle)."""
    from .trigpoly import TrigPolynomial

    return TrigPolynomial(2, [((0, 0), 1.0), ((1, 1), 0.25), ((4, -2), 0.25)])


def _haar_curve(p, tokens: str, bases, points: int) -> list[float]:
    """Haar Theta of p over the orbit closure H of the gamma that ``tokens``
    name, at every base point in one call."""
    from .cocycle import _theta_haar_many
    from .numerics import QuadratureSpec, reduce_mod1
    from .orbit import Gamma, classify, subgroup_closure

    gamma = Gamma.from_tokens(tokens)
    H = subgroup_closure(gamma, classify(gamma))
    quad = QuadratureSpec("composite-midpoint", points)
    return [e.value for e in _theta_haar_many(p, [reduce_mod1(b) for b in bases], H, quad)]


def remark1_curve(points: int = 1024, t_count: int = 101):
    """(t, theta_quadrature, theta_closed_form) rows at equispaced t; H = {0} x T,
    so ``points`` has no effect (Jensen's formula takes each vertical circle whole)."""
    if t_count < 2:
        raise ValueError("--t-count must be at least 2")
    ts = [k / (t_count - 1) for k in range(t_count)]
    thetas = _haar_curve(remark1_polynomial(), "0,sqrt2", [[t, 0.0] for t in ts], points)
    return [(t, v, remark1_closed_form(t)) for t, v in zip(ts, thetas)]


def remark2_curve(points: int = 1024, w_count: int = 32, min_grid: int = 1024):
    """((w, theta) rows, grid minimum of |p|); H = T x {0}, so ``points`` has no
    effect on Theta."""
    from .trigpoly import min_modulus

    if w_count < 1:
        raise ValueError("--w-count must be at least 1")
    p = remark2_polynomial()
    ws = [k / w_count for k in range(w_count)]
    thetas = _haar_curve(p, "sqrt2,0", [[0.0, w] for w in ws], points)
    return list(zip(ws, thetas)), min_modulus(p, min_grid).minimum


# ---------------------------------------------------------------------------
# plumbing


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_coords(text: str) -> tuple[Coordinate, ...]:
    from .numerics import parse_coordinate

    return tuple(parse_coordinate(tok) for tok in text.split(","))


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _window_from_args(args, dimension: int = 1):
    """The window the flags name; the Gaussian takes ``dimension``, the
    Hermite and sampled windows have dimension 1."""
    from .windows import GaussianWindow, HermiteWindow, sampled_window_from_csv

    if args.window == "hermite":
        return HermiteWindow(order=args.order)
    if args.window == "sampled":
        if args.window_file is None:
            raise ValueError("--window sampled requires --window-file")
        return sampled_window_from_csv(args.window_file)
    return GaussianWindow(dimension)


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns its artifact, which main alone writes: a dict
# (JSON), CSV text, or CSV text with summary lines printed after it


def _cmd_classify(args):
    from .orbit import Gamma, classify

    gamma = Gamma.from_tokens(args.gamma)
    cls = classify(gamma, search_bound=args.search_bound, tolerance=args.tolerance)
    return {
        "kind": cls.kind,
        "order": cls.order,
        "relations": [list(r) for r in cls.relations],
        "search_bound": cls.search_bound,
        "tolerance": cls.tolerance,
    }


def _cmd_gram(args):
    from .gabor import config_from_json, gaussian_gram_closed_form, gram_matrix, gram_matrix_zak
    from .numerics import QuadratureSpec

    cfg = config_from_json(args.config)
    w = _window_from_args(args, cfg.dimension)
    if args.method == "closed-form":
        gram = gaussian_gram_closed_form(cfg, w)
    elif args.method == "zak":
        gram = gram_matrix_zak(w, cfg, resolution=args.resolution)
    else:
        gram = gram_matrix(w, cfg, QuadratureSpec("composite-midpoint", args.points, False))
    return {
        "matrix": [[_pair(v) for v in row] for row in gram.matrix],
        "eigenvalues": [float(v) for v in gram.eigenvalues],
        "smallest_eigenvalue": gram.smallest_eigenvalue,
        "residual_vector_norm": gram.residual_vector_norm,
        "method": gram.method,
        "independent": bool(gram.smallest_eigenvalue > 0.0),
    }


def _cmd_residual(args):
    from .gabor import config_from_json, dependence_residual
    from .numerics import QuadratureSpec

    cfg = config_from_json(args.config)
    w = _window_from_args(args, cfg.dimension)
    quad = QuadratureSpec("composite-midpoint", args.points, False)
    coeffs, residual = dependence_residual(
        w,
        cfg,
        method=args.method,
        quad=quad,
        resolution=args.resolution,
        target_index=args.target,
    )
    return {
        "residual": residual,
        "coefficients": [_pair(c) for c in coeffs.c],
        "target_index": coeffs.target_index,
        "method": args.method,
    }


def _cmd_zak(args):
    from .zak import zak_transform

    Z = zak_transform(
        _window_from_args(args),
        resolution=args.resolution,
        truncation=args.truncation,
        tail_target=args.tail_target,
    )
    d = Z.dimension
    M = Z.resolution
    labels = [f"{name}{i + 1}" if d > 1 else name for name in ("t", "omega") for i in range(d)]
    # Python's complex abs (hypot): np.abs's SIMD loop differs in the last bit
    axis = [repr(i / M) for i in range(M)]
    cells = zip(itertools.product(axis, repeat=2 * d), Z.values.reshape(-1).tolist())
    rows = (f"{','.join(c)},{z.real!r},{z.imag!r},{abs(z)!r}" for c, z in cells)
    return _csv(",".join(labels + ["re", "im", "abs"]), rows)


def _cmd_theta(args):
    from .cocycle import theta_birkhoff, theta_haar
    from .numerics import QuadratureSpec, reduce_mod1
    from .orbit import Gamma, classify, subgroup_closure
    from .trigpoly import load_polynomial

    p = load_polynomial(args.poly)
    gamma = Gamma.from_tokens(args.gamma)
    lam = reduce_mod1(_parse_floats(args.lam))
    if args.method == "birkhoff":
        est = theta_birkhoff(p, lam, gamma, args.n, delta=args.delta)
    else:
        cls = classify(gamma, search_bound=args.search_bound, tolerance=args.tolerance)
        H = subgroup_closure(gamma, cls)
        est = theta_haar(p, lam, H, QuadratureSpec("composite-midpoint", args.points))
    return {
        "value": est.value,
        "method": est.method,
        "skipped_fraction": est.skipped_fraction,
    }


def _cmd_phase_check(args):
    import numpy as np

    from .cocycle import SyntheticPhaseField, _phase_cocycle_rhs
    from .numerics import reduce_mod1
    from .trigpoly import load_polynomial

    p = load_polynomial(args.poly)
    base = reduce_mod1(_parse_floats(args.base))
    alpha = _parse_coords(args.alpha)
    beta = _parse_coords(args.beta)
    field = SyntheticPhaseField(p, base, alpha, beta, theta0=args.theta0)
    field.phase_lift(args.n)  # one orbit pass fills the cache
    steps = range(1, args.n + 1)
    rhs = _phase_cocycle_rhs(args.theta0, p, base, alpha, beta, steps)
    diff = np.abs(np.array([field.phase_at_step(n) for n in steps]) - rhs) % 1.0
    worst = float(np.max(np.minimum(diff, 1.0 - diff), initial=0.0))
    inner = math.fsum(a.float() * b.float() for a, b in zip(alpha, beta))
    return {
        "max_mod1_error": worst,
        "steps": args.n,
        "inner_product_alpha_beta": inner,
    }


def _cmd_cluster(args):
    from fractions import Fraction

    from .cocycle import cluster_set_c1, cluster_set_c2, cluster_sets_match
    from .numerics import Coordinate, parse_coordinate, reduce_mod1, split_inner_product

    alpha = _parse_coords(args.alpha)
    beta = _parse_coords(args.beta)
    d = len(alpha)
    if len(beta) != d:
        raise ValueError("alpha and beta must have the same length")
    if args.inner_product is not None:
        ab = parse_coordinate(args.inner_product)
    else:
        rat = split_inner_product(alpha, beta)[0]
        total = sum((a.exact * b.exact for a, b in zip(alpha, beta)), Fraction(0))
        # irrational products that cancel keep the result exact
        ab = Coordinate.from_fraction(rat) if total == rat else Coordinate.irrational(float(total))
    omega = reduce_mod1(_parse_floats(args.omega) if args.omega else [0.0] * d)
    c1 = cluster_set_c1(ab)
    c2 = cluster_set_c2(alpha, beta, omega, args.n_max)
    return {
        "c1": {
            "kind": c1.kind,
            "generator_angle": c1.generator_angle,
            "points": [_pair(v) for v in c1.points],
        },
        "c2": [_pair(v) for v in c2],
        "consistent": cluster_sets_match(c1, c2),
    }


def _cmd_dual(args):
    from .gabor import config_from_json, config_to_json, fourier_dual_config

    return config_to_json(fourier_dual_config(config_from_json(args.config)))


def _cmd_remark1(args):
    rows = remark1_curve(points=args.points, t_count=args.t_count)
    max_err = max(abs(q - c) for _, q, c in rows)
    csv = _csv("t,theta_quadrature,theta_closed_form",
               (f"{t!r},{q!r},{c!r}" for t, q, c in rows))
    return csv, [f"max |theta_quadrature - theta_closed_form| = {max_err:.6e}"]


def _cmd_remark2(args):
    rows, grid_min = remark2_curve(
        points=args.points, w_count=args.w_count, min_grid=args.min_grid
    )
    max_theta = max(abs(v) for _, v in rows)
    csv = _csv("w,theta", (f"{w!r},{v!r}" for w, v in rows))
    return csv, [f"grid min |p| = {grid_min!r}", f"max |theta| = {max_theta:.6e}"]


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
        help="accepted and has no effect: the large kernels use every CPU "
        "of the affinity mask (narrow it with taskset), and outputs do not "
        "depend on it",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    # flags that several subcommands share, declared once as parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="configuration JSON path")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window", choices=["gaussian", "hermite", "sampled"], default="gaussian")
    window.add_argument("--order", type=int, default=0, help="Hermite order")
    window.add_argument("--window-file", default=None, help="CSV of samples")
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--points", type=int, default=512)
    quadrature.add_argument("--resolution", type=int, default=64)
    haar = argparse.ArgumentParser(add_help=False)
    haar.add_argument("--points", type=int, default=1024,
                      help="Haar Theta: midpoint nodes per axis of H but its last")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--search-bound", type=int, default=50)
    search.add_argument("--tolerance", type=float, default=1e-9)

    def command(name, func, summary, *parents):
        sp = sub.add_parser(name, help=summary, parents=[*parents, out])
        sp.set_defaults(func=func)
        return sp

    sp = command("classify", _cmd_classify, "orbit-closure trichotomy for gamma", search)
    sp.add_argument("--gamma", required=True, help='e.g. "1/2,1/3" or "0,sqrt2"')

    sp = command("gram", _cmd_gram, "Gram matrix with independence certificate",
                 config, window, quadrature)
    sp.add_argument(
        "--method",
        choices=["quadrature", "closed-form", "zak"],
        default="quadrature",
    )

    sp = command("residual", _cmd_residual, "least-squares dependence residual",
                 config, window, quadrature)
    sp.add_argument(
        "--method", choices=["time-domain", "zak-domain"], default="time-domain"
    )
    sp.add_argument("--target", type=int, default=None)

    sp = command("zak", _cmd_zak, "Zak transform sampled on a torus grid", window)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--truncation", type=int, default=None)
    sp.add_argument("--tail-target", type=float, default=1e-10)

    sp = command("theta", _cmd_theta, "log-growth functional along an orbit", haar, search)
    sp.add_argument("--poly", required=True, help="polynomial JSON path")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--lambda", dest="lam", required=True, help="base point")
    sp.add_argument("--method", choices=["birkhoff", "haar"], default="haar")
    sp.add_argument("--n", type=int, default=10**6, help="Birkhoff orbit length")
    sp.add_argument("--delta", type=float, default=1e-8,
                    help="Birkhoff: skip the steps with |p| below this")

    sp = command("phase-check", _cmd_phase_check,
                 "n-step phase identity on a synthetic field")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--base", required=True, help="torus base point floats")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--theta0", type=float, default=0.0)

    sp = command("cluster", _cmd_cluster, "cluster sets of the normalized phases")
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

    command("dual", _cmd_dual, "Fourier-dual configuration", config)

    sp = command("remark1", _cmd_remark1, "Theta profile vs Jensen closed form", haar)
    sp.add_argument("--t-count", type=int, default=101)

    sp = command("remark2", _cmd_remark2, "positive-modulus example diagnostics", haar)
    sp.add_argument("--w-count", type=int, default=32)
    sp.add_argument("--min-grid", type=int, default=1024)

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
        artifact = args.func(args)
        text, summary = artifact if isinstance(artifact, tuple) else (artifact, [])
        if isinstance(text, dict):
            text = json.dumps(text, sort_keys=True, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        for line in summary:
            print(line)
        return 0
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
