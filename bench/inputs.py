"""Seeded input generation.  Pure data: every spec is JSON-serialisable and is
a function of (workload, seed) alone, so the same seed regenerates identical
inputs.  Nothing here imports gaborzak; the program only ever sees the
generated inputs."""

from __future__ import annotations

import math
import random
from fractions import Fraction

LABELS = ("sqrt2", "sqrt3", "sqrt5")
RATIONALS = ("1/2", "1/3", "2/3", "1/4", "3/4", "-1/2", "-1/3", "2/5")
THIRDS = ("1/3", "2/3", "-1/3")
WINDOWS = (["gaussian"], ["hermite", 0], ["hermite", 1], ["hermite", 2],
           ["hermite", 3], ["hermite", 4], ["sampled"])
# d=1 certificate slots (window, grid size M, lattice atoms): grids from
# inside L2 to far beyond it.  The slots are fixed so that a seed changes the
# configurations, not the amount of work.
CERTIFY_SLOTS = (
    (["gaussian"], 64, 3), (["hermite", 1], 64, 4), (["hermite", 2], 128, 5),
    (["sampled"], 256, 3), (["hermite", 3], 256, 4), (["gaussian"], 512, 5),
    (["hermite", 4], 1024, 3), (["hermite", 0], 2048, 4),
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _signed_label(rng: random.Random, label: str) -> str:
    return label if rng.random() < 0.5 else "-" + label


def _off_lattice_token(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return _signed_label(rng, rng.choice(LABELS))
    return rng.choice(RATIONALS)


def _config_points(rng: random.Random, n_lattice: int) -> list:
    """d=1 mixed-integer configuration: integer points then one off-lattice
    point with labelled or rational coordinates."""
    grid = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]
    lattice = rng.sample(grid, n_lattice)
    pts = [[[str(x)], [str(y)]] for x, y in lattice]
    pts.append([[_off_lattice_token(rng)], [_off_lattice_token(rng)]])
    return pts


def _coef(rng: random.Random, scale: float) -> list:
    r = scale * rng.uniform(0.3, 1.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(a), r * math.sin(a)]


def _dominant_poly(rng: random.Random, n_terms: int) -> list:
    """Terms [[f1, f2], re, im] on T^2: a constant c0 plus terms with
    lexicographically positive frequencies and total modulus below |c0|/2.
    Such a p never vanishes, its phase has no winding, the mean of ln|p|
    over T^2 is ln|c0| and the mean phase is arg(c0)."""
    c0 = _coef(rng, 1.0)
    c0_abs = math.hypot(*c0)
    freqs = set()
    while len(freqs) < n_terms - 1:
        f1 = rng.randint(0, 2)
        f2 = rng.randint(1 if f1 == 0 else -2, 2)
        freqs.add((f1, f2))
    terms = [[[0, 0], *c0]]
    budget = 0.5 * c0_abs / (n_terms - 1)
    for f in sorted(freqs):
        terms.append([list(f), *_coef(rng, budget)])
    return terms


def _jensen_poly(rng: random.Random, n_a: int, n_b: int) -> dict:
    """p(t, w) = A(t) + B(t) e^{-2 pi i w} with n_a + n_b terms."""
    a_freqs = rng.sample(range(-2, 3), n_a)
    b_freqs = rng.sample(range(-2, 3), n_b)
    return {
        "A": [[k, *_coef(rng, 1.0)] for k in sorted(a_freqs)],
        "B": [[k, *_coef(rng, 1.0)] for k in sorted(b_freqs)],
    }


def trig_value(coeffs, t: float) -> complex:
    return sum(complex(re, im) * complex(math.cos(2 * math.pi * k * t), math.sin(2 * math.pi * k * t))
               for k, re, im in coeffs)


def jensen_gap(poly: dict, t: float) -> float:
    return abs(trig_value(poly["A"], t)) - abs(trig_value(poly["B"], t))


def _zero_coset_t(poly: dict) -> float | None:
    """A t where |A(t)| = |B(t)|, so the coset {t} x T carries a zero."""
    n = 512
    vals = [jensen_gap(poly, k / n) for k in range(n + 1)]
    for k in range(n):
        if vals[k] == 0.0:
            return k / n
        if vals[k] * vals[k + 1] < 0:
            lo, hi = k / n, (k + 1) / n
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (jensen_gap(poly, mid) < 0) == (vals[k] < 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


def _smooth_t(rng: random.Random, poly: dict) -> float:
    """A t whose coset stays clear of zeros (|A| and |B| differ)."""
    while True:
        t = rng.random()
        if abs(jensen_gap(poly, t)) > 0.1:
            return t


def _gamma_case(rng: random.Random, m: int, shape: str, rationals=RATIONALS) -> str:
    """Seeded gamma whose relation lattice is known from its shape:
    dense (distinct labels), repeat (one label twice), rational (one
    rational), repeatq (one label twice and a rational), rank2 (two labels
    twice each), exact2 (two rationals), finite (rationals only).  Remaining
    slots take distinct labels."""
    labels = list(LABELS)
    rng.shuffle(labels)
    if shape == "finite":
        toks = [rng.choice(RATIONALS + ("1", "0")) for _ in range(m)]
    else:
        toks = []
        if shape in ("repeat", "repeatq", "rank2"):
            lab = labels.pop()
            toks += [_signed_label(rng, lab), _signed_label(rng, lab)]
        if shape == "rank2":
            lab = labels.pop()
            toks += [_signed_label(rng, lab), _signed_label(rng, lab)]
        if shape in ("rational", "repeatq"):
            toks.append(rng.choice(rationals))
        if shape == "exact2":
            toks += [rng.choice(RATIONALS), rng.choice(RATIONALS)]
        while len(toks) < m:
            toks.append(_signed_label(rng, labels.pop()))
    rng.shuffle(toks)
    return ",".join(toks)


# -- per-workload specs ---------------------------------------------------------


def zak_certify(seed: int) -> list[dict]:
    rng = rng_for("zak-certify", seed)
    specs = []
    for window, M, n_lattice in CERTIFY_SLOTS:
        specs.append({
            "kind": f"certify-d1-m{M}",
            "window": window,
            "M": M,
            "points": _config_points(rng, n_lattice),
        })
    specs.append({"kind": "zak-d2-m16", "M": 16})
    off = [[rng.choice(("1/2", "1/3", "-1/2", "sqrt2", "-sqrt2")) for _ in range(2)] for _ in range(2)]
    specs.append({
        "kind": "gram-d2",
        "points": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]],
                   [["0", "1"], ["1", "0"]], off],
    })
    specs.append({"kind": "zak-d1-m2048-k6", "M": 2048, "K": 6})
    specs.append({"kind": "truncation-error", "window": rng.choice(WINDOWS), "K": 1})
    return specs


def theta_orbit(seed: int) -> list[dict]:
    rng = rng_for("theta-orbit", seed)
    specs = []
    for m, shape in ((2, "dense"), (2, "rational"), (3, "dense"), (3, "repeat"),
                     (3, "finite"), (4, "repeat"), (4, "repeatq"), (5, "rank2"),
                     (5, "repeatq"), (5, "exact2")):
        # the meet-in-the-middle search (m <= 4) costs more the more near
        # relations a small denominator creates: thirds keep the cost fixed
        pool = THIRDS if m == 4 else RATIONALS
        specs.append({"kind": f"classify-m{m}", "gamma": _gamma_case(rng, m, shape, pool)})
    specs.append({"kind": "ambiguous", "gamma": "irr:0.5," + _signed_label(rng, rng.choice(LABELS))})
    for i, (n_a, n_b) in enumerate(((2, 1), (2, 2))):
        poly = _jensen_poly(rng, n_a, n_b)
        t0 = _zero_coset_t(poly) if i == 0 else None
        singular = t0 is not None
        if t0 is None:
            t0 = _smooth_t(rng, poly)
        g1 = rng.choice(("0", "1/2", "1/3")) if not singular else "0"
        specs.append({
            "kind": "theta-jensen-zero" if singular else "theta-jensen",
            "poly": poly,
            "gamma": f"{g1},{_signed_label(rng, rng.choice(LABELS))}",
            "lam": [t0, rng.random()],
        })
    labels = rng.sample(LABELS, 2)
    specs.append({
        "kind": "theta-dense2d",
        "terms": _dominant_poly(rng, 5),
        "gamma": ",".join(_signed_label(rng, lab) for lab in labels),
        "lam": [rng.random(), rng.random()],
    })
    specs.append({
        "kind": "orbit-eval-1e6",
        "gamma": f"{rng.choice(RATIONALS)},{_signed_label(rng, rng.choice(LABELS))}",
        "z0": [rng.random(), rng.random()],
        "terms": _dominant_poly(rng, 3),
        "probe": rng.sample(range(2, 10**6 - 1), 3),
    })
    specs.append({"kind": "remark1"})
    specs.append({"kind": "remark2"})
    specs.append({"kind": "min-modulus", "poly": _jensen_poly(rng, 1, 1), "resolution": 1024})
    specs.append({"kind": "zero-coset"})
    return specs


def _alpha_beta(rng: random.Random) -> tuple[str, str]:
    pool = ("1", "2", "-1", "1/2", "sqrt2", "sqrt3", "sqrt5", "-sqrt2")
    return rng.choice(pool), rng.choice(pool)


def phase_cocycle(seed: int) -> list[dict]:
    rng = rng_for("phase-cocycle", seed)
    specs = []
    for n in (100, 200, 400):
        a, b = _alpha_beta(rng)
        specs.append({
            "kind": f"phase-identity-n{n}",
            "terms": _dominant_poly(rng, 3),
            "base": [rng.random(), rng.random()],
            "alpha": a, "beta": b,
            "theta0": rng.random(),
            "n": n,
        })
    for _ in range(2):
        la, lb = rng.sample(LABELS, 2)
        specs.append({
            "kind": "phase-mean",
            "terms": _dominant_poly(rng, 3),
            "base": [rng.random(), rng.random()],
            "alpha": _signed_label(rng, la), "beta": _signed_label(rng, lb),
            "n": 4000,
        })
    a, b = _alpha_beta(rng)
    specs.append({
        "kind": "normalized-synthetic",
        "terms": _dominant_poly(rng, 3),
        "base": [rng.random(), rng.random()],
        "alpha": a, "beta": b, "theta0": rng.random(), "n_max": 40,
    })
    a, b = _alpha_beta(rng)
    specs.append({
        "kind": "normalized-zak",
        "base": zak_safe_base(rng, a, b, 20),
        "alpha": a, "beta": b, "n_max": 20,
    })
    for case in ("labels", "integers", "label-rational", "rational-integer"):
        specs.append({"kind": "cluster", **cluster_case(rng, case)})
    a, b = _alpha_beta(rng)
    specs.append({
        "kind": "rigidity",
        "terms": _dominant_poly(rng, 2),
        "alpha": a, "beta": b,
        "shifts": [[s] for s in rng.sample((1, 2, 3, -1, -2, 5, 7), 4)],
    })
    specs.append({"kind": "phase-undefined"})
    return specs


def cluster_case(rng: random.Random, case: str) -> dict:
    if case == "labels":
        a, b = rng.sample(LABELS, 2)
    elif case == "integers":
        a, b = str(rng.randint(1, 4)), str(rng.randint(1, 4))
    elif case == "label-rational":
        a, b = rng.choice(LABELS), rng.choice(("1/2", "1/3", "2/5", "3/4"))
    else:
        a, b = rng.choice(("1/2", "1/3", "3/4")), str(rng.randint(1, 4))
    return {"alpha": a, "beta": b, "omega": [rng.random()], "n_max": 200}


def token_float(tok: str) -> float:
    neg = tok.startswith("-")
    base = tok.lstrip("-")
    val = {"sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3), "sqrt5": math.sqrt(5)}.get(base)
    if val is None:
        return float(Fraction(tok))
    return -val if neg else val


def gaussian_zak_reference(t: float, w: float, k_max: int = 12) -> complex:
    """Zg(t, w) = 2^{1/4} sum_k e^{-pi (t+k)^2} e^{-2 pi i w k}, by direct sum."""
    return 2 ** 0.25 * sum(
        math.exp(-math.pi * (t + k) ** 2) * complex(math.cos(2 * math.pi * w * k), -math.sin(2 * math.pi * w * k))
        for k in range(-k_max, k_max + 1)
    )


def zak_safe_base(rng: random.Random, a: str, b: str, n_max: int) -> list:
    """Base point whose orbit steps 1..n_max keep |Zg| >= 1e-3, so the Zak
    phase is well conditioned along the sequence."""
    av, bv = token_float(a), token_float(b)
    while True:
        base = [rng.random(), rng.random()]
        if all(
            abs(gaussian_zak_reference((base[0] - n * av) % 1.0, (base[1] + n * bv) % 1.0)) >= 1e-3
            for n in range(1, n_max + 1)
        ):
            return base


def cli(seed: int) -> dict:
    rng = rng_for("cli", seed)
    poly = _jensen_poly(rng, 2, 1)
    pa, pb = _alpha_beta(rng)
    return {
        "gamma": _gamma_case(rng, 3, rng.choice(("dense", "repeat", "rational"))),
        "points": _config_points(rng, 3),
        "poly": poly,
        "theta_gamma": f"0,{_signed_label(rng, rng.choice(LABELS))}",
        "lam": [_smooth_t(rng, poly), rng.random()],
        "phase_terms": _dominant_poly(rng, 3),
        "phase_base": [rng.random(), rng.random()],
        "alpha": pa, "beta": pb,
        "cluster": cluster_case(rng, rng.choice(("labels", "integers", "label-rational"))),
    }


GENERATORS = {
    "zak-certify": zak_certify,
    "theta-orbit": theta_orbit,
    "phase-cocycle": phase_cocycle,
    "cli": cli,
}
