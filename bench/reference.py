"""Known answers, derived from the seeded construction and not from gaborzak,
and the check helpers that compare the program's outputs with them.

Tolerances come from the acceptance criteria in tests/test_acceptance.py
(1-7 and 11) and from tests/test_cli.py; each use names its source.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from inputs import LABELS, token_float, trig_value

# tolerances (source in brackets)
TOL_UNITARITY = 1e-5  # [criterion 4]
TOL_QUASI_PERIODIC = 1e-8  # [criterion 5]
TOL_ZAK_ZERO = 1e-8  # [criterion 6]
TOL_GRAM_ENTRY = 1e-8  # [criterion 7]
TOL_LAMBDA_MIN = 1e-6  # [criterion 7]
TOL_RESIDUAL_REL = 1e-5  # [criterion 7]
TOL_THETA_SMOOTH = 1e-4  # [criterion 1]
TOL_THETA_SINGULAR = 1e-3  # [criterion 1]
TOL_THETA_FLAT = 1e-6  # [criterion 1, criterion 2]
TOL_BIRKHOFF = 5e-3  # [criterion 3]
TOL_PHASE = 1e-8  # [criterion 11, test_cli phase-check]
TOL_CLOSED_FORM = 1e-10  # [test_cli gram closed-form]
# a sampled Gaussian (cubic spline through samples at step 1/64) differs from
# the analytic one by the spline's h^4 interpolation error, about 1e-8 here
TOL_SAMPLED_GRAM = 1e-7

KNOWN_DEFECT_4A = (
    "ROADMAP 4a: relation search for m > 4 (PSLQ) returns at most one "
    "relation, so the annihilator lattice comes back rank-deficient"
)


class CheckFailed(Exception):
    """An answer that disagrees with its known reference.  ``known_defect``
    names a documented seed defect that the mismatch is an instance of."""

    def __init__(self, message: str, known_defect: str | None = None):
        super().__init__(message)
        self.known_defect = known_defect


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_raises(exc_type, fn, *args, **kwargs):
    """Run fn and require exactly the documented exception type."""
    try:
        fn(*args, **kwargs)
    except exc_type as exc:
        return exc
    raise CheckFailed(f"expected {exc_type.__name__}, call returned normally")


def mod1_dist(x: float) -> float:
    r = x % 1.0
    return min(r, 1.0 - r)


# -- relation lattices ----------------------------------------------------------


def parse_token(tok: str):
    """(sign, label) for a labelled coordinate, Fraction otherwise."""
    base = tok.lstrip("-")
    if base in LABELS:
        return (-1 if tok.startswith("-") else 1, base)
    return Fraction(tok)


def expected_closure(gamma: str) -> dict:
    """Annihilator rank, Haar dimension, component count and kind of the
    orbit closure of translation by gamma.  Over Q, 1, sqrt2, sqrt3, sqrt5 are
    linearly independent, so <r, gamma> is an integer iff the rational part is
    an integer and each label's signed coefficient sum vanishes."""
    coords = [parse_token(t) for t in gamma.split(",")]
    rationals = [c for c in coords if isinstance(c, Fraction)]
    groups: dict[str, int] = {}
    for c in coords:
        if not isinstance(c, Fraction):
            groups[c[1]] = groups.get(c[1], 0) + 1
    rank = len(rationals) + sum(n - 1 for n in groups.values())
    if not groups:
        kind = "Finite"
    elif rank == 0:
        kind = "Dense"
    else:
        kind = "InfiniteNonDense"
    return {
        "m": len(coords),
        "rank": rank,
        "haar_dimension": len(groups),
        "component_count": math.lcm(*(q.denominator for q in rationals)) if rationals else 1,
        "kind": kind,
        "order": math.lcm(*(q.denominator for q in rationals)) if not groups else None,
    }


def is_relation(gamma: str, r) -> bool:
    coords = [parse_token(t) for t in gamma.split(",")]
    rational = Fraction(0)
    label_sum: dict[str, int] = {}
    for ri, c in zip(r, coords):
        if isinstance(c, Fraction):
            rational += ri * c
        else:
            label_sum[c[1]] = label_sum.get(c[1], 0) + c[0] * ri
    return rational.denominator == 1 and not any(label_sum.values())


def integer_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def check_relations(gamma: str, kind: str, relations, order=None) -> dict:
    """Relations found must be true relations spanning a lattice of the
    expected rank; kind (and order for finite orbits) must match."""
    exp = expected_closure(gamma)
    for r in relations:
        check(is_relation(gamma, r), f"{gamma}: {tuple(r)} is not a relation")
    found = integer_rank(relations) if relations else 0
    if found != exp["rank"]:
        defect = KNOWN_DEFECT_4A if exp["m"] > 4 and found < exp["rank"] else None
        raise CheckFailed(f"{gamma}: relation rank {found}, expected {exp['rank']}", defect)
    check(kind == exp["kind"], f"{gamma}: kind {kind}, expected {exp['kind']}")
    if exp["kind"] == "Finite":
        check(order == exp["order"], f"{gamma}: order {order}, expected {exp['order']}")
    return exp


# -- Gram and Zak ---------------------------------------------------------------


def gaussian_gram(points) -> np.ndarray:
    """G[j,k] = e^{-pi(|u|^2+|v|^2)/2} e^{-pi i <v, x_j + x_k>} for the unit
    Gaussian, u = x_j - x_k, v = y_j - y_k; points as (x floats, y floats)."""
    n = len(points)
    G = np.zeros((n, n), dtype=complex)
    for j, (xj, yj) in enumerate(points):
        for k, (xk, yk) in enumerate(points):
            uu = sum((a - b) ** 2 for a, b in zip(xj, xk))
            vv = sum((a - b) ** 2 for a, b in zip(yj, yk))
            ph = sum((a - b) * (c + d) for a, b, c, d in zip(yj, yk, xj, xk))
            G[j, k] = math.exp(-math.pi * (uu + vv) / 2.0) * cmath.exp(-1j * math.pi * ph)
    return G


def float_points(points) -> list:
    return [([token_float(t) for t in x], [token_float(t) for t in y]) for x, y in points]


def schur_residual(G: np.ndarray, target: int) -> float:
    others = [i for i in range(len(G)) if i != target]
    b = G[others, target]
    x = np.linalg.solve(G[np.ix_(others, others)], b)
    return math.sqrt(max(float(np.real(G[target, target] - b.conj() @ x)), 0.0))


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def window_zero(window_spec) -> tuple[float, float]:
    """A guaranteed zero of Zf: (1/2, 1/2) for even f, (0, 0) for odd f."""
    if window_spec[0] == "hermite" and window_spec[1] % 2 == 1:
        return 0.0, 0.0
    return 0.5, 0.5


# -- Theta ----------------------------------------------------------------------


def jensen_theta(poly: dict, gamma: str, t0: float) -> float:
    """Theta over lambda + H for p = A(t) + B(t) e^{-2 pi i w} and
    gamma = (p/q, label): H = (1/q)Z/Z x T, and Jensen's formula gives
    the mean of ln|p| over each vertical circle as ln max(|A|, |B|)."""
    q = Fraction(gamma.split(",")[0]).denominator
    return sum(
        math.log(max(abs(trig_value(poly["A"], t0 + j / q)), abs(trig_value(poly["B"], t0 + j / q))))
        for j in range(q)
    ) / q


def jensen_terms(poly: dict) -> list:
    return [((k, 0), complex(re, im)) for k, re, im in poly["A"]] + [
        ((k, -1), complex(re, im)) for k, re, im in poly["B"]
    ]


def dominant_terms(terms) -> list:
    return [(tuple(f), complex(re, im)) for f, re, im in terms]


def dominant_constant(terms) -> complex:
    """c0 of a polynomial from inputs._dominant_poly (its first term)."""
    _, re, im = terms[0]
    return complex(re, im)


def eval_terms(terms, z) -> complex:
    return sum(c * cmath.exp(2j * math.pi * (f[0] * z[0] + f[1] * z[1])) for f, c in terms)


def min_modulus_bracket(poly: dict, n: int = 1 << 16) -> tuple[float, float]:
    """min over T^2 of |A(t) + B(t) e^{-2 pi i w}| = min_t ||A(t)| - |B(t)||,
    bracketed by the minimum over n grid points in t and that minimum less
    the Lipschitz constant times the half-step."""
    t = np.arange(n) / n
    a = sum(complex(re, im) * np.exp(2j * np.pi * k * t) for k, re, im in poly["A"])
    b = sum(complex(re, im) * np.exp(2j * np.pi * k * t) for k, re, im in poly["B"])
    gap = np.abs(np.abs(a) - np.abs(b))
    lip = 2 * math.pi * sum(math.hypot(re, im) * abs(k) for k, re, im in poly["A"] + poly["B"])
    hi = float(np.min(gap))
    return hi - lip * 0.5 / n, hi


def orbit_reference(z0, gamma: str, j: int) -> list:
    """z0 + j gamma mod 1 with exact rationals and 50-digit labels."""
    import mpmath

    out = []
    with mpmath.workdps(50):
        for z, tok in zip(z0, gamma.split(",")):
            c = parse_token(tok)
            if isinstance(c, Fraction):
                val = mpmath.mpf(z) + mpmath.mpf((j * c.numerator) % c.denominator) / c.denominator
            else:
                val = mpmath.mpf(z) + j * c[0] * mpmath.sqrt(int(c[1][4:]))
            out.append(float(val - mpmath.floor(val)))
    return out


def rigidity_defect(shift: int, beta: str) -> float:
    import mpmath

    c = parse_token(beta)
    if isinstance(c, Fraction):
        frac = (shift * c) % 1
        return float(min(frac, 1 - frac))
    with mpmath.workdps(50):
        v = shift * c[0] * mpmath.sqrt(int(c[1][4:]))
        return float(abs(v - mpmath.nint(v)))


def inner_product(alpha: str, beta: str):
    """<alpha, beta> for d=1: a Fraction when exact, else a float."""
    a, b = parse_token(alpha), parse_token(beta)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return token_float(alpha) * token_float(beta)


def cluster_expectation(alpha: str, beta: str, n_max: int) -> dict:
    """c1 kind and size, c2 size (None when not derived) and the match
    verdict, from <alpha, beta> and the shape of beta."""
    ab = inner_product(alpha, beta)
    b = parse_token(beta)
    a = parse_token(alpha)
    if not isinstance(ab, Fraction):
        c2 = None
        if isinstance(b, Fraction) and not isinstance(a, Fraction):
            c2 = min(b.denominator, n_max)  # distinct fractional parts, irrational alpha
        elif isinstance(b, Fraction) and b.denominator == 1:
            c2 = 1
        return {"c1_kind": "full-circle", "c1_size": 0, "c2_size": c2, "match": True}
    p, q = ab.numerator, ab.denominator
    size = (2 * q) // math.gcd(p, 2 * q) if p != 0 else 1
    c2 = 1 if b.denominator == 1 else None
    return {"c1_kind": "finite-roots", "c1_size": size, "c2_size": c2,
            "match": (size == 1) if c2 == 1 else None}
