"""Reference cluster sets: the per-point loops that ``gaborzak.cocycle``
replaced by array passes, kept to check them.

``cluster_set_c1`` takes one Fraction angle per root; ``cluster_set_c2``
walks the angle-sorted samples one at a time and starts a cluster at the
first value farther than the tolerance from the cluster's first sorted
value; ``cluster_sets_match`` tries every sample as the anchor of the
rotation and scans every pair of points for each.  None of them validates
its arguments.
"""

import math
from fractions import Fraction

import numpy as np

from gaborzak.cocycle import ClusterSet
from gaborzak.numerics import step_turns, turns_to_float


def cluster_set_c1(ab) -> ClusterSet:
    if ab.is_rational:
        fr = ab.fraction
        pnum, q = fr.numerator, fr.denominator
        gen_angle = Fraction(-pnum, 2 * q)
        order = (2 * q) // math.gcd(pnum, 2 * q) if pnum != 0 else 1
        pts = []
        for k in range(order):
            ang = (k * gen_angle) % 1
            pts.append(complex(np.exp(2j * np.pi * float(ang))))
        return ClusterSet(
            kind="finite-roots",
            points=tuple(pts),
            generator_angle=float(gen_angle % 1),
        )
    gen = float(-ab.exact / 2 % 1)
    return ClusterSet(kind="full-circle", points=(), generator_angle=gen)


def cluster_set_c2(alpha, beta, omega, n_max: int, tolerance: float = 1e-10) -> list:
    steps = np.arange(1, n_max + 1)
    inners = np.zeros(n_max)
    for a, b, w in zip(alpha, beta, omega.coords):
        inners += a.float() * turns_to_float(step_turns((1,), (b,), steps, w))
    vals = np.exp(-2j * np.pi * inners)
    # tolerance-collapse: cluster along sorted order, represent each cluster
    # by its earliest n
    order = np.argsort(np.angle(vals), kind="stable")
    kept_idx: list[int] = []
    cluster_rep = None
    for idx in order:
        v = vals[idx]
        if cluster_rep is None or abs(v - cluster_rep) > tolerance:
            kept_idx.append(int(idx))
            cluster_rep = v
        elif idx < kept_idx[-1]:
            kept_idx[-1] = int(idx)
    # wraparound: first and last clusters on the angle circle may coincide
    if len(kept_idx) > 1 and abs(vals[kept_idx[0]] - vals[kept_idx[-1]]) <= tolerance:
        kept_idx[0] = min(kept_idx[0], kept_idx[-1])
        kept_idx.pop()
    kept_idx.sort()
    return [complex(vals[i]) for i in kept_idx]


def cluster_sets_match(c1: ClusterSet, c2_points, tolerance: float = 1e-8) -> bool:
    pts2 = [complex(v) for v in c2_points]
    if c1.kind == "full-circle":
        return True
    if not pts2:
        return False
    base = c1.points[0]
    for anchor in pts2:
        rho = anchor / base
        rotated = [rho * v for v in c1.points]
        if all(
            any(abs(r - v) <= tolerance for v in pts2) for r in rotated
        ) and all(
            any(abs(r - v) <= tolerance for r in rotated) for v in pts2
        ):
            return True
    return False
