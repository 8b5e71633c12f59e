import itertools
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaborzak import numerics
from gaborzak.numerics import (
    Coordinate,
    QuadratureSpec,
    SHORT_SUM,
    SUM_BLOCK,
    TorusPoint,
    _map_blocks,
    coordinate_from_json,
    coordinate_to_json,
    exact_sum,
    fixed_order_matmul,
    inner_product_mod1_dist,
    mod1_dist,
    parse_coordinate,
    product_grid,
    reduce_mod1,
    split_inner_product,
    step_turns,
    turns_to_float,
)
from orbit_oracle import exact_turn, turn_gap


class TestCoordinate:
    def test_parse_integer_and_fraction(self):
        assert parse_coordinate("3").fraction == Fraction(3)
        assert parse_coordinate("-2/5").fraction == Fraction(-2, 5)

    def test_parse_labels(self):
        c = parse_coordinate("sqrt2")
        assert not c.is_rational
        assert abs(c.float() - math.sqrt(2)) < 1e-15
        assert abs(parse_coordinate("pi").float() - math.pi) < 1e-15

    def test_parse_irr_prefix(self):
        c = parse_coordinate("irr:0.7321")
        assert not c.is_rational
        assert c.float() == 0.7321

    def test_bare_float_rejected(self):
        # floats must declare themselves rational or irrational
        with pytest.raises(ValueError):
            parse_coordinate("0.5")
        with pytest.raises(ValueError):
            parse_coordinate("")

    def test_a_doubly_negated_label_is_refused(self):
        # "--sqrt2" read as -sqrt2, and negating it gave +sqrt2 labelled "-sqrt2"
        with pytest.raises(ValueError, match="not understood"):
            parse_coordinate("--sqrt2")
        for value in (-math.sqrt(2), 1.0):
            with pytest.raises(ValueError, match="does not match label '--sqrt2'"):
                coordinate_from_json({"value": value, "label": "--sqrt2"})

    def test_negation_and_equality(self):
        c = parse_coordinate("sqrt2")
        assert (-(-c)) == c
        assert -parse_coordinate("1/2") == parse_coordinate("-1/2")

    def test_fraction_of_irrational_raises(self):
        with pytest.raises(ValueError):
            parse_coordinate("sqrt3").fraction

    def test_json_roundtrip(self):
        for tok in ("7", "1/3", "sqrt5", "irr:0.123456"):
            c = parse_coordinate(tok)
            assert coordinate_from_json(coordinate_to_json(c)) == c

    def test_label_values_are_within_2_to_the_minus_128(self):
        # each label's exact value is within 2^-128 of the true number, far
        # closer than its rounded double
        for k in (2, 3, 5):
            v = parse_coordinate(f"sqrt{k}").exact
            assert v * v <= k < (v + Fraction(1, 2**128)) ** 2
            assert -parse_coordinate(f"-sqrt{k}").exact == v
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for token, true in (("pi", mpmath.pi), ("e", mpmath.e), ("-e", -mpmath.e)):
                v = parse_coordinate(token).exact
                assert abs(mpmath.mpf(v.numerator) / v.denominator - true) < mpmath.mpf(2) ** -128
                assert parse_coordinate(token).float() == float(v)


class TestTorusReduction:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=4))
    def test_reduce_idempotent(self, v):
        once = reduce_mod1(v)
        twice = reduce_mod1(once.array())
        assert once.coords == twice.coords

    @given(
        st.lists(st.floats(-8, 8), min_size=1, max_size=3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_integer_shift_invariance(self, v, k):
        v = np.array(v)
        k = np.array(k[: len(v)], dtype=float)
        a = reduce_mod1(v).array()
        b = reduce_mod1(v + k).array()
        d = np.abs(a - b)
        d = np.minimum(d, 1.0 - d)
        assert np.all(d < 1e-12)

    def test_torus_point_validation(self):
        with pytest.raises(ValueError):
            TorusPoint((0.5, 1.0))
        with pytest.raises(ValueError):
            reduce_mod1([float("nan")])

    def test_mod1_dist(self):
        assert mod1_dist(0.9 - 0.1) == pytest.approx(0.2)
        assert mod1_dist(0.0) == 0.0


class TestInnerProduct:
    def test_rational_products_stay_exact(self):
        a = (parse_coordinate("1/3"), parse_coordinate("2"))
        b = (parse_coordinate("3/4"), parse_coordinate("-1/5"))
        assert split_inner_product(a, b) == (Fraction(1, 4) - Fraction(2, 5), 0.0, True)

    def test_rational_times_irrational_goes_to_the_irrational_turn(self):
        a = (parse_coordinate("1/2"), parse_coordinate("sqrt2"))
        b = (parse_coordinate("sqrt3"), parse_coordinate("1/3"))
        rat, irr, exact = split_inner_product(a, b)
        assert rat == 0 and not exact
        # the exact product of the label values, mod 1, to the nearest 2^-64
        value = Fraction(1, 2) * b[0].exact + a[1].exact / 3
        assert irr == round(value % 1 * 2**64)

    def test_integer_factors_and_zero_skipping(self):
        beta = (parse_coordinate("sqrt2"), parse_coordinate("1/3"))
        assert split_inner_product((0, 2), beta) == (Fraction(2, 3), 0.0, True)
        rat, irr, exact = split_inner_product((3, 0), beta)
        assert (rat, exact) == (0, False)
        assert irr == round(3 * beta[0].exact % 1 * 2**64)

    def test_mod1_distance(self):
        beta = (parse_coordinate("1/2"), parse_coordinate("1/3"))
        assert inner_product_mod1_dist((1, 2), beta) == pytest.approx(1 / 6, abs=1e-15)
        assert inner_product_mod1_dist((2, 3), beta) == 0.0
        sqrt2 = (parse_coordinate("sqrt2"),)
        assert inner_product_mod1_dist((1,), sqrt2) == pytest.approx(math.sqrt(2) - 1)
        # cancelling irrational products leave an exact integer
        assert inner_product_mod1_dist((1, 1), sqrt2 + (-sqrt2[0],)) == 0.0


@pytest.mark.parametrize("frac", [
    Fraction(2, 7),
    Fraction(-3, 5),
    Fraction(99999999999999, 10**14),
    Fraction(3**40 + 2, 3**40 - 2),  # den > 2**62
])
@pytest.mark.parametrize("count", [1, 1023, 1024, 5000, 200_001])
def test_step_turns_take_the_exact_residue(frac, count):
    # j * 10**14 passes 2**63 at j = 92,234: Python-int residues from there
    num, den = frac.numerator, frac.denominator
    want = [((j * num % den) << 64) // den for j in range(count)]
    c = Coordinate.from_fraction(frac)
    assert step_turns((1,), (c,), np.arange(count)).tolist() == want
    # a turn does not depend on the other steps of the call
    lo = count // 2
    assert step_turns((1,), (c,), np.arange(lo, count)).tolist() == want[lo:]


_STEP_COORDS = st.one_of(
    st.builds(lambda n, d: Coordinate.rational(n, d),
              st.integers(-10**6, 10**6), st.integers(1, 10**15)),
    st.sampled_from(["sqrt2", "-sqrt3", "sqrt5", "pi", "-e"]).map(parse_coordinate),
)


def _turn_bound(j: int, a, b) -> float:
    """The rounding of the labels, of <a, b> and of j <a, b>: a few units of
    2^-64 per unit of |j <a, b>| where an irrational enters."""
    irrational = sum(abs(x * c.float()) for x, c in zip(a, b) if x and not c.is_rational)
    return (2 * abs(j) * irrational + 1) * 2.0**-61


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=3).flatmap(
           lambda a: st.tuples(st.just(a), st.lists(_STEP_COORDS, min_size=len(a),
                                                    max_size=len(a)))),
       st.floats(0.0, 1.0, exclude_max=True),
       st.lists(st.integers(-10**13, 10**13), min_size=1, max_size=8))
@example(((1,), [parse_coordinate("1/3")]), 0.0, [10**12 + 1])
@example(((1,), [parse_coordinate("sqrt2")]), 0.25, [10**12 + 1])
@example(((2, -1), [parse_coordinate("2/7"), parse_coordinate("-sqrt3")]), 0.5,
         [0, 1, 10**12 + 1, -(10**12 + 1)])
def test_step_turns_match_the_exact_oracle(ab, start, steps):
    a, b = ab
    turns = step_turns(a, b, np.array(steps), start)
    read = turns_to_float(turns)
    assert np.all((0 <= read) & (read < 1))
    for j, got in zip(steps, turns):
        assert turn_gap(got, exact_turn(start, a, b, j)) <= _turn_bound(j, a, b), j


def test_mod1_distance_reads_the_step_kernel():
    # one rule for <a, b> mod 1: an inexact distance folds the j = 1 turn of
    # step_turns, whose irrational part is reduced mod 1 before the rational
    # part joins it
    tokens = ["sqrt2", "-sqrt3", "sqrt5", "pi", "-e", "1/3", "-2/7", "5/4", "3"]
    inexact = 0
    for pair in itertools.product(tokens, repeat=2):
        b = tuple(map(parse_coordinate, pair))
        for a in [(1, 0), (0, -1), (2, -3), (-1, 4), (3, 5)]:
            if split_inner_product(a, b)[2]:
                continue
            t = int(step_turns(a, b, [1])[0])
            assert inner_product_mod1_dist(a, b) == min(t, 2**64 - t) / 2**64, (a, pair)
            inexact += 1
    assert inexact == 285
    b = (parse_coordinate("1/3"), parse_coordinate("-sqrt5"))
    assert inner_product_mod1_dist((2, -3), b) == 0.37487059916603577


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_product_grid_matches_itertools_order(k):
    # k = 0 is the single empty row: the one node of a zero-dimensional rule
    axis = np.array([0.0, 0.25, 0.7])
    grid = product_grid(axis, k)
    assert grid.shape == (3**k, k)
    assert [tuple(row) for row in grid] == list(itertools.product(axis, repeat=k))


@pytest.mark.parametrize("t, m", [(1, 2), (2, 3), (3, 4)])
def test_fixed_order_matmul_rows_do_not_depend_on_the_batch(t, m):
    # BLAS rounds (n, 3) @ (3, 4) differently for one row than for 1,000
    rng = np.random.default_rng(t)
    b = rng.integers(-3, 4, size=(t, m)).astype(float)
    a = rng.random((1000, t)) / 7
    full = fixed_order_matmul(a, b)
    np.testing.assert_allclose(full, a @ b, rtol=0, atol=1e-15)
    singles = np.concatenate([fixed_order_matmul(a[i : i + 1], b) for i in range(len(a))])
    assert np.array_equal(singles, full)


def _outcome(total, x):
    """What a sum of x gives: the exception type, nan, or the float and the
    sign of its zero."""
    try:
        v = total(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(v) else (v, math.copysign(1.0, v))


_INF = float("inf")
_SUMMANDS = st.one_of(
    st.floats(-1e300, 1e300),  # mixed exponents, +-0.0 and edge values
    st.integers(-(2**52 - 1), 2**52 - 1).map(lambda k: k * 5e-324),  # subnormals
    st.sampled_from([0.0, -0.0]),
)
# around the fsum cutoff and the block boundary; at most 2**16 + 1 values of
# size <= 1e300 keep every partial sum finite
_LENGTHS = [0, 1, SHORT_SUM - 1, SHORT_SUM, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1]


@st.composite
def _arrays(draw, summands):
    values = draw(st.lists(summands, max_size=40))
    if values:  # cancelling pairs
        values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=20))]
    values = draw(st.permutations(values))
    length = draw(st.sampled_from([len(values)] + _LENGTHS))
    return np.resize(np.array(values or [0.0]), length)


class TestExactSum:
    @given(_arrays(st.one_of(_SUMMANDS, st.sampled_from([_INF, -_INF, math.nan]))))
    @settings(max_examples=500, deadline=None)
    def test_equals_fsum_bit_for_bit(self, x):
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x)

    @pytest.mark.parametrize("values, want", [
        ([_INF, 1.0], (_INF, 1.0)),
        ([-_INF, -_INF, 2.0], (-_INF, -1.0)),
        ([1.0, math.nan, _INF], "nan"),
        ([_INF, 3.0, -_INF], ValueError),  # inf - inf
        ([1.7976931348623157e308, 1e292], OverflowError),
        ([-1e308, -1e308], OverflowError),
    ])
    def test_special_values(self, values, want):
        x = np.array(values)
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x) == want

    @pytest.mark.parametrize("length, want", [
        (SHORT_SUM - 1, OverflowError),  # fsum itself
        (SHORT_SUM + 1, (1e308, 1.0)),  # the bins: the exact total
    ])
    def test_intermediate_overflow(self, length, want):
        x = np.zeros(length)
        x[:3] = [1e308, 1e308, -1e308]
        assert _outcome(math.fsum, x) == OverflowError
        assert _outcome(exact_sum, x) == want

    @pytest.mark.parametrize("length", _LENGTHS)
    def test_full_significands_fill_a_block_exactly(self, length):
        # m = 2**53 - 1 in one exponent bin gives the largest per-block
        # partials; the largest subnormal fills the lowest bin
        x = np.full(length, -np.nextafter(2.0, 0.0))
        x[1::3] = 2.0**-1022 - 5e-324
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


def test_no_platform_dependent_float_type_in_the_sources():
    # every mod-1 quantity is a uint64 turn: a long double is 80-bit x87 on
    # x86-64 Linux, binary128 on aarch64 and float64 on macOS arm64 and Windows
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    hits = []
    for root, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info")]
        for name in files:
            with open(os.path.join(root, name), "rb") as fh:
                if b"longdouble" in fh.read():
                    hits.append(name)
    assert hits == []


class TestMapBlocks:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_come_back_in_order(self, cpus, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        assert _map_blocks(lambda lo, hi: (lo, hi), 10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert _map_blocks(lambda lo, hi: (lo, hi), 10, 10) == [(0, 10)]
        assert _map_blocks(lambda lo, hi: (lo, hi), 0, 3) == []

    @given(st.data(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_exact_sum_over_any_partition_into_blocks_is_fsum(self, data, cpus):
        # the int64 bins of the blocks add exactly in any order
        values = data.draw(st.lists(_SUMMANDS, min_size=1, max_size=40))
        x = np.resize(np.array(values), data.draw(st.integers(SHORT_SUM, 3 * SHORT_SUM)))
        block = data.draw(st.integers(max(1, x.size // 64), x.size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_usable_cpus", lambda: cpus)
            mp.setattr(numerics, "SUM_BLOCK", block)
            assert _outcome(exact_sum, x) == _outcome(math.fsum, x)

    def test_more_workers_than_cores_with_frequent_switches_keep_every_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(numerics, "SUM_BLOCK", 1000)
        x = np.random.default_rng(11).standard_normal(200_000) * 1e6
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = exact_sum(x)  # 200 blocks on 8 threads
        finally:
            sys.setswitchinterval(switch)
        assert got == math.fsum(x)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        # the child has none of the parent's pool threads: a call handed to
        # the inherited pool waited for ever
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
        x = np.random.default_rng(2).standard_normal(5 * SUM_BLOCK)
        want = exact_sum(x)  # starts the parent's pool
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(exact_sum, (x,)).get(timeout=30) == want

    def test_a_one_block_call_starts_no_thread(self):
        # the phase layer's arrays and a Zak grid at M = 64 are one block each,
        # and many blocks on one CPU run inline too; many blocks on two CPUs
        # then start the pool
        code = """
import sys, threading
import numpy as np
from gaborzak import numerics
from gaborzak.cocycle import SyntheticPhaseField, normalized_phase_sequence, phase_mean_along_orbit
from gaborzak.numerics import parse_coordinate as mk, reduce_mod1
from gaborzak.trigpoly import TrigPolynomial
from gaborzak.windows import GaussianWindow
from gaborzak.zak import zak_transform
numerics._usable_cpus = lambda: 2
p = TrigPolynomial(2, [((0, 0), 3.0), ((1, 1), 0.7), ((2, -1), -0.4j)])
base, a, b = reduce_mod1([0.3, 0.7]), (mk("sqrt2"),), (mk("sqrt3"),)
phase_mean_along_orbit(p, base, a, b, 4000)
SyntheticPhaseField(p, base, a, b).phase_at_step(400)
normalized_phase_sequence(zak_transform(GaussianWindow(), 64), base, (mk("1"),), (mk("sqrt2"),), range(1, 21))
print("concurrent.futures" in sys.modules, threading.active_count())
numerics._usable_cpus = lambda: 1
p.eval_points(np.zeros((10**5, 2)))
print("concurrent.futures" in sys.modules, threading.active_count())
numerics._usable_cpus = lambda: 2
p.eval_points(np.zeros((10**5, 2)))
print("concurrent.futures" in sys.modules, threading.active_count() > 1)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1", "False", "1", "True", "True"]


class TestIntegrate1D:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec("simpson", 8, False)
        with pytest.raises(ValueError, match="points-per-axis"):
            QuadratureSpec("composite-midpoint", 1, False)
        # the composite midpoint is the only scheme
        with pytest.raises(ValueError, match="unknown quadrature scheme 'gauss-legendre'"):
            QuadratureSpec("gauss-legendre", 64, False)

    @pytest.mark.parametrize("count", [64.5, 64.0, True, "64"])
    def test_non_integer_point_count_is_refused(self, count):
        # 64.5 gave Haar Theta 65 nodes spaced 1/64.5 apart
        with pytest.raises(ValueError, match="^points-per-axis must be an integer$"):
            QuadratureSpec("composite-midpoint", count)



class TestCheckInteger:
    @pytest.mark.parametrize("x", [0, 7, -3, np.int64(5), np.int32(-1), np.uint8(3)])
    def test_integers_pass(self, x):
        numerics._check_integer(x)

    @pytest.mark.parametrize("x", [True, False, np.True_, 7.0, 6.9, np.float64(2.0), "7", None])
    def test_bools_and_non_integers_are_refused(self, x):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            numerics._check_integer(x)
        with pytest.raises(ValueError, match="^truncation must be an integer$"):
            numerics._check_integer(x, "truncation must be an integer")
