import json
import math
import warnings
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborzak import gabor
from gaborzak.errors import DegenerateConfigWarning
from gaborzak.gabor import (
    GaborConfig,
    TFPoint,
    _atom_eval_many,
    config_from_json,
    config_to_json,
    dependence_residual,
    fourier_dual_config,
    gaussian_gram_closed_form,
    gram_matrix,
    gram_matrix_zak,
)
from gaborzak.numerics import QuadratureSpec, parse_coordinate, product_grid
from gaborzak.windows import GaussianWindow, HermiteWindow
from zak_oracle import pairwise_lattice_sums

mk = parse_coordinate


def _config(alpha_tok, beta_tok):
    pts = (
        TFPoint((mk("0"),), (mk("0"),)),
        TFPoint((mk("1"),), (mk("0"),)),
        TFPoint((mk("0"),), (mk("1"),)),
        TFPoint((mk(alpha_tok),), (mk(beta_tok),)),
    )
    return GaborConfig(dimension=1, points=pts, lattice_mask=(True, True, True, False))


def _rational_config(pairs):
    pts = tuple(TFPoint((mk(str(Fraction(x))),), (mk(str(Fraction(y))),)) for x, y in pairs)
    return GaborConfig(1, pts, tuple(pt.is_integer() for pt in pts))


CFG_A = _config("sqrt2", "sqrt2")
CFG_B = _config("sqrt2", "sqrt3")
CFG_PAIR = GaborConfig(1, (TFPoint((mk("0"),), (mk("0"),)), TFPoint((mk("1"),), (mk("0"),))),
                       (True, True))
CFG_D2 = GaborConfig(
    dimension=2,
    points=(
        TFPoint((mk("0"), mk("0")), (mk("0"), mk("0"))),
        TFPoint((mk("1"), mk("0")), (mk("0"), mk("1"))),
        TFPoint((mk("sqrt2"), mk("-1/3")), (mk("1/2"), mk("sqrt3"))),
    ),
    lattice_mask=(True, True, False),
)

# frozen against a 50-digit quadrature oracle
ORACLE = {
    "lambda_min_A": 0.68326787219155588102,
    "lambda_min_B": 0.68347326815982983004,
    "residual_A": 0.99893077014872702273,
    "residual_B": 0.99980323688326216786,
    "coeffs_A": [
        0.00625067300157 + 0j,
        -0.0105427150344 + 0.0304956860518j,
        -0.0105427150344 - 0.0304956860518j,
    ],
}


def test_atom_eval_formula():
    g = GaussianWindow()
    pt = TFPoint((mk("1/2"),), (mk("sqrt3"),))
    t = 0.3
    manual = np.exp(-2j * np.pi * math.sqrt(3) * t) * (
        2**0.25 * math.exp(-math.pi * (t - 0.5) ** 2)
    )
    assert abs(_atom_eval_many(g, pt, np.array([[t]]))[0] - manual) < 1e-14


def _assert_rule_is_the_zak_grid_mean(window, cfg, M, K):
    # reference: the grid mean of Za_j conj(Za_k) over [0,1)^{2d} for each
    # pair, from direct lattice sums of each atom
    d = cfg.dimension
    flat = product_grid(np.arange(M) / M, 2 * d)
    images = [
        pairwise_lattice_sums(SimpleNamespace(eval_many=partial(_atom_eval_many, window, pt)),
                              flat[:, :d], flat[:, d:], K)
        for pt in cfg.points
    ]
    ref = np.array([[np.mean(a * np.conj(b)) for b in images] for a in images])
    ref = 0.5 * (ref + ref.conj().T)
    G = gram_matrix_zak(window, cfg, resolution=M, truncation=K).matrix
    assert np.max(np.abs(G - ref)) < 1e-15


class TestGramOracles:
    def test_closed_form_lambda_min(self):
        a = gaussian_gram_closed_form(CFG_A)
        b = gaussian_gram_closed_form(CFG_B)
        assert abs(a.smallest_eigenvalue - ORACLE["lambda_min_A"]) < 1e-12
        assert abs(b.smallest_eigenvalue - ORACLE["lambda_min_B"]) < 1e-12
        assert a.smallest_eigenvalue > 1e-6  # independence certificate

    def test_quadrature_matches_closed_form(self):
        quad = QuadratureSpec("composite-midpoint", 512, False)
        for cfg in (CFG_A, CFG_B):
            gq = gram_matrix(GaussianWindow(), cfg, quad)
            gc = gaussian_gram_closed_form(cfg)
            assert np.max(np.abs(gq.matrix - gc.matrix)) < 1e-8

    @pytest.mark.parametrize("M", [0, 2, 3])
    def test_zak_domain_refuses_a_resolution_below_4(self, M):
        # 0 divided by M^{2d}; 2 gave a Gram matrix with diagonal 1.0075
        with pytest.raises(ValueError, match="resolution must be >= 4"):
            gram_matrix_zak(GaussianWindow(), CFG_A, resolution=M)

    @pytest.mark.parametrize("M", [64.5, 64.0, np.float64(16.0), True, "64"])
    def test_zak_domain_refuses_a_resolution_that_is_not_an_integer(self, M):
        # 64.5 returned a Gram matrix
        with pytest.raises(ValueError, match="^resolution must be an integer$"):
            gram_matrix_zak(GaussianWindow(), CFG_A, resolution=M)

    @pytest.mark.parametrize("K", [-1, 0, 2.5, 2.0, np.float64(3.0), True, "7"])
    def test_zak_domain_refuses_a_truncation_that_is_not_a_positive_integer(self, K):
        # K = -1 gave the zero Gram (lambda_min 0.0, "dependent"), K = 0 a
        # diagonal of 0.544 and 0.456 for unit-norm atoms, 2.5 was read as 2
        # and True as 1
        with pytest.raises(ValueError, match="truncation must be an integer >= 1"):
            gram_matrix_zak(GaussianWindow(), CFG_PAIR, resolution=16, truncation=K)

    @pytest.mark.parametrize("K", [3, np.int64(8)])
    def test_zak_domain_takes_an_integer_truncation(self, K):
        g = gram_matrix_zak(GaussianWindow(), CFG_PAIR, resolution=16, truncation=K)
        assert np.max(np.abs(np.diag(g.matrix) - 1.0)) < 1e-12

    def test_zak_domain_matches(self):
        gz = gram_matrix_zak(GaussianWindow(), CFG_A, resolution=64)
        gc = gaussian_gram_closed_form(CFG_A)
        assert np.max(np.abs(gz.matrix - gc.matrix)) < 1e-8

    @pytest.mark.parametrize("window", [GaussianWindow(), HermiteWindow(3)])
    @pytest.mark.parametrize("M, K", [(16, 6), (8, 8)])
    def test_zak_domain_matmul_matches_pairwise_grid_means(self, window, M, K):
        _assert_rule_is_the_zak_grid_mean(window, CFG_B, M, K)

    @pytest.mark.parametrize("M, K", [(8, 8), (16, 5)])
    def test_zak_domain_matmul_matches_pairwise_grid_means_d2(self, M, K):
        _assert_rule_is_the_zak_grid_mean(GaussianWindow(2), CFG_D2, M, K)

    @pytest.mark.parametrize("gram", [
        lambda w, cfg: gaussian_gram_closed_form(cfg, w),
        lambda w, cfg: gram_matrix(w, cfg, QuadratureSpec("composite-midpoint", 64)),
        lambda w, cfg: gram_matrix_zak(w, cfg, resolution=16),
    ], ids=["closed-form", "time-domain", "zak-domain"])
    @pytest.mark.parametrize("window, cfg", [(GaussianWindow(2), CFG_A), (GaussianWindow(), CFG_D2)],
                             ids=["d2-window", "d1-window"])
    def test_a_window_of_another_dimension_is_refused(self, gram, window, cfg):
        # the closed form returned the d = 1 Gram for a 2-D Gaussian; the Zak
        # path failed in a raw matmul
        with pytest.raises(ValueError, match="window dimension"):
            gram(window, cfg)

    @pytest.mark.parametrize("gram, count", [
        (lambda cfg: gram_matrix(GaussianWindow(2), cfg, QuadratureSpec("composite-midpoint", 64)), 64),
        (lambda cfg: gram_matrix_zak(GaussianWindow(2), cfg, resolution=8, truncation=3), 56),
    ], ids=["time-domain", "zak-domain"])
    @pytest.mark.parametrize("excess", [0, 1])
    def test_grid_budget_counts_nodes_times_atoms(self, gram, count, excess, monkeypatch):
        # count^2 nodes x 3 atoms; past the budget nothing is allocated
        monkeypatch.setattr(gabor, "GRID_BUDGET_DEFAULT", 3 * count**2 - excess)
        if excess:
            def never(*args):
                raise AssertionError("the grid was built")

            monkeypatch.setattr(gabor, "product_grid", never)
            with pytest.raises(ValueError, match=f"{count}\\^2 nodes x 3 atoms exceeds the budget "
                               f"of {3 * count**2 - 1}; lower --points or --resolution"):
                gram(CFG_D2)
        else:
            assert gram(CFG_D2).smallest_eigenvalue > 0.5

    def test_eigenpair_certificate(self):
        res = gaussian_gram_closed_form(CFG_A)
        assert res.residual_vector_norm < 1e-12


class TestGramProperties:
    def test_hermitian(self):
        G = gaussian_gram_closed_form(CFG_B).matrix
        assert np.max(np.abs(G - G.conj().T)) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_psd_on_integer_configs(self, lattice_pts):
        pts = tuple(
            TFPoint((mk(str(x)),), (mk(str(y)),)) for x, y in lattice_pts
        )
        cfg = GaborConfig(
            dimension=1, points=pts, lattice_mask=(True,) * len(pts)
        )
        res = gaussian_gram_closed_form(cfg)
        assert res.eigenvalues.min() >= -1e-10

    def test_quadratic_form_unitarity(self):
        # c* G c computed in time and zak domains agrees (Zak is unitary)
        gt = gram_matrix(
            GaussianWindow(), CFG_A, QuadratureSpec("composite-midpoint", 512, False)
        ).matrix
        gz = gram_matrix_zak(GaussianWindow(), CFG_A, resolution=64).matrix
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            qt = float(np.real(c.conj() @ gt @ c))
            qz = float(np.real(c.conj() @ gz @ c))
            assert abs(qt - qz) <= 1e-5 * max(abs(qt), 1.0)

    def test_permutation_invariance(self):
        perm = [2, 0, 3, 1]
        cfg_p = GaborConfig(
            dimension=1,
            points=tuple(CFG_A.points[i] for i in perm),
            lattice_mask=tuple(CFG_A.lattice_mask[i] for i in perm),
        )
        a = gaussian_gram_closed_form(CFG_A)
        b = gaussian_gram_closed_form(cfg_p)
        assert abs(a.smallest_eigenvalue - b.smallest_eigenvalue) < 1e-12
        P = np.eye(4)[perm]
        assert np.max(np.abs(P @ a.matrix @ P.T - b.matrix)) < 1e-15

    @pytest.mark.parametrize("window", [GaussianWindow(), HermiteWindow(3)],
                             ids=["gaussian", "hermite3"])
    def test_spectrum_is_covariant(self, window):
        # permuting Lambda, or translating all of it by one integer vector,
        # conjugates the Gram matrix by a unitary: the spectrum stays
        lam = [(0, 0), (1, 0), (0, 1), (Fraction(1, 3), Fraction(2, 5)),
               (Fraction(-1, 2), Fraction(3, 7))]
        moved = [[lam[i] for i in (3, 0, 4, 2, 1)]]
        moved += [[(x + a, y + b) for x, y in lam] for a, b in ((2, -1), (-3, 4))]
        methods = [partial(gram_matrix, window, quad=QuadratureSpec("composite-midpoint", 512)),
                   partial(gram_matrix_zak, window)]
        if isinstance(window, GaussianWindow):
            methods.append(gaussian_gram_closed_form)
        for method in methods:
            want = method(_rational_config(lam)).eigenvalues
            for pts in moved:
                got = method(_rational_config(pts)).eigenvalues
                assert np.max(np.abs(got - want)) <= 1e-13, (method, pts)


class TestDependenceResidual:
    def test_oracle_values(self):
        coeffs, resid = dependence_residual(GaussianWindow(), CFG_A)
        assert abs(resid - ORACLE["residual_A"]) < 1e-10
        assert coeffs.target_index == 3
        for got, want in zip(coeffs.c, ORACLE["coeffs_A"]):
            assert abs(got - want) < 1e-9
        _, resid_b = dependence_residual(GaussianWindow(), CFG_B)
        assert abs(resid_b - ORACLE["residual_B"]) < 1e-10

    def test_time_vs_zak_domain(self):
        _, rt = dependence_residual(GaussianWindow(), CFG_A, method="time-domain")
        _, rz = dependence_residual(GaussianWindow(), CFG_A, method="zak-domain")
        assert abs(rt - rz) / rt < 1e-5

    def test_schur_complement_identity(self):
        G = gaussian_gram_closed_form(CFG_A).matrix
        _, resid = dependence_residual(GaussianWindow(), CFG_A)
        b = G[:3, 3]
        schur = float(np.real(G[3, 3] - b.conj() @ np.linalg.solve(G[:3, :3], b)))
        assert abs(resid**2 - schur) < 1e-8

    def test_explicit_target(self):
        coeffs, _ = dependence_residual(GaussianWindow(), CFG_A, target_index=0)
        assert coeffs.target_index == 0

    @pytest.mark.parametrize("target", [-1, -4, 4, 9])
    def test_target_outside_the_config_is_refused(self, target):
        # -1 solved against the target itself (residual 0.0, "dependent");
        # 4 and past it indexed past the Gram matrix (IndexError)
        with pytest.raises(ValueError, match="target index"):
            dependence_residual(GaussianWindow(), CFG_A, target_index=target)

    @pytest.mark.parametrize("target", [True, 1.0, np.float64(2.0), "1"])
    def test_target_that_is_not_an_integer_is_refused(self, target):
        # True failed inside matmul, 1.0 raised an IndexError
        with pytest.raises(ValueError, match="^target index .* is not an integer$"):
            dependence_residual(GaussianWindow(), CFG_A, target_index=target)

    def test_too_small_config(self):
        cfg = GaborConfig(
            dimension=1,
            points=(TFPoint((mk("0"),), (mk("0"),)),),
            lattice_mask=(True,),
        )
        with pytest.raises(ValueError):
            dependence_residual(GaussianWindow(), cfg)


class TestFourierDual:
    def test_fourth_power_is_identity(self):
        cfg = CFG_B
        for _ in range(4):
            cfg = fourier_dual_config(cfg)
        assert cfg == CFG_B

    def test_lambda_min_preserved(self):
        a = gaussian_gram_closed_form(CFG_A).smallest_eigenvalue
        d = gaussian_gram_closed_form(fourier_dual_config(CFG_A)).smallest_eigenvalue
        assert abs(a - d) < 1e-6

    def test_swaps_offsets(self):
        dual = fourier_dual_config(CFG_A)
        off = dual.points[3]
        assert off.x[0] == -mk("sqrt2")
        assert off.y[0] == mk("sqrt2")
        assert dual.lattice_mask == CFG_A.lattice_mask


class TestConfigValidation:
    def test_lattice_points_must_be_integer(self):
        with pytest.raises(ValueError):
            GaborConfig(
                dimension=1,
                points=(TFPoint((mk("1/2"),), (mk("0"),)),),
                lattice_mask=(True,),
            )

    def test_duplicate_points_warn(self):
        pts = (
            TFPoint((mk("0"),), (mk("0"),)),
            TFPoint((mk("0"),), (mk("0"),)),
        )
        with pytest.warns(DegenerateConfigWarning):
            GaborConfig(dimension=1, points=pts, lattice_mask=(True, True))

    def test_duplicate_config_gram_is_singular(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pts = (
                TFPoint((mk("0"),), (mk("0"),)),
                TFPoint((mk("0"),), (mk("0"),)),
            )
            cfg = GaborConfig(dimension=1, points=pts, lattice_mask=(True, True))
        res = gaussian_gram_closed_form(cfg)
        assert abs(res.smallest_eigenvalue) < 1e-12

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            GaborConfig(
                dimension=1,
                points=(TFPoint((mk("0"),), (mk("0"),)),),
                lattice_mask=(True, False),
            )


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(config_to_json(CFG_B), fh)
    cfg = config_from_json(str(path))
    assert cfg == CFG_B
    assert cfg.points[3].x[0] == mk("sqrt2")


def test_config_from_dict_infers_mask():
    cfg = config_from_json(
        {
            "dimension": 1,
            "points": [
                {"x": ["0"], "y": ["0"]},
                {"x": [{"value": 1.4142135623730951, "label": "sqrt2"}], "y": ["1"]},
            ],
        }
    )
    assert cfg.lattice_mask == (True, False)
