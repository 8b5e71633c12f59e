import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborzak.errors import DegenerateConfigWarning
from gaborzak.gabor import (
    GaborConfig,
    TFPoint,
    _AtomAsWindow,
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
from gaborzak.zak import _lattice_sums

mk = parse_coordinate


def _config(alpha_tok, beta_tok):
    pts = (
        TFPoint((mk("0"),), (mk("0"),)),
        TFPoint((mk("1"),), (mk("0"),)),
        TFPoint((mk("0"),), (mk("1"),)),
        TFPoint((mk(alpha_tok),), (mk(beta_tok),)),
    )
    return GaborConfig(dimension=1, points=pts, lattice_mask=(True, True, True, False))


CFG_A = _config("sqrt2", "sqrt2")
CFG_B = _config("sqrt2", "sqrt3")

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

    def test_gauss_legendre_scheme_agrees(self):
        quad = QuadratureSpec("gauss-legendre", 192, False)
        gq = gram_matrix(GaussianWindow(), CFG_A, quad)
        gc = gaussian_gram_closed_form(CFG_A)
        assert np.max(np.abs(gq.matrix - gc.matrix)) < 1e-8

    def test_zak_domain_matches(self):
        gz = gram_matrix_zak(GaussianWindow(), CFG_A, resolution=64)
        gc = gaussian_gram_closed_form(CFG_A)
        assert np.max(np.abs(gz.matrix - gc.matrix)) < 1e-8

    @pytest.mark.parametrize("window", [GaussianWindow(), HermiteWindow(3)])
    @pytest.mark.parametrize("M, K", [(16, 6), (8, 8)])
    def test_zak_domain_matmul_matches_pairwise_grid_means(self, window, M, K):
        # reference: the grid mean of Za_j conj(Za_k) for each pair, from
        # direct lattice sums
        flat = product_grid(np.arange(M) / M, 2)
        images = [
            _lattice_sums(_AtomAsWindow(window, pt), flat[:, :1], flat[:, 1:], K)
            for pt in CFG_B.points
        ]
        ref = np.array([[np.mean(a * np.conj(b)) for b in images] for a in images])
        ref = 0.5 * (ref + ref.conj().T)
        G = gram_matrix_zak(window, CFG_B, resolution=M, truncation=K).matrix
        assert np.max(np.abs(G - ref)) < 1e-15

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
