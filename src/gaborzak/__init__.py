"""Linear-independence machinery for finite Gabor systems on the Zak side.

Layers: exact/float coordinate numerics; Schwartz-class windows; Gabor
configurations with Gram certificates; a truncated Zak transform; torus
trigonometric polynomials; the orbit-closure trichotomy; modulus and phase
cocycles along torus translations; and a CLI front end.

The names below load lazily (PEP 562): ``from gaborzak import classify``
imports the orbit layer and what it depends on, and no other layer.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "errors": """AmbiguousClassification DegenerateConfigWarning InsufficientSupport
            NumericalFailure PhaseUndefined TruncationError""",
        "numerics": """Coordinate QuadratureSpec TorusPoint coordinate_from_json
            coordinate_to_json mod1_dist parse_coordinate reduce_mod1""",
        "windows": """DecayBound GaussianWindow HermiteWindow SampledGridWindow Window
            decay_bound sampled_window_from_csv""",
        "gabor": """DependenceCoefficients GaborConfig GramResult TFPoint config_from_json
            config_to_json dependence_residual fourier_dual_config
            gaussian_gram_closed_form gram_matrix gram_matrix_zak""",
        "zak": """ZakGrid ZeroSet functional_equation_residual locate_zero_set
            quasi_periodicity_residual zak_point zak_transform""",
        "trigpoly": """MinModulusResult TrigPolynomial from_lattice_config haar_average
            load_polynomial min_modulus""",
        "orbit": """Gamma OrbitClass SubgroupH classify haar_sample_points orbit_points
            subgroup_closure""",
        "cocycle": """ClusterSet PhaseBranch SyntheticPhaseField
            ThetaEstimate balanced_fraction case3_verdict cluster_set_c1 cluster_set_c2
            cluster_sets_match normalized_phase_sequence phase_branch
            phase_cocycle_iterate phase_mean_along_orbit rigidity_scan
            theta_birkhoff theta_haar""",
    }.items()
    for name in names.split()
}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
