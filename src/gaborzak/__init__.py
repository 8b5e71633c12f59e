"""Linear-independence machinery for finite Gabor systems on the Zak side.

Layers: exact/float coordinate numerics; Schwartz-class windows; Gabor
configurations with Gram certificates; a truncated Zak transform; torus
trigonometric polynomials; the orbit-closure trichotomy; modulus and phase
cocycles along torus translations; and a CLI front end.
"""

from .errors import (
    AmbiguousClassification,
    DegenerateConfigWarning,
    InsufficientSupport,
    NumericalFailure,
    PhaseUndefined,
    TruncationError,
)
from .numerics import (
    Coordinate,
    QuadratureSpec,
    TorusPoint,
    coordinate_from_json,
    coordinate_to_json,
    frac_int_split,
    mod1_dist,
    parse_coordinate,
    reduce_mod1,
    stable_sum,
)
from .windows import (
    DecayBound,
    GaussianWindow,
    HermiteWindow,
    SampledGridWindow,
    Window,
    decay_bound,
    l2_norm,
    sampled_window_from_csv,
)
from .gabor import (
    DependenceCoefficients,
    GaborConfig,
    GramResult,
    TFPoint,
    config_from_json,
    config_to_json,
    dependence_residual,
    fourier_dual_config,
    gaussian_gram_closed_form,
    gram_matrix,
    gram_matrix_zak,
)
from .zak import (
    ZakGrid,
    ZeroSet,
    functional_equation_residual,
    locate_zero_set,
    quasi_periodicity_residual,
    zak_point,
    zak_transform,
)
from .trigpoly import (
    MinModulusResult,
    TrigPolynomial,
    from_lattice_config,
    haar_average,
    load_polynomial,
    log_modulus,
    min_modulus,
    save_polynomial,
)
from .orbit import (
    Gamma,
    OrbitClass,
    SubgroupH,
    classify,
    coset_min_modulus,
    haar_sample_points,
    orbit_iterate,
    orbit_points,
    subgroup_closure,
)
from .cocycle import (
    ClusterSet,
    CocycleTrajectory,
    PhaseBranch,
    SyntheticPhaseField,
    ThetaEstimate,
    balanced_fraction,
    case3_verdict,
    cluster_set_c1,
    cluster_set_c2,
    cluster_sets_match,
    normalized_phase_sequence,
    phase_branch,
    phase_cocycle_iterate,
    phase_mean_along_orbit,
    propagate,
    rigidity_scan,
    theta_birkhoff,
    theta_haar,
)

__version__ = "0.1.0"
