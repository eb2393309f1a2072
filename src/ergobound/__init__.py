"""Non-asymptotic ergodicity bounds for Schur stable AR/ARMA recursions.

The package evaluates explicit upper and lower bounds on Wasserstein and
sliced Wasserstein distances between the time-t law of a stable linear
state-space recursion and its stationary law, and validates them against
exact Gaussian formulas and seeded Monte Carlo estimates.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    chafai_w2_affine,
    diagonalizable_bounds,
    empirical_mean_bounds,
    exact_w2_ar1,
    gaussian_abs_moment,
    gaussian_affine_bounds,
    generic_bounds,
    law_at,
    parallel_bounds,
    projected_bounds,
    report,
    sliced_gauss_bounds,
    sliced_generic_bounds,
    sphere_moment_ratio,
    stationary_law,
    stationary_mean,
    sweep,
)
from .asymptotics import (
    JordanEstimate,
    JordanPairQuery,
    JordanQuery,
    jordan_estimate,
    jordan_pair_estimate,
    jordan_power,
    lyapunov_sandwich,
)
from .linalg import (
    SpectralInfo,
    StarNorm,
    build_star_norm,
    eigen,
    psd_sqrt,
    schur_triangularize,
    smallest_eigenvalue_sym,
    stationary_covariance,
)
from .model import (
    ModelDiagnostics,
    NoiseSpec,
    StateSpaceModel,
    ar_state_space,
    arma_state_space,
    model_digest,
    model_from_json,
    model_to_json,
    raw_model,
    validate_model,
)
from .sim import (
    SampleEnsemble,
    SimConfig,
    empirical_mean_process,
    sample_stationary,
    simulate_paths,
)
from .stability import StabilityVerdict, ar2_region, is_schur_stable, sufficient_tests
from .wasserstein import (
    EmpiricalEstimate,
    GaussianLaw,
    empirical_w1d,
    gaussian_w2,
    gaussian_wr_1d,
    sliced_empirical,
    sliced_empirical_sweep,
)
