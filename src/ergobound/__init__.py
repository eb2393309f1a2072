"""Non-asymptotic ergodicity bounds for Schur stable AR/ARMA recursions.

The package evaluates explicit upper and lower bounds on Wasserstein and
sliced Wasserstein distances between the time-t law of a stable linear
state-space recursion and its stationary law, and validates them against
exact Gaussian formulas and seeded Monte Carlo estimates.
"""

__version__ = "0.1.0"


def _defer_numpy_submodules() -> None:
    """Bind numpy's not yet imported submodules as lazy modules, before scipy is imported.

    scipy's array-API shim reads every name in ``numpy.__all__``, which executes numpy's
    lazily loaded submodules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``, ...) that
    neither scipy nor this package use.  Each one is put in ``sys.modules`` and bound on
    ``numpy`` through ``importlib.util.LazyLoader``, so it runs on its first attribute
    access, as a plain import would have run it.  A submodule already imported is left
    alone: this does nothing when scipy came first or numpy imports them eagerly.
    """
    import importlib.machinery
    import importlib.util
    import sys

    import numpy

    for name in numpy.__all__:
        full = f"numpy.{name}"
        if name in vars(numpy) or full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        if spec is None or not isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(numpy, name, module)


_defer_numpy_submodules()

from .bounds import (  # noqa: E402  (after the deferral above)
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
