"""Refusals of malformed input, one table row each, that no other test reaches.

Each row names the refusal, the model its call may touch, the call, and the exception
type and message it must raise.  Every refusal comes before any work: no model constant
is solved or kept and no random stream is opened.
"""

import re
from functools import cached_property

import numpy as np
import pytest

from ergobound import bounds as bnd
from ergobound.asymptotics import JordanQuery
from ergobound.errors import DimensionMismatch, EmptyCoefficients, NotSymmetric, UnequalSampleSizes
from ergobound.linalg import build_star_norm, schur_triangularize, solve_stein
from ergobound.model import NoiseSpec, StateSpaceModel, ar_state_space, arma_state_space
from ergobound.sim import SimConfig, simulate_paths
from ergobound.wasserstein import GaussianLaw, gaussian_wr_1d, sliced_empirical

X = [2.0, 0.0]
EYE2, EYE3, Z2 = np.eye(2), np.eye(3), np.zeros((4, 2))
VECTOR_NOISE = NoiseSpec.gaussian_d([0.0, 0.0], EYE2)
LAW = GaussianLaw([0.0, 0.0], EYE2)
STAR, FORM = build_star_norm(np.diag([0.5, 0.2])), schur_triangularize(np.diag([0.4, 0.3]))


def ar2():
    return ar_state_space([1.2, -0.5], None, NoiseSpec.gaussian(0.0, 1.0))


def shifted_ar1():
    return ar_state_space([0.5], noise1d=NoiseSpec.gaussian(1.0, 1.0))


# (refusal, model, call(model), exception, message)
ROWS = [
    ("exact_ar1-sigma", ar2, lambda m: bnd.exact_w2_ar1(0.5, 0.0, 1.0, 3),
     ValueError, "sigma must be nonzero"),
    ("exact_ar1-centered", shifted_ar1, lambda m: bnd.report(m, "exact_ar1", [1.0], 2.0, 3),
     ValueError, "exact_ar1 needs centered noise"),
    ("flavor", ar2, lambda m: bnd.report(m, "bogus", X, 2.0, 1),
     ValueError, "unknown flavor 'bogus'"),
    ("gauss_affine-B", ar2, lambda m: bnd.gaussian_affine_bounds(m, np.ones((1, 3)), X, 2.0, 1),
     DimensionMismatch, "B must have d columns"),
    ("projected-v", ar2, lambda m: bnd.projected_bounds(m, [1.0, 0.0, 0.0], X, 2.0, 1),
     DimensionMismatch, "v must have length d"),
    ("chafai-shapes", ar2, lambda m: bnd.chafai_w2_affine(LAW, EYE3, [0.0, 0.0, 0.0]),
     DimensionMismatch, "R and v must match the law's dimension"),
    ("chafai-symmetric", ar2, lambda m: bnd.chafai_w2_affine(LAW, [[1.0, 1.0], [0.0, 1.0]], X),
     NotSymmetric, "R must be symmetric"),
    ("star_norm-of", ar2, lambda m: STAR.of(EYE3),
     ValueError, "expected shape (2, 2), got (3, 3)"),
    ("solve_stein-shapes", ar2, lambda m: solve_stein(FORM, EYE3),
     ValueError, "Q and V must have matching shapes"),
    ("lift", ar2, lambda m: VECTOR_NOISE.lift([1.0, 0.0]),
     ValueError, "only 1-D scalar specs can be lifted"),
    ("scalar_abs_moment", ar2, lambda m: VECTOR_NOISE.scalar_abs_moment(2.0),
     ValueError, "scalar moment of a vector noise spec"),
    ("model-shapes", ar2, lambda m: StateSpaceModel(3, EYE2, EYE2, VECTOR_NOISE, {}),
     ValueError, "Q and Sigma must be d x d"),
    ("model-noise", ar2, lambda m: StateSpaceModel(3, EYE3, EYE3, VECTOR_NOISE, {}),
     ValueError, "noise dimension must match the state dimension"),
    ("ar-a", ar2, lambda m: ar_state_space([0.5, 0.2], a=[1.0, 2.0]),
     ValueError, "a must have length p - 1 = 1"),
    ("arma-phi", ar2, lambda m: arma_state_space([], [0.5]),
     EmptyCoefficients, "ARMA model needs at least one AR coefficient"),
    ("simulate-times", ar2, lambda m: simulate_paths(m, X, SimConfig(3, 4, 1), times=(0, 5)),
     ValueError, "times must lie in 0..horizon"),
    ("law-shapes", ar2, lambda m: GaussianLaw([0.0, 0.0], EYE3),
     DimensionMismatch, "mean and covariance dimensions disagree"),
    ("wr_1d-sd", ar2, lambda m: gaussian_wr_1d(0.0, -1.0, 0.0, 1.0, 1.5),
     ValueError, "standard deviations must be nonnegative"),
    ("sliced-d", ar2, lambda m: sliced_empirical(Z2, np.zeros((4, 3))),
     DimensionMismatch, "samples must be (n, d) with matching d"),
    ("sliced-n", ar2, lambda m: sliced_empirical(Z2, np.zeros((5, 2))),
     UnequalSampleSizes, "sample sizes 4 and 5 must match and be positive"),
    ("sliced-equispaced", ar2,
     lambda m: sliced_empirical(np.zeros((4, 3)), np.zeros((4, 3)), mode="equispaced"),
     ValueError, "equispaced directions are available only in d = 2"),
    ("sliced-mode", ar2, lambda m: sliced_empirical(Z2, Z2, mode="bogus"),
     ValueError, "unknown mode 'bogus'"),
    ("jordan-length", ar2, lambda m: JordanQuery(3, 0.5, [1.0, 1.0]),
     ValueError, "x must have length dim"),
    ("jordan-zero", ar2, lambda m: JordanQuery(2, 0.5, [0.0, 0.0]),
     ValueError, "x must be nonzero"),
]
CACHED = sorted(k for k, v in vars(StateSpaceModel).items() if isinstance(v, cached_property))


@pytest.mark.parametrize("make, call, error, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_refused_before_any_work(count_calls, make, call, error, message):
    m, draws = make(), count_calls("stream_rng")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(m)
    assert m._bound_constants == {} and [k for k in CACHED if k in vars(m)] == []
    assert draws == []
