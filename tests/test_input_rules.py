"""One rule per input kind (``errors.as_count``, ``as_step``, ``as_order``), at every entry.

Each row names a public argument that is a count (copies, paths, samples, directions
or a dimension), a step or an order, and a call that feeds it one value.  A bad value must
raise ``ValueError`` naming the argument before any work: no model constant is solved,
no moment is kept and no random stream is opened.
"""

import math
from functools import cached_property

import numpy as np
import pytest

from ergobound import bounds as bnd
from ergobound.asymptotics import (
    JordanPairQuery,
    JordanQuery,
    jordan_estimate,
    jordan_pair_estimate,
    jordan_power,
    lyapunov_sandwich,
)
from ergobound.errors import as_count, as_order, as_step
from ergobound.linalg import build_star_norm, check_kappa_policy, eigen
from ergobound.model import NoiseSpec, StateSpaceModel, ar_state_space, validate_model
from ergobound.sim import SimConfig, empirical_mean_process, sample_stationary, simulate_paths
from ergobound.wasserstein import (
    empirical_w1d,
    gaussian_wr_1d,
    sliced_empirical,
    sliced_empirical_sweep,
    sphere_moment_ratio,
)

X, V = [2.0, 0.0], [0.6, 0.8]
XS, YS = np.zeros((8, 2)), np.ones((8, 2))

# (kind, argument, call(model, value)); each call feeds ``value`` to ``argument``
ROWS = [
    ("count", "n_copies", lambda m, n: bnd.sweep(m, "parallel", X, 2.0, [1], n_copies=n)),
    ("count", "n_copies", lambda m, n: bnd.report(m, "empirical_mean", X, 2.0, 1, n_copies=n)),
    ("count", "n", lambda m, n: bnd.empirical_mean_bounds(m, n, X, 2.0, 1)),
    ("count", "n", lambda m, n: bnd.parallel_bounds(
        bnd.exact_ar1_report(0.5, 1.0, 2.0, 1), n, 2.0)),
    ("count", "d", lambda m, d: bnd.gaussian_abs_moment(d, 2.0)),
    ("count", "d", lambda m, d: sphere_moment_ratio(d, 2.0)),
    ("count", "n_directions", lambda m, n: sliced_empirical(XS, YS, n_directions=n)),
    ("count", "n_directions", lambda m, n: sliced_empirical_sweep([XS], YS, n_directions=n)),
    ("count", "n_paths", lambda m, n: SimConfig(n_paths=n, horizon=3, seed=1)),
    ("count", "horizon", lambda m, h: SimConfig(n_paths=3, horizon=h, seed=1)),
    ("count", "n", lambda m, n: sample_stationary(m, n, seed=1)),
    ("count", "n", lambda m, n: empirical_mean_process(m, n, X, 3, seed=1)),
    ("count", "horizon", lambda m, h: empirical_mean_process(m, 3, X, h, seed=1)),
    ("count", "n_copies", lambda m, n: bnd.report(m, "parallel", X, 2.0, 1, n_copies=n)),
    ("step", "t", lambda m, t: bnd.sweep(m, "generic", X, 2.0, [0, t])),
    ("step", "t", lambda m, t: bnd.report(m, "gauss_affine", X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.law_at(m, X, t)),
    ("step", "t", lambda m, t: bnd.gaussian_affine_bounds(m, None, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.projected_bounds(m, V, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.sliced_gauss_bounds(m, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.generic_bounds(m, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.diagonalizable_bounds(m, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.sliced_generic_bounds(m, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.empirical_mean_bounds(m, 3, X, 2.0, t)),
    ("step", "t", lambda m, t: bnd.exact_w2_ar1(0.5, 1.0, 2.0, t)),
    ("step", "t", lambda m, t: bnd.exact_ar1_report(0.5, 1.0, 2.0, t)),
    ("step", "t", lambda m, t: lyapunov_sandwich(eigen(np.diag([0.5, 0.2])), X, t)),
    ("step", "t", lambda m, t: jordan_power(0.5, 2, t)),
    ("step", "t", lambda m, t: jordan_estimate(JordanQuery(2, 0.5, X), t)),
    ("step", "t", lambda m, t: jordan_pair_estimate(JordanPairQuery(1, 0.5j, X), t)),
    ("step", "times", lambda m, t: simulate_paths(m, X, SimConfig(3, 4, 1), times=(0, t))),
    ("step", "truncation", lambda m, t: sample_stationary(m, 3, seed=1, truncation=t)),
    ("step", "optimize_at", lambda m, t: check_kappa_policy({"optimize_at": t})),
    ("step", "optimize_at", lambda m, t: build_star_norm(m.Q, {"optimize_at": t})),
    ("order", "r", lambda m, r: bnd.sweep(m, "generic", X, r, [1])),
    ("order", "r", lambda m, r: bnd.report(m, "sliced_gauss", X, r, 1)),
    ("order", "r", lambda m, r: bnd.gaussian_abs_moment(2, r)),
    ("order", "r", lambda m, r: sphere_moment_ratio(2, r)),
    ("order", "r", lambda m, r: validate_model(m, r)),
    ("order", "r", lambda m, r: empirical_w1d([0.0, 1.0], [1.0, 2.0], r)),
    ("order", "r", lambda m, r: gaussian_wr_1d(0.0, 1.0, 1.0, 2.0, r)),
    ("order", "r", lambda m, r: sliced_empirical(XS, YS, r)),
    ("order", "r", lambda m, r: sliced_empirical_sweep([XS], YS, r)),
]

# 2.5 and 3.0 are orders, so the order rows take the other four values only
BAD = {"count": [2.5, math.nan, math.inf, "3", 3.0, -1], "order": [math.nan, math.inf, "3", -1]}
BAD["step"] = BAD["count"]
CASES = [(i, name, call, value) for i, (kind, name, call) in enumerate(ROWS) for value in BAD[kind]]
CACHED = sorted(k for k, v in vars(StateSpaceModel).items() if isinstance(v, cached_property))


@pytest.mark.parametrize("name, call, value", [case[1:] for case in CASES],
                         ids=[f"{i}-{name}-{value!r}" for i, name, _, value in CASES])
def test_bad_input_raises_before_any_work(count_calls, name, call, value):
    m = ar_state_space([1.2, -0.5], None, NoiseSpec.gaussian(0.0, 1.0))
    draws = count_calls("stream_rng")
    with pytest.raises(ValueError, match=rf"^(order )?{name} must be "):
        call(m, value)
    assert m._bound_constants == {} and [k for k in CACHED if k in vars(m)] == []
    assert m.noise._moment_cache == {} and draws == []


def test_the_rules():
    assert [as_count(np.int64(3), "n"), as_count(True, "n"), as_step(0)] == [3, 1, 0]
    assert type(as_count(np.int32(3), "n")) is int
    # star_norm takes the policy's step from its one check
    steps = [check_kappa_policy({"optimize_at": np.int64(7)}), check_kappa_policy({"fixed": 3.0})]
    assert steps == [7, 0] and type(steps[0]) is int
    for value in (1, 1.0, 2.5, np.float64(7.0)):
        assert as_order(value) is value
    with pytest.raises(ValueError, match="^d must be an integer of at least 2, got 1$"):
        as_count(1, "d", 2)
    with pytest.raises(ValueError, match=r"^order r must be finite and at least 1, got 0\.5$"):
        as_order(0.5)
