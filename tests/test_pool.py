import os

import pytest

from ergobound import _pool, sim
from ergobound.model import NoiseSpec, ar_state_space
from ergobound.wasserstein import sliced_empirical_sweep


@pytest.mark.parametrize(
    "env, want",
    [("3", 3), ("1", 1), ("0", 1), ("-2", 1), ("abc", None), ("", None), (None, None)],
)
def test_worker_count_rule(monkeypatch, env, want):
    # an unparsable or empty value falls back to the CPU count, a small one to 1
    if env is None:
        monkeypatch.delenv("ERGOBOUND_THREADS", raising=False)
    else:
        monkeypatch.setenv("ERGOBOUND_THREADS", env)
    assert _pool.worker_count() == (want if want is not None else os.cpu_count() or 1)


def test_sim_and_sliced_estimators_share_the_rule(count_calls):
    # one helper, bound once, reads ERGOBOUND_THREADS for both worker pools
    calls = count_calls("worker_count")
    m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
    ens = sim.simulate_paths(m, [1.0, 0.0], sim.SimConfig(n_paths=2 * sim._BLOCK, horizon=2, seed=1))
    assert len(calls) == 1
    sliced_empirical_sweep([ens.at_time(2)], ens.at_time(1), 1.0, 64, seed=2)
    assert len(calls) == 2

