import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ergobound import _pool, sim
from ergobound.model import NoiseSpec, ar_state_space
from ergobound.wasserstein import sliced_empirical, sliced_empirical_sweep


def affinity_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.parametrize(
    "env, want",
    [("3", 3), ("1", 1), ("0", 1), ("-2", 1), ("abc", None), ("", None), (None, None)],
)
def test_worker_count_rule(monkeypatch, env, want):
    # an unparsable or empty value falls back to the CPUs this process may run on, a small one to 1
    if env is None:
        monkeypatch.delenv("ERGOBOUND_THREADS", raising=False)
    else:
        monkeypatch.setenv("ERGOBOUND_THREADS", env)
    assert _pool.worker_count() == (want if want is not None else affinity_cpus())


def test_sim_and_sliced_estimators_share_the_rule(count_calls):
    # one helper, bound once, reads ERGOBOUND_THREADS for both worker pools
    calls = count_calls("worker_count")
    m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
    ens = sim.simulate_paths(m, [1.0, 0.0], sim.SimConfig(n_paths=2 * _pool.BLOCK, horizon=2, seed=1))
    assert len(calls) == 1
    sliced_empirical_sweep([ens.at_time(2)], ens.at_time(1), 1.0, 64, seed=2)
    assert len(calls) == 2


def test_stream_classes_never_share_a_key():
    # a blocked class's streams are first + 2 b; DIRECTIONS is one stream.  The values are
    # pinned: a class that moves moves every draw made from it
    assert (_pool.PATHS, _pool.STATIONARY, _pool.DIRECTIONS) == (0, 1, 2**63 + 1)
    blocks = 1 << 62
    classes = [(_pool.PATHS, blocks), (_pool.STATIONARY, blocks), (_pool.DIRECTIONS, 1)]
    for first, count in classes:
        assert 0 <= first and first + 2 * (count - 1) < 2**64  # no stream wraps in the key
    for (fa, na), (fb, nb) in itertools.combinations(classes, 2):
        # {fa + 2 i} and {fb + 2 j} meet only when fa and fb have one parity and the ranges overlap
        assert (fa - fb) % 2 or fa + 2 * (na - 1) < fb or fb + 2 * (nb - 1) < fa, (fa, fb)


def test_block_b_is_keyed_by_seed_and_first_plus_2b():
    def key(rng, lo, hi):
        return rng.bit_generator.state["state"]["key"].tolist(), lo, hi

    n = 2 * _pool.BLOCK + 5
    for first in (_pool.PATHS, _pool.STATIONARY):
        assert _pool.run_blocks(n, 2**64 - 1, first, key) == [
            ([first + 2 * b, 2**64 - 1], b * _pool.BLOCK, min((b + 1) * _pool.BLOCK, n))
            for b in range(3)
        ]
    # the one DIRECTIONS stream is keyed like block 0
    assert key(_pool.stream_rng(2**64 - 1, _pool.DIRECTIONS), 0, 0)[0] == [
        _pool.DIRECTIONS, 2**64 - 1]


MODEL = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))


def monte_carlo(seed):
    """Three path blocks (the last one partial) and a sliced W1 between two kept steps."""
    config = sim.SimConfig(n_paths=2 * _pool.BLOCK + 100, horizon=3, seed=seed)
    ens = sim.simulate_paths(MODEL, [1.0, 0.0], config, times=[1, 3])
    est = sliced_empirical(ens.at_time(3), ens.at_time(1), 1.0, 64, seed=seed)
    return ens.samples, est


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def parallel_threads(monkeypatch):
    """Leave ``ERGOBOUND_THREADS`` as it is unless it gives one worker; then use 2."""
    if _pool.worker_count() < 2:
        monkeypatch.setenv("ERGOBOUND_THREADS", "2")


def finishes(fn, timeout=30.0):
    """Run ``fn`` on a daemon thread; its result, or a failure if it has not returned in time."""
    out = []
    caller = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), f"no return within {timeout} s"
    assert out, "the call raised"
    return out[0]


def test_later_calls_start_no_thread(monkeypatch):
    # the pool's threads live across calls; a per-call pool starts new ones every time
    parallel_threads(monkeypatch)
    monte_carlo(1)
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for seed in range(20):
        monte_carlo(seed)
    assert started == []


def test_nested_call_runs_inline(monkeypatch):
    # jobs that call run_jobs themselves would otherwise wait on the workers they occupy
    monkeypatch.setenv("ERGOBOUND_THREADS", "2")

    def outer(k):
        return _pool.run_jobs(lambda j: 10 * k + j, [(j,) for j in range(3)])

    got = finishes(lambda: _pool.run_jobs(outer, [(k,) for k in range(4)]))
    assert got == [[10 * k + j for j in range(3)] for k in range(4)]


def test_error_waits_for_sibling_jobs(monkeypatch):
    # the first job fails as soon as the second has started; the call returns only
    # after the slow second job is done
    monkeypatch.setenv("ERGOBOUND_THREADS", "2")
    started, done = threading.Event(), []

    def job(k):
        if k == 0:
            started.wait(10)
            raise RuntimeError("job 0 failed")
        started.set()
        time.sleep(0.3)
        done.append(k)

    with pytest.raises(RuntimeError, match="job 0 failed"):
        _pool.run_jobs(job, [(0,), (1,)])
    assert done == [1]


def _child_digest(conn, seed):
    samples, est = monte_carlo(seed)
    conn.send((samples.tobytes(), est))
    conn.close()


def test_forked_child_reproduces_the_ensemble(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    parallel_threads(monkeypatch)
    samples, est = monte_carlo(5)  # the pool is running when the child forks
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_digest, args=(send, 5))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child gave no result within 60 s"
        child_bytes, child_est = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert child_bytes == samples.tobytes()
    assert child_est == est


def test_concurrent_callers_match_one_thread(monkeypatch):
    # caller threads share the pool while a flipping worker count keeps replacing it;
    # each caller gets the bits of a serial run
    monkeypatch.setenv("ERGOBOUND_THREADS", "1")
    want = [monte_carlo(seed) for seed in range(4)]
    got = [[] for _ in want]

    def caller(seed):
        for _ in range(3):
            got[seed].append(monte_carlo(seed))

    callers = [threading.Thread(target=caller, args=(seed,), daemon=True) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        deadline, flips = time.monotonic() + 60, 0
        while any(t.is_alive() for t in callers) and time.monotonic() < deadline:
            os.environ["ERGOBOUND_THREADS"] = "23"[flips % 2]
            flips += 1
            time.sleep(0.005)
        for t in callers:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for runs, ref in zip(got, want):
        assert len(runs) == 3
        for run in runs:
            assert_same_bits(run, ref)


def test_thread_count_change_is_honoured(monkeypatch):
    # n jobs meet at a barrier of n only if n workers run at once; one worker runs inline
    caller = threading.get_ident()
    for n in (3, 1, 4, 2):
        monkeypatch.setenv("ERGOBOUND_THREADS", str(n))
        if n == 1:
            idents = _pool.run_jobs(threading.get_ident, [()] * 3)
            assert idents == [caller] * 3
            continue
        barrier = threading.Barrier(n, timeout=10)
        idents = finishes(lambda: _pool.run_jobs(lambda: (barrier.wait(), threading.get_ident())[1],
                                                 [()] * n))
        assert len(set(idents)) == n
        assert caller not in idents


def test_one_job_runs_on_the_caller(monkeypatch):
    monkeypatch.setenv("ERGOBOUND_THREADS", "4")
    assert _pool.run_jobs(threading.get_ident, [()]) == [threading.get_ident()]
    assert _pool.run_jobs(threading.get_ident, []) == []


SRC = str(Path(__file__).resolve().parents[1] / "src")


def exits_cleanly(code):
    """Run ``code`` in a fresh interpreter at 2 workers; it must exit with code 0 within 10 s."""
    env = dict(os.environ, ERGOBOUND_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_interpreter_exits_after_a_pool_call():
    # the executor's threads are no daemon threads: the interpreter joins them at exit
    out = exits_cleanly("from ergobound import _pool\n"
                        "print(_pool.run_jobs(pow, [(2, 3), (3, 2)]))\n")
    assert out == "[8, 9]"


def test_forked_child_exits_after_a_pool_call():
    # the child drops the inherited executor, starts its own and joins it at its exit
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    out = exits_cleanly(
        "import os, sys, time, warnings\n"
        "from ergobound import _pool\n"
        "assert _pool.run_jobs(pow, [(2, 3), (3, 2)]) == [8, 9]\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore', DeprecationWarning)  # fork with threads running\n"
        "    pid = os.fork()\n"
        "if pid == 0:\n"
        "    assert _pool.run_jobs(pow, [(2, 5), (5, 2)]) == [32, 25]\n"
        "else:\n"
        "    deadline = time.monotonic() + 8\n"
        "    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "    if not done[0]:\n"
        "        os.kill(pid, 9)\n"
        "        sys.exit('the forked child did not exit within 8 s')\n"
        "    print(os.waitstatus_to_exitcode(done[1]))\n")
    assert out == "0"


def test_failed_thread_start_frees_the_started_threads(monkeypatch):
    # a thread left waiting at the start barrier would be joined at exit forever
    monkeypatch.setenv("ERGOBOUND_THREADS", "3")
    monkeypatch.setattr(_pool, "_pool", None)
    started = []
    start = threading.Thread.start

    def second_fails(self):
        if started:
            raise RuntimeError("can't start new thread")
        start(self)
        started.append(self)

    monkeypatch.setattr(threading.Thread, "start", second_fails)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _pool.run_jobs(pow, [(2, 3), (3, 2)])
    started[0].join(10)
    assert not started[0].is_alive()
    assert _pool._pool is None
