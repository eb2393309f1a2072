"""The worker pool of the simulation and sliced-estimator kernels, and the keyed Philox
streams (Salmon et al., SC 2011) that every random draw of the package comes from.

``ERGOBOUND_THREADS`` caps the worker count (by default the CPUs this process
may run on).  Every caller splits its work into jobs whose results do not
depend on which worker runs them, so the count never changes an output bit.

One ``ThreadPoolExecutor`` serves the whole process.  It starts all its
threads on the first call with two or more jobs, never at import, and is
replaced only when the worker count changes, so its threads keep their BLAS
and allocator state across calls.  A call made from inside a job runs inline
(a nested wait on the same workers could deadlock), and a forked child drops
the executor it inherits, whose threads do not exist there.  The interpreter
joins the idle threads at exit.
"""

from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_local = threading.local()  # ``in_job`` is true on the pool's own threads


def worker_count() -> int:
    """``ERGOBOUND_THREADS`` when it parses as an integer (at least 1), else the CPU count
    (the CPUs this process may run on, where the platform says)."""
    env = os.environ.get("ERGOBOUND_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mark_job_thread() -> None:
    _local.in_job = True


def _start_pool(workers: int) -> ThreadPoolExecutor:
    """An executor with all ``workers`` threads running.  The executor starts a thread per
    submit only while none is idle, so each start job waits at one barrier until the last
    thread has started."""
    executor = ThreadPoolExecutor(workers, "ergobound", initializer=_mark_job_thread)
    barrier = threading.Barrier(workers)
    try:
        for _ in range(workers):
            executor.submit(barrier.wait)
    except RuntimeError:  # a thread failed to start: release the started ones
        barrier.abort()
        executor.shutdown(wait=False)
        raise
    return executor


_lock = threading.Lock()
_pool: tuple[int, ThreadPoolExecutor] | None = None  # (worker count, its executor)


def _forget_pool() -> None:
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_jobs(run, jobs: list) -> list:
    """``run(*job)`` for each job, on up to :func:`worker_count` threads, results in job order.

    When a job raises, the call still waits for every other job, then raises
    the first error in job order.
    """
    global _pool
    workers = worker_count()
    if workers < 2 or len(jobs) < 2 or getattr(_local, "in_job", False):
        return [run(*job) for job in jobs]
    with _lock:  # submit under the lock, so no other caller shuts this executor down meanwhile
        if _pool is None or _pool[0] != workers:
            old, _pool = _pool, (workers, _start_pool(workers))
            if old is not None:
                old[1].shutdown(wait=False)  # its threads end once the jobs queued so far have run
        futures = [_pool[1].submit(run, *job) for job in jobs]
    wait(futures)
    return [f.result() for f in futures]


_MASK64 = (1 << 64) - 1
BLOCK = 4096  # rows per block of :func:`run_blocks`
# Stream classes; block ``b`` of a class draws from ``first + 2 b``, disjoint below b = 2**62:
#   PATHS       2 b             simulate_paths, empirical_mean_process
#   STATIONARY  2 b + 1         sample_stationary
#   DIRECTIONS  2**63 + 1       sliced-estimator directions, one stream
PATHS, STATIONARY, DIRECTIONS = 0, 1, (1 << 63) + 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based: the (seed, stream) key fully determines the
    # stream, independent of scheduling.  The seed fills the key's upper 64
    # bits, so one outside [0, 2**64) would alias another seed's streams, and
    # so would a numpy integer's fixed-width shift.
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = (seed << 64) | (stream & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def run_blocks(n: int, seed: int, first: int, run) -> list:
    """``run(rng, lo, hi)`` over the fixed ``BLOCK``-row blocks of ``0..n``, block ``b`` on
    stream ``first + 2 b``, maybe on parallel workers; the results come in block order."""
    return run_jobs(run, [
        (stream_rng(seed, first + 2 * b), lo, min(lo + BLOCK, n))
        for b, lo in enumerate(range(0, n, BLOCK))
    ])
