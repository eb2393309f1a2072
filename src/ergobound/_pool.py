"""The worker pool of the Monte Carlo and sliced-estimator kernels.

``ERGOBOUND_THREADS`` caps the worker count (by default the CPUs this process
may run on).  Every caller splits its work into jobs whose results do not
depend on which worker runs them, so the count never changes an output bit.

One pool serves the whole process.  It starts all its threads on the first
call with two or more jobs, never at import, and is replaced only when the
worker count changes, so its threads keep their BLAS and allocator state
across calls.  A call made from inside a job runs inline (a nested wait on
the same workers could deadlock), and a forked child drops the pool it
inherits, whose threads do not exist there.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import Future, wait

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


class _Pool:
    """``workers`` daemon threads, all started up front, running queued jobs first in first out."""

    def __init__(self, workers: int):
        self.workers = workers
        self._tasks = queue.SimpleQueue()
        for k in range(workers):
            threading.Thread(target=self._serve, name=f"ergobound-{k}", daemon=True).start()

    def _serve(self) -> None:
        _local.in_job = True
        while (task := self._tasks.get()) is not None:
            future, run, job = task
            try:
                future.set_result(run(*job))
            except BaseException as exc:  # raised again in the caller by ``result()``
                future.set_exception(exc)

    def submit(self, run, job) -> Future:
        future = Future()
        self._tasks.put((future, run, job))
        return future

    def close(self) -> None:
        """End the threads once the jobs queued so far have run."""
        for _ in range(self.workers):
            self._tasks.put(None)


_lock = threading.Lock()
_pool: _Pool | None = None


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
    with _lock:  # submit under the lock, so no other caller closes this pool meanwhile
        if _pool is None or _pool.workers != workers:
            if _pool is not None:
                _pool.close()
            _pool = _Pool(workers)
        futures = [_pool.submit(run, job) for job in jobs]
    wait(futures)
    return [f.result() for f in futures]
