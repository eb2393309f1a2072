"""The worker pool of the Monte Carlo and sliced-estimator kernels.

``ERGOBOUND_THREADS`` caps the worker count (the CPU count by default).
Every caller splits its work into jobs whose results do not depend on which
worker runs them, so the count never changes an output bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """``ERGOBOUND_THREADS`` when it parses as an integer (at least 1), else the CPU count."""
    env = os.environ.get("ERGOBOUND_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_jobs(run, jobs: list) -> list:
    """``run(*job)`` for each job, on up to :func:`worker_count` threads, results in job order."""
    workers = min(worker_count(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda job: run(*job), jobs))
    return [run(*job) for job in jobs]
