"""Shared test fixtures."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import ergobound  # noqa: F401  (loads every package module before a patch)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` counts the calls of the package function ``name``.

    The function is wrapped in every ``ergobound`` module that binds it, so
    a call counts whichever module looks the name up, the defining one
    included.  Returns the list that grows by one entry per call.
    """

    def install(name: str) -> list:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key.split(".")[0] == "ergobound" and hasattr(mod, name)
        ]
        originals = {getattr(mod, name) for mod in modules}
        assert len(originals) == 1, f"{name!r} is bound to {len(originals)} objects"
        original = originals.pop()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for mod in modules:
            monkeypatch.setattr(mod, name, counted)
        return calls

    return install


@pytest.fixture
def lapack_calls(monkeypatch):
    """The number of ``scipy.linalg.schur`` and ``np.linalg.eig`` calls made in the test."""
    counts = {"schur": 0, "eig": 0}
    for module, name in ((scipy.linalg, "schur"), (np.linalg, "eig")):

        def counted(*args, _name=name, _call=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def run_threads():
    """``run_threads(run, n)`` calls ``run(i)`` on ``n`` threads that pass one barrier
    together, under a short switch interval so that they interleave often; it fails
    unless every thread has finished within a minute."""

    def start(run, n: int = 4) -> None:
        barrier = threading.Barrier(n, timeout=60)

        def body(i):
            barrier.wait()
            run(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=body, args=(i,), daemon=True) for i in range(n)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)

    return start
