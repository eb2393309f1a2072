"""Property-based checks on generated inputs.

Examples come from hypothesis with ``derandomize=True``, so every run draws the
same examples and the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergobound import linalg
from ergobound.errors import ErgoboundError

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("deterministic")


@st.composite
def stable_models(draw):
    """A Schur stable ``Q`` (d = 1..12) and a PSD ``V``.  Half the matrices are strongly
    non-normal, ``O (Lambda + N) O^T`` with ``N`` strictly upper of entries 1..3, and
    ``rho`` reaches 0.999."""
    d, rho = draw(st.integers(1, 12)), draw(st.floats(0.05, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lam = rho * rng.uniform(0.3, 1.0, d) * rng.choice([-1.0, 1.0], d)
        lam[0] = rho
        O, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Q = O @ (np.diag(lam) + np.triu(rng.uniform(1.0, 3.0, (d, d)), 1)) @ O.T
    else:
        A = rng.standard_normal((d, d))
        Q = A * (rho / np.abs(np.linalg.eigvals(A)).max())
    M = rng.standard_normal((d, d))
    return Q, M @ M.T


def outcome(call, *args):
    """``call(*args)`` with every array as its bytes, or the error it raises."""
    try:
        result = call(*args)
    except (ErgoboundError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    fields = result.__dict__.values() if hasattr(result, "__dict__") else (result,)
    return [f.tobytes() if isinstance(f, np.ndarray) else f for f in fields]


@given(stable_models(), st.integers(0, 40))
def test_remembered_decomposition_equals_uncached_calls(model, t):
    Q, V = model
    form = linalg._schur(linalg._read_only(Q.copy()))
    for _ in range(2):  # the first call decomposes, the second is remembered
        assert outcome(linalg.schur_triangularize, Q) == outcome(lambda: form)
        for policy in (None, {"optimize_at": t}):
            assert outcome(linalg.build_star_norm, Q, policy) == outcome(
                linalg.star_norm, form, policy)
        assert outcome(linalg.stationary_covariance, Q, V) == outcome(
            linalg.solve_stein, form, V)


def reference_objective(form, t, kappa):
    """The kappa objective from the scaled norm of ``Delta`` in full at one kappa:
    ``K_d s^(t+1) / (1 - s)``, or ``inf`` where ``s >= 1`` or ``K_d`` overflows."""
    p = np.arange(1, form.Delta.shape[0] + 1, dtype=float)
    s = linalg.one_norm(form.Delta * kappa ** (p[:, None] - p[None, :]))
    try:
        value = linalg._star_constants(form.U, kappa)[0] * s ** (t + 1) / (1.0 - s)
    except OverflowError:
        return np.inf
    return value if s < 1.0 and value < np.inf else np.inf


@given(stable_models(), st.integers(0, 40), st.floats(1.0, 1e4))
def test_kappa_scan_equals_reference_objective(model, t, span):
    form = linalg.schur_triangularize(model[0])
    objective = linalg._kappa_objective(form.Delta, form.U, t)
    kappas = np.geomspace(1.0, span, 80).tolist()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert objective(kappas) == [reference_objective(form, t, k) for k in kappas]


@given(stable_models(), st.integers(0, 40))
def test_optimized_kappa_within_dense_grid(model, t):
    # no point of a dense log grid over the searched range beats the nested grids' kappa
    form = linalg.schur_triangularize(model[0])
    threshold = max(1.0, linalg.one_norm(form.Delta) / (1.0 - form.spectral_radius))
    kappas = np.geomspace(threshold * (1.0 + 1e-9), threshold * 1e4, 2000)
    kappa = linalg.star_norm(form, {"optimize_at": t}).kappa
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best = min(linalg._kappa_objective(form.Delta, form.U, t)(kappas))
        assert reference_objective(form, t, kappa) <= best * (1 + 1e-9)
