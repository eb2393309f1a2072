"""Seeded Monte Carlo for the state-space recursion.

Path simulation, stationary-law sampling (exact for Gaussian noise, else a
truncated series with an explicit tail-bias budget) and the empirical-mean
process.  Paths and stationary draws run in the fixed, separately keyed
Philox blocks of ``_pool.run_blocks``, so ensembles are bit-reproducible
regardless of how blocks are scheduled across workers.  ``ERGOBOUND_THREADS``
caps the worker count (``_pool.worker_count``).  Noise is ``k`` drivers ``eta``
per path and step (one for AR/ARMA), drawn step-major in bounded chunks and
applied as ``eta @ model.noise_loading``: O(n d) memory per kept step, not O(n d T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm

from ._pool import PATHS, STATIONARY, run_blocks
from .bounds import _neumann_sums, _star, _start
from .errors import MomentUnavailable, as_count, as_step
from .linalg import StarNorm, psd_factor
from .model import StateSpaceModel, model_digest

__all__ = [
    "SimConfig",
    "SampleEnsemble",
    "simulate_paths",
    "sample_stationary",
    "empirical_mean_process",
]

# Driver values drawn per chunk.  Split draws from one stream equal a single
# concatenated draw, so this bounds memory without changing any number.
_CHUNK_VALUES = 1 << 14

# The empirical mean's own recursion must hold to this much of the path magnitude.
_MEAN_RECURSION_TOL = 1e-12


def _noise_steps(draw, rng: np.random.Generator, m: int, steps: int, k: int):
    """Yield ``steps`` successive ``(m, k)`` driver draws, fetched in bounded chunks."""
    per_chunk = max(1, _CHUNK_VALUES // (m * k))
    for lo in range(0, steps, per_chunk):
        n = min(per_chunk, steps - lo)
        yield from draw(rng, n * m).reshape(n, m, k)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters."""

    n_paths: int
    horizon: int
    seed: int

    def __post_init__(self):
        for name in ("n_paths", "horizon"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))


@dataclass(frozen=True)
class SampleEnsemble:
    """Seeded draws with provenance; bit-reproducible from (model, config)."""

    samples: np.ndarray  # (n_paths, n_times, d)
    times: tuple
    provenance: dict = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.samples.shape[0]

    def at_time(self, t) -> np.ndarray:
        """The (n_paths, d) slice at a stored time step."""
        return self.samples[:, self.times.index(t), :]


def _legs(steps: list, exact: bool) -> list:
    """The moves ``(start, stop, jump)`` from step 0 through the sorted ``steps``: a jump across
    each gap of two or more steps when ``exact``, else one walk of the recursion per run."""
    legs, at = [], 0
    for t in steps:
        if exact and t - at >= 2:
            legs.append((at, t, True))
        elif legs and not legs[-1][2]:
            legs[-1] = (legs[-1][0], t, False)
        elif t > at:
            legs.append((at, t, False))
        at = t
    return legs


def _transitions(model: StateSpaceModel, gaps) -> dict:
    """``{k: ((Q^k)^T, b_k, F_k^T)}`` for the ``gaps``: with Gaussian noise, ``X_{s+k}``
    given ``X_s`` is ``N(Q^k X_s + b_k, C_k)`` with ``F_k F_k^T = C_k``.  The Neumann sums
    of :func:`bounds.law_at` give ``b_k`` and ``C_k`` without the cancellation of
    ``Sigma_inf - Q^k Sigma_inf Q^kT``; increasing gaps resume them."""
    out = {}
    for k in gaps:
        drift, cov, P = _neumann_sums(model, k)
        out[k] = (P.T, drift, psd_factor(cov).T)
    return out


def simulate_paths(
    model: StateSpaceModel, x, config: SimConfig, times=None
) -> SampleEnsemble:
    """Independent realizations of the recursion from a common start.

    Runs ``X_t = Q X_{t-1} + Sigma xi_t`` on ``n_paths`` independent paths up
    to the last kept step of ``times`` (default: all of ``0..horizon``, each
    at most once, in any order).  With Gaussian noise a gap of ``k >= 2``
    steps between kept steps is one exact draw of ``N(Q^k X_s + b_k, C_k)``.
    """
    x = _start(model, x)  # every bound's start check
    keep = tuple(range(config.horizon + 1)) if times is None else tuple(
        as_step(t, "times") for t in times)
    if any(t > config.horizon for t in keep):
        raise ValueError("times must lie in 0..horizon")
    if len(set(keep)) != len(keep):
        raise ValueError("times must not repeat a step")
    out = np.empty((config.n_paths, len(keep), model.d))
    col = {t: k for k, t in enumerate(keep)}
    legs = _legs(sorted(keep), model.noise.family == "gaussian")
    jumps = _transitions(model, sorted({stop - start for start, stop, jump in legs if jump}))
    draw = model.noise.sampler()
    Qt, Gt = model.Q.T, model.noise_loading

    def run(rng, lo: int, hi: int) -> None:
        state = np.tile(x, (hi - lo, 1))
        if 0 in col:
            out[lo:hi, col[0], :] = state
        for start, stop, jump in legs:
            if jump:
                Pt, b, Ft = jumps[stop - start]
                state = state @ Pt + b + rng.standard_normal((hi - lo, model.d)) @ Ft
                out[lo:hi, col[stop], :] = state
                continue
            steps = _noise_steps(draw, rng, hi - lo, stop - start, len(Gt))
            for t, eta in enumerate(steps, start=start + 1):
                state = state @ Qt + eta @ Gt
                if t in col:
                    out[lo:hi, col[t], :] = state

    run_blocks(config.n_paths, config.seed, PATHS, run)
    return SampleEnsemble(
        samples=out,
        times=keep,
        provenance={
            "kind": "paths",
            "model_digest": model_digest(model),
            "x": x.tolist(),
            "n_paths": config.n_paths,
            "horizon": config.horizon,
            "seed": config.seed,
        },
    )


def truncation_horizon(
    model: StateSpaceModel, eps_stat: float, star: StarNorm | None = None
) -> int:
    """Least T with tail majorant ``K_d E|Sigma xi| s^{T+1} / (1 - s) <= eps_stat``."""
    star = _star(model, star)
    if not model.noise.has_moment(1.0):
        raise MomentUnavailable("stationary sampling needs a finite first moment")
    m1 = model.noise.moment_root(model.Sigma, 1.0)
    s = star.value
    if m1 == 0.0 or s == 0.0:
        return 0
    # K_d m1 s^(T+1) / (1 - s) <= eps  <=>  T + 1 >= log(eps (1-s) / (K_d m1)) / log(s)
    lhs = eps_stat * (1.0 - s) / (star.K_d * m1)
    if lhs >= s:
        return 0
    return max(0, math.ceil(math.log(lhs) / math.log(s)) - 1)


def sample_stationary(
    model: StateSpaceModel,
    n: int,
    seed: int,
    eps_stat: float = 1e-3,
    star: StarNorm | None = None,
    truncation: int | None = None,
) -> SampleEnsemble:
    """Draws of the stationary law.

    With Gaussian noise and no ``truncation`` each sample is exactly
    ``m_inf + F z``, ``F F^T = Sigma_inf`` (provenance: ``exact``, ``truncation``
    0).  Otherwise it is ``sum_{j=0..T} Q^j Sigma xi_j``, ``T`` given or chosen
    so the contraction-norm tail majorant is at most ``eps_stat``: an
    explicit, auditable bias bound, unlike a burn-in.
    """
    n = as_count(n, "n")
    if not 0.0 < eps_stat < math.inf:
        raise ValueError(f"eps_stat must be positive and finite, got {eps_stat}")
    truncation = None if truncation is None else as_step(truncation, "truncation")
    star = _star(model, star)
    exact = truncation is None and model.noise.family == "gaussian"
    out = np.empty((n, 1, model.d))
    if exact:
        T, mean, Ft = 0, model.stationary_mean, psd_factor(model.stationary_cov).T

        def run(rng, lo: int, hi: int) -> None:
            out[lo:hi, 0, :] = mean + rng.standard_normal((hi - lo, model.d)) @ Ft
    else:
        T = truncation if truncation is not None else truncation_horizon(model, eps_stat, star)
        # (T + 1, k, d) stack of G Sigma^T (Q^T)^j: the drivers of term j add eta @ rows[j]
        rows = np.empty((T + 1,) + model.noise_loading.shape)
        rows[0] = model.noise_loading
        for j in range(1, T + 1):
            rows[j] = rows[j - 1] @ model.Q.T
        draw = model.noise.sampler()

        def run(rng, lo: int, hi: int) -> None:
            acc = np.zeros((hi - lo, model.d)).T  # Fortran order: dgemm adds in place, no temporary
            for j, eta in enumerate(_noise_steps(draw, rng, hi - lo, T + 1, len(rows[0]))):
                acc = dgemm(1.0, rows[j].T, eta.T, 1.0, acc, overwrite_c=True)
            out[lo:hi, 0, :] = acc.T

    run_blocks(n, seed, STATIONARY, run)
    return SampleEnsemble(
        samples=out,
        times=(math.inf,),
        provenance={
            "kind": "stationary",
            "model_digest": model_digest(model),
            "n_paths": n,
            "seed": seed,
            "eps_stat": eps_stat,
            "truncation": T,
            "exact": exact,
            "star_norm": star.value,
            "kappa": star.kappa,
        },
    )


def empirical_mean_process(model: StateSpaceModel, n: int, x, horizon: int,
                           seed: int) -> SampleEnsemble:
    """Averaged path of n independent copies, verified against its own recursion.

    The copies are the paths :func:`simulate_paths` draws from the same
    seed with every step kept, drawn step by step for every noise family.
    The empirical mean follows the same recursion driven by the averaged
    drivers ``zetabar``; the residual
    ``max_t |S_{t+1} - Q S_t - Sigma G^T zetabar_{t+1}|`` must be at most
    ``_MEAN_RECURSION_TOL`` (scaled by the path magnitude; a NaN fails) and is
    recorded in provenance.
    """
    n = as_count(n, "n")
    horizon = as_count(horizon, "horizon")
    x = _start(model, x)
    draw = model.noise.sampler()
    Qt, Gt = model.Q.T, model.noise_loading

    def run(rng, lo: int, hi: int):
        # per-step sums over this block's paths of the states and the drivers
        state_sum = np.empty((horizon + 1, model.d))
        noise_sum = np.empty((horizon, len(Gt)))
        state = np.tile(x, (hi - lo, 1))
        state_sum[0] = state.sum(axis=0)
        for t, eta in enumerate(_noise_steps(draw, rng, hi - lo, horizon, len(Gt)), start=1):
            state = state @ Qt + eta @ Gt
            state_sum[t] = state.sum(axis=0)
            noise_sum[t - 1] = eta.sum(axis=0)
        return state_sum, noise_sum

    sums = run_blocks(n, seed, PATHS, run)
    S = sum(s for s, _ in sums) / n  # (horizon + 1, d)
    zeta_bar = sum(z for _, z in sums) / n  # (horizon, k)
    resid = float(
        np.abs(S[1:] - S[:-1] @ Qt - zeta_bar @ Gt).max()
    )
    scale = 1.0 + float(np.abs(S).max())
    if not resid <= _MEAN_RECURSION_TOL * scale:  # a NaN fails too
        raise ValueError(
            f"empirical-mean recursion residual {resid:.3e} exceeds tolerance"
        )
    return SampleEnsemble(
        samples=S[None, :, :],
        times=tuple(range(horizon + 1)),
        provenance={
            "kind": "empirical_mean",
            "model_digest": model_digest(model),
            "x": x.tolist(),
            "n_copies": n,
            "horizon": horizon,
            "seed": seed,
            "recursion_residual": resid,
        },
    )
