"""Reference transport distances.

Exact Gaussian W2 by the Bures/mean decomposition, one-dimensional
empirical W_r by the quantile formula, one-dimensional Gaussian W_r in
closed form, and sliced empirical estimators over random or equispaced
projection directions.  The sliced value follows the normalized-average
convention ``((1/A_d) \\int W_r^r)^{1/r}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, UnequalSampleSizes
from .linalg import as_matrix, psd_sqrt
from .model import _gauss_shifted_abs_moment

__all__ = [
    "GaussianLaw",
    "EmpiricalEstimate",
    "gaussian_w2",
    "empirical_w1d",
    "gaussian_wr_1d",
    "sphere_moment_ratio",
    "sliced_empirical",
    "sliced_empirical_sweep",
]


@dataclass(frozen=True)
class GaussianLaw:
    """A Gaussian law given by its mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = as_matrix(self.cov, name="cov").astype(float)
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch("mean and covariance dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class EmpiricalEstimate:
    """A nonnegative distance estimate; stderr is zero for deterministic formulas."""

    value: float
    stderr: float = 0.0
    n_samples: int = 0
    n_directions: int = 0
    seed: int | None = None


def gaussian_w2(a: GaussianLaw, b: GaussianLaw) -> float:
    """Exact W2 between Gaussian laws: mean gap plus Bures covariance term.

    In one dimension the Bures term reduces to the squared standard
    deviation gap, computed directly to dodge the cancellation of the
    trace form.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} disagree")
    dm = a.mean - b.mean
    if a.dim == 1:
        ds = math.sqrt(max(float(a.cov[0, 0]), 0.0)) - math.sqrt(max(float(b.cov[0, 0]), 0.0))
        return math.hypot(float(dm[0]), ds)
    ra = psd_sqrt(a.cov)
    cross = psd_sqrt(ra @ b.cov @ ra)
    bures = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return math.sqrt(float(dm @ dm) + max(bures, 0.0))


def empirical_w1d(xs, ys, r: float = 1.0) -> EmpiricalEstimate:
    """Order-r distance between equal-size 1-D samples by quantile matching.

    Sorting both samples realizes the optimal coupling exactly, so the value
    is ``(mean |x_(i) - y_(i)|^r)^{1/r}`` with no estimation error beyond
    the samples themselves.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.shape[0] != ys.shape[0] or xs.shape[0] == 0:
        raise UnequalSampleSizes(
            f"sample sizes {xs.shape[0]} and {ys.shape[0]} must match and be positive"
        )
    diffs = np.abs(np.sort(xs) - np.sort(ys))
    value = float(np.mean(diffs**r) ** (1.0 / r))
    return EmpiricalEstimate(value=value, n_samples=xs.shape[0])


def gaussian_wr_1d(m1: float, s1: float, m2: float, s2: float, r: float) -> float:
    """Order-r distance between 1-D Gaussians via the quantile map.

    The comonotone coupling gives ``(E|dm + ds Z|^r)^{1/r}`` with ``Z``
    standard normal, evaluated exactly through Kummer's function;
    ``r = 2`` uses the closed form ``sqrt(dm**2 + ds**2)``.
    """
    if s1 < 0 or s2 < 0:
        raise ValueError("standard deviations must be nonnegative")
    dm, ds = m2 - m1, s2 - s1
    if r == 2:
        return math.hypot(dm, ds)
    return _gauss_shifted_abs_moment(dm, abs(ds), r) ** (1.0 / r)


def _log_sphere_moment_ratio(d: int, r: float) -> float:
    return (
        gammaln((r + 1.0) / 2.0)
        + gammaln(d / 2.0)
        - gammaln((r + d) / 2.0)
        - 0.5 * math.log(math.pi)
    )


def sphere_moment_ratio(d: int, r: float) -> float:
    """Uniform sphere average of ``|v_1|^r``: Gamma-ratio closed form.

    Equals ``Gamma((r+1)/2) Gamma(d/2) / (Gamma((r+d)/2) sqrt(pi))``; at
    ``r = 2`` this is exactly ``1/d``.
    """
    if d < 2 or r < 1:
        raise ValueError("need d >= 2 and r >= 1")
    return float(math.exp(_log_sphere_moment_ratio(d, r)))


def _directions(d: int, n_distinct: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_distinct, d))
    norms = np.linalg.norm(v, axis=1)
    # a zero draw is astronomically unlikely; resample defensively
    while np.any(norms == 0.0):
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def _check_sample_pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != ys.shape[1]:
        raise DimensionMismatch("samples must be (n, d) with matching d")
    if xs.shape[0] != ys.shape[0] or xs.shape[0] == 0:
        raise UnequalSampleSizes(
            f"sample sizes {xs.shape[0]} and {ys.shape[0]} must match and be positive"
        )
    if xs.shape[1] < 2:
        raise ValueError("sliced distance needs dimension at least 2")
    return xs, ys


def _sliced_directions(d: int, n_directions: int, seed, mode: str):
    n_distinct = max(1, (n_directions + 1) // 2)
    if mode == "equispaced":
        if d != 2:
            raise ValueError("equispaced directions are available only in d = 2")
        ang = np.pi * np.arange(n_distinct) / n_distinct
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), True
    if mode == "random":
        return _directions(d, n_distinct, [seed, 0xD17]), False
    raise ValueError(f"unknown mode {mode!r}")


def _shift_noise_scale(xs: np.ndarray, ys: np.ndarray, r: float) -> float:
    """One-sigma proxy for the sampling noise of the sliced estimate.

    The estimator is 1-Lipschitz under a common shift of either sample, so
    the fluctuation of the two ensemble means propagates with direction
    weight at most ``c(d, r)^{1/r}``; the mean noise itself has magnitude
    ``sqrt((tr cov_x + tr cov_y) / n)``.
    """
    n, d = xs.shape
    tr = float(np.var(xs, axis=0, ddof=1).sum() + np.var(ys, axis=0, ddof=1).sum())
    return math.exp(_log_sphere_moment_ratio(d, r) / r) * math.sqrt(tr / n)


def _sorted_projections(xs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Projections as contiguous ``(directions, n)`` rows, each sorted."""
    proj = dirs @ xs.T
    proj.sort(axis=1)
    return proj


def _sliced_from_sorted(px, py, r, n, n_directions, seed, deterministic, shift_se):
    gaps = px - py
    np.abs(gaps, out=gaps)
    if r != 1:
        gaps **= r
    powers = gaps.mean(axis=1)  # per-direction W_r^r
    mean_pow = float(powers.mean())
    value = mean_pow ** (1.0 / r)
    if deterministic:
        stderr = 0.0
    else:
        n_distinct = px.shape[0]
        se_dir = 0.0
        if n_distinct >= 2 and mean_pow > 0.0:
            se_mean = float(powers.std(ddof=1) / math.sqrt(n_distinct))
            se_dir = se_mean * value / (r * mean_pow)  # delta method on x -> x^(1/r)
        stderr = math.hypot(se_dir, shift_se)
    return EmpiricalEstimate(
        value=value, stderr=stderr, n_samples=n, n_directions=n_directions, seed=seed
    )


def sliced_empirical(
    xs,
    ys,
    r: float = 1.0,
    n_directions: int = 256,
    seed: int = 0,
    mode: str = "random",
) -> EmpiricalEstimate:
    """Sliced order-r distance between equal-size d-dimensional samples.

    Projects both samples on unit directions, takes the 1-D quantile
    distance per direction, and averages the r-th powers before the final
    root.  Random mode draws normalized Gaussian directions in antithetic
    pairs ``(v, -v)``; the projected quantile distance is even in ``v``, so
    only ``n_directions / 2`` distinct directions are evaluated.  The
    stderr combines the direction-average variance with a shift-noise
    proxy for the sample-reuse fluctuation common to all directions.  For
    ``d = 2``, ``mode="equispaced"`` uses deterministic equally spaced
    angles on the half-circle and reports zero stderr.
    """
    xs, ys = _check_sample_pair(xs, ys)
    dirs, deterministic = _sliced_directions(xs.shape[1], n_directions, seed, mode)
    px = _sorted_projections(xs, dirs)
    py = _sorted_projections(ys, dirs)
    shift_se = 0.0 if deterministic else _shift_noise_scale(xs, ys, r)
    return _sliced_from_sorted(
        px, py, r, xs.shape[0], n_directions, seed, deterministic, shift_se
    )


def sliced_empirical_sweep(
    xs_list,
    ys,
    r: float = 1.0,
    n_directions: int = 256,
    seed: int = 0,
    mode: str = "random",
) -> list[EmpiricalEstimate]:
    """:func:`sliced_empirical` of each entry of ``xs_list`` against one ``ys``.

    Identical estimates to the one-shot function with the same seed, but
    the direction set and the sorted projections of ``ys`` are computed
    once, which is what bound-validation sweeps over time steps need.
    """
    ys = np.asarray(ys, dtype=float)
    estimates = []
    py = None
    dirs = deterministic = None
    for xs in xs_list:
        xs, ys = _check_sample_pair(xs, ys)
        if py is None:
            dirs, deterministic = _sliced_directions(ys.shape[1], n_directions, seed, mode)
            py = _sorted_projections(ys, dirs)
        px = _sorted_projections(xs, dirs)
        shift_se = 0.0 if deterministic else _shift_noise_scale(xs, ys, r)
        estimates.append(
            _sliced_from_sorted(
                px, py, r, xs.shape[0], n_directions, seed, deterministic, shift_se
            )
        )
    return estimates
