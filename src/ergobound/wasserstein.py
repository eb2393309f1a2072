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

from ._pool import DIRECTIONS, run_jobs, stream_rng
from ._special import log_gamma_ratio
from .errors import DimensionMismatch, UnequalSampleSizes, as_count, as_order
from .linalg import _sqnorms, as_matrix, psd_sqrt
from .model import _gauss_shifted_abs_moment

__all__ = [
    "GaussianLaw",
    "EmpiricalEstimate",
    "gaussian_w2",
    "gaussian_w2_rows",
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
    """Exact W2 between Gaussian laws: the one-law case of :func:`gaussian_w2_rows`."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} disagree")
    return float(gaussian_w2_rows(a.mean[None], a.cov[None], b)[0])


def gaussian_w2_rows(means, covs, b: GaussianLaw) -> np.ndarray:
    """Each law ``(means[k], covs[k])``'s exact W2 to ``b``."""
    means, covs = np.asarray(means, dtype=float), np.asarray(covs, dtype=float)
    if means.ndim != 2 or means.shape[1] != b.dim or covs.shape != (*means.shape, b.dim):
        raise DimensionMismatch(f"laws {means.shape}, {covs.shape} against dimension {b.dim}")
    if b.dim > 1:  # the roots check each covariance
        return _w2_bures(means - b.mean, covs, b)
    var = as_matrix(covs[:, 0], square=False, name="covs")[:, 0].tolist()
    return np.array([_w2_1d(m, v, b) for m, v in zip((means[:, 0] - b.mean[0]).tolist(), var)])


def _w2_1d(dm: float, var: float, b: GaussianLaw) -> float:
    """W2 in one dimension: the standard-deviation gap, free of the trace form's cancellation."""
    return math.hypot(dm, math.sqrt(max(var, 0.0)) - math.sqrt(max(float(b.cov[0, 0]), 0.0)))


def _w2_bures(dm: np.ndarray, covs: np.ndarray, b: GaussianLaw) -> np.ndarray:
    """W2 against ``b`` of the laws with mean gaps ``dm (..., d)`` and covariances ``covs``."""
    ra = psd_sqrt(covs)
    cross = psd_sqrt(ra @ b.cov @ ra)
    bures = covs.trace(axis1=-2, axis2=-1) + b.cov.trace() - 2.0 * cross.trace(axis1=-2, axis2=-1)
    return np.sqrt(_sqnorms(dm) + np.maximum(bures, 0.0))


def empirical_w1d(xs, ys, r: float = 1.0) -> EmpiricalEstimate:
    """Order-r distance between equal-size 1-D samples by quantile matching.

    Sorting both samples realizes the optimal coupling exactly, so the value
    is ``(mean |x_(i) - y_(i)|^r)^{1/r}`` with no estimation error beyond
    the samples themselves.
    """
    as_order(r)  # the sorted (comonotone) coupling is optimal only for a convex cost
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
    as_order(r)
    if s1 < 0 or s2 < 0:
        raise ValueError("standard deviations must be nonnegative")
    dm, ds = m2 - m1, s2 - s1
    if r == 2:
        return math.hypot(dm, ds)
    return _gauss_shifted_abs_moment(dm, abs(ds), r) ** (1.0 / r)


def _log_sphere_moment_ratio(d: int, r: float) -> float:
    # Gamma(1/2 + r/2) / Gamma(1/2) over Gamma(d/2 + r/2) / Gamma(d/2), each ratio as
    # its leading power z**(r/2) times the small remainder log_gamma_ratio gives
    h = r / 2.0
    return log_gamma_ratio(0.5, h) - log_gamma_ratio(d / 2.0, h) - h * math.log(d)


def sphere_moment_ratio(d: int, r: float) -> float:
    """Uniform sphere average of ``|v_1|^r``: Gamma-ratio closed form.

    Equals ``Gamma((r+1)/2) Gamma(d/2) / (Gamma((r+d)/2) sqrt(pi))``; at
    ``r = 2`` this is exactly ``1/d``.
    """
    d = as_count(d, "d", 2)
    as_order(r)
    return float(math.exp(_log_sphere_moment_ratio(d, r)))


def _directions(d: int, n_distinct: int, seed: int) -> np.ndarray:
    rng = stream_rng(seed, DIRECTIONS)
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
    n_distinct = (n_directions + 1) // 2
    if mode == "equispaced":
        if d != 2:
            raise ValueError("equispaced directions are available only in d = 2")
        ang = np.pi * np.arange(n_distinct) / n_distinct
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), True
    if mode == "random":
        return _directions(d, n_distinct, seed), False
    raise ValueError(f"unknown mode {mode!r}")


def _shift_noise_scale(xs: np.ndarray, var_y: float, r: float) -> float:
    """One-sigma proxy for the sampling noise of the sliced estimate.

    The estimator is 1-Lipschitz under a common shift of either sample, so
    the fluctuation of the two ensemble means propagates with direction
    weight at most ``c(d, r)^{1/r}``; the mean noise itself has magnitude
    ``sqrt((tr cov_x + var_y) / n)`` with ``var_y = tr cov_y``.
    """
    n, d = xs.shape
    tr = float(np.var(xs, axis=0, ddof=1).sum() + var_y)
    return math.exp(_log_sphere_moment_ratio(d, r) / r) * math.sqrt(tr / n)


# The projections run as fixed jobs of about ``_BLOCK_ROWS`` directions, each
# product in column tiles of about ``_TILE_MADDS`` multiply-adds.  OpenBLAS
# hands a product of more than 2^18 multiply-adds to its own threads, which
# spin on the CPUs the sort workers need; a tile of 2^17 stays on its worker.
# Jobs and tiles depend on the shape alone, never on the worker count.  An
# entry keeps its bits under such splits only while every piece goes to the
# same BLAS kernel: with OpenBLAS 0.3.31 (AVX-512) that holds for tile widths
# that are multiples of ``_ALIGN`` (a job's last tile is zero-padded to one) and
# ``d < _MAX_SPLIT_DEPTH``; column tails below 16 and depth 32 or more take
# kernels picked by the product's shape, so that depth runs as one product.
_BLOCK_ROWS = 16
_TILE_MADDS = 1 << 17
_ALIGN = 16
_MAX_SPLIT_DEPTH = 32


def _edges(n: int, step: int) -> list[int]:
    """``0, step, 2 step, ..., n``: the last piece takes the remainder, so it is never
    shorter than ``step`` (a lone row or column would be a matrix-vector product)."""
    return [0, *range(step, n - step + 1, step), n]


def _projection_jobs(n_distinct: int, n: int, d: int) -> list[tuple[int, int, list[int]]]:
    """``(first direction, end direction, column tile edges)`` of each projection job; the
    edges run to ``n`` rounded up to a multiple of ``_ALIGN``."""
    if d >= _MAX_SPLIT_DEPTH:
        return [(0, n_distinct, [0, n])]
    rows = _edges(n_distinct, _BLOCK_ROWS)
    return [(lo, hi, _edges(-(-n // _ALIGN) * _ALIGN,
                            max(_ALIGN, _TILE_MADDS // ((hi - lo) * d) // _ALIGN * _ALIGN)))
            for lo, hi in zip(rows, rows[1:])]


def _sorted_projections(xs: np.ndarray, dirs: np.ndarray, out: np.ndarray, cols: list[int]):
    """Projections of ``xs`` on ``dirs`` into the ``(directions, cols[-1])`` scratch ``out``,
    tile ``cols[k]:cols[k + 1]`` at a time, zero rows padding ``xs`` past ``n``; returns the
    first ``n`` columns, each row sorted in place."""
    n = xs.shape[0]
    for lo, hi in zip(cols, cols[1:]):
        tile = xs[lo:hi] if hi <= n else np.vstack((xs[lo:], np.zeros((hi - n, xs.shape[1]))))
        np.matmul(dirs, tile.T, out=out[:, lo:hi])
    out[:, :n].sort(axis=1)
    return out[:, :n]


def _sliced_estimate(powers, r, n, n_directions, seed, deterministic, shift_se):
    """The estimate from the per-direction ``W_r^r`` of one sample pair."""
    mean_pow = float(powers.mean())
    value = mean_pow ** (1.0 / r)
    if deterministic:
        stderr = 0.0
    else:
        n_distinct = powers.shape[0]
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
    return sliced_empirical_sweep([xs], ys, r, n_directions, seed, mode)[0]


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
    the directions, the sorted projections of ``ys`` and its variance are
    computed once, which is what bound-validation sweeps over time steps
    need.  The distinct directions are split into fixed blocks run on the
    worker pool (``ERGOBOUND_THREADS``); each job projects and sorts ``ys``
    and every step for its own directions and keeps their per-direction
    ``W_r^r``, so the estimates are bit-identical for any worker count.

    Memory: each running job holds two blocks of 16 to 31 directions by ``n``
    (padded to 16), so below ``d = 32`` the scratch is at most ``workers * 2 *
    31 * (n + 15) * 8`` bytes plus the ``(steps, directions)`` powers.
    """
    as_order(r)
    n_directions = as_count(n_directions, "n_directions")
    ys = np.asarray(ys, dtype=float)
    xs_list = [_check_sample_pair(xs, ys)[0] for xs in xs_list]
    if not xs_list:
        return []
    n = ys.shape[0]
    dirs, deterministic = _sliced_directions(ys.shape[1], n_directions, seed, mode)
    powers = np.empty((len(xs_list), dirs.shape[0]))  # (steps, directions) of W_r^r

    def run(lo: int, hi: int, cols: list[int]) -> None:
        sorted_y = _sorted_projections(ys, dirs[lo:hi], np.empty((hi - lo, cols[-1])), cols)
        scratch = np.empty((hi - lo, cols[-1]))
        for step, xs in enumerate(xs_list):
            gaps = _sorted_projections(xs, dirs[lo:hi], scratch, cols)
            np.subtract(gaps, sorted_y, out=gaps)
            np.abs(gaps, out=gaps)
            if r != 1:
                gaps **= r
            powers[step, lo:hi] = gaps.mean(axis=1)

    run_jobs(run, _projection_jobs(dirs.shape[0], n, ys.shape[1]))
    var_y = 0.0 if deterministic else np.var(ys, axis=0, ddof=1).sum()
    return [
        _sliced_estimate(
            row, r, n, n_directions, seed, deterministic,
            0.0 if deterministic else _shift_noise_scale(xs, var_y, r),
        )
        for xs, row in zip(xs_list, powers)
    ]
