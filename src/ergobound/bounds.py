"""Ergodicity bound evaluation for stable state-space recursions.

Every bound flavor produces a :class:`BoundReport` with the distance
sandwich ``[lower, upper]`` at a time step, the mean/noise split of the
additive upper bounds, and the constants that entered.  Gaussian flavors
compare the time-t law against the stationary law through the affine
interpolation route; generic flavors use coupling estimates valid for any
noise with enough moments.

Where several upper estimates form a chain of successively cheaper
forms, all of them are evaluated; reports carry the minimum together
with the chain members in ``details``.  The estimates are derived for
positive time steps; reports at ``t = 0`` evaluate the same expressions
and set ``details["t_in_stated_range"]`` accordingly.

:func:`sweep` evaluates a flavor over an array of steps in one pass;
:func:`report` and the per-flavor functions are its single-step views.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._special import log_gamma_ratio
from .errors import (
    DimensionMismatch,
    MomentUnavailable,
    NotPSD,
    NotSchurStable,
    NotSymmetric,
    SingularStationaryCovariance,
    as_count,
    as_order,
    as_step,
)
from .linalg import (StarNorm, _last, _once, _read_only, as_matrix, fro, row_norms,
                     smallest_eigenvalue_sym)
from .model import StateSpaceModel, stationary_cov_positive
from .wasserstein import GaussianLaw, sphere_moment_ratio

__all__ = [
    "FLAVORS",
    "BoundReport",
    "report",
    "sweep",
    "gaussian_abs_moment",
    "sphere_moment_ratio",
    "exact_w2_ar1",
    "exact_ar1_report",
    "law_at",
    "stationary_law",
    "stationary_mean",
    "gaussian_affine_bounds",
    "projected_bounds",
    "sliced_gauss_bounds",
    "generic_bounds",
    "diagonalizable_bounds",
    "sliced_generic_bounds",
    "parallel_bounds",
    "empirical_mean_bounds",
    "chafai_w2_affine",
]


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: sandwich, additive split, constants, extras."""

    t: int
    flavor: str
    order: float
    lower: float
    upper: float
    mean_part: float
    noise_part: float
    constants_used: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def gaussian_abs_moment(d: int, r: float) -> float:
    """``(E|N_d|^r)^{1/r}`` for a standard Gaussian vector in R^d.

    ``|N_d|`` is chi(d)-distributed, giving the closed form
    ``(2^{r/2} Gamma((d+r)/2) / Gamma(d/2))^{1/r}``, which is ``sqrt(d)`` times the
    ``1/r``-th power of ``Gamma(d/2 + r/2) / (Gamma(d/2) (d/2)^{r/2})``.
    """
    d = as_count(d, "d")
    as_order(r)
    return math.sqrt(d) * math.exp(log_gamma_ratio(d / 2.0, r / 2.0) / r)


# ---------------------------------------------------------------------------
# exact 1-D formula


def exact_w2_ar1(q: float, sigma: float, x: float, t: int) -> float:
    """Exact W2 between the time-t and stationary laws of a scalar Gaussian AR(1).

    ``sqrt(q^{2t} x^2 + sigma^2/(1-q^2) * q^{4t} / (sqrt(1-q^{2t}) + 1)^2)``;
    the two summands are the squared mean gap and the squared standard
    deviation gap, the latter decaying at twice the exponential rate.
    """
    return exact_ar1_report(q, sigma, x, t).upper


def exact_ar1_report(q: float, sigma: float, x: float, t: int) -> BoundReport:
    """Wrap the exact scalar value as a degenerate report (lower = upper)."""
    return _exact_ar1(q, sigma, x, (as_step(t),))[0]


def _exact_ar1(q: float, sigma: float, x: float, ts) -> list[BoundReport]:
    """The exact reports per step: the mean gap and the standard-deviation gap as parts."""
    if abs(q) >= 1.0:
        raise NotSchurStable(f"|q| = {abs(q)} must be below 1")
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    reports, var_inf = [], sigma * sigma / (1.0 - q * q)
    for t in ts:
        q2t = q ** (2 * t)
        mean_sq = q2t * x * x
        noise_sq = var_inf * q ** (4 * t) / (math.sqrt(1.0 - q2t) + 1.0) ** 2
        value = math.sqrt(mean_sq + noise_sq)
        reports.append(BoundReport(t, "exact_ar1", 2.0, value, value, math.sqrt(mean_sq),
                                   math.sqrt(noise_sq), {"q": q, "sigma": sigma},
                                   {"exact": True, "t_in_stated_range": t >= 1}))
    return reports


# ---------------------------------------------------------------------------
# model-level laws and helpers


def stationary_mean(model: StateSpaceModel) -> np.ndarray:
    """``(I - Q)^{-1} Sigma E[xi_1]``, the mean of the stationary law (read-only)."""
    return model.stationary_mean


def law_at(model: StateSpaceModel, x, t: int, B=None) -> GaussianLaw:
    """Gaussian law of ``B X_t(x)`` (finite Neumann sums for mean and covariance)."""
    t = as_step(t)
    _require_gaussian(model)
    return _laws(model, x, [t], B)[0]


# the Neumann sums of the last model asked at the last step reached, keyed on a weak reference
# to it and that step; one slot for the process, which holds one model's sums but not the model
_SUMS: list = [((None, 0), None)]


def _neumann_sums(model: StateSpaceModel, t: int) -> tuple:
    """``sum_{j<t} Q^j Sigma E[xi]``, ``sum_{j<t} Q^j Cov(Sigma xi) Q^jT`` and ``Q^t``, read-only.

    The three are kept for the last model asked, at the last step reached: O(d^2) floats
    and never a list of steps.  A call on that model at that step or a later one resumes
    from them, one power per step, so increasing steps to ``T`` cost O(T) products in all;
    an earlier step or another model starts from 0.
    """
    def resume():  # the sums, then the term Sigma E[xi] they add, kept beside them
        (ref, at), sums = _SUMS[0]
        if ref is not key[0] or at > t:
            m = _read_only(model.Sigma @ model.noise.mean_vector())
            at, sums = 0, (np.zeros(model.d), np.zeros((model.d, model.d)), np.eye(model.d), m)
        drift, cov, P, m = sums
        for _ in range(t - at):
            drift, cov, P = drift + P @ m, cov + P @ model.noise_cov @ P.T, model.Q @ P
        return _read_only(drift), _read_only(cov), _read_only(P), m

    key = (weakref.ref(model), t)
    return _last(_SUMS, key, resume)[:3]


def _laws(model: StateSpaceModel, x, ts, B=None) -> list[GaussianLaw]:
    """:func:`law_at` for each of the steps ``ts``, in any order: ``Q^t x`` from
    :func:`_power_rows`, the noise parts from :func:`_neumann_sums` in increasing steps;
    nothing is added to ``Q^0 x``."""
    x, ts = _start(model, x), list(ts)
    B = np.eye(model.d) if B is None else as_matrix(B, square=False, name="B")
    means = _per_step(model, x, ts, "x", lambda: _read_only(_power_rows(model, ts, (x,))[0][:, 0]))
    laws = [None] * len(ts)
    for i in sorted(range(len(ts)), key=ts.__getitem__):
        t, mean = ts[i], means[i]
        drift, cov, _ = _neumann_sums(model, t)
        laws[i] = GaussianLaw(mean=B @ (mean + drift if t else mean), cov=B @ cov @ B.T)
    return laws


def stationary_law(model: StateSpaceModel, B=None) -> GaussianLaw:
    """Gaussian stationary law of ``B X_inf``."""
    _require_gaussian(model)
    B = np.eye(model.d) if B is None else as_matrix(B, square=False, name="B")
    return GaussianLaw(mean=B @ model.stationary_mean, cov=B @ model.stationary_cov @ B.T)


def _require_gaussian(model: StateSpaceModel) -> None:
    if model.noise.family != "gaussian":
        raise ValueError("this flavor requires Gaussian noise")


# ---------------------------------------------------------------------------
# the bound engine: t-invariant constants once per call, the rest per step

FLAVORS = ("exact_ar1", "gauss_affine", "projected", "sliced_gauss", "generic",
           "generic_diag", "sliced_generic", "parallel", "empirical_mean")


def _star(model: StateSpaceModel, star: StarNorm | None) -> StarNorm:
    """The caller's contraction norm, or the model's default one."""
    if star is None:
        return model.star
    if star.dim != model.d:
        raise DimensionMismatch("star norm dimension does not match the model")
    return star


def _vec(x) -> np.ndarray:
    return np.array(x, dtype=float, ndmin=1)


def _start(model: StateSpaceModel, x) -> np.ndarray:
    """The start ``x`` as a float vector: ``DimensionMismatch`` unless it has length ``d``,
    ``ValueError`` for a non-finite entry."""
    x = _vec(x)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"x must have length d = {model.d}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


# the most single-step rows kept for one start: a long loop of single steps holds O(d)
# floats for each of these, not for each of its steps
_KEPT_ROWS = 1024

# the last single-step call's rows {(kind, t): rows}, keyed on a weak reference to its model
# and its start's bytes; one slot for the process, which holds one model's rows but not the model
_ROWS: list = [(None, None)]


def _per_step(model: StateSpaceModel, x: np.ndarray, ts: list, kind: str, compute):
    """``compute()``, the ``kind`` rows at start ``x`` for the steps ``ts``.

    A single step's rows are kept for the last model and start only: single-step calls
    at one ``(x, t)`` compute them once, and a call at another model or start replaces
    the rows of the one before, as does the row past ``_KEPT_ROWS``.  A sweep computes
    its rows and keeps none.
    """
    if len(ts) != 1:
        return compute()
    rows = _last(_ROWS, (weakref.ref(model), x.tobytes()), dict)
    if len(rows) >= _KEPT_ROWS:
        rows.clear()
    return _once(rows, (kind, ts[0]), compute)


def _power_rows(model: StateSpaceModel, ts: list, zs, vs=()) -> list[np.ndarray]:
    """Rows ``Q^t z`` for the ``zs``, then rows ``(Q^t)^T v`` for the ``vs``: one
    ``(len(ts), len(group), d)`` array per non-empty group.

    Bit ``k`` of ``t`` multiplies a row by ``Q^(2^k)``, the squares kept on the model, so
    a row costs O(d^2 log t) and no ``Q^t`` is formed.  Each step makes its own stacked
    product per level, so its bits do not depend on the other steps of ``ts``.
    """
    kept, levels = model._bound_constants, max(ts, default=0).bit_length()
    ladder = kept.get(("power_ladder", levels), (model.Q,))
    while len(ladder) < levels:  # each longer ladder kept whole, so no thread sees one half-grown
        ladder = _once(kept, ("power_ladder", len(ladder) + 1),
                       lambda: ladder + (ladder[-1] @ ladder[-1],))
    stacks = [[np.array(g, dtype=float)[None].repeat(len(ts), axis=0), transpose]
              for g, transpose in ((zs, True), (vs, False)) if len(g)]
    for k in range(levels):
        hit = [i for i, t in enumerate(ts) if t >> k & 1]
        for stack in stacks if hit else ():
            M = ladder[k].T if stack[1] else ladder[k]
            if len(hit) == len(ts):  # every row: the same per-row products, without a gather
                stack[0] = stack[0] @ M
            else:
                stack[0][hit] = stack[0][hit] @ M
    return [rows for rows, _ in stacks]


def _gap_rows(model: StateSpaceModel, x: np.ndarray, ts: list) -> np.ndarray:
    """The ``(len(ts), d)`` rows ``Q^t (x - m_inf)``, kept as :func:`_per_step`'s ``"gap"``."""
    return _per_step(model, x, ts, "gap", lambda: _read_only(
        _power_rows(model, ts, (x - model.stationary_mean,))[0][:, 0]))


def _gap_norms(model: StateSpaceModel, x: np.ndarray, ts: list) -> list:
    """The norms of :func:`_gap_rows`, kept beside them as ``"gap_norms"``: the lower bounds
    of ``sliced_gauss`` and of the coupling flavors."""
    return _per_step(model, x, ts, "gap_norms", lambda: row_norms(_gap_rows(model, x, ts)).tolist())


def lambda_minus(model: StateSpaceModel, B=None) -> float:
    """Smallest eigenvalue of ``B Sigma_inf B^T`` (``B = I`` by default), solved once per
    model and ``B`` (keyed on its bytes); raises ``SingularStationaryCovariance`` unless
    it is safely positive."""
    def solve():
        cov = model.stationary_cov if B is None else B @ model.stationary_cov @ B.T
        lam = model.lambda_min if B is None else smallest_eigenvalue_sym(cov)
        if not stationary_cov_positive(lam, cov):
            raise SingularStationaryCovariance(
                f"smallest stationary eigenvalue {lam:.3e} is not safely positive")
        return lam

    key = ("lambda_minus", None if B is None else (B.tobytes(), B.shape))
    return _once(model._bound_constants, key, solve)


def sweep(model: StateSpaceModel, flavor: str, x, r: float, ts, *, star: StarNorm | None = None,
          v=None, mode: str = "jensen_consistent", n_copies: int = 1,
          per_copy_flavor: str = "generic", B=None) -> list[BoundReport]:
    """The ``flavor`` reports at start ``x`` and order ``r``, one per step of ``ts``.

    The one flavor dispatch.  Constants free of ``t`` are solved once (and
    kept on the model); ``Q^t z`` comes from the model's squares ``Q^(2^k)``
    row by row (:func:`_power_rows`), so row ``t`` equals ``report(t)``.
    ``r`` is the ``p`` of the coupling flavors; ``star`` defaults to the
    model's own.  ``B`` maps ``gauss_affine`` (the identity when omitted), ``v``
    is the unit direction of ``projected`` and ``mode`` the mean constant of
    ``sliced_gauss``.  ``parallel`` scales the ``per_copy_flavor`` reports to
    ``n_copies`` copies; ``empirical_mean`` averages ``n_copies`` paths.
    Every flavor needs a finite order ``r >= 1``.
    """
    ts = [as_step(t) for t in list(ts)]  # list() sizes a range at once: too long fails here
    return _sweep(model, flavor, x, as_order(r), ts, star, v, mode,
                  as_count(n_copies, "n_copies"), per_copy_flavor, B)


def _sweep(model, flavor, x, r, ts, star, v, mode, n, per_copy_flavor, B):
    """:func:`sweep` at a checked order ``r``, checked steps ``ts`` and ``n`` copies."""
    x = _start(model, x)
    if flavor == "exact_ar1":
        if model.d != 1 or model.noise.family != "gaussian":
            raise ValueError("exact_ar1 needs a scalar Gaussian model")
        if model.noise.mean_vector()[0] != 0.0:
            raise ValueError("exact_ar1 needs centered noise")
        return _exact_ar1(float(model.Q[0, 0]), math.sqrt(model.noise_cov[0, 0]), float(x[0]), ts)
    if flavor == "parallel":
        if per_copy_flavor == "parallel":
            raise ValueError("the per-copy flavor of parallel cannot be parallel")
        per_copy = _sweep(model, per_copy_flavor, x, r, ts, star, v, mode, n, None, B)
        return [_parallel(rep, n, r) for rep in per_copy]
    if flavor in ("gauss_affine", "projected", "sliced_gauss"):
        return _gaussian(model, flavor, x, r, ts, star, B, v, mode)
    if flavor in ("generic", "generic_diag", "sliced_generic", "empirical_mean"):
        return _coupling(model, flavor, x, r, ts, star, n)
    raise ValueError(f"unknown flavor {flavor!r}")


def report(model: StateSpaceModel, flavor: str, x, r: float, t: int, **options) -> BoundReport:
    """The ``flavor`` report at step ``t``: ``sweep(model, flavor, x, r, (t,), **options)[0]``."""
    return sweep(model, flavor, x, r, (t,), **options)[0]


def _report(star, flavor, order, t, lower, upper, mean_part, noise_part, constants, details):
    """A report with the star constants and ``t_in_stated_range`` filled in."""
    constants = {"star_norm": star.value, "K_d": star.K_d, "C_star": star.C_star,
                 "kappa": star.kappa, **constants}
    return BoundReport(t, flavor, order, lower, upper, mean_part, noise_part, constants,
                       {**details, "t_in_stated_range": t >= 1})


# ---------------------------------------------------------------------------
# Gaussian flavors


def _gaussian(model, flavor, x, r, ts, star, B, v, mode) -> list[BoundReport]:
    """The Gaussian flavors: the mean gap ``|Q^t (x - mean_inf)|`` plus the noise tail.

    The tail is ``C*^2 ||Sigma||_F^2 ||cov||_F s^(2t) / ((1 - s^2) denom)``,
    ``cov`` the noise covariance, scaled by ``(E|N_k|^r)^(1/r)``.
    """
    _require_gaussian(model)
    k, details = 1, {}
    if flavor == "gauss_affine" and B is not None:
        B = as_matrix(B, square=False, name="B")
        if B.shape[1] != model.d:
            raise DimensionMismatch("B must have d columns")
    if flavor == "projected":
        v = _vec(v)
        if v.shape[0] != model.d:
            raise DimensionMismatch("v must have length d")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:  # a NaN entry fails too
            raise ValueError("v must be a unit vector")
    if flavor == "sliced_gauss" and model.d < 2:
        raise ValueError("sliced bounds need dimension at least 2")
    if flavor == "sliced_gauss" and mode not in ("as_printed", "jensen_consistent"):
        raise ValueError(f"unknown mode {mode!r}")
    if flavor == "gauss_affine":
        k = model.d if B is None else B.shape[0]
    star = _star(model, star)
    s = star.value
    # the t-free tail before lambda_minus: where its constants overflow, the refusal
    # comes without the Stein solve and eigensolve
    tail, moment = _once(model._bound_constants, ("gauss_tail", star.C_star, k, r), lambda: (
        star.C_star**2 * fro(model.Sigma) ** 2 * fro(model.noise.covariance()),
        gaussian_abs_moment(k, r)))
    lam = lambda_minus(model, B if flavor == "gauss_affine" else None)
    if flavor == "gauss_affine":
        B = np.eye(model.d) if B is None else B
        scale = fro(B) ** 2
        details = {"hemmen_ando_constant": "1/sqrt(lambda_minus)"}
    if flavor == "sliced_gauss":
        c_tilde = sphere_moment_ratio(model.d, r)
        mean_const = c_tilde if mode == "as_printed" else c_tilde ** (1.0 / r)
        details = {"mode": mode, "moment_ratio": c_tilde}
    wcw = itertools.repeat(None)
    if flavor == "sliced_gauss":
        gaps = _gap_norms(model, x, ts)
    elif flavor == "gauss_affine":
        gaps = row_norms(np.matmul(B, _gap_rows(model, x, ts)[:, :, None])[:, :, 0]).tolist()
    else:
        # Sigma_t = Sigma_inf - Q^t Sigma_inf Q^tT, so with w = Q^tT v:
        # <v, (Sigma_t + Sigma_inf) v> = 2 <v, Sigma_inf v> - <w, Sigma_inf w>
        cov, w = model.stationary_cov, _power_rows(model, ts, (), (v,))[0][:, 0]
        gaps = np.abs(np.matmul(v, _gap_rows(model, x, ts)[:, :, None])[:, 0]).tolist()
        wcw = np.matmul(np.matmul(w[:, None, :], cov), w[:, :, None])[:, 0, 0].tolist()
        vcv = float(v @ cov @ v)
    reports = []
    for t, lower, w_sq in zip(ts, gaps, wcw):
        decay = tail * s ** (2 * t)
        fin = decay / ((1.0 - s * s) * math.sqrt(lam)) * moment
        if flavor == "gauss_affine":
            noise = scale * fin
        elif flavor == "sliced_gauss":
            lower, noise = mean_const * lower, fin
        else:
            mid = decay / ((1.0 - s * s) * math.sqrt(2.0 * vcv - w_sq)) * moment
            noise = min(mid, fin)
            details = {"upper_middle": lower + mid, "upper_final": lower + fin}
        reports.append(_report(star, flavor, r, t, lower, lower + noise, lower, noise,
                               {"lambda_minus": lam}, details))
    return reports


# ---------------------------------------------------------------------------
# generic (coupling) flavors


def _coupling_constants(model, p: float, majorant: bool) -> tuple:
    """The t-invariant part of the coupling routes: the first and order-``p`` moment roots
    of the centered noise ``xi - E xi`` (with ``majorant``, the order-``p`` root is the
    n-free majorant ``||Sigma||_F (E|xi - E xi|^p)^{1/p}``)."""
    noise = model.noise.centered
    if majorant:
        mp_root = fro(model.Sigma) * noise.moment_root(np.eye(model.d), p)
    else:
        mp_root = noise.moment_root(model.Sigma, p)
    return noise.moment_root(model.Sigma, 1.0), mp_root


def _coupling(model, flavor, x, p, ts, star, n) -> list[BoundReport]:
    """Routes (a)/(b) of the coupling flavors, on the centered recursion ``X_t - mean_inf``
    from ``x - mean_inf`` with noise ``xi - E xi``.  ``sliced_generic`` scales the mean terms
    by the r = 1 sphere ratio; ``generic_diag`` takes ``|Q^t z|`` and route (a)'s
    ``K_d s^t`` from the eigen sandwich, as ``||U||_F ||U^{-1}||_F rho^t``;
    ``empirical_mean``'s route (b) takes the n-free majorant (``_coupling_constants``).

    The routes are reliable upper bounds only for ``1 <= p <= 2`` at ``t >= 1``, which
    ``details["coupling_regime_sound"]`` records.  Two mechanisms can make them undershoot
    the true distance: the moment split of the noise tail is only valid up to ``p = 2``
    (von Bahr-Esseen, for the centered noise the routes read), and the tail starts one step
    past ``t``, so the missing leading term bites at ``t = 0``.
    """
    weight, constants, sw = 1.0, {}, None
    if flavor == "sliced_generic":
        if model.d < 2:
            raise ValueError("sliced bounds need dimension at least 2")
        weight = sphere_moment_ratio(model.d, 1.0)
        constants = {"moment_ratio_r1": weight}
    elif flavor == "generic_diag":
        sw = model.sandwich
        constants = {"U_fro": sw.u_fro, "U_inv_fro": sw.uinv_fro, "rho": sw.rho}
    if not model.noise.has_moment(p):
        raise MomentUnavailable(f"order {p} moment unavailable for this noise")
    star = _star(model, star)
    s = star.value

    def coupling(majorant):
        return _once(model._bound_constants, ("coupling", p, majorant),
                     lambda: _coupling_constants(model, p, majorant))

    m1_root, mp_root = coupling(flavor == "empirical_mean")
    gap = x - model.stationary_mean  # x itself for centered noise: x - 0.0 is x
    start = math.sqrt(gap @ gap) + star.K_d * m1_root * s / (1.0 - s)  # as np.linalg.norm
    root_p = (1.0 - s**p) ** (1.0 / p)
    if sw is None:  # per step [|Q^t gap|, |Q^t gap|]
        norms = _gap_norms(model, x, ts)
        rows = zip(norms, norms)
        const, rate = star.K_d, s
    else:
        def cores():
            core = sw.cores(ts, gap)
            return list(zip((core / sw.uinv_fro).tolist(), (sw.u_fro * core).tolist()))

        rows = _per_step(model, x, ts, "cores", cores)
        const, rate = sw.u_fro * sw.uinv_fro, sw.rho
    if flavor == "empirical_mean" and model.noise.family == "gaussian":
        # the mean of n i.i.d. centered Gaussian drivers has the law of one over sqrt(n)
        exact_n = star.K_d * coupling(False)[1] / math.sqrt(n)
    reports = []
    for t, (low, high) in zip(ts, rows):
        lower, mean_b = weight * low, weight * high
        upper_a = weight * const * rate**t * start
        noise_b = star.K_d * mp_root * s ** (t + 1) / root_p
        details = {"upper_a": upper_a, "upper_b": mean_b + noise_b,
                   "coupling_regime_sound": bool(p <= 2.0 and t >= 1)}
        if sw is not None:
            details["upper_b_eigenrate"] = mean_b + (const * mp_root * rate ** (t + 1) / (
                1.0 - rate**p) ** (1.0 / p) if rate > 0.0 else 0.0)
        if flavor == "empirical_mean":
            details["n_copies"] = n
            if model.noise.family == "gaussian":
                details["upper_b_exact_n"] = mean_b + exact_n * s ** (t + 1) / root_p
        reports.append(_report(star, flavor, p, t, lower, min(upper_a, mean_b + noise_b),
                               mean_b, noise_b, constants, details))
    return reports


# ---------------------------------------------------------------------------
# the per-flavor views: one step of the sweep each


def gaussian_affine_bounds(model: StateSpaceModel, B, x, r: float, t: int,
                           star: StarNorm | None = None) -> BoundReport:
    """Affine-interpolation sandwich for ``W_r(B X_t(x), B X_inf)``, Gaussian noise.

    ``B = None`` is the identity.  Lower bound is the mean gap ``|B Q^t (x -
    mean_inf)|``.  The noise part of the upper bound controls the Frobenius
    gap of the covariance square roots through the matrix square-root
    Lipschitz estimate with constant ``1/sqrt(lambda_minus)``; dividing by
    ``lambda_minus`` itself instead of its square root would break the
    sandwich whenever ``lambda_minus`` exceeds one
    (``details["hemmen_ando_constant"]`` records the choice).
    """
    return sweep(model, "gauss_affine", x, r, (t,), star=star, B=B)[0]


def projected_bounds(model: StateSpaceModel, v, x, r: float, t: int,
                     star: StarNorm | None = None) -> BoundReport:
    """Sandwich for the projection ``<v, X_t(x)>`` vs ``<v, X_inf>``.

    Two upper forms are computed: the sharper one with
    ``sqrt(<v, (Sigma_t + Sigma_inf) v>)`` in the denominator and the
    cheaper one with ``sqrt(lambda_minus)``; the report's upper is their
    minimum and ``details`` carries both chain members.
    """
    return sweep(model, "projected", x, r, (t,), star=star, v=v)[0]


def sliced_gauss_bounds(model: StateSpaceModel, x, r: float, t: int, star: StarNorm | None = None,
                        mode: str = "jensen_consistent") -> BoundReport:
    """Sliced order-r sandwich for Gaussian noise.

    The mean gap enters scaled by a sphere constant: ``mode="as_printed"``
    keeps the bare Gamma-ratio ``c(d, r)``, while the default
    ``mode="jensen_consistent"`` uses ``c(d, r)^{1/r}``, the exponent
    consistent with averaging r-th powers over directions before taking
    the final root (the convention of the empirical sliced estimator).
    Both modes coincide at ``r = 1``.
    """
    return sweep(model, "sliced_gauss", x, r, (t,), star=star, mode=mode)[0]


def generic_bounds(model: StateSpaceModel, x, p: float, t: int,
                   star: StarNorm | None = None) -> BoundReport:
    """Coupling sandwich for ``W_p(X_t(x), X_inf)``, any noise with p moments.

    The routes run on the centered recursion ``X_t - mean_inf``, whose noise is
    ``eta = xi - E xi``.  The upper bound is the minimum of two routes: (a) the
    stationarity coupling ``K_d s^t (|x - mean_inf| + K_d E|Sigma eta| s / (1 - s))``
    and (b) the tail route ``|Q^t (x - mean_inf)| + K_d (E|Sigma eta|^p)^{1/p}
    s^{t+1} / (1 - s^p)^{1/p}``.  Where no exact route gives a moment, a proven upper
    bound on it enters (``NoiseSpec.abs_moment_sigma``).

    The routes are evaluated as stated for every admissible input, but
    they are reliable upper bounds only for ``1 <= p <= 2`` at ``t >= 1``:
    orders past 2 can push the true distance above the evaluated tail
    (see ``_coupling``).
    ``details["coupling_regime_sound"]`` records whether the inputs are in
    the reliable regime.
    """
    return sweep(model, "generic", x, p, (t,), star=star)[0]


def diagonalizable_bounds(model: StateSpaceModel, x, p: float, t: int,
                          star: StarNorm | None = None) -> BoundReport:
    """Generic sandwich refined through the eigen-coordinate split.

    Matrix-power terms ``|Q^t z|`` are replaced by the two-sided estimate
    ``||U^{-1}||_F^{-1} S(z, t) <= |Q^t z| <= ||U||_F S(z, t)`` with
    ``S(z, t)^2 = sum |q_j|^{2t} |(U^{-1} z)_j|^2``; the noise tails keep
    the coupling constants.  The lower prefactor is ``||U^{-1}||_F^{-1}``,
    the square root of the squared-norm estimate; ``details`` additionally
    reports the noise tail at the eigenvalue rate with constant
    ``||U||_F ||U^{-1}||_F``.  ``U`` is the model's eigenvector matrix,
    inverted once per model (``StateSpaceModel.sandwich``).
    """
    return sweep(model, "generic_diag", x, p, (t,), star=star)[0]


def sliced_generic_bounds(model: StateSpaceModel, x, p: float, t: int,
                          star: StarNorm | None = None) -> BoundReport:
    """Sliced order-p coupling sandwich; mean terms carry the r = 1 sphere ratio.

    The order-1 sphere ratio multiplies the mean terms of both the lower
    bound and the upper routes, while the noise tail keeps its full
    (unprojected) constant.
    """
    return sweep(model, "sliced_generic", x, p, (t,), star=star)[0]


def parallel_bounds(per_copy: BoundReport, n: int, p: float) -> BoundReport:
    """Sandwich for n i.i.d. copies run in parallel.

    The joint distance scales between ``sqrt(n)`` times the per-copy mean
    gap and ``sqrt(n)`` times the per-copy upper bound.  When the per-copy
    report is exact and ``p = 2``, the tensorization identity gives the
    joint W2 exactly; it is reported in ``details["tensorized_w2"]``.
    """
    return _parallel(per_copy, as_count(n, "n"), p)


def _parallel(per_copy: BoundReport, n: int, p: float) -> BoundReport:
    """:func:`parallel_bounds` for a checked count ``n``."""
    root = math.sqrt(n)
    details = {"n_copies": n, "per_copy_flavor": per_copy.flavor}
    if p == 2 and per_copy.details.get("exact"):
        details["tensorized_w2"] = root * per_copy.upper
    return BoundReport(per_copy.t, "parallel", p, root * per_copy.lower, root * per_copy.upper,
                       root * per_copy.mean_part, root * per_copy.noise_part,
                       dict(per_copy.constants_used), details)


def empirical_mean_bounds(model: StateSpaceModel, n: int, x, p: float, t: int,
                          star: StarNorm | None = None) -> BoundReport:
    """Coupling sandwich for the empirical mean of n i.i.d. paths.

    The averaged process satisfies the same recursion with averaged noise,
    so the lower bound (and route (a)) coincide with the single-path case.
    Route (b) uses the n-free majorant ``||Sigma||_F (E|xi - E xi|^p)^{1/p}`` for
    the averaged-noise moment.  For Gaussian noise the averaged noise is the
    centered noise divided by ``sqrt(n)``, so the exact per-n route (b), reported
    in ``details["upper_b_exact_n"]``, takes ``generic``'s moment root over ``sqrt(n)``
    (at ``p > 2`` in ``d >= 2`` that root is Minkowski's upper bound on it).
    """
    return _sweep(model, "empirical_mean", x, as_order(p), [as_step(t)], star, None,
                  "jensen_consistent", as_count(n, "n"), None, None)[0]


def chafai_w2_affine(X_law: GaussianLaw, R, v) -> float:
    """Exact W2 between ``X`` and its affine image ``v + R X`` for PSD symmetric R.

    ``sqrt(Trace(S + R S R^T - 2 R S) + |v + (R - I) E[X]|^2)`` with ``S``
    the covariance of ``X``; the Brenier map for this pair is affine, which
    makes the usual lower bound an identity.
    """
    R = as_matrix(R, name="R").astype(float)
    v = _vec(v)
    if R.shape[0] != X_law.dim or v.shape[0] != X_law.dim:
        raise DimensionMismatch("R and v must match the law's dimension")
    if fro(R - R.T) > 1e-10 * max(1.0, fro(R)):
        raise NotSymmetric("R must be symmetric")
    w = np.linalg.eigvalsh(0.5 * (R + R.T))
    if w[0] < -1e-12 * max(1.0, float(w[-1])):
        raise NotPSD(f"R has eigenvalue {w[0]:.3e} below tolerance")
    S = X_law.cov
    trace_term = float(np.trace(S) + np.trace(R @ S @ R.T) - 2.0 * np.trace(R @ S))
    shift = v + (R - np.eye(X_law.dim)) @ X_law.mean
    return math.sqrt(max(trace_term, 0.0) + float(shift @ shift))
