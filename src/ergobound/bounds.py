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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .asymptotics import EigenSandwich
from .errors import (
    DimensionMismatch,
    MomentUnavailable,
    NotPSD,
    NotSchurStable,
    NotSymmetric,
    SingularStationaryCovariance,
)
from .linalg import StarNorm, as_matrix, fro, smallest_eigenvalue_sym
from .model import StateSpaceModel, stationary_cov_positive
from .wasserstein import GaussianLaw, sphere_moment_ratio

__all__ = [
    "FLAVORS",
    "BoundReport",
    "report",
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
    ``(2^{r/2} Gamma((d+r)/2) / Gamma(d/2))^{1/r}``.
    """
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    logm = (r / 2.0) * math.log(2.0) + gammaln((d + r) / 2.0) - gammaln(d / 2.0)
    return float(math.exp(logm / r))


# ---------------------------------------------------------------------------
# exact 1-D formula


def _ar1_gaps_sq(q: float, sigma: float, x: float, t: int) -> tuple[float, float]:
    """Squared mean gap and squared standard-deviation gap of a scalar Gaussian AR(1)."""
    if abs(q) >= 1.0:
        raise NotSchurStable(f"|q| = {abs(q)} must be below 1")
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    if t < 0:
        raise ValueError("t must be nonnegative")
    q2t = q ** (2 * t)
    mean_sq = q2t * x * x
    noise_sq = (sigma * sigma / (1.0 - q * q)) * q ** (4 * t) / (
        math.sqrt(1.0 - q2t) + 1.0
    ) ** 2
    return mean_sq, noise_sq


def exact_w2_ar1(q: float, sigma: float, x: float, t: int) -> float:
    """Exact W2 between the time-t and stationary laws of a scalar Gaussian AR(1).

    ``sqrt(q^{2t} x^2 + sigma^2/(1-q^2) * q^{4t} / (sqrt(1-q^{2t}) + 1)^2)``;
    the two summands are the squared mean gap and the squared standard
    deviation gap, the latter decaying at twice the exponential rate.
    """
    mean_sq, noise_sq = _ar1_gaps_sq(q, sigma, x, t)
    return math.sqrt(mean_sq + noise_sq)


def exact_ar1_report(q: float, sigma: float, x: float, t: int) -> BoundReport:
    """Wrap the exact scalar value as a degenerate report (lower = upper)."""
    mean_sq, noise_sq = _ar1_gaps_sq(q, sigma, x, t)
    value = math.sqrt(mean_sq + noise_sq)
    return BoundReport(
        t=t,
        flavor="exact_ar1",
        order=2.0,
        lower=value,
        upper=value,
        mean_part=math.sqrt(mean_sq),
        noise_part=math.sqrt(noise_sq),
        constants_used={"q": q, "sigma": sigma},
        details={"exact": True, "t_in_stated_range": t >= 1},
    )


# ---------------------------------------------------------------------------
# model-level laws and helpers


def stationary_mean(model: StateSpaceModel) -> np.ndarray:
    """``(I - Q)^{-1} Sigma E[xi_1]``, the mean of the stationary law (read-only)."""
    return model.stationary_mean


def law_at(model: StateSpaceModel, x, t: int, B=None) -> GaussianLaw:
    """Gaussian law of ``B X_t(x)`` (finite Neumann sums for mean and covariance)."""
    _require_gaussian(model)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    B = np.eye(model.d) if B is None else as_matrix(B, square=False, name="B")
    m = model.Sigma @ model.noise.mean_vector()
    V = model.noise_cov
    mean = np.linalg.matrix_power(model.Q, t) @ x
    cov = np.zeros((model.d, model.d))
    P = np.eye(model.d)
    for _ in range(t):  # powers j = 0 .. t-1
        mean = mean + P @ m
        cov = cov + P @ V @ P.T
        P = model.Q @ P
    return GaussianLaw(mean=B @ mean, cov=B @ cov @ B.T)


def stationary_law(model: StateSpaceModel, B=None) -> GaussianLaw:
    """Gaussian stationary law of ``B X_inf``."""
    _require_gaussian(model)
    B = np.eye(model.d) if B is None else as_matrix(B, square=False, name="B")
    return GaussianLaw(mean=B @ model.stationary_mean, cov=B @ model.stationary_cov @ B.T)


def _require_gaussian(model: StateSpaceModel) -> None:
    if model.noise.family != "gaussian":
        raise ValueError("this flavor requires Gaussian noise")


# ---------------------------------------------------------------------------
# the bound engine

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
    return np.atleast_1d(np.asarray(x, dtype=float))


def ar1_params(model: StateSpaceModel) -> tuple[float, float]:
    """``(q, sigma)`` of a scalar, scalar-driven, centered Gaussian model."""
    if model.d != 1 or model.noise.family != "gaussian":
        raise ValueError("exact_ar1 needs a scalar Gaussian model")
    if not model.noise.is_scalar_driven:
        raise ValueError("exact_ar1 needs scalar-driven noise")
    if model.noise.params["mean"] != 0.0:
        raise ValueError("exact_ar1 needs centered noise")
    sigma = abs(model.Sigma[0, 0] * model.noise.direction[0]) * math.sqrt(
        model.noise.params["var"]
    )
    return float(model.Q[0, 0]), float(sigma)


def lambda_minus(model: StateSpaceModel, B=None) -> float:
    """Smallest eigenvalue of ``B Sigma_inf B^T`` (``B = I`` by default).

    Raises ``SingularStationaryCovariance`` unless it is safely positive.
    """
    cov = model.stationary_cov
    if B is None:
        lam = model.lambda_min
    else:
        cov = B @ cov @ B.T
        lam = smallest_eigenvalue_sym(cov)
    if not stationary_cov_positive(lam, cov):
        raise SingularStationaryCovariance(
            f"smallest stationary eigenvalue {lam:.3e} is not safely positive"
        )
    return lam


def report(
    model: StateSpaceModel, flavor: str, x, r: float, t: int, *, star: StarNorm | None = None,
    v=None, mode: str = "jensen_consistent", mc_seed: int = 0, n_copies: int = 1,
    per_copy_flavor: str = "generic",
) -> BoundReport:
    """The ``flavor`` report at start ``x``, step ``t`` and order ``r``: the one flavor dispatch.

    ``r`` is the ``p`` of the coupling flavors, and ``star`` defaults to the
    model's own.  ``gauss_affine`` takes ``B = I``; ``v`` is the unit direction of
    ``projected`` and ``mode`` the mean constant of ``sliced_gauss``.
    ``parallel`` scales the ``per_copy_flavor`` report to ``n_copies``
    copies; ``empirical_mean`` averages ``n_copies`` paths.
    """
    if flavor == "exact_ar1":
        q, sigma = ar1_params(model)
        return exact_ar1_report(q, sigma, float(_vec(x)[0]), t)
    if flavor == "gauss_affine":
        return gaussian_affine_bounds(model, None, x, r, t, star)
    if flavor == "projected":
        return projected_bounds(model, v, x, r, t, star)
    if flavor == "sliced_gauss":
        return sliced_gauss_bounds(model, x, r, t, star, mode)
    if flavor == "generic":
        return generic_bounds(model, x, r, t, star, mc_seed)
    if flavor == "generic_diag":
        return diagonalizable_bounds(model, x, r, t, star, mc_seed)
    if flavor == "sliced_generic":
        return sliced_generic_bounds(model, x, r, t, star, mc_seed)
    if flavor == "parallel":
        if per_copy_flavor == "parallel":
            raise ValueError("the per-copy flavor of parallel cannot be parallel")
        per_copy = report(
            model, per_copy_flavor, x, r, t, star=star, v=v, mode=mode, mc_seed=mc_seed,
            n_copies=n_copies,
        )
        return parallel_bounds(per_copy, n_copies, r)
    if flavor == "empirical_mean":
        return empirical_mean_bounds(model, n_copies, x, r, t, star, mc_seed)
    raise ValueError(f"unknown flavor {flavor!r}")


def _report(
    model, star, flavor, order, t, lower, upper, mean_part, noise_part,
    constants=None, details=None,
) -> BoundReport:
    """A report with the star constants and ``t_in_stated_range`` filled in."""
    star = _star(model, star)
    constants = {"star_norm": star.value, "K_d": star.K_d, "C_star": star.C_star,
                 "kappa": star.kappa, **(constants or {})}
    details = {**(details or {}), "t_in_stated_range": t >= 1}
    return BoundReport(t, flavor, order, lower, upper, mean_part, noise_part, constants, details)


# ---------------------------------------------------------------------------
# Gaussian flavors


def _gauss_tail(model, star, r: float, k: int, t: int, denom: float) -> float:
    """Gaussian noise tail ``C*^2 ||Sigma||_F^2 ||cov||_F s^(2t) / ((1 - s^2) denom)``.

    ``cov`` is the noise covariance; the tail is scaled by ``(E|N_k|^r)^(1/r)``.
    """
    star = _star(model, star)
    s = star.value
    tail = star.C_star**2 * fro(model.Sigma) ** 2 * fro(model.noise.covariance())
    return tail * s ** (2 * t) / ((1.0 - s * s) * denom) * gaussian_abs_moment(k, r)


def gaussian_affine_bounds(
    model: StateSpaceModel, B, x, r: float, t: int, star: StarNorm | None = None
) -> BoundReport:
    """Affine-interpolation sandwich for ``W_r(B X_t(x), B X_inf)``, Gaussian noise.

    ``B = None`` is the identity.  Lower bound is the mean gap ``|B Q^t (x -
    mean_inf)|``.  The noise part of the upper bound controls the Frobenius
    gap of the covariance square roots through the matrix square-root
    Lipschitz estimate with constant ``1/sqrt(lambda_minus)``; dividing by
    ``lambda_minus`` itself instead of its square root would break the
    sandwich whenever ``lambda_minus`` exceeds one
    (``details["hemmen_ando_constant"]`` records the choice).
    """
    _require_gaussian(model)
    if B is not None:
        B = as_matrix(B, square=False, name="B")
        if B.shape[1] != model.d:
            raise DimensionMismatch("B must have d columns")
    lam = lambda_minus(model, B)
    if B is None:
        B = np.eye(model.d)
    gap = np.linalg.matrix_power(model.Q, t) @ (_vec(x) - model.stationary_mean)
    lower = float(np.linalg.norm(B @ gap))
    noise = fro(B) ** 2 * _gauss_tail(model, star, r, B.shape[0], t, math.sqrt(lam))
    return _report(
        model, star, "gauss_affine", r, t, lower, lower + noise, lower, noise,
        {"lambda_minus": lam}, {"hemmen_ando_constant": "1/sqrt(lambda_minus)"},
    )


def projected_bounds(
    model: StateSpaceModel, v, x, r: float, t: int, star: StarNorm | None = None
) -> BoundReport:
    """Sandwich for the projection ``<v, X_t(x)>`` vs ``<v, X_inf>``.

    Two upper forms are computed: the sharper one with
    ``sqrt(<v, (Sigma_t + Sigma_inf) v>)`` in the denominator and the
    cheaper one with ``sqrt(lambda_minus)``; the report's upper is their
    minimum and ``details`` carries both chain members.
    """
    _require_gaussian(model)
    v = _vec(v)
    if v.shape[0] != model.d:
        raise DimensionMismatch("v must have length d")
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("v must be a unit vector")
    lam = lambda_minus(model)
    P = np.linalg.matrix_power(model.Q, t)
    lower = float(abs(v @ (P @ (_vec(x) - model.stationary_mean))))
    # Sigma_t = Sigma_inf - Q^t Sigma_inf Q^tT, so with w = Q^tT v:
    # <v, (Sigma_t + Sigma_inf) v> = 2 <v, Sigma_inf v> - <w, Sigma_inf w>
    w, cov = P.T @ v, model.stationary_cov
    denom_sq = 2.0 * float(v @ cov @ v) - float(w @ cov @ w)
    mid = _gauss_tail(model, star, r, 1, t, math.sqrt(denom_sq))
    fin = _gauss_tail(model, star, r, 1, t, math.sqrt(lam))
    noise = min(mid, fin)
    return _report(
        model, star, "projected", r, t, lower, lower + noise, lower, noise,
        {"lambda_minus": lam}, {"upper_middle": lower + mid, "upper_final": lower + fin},
    )


def sliced_gauss_bounds(
    model: StateSpaceModel,
    x,
    r: float,
    t: int,
    star: StarNorm | None = None,
    mode: str = "jensen_consistent",
) -> BoundReport:
    """Sliced order-r sandwich for Gaussian noise.

    The mean gap enters scaled by a sphere constant: ``mode="as_printed"``
    keeps the bare Gamma-ratio ``c(d, r)``, while the default
    ``mode="jensen_consistent"`` uses ``c(d, r)^{1/r}``, the exponent
    consistent with averaging r-th powers over directions before taking
    the final root (the convention of the empirical sliced estimator).
    Both modes coincide at ``r = 1``.
    """
    _require_gaussian(model)
    if model.d < 2:
        raise ValueError("sliced bounds need dimension at least 2")
    lam = lambda_minus(model)
    c_tilde = sphere_moment_ratio(model.d, r)
    if mode == "as_printed":
        mean_const = c_tilde
    elif mode == "jensen_consistent":
        mean_const = c_tilde ** (1.0 / r)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    gap = np.linalg.matrix_power(model.Q, t) @ (_vec(x) - model.stationary_mean)
    lower = mean_const * float(np.linalg.norm(gap))
    noise = _gauss_tail(model, star, r, 1, t, math.sqrt(lam))
    return _report(
        model, star, "sliced_gauss", r, t, lower, lower + noise, lower, noise,
        {"lambda_minus": lam}, {"mode": mode, "moment_ratio": c_tilde},
    )


# ---------------------------------------------------------------------------
# generic (coupling) flavors


def _coupling_regime_sound(model: StateSpaceModel, p: float, t: int) -> bool:
    """Whether the coupling routes are reliable upper bounds as evaluated.

    Two mechanisms can make the stated routes undershoot the true distance:
    the moment split of the noise tail is only valid up to ``p = 2`` for
    centered noise (von Bahr-Esseen; coherent nonzero means break it), and
    the tail starts one step past ``t``, so the missing leading term bites
    at ``t = 0`` and, for noise dominated by its mean, at every ``t``.
    Centered noise with ``1 <= p <= 2`` at ``t >= 1`` avoids both.
    """
    if t < 1 or p > 2.0:
        return False
    return bool(np.all(model.noise.mean_vector() == 0.0))


def _coupling(
    model: StateSpaceModel, x, star: StarNorm | None, flavor: str, p: float, t: int,
    mc_seed: int, *, weight: float = 1.0, sandwich: EigenSandwich | None = None,
    majorant: bool = False, constants=None,
) -> tuple[BoundReport, float]:
    """Routes (a)/(b) of the coupling flavors; returns the report and the route (b) moment root.

    ``weight`` scales the mean terms (the sliced flavor's sphere ratio).
    With ``sandwich``, ``|Q^t z|`` and the route (a) factor ``K_d s^t``
    become the eigen sandwich and ``||U||_F ||U^{-1}||_F rho^t``.  With
    ``majorant``, route (b) takes the n-free majorant
    ``||Sigma||_F (E|xi|^p)^{1/p}`` in place of the model's moment.
    """
    x = _vec(x)
    if not model.noise.has_moment(p):
        raise MomentUnavailable(f"order {p} moment unavailable for this noise")
    star = _star(model, star)
    s = star.value
    if sandwich is None:
        P = np.linalg.matrix_power(model.Q, t)
        lower = weight * float(np.linalg.norm(P @ (x - model.stationary_mean)))
        mean_b = weight * float(np.linalg.norm(P @ x))
        const, rate = star.K_d, s
    else:
        lower = weight * sandwich(x - model.stationary_mean, t)[0]
        mean_b = weight * sandwich(x, t)[1]
        const, rate = sandwich.u_fro * sandwich.uinv_fro, sandwich.rho
    m1_root, se1 = model.noise.moment_root(model.Sigma, 1.0, mc_seed)
    if majorant:
        raw_root, sep = model.noise.moment_root(np.eye(model.d), p, mc_seed)
        mp_root = fro(model.Sigma) * raw_root
    else:
        mp_root, sep = model.noise.moment_root(model.Sigma, p, mc_seed)
    upper_a = weight * const * rate**t * (
        float(np.linalg.norm(x)) + star.K_d * m1_root * s / (1.0 - s)
    )
    noise_b = star.K_d * mp_root * s ** (t + 1) / (1.0 - s**p) ** (1.0 / p)
    rep = _report(
        model, star, flavor, p, t, lower, min(upper_a, mean_b + noise_b), mean_b, noise_b,
        constants,
        {
            "upper_a": upper_a,
            "upper_b": mean_b + noise_b,
            "moment_stderr": sep,
            "first_moment_stderr": se1,
            "coupling_regime_sound": _coupling_regime_sound(model, p, t),
        },
    )
    return rep, mp_root


def generic_bounds(
    model: StateSpaceModel,
    x,
    p: float,
    t: int,
    star: StarNorm | None = None,
    mc_seed: int = 0,
) -> BoundReport:
    """Coupling sandwich for ``W_p(X_t(x), X_inf)``, any noise with p moments.

    The upper bound is the minimum of two routes: (a) the
    stationarity coupling ``K_d s^t (|x| + K_d E|Sigma xi| s / (1 - s))``
    and (b) the tail route ``|Q^t x| + K_d (E|Sigma xi|^p)^{1/p} s^{t+1} /
    (1 - s^p)^{1/p}``.  Monte Carlo moment estimates enter with a +3 stderr
    margin, recorded in ``details``.

    The routes are evaluated as stated for every admissible input, but
    they are reliable upper bounds only for centered noise with
    ``1 <= p <= 2`` at ``t >= 1``: noise dominated by a nonzero mean, or
    orders past 2, can push the true distance above the evaluated tail
    (see ``_coupling_regime_sound``).
    ``details["coupling_regime_sound"]`` records whether the inputs are in
    the reliable regime.
    """
    return _coupling(model, x, star, "generic", p, t, mc_seed)[0]


def diagonalizable_bounds(
    model: StateSpaceModel,
    x,
    p: float,
    t: int,
    star: StarNorm | None = None,
    mc_seed: int = 0,
) -> BoundReport:
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
    sw = model.sandwich
    rep, mp_root = _coupling(
        model, x, star, "generic_diag", p, t, mc_seed, sandwich=sw,
        constants={"U_fro": sw.u_fro, "U_inv_fro": sw.uinv_fro, "rho": sw.rho},
    )
    rho = sw.rho
    rep.details["upper_b_eigenrate"] = rep.mean_part + (
        sw.u_fro * sw.uinv_fro * mp_root * rho ** (t + 1) / (1.0 - rho**p) ** (1.0 / p)
        if rho > 0.0
        else 0.0
    )
    return rep


def sliced_generic_bounds(
    model: StateSpaceModel,
    x,
    p: float,
    t: int,
    star: StarNorm | None = None,
    mc_seed: int = 0,
) -> BoundReport:
    """Sliced order-p coupling sandwich; mean terms carry the r = 1 sphere ratio.

    The order-1 sphere ratio multiplies the mean terms of both the lower
    bound and the upper routes, while the noise tail keeps its full
    (unprojected) constant.
    """
    if model.d < 2:
        raise ValueError("sliced bounds need dimension at least 2")
    c1 = sphere_moment_ratio(model.d, 1.0)
    return _coupling(
        model, x, star, "sliced_generic", p, t, mc_seed, weight=c1,
        constants={"moment_ratio_r1": c1},
    )[0]


def parallel_bounds(per_copy: BoundReport, n: int, p: float) -> BoundReport:
    """Sandwich for n i.i.d. copies run in parallel.

    The joint distance scales between ``sqrt(n)`` times the per-copy mean
    gap and ``sqrt(n)`` times the per-copy upper bound.  When the per-copy
    report is exact and ``p = 2``, the tensorization identity gives the
    joint W2 exactly; it is reported in ``details["tensorized_w2"]``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    root = math.sqrt(n)
    details = {"n_copies": n, "per_copy_flavor": per_copy.flavor}
    if p == 2 and per_copy.details.get("exact"):
        details["tensorized_w2"] = root * per_copy.upper
    return BoundReport(
        t=per_copy.t,
        flavor="parallel",
        order=p,
        lower=root * per_copy.lower,
        upper=root * per_copy.upper,
        mean_part=root * per_copy.mean_part,
        noise_part=root * per_copy.noise_part,
        constants_used=dict(per_copy.constants_used),
        details=details,
    )


def empirical_mean_bounds(
    model: StateSpaceModel,
    n: int,
    x,
    p: float,
    t: int,
    star: StarNorm | None = None,
    mc_seed: int = 0,
) -> BoundReport:
    """Coupling sandwich for the empirical mean of n i.i.d. paths.

    The averaged process satisfies the same recursion with averaged noise,
    so the lower bound (and route (a)) coincide with the single-path case.
    Route (b) uses the n-free majorant ``||Sigma||_F (E|xi|^p)^{1/p}`` for
    the averaged-noise moment.  For Gaussian noise the averaged noise is
    Gaussian with covariance ``Xi / n`` and the exact per-n route (b) is
    reported in ``details["upper_b_exact_n"]``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rep, _ = _coupling(model, x, star, "empirical_mean", p, t, mc_seed, majorant=True)
    rep.details["n_copies"] = n
    if model.noise.family == "gaussian":
        avg_val, _ = model.noise.averaged(n).abs_moment_sigma(model.Sigma, p, seed=mc_seed)
        star = _star(model, star)
        s = star.value
        rep.details["upper_b_exact_n"] = rep.mean_part + star.K_d * avg_val ** (
            1.0 / p
        ) * s ** (t + 1) / (1.0 - s**p) ** (1.0 / p)
    return rep


def chafai_w2_affine(X_law: GaussianLaw, R, v) -> float:
    """Exact W2 between ``X`` and its affine image ``v + R X`` for PSD symmetric R.

    ``sqrt(Trace(S + R S R^T - 2 R S) + |v + (R - I) E[X]|^2)`` with ``S``
    the covariance of ``X``; the Brenier map for this pair is affine, which
    makes the usual lower bound an identity.
    """
    R = as_matrix(R, name="R").astype(float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
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
