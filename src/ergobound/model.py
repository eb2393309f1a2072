"""State-space models for AR/ARMA recursions and their driving-noise laws.

A model is the pair ``(Q, Sigma)`` plus a :class:`NoiseSpec` for the i.i.d.
innovations of the recursion ``X_t = Q X_{t-1} + Sigma xi_t``.  Constructors
build the companion form for AR(p) coefficients and the enhanced block form
for ARMA(p, q); raw models take ``Q`` and ``Sigma`` directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from ._special import erf, erfcx, log_gamma_ratio
from .asymptotics import EigenSandwich
from .errors import EmptyCoefficients, MomentUnavailable, NonConvergence, OrderViolation, as_order
from .linalg import (SchurForm, SpectralInfo, StarNorm, _once, _read_only, as_matrix, eigen,
                     psd_factor, psd_sqrt, schur_triangularize, smallest_eigenvalue_sym,
                     solve_stein, star_norm)
from .stability import _verdict

__all__ = [
    "NoiseSpec",
    "StateSpaceModel",
    "ModelDiagnostics",
    "ar_state_space",
    "arma_state_space",
    "raw_model",
    "validate_model",
    "model_to_json",
    "model_from_json",
    "model_digest",
]

# Relative error-estimate cap of the moment quadratures.
_QUAD_RTOL = 1e-10

# Gauss-Legendre rules per panel, numpy's ``leggauss(16)`` for the value and ``leggauss(8)`` for
# the error estimate, as (nodes, weights) literals: numpy.polynomial never runs on import.
_GAUSS_LEGENDRE = (
    (np.array([
        -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
        -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
        -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
        0.2816035507792589, 0.45801677765722737, 0.6178762444026438, 0.755404408355003,
        0.8656312023878318, 0.9445750230732326, 0.9894009349916499]),
     np.array([
        0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
        0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
        0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
        0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
        0.027152459411754176])),
    (np.array([
        -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
        -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
        0.7966664774136267, 0.9602898564975362]),
     np.array([
        0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
        0.22238103445337443, 0.10122853629037706])),
)
# The Gaussian moment's panels in ``x = ln u``: 19 on ``[ln u0, 0]``, unit ones on ``[0, 90]``.
_HEAD_U0 = 1e-8
_GAUSS_PANELS = np.concatenate((np.linspace(math.log(_HEAD_U0), 0.0, 20), np.arange(1.0, 91.0)))


def _gauss_abs_moment_1d(p: float) -> float:
    """E|Z|**p for standard normal Z: ``2**(p/2) Gamma((p + 1)/2) / sqrt(pi)``, which is
    ``Gamma(1/2 + p/2) / (Gamma(1/2) (1/2)**(p/2))``."""
    return math.exp(log_gamma_ratio(0.5, p / 2.0))


def _gauss_shifted_abs_moment(mean: float, std: float, p: float) -> float:
    """E|mean + std*Z|**p for standard normal Z, via Kummer's function ``M(-p/2, 1/2,
    -mean**2 / (2 std**2))``, which is 1 at ``mean = 0``."""
    if std <= 1e-9 * abs(mean):  # |mean|**p to rounding; scipy's Kummer form NaNs past it
        return abs(mean) ** p
    kummer = 1.0
    if mean != 0.0:
        from scipy.special import hyp1f1  # the non-centered moments alone load scipy.special

        kummer = float(hyp1f1(-p / 2.0, 0.5, -((mean / std) ** 2) / 2.0))
    return std**p * _gauss_abs_moment_1d(p) * kummer


def _student_abs_moment(df: float, p: float) -> float:
    """E|T_df|**p, finite iff p < df.

    That is ``df^(p/2) Gamma((df - p)/2) / (sqrt(pi) Gamma(df/2)) Gamma((p + 1)/2)``: E|Z|**p
    times ``Gamma(z + h) / (Gamma(z) z**h)`` at ``z = df/2``, ``h = -p/2``, whose log stays
    near 0 for large ``df`` rather than cancelling ``(p/2) ln df``.
    """
    return math.exp(log_gamma_ratio(0.5, p / 2.0) + log_gamma_ratio(df / 2.0, -p / 2.0))


def _panel_quad(f, edges: np.ndarray, offset: float = 0.0) -> float:
    """``offset`` plus the integral of a vectorized ``f`` over the panels between
    ``edges``; raises ``NonConvergence`` past ``_QUAD_RTOL`` relative error."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    fine, coarse = (offset + float(half @ (f(mid[:, None] + half[:, None] * x) @ w))
                    for x, w in _GAUSS_LEGENDRE)
    if not abs(fine - coarse) <= _QUAD_RTOL * abs(fine):  # a NaN misses too
        raise NonConvergence(f"moment quadrature error {abs(fine - coarse):.2e} exceeds "
                             f"{_QUAD_RTOL:.0e} relative")
    return fine


def _laplace_abs_moment(loc: float, scale: float, p: float) -> float:
    """E|loc + L|**p for centered Laplace L with the given scale.

    With ``A = |loc| / scale`` it is ``scale**p / 2`` times ``int_0^inf (A + z)**p
    e^-z dz`` (the far side of the density, by quadrature in ``x = ln z`` up to
    past its mass), plus ``int_0^A w**p e^(w - A) dw = A**(p+1) M(1, p+2, -A) /
    (p+1)`` (Kummer's function) and ``e^-A Gamma(p+1)`` (past zero).  Once
    ``A`` passes the panels' reach the near side ``(1 - z/A)**p e^-z`` joins
    the far one in units of ``|loc|**p``, so nothing overflows before the moment.
    """
    if loc == 0.0:
        return scale**p * math.gamma(p + 1.0)
    # |loc|**p to rounding: the correction p (p-1) (scale/loc)**2 is below 1e-10 up to p = 1e4
    if scale <= 1e-9 * abs(loc):
        return abs(loc) ** p
    A = abs(loc) / scale
    # panels in x = ln z: width 2 on [-40, 0], then no wider than 1/2 and 1/sqrt(p) up to
    # past the mass of (A + z)**p e^-z: its peak max(p - A, 0) plus 45 and 12 widths sqrt(p)
    top = max(4.5, math.log(max(p - A, 0.0) + 45.0 + 12.0 * math.sqrt(p)))
    panels = np.concatenate((np.arange(-40.0, 0.0, 2.0),
                             np.linspace(0.0, top, math.ceil(top * max(2.0, math.sqrt(p))) + 1)))
    if A > math.exp(top):
        def both(x):
            z = np.exp(x)
            return ((1.0 + z / A) ** p + (1.0 - z / A) ** p) * np.exp(x - z)

        past = math.exp(math.lgamma(p + 1.0) - A - p * math.log(A))
        return abs(loc) ** p * (0.5 * _panel_quad(both, panels, past))

    def far(x, unit=1.0):
        z = np.exp(x)
        return ((A + z) / unit) ** p * np.exp(x - z)

    from scipy.special import hyp1f1  # the non-centered moments alone load scipy.special

    # scipy's Kummer function is NaN near A = 1e-300; below 1e-8 two series terms are exact
    kummer = float(hyp1f1(1.0, p + 2.0, -A)) if A > 1e-8 else 1.0 - A / (p + 2.0)
    near = A ** (p + 1.0) / (p + 1.0) * kummer
    past = math.exp(-A) * math.gamma(p + 1.0)
    try:
        with np.errstate(over="raise"):
            return 0.5 * scale**p * _panel_quad(far, panels, near + past)
    except FloatingPointError:
        pass
    # (A + z)**p overflows before e^-z scales it down: integrate in units of
    # unit**p, with unit the power of two at which the log of the integrand at
    # its peak z = max(p - A, 0) is about p ln 2 (dividing by it is exact)
    peak = max(p - A, 0.0)
    unit = 2.0 ** math.floor((p * math.log(A + peak) - peak) / (p * math.log(2.0)))
    units = unit**p  # OverflowError when the moment is past the float range
    moment = 0.5 * scale**p * units * _panel_quad(
        lambda x: far(x, unit), panels, (near + past) / units)
    if math.isinf(moment):
        raise OverflowError(f"E|loc + L|**{p} exceeds the float range")
    return moment


def _quad_form_moment(logs, c, s, panels, offset, control=False) -> float:
    """``E X**s``, ``0 < s < 1``, of ``X = c sum_k lam_k xi_k**2`` by its Laplace transform ``L``
    (Mathai & Provost 1992): ``c**s s / Gamma(1 - s)`` times ``offset`` plus the integral over
    ``panels`` in ``x = ln u`` of ``(1 - L) u**-s`` below 0 and ``-L u**-s`` above, ``log L``
    the sum of ``logs(u[..., None])`` over its last axis.  ``control`` subtracts each term's
    own ``1 - l_k`` (above 0, ``-l_k``), whose integral is its 1-D moment, from both."""
    def integrand(x):
        terms = logs(np.exp(x)[..., None])
        log_laplace = terms.sum(-1)
        head, tail = -np.expm1(log_laplace), -np.exp(log_laplace)
        if control:
            head, tail = head + np.expm1(terms).sum(-1), tail + np.exp(terms).sum(-1)
        return np.where(x < 0.0, head, tail) * np.exp(-s * x)

    return c**s * s / math.gamma(1.0 - s) * _panel_quad(integrand, panels, offset)


def _gauss_norm_moment(mu: np.ndarray, S: np.ndarray, p: float) -> float:
    """E|Y|**p for Y ~ N(mu, S), 0 < p < 2, by ``_quad_form_moment`` in the eigen-coordinates
    of ``S = V diag(lam) V^T`` (``nu = V^T mu``): ``L(u) = prod_i (1 + 2 u lam_i)**-1/2
    exp(-u nu_i**2 / (1 + 2 u lam_i))``.  With ``u`` scaled by ``c = E|Y|**2``, ``1 - L(u) =
    u - m2 u**2 / 2 + O(u**3)``, ``m2 = E|Y|**4 / c**2``, the series taken below ``u0 = 1e-8``.
    """
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam = np.clip(lam, 0.0, None)
    nu2 = (V.T @ mu) ** 2
    c = float(lam.sum() + nu2.sum())
    if c == 0.0:
        return 0.0
    lam, nu2, s = lam / c, nu2 / c, p / 2.0

    def logs(u):
        w = 2.0 * u * lam
        # log1p keeps 1 - L(u) accurate to the last digits at small u
        return (-0.5 * np.log1p(w).sum(-1) - (u * nu2 / (1.0 + w)).sum(-1))[..., None]

    m2 = 1.0 + 2.0 * float(lam @ lam) + 4.0 * float(lam @ nu2)
    below = _HEAD_U0 ** (1.0 - s) / (1.0 - s) - m2 * _HEAD_U0 ** (2.0 - s) / (2.0 * (2.0 - s))
    return _quad_form_moment(logs, c, s, _GAUSS_PANELS, 1.0 / s + below)


def _student_log_laplace(df: float, z: np.ndarray) -> np.ndarray:
    """``log E exp(-z T**2)`` for Student-t ``T = Z / sqrt(V)``, ``V ~ Gamma(df/2, rate df/2)``:
    ``E (1 + 2z/V)**-1/2`` by the trapezoid rule in ``ln V`` over the density down to
    ``e^-40`` of its peak, geometric for this analytic integrand (Trefethen & Weideman 2014)."""
    a = df / 2.0
    y = np.arange(-40.0 / a - 1.0, math.log1p(40.0 / a) + 2.0, min(0.2, 0.7 / math.sqrt(df)))
    y = y[a * (y - np.exp(y) + 1.0) > -40.0]
    w = np.exp(a * (y - np.exp(y) + 1.0))
    return np.log(sum(wj / np.sqrt(1.0 + z * cj) for wj, cj in zip(w / w.sum(), 2.0 * np.exp(-y))))


def _coords(x) -> np.ndarray:
    """Per-coordinate parameters as a float array of at least one dimension."""
    return np.atleast_1d(np.asarray(x, dtype=float))


class _Law(NamedTuple):
    """A noise family's parameter names, the name of its location (the mean; None for a
    zero mean), variance, draw ``(rng, p, size)``, ``(p, r) -> E|eps|**r`` and ``(p, z) ->
    log E exp(-z eta**2)`` at unit spread (the last name)."""

    names: tuple[str, ...]
    loc: str | None
    var: Callable
    draw: Callable
    abs_moment: Callable
    log_laplace: Callable | None = None


# Each family once: numpy expressions in the parameters ``p``, valid for a scalar
# parameter and a per-coordinate array alike (the absolute moment for scalars
# only).  Vector Gaussian noise, with a full ``cov`` for ``var``, is the one special case.
_LAWS = {
    "gaussian": _Law(("mean", "var"), "mean", lambda p: p["var"],
                     lambda rng, p, size: p["mean"] + np.sqrt(p["var"]) * rng.standard_normal(size),
                     lambda p, r: _gauss_shifted_abs_moment(p["mean"], math.sqrt(p["var"]), r)),
    "laplace": _Law(("loc", "scale"), "loc", lambda p: 2.0 * p["scale"] ** 2,
                    lambda rng, p, size: p["loc"] + p["scale"] * rng.laplace(0.0, 1.0, size),
                    lambda p, r: _laplace_abs_moment(p["loc"], p["scale"], r),
                    lambda p, z: np.log(np.sqrt(np.pi / z) / 2.0 * erfcx(0.5 / np.sqrt(z)))),
    "student_t": _Law(("df", "scale"), None,
                      lambda p: p["scale"] ** 2 * p["df"] / (p["df"] - 2.0),
                      lambda rng, p, size: p["scale"] * rng.standard_t(p["df"], size),
                      lambda p, r: p["scale"] ** r * _student_abs_moment(p["df"], r),
                      lambda p, z: _student_log_laplace(p["df"], z)),
    "uniform": _Law(("half_width",), None, lambda p: p["half_width"] ** 2 / 3.0,
                    lambda rng, p, size: rng.uniform(-1.0, 1.0, size) * p["half_width"],
                    lambda p, r: p["half_width"] ** r / (r + 1.0),
                    lambda p, z: np.log(np.sqrt(np.pi / z) / 2.0 * erf(np.sqrt(z)))),
    "point_mass": _Law(("value",), "value", lambda p: 0.0,
                       lambda rng, p, size: np.full(size, p["value"]),
                       lambda p, r: abs(p["value"]) ** r),
}


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """I.i.d. noise ``xi = eta @ G``: ``k`` drivers ``eta`` with covariance ``C`` (``cov`` if
    the spec has one, else ``diag(var)``) times a ``(k, dim)`` loading ``G``.

    Vector specs carry per-coordinate parameters (full mean/covariance for Gaussian,
    independent coordinates otherwise), ``G = I``.  Scalar-driven specs carry scalar family
    parameters plus a ``direction`` ``u``, ``xi = eps * u`` and ``G = u^T``; AR/ARMA
    constructors lift their scalar noise this way.  Only ``loading``, ``_check`` (run on
    construction) and ``lift`` read the layout.

    ``r_max`` is the supremum of orders with a finite absolute moment:
    infinite for every family except Student-t, where it equals the degrees
    of freedom (the moment at ``r = df`` itself is infinite).  ``params``
    is a read-only mapping over a copy the spec owns, its arrays read-only
    copies too.
    """

    family: str
    dim: int
    params: MappingProxyType = field(repr=False)

    def __post_init__(self):
        law = _LAWS.get(self.family)
        if law is None:
            raise ValueError(f"unknown noise family {self.family!r}")
        params = {k: _read_only(np.array(v)) if isinstance(v, np.ndarray) else v
                  for k, v in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "_moment_cache", {})
        object.__setattr__(self, "_law", law)
        self._check(law.names)

    def _check(self, names: tuple[str, ...]) -> None:
        """The family's parameter names, scalars (plus a ``direction`` of length
        ``dim``) or per-coordinate arrays of length ``dim`` (a scalar ``df``, a
        ``dim x dim`` ``cov``), all finite; nonnegative spreads, positive ``df``
        and a ``cov`` that is symmetric and PSD by ``psd_sqrt``'s rules."""
        prm, d, scalar = self.params, self.dim, self.is_scalar_driven
        if not scalar and self.family == "gaussian":
            names = ("mean", "cov")
        if set(prm) - {"direction"} != set(names):
            raise ValueError(f"{self.family} noise takes parameters {', '.join(names)}")
        if d < 1 or scalar and np.shape(self.direction) != (d,):
            raise ValueError(f"noise dimension {d} must be positive and match the direction")
        for k, v in prm.items():
            shape = (() if scalar and k != "direction" or k == "df"
                     else (d, d) if k == "cov" else (d,))
            if np.shape(v) != shape or not np.all(np.isfinite(v)):
                raise ValueError(f"noise parameter {k} must be finite with shape {shape}")
        if "df" in prm and not prm["df"] > 0:
            raise ValueError("df must be positive")
        for k in ("var", "scale", "half_width"):
            if k in prm and not np.all(prm[k] >= 0):
                raise ValueError(f"{k} must be nonnegative")
        if "cov" in prm:
            psd_sqrt(prm["cov"])  # raises NotSymmetric or NotPSD

    # -- constructors -----------------------------------------------------

    @classmethod
    def gaussian(cls, mean: float, var: float) -> "NoiseSpec":
        return cls("gaussian", 1, {"mean": float(mean), "var": float(var)})

    @classmethod
    def gaussian_d(cls, mean, cov) -> "NoiseSpec":
        mean = _coords(mean)
        return cls("gaussian", len(mean), {"mean": mean, "cov": np.asarray(cov, dtype=float)})

    @classmethod
    def laplace(cls, loc: float, scale: float) -> "NoiseSpec":
        return cls("laplace", 1, {"loc": float(loc), "scale": float(scale)})

    @classmethod
    def laplace_d(cls, loc, scale) -> "NoiseSpec":
        loc = _coords(loc)
        return cls("laplace", len(loc), {"loc": loc, "scale": _coords(scale)})

    @classmethod
    def student_t(cls, df: float, scale: float) -> "NoiseSpec":
        return cls("student_t", 1, {"df": float(df), "scale": float(scale)})

    @classmethod
    def student_t_d(cls, df: float, scale) -> "NoiseSpec":
        scale = _coords(scale)
        return cls("student_t", len(scale), {"df": float(df), "scale": scale})

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform", 1, {"half_width": float(half_width)})

    @classmethod
    def uniform_d(cls, half_width) -> "NoiseSpec":
        hw = _coords(half_width)
        return cls("uniform", len(hw), {"half_width": hw})

    @classmethod
    def point_mass(cls, value: float) -> "NoiseSpec":
        return cls("point_mass", 1, {"value": float(value)})

    @classmethod
    def point_mass_d(cls, value) -> "NoiseSpec":
        v = _coords(value)
        return cls("point_mass", len(v), {"value": v})

    def lift(self, direction) -> "NoiseSpec":
        """Embed a scalar spec as ``xi = eps * direction`` in ``len(direction)`` dims."""
        if not self.is_scalar_driven or self.dim != 1:
            raise ValueError("only 1-D scalar specs can be lifted")
        u = _coords(direction)
        return NoiseSpec(self.family, len(u), {**self.params, "direction": u})

    # -- structure ---------------------------------------------------------

    @property
    def is_scalar_driven(self) -> bool:
        if "direction" in self.params:
            return True
        return not any(isinstance(v, np.ndarray) for v in self.params.values())

    @property
    def direction(self) -> np.ndarray:
        if "direction" in self.params:
            return self.params["direction"]
        return np.ones(1)

    @property
    def r_max(self) -> float:
        return self.params["df"] if self.family == "student_t" else math.inf

    def has_moment(self, r: float) -> bool:
        """Whether ``E|xi|**r`` is a finite moment of order ``0 < r`` (strict at ``r_max``)."""
        return 0 < r < self.r_max

    def _require_moment(self, r: float) -> None:
        if not self.has_moment(r):
            raise MomentUnavailable(f"order {r} moment unavailable for {self.family} noise")

    def scalar_abs_moment(self, p: float) -> float:
        """``E|eps|**p`` of the scalar driver, in closed/deterministic form."""
        if not self.is_scalar_driven:
            raise ValueError("scalar moment of a vector noise spec")
        self._require_moment(p)
        return self._law.abs_moment(self.params, p)

    # -- vector-level quantities ---------------------------------------------
    # One formula per family (``_LAWS``), read through ``G``, ``C`` and ``_driver``.

    def mean_vector(self) -> np.ndarray:
        """``E xi``, read-only and kept on the spec."""
        self._require_moment(1)
        return _once(self._moment_cache, "mean", lambda: _read_only(
            np.broadcast_to(self._location, len(self.loading)) @ self.loading))

    @property
    def _location(self):
        """The drivers' mean: the family's location parameter, else 0.0."""
        return self.params[self._law.loc] if self._law.loc else 0.0

    @cached_property
    def centered(self) -> "NoiseSpec":
        """The spec of ``xi - E xi``: the same spec with its location set to zero, ``self``
        when that is zero already (so centered noise keeps its moments and their cache)."""
        loc = self._location
        if not np.any(loc):
            return self
        zero = np.zeros_like(loc) if isinstance(loc, np.ndarray) else 0.0
        return NoiseSpec(self.family, self.dim, {**self.params, self._law.loc: zero})

    def covariance(self) -> np.ndarray:
        """``G^T C G``, ``C`` the drivers' covariance: ``cov`` if given, else ``diag(var)``."""
        self._require_moment(2)
        prm, G = self.params, self.loading
        C = prm["cov"] if "cov" in prm else np.diag(np.broadcast_to(self._law.var(prm), len(G)))
        return G.T @ C @ G

    @cached_property
    def loading(self) -> np.ndarray:
        """The ``(k, dim)`` matrix ``G`` that turns ``k`` drivers into one noise vector."""
        return _read_only(self.direction[None, :] if self.is_scalar_driven else np.eye(self.dim))

    def sampler(self):
        """Return ``draw(rng, n) -> (n, k)`` driver values, any factorization precomputed."""
        prm, k, draw = self.params, len(self.loading), self._law.draw
        if "cov" not in prm:
            return lambda rng, n: draw(rng, prm, (n, k))
        factor, mean = psd_factor(prm["cov"]), prm["mean"]
        return lambda rng, n: mean + rng.standard_normal((n, k)) @ factor.T

    def abs_moment_sigma(self, Sigma, p: float) -> tuple[float, float]:
        """``(E|Sigma xi|**p, 0.0)``, kept on the spec per ``(Sigma, p)``.

        The value is exact (``_abs_moment``) where at most one driver reaches ``Sigma xi``,
        for point masses and at ``p = 2``, and at ``0 < p < 2`` for Gaussian noise and for
        centered Laplace, Student-t and uniform noise with exactly diagonal ``Sigma^T Sigma``.
        Elsewhere it is a proven upper bound.  The second entry is a zero standard error.

        Raises
        ------
        MomentUnavailable
            If the order-``p`` moment is infinite.
        NonConvergence
            If a quadrature misses its relative error cap.
        """
        Sigma = as_matrix(Sigma, name="Sigma").astype(float)
        self._require_moment(p)
        return _once(self._moment_cache, (Sigma.tobytes(), Sigma.shape, p),
                     lambda: (self._abs_moment(Sigma, p), 0.0))

    def moment_root(self, Sigma, p: float) -> float:
        """``(E|Sigma xi|**p)**(1/p)`` from :meth:`abs_moment_sigma`."""
        return self.abs_moment_sigma(Sigma, p)[0] ** (1.0 / p)

    def _abs_moment(self, Sigma, p) -> float:
        """The ``E|Sigma xi|**p`` of ``abs_moment_sigma``: exact where a route applies, else
        the smaller of two proven upper bounds, Minkowski's over the drivers and, at ``p < 2``
        with a finite variance, Lyapunov's ``(E|Sigma xi|**2)**(p/2)``."""
        L = (Sigma @ self.loading.T).T  # Sigma xi = eta @ L over the drivers eta
        hit = np.flatnonzero(np.any(L, axis=1))
        if hit.size <= 1:  # one driver k matters: E|eta_k|**p |L_k|**p
            k = hit[0] if hit.size else 0
            return float(self._law.abs_moment(self._driver(k), p) * np.linalg.norm(L[k]) ** p)
        if self.family == "point_mass":
            return float(np.linalg.norm(Sigma @ self.params["value"])) ** p
        if p == 2 or self.family == "gaussian" and 0 < p < 2:
            m = Sigma @ self.mean_vector()
            c = Sigma @ self.covariance() @ Sigma.T
            return float(m @ m + np.trace(c)) if p == 2 else _gauss_norm_moment(m, c, p)
        law, prm, s, gram = self._law, self.params, p / 2.0, Sigma.T @ Sigma
        if not 0 < p < 2 or np.any(gram - np.diag(np.diag(gram))) or np.any(self._location):
            # Minkowski's inequality, below p = 1 the subadditivity of t**p: with q = min(p, 1),
            # E|sum_k eta_k L_k|**p <= (sum_k (E|eta_k|**p)**(q/p) |L_k|**q)**(p/q)
            q = min(p, 1.0)
            bound = sum(law.abs_moment(self._driver(k), p) ** (q / p) * np.linalg.norm(L[k]) ** q
                        for k in hit) ** (p / q)
            if p < 2 and self.has_moment(2.0):
                bound = min(bound, self._abs_moment(Sigma, 2.0) ** s)
            return float(bound)
        # orthogonal columns: |Sigma xi|**2 = sum_k w_k eta_k**2 over unit-spread eta_k
        w = np.sum(Sigma * Sigma, axis=0) * prm[law.names[-1]] ** 2
        lam = w[w > 0.0] / w.sum()
        if lam.size == 0:
            return 0.0
        # centered coordinates share one law at unit spread: the first one's
        unit = law.abs_moment(self._driver(0) | {law.names[-1]: 1.0}, p)
        offset = math.gamma(1.0 - s) / s * unit * float(np.sum(lam**s)) - (lam.size - 1) / s
        # what the control terms leave is O(u**(min(2, df) - s)): e^-36 below the first edge
        x0 = math.ceil(36.0 / (min(2.0, self.r_max) - s))
        return _quad_form_moment(lambda u: law.log_laplace(prm, u * lam), float(w.sum()), s,
                                 np.arange(-x0, 71.0 - math.log(lam.min())), offset, control=True)

    def _driver(self, k: int) -> dict:
        """Driver ``k``'s scalar parameters, its variance ``var`` read off a full ``cov``."""
        one = {n: v[k] if np.ndim(v) == 1 else v for n, v in self.params.items()}
        return one | {"var": one["cov"][k, k]} if "cov" in one else one

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        params = {k: v.ravel().tolist() if isinstance(v, np.ndarray) else v  # cov row-major
                  for k, v in self.params.items()}
        return {"family": self.family, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        raw = dict(obj["params"])
        params = {k: np.asarray(v, dtype=float) if isinstance(v, list) else float(v)
                  for k, v in raw.items()}
        if "cov" in params:  # stored row-major; a ValueError unless square
            n = math.isqrt(np.size(params["cov"]))
            params["cov"] = np.reshape(params["cov"], (n, n))
        dim = next((len(v) for v in params.values() if isinstance(v, np.ndarray)), 1)
        return cls(obj["family"], dim, params)


def stationary_cov_positive(lam: float, cov) -> bool:
    """Whether the smallest eigenvalue ``lam`` of ``cov`` is safely positive."""
    return lam > 1e-12 * max(1.0, float(np.trace(cov)))


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """The recursion data ``(d, Q, Sigma, noise)`` plus construction provenance.

    ``Q`` and ``Sigma`` are finite, read-only copies the model owns.  The
    per-model quantities every bound reads are computed on first use and
    kept, so all calls on one model solve each problem once: one complex
    Schur form of ``Q`` (``schur``) gives ``rho(Q)``, the default star norm and
    the stationary covariance; ``eigen(Q)`` (``spectrum``) serves the eigen sandwich only.
    """

    d: int
    Q: np.ndarray
    Sigma: np.ndarray
    noise: NoiseSpec
    provenance: dict

    def __post_init__(self):
        for name in ("Q", "Sigma"):
            matrix = as_matrix(getattr(self, name), name=name)
            object.__setattr__(self, name, _read_only(np.array(matrix)))
        if self.Q.shape != (self.d, self.d) or self.Sigma.shape != (self.d, self.d):
            raise ValueError("Q and Sigma must be d x d")
        if self.noise.dim != self.d:
            raise ValueError("noise dimension must match the state dimension")
        object.__setattr__(self, "_bound_constants", {})  # kept through ``linalg._once``

    @cached_property
    def noise_cov(self) -> np.ndarray:
        """``Sigma Cov(xi) Sigma^T``, the covariance of one noise increment."""
        return _read_only(self.Sigma @ self.noise.covariance() @ self.Sigma.T)

    @cached_property
    def noise_loading(self) -> np.ndarray:
        """``G Sigma^T``, ``G`` the noise ``loading``: drivers ``eta`` add ``eta @ G Sigma^T``."""
        return _read_only(self.Sigma @ self.noise.loading.T).T  # laid out as Sigma.T

    @cached_property
    def schur(self) -> SchurForm:
        """``schur_triangularize(Q)``, behind ``star``, ``stationary_cov`` and ``rho(Q)``."""
        return schur_triangularize(self.Q)

    @cached_property
    def spectrum(self) -> SpectralInfo:
        """``eigen(Q)``, for the eigen sandwich only."""
        return eigen(self.Q)

    @cached_property
    def sandwich(self) -> EigenSandwich:
        """The eigen sandwich of ``|Q^t z|``: ``U`` inverted once; raises ``NotDiagonalizable``."""
        sw = EigenSandwich(self.spectrum)
        _read_only(sw.U_inv, sw.moduli)
        return sw

    @cached_property
    def star(self) -> StarNorm:
        """The default contraction norm ``star_norm(schur)``."""
        return star_norm(self.schur)

    @cached_property
    def stationary_mean(self) -> np.ndarray:
        """``(I - Q)^{-1} Sigma E[xi_1]``, the mean of the stationary law."""
        m = self.Sigma @ self.noise.mean_vector()
        return _read_only(np.linalg.solve(np.eye(self.d) - self.Q, m))

    @cached_property
    def stationary_cov(self) -> np.ndarray:
        """Stationary covariance ``Sigma_inf``, solving ``S = Q S Q^T + noise_cov``."""
        return _read_only(solve_stein(self.schur, self.noise_cov))

    @cached_property
    def lambda_min(self) -> float | None:
        """Smallest eigenvalue of ``Sigma_inf`` for Gaussian noise, else ``None``."""
        if self.noise.family != "gaussian":
            return None
        return smallest_eigenvalue_sym(self.stationary_cov)


def raw_model(Q, Sigma, noise: NoiseSpec) -> StateSpaceModel:
    """Model from explicit matrices; no structural constraints imposed."""
    Q = as_matrix(Q, name="Q").astype(float)
    Sigma = as_matrix(Sigma, name="Sigma").astype(float)
    return StateSpaceModel(Q.shape[0], Q, Sigma, noise, {"kind": "raw"})


def companion(phi) -> np.ndarray:
    """Companion-form transition matrix: coefficients in row one, shifted identity below."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p = phi.shape[0]
    Q = np.zeros((p, p))
    Q[0, :] = phi
    if p > 1:
        Q[np.arange(1, p), np.arange(0, p - 1)] = 1.0
    return Q


def ar_state_space(phi, a=None, noise1d: NoiseSpec | None = None) -> StateSpaceModel:
    """AR(p) model in companion form.

    ``Sigma`` is ``e1 (x) e1`` plus the optional nonnegative diagonal weights
    ``a_2..a_p``; the scalar noise enters as ``xi_t = eps_t e1``, so the
    ``a`` weights have no distributional effect and are retained purely for
    the companion-form shape.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p = phi.shape[0]
    if p == 0:
        raise EmptyCoefficients("AR model needs at least one coefficient")
    if a is None:
        a = np.zeros(p - 1)
    a = np.atleast_1d(np.asarray(a, dtype=float)) if p > 1 else np.zeros(0)
    if a.shape[0] != p - 1:
        raise ValueError(f"a must have length p - 1 = {p - 1}")
    if np.any(a < 0):
        raise ValueError("diagonal weights a must be nonnegative")
    noise1d = noise1d if noise1d is not None else NoiseSpec.gaussian(0.0, 1.0)
    Sigma = np.diag(np.concatenate(([1.0], a)))
    e1 = np.zeros(p)
    e1[0] = 1.0
    return StateSpaceModel(
        p,
        companion(phi),
        Sigma,
        noise1d.lift(e1),
        {"kind": "ar", "p": p, "phi": phi.tolist(), "a": a.tolist()},
    )


def arma_state_space(phi, theta, noise1d: NoiseSpec | None = None) -> StateSpaceModel:
    """ARMA(p, q) model in the enhanced (p+q)-dimensional block form.

    The transition matrix stacks the companion block, the moving-average
    coefficients in row one of the top-right block, and a down-shift in the
    bottom-right block; its characteristic polynomial is the companion one
    times ``(-z)**q``.  The scalar innovation feeds coordinates 1 and p+1
    simultaneously.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p, q = phi.shape[0], theta.shape[0]
    if p == 0:
        raise EmptyCoefficients("ARMA model needs at least one AR coefficient")
    if q < 1 or q > p:
        raise OrderViolation(f"need 1 <= q <= p, got p={p}, q={q}")
    d = p + q
    Q = np.zeros((d, d))
    Q[:p, :p] = companion(phi)
    Q[0, p:] = theta
    Q[p + 1:, p:-1] = np.eye(q - 1)
    u = np.zeros(d)
    u[[0, p]] = 1.0
    noise1d = noise1d if noise1d is not None else NoiseSpec.gaussian(0.0, 1.0)
    return StateSpaceModel(d, Q, np.diag(u), noise1d.lift(u), {
        "kind": "arma", "p": p, "q": q, "phi": phi.tolist(), "theta": theta.tolist()})


@dataclass(frozen=True)
class ModelDiagnostics:
    """Verdicts from :func:`validate_model`; carries flags, never raises."""

    spectral_radius: float
    stable: bool
    boundary: bool
    moment_ok: bool
    gaussian_applicable: bool
    lambda_minus: float | None
    flags: tuple[str, ...]


def validate_model(
    model: StateSpaceModel, r: float, boundary_tol: float = 1e-9
) -> ModelDiagnostics:
    """Stability, moment and Gaussian-flavor applicability diagnostics."""
    as_order(r)
    verdict = _verdict(model.schur.spectral_radius, boundary_tol)
    moment_ok = model.noise.has_moment(r)
    flags = []
    if not verdict.stable:
        flags.append("NotSchurStable")
    if not moment_ok:
        flags.append("MomentUnavailable")
    gaussian_applicable, lam = False, None
    if model.noise.family == "gaussian" and verdict.stable:
        lam = model.lambda_min
        gaussian_applicable = stationary_cov_positive(lam, model.stationary_cov)
        if not gaussian_applicable:
            flags.append("SingularStationaryCovariance")
    elif model.noise.family != "gaussian":
        flags.append("NonGaussianNoise")
    return ModelDiagnostics(
        spectral_radius=verdict.spectral_radius,
        stable=verdict.stable,
        boundary=verdict.boundary,
        moment_ok=bool(moment_ok),
        gaussian_applicable=bool(gaussian_applicable),
        lambda_minus=None if lam is None else float(lam),
        flags=tuple(flags),
    )


def model_to_json(model: StateSpaceModel) -> dict:
    """JSON-compatible dict: row-major matrices, noise family plus params."""
    return {
        "d": model.d,
        "Q": [float(x) for x in model.Q.ravel()],
        "Sigma": [float(x) for x in model.Sigma.ravel()],
        "noise": model.noise.to_json(),
        "provenance": model.provenance,
    }


def model_from_json(obj: dict) -> StateSpaceModel:
    d = int(obj["d"])
    Q = np.asarray(obj["Q"], dtype=float).reshape(d, d)
    Sigma = np.asarray(obj["Sigma"], dtype=float).reshape(d, d)
    noise = NoiseSpec.from_json(obj["noise"])
    return StateSpaceModel(d, Q, Sigma, noise, dict(obj.get("provenance", {"kind": "raw"})))


def model_digest(model: StateSpaceModel) -> str:
    """SHA-256 of the canonical JSON serialization."""
    canon = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
