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

import numpy as np
from scipy.special import gammaln, hyp1f1

from .asymptotics import EigenSandwich
from .errors import EmptyCoefficients, MomentUnavailable, NonConvergence, OrderViolation
from .linalg import (SpectralInfo, StarNorm, as_matrix, build_star_norm, eigen,
                     smallest_eigenvalue_sym, stationary_covariance)

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

_FAMILIES = ("gaussian", "laplace", "student_t", "uniform", "point_mass")

# Rows drawn per chunk by the Monte Carlo moment route; memory stays
# O(chunk * dim) whatever the number of draws.
_MC_CHUNK_ROWS = 2**16

# Relative error-estimate cap of the moment quadratures.
_QUAD_RTOL = 1e-10

# Gauss-Legendre rules per panel: 16 nodes for the value, 8 for the error estimate.
_GAUSS_LEGENDRE = tuple(np.polynomial.legendre.leggauss(n) for n in (16, 8))
# The Gaussian moment's panels in ``x = ln u``: 19 on ``[ln u0, 0]``, unit ones on ``[0, 90]``.
_HEAD_U0 = 1e-8
_GAUSS_PANELS = np.concatenate((np.linspace(math.log(_HEAD_U0), 0.0, 20), np.arange(1.0, 91.0)))
# The Laplace moment's panels in ``x = ln z``: width 2 below 0, width 1/2 up to 4.5.
_LAPLACE_PANELS = np.concatenate((np.arange(-40.0, 0.0, 2.0), np.arange(0.0, 4.6, 0.5)))


def _gauss_abs_moment_1d(p: float) -> float:
    """E|Z|**p for standard normal Z."""
    return math.exp((p / 2.0) * math.log(2.0) + gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi))


def _gauss_shifted_abs_moment(mean: float, std: float, p: float) -> float:
    """E|mean + std*Z|**p for standard normal Z, via Kummer's function."""
    if std <= 1e-9 * abs(mean):  # |mean|**p to rounding; scipy's Kummer form NaNs past it
        return abs(mean) ** p
    kummer = float(hyp1f1(-p / 2.0, 0.5, -((mean / std) ** 2) / 2.0))
    return std**p * _gauss_abs_moment_1d(p) * kummer


def _student_abs_moment(df: float, p: float) -> float:
    """E|T_df|**p, finite iff p < df."""
    return math.exp(
        (p / 2.0) * math.log(df)
        + gammaln((p + 1.0) / 2.0)
        + gammaln((df - p) / 2.0)
        - 0.5 * math.log(math.pi)
        - gammaln(df / 2.0)
    )


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
    e^-z dz`` (the far side of the density, by quadrature in ``x = ln z`` over
    ``[-40, 4.5]``), plus ``int_0^A w**p e^(w - A) dw = A**(p+1) M(1, p+2, -A) /
    (p+1)`` (Kummer's function) and ``e^-A Gamma(p+1)`` (past zero).
    """
    if loc == 0.0:
        return scale**p * math.gamma(p + 1.0)
    if scale == 0.0:
        return abs(loc) ** p
    A = abs(loc) / scale

    def far(x):
        z = np.exp(x)
        return (A + z) ** p * np.exp(x - z)

    near = A ** (p + 1.0) / (p + 1.0) * float(hyp1f1(1.0, p + 2.0, -A))
    past = math.exp(-A) * math.gamma(p + 1.0)
    return 0.5 * scale**p * _panel_quad(far, _LAPLACE_PANELS, near + past)


def _gauss_norm_moment(mu: np.ndarray, S: np.ndarray, p: float) -> float:
    """E|Y|**p for Y ~ N(mu, S), 0 < p < 2, by one-dimensional quadrature.

    ``|Y|**2`` is a Gaussian quadratic form with Laplace transform
    ``L(u) = prod_i (1 + 2 u lam_i)**-1/2 exp(-u sum_i nu_i**2 / (1 + 2 u lam_i))``
    (``S = V diag(lam) V^T``, ``nu = V^T mu``; Mathai & Provost 1992), and
    ``E X**s = s / Gamma(1 - s) * int_0^inf (1 - L(u)) u**(-s-1) du`` for
    ``s = p/2`` in ``(0, 1)``.  With ``u`` scaled by ``c = E|Y|**2``, ``1 - L(u)
    = u - m2 u**2 / 2 + O(u**3)``, ``m2 = E|Y|**4 / c**2``.  In ``x = ln u``
    the head ``(1 - L) u**-s`` is integrated over ``[ln u0, 0]`` (that series
    below ``u0 = 1e-8``) and the tail is ``1/s`` less ``L u**-s`` over ``[0, 90]``.
    """
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam = np.clip(lam, 0.0, None)
    nu2 = (V.T @ mu) ** 2
    c = float(lam.sum() + nu2.sum())
    if c == 0.0:
        return 0.0
    lam, nu2, s = lam / c, nu2 / c, p / 2.0

    def integrand(x):
        u = np.exp(x)[..., None]
        w = 2.0 * u * lam
        # log1p keeps 1 - L(u) accurate to the last digits at small u
        log_laplace = -0.5 * np.log1p(w).sum(-1) - (u * nu2 / (1.0 + w)).sum(-1)
        return np.where(x < 0.0, -np.expm1(log_laplace), -np.exp(log_laplace)) * np.exp(-s * x)

    m2 = 1.0 + 2.0 * float(lam @ lam) + 4.0 * float(lam @ nu2)
    below = _HEAD_U0 ** (1.0 - s) / (1.0 - s) - m2 * _HEAD_U0 ** (2.0 - s) / (2.0 * (2.0 - s))
    integral = _panel_quad(integrand, _GAUSS_PANELS, 1.0 / s + below)
    return c**s * s / math.gamma(1.0 - s) * integral


def _mc_abs_moment(draw, Sigma, p, n, seed) -> tuple[float, float]:
    """Seeded Monte Carlo ``(E|Sigma xi|**p, stderr)``, drawn in fixed chunks.

    Chunks come from one generator in order, so the draws equal a single
    ``draw(rng, n)``; per-chunk means and centered sums of squares are
    merged with the pairwise update of Chan, Golub & LeVeque (1979).
    """
    if n < 2:
        raise ValueError("Monte Carlo moments need at least two draws")
    rng = np.random.default_rng([seed, 0x5E1C])
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, _MC_CHUNK_ROWS):
        k = min(_MC_CHUNK_ROWS, n - start)
        vals = np.linalg.norm(draw(rng, k) @ Sigma.T, axis=1)
        if p != 1:
            vals **= p
        chunk_mean = float(vals.mean())
        vals -= chunk_mean
        delta = chunk_mean - mean
        total = count + k
        mean += delta * k / total
        m2 += float(vals @ vals) + delta * delta * count * k / total
        count = total
    return mean, math.sqrt(m2 / (n - 1) / n)


def _read_only(*arrays) -> np.ndarray:
    """Mark the arrays read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """An i.i.d. driving-noise family.

    Two layouts are supported.  Vector specs carry per-coordinate parameters
    (full mean/covariance for Gaussian, independent coordinates otherwise).
    Scalar-driven specs carry scalar family parameters plus a ``direction``
    vector ``u``, representing ``xi = eps * u`` for a scalar variable
    ``eps``; AR/ARMA constructors lift their scalar noise this way.

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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        params = {k: _read_only(np.array(v)) if isinstance(v, np.ndarray) else v
                  for k, v in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "_moment_cache", {})
        object.__setattr__(self, "_averaged", {})

    # -- constructors -----------------------------------------------------

    @classmethod
    def gaussian(cls, mean: float, var: float) -> "NoiseSpec":
        if var < 0:
            raise ValueError("var must be nonnegative")
        return cls("gaussian", 1, {"mean": float(mean), "var": float(var)})

    @classmethod
    def gaussian_d(cls, mean, cov) -> "NoiseSpec":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = as_matrix(cov, name="cov").astype(float)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and cov dimensions disagree")
        return cls("gaussian", mean.shape[0], {"mean": mean, "cov": cov})

    @classmethod
    def laplace(cls, loc: float, scale: float) -> "NoiseSpec":
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        return cls("laplace", 1, {"loc": float(loc), "scale": float(scale)})

    @classmethod
    def laplace_d(cls, loc, scale) -> "NoiseSpec":
        loc = np.atleast_1d(np.asarray(loc, dtype=float))
        scale = np.atleast_1d(np.asarray(scale, dtype=float))
        return cls("laplace", loc.shape[0], {"loc": loc, "scale": scale})

    @classmethod
    def student_t(cls, df: float, scale: float) -> "NoiseSpec":
        if df <= 0 or scale < 0:
            raise ValueError("df must be positive and scale nonnegative")
        return cls("student_t", 1, {"df": float(df), "scale": float(scale)})

    @classmethod
    def student_t_d(cls, df: float, scale) -> "NoiseSpec":
        scale = np.atleast_1d(np.asarray(scale, dtype=float))
        return cls("student_t", scale.shape[0], {"df": float(df), "scale": scale})

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        if half_width < 0:
            raise ValueError("half_width must be nonnegative")
        return cls("uniform", 1, {"half_width": float(half_width)})

    @classmethod
    def uniform_d(cls, half_width) -> "NoiseSpec":
        hw = np.atleast_1d(np.asarray(half_width, dtype=float))
        return cls("uniform", hw.shape[0], {"half_width": hw})

    @classmethod
    def point_mass(cls, value: float) -> "NoiseSpec":
        return cls("point_mass", 1, {"value": float(value)})

    @classmethod
    def point_mass_d(cls, value) -> "NoiseSpec":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls("point_mass", v.shape[0], {"value": v})

    def lift(self, direction) -> "NoiseSpec":
        """Embed a scalar spec as ``xi = eps * direction`` in ``len(direction)`` dims."""
        if not self.is_scalar_driven or self.dim != 1:
            raise ValueError("only 1-D scalar specs can be lifted")
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        params = dict(self.params)
        params["direction"] = u
        return NoiseSpec(self.family, u.shape[0], params)

    def averaged(self, n: int) -> "NoiseSpec":
        """Gaussian noise of the mean of ``n`` i.i.d. copies; one spec (and moment cache) per n."""
        if self.family != "gaussian":
            raise ValueError("only Gaussian noise averages to a noise spec")
        if n not in self._averaged:
            prm, factor = self.params, 1.0 / n
            if self.is_scalar_driven:
                avg = NoiseSpec.gaussian(prm["mean"], prm["var"] * factor)
                if "direction" in prm:
                    avg = avg.lift(prm["direction"])
            else:
                avg = NoiseSpec.gaussian_d(prm["mean"], prm["cov"] * factor)
            self._averaged[n] = avg
        return self._averaged[n]

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
        """Whether ``E|xi|**r`` is finite (strict at the Student-t boundary)."""
        if self.family == "student_t":
            return r < self.params["df"]
        return True

    # -- scalar building blocks ---------------------------------------------

    def _scalar_mean(self) -> float:
        f, p = self.family, self.params
        if f == "gaussian":
            return p["mean"]
        if f == "laplace":
            return p["loc"]
        if f == "point_mass":
            return p["value"]
        if f == "student_t":
            if p["df"] <= 1:
                raise MomentUnavailable("Student-t mean needs df > 1")
            return 0.0
        return 0.0

    def _scalar_var(self) -> float:
        f, p = self.family, self.params
        if f == "gaussian":
            return p["var"]
        if f == "laplace":
            return 2.0 * p["scale"] ** 2
        if f == "student_t":
            if p["df"] <= 2:
                raise MomentUnavailable("Student-t variance needs df > 2")
            return p["scale"] ** 2 * p["df"] / (p["df"] - 2.0)
        if f == "uniform":
            return p["half_width"] ** 2 / 3.0
        return 0.0

    def scalar_abs_moment(self, p: float) -> float:
        """``E|eps|**p`` of the scalar driver, in closed/deterministic form."""
        if not self.is_scalar_driven:
            raise ValueError("scalar moment of a vector noise spec")
        if not self.has_moment(p):
            raise MomentUnavailable(
                f"order {p} moment unavailable for {self.family} noise"
            )
        f, prm = self.family, self.params
        if f == "gaussian":
            std = math.sqrt(prm["var"])
            return _gauss_shifted_abs_moment(prm["mean"], std, p)
        if f == "laplace":
            return _laplace_abs_moment(prm["loc"], prm["scale"], p)
        if f == "student_t":
            return prm["scale"] ** p * _student_abs_moment(prm["df"], p)
        if f == "uniform":
            return prm["half_width"] ** p / (p + 1.0)
        return abs(prm["value"]) ** p

    # -- vector-level quantities ---------------------------------------------

    def mean_vector(self) -> np.ndarray:
        if self.is_scalar_driven:
            return self._scalar_mean() * self.direction
        f, p = self.family, self.params
        if f == "gaussian":
            return p["mean"].copy()
        if f == "laplace":
            return p["loc"].copy()
        if f == "point_mass":
            return p["value"].copy()
        if f == "student_t" and p["df"] <= 1:
            raise MomentUnavailable("Student-t mean needs df > 1")
        return np.zeros(self.dim)

    def covariance(self) -> np.ndarray:
        if self.is_scalar_driven:
            u = self.direction
            return self._scalar_var() * np.outer(u, u)
        f, p = self.family, self.params
        if f == "gaussian":
            return p["cov"].copy()
        if f == "laplace":
            return np.diag(2.0 * p["scale"] ** 2)
        if f == "student_t":
            if p["df"] <= 2:
                raise MomentUnavailable("Student-t covariance needs df > 2")
            return np.diag(p["scale"] ** 2 * p["df"] / (p["df"] - 2.0))
        if f == "uniform":
            return np.diag(p["half_width"] ** 2 / 3.0)
        return np.zeros((self.dim, self.dim))

    def sampler(self):
        """Return ``draw(rng, n) -> (n, dim)`` with any factorization precomputed."""
        f, prm, d = self.family, self.params, self.dim
        if self.is_scalar_driven:
            u = self.direction

            def scalar_draw(rng, n):
                if f == "gaussian":
                    eps = prm["mean"] + math.sqrt(prm["var"]) * rng.standard_normal(n)
                elif f == "laplace":
                    eps = prm["loc"] + prm["scale"] * rng.laplace(0.0, 1.0, size=n)
                elif f == "student_t":
                    eps = prm["scale"] * rng.standard_t(prm["df"], size=n)
                elif f == "uniform":
                    eps = rng.uniform(-prm["half_width"], prm["half_width"], size=n)
                else:
                    eps = np.full(n, prm["value"])
                return np.atleast_1d(eps)[:, None] * u[None, :]

            return scalar_draw

        if f == "gaussian":
            w, V = np.linalg.eigh(0.5 * (prm["cov"] + prm["cov"].T))
            factor = V * np.sqrt(np.clip(w, 0.0, None))
            mean = prm["mean"]

            def gauss_draw(rng, n):
                return mean + rng.standard_normal((n, d)) @ factor.T

            return gauss_draw

        def coord_draw(rng, n):
            if f == "laplace":
                out = prm["loc"] + prm["scale"] * rng.laplace(0.0, 1.0, size=(n, d))
            elif f == "student_t":
                out = prm["scale"] * rng.standard_t(prm["df"], size=(n, d))
            elif f == "uniform":
                out = rng.uniform(-1.0, 1.0, size=(n, d)) * prm["half_width"]
            else:
                out = np.tile(prm["value"], (n, 1))
            return out

        return coord_draw

    def abs_moment_sigma(
        self, Sigma, p: float, mc_draws: int = 10**6, seed: int = 0
    ) -> tuple[float, float]:
        """``(E|Sigma xi|**p, stderr)``; stderr is zero for deterministic routes.

        Deterministic routes: closed forms for scalar-driven specs, point
        masses and ``p = 2``, and a one-dimensional quadrature for vector
        Gaussian noise at ``0 < p < 2`` (the coupling regime).  The rest
        (vector Laplace, Student-t and uniform noise, and vector Gaussian
        noise at ``p > 2``) is a seeded ``mc_draws``-sample Monte Carlo with
        a positive stderr.

        Raises
        ------
        MomentUnavailable
            If the order-``p`` moment is infinite.
        NonConvergence
            If the Gaussian quadrature misses its relative error cap.
        """
        Sigma = as_matrix(Sigma, name="Sigma").astype(float)
        if not self.has_moment(p):
            raise MomentUnavailable(
                f"order {p} moment unavailable for {self.family} noise"
            )
        key = (Sigma.tobytes(), Sigma.shape, p, mc_draws, seed)
        cached = self._moment_cache.get(key)
        if cached is not None:
            return cached
        result = self._abs_moment_sigma(Sigma, p, mc_draws, seed)
        self._moment_cache[key] = result
        return result

    def moment_root(self, Sigma, p: float, seed: int = 0) -> tuple[float, float]:
        """``(E|Sigma xi|**p + 3 stderr)**(1/p)`` and the stderr: Monte Carlo
        estimates enter bounds with a +3 stderr margin (exact routes have none)."""
        val, se = self.abs_moment_sigma(Sigma, p, seed=seed)
        return (val + 3.0 * se) ** (1.0 / p), se

    def _abs_moment_sigma(self, Sigma, p, mc_draws, seed):
        if self.is_scalar_driven:
            amp = float(np.linalg.norm(Sigma @ self.direction))
            return self.scalar_abs_moment(p) * amp**p, 0.0
        if self.family == "point_mass":
            return float(np.linalg.norm(Sigma @ self.params["value"])) ** p, 0.0
        if p == 2 or (self.family == "gaussian" and 0 < p < 2):
            m = Sigma @ self.mean_vector()
            c = Sigma @ self.covariance() @ Sigma.T
            if p == 2:
                return float(m @ m + np.trace(c)), 0.0
            return _gauss_norm_moment(m, c, p), 0.0
        return _mc_abs_moment(self.sampler(), Sigma, p, mc_draws, seed)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        params = {}
        for k, v in self.params.items():
            params[k] = v.tolist() if isinstance(v, np.ndarray) else v
        if "cov" in params:
            params["cov"] = [x for row in params["cov"] for x in row]
        return {"family": self.family, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        family = obj["family"]
        raw = dict(obj["params"])
        if "direction" in raw or not any(isinstance(v, list) for v in raw.values()):
            direction = raw.pop("direction", None)
            spec = cls(family, 1, {k: float(v) for k, v in raw.items()})
            return spec.lift(direction) if direction is not None else spec
        params = {}
        for k, v in raw.items():
            params[k] = np.asarray(v, dtype=float) if isinstance(v, list) else float(v)
        dim = next(
            len(v) for k, v in raw.items() if isinstance(v, list) and k != "cov"
        )
        if "cov" in params:
            params["cov"] = params["cov"].reshape(dim, dim)
        return cls(family, dim, params)


def stationary_cov_positive(lam: float, cov) -> bool:
    """Whether the smallest eigenvalue ``lam`` of ``cov`` is safely positive."""
    return lam > 1e-12 * max(1.0, float(np.trace(cov)))


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """The recursion data ``(d, Q, Sigma, noise)`` plus construction provenance.

    ``Q`` and ``Sigma`` are finite, read-only copies the model owns.  The
    per-model quantities every bound reads (the noise covariance,
    ``eigen(Q)`` and its eigen sandwich, the default star norm and the
    stationary law) are computed on first use and kept, so all calls on one
    model solve each problem once.
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

    @cached_property
    def noise_cov(self) -> np.ndarray:
        """``Sigma Cov(xi) Sigma^T``, the covariance of one noise increment."""
        return _read_only(self.Sigma @ self.noise.covariance() @ self.Sigma.T)

    @cached_property
    def spectrum(self) -> SpectralInfo:
        """``eigen(Q)``."""
        info = eigen(self.Q)
        _read_only(info.eigenvalues, info.eigenvector_matrix)
        return info

    @cached_property
    def sandwich(self) -> EigenSandwich:
        """The eigen sandwich of ``|Q^t z|``: ``U`` inverted once; raises ``NotDiagonalizable``."""
        sw = EigenSandwich(self.spectrum)
        _read_only(sw.U_inv, sw.moduli)
        return sw

    @cached_property
    def star(self) -> StarNorm:
        """The default contraction norm ``build_star_norm(Q)``."""
        star = build_star_norm(self.Q)
        _read_only(star.U, star.Delta)
        return star

    @cached_property
    def stationary_mean(self) -> np.ndarray:
        """``(I - Q)^{-1} Sigma E[xi_1]``, the mean of the stationary law."""
        m = self.Sigma @ self.noise.mean_vector()
        return _read_only(np.linalg.solve(np.eye(self.d) - self.Q, m))

    @cached_property
    def stationary_cov(self) -> np.ndarray:
        """Stationary covariance ``Sigma_inf``, solving ``S = Q S Q^T + noise_cov``."""
        return _read_only(stationary_covariance(self.Q, self.noise_cov))

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
    if noise1d.dim != 1:
        raise ValueError("AR construction takes a scalar noise spec")
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
    Q[0, :p] = phi
    Q[0, p:] = theta
    for i in range(1, p):
        Q[i, i - 1] = 1.0
    for i in range(p + 1, d):
        Q[i, i - 1] = 1.0
    Sigma = np.zeros((d, d))
    Sigma[0, 0] = 1.0
    Sigma[p, p] = 1.0
    noise1d = noise1d if noise1d is not None else NoiseSpec.gaussian(0.0, 1.0)
    if noise1d.dim != 1:
        raise ValueError("ARMA construction takes a scalar noise spec")
    u = np.zeros(d)
    u[0] = 1.0
    u[p] = 1.0
    return StateSpaceModel(
        d,
        Q,
        Sigma,
        noise1d.lift(u),
        {
            "kind": "arma",
            "p": p,
            "q": q,
            "phi": phi.tolist(),
            "theta": theta.tolist(),
        },
    )


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
    if r < 1:
        raise ValueError("order r must be at least 1")
    rho = model.spectrum.spectral_radius
    stable = rho < 1.0 - boundary_tol
    boundary = abs(rho - 1.0) <= boundary_tol
    moment_ok = model.noise.has_moment(r)
    flags = []
    if not stable:
        flags.append("NotSchurStable")
    if not moment_ok:
        flags.append("MomentUnavailable")
    gaussian_applicable, lam = False, None
    if model.noise.family == "gaussian" and stable:
        lam = model.lambda_min
        gaussian_applicable = stationary_cov_positive(lam, model.stationary_cov)
        if not gaussian_applicable:
            flags.append("SingularStationaryCovariance")
    elif model.noise.family != "gaussian":
        flags.append("NonGaussianNoise")
    return ModelDiagnostics(
        spectral_radius=float(rho),
        stable=bool(stable),
        boundary=bool(boundary),
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
