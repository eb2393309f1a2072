"""Dense real/complex matrix kernels.

Eigendecompositions, complex Schur triangularization, the scaled-triangular
contraction norm that certifies Schur stability, symmetric PSD square roots
and stationary-covariance solves.  Everything here is a pure function on
plain numpy arrays; nothing mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    KappaBelowThreshold,
    NonConvergence,
    NotPSD,
    NotSchurStable,
    NotSymmetric,
)

__all__ = [
    "SpectralInfo",
    "StarNorm",
    "as_matrix",
    "one_norm",
    "eigen",
    "schur_triangularize",
    "build_star_norm",
    "stationary_covariance",
    "psd_sqrt",
    "smallest_eigenvalue_sym",
]

# Eigenvector bases with condition number above this cap are treated as
# numerically defective; eigen-coordinate bounds blow up past it.
DIAGONALIZABLE_COND_CAP = 1e8

# Relative tolerance for matching conjugate eigenvalue pairs of real input.
PAIR_TOL = 1e-8


def as_matrix(a, square: bool = True, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D array and return it as float/complex."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.inexact):
        arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def one_norm(A) -> float:
    """Maximum column absolute sum (the matrix 1-norm)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.abs(A).sum(axis=0).max())


def fro(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(A, ord="fro"))


@dataclass(frozen=True)
class SpectralInfo:
    """Eigenvalues of a square matrix together with basic diagnostics.

    ``eigenvalues`` are sorted by (real, imag) and repeated by algebraic
    multiplicity; ``eigenvector_matrix`` has unit Euclidean columns in the
    matching order.  ``diagonalizable`` is a numerical verdict: the
    eigenvector basis exists with condition number at most
    ``DIAGONALIZABLE_COND_CAP``.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    eigenvector_matrix: np.ndarray | None
    diagonalizable: bool
    residual: float


def _check_conjugate_pairs(w: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(w).max()))
    atol = PAIR_TOL * scale
    nonreal = w[np.abs(w.imag) > atol]
    pos = np.sort_complex(nonreal[nonreal.imag > 0])
    neg = np.sort_complex(np.conj(nonreal[nonreal.imag < 0]))
    if len(pos) != len(neg) or (len(pos) and np.abs(pos - neg).max() > atol):
        raise NonConvergence("non-real eigenvalues of real input failed to pair")


def eigen(A, tol: float = 1e-8) -> SpectralInfo:
    """Eigenvalues and eigenvectors of a square matrix.

    Parameters
    ----------
    A : array_like
        Square matrix with finite entries.
    tol : float
        Relative residual cap: ``||A V - V diag(w)||_F <= tol * ||A||_F``.

    Raises
    ------
    NonConvergence
        If the underlying iteration fails or the residual contract is not met.
    """
    A = as_matrix(A, name="A")
    real_input = np.isrealobj(A)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    V = V[:, order]
    residual = fro(A @ V - V * w)
    scale = max(fro(A), np.finfo(float).tiny)
    if residual > tol * scale:
        raise NonConvergence(
            f"eigen residual {residual:.3e} exceeds {tol:.1e} * ||A||_F"
        )
    if real_input:
        _check_conjugate_pairs(w)
    try:
        cond = np.linalg.cond(V)
    except np.linalg.LinAlgError:
        cond = np.inf
    diagonalizable = bool(np.isfinite(cond) and cond <= DIAGONALIZABLE_COND_CAP)
    return SpectralInfo(
        eigenvalues=w,
        spectral_radius=float(np.abs(w).max()),
        eigenvector_matrix=V,
        diagonalizable=diagonalizable,
        residual=residual,
    )


def schur_triangularize(A, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``A = U Delta U*`` with unitary U, triangular Delta.

    The contract is purely residual-based: ``||A - U Delta U*||_F <=
    tol * ||A||_F`` and ``||U* U - I||_F <= tol * sqrt(d)``.
    """
    A = as_matrix(A, name="A")
    d = A.shape[0]
    try:
        Delta, U = scipy.linalg.schur(A.astype(complex), output="complex")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NonConvergence(f"Schur iteration failed: {exc}") from exc
    scale = max(fro(A), np.finfo(float).tiny)
    lower = np.tril(Delta, k=-1)
    if fro(lower) > tol * scale:
        raise NonConvergence("Schur factor is not triangular within tolerance")
    Delta = np.triu(Delta)
    resid = fro(A - U @ Delta @ U.conj().T)
    unit = fro(U.conj().T @ U - np.eye(d))
    if resid > tol * scale or unit > tol * math.sqrt(d) + tol:
        raise NonConvergence(
            f"Schur residual {resid:.3e} / unitarity defect {unit:.3e} "
            f"exceed tolerance {tol:.1e}"
        )
    return U, Delta


def _scaled_triangular_norm(M: np.ndarray, kappa: float) -> float:
    """1-norm of ``D M D^{-1}`` with ``D = diag(kappa, ..., kappa**d)``.

    Entry (i, j) of the conjugated matrix is ``M[i, j] * kappa**(i - j)``, so
    the strictly upper triangle is damped by negative powers of ``kappa``.
    """
    d = M.shape[0]
    p = np.arange(1, d + 1, dtype=float)
    return one_norm(M * kappa ** (p[:, None] - p[None, :]))


@dataclass(frozen=True)
class StarNorm:
    """Certified contraction data for a Schur stable matrix.

    Built from the Schur form ``Q = U Delta U*`` and a diagonal scaling
    ``J = diag(kappa, ..., kappa**d)``; the norm of any matrix ``A`` of the
    same size is ``||J U* A U J^{-1}||_1``, which damps the strictly upper
    triangle of the Schur factor.  For admissible ``kappa`` the value on the
    generating matrix is strictly below one, and the companion constants
    bound the Euclidean operator action (``K_d``) and the Frobenius norm
    (``C_star``) in terms of this norm.
    """

    U: np.ndarray
    Delta: np.ndarray
    kappa: float
    value: float
    K_d: float
    C_star: float
    schur_residual: float
    spectral_radius: float

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    def of(self, A) -> float:
        """Evaluate the norm on an arbitrary matrix of matching size."""
        A = as_matrix(A, name="A")
        if A.shape != self.U.shape:
            raise ValueError(f"expected shape {self.U.shape}, got {A.shape}")
        M = self.U.conj().T @ A @ self.U
        return _scaled_triangular_norm(M, self.kappa)


def _star_constants(U: np.ndarray, kappa: float) -> tuple[float, float]:
    d = U.shape[0]
    K_d = d * kappa ** (d - 1) * one_norm(U) * one_norm(U.conj().T)
    j_inv = kappa ** -np.arange(1, d + 1, dtype=float)
    S = U * j_inv[None, :]
    S_inv = (1.0 / j_inv)[:, None] * U.conj().T
    C_star = math.sqrt(d) * one_norm(S) * one_norm(S_inv)
    return K_d, C_star


def _optimize_kappa(
    Delta: np.ndarray, U: np.ndarray, threshold: float, t: int
) -> float:
    """Pick kappa minimizing the geometric-tail factor of the generic bound.

    Objective is ``K_d(kappa) * s(kappa)**(t+1) / (1 - s(kappa))`` with
    ``s`` the norm value at that kappa, the kappa-dependent factor of the
    order-1 coupling bound with unit moment weights.  The objective is
    scanned on a log grid above the admissibility threshold and refined by
    golden-section search in the best bracket.
    """

    def objective(kappa: float) -> float:
        s = _scaled_triangular_norm(Delta, kappa)
        if s >= 1.0:
            return np.inf
        K_d, _ = _star_constants(U, kappa)
        return K_d * s ** (t + 1) / (1.0 - s)

    lo = math.log(threshold * (1.0 + 1e-9))
    hi = math.log(threshold * 1e4)
    grid = np.linspace(lo, hi, 80)
    vals = [objective(math.exp(g)) for g in grid]
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(math.exp(x2))
    return math.exp(0.5 * (a + b))


def build_star_norm(
    Q,
    kappa_policy: dict | None = None,
    stability_tol: float = 1e-9,
    schur_tol: float = 1e-10,
) -> StarNorm:
    """Construct the contraction norm certifying ``rho(Q) < 1``.

    Parameters
    ----------
    Q : array_like
        Real square matrix with spectral radius strictly below one.
    kappa_policy : dict, optional
        One of ``{"auto_margin": m}`` (default, ``m = 2``: kappa is ``m``
        times the admissibility threshold), ``{"fixed": kappa}``, or
        ``{"optimize_at": t}`` (kappa minimizing the geometric-tail factor
        of the generic bound at time step ``t``).

    Raises
    ------
    NotSchurStable
        If ``rho(Q) >= 1 - stability_tol``.
    KappaBelowThreshold
        If a fixed kappa does not exceed ``max(1, ||Delta||_1 / (1 - rho))``.
    """
    Q = as_matrix(Q, name="Q")
    d = Q.shape[0]
    info = eigen(Q)
    rho = info.spectral_radius
    if rho >= 1.0 - stability_tol:
        raise NotSchurStable(f"spectral radius {rho:.12g} is not below 1")
    U, Delta = schur_triangularize(Q, tol=schur_tol)
    threshold = max(1.0, one_norm(Delta) / (1.0 - rho))

    policy = dict(kappa_policy) if kappa_policy else {"auto_margin": 2.0}
    if "fixed" in policy:
        kappa = float(policy["fixed"])
        if kappa <= threshold:
            raise KappaBelowThreshold(
                f"kappa {kappa:g} must exceed threshold {threshold:.12g}"
            )
    elif "optimize_at" in policy:
        kappa = _optimize_kappa(Delta, U, threshold, int(policy["optimize_at"]))
    elif "auto_margin" in policy:
        margin = float(policy["auto_margin"])
        if margin <= 1.0:
            raise ValueError("auto_margin must exceed 1")
        kappa = margin * threshold
    else:
        raise ValueError(f"unknown kappa policy {policy!r}")

    value = _scaled_triangular_norm(Delta, kappa)
    K_d, C_star = _star_constants(U, kappa)
    return StarNorm(
        U=U,
        Delta=Delta,
        kappa=kappa,
        value=value,
        K_d=K_d,
        C_star=C_star,
        schur_residual=fro(Q - U @ Delta @ U.conj().T),
        spectral_radius=rho,
    )


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


# Cap on squarings: Q^(2^k) is below rounding long before k = 64 for any
# rho(Q) that float64 separates from one.
_MAX_DOUBLINGS = 64


def _doubling(Q: np.ndarray, V: np.ndarray, tol: float) -> np.ndarray | None:
    """Squaring iteration ``S <- S + M S M^T``, ``M <- M @ M`` from ``S = V``,
    ``M = Q``; ``None`` if the increments never fall below the cap."""
    S, M = V, Q
    for _ in range(_MAX_DOUBLINGS):
        inc = M @ S @ M.T
        S = _sym(S + inc)
        M = M @ M
        if fro(inc) <= 0.25 * tol * max(1.0, fro(S)):
            return S
    return None


def stationary_covariance(Q, V, tol: float = 1e-12) -> np.ndarray:
    """Solve ``S = Q S Q^T + V`` for the stationary covariance.

    Runs the squaring (doubling) iteration, the fastest route when ``Q``
    is near normal.  When rounding in the squarings of a strongly
    non-normal ``Q`` misses the residual cap, or overflows, it falls back
    to the bilinear method of ``scipy.linalg.solve_discrete_lyapunov`` (a
    Bartels-Stewart solve), refined once if it misses the cap.  That
    solver's default below dimension 10, an LU solve of
    ``(I - Q (x) Q) vec S = vec V``, also meets the residual cap there but
    can be off by percents in ``S`` itself.

    Raises
    ------
    NotSchurStable
        If ``rho(Q) >= 1``.
    NonConvergence
        If the fixed-point residual exceeds ``tol * max(1, ||S||_F)``.
    """
    Q = as_matrix(Q, name="Q")
    V = as_matrix(V, name="V")
    if Q.shape != V.shape:
        raise ValueError("Q and V must have matching shapes")
    if eigen(Q).spectral_radius >= 1.0:
        raise NotSchurStable("stationary covariance needs rho(Q) < 1")
    Qf, Vs = Q.astype(float), _sym(V.astype(float))

    def meets_cap(S):
        size = fro(S)
        return math.isfinite(size) and fro(S - Q @ S @ Q.T - V) <= tol * max(1.0, size)

    def bilinear(R):
        return _sym(scipy.linalg.solve_discrete_lyapunov(Qf, R, method="bilinear"))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed S fails the cap
        S = _doubling(Qf, Vs, tol)
        doubled = S is not None and meets_cap(S)
    if not doubled:
        try:
            S = bilinear(Vs)
            if not meets_cap(S):  # one step of iterative refinement
                S = S + bilinear(_sym(Vs - S + Qf @ S @ Qf.T))
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"Lyapunov solve failed: {exc}") from exc
        if not meets_cap(S):
            raise NonConvergence(
                f"stationary covariance misses the residual cap {tol:.1e} * max(1, ||S||_F)"
            )
    return S


def _check_symmetric(S: np.ndarray, sym_tol: float, name: str) -> np.ndarray:
    if np.iscomplexobj(S):
        if np.abs(S.imag).max() > sym_tol * max(1.0, fro(S)):
            raise NotSymmetric(f"{name} has a non-negligible imaginary part")
        S = S.real
    if fro(S - S.T) > sym_tol * max(1.0, fro(S)):
        raise NotSymmetric(f"{name} is not symmetric within {sym_tol:.1e}")
    return _sym(S)


def psd_sqrt(S, sym_tol: float = 1e-10, eig_tol: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root ``R`` with ``R @ R = S``.

    Eigenvalues in ``[-eig_tol * max(1, lambda_max), 0)`` are clamped to
    zero; anything more negative raises ``NotPSD``.
    """
    S = as_matrix(S, name="S")
    S = _check_symmetric(S, sym_tol, "S")
    w, V = np.linalg.eigh(S)
    floor = -eig_tol * max(1.0, float(w[-1]) if w.size else 1.0)
    if w[0] < floor:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} below clamp {floor:.3e}")
    w = np.clip(w, 0.0, None)
    return _sym((V * np.sqrt(w)) @ V.T)


def smallest_eigenvalue_sym(S, sym_tol: float = 1e-10) -> float:
    """Minimal eigenvalue of a symmetric matrix."""
    S = as_matrix(S, name="S")
    S = _check_symmetric(S, sym_tol, "S")
    return float(np.linalg.eigvalsh(S)[0])
