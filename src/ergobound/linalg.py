"""Dense real/complex matrix kernels.

Eigendecompositions, symmetric PSD square roots and complex Schur forms; on
one Schur form, the scaled-triangular contraction norm that certifies Schur
stability and the stationary-covariance solve.  Everything here is a function of
plain numpy arrays that mutates no input; ``eigen`` and ``schur_triangularize``
remember their last matrix, so each matrix is decomposed once.
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
    as_step,
)

__all__ = [
    "SchurForm",
    "SpectralInfo",
    "StarNorm",
    "as_matrix",
    "one_norm",
    "eigen",
    "schur_triangularize",
    "star_norm",
    "build_star_norm",
    "check_kappa_policy",
    "solve_stein",
    "stationary_covariance",
    "psd_sqrt",
    "psd_factor",
    "smallest_eigenvalue_sym",
]

# Eigenvector bases with condition number above this cap are treated as
# numerically defective; eigen-coordinate bounds blow up past it.
DIAGONALIZABLE_COND_CAP = 1e8

# Relative tolerance for matching conjugate eigenvalue pairs of real input.
PAIR_TOL = 1e-8


def as_matrix(a, square: bool = True, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """``a`` as a finite float/complex 2-D array (a 3-D stack with ``stacked``), or ValueError."""
    arr = np.asarray(a)
    if arr.ndim != 2 + stacked:
        raise ValueError(f"{name} must be {2 + stacked}-D, got shape {arr.shape}")
    if square and arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
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


def _sqnorms(x: np.ndarray) -> np.ndarray:
    """``x @ x`` along the last axis, bit for bit (one ``dot`` per row); for complex rows
    the real and imaginary dots summed, as ``np.linalg.norm`` does."""
    if x.dtype.kind == "c":
        return _sqnorms(x.real) + _sqnorms(x.imag)
    return x @ x if x.ndim == 1 else (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def row_norms(Z) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``Z`` to the bit."""
    return np.sqrt(_sqnorms(Z))


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


def _read_only(*arrays) -> np.ndarray:
    """Mark the arrays read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


def _once(kept: dict, key, compute):
    """``kept[key]``, stored as ``compute()`` on the first call with ``key``: every key of an
    object's own dict is kept.  A ``compute`` that raises stores nothing."""
    value = kept.get(key, kept)  # the dict itself marks a missing key
    if value is kept:
        value = kept[key] = compute()
    return value


def _last(slot: list, key, compute):
    """``compute()``, kept in the one-entry ``slot`` while calls ask for the same ``key``: one
    ``(key, value)`` per slot, stored whole, and nothing when ``compute`` raises."""
    kept = slot[0]
    if kept[0] != key:
        kept = slot[0] = key, compute()
    return kept[1]


_EIGEN, _SCHUR = [(None, None)], [(None, None)]  # the last matrix's (key, result) of each


def eigen(A) -> SpectralInfo:
    """Eigenvalues and eigenvectors of a square matrix with finite entries, remembered for the
    last matrix, with read-only arrays.  Raises ``NonConvergence`` if the iteration fails or
    misses ``||A V - V diag(w)||_F <= 1e-8 ||A||_F``."""
    A = as_matrix(A, name="A")
    return _last(_EIGEN, (A.dtype.str, A.shape, A.tobytes()), lambda: _eigen(_read_only(A.copy())))


def _eigen(A: np.ndarray) -> SpectralInfo:
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
    if residual > _EIGEN_TOL * scale:
        raise NonConvergence(
            f"eigen residual {residual:.3e} exceeds {_EIGEN_TOL:.1e} * ||A||_F"
        )
    if real_input:
        _check_conjugate_pairs(w)
    try:
        cond = np.linalg.cond(V)
    except np.linalg.LinAlgError:
        cond = np.inf
    diagonalizable = bool(np.isfinite(cond) and cond <= DIAGONALIZABLE_COND_CAP)
    return SpectralInfo(
        eigenvalues=_read_only(w),
        spectral_radius=float(np.abs(w).max()),
        eigenvector_matrix=_read_only(V),
        diagonalizable=diagonalizable,
        residual=residual,
    )


# Contracts: the relative residual caps of the eigendecomposition, the Schur step and the
# stationary-covariance solve, the distance below one that certifies Schur stability, the
# relative symmetry defect of a symmetric input, and psd_sqrt's eigenvalue clamp below
# max(1, lambda_max).
_EIGEN_TOL = 1e-8
_SCHUR_TOL = 1e-10
_STEIN_TOL = 1e-12
_STABILITY_TOL = 1e-9
_SYM_TOL = 1e-10
_EIG_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class SchurForm:
    """Complex Schur form ``A = U Delta U*`` with unitary U, upper triangular Delta;
    ``residual`` is ``||A - U Delta U*||_F``, ``spectral_radius`` the largest ``|Delta_jj|``."""

    A: np.ndarray
    U: np.ndarray
    Delta: np.ndarray
    residual: float
    spectral_radius: float


def schur_triangularize(A) -> SchurForm:
    """The complex Schur form of a square matrix.

    The contract is purely residual-based: ``||A - U Delta U*||_F <=
    1e-10 ||A||_F`` and ``||U* U - I||_F <= 1e-10 (sqrt(d) + 1)``.  The form is
    remembered for the last matrix, and ``A``, ``U`` and ``Delta`` are read-only, ``A`` a
    private copy; so every caller on one matrix shares one decomposition.
    """
    A = as_matrix(A, name="A")
    return _last(_SCHUR, (A.dtype.str, A.shape, A.tobytes()), lambda: _schur(_read_only(A.copy())))


def _schur(A: np.ndarray) -> SchurForm:
    d = A.shape[0]
    try:
        Delta, U = scipy.linalg.schur(A.astype(complex), output="complex")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NonConvergence(f"Schur iteration failed: {exc}") from exc
    scale = max(fro(A), np.finfo(float).tiny)
    if fro(np.tril(Delta, k=-1)) > _SCHUR_TOL * scale:
        raise NonConvergence("Schur factor is not triangular within tolerance")
    Delta = _read_only(np.triu(Delta))
    resid = fro(A - U @ Delta @ U.conj().T)
    unit = fro(U.conj().T @ U - np.eye(d))
    if resid > _SCHUR_TOL * scale or unit > _SCHUR_TOL * (math.sqrt(d) + 1.0):
        raise NonConvergence(f"Schur residual {resid:.3e} / unitarity defect {unit:.3e} "
                             f"exceed tolerance {_SCHUR_TOL:.1e}")
    rho = float(np.abs(np.diag(Delta)).max(initial=0.0))
    return SchurForm(A=A, U=_read_only(U), Delta=Delta, residual=resid, spectral_radius=rho)


def _scaled_norms(M: np.ndarray, kappas) -> np.ndarray:
    """``||J M J^{-1}||_1`` with ``J = diag(kappa, ..., kappa**d)`` at each of ``kappas``.

    Entry (i, j) of the conjugated matrix is ``M[i, j] * kappa**(i - j)``, so the strictly
    upper triangle is damped by negative powers of ``kappa``.  Per kappa, the ``2d - 1``
    powers ``kappa ** k`` are gathered into those weights, a few kappas at a time
    (temporaries below 2^14 entries).
    """
    d = M.shape[0]
    kappas = np.asarray(kappas, dtype=float).reshape(-1)
    powers = np.arange(1 - d, d, dtype=float)
    gather = np.subtract.outer(np.arange(d), np.arange(d)) + (d - 1)
    step = max(1, 2 ** 14 // max(1, d * d))
    return np.concatenate([np.abs(M * (kappas[i:i + step, None] ** powers)[:, gather])
                           .sum(axis=1).max(axis=1, initial=0.0)
                           for i in range(0, len(kappas), step)])


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
        return float(_scaled_norms(self.U.conj().T @ A @ self.U, self.kappa)[0])


def _star_constants(U: np.ndarray, kappa: float) -> tuple[float, float]:
    d = U.shape[0]
    K_d = d * kappa ** (d - 1) * one_norm(U) * one_norm(U.conj().T)
    j_inv = kappa ** -np.arange(1, d + 1, dtype=float)
    S = U * j_inv[None, :]
    S_inv = (1.0 / j_inv)[:, None] * U.conj().T
    C_star = math.sqrt(d) * one_norm(S) * one_norm(S_inv)
    return K_d, C_star


def _kappa_objective(Delta: np.ndarray, U: np.ndarray, t: int):
    """The objective of :func:`_optimize_kappa` at each of a sequence of kappas, as a list.
    A non-finite norm or an overflowing objective scores ``inf``."""
    d, a, b = U.shape[0], one_norm(U), one_norm(U.conj().T)

    def value(kappa: float, s: float) -> float:
        try:
            f = d * kappa ** (d - 1) * a * b * s ** (t + 1) / (1.0 - s)
        except ArithmeticError:  # kappa ** (d - 1) overflows, or s is 1
            return np.inf
        return f if s < 1.0 and f < np.inf else np.inf

    def objective(kappas):
        kappas = np.asarray(kappas, dtype=float)
        return [value(k, s) for k, s in zip(kappas.tolist(), _scaled_norms(Delta, kappas).tolist())]

    return objective


@np.errstate(over="ignore", invalid="ignore")  # such kappas score inf
def _optimize_kappa(Delta: np.ndarray, U: np.ndarray, threshold: float, t: int) -> float:
    """Pick kappa minimizing the geometric-tail factor of the generic bound.

    Objective is ``K_d(kappa) * s(kappa)**(t+1) / (1 - s(kappa))`` with
    ``s`` the norm value at that kappa, the kappa-dependent factor of the
    order-1 coupling bound with unit moment weights.  It is scanned on 16
    log-spaced points over ``[threshold (1 + 1e-9), 1e4 threshold]``, then on 8
    across the best point's bracket until that is narrower than 1e-9 in
    ``log kappa``.  Each column sum of ``J Delta J^{-1}`` is a sum of
    exponentials in ``log kappa``, so the objective's log is convex in
    ``log kappa`` where it is finite (from the threshold on), and every bracket
    holds the minimizer.
    """
    objective = _kappa_objective(Delta, U, t)
    grid = np.linspace(math.log(threshold * (1.0 + 1e-9)), math.log(threshold * 1e4), 16)
    while True:
        k = int(np.argmin(objective(np.exp(grid))))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        if not hi - lo >= 1e-9:  # a NaN width stops too
            return math.exp(grid[k])
        grid = np.linspace(lo, hi, 8)


def check_kappa_policy(policy: dict) -> int:
    """Raise ``ValueError`` unless ``policy`` has exactly one of the keys ``auto_margin``,
    ``fixed`` and ``optimize_at``, a fixed kappa is finite, a margin is finite and above
    one, and an optimization step ``t`` is a step (:func:`errors.as_step`); return that
    step as a Python int (0 without one)."""
    if len(policy) != 1 or not policy.keys() <= {"auto_margin", "fixed", "optimize_at"}:
        raise ValueError(f"a kappa policy has exactly one of the keys auto_margin, fixed "
                         f"and optimize_at, got {policy!r}")
    fixed, margin = float(policy.get("fixed", 0.0)), float(policy.get("auto_margin", 2.0))
    if not math.isfinite(fixed) or not 1.0 < margin < math.inf:
        raise ValueError(f"invalid kappa policy {policy!r}")
    return as_step(policy.get("optimize_at", 0), "optimize_at")


def star_norm(schur: SchurForm, kappa_policy: dict | None = None) -> StarNorm:
    """Construct the contraction norm certifying ``rho(Q) < 1`` from a Schur form of ``Q``.

    Parameters
    ----------
    schur : SchurForm
        ``schur_triangularize(Q)`` for a real square ``Q``.
    kappa_policy : dict, optional
        One of ``{"auto_margin": m}`` (default, ``m = 2``: kappa is ``m``
        times the admissibility threshold), ``{"fixed": kappa}``, or
        ``{"optimize_at": t}`` (kappa minimizing the geometric-tail factor
        of the generic bound at time step ``t``).

    Raises
    ------
    NotSchurStable
        If ``rho(Q) >= 1 - 1e-9``.
    KappaBelowThreshold
        If a fixed kappa does not exceed ``max(1, ||Delta||_1 / (1 - rho))``.
    ValueError
        If the policy fails :func:`check_kappa_policy`.
    """
    return _star_norm(lambda: schur, kappa_policy)


def build_star_norm(Q, kappa_policy: dict | None = None) -> StarNorm:
    """:func:`star_norm` of the Schur form of the square matrix ``Q``, factored after the check."""
    return _star_norm(lambda: schur_triangularize(as_matrix(Q, name="Q")), kappa_policy)


def _star_norm(schur_of, kappa_policy: dict | None) -> StarNorm:
    """:func:`star_norm` of the Schur form ``schur_of()``, asked for once the policy passes."""
    policy = dict(kappa_policy) if kappa_policy else {"auto_margin": 2.0}
    step = check_kappa_policy(policy)
    schur = schur_of()
    U, Delta, rho = schur.U, schur.Delta, schur.spectral_radius
    if rho >= 1.0 - _STABILITY_TOL:
        raise NotSchurStable(f"spectral radius {rho:.12g} is not below 1")
    threshold = max(1.0, one_norm(Delta) / (1.0 - rho))

    (kind, arg), = policy.items()
    if kind == "fixed":
        kappa = float(arg)
        if kappa <= threshold:
            raise KappaBelowThreshold(
                f"kappa {kappa:g} must exceed threshold {threshold:.12g}"
            )
    elif kind == "optimize_at":
        kappa = _optimize_kappa(Delta, U, threshold, step)
    else:
        kappa = float(arg) * threshold

    value = float(_scaled_norms(Delta, kappa)[0])
    K_d, C_star = _star_constants(U, kappa)
    return StarNorm(U=U, Delta=Delta, kappa=kappa, value=value, K_d=K_d, C_star=C_star,
                    schur_residual=schur.residual, spectral_radius=rho)


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.swapaxes(-1, -2))


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A @ v`` in even row blocks below 4096 multiply-adds, which OpenBLAS keeps on the
    calling thread (waking its threads after an idle spell can cost a scheduler tick a
    product).  Every entry keeps its bits, as no block is a lone row (numpy's dot case)."""
    m, k = A.shape
    if m * k < 4096:
        return A @ v
    blocks = max(1, min(m // 2, -(-m // max(1, 4095 // k))))
    return np.concatenate([A[m * b // blocks:m * (b + 1) // blocks] @ v for b in range(blocks)])


def _kitagawa(U: np.ndarray, Delta: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``S = Q S Q^T + R`` for ``Q = U Delta U*``: in the Schur basis, column ``j`` solves
    ``(I - conj(Delta_jj) Delta) x_j = c_j + Delta X[:, j+1:] conj(Delta[j, j+1:])``."""
    C = U.conj().T @ R @ U
    X = np.zeros_like(C)
    eye = np.eye(len(C))
    # LAPACK trtrs called as solve_triangular calls it on a C-ordered upper triangle
    trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (Delta, C))
    for j in range(len(C) - 1, -1, -1):
        rhs = C[:, j] + _matvec(Delta, _matvec(X[:, j + 1:], Delta[j, j + 1:].conj()))
        X[:, j] = trtrs((eye - Delta[j, j].conj() * Delta).T, rhs, lower=1, trans=1)[0]
    return _sym((U @ X @ U.conj().T).real)


def solve_stein(schur: SchurForm, V) -> np.ndarray:
    """Solve ``S = Q S Q^T + V`` for the stationary covariance, given a Schur form of ``Q``.

    In the Schur basis ``X = Delta X Delta* + U* V U`` is solved column by
    column from the last (Kitagawa 1977, the discrete Bartels-Stewart
    method), and ``S = U X U*``.  The same solve on the residual taken with
    ``Q`` gives a correction ``E`` that removes the rounding of the Schur
    form (the bare solve is up to 2e-14 off ``S`` on AR models).  ``E`` is
    taken only while ``||E||_F <= 1e-12 ||S||_F``: a larger one is residual
    rounding amplified by an ill-conditioned equation.

    Raises
    ------
    NotSchurStable
        If ``rho(Q) >= 1``.
    NonConvergence
        If the fixed-point residual exceeds ``1e-12 * max(1, ||S||_F)``.
    """
    Q, U, Delta = schur.A, schur.U, schur.Delta
    V = as_matrix(V, name="V")
    if Q.shape != V.shape:
        raise ValueError("Q and V must have matching shapes")
    if schur.spectral_radius >= 1.0:
        raise NotSchurStable("stationary covariance needs rho(Q) < 1")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed S fails the cap
        S = _kitagawa(U, Delta, _sym(V))
        E = _kitagawa(U, Delta, _sym(V - S + Q @ S @ Q.T))
        if fro(E) <= _STEIN_TOL * fro(S):
            S = S + E
        size = fro(S)
        if not (math.isfinite(size) and fro(S - Q @ S @ Q.T - V) <= _STEIN_TOL * max(1.0, size)):
            raise NonConvergence(f"stationary covariance misses the residual cap "
                                 f"{_STEIN_TOL:.1e} * max(1, ||S||_F)")
    return S


def stationary_covariance(Q, V) -> np.ndarray:
    """:func:`solve_stein` on the Schur form of the square matrix ``Q``."""
    return solve_stein(schur_triangularize(as_matrix(Q, name="Q")), V)


def _check_symmetric(S: np.ndarray) -> np.ndarray:
    """Each matrix of ``S`` symmetrized; ``NotSymmetric`` past ``_SYM_TOL * max(1, fro(S_k))``."""
    flat = S.reshape(S.shape[:-2] + (-1,))
    tol = _SYM_TOL * np.maximum(1.0, row_norms(flat))
    if S.dtype.kind == "c" and np.count_nonzero(np.abs(S.imag).max(axis=(-2, -1)) > tol):
        raise NotSymmetric("S has a non-negligible imaginary part")
    S = S.real
    ST = S.swapaxes(-1, -2)
    if np.count_nonzero(row_norms((S - ST).reshape(flat.shape)) > tol):
        raise NotSymmetric(f"S is not symmetric within {_SYM_TOL:.1e}")
    return 0.5 * (S + ST)


def psd_sqrt(S) -> np.ndarray:
    """Symmetric PSD square root ``R`` with ``R @ R = S``, or the roots of a stack ``(k, d, d)``,
    each matrix checked and rooted alone, bit for bit: finite entries, symmetry within
    ``_SYM_TOL``, and eigenvalues in ``[-_EIG_CLAMP_TOL * max(1, lambda_max), 0)`` clamped
    to zero; anything more negative raises ``NotPSD``."""
    S = _check_symmetric(as_matrix(S, name="S", stacked=np.ndim(S) == 3))
    w, V = np.linalg.eigh(S)
    low, floor = w[..., :1], -_EIG_CLAMP_TOL * np.maximum(1.0, w[..., -1:])
    if np.count_nonzero(low < floor):
        k = np.argmax(low < floor)  # the first matrix below its floor
        raise NotPSD(f"smallest eigenvalue {low.flat[k]:.3e} below clamp {floor.flat[k]:.3e}")
    return _sym(np.matmul(V * np.sqrt(np.maximum(w, 0.0))[..., None, :], V.swapaxes(-1, -2)))


def psd_factor(S) -> np.ndarray:
    """``F`` with ``F F^T = S`` for a symmetric PSD ``S``, unchecked: the eigenvectors of
    ``S``'s symmetric part scaled by the roots of its eigenvalues clipped at zero."""
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return V * np.sqrt(np.clip(w, 0.0, None))


def smallest_eigenvalue_sym(S) -> float:
    """Minimal eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(_check_symmetric(as_matrix(S, name="S")))[0])
