"""Non-asymptotic Jordan-block matrix-power estimates.

Powers of an upper-bidiagonal block follow binomial coefficients; after
rescaling by the dominant term, the power applied to a vector converges to
a rotating unit-coordinate profile at rate 1/t with a fully explicit error
bound.  The module also provides the eigen-coordinate power sandwich for
diagonalizable matrices.

Block structure is taken as input: recovering a Jordan form numerically
from an arbitrary matrix is ill-posed and out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotDiagonalizable, OutOfRegime, ZeroEigenvalue
from .linalg import SpectralInfo, row_norms

__all__ = [
    "JordanQuery",
    "JordanPairQuery",
    "JordanEstimate",
    "jordan_power",
    "jordan_estimate",
    "jordan_pair_estimate",
    "EigenSandwich",
    "lyapunov_sandwich",
]

# Exact integer binomials below this time step; logarithms above (overflow).
_EXACT_BINOM_MAX_T = 1000


def _log_comb(t: int, k: int) -> float:
    return math.lgamma(t + 1) - math.lgamma(k + 1) - math.lgamma(t - k + 1)


def _comb_ratios(t: int, n: int, k: int) -> np.ndarray:
    """``C(t, j) / C(t, k)`` for ``j < n``: exact integers for moderate t, logs beyond."""
    if t <= _EXACT_BINOM_MAX_T:
        ratios = [math.comb(t, j) / math.comb(t, k) for j in range(min(n, t + 1))]
    else:
        ratios = [math.exp(_log_comb(t, j) - _log_comb(t, k)) for j in range(min(n, t + 1))]
    return np.array(ratios + [0.0] * (n - len(ratios)))


def _hankel_sums(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[i] = sum_j coef[j] x[i + j]`` for ``i < len(x)``, terms past ``x`` dropped."""
    return np.convolve(coef, x[::-1])[len(x) - 1::-1]


@dataclass(frozen=True)
class JordanQuery:
    """A single Jordan block of size ``dim`` with eigenvalue ``q``, applied to ``x``.

    ``j_star`` is the largest index (1-based) with ``|x_j| > 0``.
    """

    dim: int
    q: complex
    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.shape[0] != self.dim:
            raise ValueError("x must have length dim")
        if not np.any(x != 0.0):
            raise ValueError("x must be nonzero")
        object.__setattr__(self, "x", x)

    @cached_property
    def j_star(self) -> int:
        return int(np.max(np.nonzero(self.x)[0])) + 1


@dataclass(frozen=True)
class JordanPairQuery:
    """A conjugate pair of N-blocks with eigenvalues ``r e^(+-i theta)``.

    ``x = (x_plus, x_minus)`` splits into the two block coordinates;
    ``j_plus``/``j_minus`` are the top nonzero indices per block and
    ``j_star`` their maximum.
    """

    block_dim: int
    q: complex
    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.shape[0] != 2 * self.block_dim:
            raise ValueError("x must have length 2 * block_dim")
        if not np.any(x != 0.0):
            raise ValueError("x must be nonzero")
        object.__setattr__(self, "x", x)

    @property
    def x_plus(self) -> np.ndarray:
        return self.x[: self.block_dim]

    @property
    def x_minus(self) -> np.ndarray:
        return self.x[self.block_dim :]

    def _top_index(self, v: np.ndarray) -> int:
        nz = np.nonzero(v)[0]
        return int(nz.max()) + 1 if nz.size else 0

    @property
    def j_plus(self) -> int:
        return self._top_index(self.x_plus)

    @property
    def j_minus(self) -> int:
        return self._top_index(self.x_minus)

    @property
    def j_star(self) -> int:
        return max(self.j_plus, self.j_minus)


@dataclass(frozen=True)
class JordanEstimate:
    """Rescaled block power versus its limiting profile.

    ``scaled`` is ``J^t x`` divided by the dominant coefficient; ``target``
    is the rotating profile on the matched basis vector.  ``error`` is
    guaranteed not to exceed ``error_bound``.  Two candidate basis indices
    exist for the profile: the leading coordinate of the block, where the
    dominant term accumulates, and its mirror ``d - j_star + 1``; both are
    checked, ``target_index`` records the match and ``mirror_matches``
    whether the mirrored candidate also satisfies the bound (the two
    coincide when the vector fills the whole block).

    Pair estimates additionally carry ``combined_bound``, a two-block
    majorant evaluated at the given time step (``error_bound`` alone sees
    only plus-block entries and can undershoot), with its validation flag
    ``combined_holds``.
    """

    scaled: np.ndarray
    target: np.ndarray
    error: float
    error_bound: float
    target_index: int
    mirror_index: int
    mirror_matches: bool
    combined_bound: float | None = None
    combined_holds: bool | None = None


def jordan_power(q: complex, d: int, t: int) -> np.ndarray:
    """t-th power of the d x d Jordan block with eigenvalue q.

    Entry ``(i, i + j)`` equals ``C(t, j) q^{t - j}``; magnitudes are
    assembled in log space for large t to avoid overflow.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = np.zeros((d, d), dtype=complex)
    if q == 0:
        if t <= d - 1:
            idx = np.arange(d - t)
            out[idx, idx + t] = 1.0
        return out
    r, theta = abs(q), np.angle(complex(q))
    for j in range(min(d - 1, t) + 1):
        if t <= _EXACT_BINOM_MAX_T:
            mag = math.comb(t, j) * r ** (t - j)
        else:
            mag = math.exp(_log_comb(t, j) + (t - j) * math.log(r))
        term = mag * np.exp(1j * theta * (t - j))
        idx = np.arange(d - j)
        out[idx, idx + j] = term
    return out


def _scaled_power_vector(q: complex, d: int, x: np.ndarray, t: int, j_ref: int,
                         j_top: int) -> np.ndarray:
    """``J^t x`` divided by ``|q|^{t-(j_ref-1)} C(t, j_ref-1)``, stably; ``j_top`` is
    the top nonzero index of ``x``.

    Each term carries the ratio ``C(t, j)/C(t, j_ref - 1)`` and the modulus
    ``|q|^{(j_ref - 1) - j}``, both of moderate size, so the value is
    computed without forming the huge/small numerator and denominator.
    """
    r, theta = abs(q), np.angle(complex(q))
    j = np.arange(j_top)
    coef = _comb_ratios(t, j_top, j_ref - 1) * r ** ((j_ref - 1) - j) * np.exp(1j * theta * (t - j))
    out = np.zeros(d, dtype=complex)
    out[:j_top] = _hankel_sums(coef, x[:j_top])
    return out


def _abs_sum_bound(r: float, x: np.ndarray, j_ref: int) -> float:
    """Root-sum-square of per-component absolute-value majorant sums.

    Entries of ``x`` enter in absolute value: the binomial-ratio argument
    bounds termwise moduli, so signed inner sums would undershoot the true
    error for sign-alternating vectors.  The first component leaves out
    the top term.
    """
    return _root_sum_square(r ** ((j_ref - 1) - np.arange(j_ref)), np.abs(x[:j_ref]), True)


def _root_sum_square(w: np.ndarray, a: np.ndarray, skip_top: bool) -> float:
    """``|(sum_j w[j] a[i + j])_i|``, the first sum without its top term with ``skip_top``."""
    comps = _hankel_sums(w, a)
    if skip_top:
        comps[0] = w[:-1] @ a[:-1]
    return math.sqrt(comps @ comps)


def jordan_estimate(query: JordanQuery, t: int) -> JordanEstimate:
    """Rescaled single-block power estimate with explicit 1/t error bound.

    Valid for ``t >= max(d - 1, 2 (j_star - 2))``.  The scale is
    ``|q|^{t - (j_star - 1)} C(t, j_star - 1)`` and the limiting profile is
    ``x_{j_star} e^{i (t - (j_star - 1)) theta}`` on a unit coordinate; both
    the leading coordinate, where the dominant term accumulates, and the
    mirrored index ``d - j_star + 1`` are validated against the bound.
    """
    if query.q == 0:
        raise ZeroEigenvalue("estimate requires a nonzero eigenvalue")
    d, x = query.dim, query.x
    j_star = query.j_star
    threshold = max(d - 1, 2 * (j_star - 2), 0)
    if t < threshold:
        raise OutOfRegime(f"t = {t} below validity threshold {threshold}")
    r, theta = abs(query.q), np.angle(complex(query.q))
    scaled = _scaled_power_vector(query.q, d, x, t, j_star, j_star)
    phase = np.exp(1j * theta * (t - (j_star - 1)))
    prefactor = (j_star - 1) / (t - j_star + 2)
    bound = prefactor * _abs_sum_bound(r, x, j_star)

    def candidate(index: int) -> tuple[np.ndarray, float]:
        tgt = np.zeros(d, dtype=complex)
        tgt[index - 1] = x[j_star - 1] * phase
        return tgt, float(np.linalg.norm(scaled - tgt))

    mirror_index = d - j_star + 1
    tgt_first, err_first = candidate(1)
    tgt_mirror, err_mirror = candidate(mirror_index)
    mirror_matches = err_mirror <= bound * (1.0 + 1e-12) + 1e-300
    if err_first <= err_mirror:
        target, error, index = tgt_first, err_first, 1
    else:
        target, error, index = tgt_mirror, err_mirror, mirror_index
    return JordanEstimate(
        scaled=scaled,
        target=target,
        error=error,
        error_bound=bound,
        target_index=index,
        mirror_index=mirror_index,
        mirror_matches=mirror_matches,
    )


def jordan_pair_estimate(query: JordanPairQuery, t: int) -> JordanEstimate:
    """Rescaled power estimate for a conjugate pair of Jordan blocks.

    The scale uses the plus-block top index ``j_plus``, the targets sit
    on the indicator-selected mirrored coordinates, and ``error_bound``
    involves only plus-block entries.  Since the minus block contributes
    error of the same order, that bound is validated per instance
    (``mirror_matches``) and a sound two-block majorant evaluated at the
    given time step is reported as ``combined_bound``.
    """
    if query.q == 0:
        raise ZeroEigenvalue("estimate requires a nonzero eigenvalue")
    N = query.block_dim
    d = 2 * N
    j_plus, j_minus, j_star = query.j_plus, query.j_minus, query.j_star
    if j_plus == 0 or j_minus == 0:
        # stated reduction: a vanished block reduces to the single-block case
        block = query.x_plus if j_plus else query.x_minus
        q = complex(query.q) if j_plus else np.conj(complex(query.q))
        sub = jordan_estimate(JordanQuery(N, q, block), t)
        scaled = np.zeros(d, dtype=complex)
        target = np.zeros(d, dtype=complex)
        off = 0 if j_plus else N
        scaled[off : off + N] = sub.scaled
        target[off : off + N] = sub.target
        return JordanEstimate(
            scaled=scaled,
            target=target,
            error=sub.error,
            error_bound=sub.error_bound,
            target_index=sub.target_index + off,
            mirror_index=sub.mirror_index + off,
            mirror_matches=sub.mirror_matches,
            combined_bound=sub.error_bound,
            combined_holds=sub.error <= sub.error_bound * (1.0 + 1e-12) + 1e-300,
        )
    threshold = max(d - 1, 2 * (j_plus - 2), 0)
    if t < threshold:
        raise OutOfRegime(f"t = {t} below validity threshold {threshold}")
    r, theta = abs(query.q), np.angle(complex(query.q))
    q_minus = complex(r * np.exp(-1j * theta))
    scaled = np.zeros(d, dtype=complex)
    scaled[:N] = _scaled_power_vector(complex(query.q), N, query.x_plus, t, j_plus, j_plus)
    scaled[N:] = _scaled_power_vector(q_minus, N, query.x_minus, t, j_plus, j_minus)

    phase = np.exp(1j * theta * (t - (j_star - 1)))
    target_mirror = np.zeros(d, dtype=complex)
    target_first = np.zeros(d, dtype=complex)
    if j_star == j_plus:
        target_mirror[N - j_star] = query.x_plus[j_star - 1] * phase
        target_first[0] = query.x_plus[j_star - 1] * phase
    if j_star == j_minus:
        target_mirror[2 * N - j_star] = query.x_minus[j_star - 1] * np.conj(phase)
        target_first[N] = query.x_minus[j_star - 1] * np.conj(phase)

    prefactor = (j_plus - 1) / (t - j_plus + 2) if j_plus > 1 else 0.0
    plus_bound = prefactor * _abs_sum_bound(r, query.x_plus, j_plus)

    # two-block majorant at this t, for the first-coordinate targets: the
    # plus-block top term cancels exactly; the minus one only when the
    # scales agree, otherwise it survives and the target adds |x_-,j_-|
    maj_plus = _abs_block_majorant(
        r, query.x_plus, t, j_plus, j_plus, skip_top=(j_star == j_plus)
    )
    exact_minus_cancel = j_minus == j_star == j_plus
    maj_minus = _abs_block_majorant(
        r, query.x_minus, t, j_plus, j_minus, skip_top=exact_minus_cancel
    )
    if j_star == j_minus and not exact_minus_cancel:
        maj_minus += abs(query.x_minus[j_minus - 1])
    combined_bound = math.sqrt(maj_plus**2 + maj_minus**2)

    err_mirror = float(np.linalg.norm(scaled - target_mirror))
    err_first = float(np.linalg.norm(scaled - target_first))
    mirror_matches = err_mirror <= plus_bound * (1.0 + 1e-12) + 1e-300
    if err_first <= err_mirror:
        chosen, error = target_first, err_first
        index = 1 if j_star == j_plus else N + 1
    else:
        chosen, error = target_mirror, err_mirror
        index = (N - j_star + 1) if j_star == j_plus else (2 * N - j_star + 1)
    return JordanEstimate(
        scaled=scaled,
        target=chosen,
        error=error,
        error_bound=plus_bound,
        target_index=index,
        mirror_index=N - j_star + 1 if j_star == j_plus else 2 * N - j_star + 1,
        mirror_matches=mirror_matches,
        combined_bound=combined_bound,
        combined_holds=error <= combined_bound * (1.0 + 1e-12) + 1e-300,
    )


def _abs_block_majorant(r: float, x: np.ndarray, t: int, j_ref: int, j_blk: int,
                        skip_top: bool) -> float:
    """Majorant for one block's rescaled remainder at scale ``j_ref``.

    Sums the ratio-and-modulus majorant of every term at the given time
    step, dropping the dominant one when the target cancels it exactly.
    """
    if j_blk == 0:
        return 0.0
    w = _comb_ratios(t, j_blk, j_ref - 1) * r ** ((j_ref - 1) - np.arange(j_blk))
    return _root_sum_square(w, np.abs(x[:j_blk]), skip_top and j_blk == j_ref)


class EigenSandwich:
    """Two-sided eigen-coordinate estimate of ``|Q^t z|``, one inversion of ``U``.

    ``lower^2 = ||U^{-1}||_F^{-2} sum |q_j|^{2t} |(U^{-1} z)_j|^2`` and
    ``upper^2 = ||U||_F^2`` times the same sum, with ``U`` the eigenvector
    matrix of ``spec``; requires a well-conditioned eigenvector basis.
    """

    def __init__(self, spec: SpectralInfo):
        if not spec.diagonalizable or spec.eigenvector_matrix is None:
            raise NotDiagonalizable("sandwich requires a diagonalizable matrix")
        U = spec.eigenvector_matrix
        self.U_inv = np.linalg.inv(U)
        self.moduli = np.abs(spec.eigenvalues)
        self.rho = spec.spectral_radius
        self.u_fro = float(np.linalg.norm(U, ord="fro"))
        self.uinv_fro = float(np.linalg.norm(self.U_inv, ord="fro"))

    def cores(self, ts, *zs) -> list[np.ndarray]:
        """``S(z, t) = |diag(|q_j|^t) U^{-1} z|`` per step of ``ts``, one array per ``z``."""
        M = np.array([self.moduli**t for t in ts]).reshape(len(ts), self.moduli.size)
        return [row_norms(M * (self.U_inv @ z)) for z in zs]


def lyapunov_sandwich(spec: SpectralInfo, z, t: int) -> tuple[float, float]:
    """Two-sided eigen-coordinate estimate of ``|Q^t z|`` (see :class:`EigenSandwich`)."""
    sw = EigenSandwich(spec)
    core = float(sw.cores((t,), np.atleast_1d(np.asarray(z, dtype=float)))[0][0])
    return core / sw.uinv_fro, sw.u_fro * core
