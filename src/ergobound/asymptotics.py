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

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotDiagonalizable, OutOfRegime, ZeroEigenvalue, as_step
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

# jordan_power's exact integer binomials below this time step; logarithms above (overflow).
_EXACT_BINOM_MAX_T = 1000


def _log_comb(t: int, k: int) -> float:
    return math.lgamma(t + 1) - math.lgamma(k + 1) - math.lgamma(t - k + 1)


def _comb_ratios(t: int, n: int, k: int) -> np.ndarray:
    """``C(t, j) / C(t, k)`` for ``j < n``, each a correctly rounded quotient of two exact
    integers at every ``t`` (a difference of ``lgamma`` values is 3.6e-8 off at ``t = 1e7``)."""
    ratios = [math.comb(t, j) / math.comb(t, k) for j in range(min(n, t + 1))]
    return np.array(ratios + [0.0] * (n - len(ratios)))


def _hankel_sums(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[i] = sum_j coef[j] x[i + j]`` for ``i < len(x)``, terms past ``x`` dropped."""
    return np.convolve(coef, x[::-1])[len(x) - 1::-1]


class _Block(NamedTuple):
    """One Jordan block's ``t``-free constants: modulus and angle of its eigenvalue,
    its coordinates, their top nonzero index (1-based, 0 for a zero vector) and the
    indices ``j`` below it."""

    r: float
    theta: float
    x: np.ndarray
    top: int
    j: np.ndarray


def _block(q, x: np.ndarray) -> _Block:
    nz = np.nonzero(x)[0]
    top = int(nz.max()) + 1 if nz.size else 0
    return _Block(abs(q), np.angle(complex(q)), x, top, np.arange(top))


class _BlockStack:
    """What both queries share: the input check and the per-query constants of
    :func:`_estimate`, each computed once.  ``_blocks`` (set on construction)
    holds one block, or the plus and minus blocks of a conjugate pair; the
    first one sets the scale."""

    def _init(self, length: int, name: str) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.shape[0] != length:
            raise ValueError(f"x must have length {name}")
        if not (cmath.isfinite(self.q) and np.isfinite(x).all()):
            raise ValueError("q and x must be finite")
        if not np.any(x != 0.0):
            raise ValueError("x must be nonzero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "_blocks", self._split())

    @property
    def j_star(self) -> int:
        return max(b.top for b in self._blocks)

    @cached_property
    def _scale(self) -> tuple[list[np.ndarray], float]:
        """Each block's moduli ``r^((j_ref - 1) - j)``, ``j_ref`` the first block's top
        index, and the ``t``-free factor of ``error_bound``: the root-sum-square of
        the first block's per-component absolute-value majorant sums, the first
        sum without its top term.  Needs a nonzero eigenvalue and first block.

        Entries of ``x`` enter in absolute value: the binomial-ratio argument
        bounds termwise moduli, so signed inner sums would undershoot the true
        error for sign-alternating vectors.
        """
        ref = self._blocks[0]
        pows = [b.r ** ((ref.top - 1) - b.j) for b in self._blocks]
        return pows, _root_sum_square(pows[0], np.abs(ref.x[: ref.top]), True)


@dataclass(frozen=True)
class JordanQuery(_BlockStack):
    """A single Jordan block of size ``dim`` with eigenvalue ``q``, applied to ``x``.

    ``j_star`` is the largest index (1-based) with ``|x_j| > 0``.
    """

    dim: int
    q: complex
    x: np.ndarray

    def __post_init__(self):
        self._init(self.dim, "dim")

    def _split(self) -> tuple[_Block, ...]:
        return (_block(self.q, self.x),)


@dataclass(frozen=True)
class JordanPairQuery(_BlockStack):
    """A conjugate pair of N-blocks with eigenvalues ``r e^(+-i theta)``.

    ``x = (x_plus, x_minus)`` splits into the two block coordinates;
    ``j_plus``/``j_minus`` are the top nonzero indices per block and
    ``j_star`` their maximum.
    """

    block_dim: int
    q: complex
    x: np.ndarray

    def __post_init__(self):
        self._init(2 * self.block_dim, "2 * block_dim")

    @property
    def x_plus(self) -> np.ndarray:
        return self.x[: self.block_dim]

    @property
    def x_minus(self) -> np.ndarray:
        return self.x[self.block_dim :]

    def _split(self) -> tuple[_Block, ...]:
        plus = _block(self.q, self.x_plus)
        # rebuilt from modulus and angle: conj(q) can differ from this in the last bit
        return plus, _block(complex(plus.r * np.exp(-1j * plus.theta)), self.x_minus)

    @property
    def j_plus(self) -> int:
        return self._blocks[0].top

    @property
    def j_minus(self) -> int:
        return self._blocks[1].top

    @cached_property
    def _reduced(self) -> JordanQuery:
        """The single-block query of the one nonzero block (when the other vanishes)."""
        if self.j_plus:
            return JordanQuery(self.block_dim, complex(self.q), self.x_plus)
        return JordanQuery(self.block_dim, np.conj(complex(self.q)), self.x_minus)


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
    t = as_step(t)
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


def _root_sum_square(w: np.ndarray, a: np.ndarray, skip_top: bool) -> float:
    """``|(sum_j w[j] a[i + j])_i|``, the first sum without its top term with ``skip_top``."""
    comps = _hankel_sums(w, a)
    if skip_top:
        comps[0] = w[:-1] @ a[:-1]
    return math.sqrt(comps @ comps)


def _estimate(query: JordanQuery | JordanPairQuery, t: int) -> JordanEstimate:
    """The estimate for the query's stack of equal-size blocks, none of them zero.

    The first block's top index ``j_ref`` sets the scale
    ``|q|^{t - (j_ref - 1)} C(t, j_ref - 1)`` and the validity threshold.  Every
    block whose top index is ``j_star`` gets a target, ``phase`` on the plus
    block and ``conj(phase)`` on the minus one, at its leading coordinate (the
    first candidate) or at its mirrored one (the second).  ``error_bound``
    sees the first block only; pairs add the two-block ``combined_bound``.
    """
    t = as_step(t)
    if query.q == 0:
        raise ZeroEigenvalue("estimate requires a nonzero eigenvalue")
    blocks, j_star = query._blocks, query.j_star
    pows, rss = query._scale
    ref = blocks[0]
    n, j_ref = ref.x.size, ref.top
    threshold = max(len(blocks) * n - 1, 2 * (j_ref - 2), 0)
    if t < threshold:
        raise OutOfRegime(f"t = {t} below validity threshold {threshold}")
    phase = np.exp(1j * ref.theta * (t - (j_star - 1)))
    scaled = np.zeros((len(blocks), n), dtype=complex)
    targets = np.zeros((2, len(blocks), n), dtype=complex)
    # each term carries the ratio C(t, j)/C(t, j_ref - 1) and the modulus
    # |q|^{(j_ref - 1) - j}, both of moderate size, so the scaled power is
    # computed without forming the huge/small numerator and denominator
    ratios = []
    for k, b in enumerate(blocks):
        ratios.append(_comb_ratios(t, b.top, j_ref - 1))
        coef = ratios[k] * pows[k] * np.exp(1j * b.theta * (t - b.j))
        scaled[k, : b.top] = _hankel_sums(coef, b.x[: b.top])
        if b.top == j_star:
            value = b.x[j_star - 1] * (np.conj(phase) if k else phase)
            targets[0, k, 0] = targets[1, k, n - j_star] = value
    scaled = scaled.ravel()
    targets = targets.reshape(2, -1)
    err_first, err_mirror = row_norms(scaled - targets).tolist()
    bound = (j_ref - 1) / (t - j_ref + 2) * rss
    # leading coordinate of the first block topped at j_star, 1-based
    first = (0 if j_ref == j_star else n) + 1
    mirror_index = first + n - j_star
    chosen = 0 if err_first <= err_mirror else 1
    error = (err_first, err_mirror)[chosen]
    combined_bound = combined_holds = None
    if len(blocks) == 2:
        # two-block majorant at this t, for the first-coordinate targets: a
        # block's top term cancels exactly when its scale is the reference one;
        # otherwise it survives and the target adds |x_j*|
        majs = []
        for b, ratio in zip(blocks, ratios):
            cancel = b.top == j_star == j_ref
            w = ratio * ref.r ** ((j_ref - 1) - b.j)
            maj = _root_sum_square(w, np.abs(b.x[: b.top]), cancel)
            majs.append(maj + abs(b.x[j_star - 1]) if b.top == j_star and not cancel else maj)
        combined_bound = math.sqrt(majs[0] ** 2 + majs[1] ** 2)
        combined_holds = error <= combined_bound * (1.0 + 1e-12) + 1e-300
    return JordanEstimate(
        scaled=scaled,
        target=targets[chosen],
        error=error,
        error_bound=bound,
        target_index=(first, mirror_index)[chosen],
        mirror_index=mirror_index,
        mirror_matches=err_mirror <= bound * (1.0 + 1e-12) + 1e-300,
        combined_bound=combined_bound,
        combined_holds=combined_holds,
    )


def jordan_estimate(query: JordanQuery, t: int) -> JordanEstimate:
    """Rescaled single-block power estimate with explicit 1/t error bound.

    Valid for ``t >= max(d - 1, 2 (j_star - 2))``.  The scale is
    ``|q|^{t - (j_star - 1)} C(t, j_star - 1)`` and the limiting profile is
    ``x_{j_star} e^{i (t - (j_star - 1)) theta}`` on a unit coordinate; both
    the leading coordinate, where the dominant term accumulates, and the
    mirrored index ``d - j_star + 1`` are validated against the bound.
    """
    return _estimate(query, t)


def jordan_pair_estimate(query: JordanPairQuery, t: int) -> JordanEstimate:
    """Rescaled power estimate for a conjugate pair of Jordan blocks.

    The scale uses the plus-block top index ``j_plus``, the targets sit
    on the indicator-selected mirrored coordinates, and ``error_bound``
    involves only plus-block entries.  Since the minus block contributes
    error of the same order, that bound is validated per instance
    (``mirror_matches``) and a sound two-block majorant evaluated at the
    given time step is reported as ``combined_bound``.
    """
    if query.j_plus and query.j_minus:
        return _estimate(query, t)
    # stated reduction: a vanished block reduces to the single-block case
    sub = jordan_estimate(query._reduced, t)
    N = query.block_dim
    off = 0 if query.j_plus else N
    scaled = np.zeros(2 * N, dtype=complex)
    target = np.zeros(2 * N, dtype=complex)
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

    def cores(self, ts, z) -> np.ndarray:
        """``S(z, t) = |diag(|q_j|^t) U^{-1} z|`` per step of ``ts``."""
        M = np.array([self.moduli**t for t in ts]).reshape(len(ts), self.moduli.size)
        return row_norms(M * (self.U_inv @ z))


def lyapunov_sandwich(spec: SpectralInfo, z, t: int) -> tuple[float, float]:
    """Two-sided eigen-coordinate estimate of ``|Q^t z|`` (see :class:`EigenSandwich`)."""
    t = as_step(t)
    sw = EigenSandwich(spec)
    core = float(sw.cores((t,), np.atleast_1d(np.asarray(z, dtype=float)))[0])
    return core / sw.uinv_fro, sw.u_fro * core
