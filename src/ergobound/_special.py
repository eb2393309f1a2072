"""The few special-function values the package needs, from the ``math`` module.

``log_gamma_ratio`` is the paper's Gamma-function ratios; ``erf`` and ``erfcx`` are
numpy array kernels for the uniform and Laplace noise transforms.  ``math.gamma`` is
CPython's own Lanczos approximation; ``math.erf``, ``math.erfc``, ``log`` and ``exp``
come from the platform's libm.
"""

from __future__ import annotations

import math

import numpy as np

from ._format import _split

# Stirling's terms B_2k / (2k (2k - 1)) for k = 1..6; past an argument of 14 the next one
# (k = 7) is below 1.5e-17
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(
    (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0), start=1))
_STIRLING_FROM = 14.0
_GAMMA_BELOW = 171.0  # math.gamma overflows from 171.62 on

# erfcx(x) = (1 + sum_n c_n y**n) / (x sqrt(pi)), y = 1/(2 x**2), c_n = (-1)**n (2n-1)!!;
# from x = 26 on (where erfc nears the subnormals) the omitted terms are below 3e-21
_ERFCX_FROM = 26.0
_ERFCX_SERIES = tuple(math.prod(range(-1, -2 * n, -2)) for n in range(8, -1, -1))


def log_gamma_ratio(z: float, h: float) -> float:
    """``ln(Gamma(z + h) / (Gamma(z) z**h))`` for ``z > 0`` and ``z + h > 0``.

    Dividing by the leading power ``z**h`` keeps the value small and lets callers
    combine ratios without cancelling the ``h ln z`` terms.  From ``min(z, z + h) >= 14``
    on it is Stirling's difference ``(z + h - 1/2) log1p(h/z) - h`` plus ``B_2k / (2k
    (2k - 1)) ((z + h)**(1-2k) - z**(1-2k))``, ``k = 1..6``; below that the quotient
    of ``math.gamma`` while both arguments are in its range, and past that range (an
    order ``|h|`` over 157) the difference of ``math.lgamma``.
    """
    lo, hi = min(z, z + h), max(z, z + h)
    if lo >= _STIRLING_FROM:
        tail = sum(c * ((z + h) ** (1 - 2 * k) - z ** (1 - 2 * k))
                   for k, c in enumerate(_STIRLING, start=1))
        return (z + h - 0.5) * math.log1p(h / z) - h + tail
    if hi < _GAMMA_BELOW:
        # Gamma(z + h) = Gamma(z + f) (z + f)_n, h = n + f with 0 <= f < 1: integer orders
        # (the common r = 2) take no Gamma value at all
        n = math.floor(h)
        f = h - n
        ratio = math.gamma(z + f) / math.gamma(z) if f else 1.0
        rising = math.prod(z + f + k for k in range(min(n, 0), max(n, 0)))
        ratio = ratio * rising if n >= 0 else ratio / rising
        return math.log(ratio) - h * math.log(z)
    return math.lgamma(z + h) - math.lgamma(z) - h * math.log(z)


def _each(f, x: np.ndarray) -> np.ndarray:
    """The scalar function ``f`` of each entry of the float array ``x``."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def erf(x) -> np.ndarray:
    """The error function of each entry of ``x``."""
    return _each(math.erf, np.asarray(x, dtype=float))


def erfcx(x) -> np.ndarray:
    """``exp(x**2) erfc(x)`` of each entry of ``x``.

    Below 26, ``exp(x**2)`` is ``exp(s) (1 + e)`` with ``x**2 = s + e`` split exactly
    (Dekker 1971), times ``math.erfc``; from 26 on, the asymptotic series.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x < _ERFCX_FROM
    v = x[near]
    s = v * v
    vh, vl = _split(v)
    e = ((vh * vh - s) + 2.0 * vh * vl) + vl * vl
    out[near] = np.exp(s) * _each(math.erfc, v) * (1.0 + e)
    v = x[~near]
    y, series = 0.5 / (v * v), 0.0
    for c in _ERFCX_SERIES:
        series = series * y + c
    out[~near] = series / (v * math.sqrt(math.pi))
    return out

