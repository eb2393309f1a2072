"""Exact ``%.17g`` text of float64 arrays, as NUL-padded byte rows.

``format_17g(v)`` returns one row of ``CELL`` bytes per value that, with its
NULs removed, spells exactly ``'%.17g' % v``.  The digits follow Steele and
White (PLDI 1990) with Dekker's error-free product (Numer. Math. 1971) in place
of big integers: for ``1e-6 < |v| < 1e17`` with decimal exponent ``k``,
``|v| * 10^e`` with ``e = 16 - k`` (an exact power, at most ``10^22``) is the
unevaluated sum ``hi + lo`` of its rounding and its exact error.  When ``hi``
lies strictly inside ``(1e16, 1e17)`` it is an even integer, so ``hi +
rint(lo)`` is the half-even rounding of the exact product to 17 digits, with
no carry out of the decade.  ``k`` comes from ``log10``; every value it misses
by one, and every value outside that range (zeros, subnormals, huge values,
NaN, inf), fails that test and is formatted by Python itself.
"""

from __future__ import annotations

import numpy as np

CELL = 28  # sign, "0.000", 17 digits and a point, "e-0X"


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# exact powers 10^e for e = 0..22; e = 23 (values below 1e-6) scales to 0, never in range
_POW10 = np.array([float(10**e) for e in range(23)] + [0.0])
_POW10_HI, _POW10_LO = _split(_POW10)

# %g layout by scale e (decimal exponent x = 16 - e): the point follows digit POINT[e]
# (17: no point among the digits) and at least INT_DIGITS[e] digits show; "0.0..."
# leads the digits for x = -4..-1 (e = 17..20) and "e-0X" ends them for x = -6, -5
_X = 16 - np.arange(24)
_POINT = np.where(_X < -4, 0, np.where(_X < 0, 17, _X)).astype(np.uint8)
_INT_DIGITS = np.maximum(_X + 1, 0).astype(np.uint8)
_PREFIX_FROM = np.array([17, 17, 18, 19, 20], dtype=np.uint8)[:, None]  # "0.000"[i] from e
_PREFIX_CHARS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_EXP_CHARS = np.frombuffer(b"e-0", dtype=np.uint8)[:, None]
_COL = np.arange(18, dtype=np.uint8)[:, None]


def format_17g(values) -> np.ndarray:
    """``(n, CELL)`` uint8 rows; row ``i`` without its NULs is ``'%.17g' % values[i]``."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        # fmax/fmin map a NaN scale to 0, which leaves NaN out of range
        e = np.fmin(np.fmax(16 - np.floor(np.log10(a)), 0), 23).astype(np.uint8)
        ah, al = _split(a)
        hi = a * _POW10[e]
        bh, bl = _POW10_HI[e], _POW10_LO[e]
        lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
        exact = (hi > 1e16) & (hi < 1e17)
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    del a, ah, al, hi, bh, bl, lo  # so the formatter holds a few arrays of n values at a time
    # the 17 digits after a leading 0, as three groups of six split by int32 division
    top = n // 10**12
    rest = n - top * 10**12
    mid = rest // 10**6
    groups = np.stack([top, mid, rest - mid * 10**6]).astype(np.int32)
    digits = np.empty((3, 6, v.size), dtype=np.uint8)
    for j in range(5, -1, -1):
        q = groups // 10
        digits[:, j] = groups - 10 * q
        groups = q
    digits = digits.reshape(18, v.size)[1:]
    last = (_COL[1:] * (digits != 0)).max(axis=0, initial=0)  # up to the last nonzero digit
    shown = np.maximum(last, _INT_DIGITS[e])
    point = _POINT[e]
    digits += 48
    digits *= _COL[:17] < shown
    cells = np.empty((CELL, v.size), dtype=np.uint8)
    cells[0] = v < 0
    cells[0] *= 45  # "-"
    cells[1:6] = _PREFIX_CHARS * ((e >= _PREFIX_FROM) & (e <= 20))
    np.multiply(digits, _COL[:17] <= point, out=cells[6:23])  # the digits before the point
    digits -= cells[6:23]  # and those after it, one cell to the right
    cells[23] = 0
    cells[7:24] += digits
    dot = np.flatnonzero(shown > point + 1)
    cells[point[dot] + 7, dot] = 46  # "."
    expo = e > 20
    cells[24:27] = _EXP_CHARS * expo
    cells[27] = (e + 32) * expo  # the exponent's last digit, e - 16
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = np.array(["%.17g" % f for f in v[slow].tolist()], dtype=f"S{CELL}")
        cells[:, slow] = text.view(np.uint8).reshape(slow.size, CELL).T
    return cells.T
