"""The math-module special functions against 40-digit mpmath and the scipy routes they replaced.

Each replaced value has a stated bound on its relative error, and over the same grid its
largest error is no larger than that of the ``scipy.special`` formula the package used
before (scipy stays a test-side reference).
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf as scipy_erf
from scipy.special import erfcx as scipy_erfcx
from scipy.special import gammaln

from ergobound._special import erf, erfcx, log_gamma_ratio
from ergobound.bounds import gaussian_abs_moment
from ergobound.model import _gauss_abs_moment_1d, _student_abs_moment
from ergobound.wasserstein import _log_sphere_moment_ratio

DIMS = range(2, 401)
ORDERS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0, 6.0, 7.0, 8.0]
DFS = sorted({2.05, 2.5, 3.0, 4.5, 30.0, 339.0, 341.0, 999.0, 1001.0}
             | set(np.geomspace(2.05, 1e6, 40).tolist()))


def worst(pairs):
    """The largest relative error of ``(value, exact)`` pairs, the exact one an mpf."""
    return max(float(abs(mpmath.mpf(v) - want) / abs(want)) for v, want in pairs)


def mp_log_gamma_ratio(z, h):
    z, h = mpmath.mpf(z), mpmath.mpf(h)
    return mpmath.loggamma(z + h) - mpmath.loggamma(z) - h * mpmath.log(z)


def check(name, bound, new, old, exact, grid):
    """Both routes over ``grid`` against ``exact``: the new one within ``bound`` and no
    worse than the old one."""
    with mpmath.workdps(40):
        wants = [exact(*g) for g in grid]
        got = worst(zip((new(*g) for g in grid), wants))
        had = worst(zip((old(*g) for g in grid), wants))
    assert got <= bound, (name, got)
    assert got <= had, (name, got, had)


class TestGammaRatio:
    def test_kernel(self):
        # the ratio over its leading power, both signs of h, across every route's range
        grid = [(d / 2.0, s * r / 2.0) for d in DIMS for r in ORDERS for s in (1, -1)
                if d / 2.0 - r / 2.0 > 0] + [(df / 2.0, -p / 2.0) for df in DFS for p in ORDERS
                                              if p < df]
        check("kernel", 4e-15, lambda z, h: math.exp(log_gamma_ratio(z, h)),
              lambda z, h: math.exp(gammaln(z + h) - gammaln(z) - h * math.log(z)),
              lambda z, h: mpmath.exp(mp_log_gamma_ratio(z, h)), grid)

    @pytest.mark.parametrize("flip", [False, True])
    def test_lgamma_route(self, flip):
        # one argument below 14, the other at 171 or more, past math.gamma's range: the
        # difference of math.lgamma; against 40-digit mpmath the largest relative error of
        # the log measured 8.0e-16 for h > 0 and 2.3e-15 for h < 0 (glibc)
        grid = [(z, h) for z in np.linspace(0.5, 13.9, 28).tolist()
                for h in np.geomspace(158.0, 1000.0, 25).tolist() if z + h >= 171.0]
        if flip:
            grid = [(z + h, -h) for z, h in grid]
        with mpmath.workdps(40):
            got = worst((log_gamma_ratio(z, h), mp_log_gamma_ratio(z, h)) for z, h in grid)
        assert got <= (5e-15 if flip else 2e-15), got

    def test_sphere_moment_ratio(self):
        check("sphere", 6e-15, lambda d, r: math.exp(_log_sphere_moment_ratio(d, r)),
              lambda d, r: math.exp(gammaln((r + 1.0) / 2.0) + gammaln(d / 2.0)
                                    - gammaln((r + d) / 2.0) - 0.5 * math.log(math.pi)),
              lambda d, r: mpmath.gamma((mpmath.mpf(r) + 1) / 2) * mpmath.gamma(mpmath.mpf(d) / 2)
              / (mpmath.gamma((mpmath.mpf(r) + d) / 2) * mpmath.sqrt(mpmath.pi)),
              [(d, r) for d in DIMS for r in ORDERS])

    def test_gaussian_abs_moment(self):
        check("chi", 1e-15, gaussian_abs_moment,
              lambda d, r: math.exp(((r / 2.0) * math.log(2.0) + gammaln((d + r) / 2.0)
                                     - gammaln(d / 2.0)) / r),
              lambda d, r: (2 ** (mpmath.mpf(r) / 2) * mpmath.gamma((mpmath.mpf(d) + r) / 2)
                            / mpmath.gamma(mpmath.mpf(d) / 2)) ** (1 / mpmath.mpf(r)),
              [(d, r) for d in DIMS for r in ORDERS if r >= 1])

    def test_gauss_abs_moment(self):
        check("normal", 1e-15, _gauss_abs_moment_1d,
              lambda p: math.exp((p / 2.0) * math.log(2.0) + gammaln((p + 1.0) / 2.0)
                                 - 0.5 * math.log(math.pi)),
              lambda p: 2 ** (mpmath.mpf(p) / 2) * mpmath.gamma((mpmath.mpf(p) + 1) / 2)
              / mpmath.sqrt(mpmath.pi),
              [(p,) for p in np.linspace(0.5, 8.0, 151).tolist()])

    def test_student_abs_moment(self):
        def exact(df, p):
            h, z = mpmath.mpf(p) / 2, mpmath.mpf(df) / 2
            return mpmath.exp(h * mpmath.log(df) + mpmath.loggamma(h + 0.5)
                              + mpmath.loggamma(z - h) - mpmath.loggamma(z)) / mpmath.sqrt(mpmath.pi)

        check("student", 3e-15, _student_abs_moment,
              lambda df, p: math.exp((p / 2.0) * math.log(df) + gammaln((p + 1.0) / 2.0)
                                     + gammaln((df - p) / 2.0) - 0.5 * math.log(math.pi)
                                     - gammaln(df / 2.0)),
              exact, [(df, p) for df in DFS for p in ORDERS if p < df])

    @pytest.mark.parametrize("d", [2, 3, 10, 40, 400])
    def test_order_two_is_exact(self, d):
        # Gamma(z + 1) / Gamma(z) = z takes no Gamma value: E|Z|**2 = 1 and E|N_d|**2 = d
        # to the last bit
        assert _gauss_abs_moment_1d(2.0) == 1.0
        assert gaussian_abs_moment(d, 2.0) == math.sqrt(d)


class TestErrorFunctions:
    def test_erf(self):
        xs = np.geomspace(1e-6, 100.0, 3001)
        check("erf", 3e-16, lambda i: erf(xs)[i], lambda i: float(scipy_erf(xs[i])),
              lambda i: mpmath.erf(float(xs[i])), [(i,) for i in range(xs.size)])

    def test_erfcx(self):
        # dense around the switch to the asymptotic series at 26
        xs = np.concatenate((np.geomspace(1e-8, 5000.0, 3001), np.linspace(20.0, 32.0, 601)))
        got = erfcx(xs)

        def exact(i):
            x = mpmath.mpf(float(xs[i]))
            return mpmath.exp(x * x) * mpmath.erfc(x)

        check("erfcx", 5e-16, lambda i: got[i], lambda i: float(scipy_erfcx(xs[i])), exact,
              [(i,) for i in range(xs.size)])

    def test_array_shapes_and_edges(self):
        x = np.array([[0.0, 1.0], [30.0, np.inf]])
        assert erf(x).shape == erfcx(x).shape == (2, 2)
        np.testing.assert_array_equal(erf(x), [[0.0, math.erf(1.0)], [1.0, 1.0]])
        assert erfcx(x)[0, 0] == 1.0 and erfcx(x)[1, 1] == 0.0
        assert erf(np.empty(0)).shape == erfcx(np.empty(0)).shape == (0,)
