import gc
import math
import threading
import tracemalloc
import warnings
from functools import cached_property

import mpmath
import numpy as np
import pytest

from ergobound import bounds as bnd
from ergobound.errors import (
    DimensionMismatch,
    MomentUnavailable,
    NotDiagonalizable,
    NotPSD,
    NotSchurStable,
    SingularStationaryCovariance,
)
from ergobound.linalg import build_star_norm, eigen, psd_sqrt
from ergobound.model import (
    NoiseSpec,
    StateSpaceModel,
    ar_state_space,
    arma_state_space,
    raw_model,
    validate_model,
)
from ergobound.wasserstein import GaussianLaw, gaussian_w2, sphere_moment_ratio


def ar1(q, var=1.0, mean=0.0):
    return ar_state_space([q], noise1d=NoiseSpec.gaussian(mean, var))


def random_gaussian_model(rng, d, target=None):
    A = rng.standard_normal((d, d))
    A *= (target if target is not None else rng.uniform(0.3, 0.85)) / np.abs(
        np.linalg.eigvals(A)
    ).max()
    M = rng.standard_normal((d, d))
    return raw_model(
        A, np.eye(d), NoiseSpec.gaussian_d(rng.normal(size=d), M @ M.T + 0.1 * np.eye(d))
    )


class TestExactAr1:
    def test_direct_value(self):
        # cross-check against the 1-D Gaussian W2 of the two laws
        got = bnd.exact_w2_ar1(0.5, 1.0, 2.0, 1)
        want = gaussian_w2(
            GaussianLaw([0.5 * 2.0], [[1.0]]), GaussianLaw([0.0], [[1.0 / 0.75]])
        )
        assert got == pytest.approx(1.0118954, abs=1e-7)
        assert got == pytest.approx(want, abs=1e-14)

    def test_zero_q_equilibrates_immediately(self):
        for t in (1, 2, 5):
            assert bnd.exact_w2_ar1(0.0, 2.0, 3.0, t) == 0.0

    def test_t_zero_second_moment(self):
        assert bnd.exact_w2_ar1(0.5, 1.0, 0.0, 0) == pytest.approx(
            math.sqrt(4.0 / 3.0), abs=1e-14
        )

    def test_matches_law_w2_along_t(self):
        for q in (0.3, -0.7, 0.95):
            for t in range(0, 25):
                got = bnd.exact_w2_ar1(q, 1.0, 2.0, t)
                var_t = (1 - q ** (2 * t)) / (1 - q * q)
                want = gaussian_w2(
                    GaussianLaw([q**t * 2.0], [[var_t]]),
                    GaussianLaw([0.0], [[1.0 / (1 - q * q)]]),
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(NotSchurStable):
            bnd.exact_w2_ar1(1.0, 1.0, 0.0, 1)


class TestSphereConstants:
    def test_gaussian_abs_moment_values(self):
        assert bnd.gaussian_abs_moment(1, 2) == pytest.approx(1.0, abs=1e-14)
        assert bnd.gaussian_abs_moment(3, 2) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert bnd.gaussian_abs_moment(4, 2) == pytest.approx(2.0, abs=1e-12)
        assert bnd.gaussian_abs_moment(1, 1) == pytest.approx(
            math.sqrt(2 / math.pi), abs=1e-12
        )

    def test_gaussian_abs_moment_monte_carlo(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((500_000, 3))
        vals = np.linalg.norm(z, axis=1) ** 1.5
        se = vals.std() / math.sqrt(len(vals))
        assert bnd.gaussian_abs_moment(3, 1.5) == pytest.approx(
            vals.mean() ** (1 / 1.5), abs=4 * se
        )

    def test_sphere_moment_ratio_values(self):
        assert bnd.sphere_moment_ratio(2, 1) == pytest.approx(2 / math.pi, abs=1e-12)
        assert bnd.sphere_moment_ratio(3, 1) == pytest.approx(0.5, abs=1e-12)
        for d in range(2, 8):
            assert bnd.sphere_moment_ratio(d, 2) == pytest.approx(1.0 / d, abs=1e-14)

    def test_circle_average_quadrature(self):
        theta = np.linspace(0, 2 * math.pi, 200001)[:-1]
        avg = np.abs(np.cos(theta)).mean()
        assert bnd.sphere_moment_ratio(2, 1) == pytest.approx(avg, abs=1e-8)


class TestGaussianAffine:
    def test_scalar_example(self):
        # with the square-root Lipschitz constant: C=1, lambda=4/3, star=0.5
        m = ar1(0.5)
        rep = bnd.gaussian_affine_bounds(m, np.eye(1), [2.0], 2.0, 2)
        assert rep.lower == pytest.approx(0.5, abs=1e-12)
        assert rep.noise_part == pytest.approx(math.sqrt(3) / 24, rel=1e-12)
        assert rep.upper == pytest.approx(0.5 + math.sqrt(3) / 24, rel=1e-12)
        exact = bnd.exact_w2_ar1(0.5, 1.0, 2.0, 2)
        assert rep.lower <= exact <= rep.upper

    def test_stationary_start_zero_lower(self):
        m = ar1(0.6, mean=0.5)
        x = bnd.stationary_mean(m)
        for t in (0, 1, 7):
            rep = bnd.gaussian_affine_bounds(m, np.eye(1), x, 2.0, t)
            assert rep.lower == pytest.approx(0.0, abs=1e-12)

    def test_noise_ratio_is_star_squared(self):
        rng = np.random.default_rng(1)
        m = random_gaussian_model(rng, 3)
        star = build_star_norm(m.Q)
        x = rng.normal(size=3)
        reps = [
            bnd.gaussian_affine_bounds(m, np.eye(3), x, 2.0, t, star) for t in range(25)
        ]
        for a, b in zip(reps, reps[1:]):
            assert b.noise_part / a.noise_part == pytest.approx(
                star.value**2, rel=1e-12
            )

    def test_sandwich_against_exact_gaussian(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_gaussian_model(rng, int(rng.integers(1, 5)))
            star = build_star_norm(m.Q)
            x = rng.normal(size=m.d)
            linf = bnd.stationary_law(m)
            for t in range(0, 30, 3):
                rep = bnd.gaussian_affine_bounds(m, np.eye(m.d), x, 2.0, t, star)
                lt = bnd.law_at(m, x, t)
                w2 = gaussian_w2(lt, linf)
                tol2 = 256 * np.finfo(float).eps * (
                    1.0
                    + np.trace(lt.cov)
                    + np.trace(linf.cov)
                    + lt.mean @ lt.mean
                    + linf.mean @ linf.mean
                )
                assert rep.lower**2 <= w2 * w2 + tol2
                assert w2 * w2 <= rep.upper**2 * (1 + 1e-12) + tol2

    def test_mean_gap_matches_direct_power(self):
        rng = np.random.default_rng(3)
        m = random_gaussian_model(rng, 3)
        x = rng.normal(size=3)
        mu = bnd.stationary_mean(m)
        for t in (0, 1, 5, 20):
            rep = bnd.gaussian_affine_bounds(m, np.eye(3), x, 2.0, t)
            want = np.linalg.norm(np.linalg.matrix_power(m.Q, t) @ (x - mu))
            assert rep.lower == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_mean_lower_bound_from_laws(self):
        rng = np.random.default_rng(4)
        m = random_gaussian_model(rng, 2)
        x = rng.normal(size=2)
        for t in (0, 3, 9):
            rep = bnd.gaussian_affine_bounds(m, np.eye(2), x, 2.0, t)
            gap = np.linalg.norm(bnd.law_at(m, x, t).mean - bnd.stationary_law(m).mean)
            assert rep.lower == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_mean_part_below_contraction_envelope(self):
        rng = np.random.default_rng(14)
        m = random_gaussian_model(rng, 3)
        star = build_star_norm(m.Q)
        x = rng.normal(size=3)
        mu_gap = np.linalg.norm(x - bnd.stationary_mean(m))
        for t in range(30):
            rep = bnd.gaussian_affine_bounds(m, np.eye(3), x, 2.0, t, star)
            assert rep.mean_part <= star.K_d * star.value**t * mu_gap * (1 + 1e-10)

    def test_hemmen_ando_step(self):
        # sqrt-gap Lipschitz bound with constant 1/sqrt(lambda_minus)
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_gaussian_model(rng, 3)
            cov_inf = bnd.stationary_law(m).cov
            lam = np.linalg.eigvalsh(cov_inf)[0]
            for t in (1, 4, 10):
                cov_t = bnd.law_at(m, np.zeros(3), t).cov
                gap = np.linalg.norm(psd_sqrt(cov_t) - psd_sqrt(cov_inf), "fro")
                assert gap <= np.linalg.norm(cov_t - cov_inf, "fro") / math.sqrt(lam) + 1e-10

    def test_requires_gaussian(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        with pytest.raises(ValueError):
            bnd.gaussian_affine_bounds(m, np.eye(1), [1.0], 2.0, 1)


class TestProjected:
    def test_reduces_to_affine_in_1d(self):
        m = ar1(0.5)
        a = bnd.projected_bounds(m, [1.0], [2.0], 2.0, 3)
        b = bnd.gaussian_affine_bounds(m, np.eye(1), [2.0], 2.0, 3)
        assert a.lower == pytest.approx(b.lower, rel=1e-12)
        assert a.details["routes"]["final"] == pytest.approx(b.upper, rel=1e-12)

    def test_orthogonal_direction_zero_lower(self):
        rng = np.random.default_rng(6)
        m = random_gaussian_model(rng, 3)
        x = rng.normal(size=3)
        gap = np.linalg.matrix_power(m.Q, 3) @ (x - bnd.stationary_mean(m))
        v = np.cross(gap, [0.0, 0.0, 1.0])
        v /= np.linalg.norm(v)
        rep = bnd.projected_bounds(m, v, x, 2.0, 3)
        assert rep.lower == pytest.approx(0.0, abs=1e-10)

    def test_chain_ordering(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        rep = bnd.projected_bounds(m, [1.0, 0.0], [1.0, 0.0], 2.0, 3)
        assert rep.details["routes"]["middle"] <= rep.details["routes"]["final"] * (1 + 1e-12)
        assert rep.upper == pytest.approx(rep.details["routes"]["middle"])

    def test_sandwich_against_projected_law(self):
        rng = np.random.default_rng(7)
        m = random_gaussian_model(rng, 3)
        x = rng.normal(size=3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        B = v[None, :]
        for t in range(0, 20, 2):
            rep = bnd.projected_bounds(m, v, x, 2.0, t)
            w2 = gaussian_w2(bnd.law_at(m, x, t, B=B), bnd.stationary_law(m, B=B))
            assert rep.lower <= w2 * (1 + 1e-9) + 1e-12
            assert w2 <= rep.upper * (1 + 1e-9) + 1e-9

    def test_requires_unit_vector(self):
        m = ar1(0.5)
        with pytest.raises(ValueError):
            bnd.projected_bounds(ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0, 1)),
                                 [1.0, 1.0], [0.0, 0.0], 2.0, 1)

    @pytest.mark.parametrize("v", [[math.nan, 1.0], [0.6, math.inf], [math.nan, math.nan]])
    def test_non_finite_direction_is_not_a_unit_vector(self, v):
        m = ar_state_space([0.5, 0.1])
        with pytest.raises(ValueError, match="unit vector"):
            bnd.sweep(m, "projected", [0.0, 0.0], 2.0, range(3), v=v)


class TestSlicedGauss:
    def model(self):
        return ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))

    def test_modes_coincide_at_r1(self):
        m = self.model()
        a = bnd.sliced_gauss_bounds(m, [1.0, 0.0], 1.0, 2, mode="as_printed")
        b = bnd.sliced_gauss_bounds(m, [1.0, 0.0], 1.0, 2, mode="jensen_consistent")
        assert a.lower == pytest.approx(b.lower, rel=1e-14)
        assert a.upper == pytest.approx(b.upper, rel=1e-14)

    def test_mean_constants_d2_r2(self):
        m = self.model()
        gap = np.linalg.norm(np.linalg.matrix_power(m.Q, 2) @ np.array([1.0, 0.0]))
        a = bnd.sliced_gauss_bounds(m, [1.0, 0.0], 2.0, 2, mode="as_printed")
        b = bnd.sliced_gauss_bounds(m, [1.0, 0.0], 2.0, 2, mode="jensen_consistent")
        assert a.lower == pytest.approx(gap / 2, rel=1e-12)
        assert b.lower == pytest.approx(gap / math.sqrt(2), rel=1e-12)

    def test_stationary_start_pure_decay(self):
        m = self.model()
        x = bnd.stationary_mean(m)
        star = build_star_norm(m.Q)
        reps = [bnd.sliced_gauss_bounds(m, x, 2.0, t, star) for t in (1, 2, 3)]
        for rep in reps:
            assert rep.lower == pytest.approx(0.0, abs=1e-12)
        assert reps[1].upper / reps[0].upper == pytest.approx(star.value**2, rel=1e-10)

    def test_needs_multivariate(self):
        with pytest.raises(ValueError):
            bnd.sliced_gauss_bounds(ar1(0.5), [1.0], 2.0, 1)

    def test_empirical_sliced_sandwich(self):
        from ergobound.sim import SimConfig, sample_stationary, simulate_paths
        from ergobound.wasserstein import sliced_empirical_sweep

        m = self.model()
        star = build_star_norm(m.Q)
        x = np.array([2.0, -1.0])
        n = 20_000
        ens = simulate_paths(m, x, SimConfig(n_paths=n, horizon=8, seed=21))
        stat = sample_stationary(m, n, seed=21, eps_stat=1e-3, star=star)
        ests = sliced_empirical_sweep(
            [ens.at_time(t) for t in range(9)], stat.samples[:, 0, :], 2.0, 256, seed=4
        )
        for t, est in enumerate(ests):
            rep = bnd.sliced_gauss_bounds(m, x, 2.0, t, star, mode="jensen_consistent")
            assert rep.lower - 3 * est.stderr <= est.value <= rep.upper + 3 * est.stderr


class TestGeneric:
    def test_scalar_example(self):
        m = ar1(0.5)
        rep = bnd.generic_bounds(m, [2.0], 2.0, 2)
        assert rep.details["routes"]["b"] == pytest.approx(0.5 + 0.125 / math.sqrt(0.75), rel=1e-12)
        assert rep.lower == pytest.approx(0.5, abs=1e-12)

    def test_point_mass_zero_noise(self):
        m = ar_state_space([0.4, 0.2], [0.0], NoiseSpec.point_mass(0.0))
        for t in (0, 1, 4):
            rep = bnd.generic_bounds(m, [1.0, -1.0], 2.0, t)
            qtx = np.linalg.norm(np.linalg.matrix_power(m.Q, t) @ [1.0, -1.0])
            assert rep.lower == pytest.approx(qtx, rel=1e-12, abs=1e-14)
            assert rep.details["routes"]["b"] == pytest.approx(qtx, rel=1e-12, abs=1e-14)

    def test_stationary_start_zero_lower(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.7, 1.0))
        x = bnd.stationary_mean(m)
        rep = bnd.generic_bounds(m, x, 1.0, 5)
        assert rep.lower == pytest.approx(0.0, abs=1e-12)

    def test_sandwich_against_exact_gaussian(self):
        for q in (0.3, -0.7, 0.95):
            m = ar1(q)
            star = build_star_norm(m.Q)
            for t in range(0, 40):
                rep = bnd.generic_bounds(m, [2.0], 2.0, t, star)
                w2 = bnd.exact_w2_ar1(q, 1.0, 2.0, t)
                assert rep.lower <= w2 * (1 + 1e-12)
                assert w2 <= rep.upper * (1 + 1e-12)

    def test_sound_regime_sweep_multivariate(self):
        # centered Gaussian noise, p = 2, t >= 1: the coupling sandwich holds
        # against the exact W2 on random models of all shapes
        rng = np.random.default_rng(24)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            A = rng.standard_normal((d, d))
            A *= rng.uniform(0.2, 0.9) / np.abs(np.linalg.eigvals(A)).max()
            M = rng.standard_normal((d, d))
            m = raw_model(
                A, np.eye(d), NoiseSpec.gaussian_d(np.zeros(d), M @ M.T + 0.05 * np.eye(d))
            )
            star = build_star_norm(m.Q)
            linf = bnd.stationary_law(m)
            x = rng.normal(size=d)
            for t in (1, 3, 7, 15):
                rep = bnd.generic_bounds(m, x, 2.0, t, star)
                assert rep.details["coupling_regime_sound"]
                w2 = gaussian_w2(bnd.law_at(m, x, t), linf)
                # slack covers the W2 oracle's Bures noise floor
                slack = 1e-9 * (1 + w2) + 32 * math.sqrt(
                    np.finfo(float).eps * (1 + np.trace(linf.cov))
                )
                assert rep.lower <= w2 + slack
                assert w2 <= rep.upper + slack

    def test_moment_guard(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.student_t(1.5, 1.0))
        with pytest.raises(MomentUnavailable):
            bnd.generic_bounds(m, [1.0], 2.0, 1)

    def test_coupling_regime_flag(self):
        centered = ar_state_space([0.5], noise1d=NoiseSpec.gaussian(0.0, 1.0))
        shifted = ar_state_space([0.5], noise1d=NoiseSpec.gaussian(0.3, 1.0))
        assert bnd.generic_bounds(centered, [1.0], 2.0, 1).details["coupling_regime_sound"]
        assert bnd.generic_bounds(centered, [1.0], 1.0, 1).details["coupling_regime_sound"]
        # the routes run on the centered recursion, so a noise mean does not matter
        assert bnd.generic_bounds(shifted, [1.0], 2.0, 1).details["coupling_regime_sound"]
        assert bnd.generic_bounds(shifted, [1.0], 1.0, 1).details["coupling_regime_sound"]
        assert not bnd.generic_bounds(centered, [1.0], 3.0, 1).details["coupling_regime_sound"]
        # the noise tail starts one step past t, so t = 0 is not covered
        assert not bnd.generic_bounds(centered, [1.0], 2.0, 0).details["coupling_regime_sound"]

    @pytest.mark.parametrize("df, finite_variance", [(3.2, True), (3.0, False), (2.9, False)])
    def test_infinite_variance_monte_carlo_flagged(self, df, finite_variance):
        # a non-orthogonal Sigma has no exact E|Sigma xi|**1.5, and the variance
        # E|Sigma xi|**3 of a sampled estimate is infinite from df <= 3 = 2p down; the
        # deterministic upper bound that enters instead needs no such variance
        m = raw_model(np.diag([0.5, 0.3]), np.array([[1.0, 0.4], [0.0, 0.7]]),
                      NoiseSpec.student_t_d(df, [1.0, 0.5]))
        assert m.noise.has_moment(3.0) is finite_variance
        for p in (1.0, 1.5):
            val, se = m.noise.abs_moment_sigma(m.Sigma, p)
            assert 0.0 < val < math.inf and se == 0.0
        for rep in bnd.sweep(m, "generic", [1.0, -1.0], 1.5, range(1, 4)):
            assert rep.details["coupling_regime_sound"]
            assert math.isfinite(rep.details["routes"]["a"]) and math.isfinite(rep.details["routes"]["b"])
            assert 0.0 < rep.lower <= rep.upper < math.inf

    def test_mean_dominated_noise_keeps_the_coupling_sandwich(self):
        # noise dominated by its mean: the routes read the centered noise, so the
        # evaluated tail no longer undershoots the exact order-1 distance
        from ergobound.wasserstein import gaussian_wr_1d

        m = ar_state_space([0.9], noise1d=NoiseSpec.gaussian(3.0, 0.01))
        star = build_star_norm(m.Q)
        linf = bnd.stationary_law(m)
        rep = bnd.generic_bounds(m, [0.0], 1.0, 5, star)
        assert rep.details["coupling_regime_sound"]
        lt = bnd.law_at(m, [0.0], 5)
        w1 = gaussian_wr_1d(
            lt.mean[0], math.sqrt(lt.cov[0, 0]), linf.mean[0], math.sqrt(linf.cov[0, 0]), 1.0
        )
        assert rep.lower <= w1 * (1 + 1e-9)
        assert w1 <= rep.upper


class TestCenteredRecursion:
    """The coupling routes run on ``X_t - mean_inf`` from ``x - mean_inf``, with noise
    ``xi - E xi``: a noise mean only moves the start."""

    # seeded model_scan's strongly non-normal raw point-mass model (spectral radius 0.994),
    # where route (b) with the raw noise moment fell below the mean gap
    Q = [[0.3917207150933907, -0.22873694171771156], [1.5825580689401582, 1.5950330246013225]]
    VALUE = [-0.6525932855277783, -0.16839035526641988]
    X = [0.3847283798177643, 0.8632864488094179]

    def test_point_mass_sandwich_closes_on_the_mean_gap(self):
        m = raw_model(self.Q, np.eye(2), NoiseSpec.point_mass_d(self.VALUE))
        gap = np.array(self.X) - m.stationary_mean
        for t in range(11):
            generic = bnd.generic_bounds(m, self.X, 2.0, t)
            reps = {
                "generic": generic,
                "sliced_generic": bnd.sliced_generic_bounds(m, self.X, 2.0, t),
                "generic_diag": bnd.diagonalizable_bounds(m, self.X, 2.0, t),
                "empirical_mean": bnd.empirical_mean_bounds(m, 4, self.X, 2.0, t),
                "parallel": bnd.parallel_bounds(generic, 4, 2.0),
            }
            for flavor, rep in reps.items():
                assert rep.lower <= rep.upper, (flavor, t, rep.lower, rep.upper)
            # the exact W_p of a point mass is the mean gap: route (b) is that, to the bit
            assert generic.details["routes"]["b"] == generic.lower
            exact = np.linalg.norm(np.linalg.matrix_power(m.Q, t) @ gap)
            assert generic.lower == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("flavor", ["generic", "generic_diag", "empirical_mean"])
    def test_shifted_noise_is_centered_noise_from_a_shifted_start(self, flavor):
        phi, x = [0.6, -0.2], np.array([1.5, -0.4])
        for family in (NoiseSpec.laplace, NoiseSpec.gaussian):
            shifted = ar_state_space(phi, None, family(0.7, 1.3))
            centered = ar_state_space(phi, None, family(0.0, 1.3))
            assert shifted.noise.centered.to_json() == centered.noise.to_json()
            for t in (0, 1, 6):
                a = bnd.sweep(shifted, flavor, x, 1.5, (t,), n_copies=3)[0]
                b = bnd.sweep(centered, flavor, x - shifted.stationary_mean, 1.5, (t,),
                              n_copies=3)[0]
                assert (a.lower, a.upper, a.details) == (b.lower, b.upper, b.details)

    def test_centered_noise_is_its_own_centered_spec(self):
        for noise in (NoiseSpec.gaussian(0.0, 2.0), NoiseSpec.student_t(3.0, 1.0),
                      NoiseSpec.uniform_d([1.0, 2.0]), NoiseSpec.point_mass(0.0)):
            assert noise.centered is noise
        noise = NoiseSpec.laplace_d([0.5, 0.0], [1.0, 2.0])
        assert noise.centered.is_scalar_driven is False
        assert np.array_equal(noise.centered.params["loc"], [0.0, 0.0])
        assert np.array_equal(noise.centered.params["scale"], [1.0, 2.0])
        assert NoiseSpec.point_mass(-0.4).centered.params["value"] == 0.0


class TestDiagonalizable:
    def test_sandwich_example(self):
        m = raw_model(np.diag([0.5, 0.9]), np.eye(2), NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        rep = bnd.diagonalizable_bounds(m, [1.0, 0.0], 2.0, 1)
        # U = I: sandwich scale is 0.5, Frobenius norms sqrt(2)
        core = 0.5
        assert rep.lower == pytest.approx(core / math.sqrt(2), rel=1e-10)
        assert rep.mean_part == pytest.approx(core * math.sqrt(2), rel=1e-10)
        assert rep.lower <= core <= rep.mean_part

    def test_eigenvector_start(self):
        m = raw_model(np.diag([0.5, 0.9]), np.eye(2), NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        for t in (1, 3, 10):
            rep = bnd.diagonalizable_bounds(m, [0.0, 1.0], 2.0, t)
            # x is the 0.9-eigenvector; sandwich collapses onto |q|^t up to U norms
            assert rep.mean_part == pytest.approx(math.sqrt(2) * 0.9**t, rel=1e-10)

    def test_lower_below_generic_upper(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_gaussian_model(rng, 3)
            spec = eigen(m.Q)
            if not spec.diagonalizable:
                continue
            x = rng.normal(size=3)
            star = build_star_norm(m.Q)
            for t in (0, 2, 8, 20):
                rep = bnd.diagonalizable_bounds(m, x, 2.0, t, star=star)
                assert rep.lower <= rep.upper * (1 + 1e-12)
                # the eigen-split lower stays below the true matrix-power gap
                gap = np.linalg.norm(
                    np.linalg.matrix_power(m.Q, t) @ (x - bnd.stationary_mean(m))
                )
                assert rep.lower <= gap * (1 + 1e-9) + 1e-12

    def test_rejects_defective(self):
        m = raw_model(
            np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2),
            NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)),
        )
        with pytest.raises(NotDiagonalizable):
            bnd.diagonalizable_bounds(m, [1.0, 0.0], 2.0, 5)


class TestSlicedGeneric:
    def test_prefactor(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        rep = bnd.sliced_generic_bounds(m, [1.0, 0.0], 1.0, 2)
        gap = np.linalg.norm(np.linalg.matrix_power(m.Q, 2) @ ([1.0, 0.0] - bnd.stationary_mean(m)))
        assert rep.lower == pytest.approx(gap * 2 / math.pi, rel=1e-12)

    def test_noiseless_tightness(self):
        m = ar_state_space([0.4, 0.1], [0.0], NoiseSpec.point_mass(0.0))
        for t in (0, 2, 6):
            rep = bnd.sliced_generic_bounds(m, [1.0, 1.0], 1.0, t)
            qtx = np.linalg.norm(np.linalg.matrix_power(m.Q, t) @ [1.0, 1.0])
            assert rep.lower == pytest.approx(qtx * 2 / math.pi, rel=1e-12, abs=1e-14)
            assert rep.details["routes"]["b"] == pytest.approx(qtx * 2 / math.pi, rel=1e-12, abs=1e-14)

    def test_lower_below_upper_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = random_gaussian_model(rng, int(rng.integers(2, 5)))
            star = build_star_norm(m.Q)
            x = rng.normal(size=m.d)
            for t in range(0, 101, 10):
                rep = bnd.sliced_generic_bounds(m, x, 1.0, t, star)
                assert rep.lower <= rep.upper * (1 + 1e-12)


class TestParallel:
    def test_tensorization_equal_copies(self):
        per = bnd.exact_ar1_report(0.5, 1.0, 2.0, 3)
        per_half = bnd.BoundReport(
            t=3, flavor="exact_ar1", order=2.0, lower=0.5, upper=0.5,
            mean_part=0.5, noise_part=0.0, details={"exact": True},
        )
        rep = bnd.parallel_bounds(per_half, 4, 2.0)
        assert rep.details["exact"] and rep.upper == pytest.approx(1.0, abs=1e-14)
        rep = bnd.parallel_bounds(per, 4, 2.0)
        assert rep.details["exact"] and rep.upper == pytest.approx(2.0 * per.upper, rel=1e-14)

    def test_identity_at_n1(self):
        per = bnd.exact_ar1_report(0.5, 1.0, 2.0, 3)
        rep = bnd.parallel_bounds(per, 1, 2.0)
        assert rep.lower == per.lower and rep.upper == per.upper

    def test_matches_block_diagonal_gaussian(self):
        # n-fold product of scalar Gaussian laws: joint W2 via Gelbrich on blocks
        q, sigma, x, t, n = 0.6, 1.0, 1.5, 4, 3
        per = bnd.exact_ar1_report(q, sigma, x, t)
        rep = bnd.parallel_bounds(per, n, 2.0)
        var_t = (1 - q ** (2 * t)) / (1 - q * q)
        var_inf = 1 / (1 - q * q)
        joint = gaussian_w2(
            GaussianLaw([q**t * x] * n, np.diag([var_t] * n)),
            GaussianLaw([0.0] * n, np.diag([var_inf] * n)),
        )
        assert rep.details["exact"] and rep.upper == pytest.approx(joint, rel=1e-10)

    def test_exact_only_at_order_two(self):
        per = bnd.exact_ar1_report(0.5, 1.0, 2.0, 3)
        assert "exact" not in bnd.parallel_bounds(per, 4, 1.5).details
        per = bnd.gaussian_affine_bounds(ar1(0.5), None, [2.0], 2.0, 3)
        assert "exact" not in bnd.parallel_bounds(per, 4, 2.0).details

    @pytest.mark.parametrize("t, p, sound", [(0, 3.0, False), (0, 1.5, False), (1, 3.0, False),
                                             (1, 1.5, True)])
    def test_per_copy_regime_flags_carried(self, t, p, sound):
        m, x = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0)), [1.0, 0.0]
        per = bnd.report(m, "generic", x, p, t)
        rep = bnd.report(m, "parallel", x, p, t, n_copies=2)
        for flag, want in (("t_in_stated_range", t >= 1), ("coupling_regime_sound", sound)):
            assert per.details[flag] is want and rep.details[flag] is want

    def test_scaling(self):
        m = ar1(0.5)
        per = bnd.gaussian_affine_bounds(m, np.eye(1), [2.0], 2.0, 2)
        rep = bnd.parallel_bounds(per, 9, 2.0)
        assert rep.lower == pytest.approx(3 * per.lower, rel=1e-14)
        assert rep.upper == pytest.approx(3 * per.upper, rel=1e-14)


class TestEmpiricalMean:
    def test_scalar_n1_coincides_with_generic(self):
        # in d = 1 the Frobenius majorant is exact, so n = 1 reduces to generic
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        a = bnd.empirical_mean_bounds(m, 1, [2.0], 2.0, 3)
        b = bnd.generic_bounds(m, [2.0], 2.0, 3)
        assert a.lower == pytest.approx(b.lower, rel=1e-14)
        assert a.upper == pytest.approx(b.upper, rel=1e-12)

    def test_lower_independent_of_n(self):
        m = ar_state_space([0.4, 0.2], [0.0], NoiseSpec.laplace(0.3, 1.0))
        reps = [bnd.empirical_mean_bounds(m, n, [1.0, 0.0], 1.0, 2) for n in (1, 3, 10)]
        for rep in reps[1:]:
            assert rep.lower == pytest.approx(reps[0].lower, rel=1e-14)
            assert rep.upper == pytest.approx(reps[0].upper, rel=1e-14)

    def test_gaussian_exact_per_n_shrinks(self):
        m = ar1(0.5)
        reps = [bnd.empirical_mean_bounds(m, n, [2.0], 2.0, 3) for n in (1, 4, 16)]
        exact = [r.details["routes"]["b_exact_n"] for r in reps]
        assert exact[0] > exact[1] > exact[2]
        # covariance of the average is Xi / n: noise tail shrinks like 1/sqrt(n)
        tail0 = exact[0] - reps[0].mean_part
        tail2 = exact[2] - reps[2].mean_part
        assert tail2 == pytest.approx(tail0 / 4.0, rel=1e-9)

    @staticmethod
    def model_d3():
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        C = A @ A.T + np.eye(3)
        Sigma = np.diag([1.0, 0.5, 2.0])
        return raw_model(0.6 * A / np.abs(np.linalg.eigvals(A)).max(), Sigma,
                         NoiseSpec.gaussian_d(rng.normal(size=3), C)), Sigma, C

    @staticmethod
    def tail(rep, root):
        """Route (b)'s noise tail with moment root ``root``, as the report's constants give it."""
        s, p = rep.constants_used["star_norm"], rep.order
        return rep.constants_used["K_d"] * root * s ** (rep.t + 1) / (1.0 - s**p) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_exact_n_matches_the_averaged_noise_moment(self, p, n):
        # the averaged noise written out: centered Gaussian with driver covariance C / n
        m, Sigma, C = self.model_d3()
        val, se = NoiseSpec.gaussian_d(np.zeros(3), C / n).abs_moment_sigma(Sigma, p)
        assert se == 0.0
        for t in (1, 5):
            rep = bnd.empirical_mean_bounds(m, n, [1.0, -2.0, 0.5], p, t)
            want = rep.mean_part + self.tail(rep, val ** (1.0 / p))
            assert rep.details["routes"]["b_exact_n"] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_exact_n_keeps_the_monte_carlo_margin(self, n):
        # at p = 3 the Gaussian moment of d = 3 noise has no exact route: the per-n route
        # takes Minkowski's upper bound over the drivers, whose root sits above a sampled
        # estimate of the moment, over sqrt(n)
        m, Sigma, C = self.model_d3()
        p = 3.0
        val, se = m.noise.centered.abs_moment_sigma(Sigma, p)
        assert se == 0.0
        rep = bnd.empirical_mean_bounds(m, n, [1.0, -2.0, 0.5], p, 2)
        want = self.tail(rep, val ** (1.0 / p) / math.sqrt(n))
        assert rep.details["routes"]["b_exact_n"] - rep.mean_part == pytest.approx(want, rel=1e-12)
        draws = np.random.default_rng(4).multivariate_normal(np.zeros(3), C, 200_000) @ Sigma
        assert val > 1.05 * np.mean(np.linalg.norm(draws, axis=1) ** p)


def exact_w2_rows(model, x, ts, n=1):
    """W2 at 60 digits between the time-t and stationary laws of the mean of ``n`` paths,
    for each step of ``ts``, with centered Gaussian noise.

    The stationary covariance ``S`` is the model's, read as exact, and the time-t one is
    ``S - Q^t S Q^tT``: the two then differ by exactly the gap that closes with ``t``, so
    the Bures term keeps its digits where the float trace form of ``gaussian_w2``, which
    cancels to about ``sqrt(eps tr S)``, reads the rounding instead."""
    with mpmath.workdps(60):
        def root(M):
            E, U = mpmath.eigsy((M + M.T) / 2)
            return U * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in E]) * U.T

        S, Q = mpmath.matrix(model.stationary_cov.tolist()) / n, mpmath.matrix(model.Q.tolist())
        z, rS, P, out = mpmath.matrix(list(x)), root(S), mpmath.eye(model.d), {}
        for t in range(max(ts) + 1):
            A = S - P * S * P.T
            bures = sum((A + S - 2 * root(rS * A * rS))[i, i] for i in range(model.d))
            out[t] = float(mpmath.sqrt(sum(g**2 for g in P * z) + bures))
            P = Q * P
        return [out[t] for t in ts]


class TestChosenRoutesSound:
    """The routes that win only since every route competes, ``b_eigenrate`` and
    ``b_exact_n``, stay above the exact W2 on Gaussian models."""

    MODELS = {
        "ar2": (lambda: ar_state_space([1.2, -0.5]), [2.0, 0.0]),
        "raw_nonnormal": (lambda: raw_model(
            np.array([[0.9, 5.0, 0.0], [0.0, 0.8, 5.0], [0.0, 0.0, -0.7]]), np.eye(3),
            NoiseSpec.gaussian_d(np.zeros(3), [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1],
                                               [0.0, 0.1, 0.5]])), [1.0, -1.0, 0.5]),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("flavor, n, route", [("generic_diag", 1, "b_eigenrate"),
                                                  ("empirical_mean", 4, "b_exact_n")])
    def test_upper_above_the_exact_w2(self, name, flavor, n, route):
        make, x = self.MODELS[name]
        m, ts = make(), range(1, 61)
        reps, inf = bnd.sweep(m, flavor, x, 2.0, ts, n_copies=n), bnd.stationary_law(m)
        for rep, exact in zip(reps, exact_w2_rows(m, x, ts, n)):
            assert rep.upper >= exact, (rep.t, rep.details["route"])
            if rep.t <= 10:  # the float trace form agrees while the gap is far above eps
                law = bnd.law_at(m, x, rep.t)
                assert gaussian_w2(GaussianLaw(law.mean, law.cov / n), GaussianLaw(
                    inf.mean, inf.cov / n)) == pytest.approx(exact, rel=1e-9)
        assert route in {rep.details["route"] for rep in reps}


class TestCopyCount:
    @pytest.mark.parametrize("flavor", ["parallel", "empirical_mean"])
    @pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, math.inf, math.nan, "3"])
    def test_not_a_positive_integer_raises(self, flavor, n):
        with pytest.raises(ValueError, match="n_copies must be an integer of at least 1"):
            bnd.report(ar1(0.5), flavor, [2.0], 2.0, 3, n_copies=n)

    @pytest.mark.parametrize("flavor", ["parallel", "empirical_mean"])
    def test_numpy_integers_count(self, flavor):
        m = ar1(0.5)
        a = bnd.report(m, flavor, [2.0], 2.0, 3, n_copies=np.int64(4))
        b = bnd.report(m, flavor, [2.0], 2.0, 3, n_copies=4)
        assert (a.lower, a.upper, a.details) == (b.lower, b.upper, b.details)
        assert type(a.details["n_copies"]) is int


class TestReport:
    @pytest.mark.parametrize(
        "flavor", ["generic", "generic_diag", "sliced_generic", "empirical_mean"]
    )
    def test_coupling_call_solves_no_stationary_covariance(self, count_calls, flavor):
        solves = count_calls("solve_stein")
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        rep = bnd.report(m, flavor, [1.0, 0.0], 1.5, 4, n_copies=3)
        assert rep.lower <= rep.upper
        assert bnd.generic_bounds(m, [1.0, 0.0], 1.5, 4).flavor == "generic"
        assert solves == []

    def test_model_level_problems_solved_once_per_model(self, count_calls):
        # the per-t public calls read the model's stationary law, Schur form
        # and default star norm, so a longer sweep solves nothing more; Q is
        # decomposed once, and eigen(Q) runs only for the eigen sandwich
        names = ("schur_triangularize", "star_norm", "build_star_norm", "solve_stein",
                 "stationary_covariance", "eigen")

        def sweep_counts(t_max, sandwich=True):
            counts = {name: count_calls(name) for name in names}
            m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
            x, v = [1.0, -0.5], [0.6, 0.8]
            for t in range(t_max + 1):
                bnd.gaussian_affine_bounds(m, np.eye(2), x, 1.5, t)
                bnd.projected_bounds(m, v, x, 1.5, t)
                bnd.sliced_gauss_bounds(m, x, 1.5, t)
                bnd.generic_bounds(m, x, 1.5, t)
                if sandwich:
                    bnd.diagonalizable_bounds(m, x, 1.5, t)
                bnd.sliced_generic_bounds(m, x, 1.5, t)
                bnd.empirical_mean_bounds(m, 3, x, 1.5, t)
                bnd.stationary_law(m)
                validate_model(m, 2.0)
            return {name: len(calls) for name, calls in counts.items()}

        one, eleven = sweep_counts(0), sweep_counts(10)
        assert one == eleven == {"schur_triangularize": 1, "star_norm": 1, "build_star_norm": 0,
                                 "solve_stein": 1, "stationary_covariance": 0, "eigen": 1}
        assert sweep_counts(10, sandwich=False)["eigen"] == 0

    def test_rejects_parallel_per_copy_flavor(self):
        with pytest.raises(ValueError):
            bnd.report(ar1(0.5), "parallel", [1.0], 2.0, 1, per_copy_flavor="parallel")

    def test_eigenvector_matrix_inverted_once_per_model(self, count_calls):
        sandwiches = count_calls("EigenSandwich")
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        for t in range(11):
            bnd.diagonalizable_bounds(m, [1.0, -0.5], 1.5, t)
        assert len(sandwiches) == 1


class TestChafai:
    def test_identity_shift(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((3, 3))
        law = GaussianLaw(rng.normal(size=3), M @ M.T)
        u = np.array([1.0, -2.0, 0.5])
        assert bnd.chafai_w2_affine(law, np.eye(3), u) == pytest.approx(
            np.linalg.norm(u), rel=1e-12
        )

    def test_transport_to_point(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((2, 2))
        law = GaussianLaw(np.zeros(2), M @ M.T)
        got = bnd.chafai_w2_affine(law, np.zeros((2, 2)), np.zeros(2))
        assert got == pytest.approx(math.sqrt(np.trace(law.cov)), rel=1e-12)

    def test_scalar_scaling(self):
        for c in (0.0, 0.5, 2.0):
            got = bnd.chafai_w2_affine(GaussianLaw([0.0], [[1.0]]), [[c]], [0.0])
            assert got == pytest.approx(abs(1 - c), abs=1e-12)
            want = gaussian_w2(GaussianLaw([0.0], [[1.0]]), GaussianLaw([0.0], [[c * c]]))
            assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            bnd.chafai_w2_affine(GaussianLaw([0.0], [[1.0]]), [[-1.0]], [0.0])


class TestReportShape:
    def test_additive_split(self):
        m = ar1(0.5)
        rep = bnd.gaussian_affine_bounds(m, np.eye(1), [2.0], 2.0, 2)
        assert rep.upper == pytest.approx(rep.mean_part + rep.noise_part, rel=1e-14)
        assert rep.details["t_in_stated_range"]

    def test_t_zero_flagged(self):
        rep = bnd.generic_bounds(ar1(0.5), [2.0], 2.0, 0)
        assert not rep.details["t_in_stated_range"]

    ROUTES = {"exact_ar1": ["exact"], "gauss_affine": ["affine"],
              "projected": ["middle", "final"], "sliced_gauss": ["affine"],
              "generic_diag": ["a", "b", "b_eigenrate"],
              **dict.fromkeys(["generic", "sliced_generic", "empirical_mean"], ["a", "b"])}

    @pytest.mark.parametrize("flavor", bnd.FLAVORS)
    def test_upper_is_the_smallest_selectable_route(self, flavor):
        # one rule for every flavor and route: upper is routes[route], the smallest route
        # and the first listed on a tie, and a report built from routes takes the winner's
        # parts, whose sum is upper exactly
        rows, winners = 0, set()
        for m, x, v in sweep_models().values():
            for r in (1.0, 1.5, 2.0, 3.0):
                reps = outcome(lambda: bnd.sweep(m, flavor, x, r, range(41), v=v, n_copies=3))
                for rep in reps if isinstance(reps, list) else ():
                    routes, route = rep.details["routes"], rep.details["route"]
                    assert rep.upper == routes[route] == min(routes.values())
                    if flavor == "parallel":
                        # the per-copy table, scaled, and its winner, also where the scaling
                        # rounds two routes to a tie
                        each = bnd.report(m, "generic", x, r, rep.t).details
                        assert route == each["route"]
                        assert routes == {k: math.sqrt(3) * u for k, u in each["routes"].items()}
                    else:
                        assert route == next(k for k in routes if routes[k] == rep.upper)
                        gaussian_n = flavor == "empirical_mean" and m.noise.family == "gaussian"
                        assert list(routes) == self.ROUTES[flavor] + ["b_exact_n"] * gaussian_n
                    if flavor not in ("exact_ar1", "parallel"):
                        assert rep.mean_part + rep.noise_part == rep.upper
                    winners.add(route)
                    rows += 1
        assert rows > 0
        if flavor in ("generic_diag", "empirical_mean"):  # the third route wins somewhere
            assert winners >= {"generic_diag": {"b_eigenrate"},
                               "empirical_mean": {"b_exact_n"}}[flavor]


def neumann_oracle(model, x, t, B=None):
    """The time-t law by the per-t Neumann loop, restarted from ``j = 0``: the reference."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    B = np.eye(model.d) if B is None else np.asarray(B, dtype=float)
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


def neumann_models(centered):
    mean = 0.0 if centered else 0.7
    nonnormal = np.array([[0.9, 5.0, 0.0], [0.0, 0.8, 5.0], [0.0, 0.0, -0.7]])
    return {
        "ar2": ar_state_space([1.2, -0.5], None, NoiseSpec.gaussian(mean, 1.0)),
        "arma": arma_state_space([0.5, 0.2], [0.4], NoiseSpec.gaussian(mean, 2.0)),
        "raw_nonnormal": raw_model(
            nonnormal, np.eye(3),
            NoiseSpec.gaussian_d([mean, -mean, 0.5 * mean], [[1.0, 0.3, 0.0],
                                                              [0.3, 2.0, 0.1],
                                                              [0.0, 0.1, 0.5]]),
        ),
    }


UNIT_ROUNDOFF = 2.0**-53


def gamma(n):
    """Higham's ``gamma_n = n u / (1 - n u)``."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def mean_error_bound(model, x, t, B=None):
    """The 2-norm budget within which two routes to the time-t mean ``B (Q^t x + drift_t)``,
    ``drift_t = sum_{j<t} Q^j m`` with ``m = Sigma E[xi]``, may differ.

    A computed product of inner length ``d`` obeys ``|fl(A C) - A C| <= gamma_d |A| |C|``,
    so any parenthesization of ``Q^t x`` as ``t`` products (repeated squaring included)
    is off by at most ``gamma_{td} |Q|^t |x|`` to first order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3, matrix multiplication).  Replace ``|Q|^t``
    by ``|Q^t|``: exact for ``Q >= 0``, and elsewhere the one step that is not a theorem;
    on these models both routes stay within 3e-15 of ``|| |Q^t| |x| ||`` of a 50-digit
    mpmath reference, 9% of this budget at most.  The drift's terms ``Q^j m`` are the same
    floats in both routes, and only the order of the ``t + 1`` additions differs, which
    costs ``gamma_{t+1}`` of the magnitudes summed.  ``B`` adds one product of inner length
    ``d``.  Two routes each within their bound differ by at most
    ``2 gamma_{(t+1)(d+1)} || |B| (|Q^t| |x| + sum_{j<t} |Q^j| |m|) ||``.
    """
    d = model.d
    B = np.eye(d) if B is None else np.asarray(B, dtype=float)
    m = np.abs(model.Sigma @ model.noise.mean_vector())
    size = np.abs(np.linalg.matrix_power(model.Q, t)) @ np.abs(x)
    size = size + sum((np.abs(np.linalg.matrix_power(model.Q, j)) @ m for j in range(t)),
                      np.zeros(d))
    return 2.0 * gamma((t + 1) * (d + 1)) * np.linalg.norm(np.abs(B) @ size)


class TestNeumannSweep:
    @pytest.mark.parametrize("centered", [True, False], ids=["centered", "non_centered"])
    @pytest.mark.parametrize("name", ["ar2", "arma", "raw_nonnormal"])
    def test_sweep_and_law_at_match_per_t_loop(self, name, centered):
        m = neumann_models(centered)[name]
        rng = np.random.default_rng(5)
        x, B = rng.normal(size=m.d), rng.normal(size=(1, m.d))
        for b in (None, B):
            swept = bnd._laws(m, x, list(range(61)), b)
            for t in range(61):
                got, ref = bnd.law_at(m, x, t, b), neumann_oracle(m, x, t, b)
                assert (swept[t].mean.tobytes(), swept[t].cov.tobytes()) == (
                    got.mean.tobytes(), got.cov.tobytes()), t
                assert got.cov.tobytes() == ref.cov.tobytes(), t
                assert np.linalg.norm(got.mean - ref.mean) <= mean_error_bound(m, x, t, b), t

    @pytest.mark.parametrize("centered", [True, False], ids=["centered", "non_centered"])
    def test_t_zero_adds_nothing_to_start(self, centered):
        for m in neumann_models(centered).values():
            x = np.zeros(m.d)
            x[::2] = -0.0
            for B in (None, -np.eye(m.d)):
                got, want = bnd.law_at(m, x, 0, B), neumann_oracle(m, x, 0, B)
                assert got.mean.tobytes() == want.mean.tobytes()
                assert got.cov.tobytes() == want.cov.tobytes()


def ar40():
    """A seeded Gaussian AR(40) with ``sum |phi| = 0.9``, as in the benchmark's t_sweep."""
    w = np.random.default_rng(0).uniform(-1.0, 1.0, 40)
    return ar_state_space(0.9 * w / np.abs(w).sum(), None, NoiseSpec.gaussian(0.0, 1.0))


def power_rows(m, ts, zs, vs=()):
    """``bnd._power_rows`` as one ``(len(ts), d)`` array per ``z``, then per ``v``."""
    return [g[:, j] for g in bnd._power_rows(m, ts, zs, vs) for j in range(g.shape[1])]


class TestPowerRows:
    """``_power_rows``: ``Q^t z`` and ``(Q^t)^T v`` through the model's squares."""

    @pytest.mark.parametrize("name", ["raw_nonnormal", "ar40"])
    def test_rows_match_matrix_power(self, name):
        m = ar40() if name == "ar40" else neumann_models(True)[name]
        rng = np.random.default_rng(12)
        zs, vs = tuple(rng.normal(size=(2, m.d))), (rng.normal(size=m.d),)
        ts = [4096, 0, 17, 4095, 17, 1, 2048, 3, 300, 0]
        rows = power_rows(m, ts, zs, vs)
        assert [r.shape for r in rows] == [(len(ts), m.d)] * 3
        for i, t in enumerate(ts):
            P = np.linalg.matrix_power(m.Q, t)
            # one route each side: gamma_{td} of the magnitudes (mean_error_bound, m = 0)
            for got, want, size in ((rows[0][i], P @ zs[0], np.abs(P) @ np.abs(zs[0])),
                                    (rows[1][i], P @ zs[1], np.abs(P) @ np.abs(zs[1])),
                                    (rows[2][i], P.T @ vs[0], np.abs(P).T @ np.abs(vs[0]))):
                assert np.linalg.norm(got - want) <= 2.0 * gamma((t + 1) * m.d) * np.linalg.norm(
                    size), t
            # a row's bits do not depend on the other steps
            alone = power_rows(m, [ts[i]], zs, vs)
            assert [r[i].tobytes() for r in rows] == [r[0].tobytes() for r in alone], t

    def test_empty_steps_and_python_integers(self):
        m, z = neumann_models(True)["arma"], np.array([1.0, -2.0, 0.5])
        assert [r.shape for r in bnd._power_rows(m, [], (z,), (z,))] == [(0, 1, 3), (0, 1, 3)]
        assert bnd._power_rows(m, [0], (z,))[0].tobytes() == z.tobytes()
        # the rows take Python ints: sweep converts a numpy integer step and refuses a float
        assert repr(bnd.sweep(m, "generic", z, 2.0, [np.int32(9)])) == repr(
            bnd.sweep(m, "generic", z, 2.0, [9]))
        with pytest.raises(ValueError, match="t must be an integer of at least 0, got 2.0"):
            bnd.sweep(m, "generic", z, 2.0, [2.0])

    def test_threads_growing_the_squares_get_the_serial_report(self):
        # each square's product releases the GIL: threads that grew one kept list in
        # place read squares appended by the others at the wrong level
        x = np.eye(40)[0]
        want = repr(bnd.generic_bounds(ar40(), x, 2.0, 1000))
        for _ in range(20):
            m = ar40()
            m.star  # built before the threads start, so they meet at the squares
            barrier, got = threading.Barrier(4), [None] * 4

            def run(i):
                barrier.wait()
                got[i] = repr(bnd.generic_bounds(m, x, 2.0, 1000))

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert got == [want] * 4

    def test_threads_alternating_two_models_get_the_serial_reports(self, run_threads):
        # single steps keep the last model's rows and Neumann sums in one slot each: threads
        # that alternate two models replace them on every call, and each must still get the
        # serial report and law
        models = neumann_models(False)
        models = [(models["ar2"], [2.0, 0.0]), (models["arma"], [1.0, 0.5, -0.3])]

        def calls(k, t):
            m, x = models[k]
            law = bnd.law_at(m, x, t)
            return (repr(bnd.report(m, "generic", x, 1.5, t)),
                    repr(bnd.report(m, "gauss_affine", x, 2.0, t)),
                    law.mean.tobytes(), law.cov.tobytes())

        steps = [1, 5, 17, 40]
        want = {(k, t): calls(k, t) for k in (0, 1) for t in steps}
        bad = []

        def run(i):
            for j in range(100):
                key = (i + j) % 2, steps[(i + j // 2) % len(steps)]
                if calls(*key) != want[key]:
                    bad.append((i, j))

        run_threads(run)
        assert bad == []
        # one model and start past _KEPT_ROWS rows: the kept rows are replaced while other
        # threads read them, and each thread must still get the serial reports
        m, x = models[0]
        steps = range(bnd._KEPT_ROWS // 2 + 200)  # "gap" and "gap_norms" rows at each step
        want = [repr(rep) for rep in bnd.sweep(neumann_models(False)["ar2"], "generic", x, 1.5,
                                                steps)]

        def run_long(i):
            for t in steps[i::4]:
                if repr(bnd.report(m, "generic", x, 1.5, t)) != want[t]:
                    bad.append((i, t))

        run_threads(run_long)
        assert bad == [] and 1 <= len(bnd._ROWS[0][1]) <= bnd._KEPT_ROWS

    def test_kept_squares_are_replaced_not_grown(self):
        # the race above needs two CPUs to show; this is its single-CPU witness: a
        # reader's snapshot of the kept squares stays what it was when read
        m, z = ar40(), np.eye(40)[0]
        bnd._power_rows(m, [3], (z,))
        snapshot = m._bound_constants[("power_ladder", 2)]
        bnd._power_rows(m, [1000], (z,))
        assert len(snapshot) == 2 and len(m._bound_constants[("power_ladder", 10)]) == 10
        assert m._bound_constants[("power_ladder", 2)] is snapshot

    def test_long_sweep_memory_is_linear_in_steps(self):
        m, T = ar40(), 5000
        x, v = np.eye(m.d)[0], np.eye(m.d)[1]
        bnd.sweep(m, "projected", x, 2.0, [T - 1], v=v)  # the constants and squares, kept
        tracemalloc.start()
        try:
            reports = bnd.sweep(m, "projected", x, 2.0, range(T), v=v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == T
        # the rows take T d floats each; stacked powers Q^t would take T d^2 (64 MB here)
        assert peak < 10 * T * m.d * 8


X_NEG, V_NEG = [1.0, -0.5], [0.6, 0.8]


class TestNegativeT:
    """Every per-t entry point rejects ``t < 0`` before it solves anything."""

    CACHED = sorted(k for k, v in vars(StateSpaceModel).items() if isinstance(v, cached_property))
    CALLS = {
        "law_at": lambda m, t: bnd.law_at(m, X_NEG, t),
        "gaussian_affine_bounds": lambda m, t: bnd.gaussian_affine_bounds(m, None, X_NEG, 2.0, t),
        "projected_bounds": lambda m, t: bnd.projected_bounds(m, V_NEG, X_NEG, 2.0, t),
        "sliced_gauss_bounds": lambda m, t: bnd.sliced_gauss_bounds(m, X_NEG, 2.0, t),
        "generic_bounds": lambda m, t: bnd.generic_bounds(m, X_NEG, 2.0, t),
        "diagonalizable_bounds": lambda m, t: bnd.diagonalizable_bounds(m, X_NEG, 2.0, t),
        "sliced_generic_bounds": lambda m, t: bnd.sliced_generic_bounds(m, X_NEG, 2.0, t),
        "empirical_mean_bounds": lambda m, t: bnd.empirical_mean_bounds(m, 3, X_NEG, 2.0, t),
        **{
            f"report_{flavor}": lambda m, t, f=flavor: bnd.report(
                m, f, X_NEG, 2.0, t, v=V_NEG, n_copies=3)
            for flavor in bnd.FLAVORS if flavor != "exact_ar1"
        },
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejected_before_any_work(self, name):
        m = ar_state_space([1.2, -0.5], None, NoiseSpec.gaussian(0.0, 1.0))
        with pytest.raises(ValueError, match="t must be an integer of at least 0"):
            self.CALLS[name](m, -1)
        assert [k for k in self.CACHED if k in vars(m)] == [] and m._bound_constants == {}
        self.CALLS[name](m, 1)  # the same call at t = 1 solves a model-level problem
        assert [k for k in self.CACHED if k in vars(m)] != []

    def test_scalar_exact_forms(self):
        m = ar1(0.5)
        for call in (
            lambda: bnd.exact_w2_ar1(0.5, 1.0, 2.0, -1),
            lambda: bnd.exact_ar1_report(0.5, 1.0, 2.0, -1),
            lambda: bnd.report(m, "exact_ar1", [2.0], 2.0, -1),
        ):
            with pytest.raises(ValueError, match="t must be an integer of at least 0"):
                call()
        assert [k for k in self.CACHED if k in vars(m)] == []


class TestOrderRange:
    """Every flavor needs a finite order ``r >= 1``; a NaN order is refused, not propagated."""

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("flavor", bnd.FLAVORS)
    def test_sweep_rejects_before_any_work(self, flavor, r):
        m = ar1(0.5) if flavor == "exact_ar1" else ar_state_space([1.2, -0.5])
        x = [2.0] if flavor == "exact_ar1" else X_NEG
        with pytest.raises(ValueError, match="order r must be finite and at least 1"):
            bnd.sweep(m, flavor, x, r, range(3), v=V_NEG, n_copies=3)
        assert [k for k in TestNegativeT.CACHED if k in vars(m)] == []

    def test_order_one_accepted(self):
        rep = bnd.report(ar_state_space([1.2, -0.5]), "generic", X_NEG, 1.0, 2)
        assert rep.order == 1.0 and rep.lower <= rep.upper

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.5])
    def test_moment_constants_reject_the_order(self, r):
        with pytest.raises(ValueError, match="order r must be finite and at least 1"):
            bnd.gaussian_abs_moment(2, r)
        with pytest.raises(ValueError, match="order r must be finite and at least 1"):
            sphere_moment_ratio(2, r)


# Noise specs shared by every build of the battery: a spec keeps its moments,
# so each is solved once per session.
SWEEP_NOISE = {"gauss": NoiseSpec.gaussian(0.0, 1.0), "laplace": NoiseSpec.laplace(0.0, 1.0),
               "student": NoiseSpec.student_t_d(4.5, [1.0, 0.5, 2.0])}


def sweep_models():
    """The sweep-equivalence battery: ``(model, x, v)`` by name, each model built afresh."""
    nonnormal = np.array([[0.9, 5.0, 0.0], [0.0, 0.8, 5.0], [0.0, 0.0, -0.7]])
    return {
        "ar1_gauss": (ar1(0.7, 1.3), [2.0], [1.0]),
        "ar2_gauss": (ar_state_space([1.2, -0.5], None, SWEEP_NOISE["gauss"]), [2.0, 0.0],
                      [0.6, 0.8]),
        "arma21_laplace": (arma_state_space([0.5, 0.2], [0.4], SWEEP_NOISE["laplace"]),
                           [1.0, 0.5, -0.3], [0.0, 0.6, 0.8]),
        "raw3_student": (raw_model(nonnormal, np.eye(3), SWEEP_NOISE["student"]),
                         [1.0, -1.0, 0.5], [0.0, 0.6, 0.8]),
    }


def outcome(call):
    """A call's reports, or the type and message of the error it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


class TestSweep:
    """``sweep`` row ``t`` is ``report`` at ``t``, field by field."""

    T = 41
    OPTIONS = {"v": None, "n_copies": 3}

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("flavor", bnd.FLAVORS)
    @pytest.mark.parametrize("name", sorted(sweep_models()))
    def test_rows_equal_per_step_reports(self, name, flavor, r):
        # separate models, so no constant kept on one serves the other
        m, x, v = sweep_models()[name]
        m_each = sweep_models()[name][0]
        options = {**self.OPTIONS, "v": v}
        swept = outcome(lambda: bnd.sweep(m, flavor, x, r, range(self.T), **options))
        each = outcome(lambda: [bnd.report(m_each, flavor, x, r, t, **options)
                                for t in range(self.T)])
        assert swept == each
        if isinstance(swept, list):
            assert [repr(rep) for rep in swept] == [repr(rep) for rep in each]
            assert [rep.t for rep in swept] == list(range(self.T))

    def test_any_order_of_steps(self):
        m, x, _ = sweep_models()["raw3_student"]
        ts = np.array([17, 0, 5, 300, 5, 1, 64])  # numpy integers, as matrix_power takes them
        assert bnd.sweep(m, "generic", x, 1.5, ts) == [
            bnd.generic_bounds(m, x, 1.5, t) for t in ts]

    def test_empty_sweep(self):
        m, x, v = sweep_models()["ar2_gauss"]
        for flavor in bnd.FLAVORS[1:]:  # the inputs are still checked: exact_ar1 needs d = 1
            assert bnd.sweep(m, flavor, x, 1.5, [], v=v) == []

    @pytest.mark.parametrize("error, model, flavor, r", [
        (SingularStationaryCovariance,
         raw_model(np.diag([0.5, 0.3]), np.diag([1.0, 0.0]), NoiseSpec.gaussian_d([0.0, 0.0],
                                                                                   np.eye(2))),
         "gauss_affine", 2.0),
        (MomentUnavailable, sweep_models()["raw3_student"][0], "generic", 5.0),
        (MomentUnavailable, sweep_models()["raw3_student"][0], "sliced_generic", 4.5),
        (NotDiagonalizable, raw_model(np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2),
                                      NoiseSpec.gaussian_d([0.0, 0.0], np.eye(2))),
         "generic_diag", 1.5),
    ])
    def test_typed_errors_raised_alike(self, error, model, flavor, r):
        x = [1.0] * model.d
        with pytest.raises(error) as swept:
            bnd.sweep(model, flavor, x, r, range(5), v=[1.0] + [0.0] * (model.d - 1))
        with pytest.raises(error) as each:
            bnd.report(model, flavor, x, r, 3, v=[1.0] + [0.0] * (model.d - 1))
        assert str(swept.value) == str(each.value)

    @pytest.mark.parametrize("name", sorted(sweep_models()))
    def test_coupling_rows_are_the_gap_rows(self, name):
        # the coupling flavors read the Gaussian flavors' one-row "gap" products: |Q^t (x -
        # m_inf)| is matrix_power's to a few ulps (at most 18, on the nonnormal model)
        m, x, _ = sweep_models()[name]
        gap = np.asarray(x, dtype=float) - m.stationary_mean
        for rep in bnd.sweep(m, "generic", x, 1.5, range(64)):
            want = np.linalg.norm(np.linalg.matrix_power(m.Q, rep.t) @ gap)
            assert rep.lower == rep.mean_part
            assert abs(rep.lower - want) <= 32 * np.spacing(want), rep.t

    def test_negative_step_anywhere_rejected(self):
        m, x, _ = sweep_models()["ar2_gauss"]
        with pytest.raises(ValueError, match="t must be an integer of at least 0, got -2"):
            bnd.sweep(m, "generic", x, 1.5, [3, 0, -2, 4])

    def test_explicit_b_eigensolve_once(self, count_calls):
        # B Sigma_inf B^T is solved once per model and B, per-t calls included
        solves = count_calls("smallest_eigenvalue_sym")
        m, x = ar_state_space([0.3, 0.5], None, NoiseSpec.gaussian(0.0, 1.0)), [1.0, -0.5]
        for t in range(11):
            bnd.gaussian_affine_bounds(m, np.eye(2), x, 1.5, t)
        assert len(solves) == 1
        m = ar_state_space([0.3, 0.5], None, NoiseSpec.gaussian(0.0, 1.0))
        rows = bnd.sweep(m, "gauss_affine", x, 1.5, range(11), B=np.eye(2))
        assert len(solves) == 2
        assert rows == [bnd.gaussian_affine_bounds(m, np.eye(2), x, 1.5, t) for t in range(11)]
        assert len(solves) == 2


def bits(law):
    return law.mean.tobytes(), law.cov.tobytes()


class TestKeptState:
    """Single-step calls read what is kept: the rows of the last model and start, per step,
    and the last model's Neumann sums at the last step reached.  They are what a fresh
    model computes."""

    STEPS = [7, 0, 3, 12, 3, 1, 9, 7, 2, 12]

    @staticmethod
    def fresh_reports(name, calls):
        """``repr`` of each ``(start, t, flavor, options)`` report on a fresh model."""
        return [repr(outcome(lambda: bnd.report(sweep_models()[name][0], flavor, start, 1.5, t,
                                                **options)))
                for start, t, flavor, options in calls]

    @pytest.mark.parametrize("flavor", bnd.FLAVORS)
    @pytest.mark.parametrize("name", sorted(sweep_models()))
    def test_single_step_reports_equal_a_fresh_models(self, name, flavor):
        m, x, v = sweep_models()[name]
        x = np.asarray(x, dtype=float)
        options = {**TestSweep.OPTIONS, "v": v}
        # repeated steps at one start read the kept rows; the second start replaces them
        calls = [(start, t, flavor, options) for start in (x, 0.25 - 0.5 * x) for t in self.STEPS]
        got = [repr(outcome(lambda: bnd.report(m, flavor, start, 1.5, t, **options)))
               for start, t, _, _ in calls]
        assert got == self.fresh_reports(name, calls)

    @pytest.mark.parametrize("name", sorted(sweep_models()))
    def test_flavors_at_one_start_share_its_rows(self, name):
        m, x, v = sweep_models()[name]
        options = {**TestSweep.OPTIONS, "v": v}
        calls = [(x, t, flavor, options) for t in self.STEPS for flavor in bnd.FLAVORS]
        got = [repr(outcome(lambda: bnd.report(m, flavor, x, 1.5, t, **options)))
               for _, t, flavor, _ in calls]
        assert got == self.fresh_reports(name, calls)

    def test_one_model_is_kept_for_the_process(self):
        a, b = (neumann_models(False)["ar2"] for _ in range(2))
        x = np.array([1.0, -2.0])
        bnd.generic_bounds(a, x, 2.0, 4)
        bnd.law_at(a, x, 6)
        assert bnd._ROWS[0][0][0]() is a and bnd._SUMS[0][0][0]() is a
        # another model replaces the rows and the Neumann sums of the one before
        bnd.generic_bounds(b, x, 2.0, 5)
        bnd.law_at(b, x, 3)
        (ref, start), rows = bnd._ROWS[0]
        assert ref() is b and start == x.tobytes()
        assert set(rows) == {("gap", 5), ("gap_norms", 5), ("x", 3)}
        assert bnd._SUMS[0][0][0]() is b and bnd._SUMS[0][0][1] == 3
        del b
        gc.collect()
        # the slots do not keep their model alive
        assert bnd._ROWS[0][0][0]() is None and bnd._SUMS[0][0][0]() is None
        want = [bnd.law_at(neumann_models(False)["ar2"], x, 9),
                bnd.generic_bounds(neumann_models(False)["ar2"], x, 2.0, 5)]
        assert bits(bnd.law_at(a, x, 9)) == bits(want[0])
        assert repr(bnd.generic_bounds(a, x, 2.0, 5)) == repr(want[1])

    @pytest.mark.parametrize("name", ["ar2", "arma", "raw_nonnormal"])
    def test_law_at_resumes_or_restarts_bit_for_bit(self, name):
        m = neumann_models(False)[name]
        rng = np.random.default_rng(8)
        x, B = rng.normal(size=m.d), rng.normal(size=(1, m.d))
        for b in (None, B):
            for t in (5, 5, 3, 9, 0):
                got = bnd.law_at(m, x, t, b)
                assert bits(got) == bits(bnd.law_at(neumann_models(False)[name], x, t, b)), t
                assert got.cov.tobytes() == neumann_oracle(m, x, t, b).cov.tobytes(), t
            ts = [9, 0, 5, 3, 5, 12]
            fresh = neumann_models(False)[name]
            assert [bits(law) for law in bnd._laws(m, x, ts, b)] == [
                bits(bnd.law_at(fresh, x, t, b)) for t in ts]

    def test_kept_arrays_are_read_only(self):
        m, x = neumann_models(False)["ar2"], np.array([1.0, -2.0])
        law = bnd.law_at(m, x, 4)
        bnd.gaussian_affine_bounds(m, None, x, 2.0, 4)
        (_, at), sums = bnd._SUMS[0]
        rows = bnd._ROWS[0][1]
        assert at == 4 and {kind for kind, _ in rows} == {"x", "gap"}
        for kept in (*sums, *rows.values()):
            assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sums[1][0, 0] = 1.0
        law.mean[:], law.cov[:] = 7.0, 7.0  # the caller's copies
        assert bits(bnd.law_at(m, x, 4)) == bits(bnd.law_at(neumann_models(False)["ar2"], x, 4))

    def test_a_call_that_raises_keeps_nothing(self, monkeypatch):
        m, x = neumann_models(False)["ar2"], np.array([1.0, -2.0])
        bnd.law_at(m, x, 4)
        rows, sums = bnd._ROWS[0], bnd._SUMS[0]

        def fail(*args):
            raise FloatingPointError("no value")

        with pytest.raises(FloatingPointError):
            bnd._per_step(m, x, [5], "x", fail)
        assert bnd._ROWS[0] is rows and set(rows[1]) == {("x", 4)}
        monkeypatch.setattr(NoiseSpec, "mean_vector", fail)
        with pytest.raises(FloatingPointError):
            bnd.law_at(neumann_models(False)["ar2"], x, 6)  # its rows are kept, its sums not
        assert bnd._SUMS[0] is sums and bnd._ROWS[0] is not rows
        monkeypatch.setattr(bnd, "smallest_eigenvalue_sym", fail)
        with pytest.raises(FloatingPointError):
            bnd.lambda_minus(m, np.ones((1, 2)))
        assert not any(key[0] == "lambda_minus" for key in m._bound_constants)

    def test_a_long_single_step_loop_keeps_a_bounded_number_of_rows(self):
        m, x = neumann_models(True)["arma"], np.array([1.0, -2.0, 0.5])
        fresh = neumann_models(True)["arma"]
        for t in range(3 * bnd._KEPT_ROWS // 2):
            rep = bnd.generic_bounds(m, x, 2.0, t)
            assert 1 <= len(bnd._ROWS[0][1]) <= bnd._KEPT_ROWS
        assert repr(rep) == repr(bnd.generic_bounds(fresh, x, 2.0, t))

    def test_sweeps_keep_nothing_and_the_sums_stay_quadratic(self):
        m, T = ar40(), 20_000
        x = np.eye(m.d)[0]
        for flavor in ("generic", "gauss_affine"):  # the constants and squares, kept
            bnd.report(m, flavor, x, 2.0, T - 1)
            bnd.sweep(m, flavor, x, 2.0, range(100))  # and the interpreter's free lists filled
        kept = dict(bnd._ROWS[0][1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for flavor in ("generic", "gauss_affine"):
                assert len(bnd.sweep(m, flavor, x, 2.0, range(T))) == T
            swept = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            bnd._neumann_sums(m, 2000)
            summed, peak = (n - base for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert bnd._ROWS[0][1] == kept
        assert swept < 32 * 1024  # one float per step would take 160 kB
        # drift, cov and Q^t: d + 2 d^2 floats; a list of steps would take 2000 d^2
        assert bnd._SUMS[0][0][1] == 2000
        assert summed < 3 * m.d * m.d * 8 and peak < 10 * m.d * m.d * 8


class TestStartChecked:
    """Every flavor and ``law_at`` check the start once: ``DimensionMismatch`` for another
    length, ``ValueError`` for a non-finite entry, before any bound is evaluated."""

    CALLS = {
        **{flavor: lambda m, x, f=flavor: bnd.report(m, f, x, 2.0, 3, v=V_NEG, n_copies=3)
           for flavor in bnd.FLAVORS},
        "law_at": lambda m, x: bnd.law_at(m, x, 3),
        "law_at_b": lambda m, x: bnd.law_at(m, x, 3, B=np.ones((1, m.d))),
        "gaussian_affine_bounds": lambda m, x: bnd.gaussian_affine_bounds(m, None, x, 2.0, 3),
        "generic_bounds": lambda m, x: bnd.generic_bounds(m, x, 2.0, 3),
    }

    @staticmethod
    def model(name):
        return ar1(0.5) if name == "exact_ar1" else ar_state_space([1.2, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_non_finite_start_rejected(self, name, bad):
        m = self.model(name)
        x = [bad] + [0.0] * (m.d - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x must be finite"):
                self.CALLS[name](m, x)
        assert m._bound_constants == {}

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_wrong_length_rejected(self, name):
        m = self.model(name)
        for x in ([1.0] * (m.d + 1), np.ones((1, m.d)), [[]]):
            with pytest.raises(DimensionMismatch, match=f"x must have length d = {m.d}"):
                self.CALLS[name](m, x)
        assert m._bound_constants == {}

    def test_overflowing_tail_refused_before_the_stein_solve(self):
        # the t_sweep AR(100): C_star**2 overflows, so no Sigma_inf is solved for it
        w = np.random.default_rng(100).uniform(-1.0, 1.0, 100)
        m = ar_state_space(0.9 * w / np.abs(w).sum(), None, NoiseSpec.gaussian(0.0, 1.0))
        with pytest.raises(OverflowError):
            bnd.gaussian_affine_bounds(m, None, np.zeros(m.d), 2.0, 5)
        assert "stationary_cov" not in vars(m) and "lambda_min" not in vars(m)
        # a bad argument is still reported before the tail's overflow
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            bnd.sliced_gauss_bounds(m, np.zeros(m.d), 2.0, 5, mode="bogus")
