import math

import numpy as np
import pytest

from ergobound import bounds as bnd
from ergobound.errors import (
    MomentUnavailable,
    NotDiagonalizable,
    NotPSD,
    NotSchurStable,
)
from ergobound.linalg import build_star_norm, eigen, psd_sqrt
from ergobound.model import NoiseSpec, ar_state_space, raw_model, validate_model
from ergobound.wasserstein import GaussianLaw, gaussian_w2


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
        assert a.details["upper_final"] == pytest.approx(b.upper, rel=1e-12)

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
        assert rep.details["upper_middle"] <= rep.details["upper_final"] * (1 + 1e-12)
        assert rep.upper == pytest.approx(rep.details["upper_middle"])

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
        assert rep.details["upper_b"] == pytest.approx(0.5 + 0.125 / math.sqrt(0.75), rel=1e-12)
        assert rep.lower == pytest.approx(0.5, abs=1e-12)

    def test_point_mass_zero_noise(self):
        m = ar_state_space([0.4, 0.2], [0.0], NoiseSpec.point_mass(0.0))
        for t in (0, 1, 4):
            rep = bnd.generic_bounds(m, [1.0, -1.0], 2.0, t)
            qtx = np.linalg.norm(np.linalg.matrix_power(m.Q, t) @ [1.0, -1.0])
            assert rep.lower == pytest.approx(qtx, rel=1e-12, abs=1e-14)
            assert rep.details["upper_b"] == pytest.approx(qtx, rel=1e-12, abs=1e-14)

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
        assert not bnd.generic_bounds(shifted, [1.0], 2.0, 1).details["coupling_regime_sound"]
        assert not bnd.generic_bounds(shifted, [1.0], 1.0, 1).details["coupling_regime_sound"]
        assert not bnd.generic_bounds(centered, [1.0], 3.0, 1).details["coupling_regime_sound"]
        # the noise tail starts one step past t, so t = 0 is not covered
        assert not bnd.generic_bounds(centered, [1.0], 2.0, 0).details["coupling_regime_sound"]

    def test_mean_dominated_noise_breaks_coupling_upper(self):
        # regression pin for the known limitation that the flag reports: with
        # noise dominated by its mean, the evaluated tail (which starts one
        # step past t) undershoots the exact order-1 distance
        from ergobound.wasserstein import gaussian_wr_1d

        m = ar_state_space([0.9], noise1d=NoiseSpec.gaussian(3.0, 0.01))
        star = build_star_norm(m.Q)
        linf = bnd.stationary_law(m)
        rep = bnd.generic_bounds(m, [0.0], 1.0, 5, star)
        assert not rep.details["coupling_regime_sound"]
        lt = bnd.law_at(m, [0.0], 5)
        w1 = gaussian_wr_1d(
            lt.mean[0], math.sqrt(lt.cov[0, 0]), linf.mean[0], math.sqrt(linf.cov[0, 0]), 1.0
        )
        assert w1 > rep.upper  # the documented undershoot
        assert rep.lower <= w1 * (1 + 1e-9)  # the lower bound stays valid


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
            assert rep.details["upper_b"] == pytest.approx(qtx * 2 / math.pi, rel=1e-12, abs=1e-14)

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
        assert rep.details["tensorized_w2"] == pytest.approx(1.0, abs=1e-14)
        assert bnd.parallel_bounds(per, 4, 2.0).details["tensorized_w2"] == pytest.approx(
            2.0 * per.upper, rel=1e-14
        )

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
        assert rep.details["tensorized_w2"] == pytest.approx(joint, rel=1e-10)

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
        exact = [r.details["upper_b_exact_n"] for r in reps]
        assert exact[0] > exact[1] > exact[2]
        # covariance of the average is Xi / n: noise tail shrinks like 1/sqrt(n)
        tail0 = exact[0] - reps[0].mean_part
        tail2 = exact[2] - reps[2].mean_part
        assert tail2 == pytest.approx(tail0 / 4.0, rel=1e-9)


class TestReport:
    @pytest.mark.parametrize(
        "flavor", ["generic", "generic_diag", "sliced_generic", "empirical_mean"]
    )
    def test_coupling_call_solves_no_stationary_covariance(self, count_calls, flavor):
        solves = count_calls("stationary_covariance")
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        rep = bnd.report(m, flavor, [1.0, 0.0], 1.5, 4, n_copies=3)
        assert rep.lower <= rep.upper
        assert bnd.generic_bounds(m, [1.0, 0.0], 1.5, 4).flavor == "generic"
        assert solves == []

    def test_model_level_problems_solved_once_per_model(self, count_calls):
        # the per-t public calls read the model's stationary law, spectrum
        # and default star norm, so a longer sweep solves nothing more
        names = ("stationary_covariance", "build_star_norm", "eigen")

        def sweep_counts(t_max):
            counts = {name: count_calls(name) for name in names}
            m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
            x, v = [1.0, -0.5], [0.6, 0.8]
            for t in range(t_max + 1):
                bnd.gaussian_affine_bounds(m, np.eye(2), x, 1.5, t)
                bnd.projected_bounds(m, v, x, 1.5, t)
                bnd.sliced_gauss_bounds(m, x, 1.5, t)
                bnd.generic_bounds(m, x, 1.5, t)
                bnd.diagonalizable_bounds(m, x, 1.5, t)
                bnd.sliced_generic_bounds(m, x, 1.5, t)
                bnd.empirical_mean_bounds(m, 3, x, 1.5, t)
                bnd.stationary_law(m)
                validate_model(m, 2.0)
            return {name: len(calls) for name, calls in counts.items()}

        one, eleven = sweep_counts(0), sweep_counts(10)
        assert one == eleven
        assert one["stationary_covariance"] == 1 and one["build_star_norm"] == 1

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
