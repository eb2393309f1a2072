import json
import math

import numpy as np
import pytest

from scipy.special import gammaln, hyp1f1

from ergobound.errors import EmptyCoefficients, MomentUnavailable, OrderViolation
from ergobound.linalg import eigen
from ergobound.model import (
    NoiseSpec,
    ar_state_space,
    arma_state_space,
    companion,
    model_digest,
    model_from_json,
    model_to_json,
    raw_model,
    validate_model,
)


class TestArConstruction:
    def test_scalar_model(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.gaussian(0.0, 1.0))
        np.testing.assert_array_equal(m.Q, [[0.5]])
        np.testing.assert_array_equal(m.Sigma, [[1.0]])
        np.testing.assert_array_equal(m.noise.direction, [1.0])

    def test_companion_shape(self):
        m = ar_state_space([1.2, -0.5], [0.0])
        np.testing.assert_array_equal(m.Q, [[1.2, -0.5], [1.0, 0.0]])
        np.testing.assert_array_equal(m.Sigma, np.diag([1.0, 0.0]))

    def test_nilpotent(self):
        m = ar_state_space([0.0, 0.0, 0.0], [0.0, 0.0])
        assert eigen(m.Q).spectral_radius == 0.0

    def test_diagonal_weights(self):
        m = ar_state_space([0.3, 0.2, 0.1], [0.5, 0.25])
        np.testing.assert_array_equal(np.diag(m.Sigma), [1.0, 0.5, 0.25])
        # weights are inert: the lifted noise only feeds coordinate one
        np.testing.assert_array_equal(m.Sigma @ m.noise.direction, [1.0, 0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(EmptyCoefficients):
            ar_state_space([])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ar_state_space([0.5, 0.1], [-1.0])


class TestArmaConstruction:
    def test_enhanced_1_1(self):
        m = arma_state_space([0.5], [0.3])
        np.testing.assert_array_equal(m.Q, [[0.5, 0.3], [0.0, 0.0]])
        np.testing.assert_array_equal(np.diag(m.Sigma), [1.0, 1.0])
        np.testing.assert_array_equal(m.noise.direction, [1.0, 1.0])

    def test_eigenvalues_are_companion_plus_zeros(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, p + 1))
            phi = rng.uniform(-0.6, 0.6, size=p)
            theta = rng.uniform(-1, 1, size=q)
            m = arma_state_space(phi, theta)
            got = np.sort_complex(eigen(m.Q).eigenvalues)
            want = np.sort_complex(
                np.concatenate([eigen(companion(phi)).eigenvalues, np.zeros(q)])
            )
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_zero_theta_matches_ar_verdict(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            phi = rng.uniform(-1.2, 1.2, size=3)
            rho_ar = eigen(companion(phi)).spectral_radius
            rho_arma = eigen(arma_state_space(phi, [0.0, 0.0]).Q).spectral_radius
            assert (rho_ar < 1) == (rho_arma < 1)
            assert rho_arma == pytest.approx(rho_ar, abs=1e-9)

    def test_recursion_matches_scalar_arma(self):
        # state-space path reproduces Y_t = sum phi Y + eps_t + sum theta eps
        rng = np.random.default_rng(2)
        phi, theta = [0.4, -0.3], [0.5, 0.2]
        m = arma_state_space(phi, theta)
        eps = rng.standard_normal(50)
        X = np.zeros(m.d)
        ys, es = [0.0, 0.0], [0.0, 0.0]
        for t in range(50):
            X = m.Q @ X + m.Sigma @ (eps[t] * m.noise.direction)
            y = phi[0] * ys[-1] + phi[1] * ys[-2] + eps[t] + theta[0] * es[-1] + theta[1] * es[-2]
            ys.append(y)
            es.append(eps[t])
            assert X[0] == pytest.approx(y, abs=1e-12)

    def test_order_violations(self):
        with pytest.raises(OrderViolation):
            arma_state_space([0.5], [0.1, 0.2])
        with pytest.raises(OrderViolation):
            arma_state_space([0.5], [])


class TestCharPoly:
    def test_companion_eigenvalues_match_polynomial_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            phi = rng.uniform(-1, 1, size=p)
            got = np.sort_complex(eigen(companion(phi)).eigenvalues)
            want = np.sort_complex(np.roots(np.concatenate([[1.0], -phi])))
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestValidateModel:
    def test_stable_gaussian_all_applicable(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.gaussian(0.0, 1.0))
        diag = validate_model(m, 2.0)
        assert diag.stable and diag.moment_ok and diag.gaussian_applicable
        assert diag.lambda_minus == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_student_t_moment_flag(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.student_t(1.5, 1.0))
        diag = validate_model(m, 2.0)
        assert not diag.moment_ok
        assert "MomentUnavailable" in diag.flags

    def test_unstable_verdict(self):
        # quadratic-formula root of z^2 - 1.5 z - 0.8: (1.5 + sqrt(2.25 + 3.2)) / 2
        root = (1.5 + math.sqrt(1.5**2 + 4 * 0.8)) / 2
        m = ar_state_space([1.5, 0.8], [0.0])
        diag = validate_model(m, 2.0)
        assert not diag.stable
        assert diag.spectral_radius == pytest.approx(root, abs=1e-9)


class TestOwnedArrays:
    def test_matrices_are_read_only_copies(self):
        Q, Sigma = np.array([[0.5, 0.1], [0.0, 0.3]]), np.eye(2)
        m = raw_model(Q, Sigma, NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        with pytest.raises(ValueError):
            m.Q[0, 0] = 0.9
        with pytest.raises(ValueError):
            m.Sigma[1, 1] = 2.0
        Q[0, 0] = 0.9  # the caller's array is not the model's
        assert m.Q[0, 0] == 0.5

    def test_cached_arrays_are_read_only(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(1.0, 1.0))
        for a in (m.noise_cov, m.stationary_mean, m.stationary_cov,
                  m.spectrum.eigenvector_matrix, m.star.U):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert m.stationary_cov is m.stationary_cov

    def test_noise_arrays_are_read_only_copies(self):
        mean = np.array([1.0, 0.0])
        m = raw_model(0.5 * np.eye(2), np.eye(2), NoiseSpec.gaussian_d(mean, np.eye(2)))
        before = m.stationary_mean.copy()
        mean[0] = 5.0  # the caller's array is not the spec's
        np.testing.assert_array_equal(m.noise.params["mean"], [1.0, 0.0])
        np.testing.assert_array_equal(m.stationary_mean, before)
        with pytest.raises(ValueError):
            m.noise.params["cov"][0, 0] = 2.0

    def test_noise_params_mapping_is_read_only(self):
        m = raw_model(0.5 * np.eye(2), np.eye(2), NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        before = m.stationary_mean.copy()
        with pytest.raises(TypeError):
            m.noise.params["mean"] = np.array([5.0, 0.0])
        np.testing.assert_array_equal(m.stationary_mean, before)
        np.testing.assert_array_equal(m.noise.mean_vector(), before)


class TestNoiseSpec:
    def test_r_max(self):
        assert NoiseSpec.gaussian(0, 1).r_max == math.inf
        assert NoiseSpec.laplace(0, 1).r_max == math.inf
        assert NoiseSpec.uniform(1).r_max == math.inf
        assert NoiseSpec.point_mass(2).r_max == math.inf
        assert NoiseSpec.student_t(2.5, 1).r_max == 2.5
        assert not NoiseSpec.student_t(2.0, 1).has_moment(2.0)

    def test_scalar_moments_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        n = 400_000
        cases = [
            (NoiseSpec.gaussian(0.7, 2.0), 0.7 + math.sqrt(2.0) * rng.standard_normal(n)),
            (NoiseSpec.laplace(0.4, 1.3), 0.4 + rng.laplace(0.0, 1.3, size=n)),
            (NoiseSpec.uniform(2.0), rng.uniform(-2.0, 2.0, size=n)),
            (NoiseSpec.student_t(5.0, 1.5), 1.5 * rng.standard_t(5.0, size=n)),
        ]
        for spec, draws in cases:
            for p in (1.0, 2.0, 3.0):
                if not spec.has_moment(p + 1):
                    continue
                vals = np.abs(draws) ** p
                se = vals.std(ddof=1) / math.sqrt(n)
                assert spec.scalar_abs_moment(p) == pytest.approx(vals.mean(), abs=4 * se)

    def test_gaussian_centered_closed_form(self):
        # E|Z| = sqrt(2/pi)
        assert NoiseSpec.gaussian(0.0, 1.0).scalar_abs_moment(1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-12
        )

    def test_sigma_moment_rank_one_exact(self):
        m = ar_state_space([0.3, 0.2], [0.0], NoiseSpec.laplace(0.0, 1.7))
        val, se = m.noise.abs_moment_sigma(m.Sigma, 1.0)
        assert se == 0.0
        assert val == pytest.approx(1.7, rel=1e-12)  # E|eps| = scale; |Sigma e1| = 1

    def test_sigma_moment_p2_closed_form(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=3)
        M = rng.standard_normal((3, 3))
        cov = M @ M.T
        spec = NoiseSpec.gaussian_d(mean, cov)
        Sigma = rng.standard_normal((3, 3))
        val, se = spec.abs_moment_sigma(Sigma, 2.0)
        assert se == 0.0
        want = np.linalg.norm(Sigma @ mean) ** 2 + np.trace(Sigma @ cov @ Sigma.T)
        assert val == pytest.approx(want, rel=1e-12)

    def test_sigma_moment_mc_route(self):
        spec = NoiseSpec.laplace_d(np.zeros(2), np.array([1.0, 2.0]))
        val, se = spec.abs_moment_sigma(np.eye(2), 3.0, mc_draws=200_000, seed=1)
        assert se > 0.0
        # independent oracle with a different seed
        rng = np.random.default_rng(99)
        draws = rng.laplace(0.0, [1.0, 2.0], size=(200_000, 2))
        vals = np.linalg.norm(draws, axis=1) ** 3
        assert val == pytest.approx(vals.mean(), abs=4 * (se + vals.std() / math.sqrt(len(vals))))

    def test_sigma_moment_mc_route_streams_one_draw(self):
        # chunked draws from one generator equal a single draw of all rows
        n = 150_000
        Sigma = np.array([[1.0, 0.4], [0.0, 0.7]])
        for spec in (
            NoiseSpec.laplace_d(np.array([0.3, 0.0]), np.array([1.0, 2.0])),
            NoiseSpec.student_t_d(4.5, np.array([1.0, 0.5])),
            NoiseSpec.uniform_d(np.array([1.0, 3.0])),
            NoiseSpec.gaussian_d([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
        ):
            # p = 1 is exact for Gaussian noise; p = 3 is Monte Carlo for all
            for p in (1.0, 3.0) if spec.family != "gaussian" else (3.0,):
                val, se = spec.abs_moment_sigma(Sigma, p, mc_draws=n, seed=4)
                rng = np.random.default_rng([4, 0x5E1C])
                vals = np.linalg.norm(spec.sampler()(rng, n) @ Sigma.T, axis=1) ** p
                assert val == pytest.approx(vals.mean(), rel=1e-12)
                assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-9)

    def test_scalar_gaussian_with_mean_exact(self):
        # 40-digit references by adaptive quadrature of |m + sd z|^p phi(z)
        for mean, var, p, want in (
            (0.7, 2.0, 1.0, 1.2638511496382269064),
            (0.7, 2.0, 1.5, 1.7095279287498854813),
            (-3.0, 0.25, 1.0, 3.0000000001563569796),
            (0.7, 2.0, 3.0, 6.2058265368628731149),
        ):
            got = NoiseSpec.gaussian(mean, var).scalar_abs_moment(p)
            assert got == pytest.approx(want, rel=1e-14)
        assert NoiseSpec.gaussian(-2.5, 0.0).scalar_abs_moment(1.5) == 2.5**1.5

    def test_student_t_moment_guard(self):
        with pytest.raises(MomentUnavailable):
            NoiseSpec.student_t(1.5, 1.0).scalar_abs_moment(2.0)

    def test_mean_and_covariance_of_lifted(self):
        spec = NoiseSpec.gaussian(0.5, 2.0).lift([1.0, 0.0, 1.0])
        np.testing.assert_allclose(spec.mean_vector(), [0.5, 0.0, 0.5])
        u = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(spec.covariance(), 2.0 * np.outer(u, u))


class TestGaussianVectorMoments:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_isotropic_centered_chi(self, d, p):
        sigma = 1.7
        spec = NoiseSpec.gaussian_d(np.zeros(d), sigma**2 * np.eye(d))
        val, se = spec.abs_moment_sigma(np.eye(d), p)
        want = sigma**p * math.exp((p / 2) * math.log(2) + gammaln((d + p) / 2) - gammaln(d / 2))
        assert se == 0.0
        assert val == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mean", [0.3, -1.0, 4.0])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_one_dimensional_with_mean(self, mean, p):
        var = 0.8
        spec = NoiseSpec.gaussian_d([mean], [[var]])
        val, _ = spec.abs_moment_sigma(np.eye(1), p)
        want = (
            var ** (p / 2)
            * 2 ** (p / 2)
            * math.gamma((p + 1) / 2)
            / math.sqrt(math.pi)
            * hyp1f1(-p / 2, 0.5, -(mean**2) / (2 * var))
        )
        assert val == pytest.approx(want, rel=1e-10)

    def test_anisotropic_non_centered_against_monte_carlo(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((3, 3))
        cov = M @ M.T + 0.1 * np.eye(3)
        mean = 2.0 * rng.normal(size=3)
        Sigma = rng.standard_normal((3, 3))
        spec = NoiseSpec.gaussian_d(mean, cov)
        n = 400_000
        ys = np.linalg.norm(rng.multivariate_normal(mean, cov, size=n) @ Sigma.T, axis=1)
        for p in (1.0, 1.5):
            val, se = spec.abs_moment_sigma(Sigma, p)
            assert se == 0.0
            vals = ys**p
            assert val == pytest.approx(vals.mean(), abs=4 * vals.std(ddof=1) / math.sqrt(n))

    def test_rank_deficient_sigma(self):
        spec = NoiseSpec.gaussian_d(np.zeros(3), np.eye(3))
        val, se = spec.abs_moment_sigma(np.diag([2.0, 0.0, 0.0]), 1.0)
        assert se == 0.0
        assert val == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
        # only the mean survives: |Sigma mean| exactly
        spec = NoiseSpec.gaussian_d([3.0, 4.0], [[0.0, 0.0], [0.0, 1.0]])
        val, _ = spec.abs_moment_sigma(np.diag([1.0, 0.0]), 1.5)
        assert val == pytest.approx(3.0**1.5, rel=1e-12)

    def test_zero_mean_zero_covariance(self):
        spec = NoiseSpec.gaussian_d(np.zeros(2), np.zeros((2, 2)))
        assert spec.abs_moment_sigma(np.eye(2), 1.0) == (0.0, 0.0)

    def test_stderr_zero_below_two_positive_above(self):
        spec = NoiseSpec.gaussian_d([0.5, 0.0], [[1.0, 0.2], [0.2, 0.5]])
        for p in (1.0, 1.5, 1.99):
            assert spec.abs_moment_sigma(np.eye(2), p)[1] == 0.0
        assert spec.abs_moment_sigma(np.eye(2), 3.0, mc_draws=10_000)[1] > 0.0


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            ar_state_space([0.5], noise1d=NoiseSpec.gaussian(0.0, 1.0)),
            ar_state_space([1.2, -0.5], [0.25], NoiseSpec.laplace(0.1, 2.0)),
            arma_state_space([0.4, -0.3], [0.5], NoiseSpec.student_t(3.0, 1.0)),
            raw_model(
                np.array([[0.1, 0.2], [0.0, 0.3]]),
                np.eye(2),
                NoiseSpec.gaussian_d([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]]),
            ),
            ar_state_space([0.2, 0.1, 0.05], None, NoiseSpec.uniform(0.7)),
            ar_state_space([0.9], noise1d=NoiseSpec.point_mass(0.3)),
        ],
    )
    def test_round_trip_bit_exact(self, model):
        blob = json.dumps(model_to_json(model))
        back = model_from_json(json.loads(blob))
        np.testing.assert_array_equal(back.Q, model.Q)
        np.testing.assert_array_equal(back.Sigma, model.Sigma)
        assert back.noise.to_json() == model.noise.to_json()
        assert back.provenance == model.provenance
        assert model_digest(back) == model_digest(model)
