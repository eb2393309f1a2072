import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.integrate import quad
from scipy.special import gammaln, hyp1f1

import ergobound
from ergobound.errors import (EmptyCoefficients, MomentUnavailable, NotPSD, NotSymmetric,
                              OrderViolation)
from ergobound.linalg import eigen
from ergobound.model import (
    _GAUSS_LEGENDRE,
    NoiseSpec,
    _gauss_norm_moment,
    _laplace_abs_moment,
    _student_abs_moment,
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

    def test_singular_stationary_covariance_flag(self):
        # noise enters one coordinate of a diagonal Q, so the stationary covariance is
        # diag(1 / (1 - 0.25), 0)
        m = raw_model(np.diag([0.5, 0.3]), np.diag([1.0, 0.0]),
                      NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        diag = validate_model(m, 2.0)
        assert diag.stable and diag.moment_ok and not diag.gaussian_applicable
        assert diag.flags == ("SingularStationaryCovariance",)
        assert diag.lambda_minus == pytest.approx(0.0, abs=1e-15)

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError, match="order r must be finite and at least 1"):
            validate_model(ar_state_space([0.5]), math.nan)

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
                  m.spectrum.eigenvector_matrix, m.star.U, m.schur.Delta):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert m.stationary_cov is m.stationary_cov
        assert m.star.U is m.schur.U  # the star norm is built on the model's one Schur form

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

    def test_scalar_gaussian_far_from_zero(self):
        # scipy's Kummer function is NaN at arguments past 1e19 for even orders
        for p in (1.0, 3.0, 4.0, 8.0):
            assert NoiseSpec.gaussian(1.0, 1e-32).scalar_abs_moment(p) == 1.0
            assert NoiseSpec.gaussian(-2.0, 1e-20).scalar_abs_moment(p) == 2.0**p

    def test_student_t_moment_guard(self):
        with pytest.raises(MomentUnavailable):
            NoiseSpec.student_t(1.5, 1.0).scalar_abs_moment(2.0)

    @pytest.mark.parametrize("make, error", [
        (lambda: NoiseSpec.laplace_d([0, 0], [-1, 1]), ValueError),
        (lambda: NoiseSpec.laplace_d([0, 0], [1, 1, 1]), ValueError),
        (lambda: NoiseSpec.laplace(0.0, -1.0), ValueError),
        (lambda: NoiseSpec.student_t_d(0.0, [1, 1]), ValueError),
        (lambda: NoiseSpec.student_t_d(3.0, [1, -1]), ValueError),
        (lambda: NoiseSpec.student_t(-1.0, 1.0), ValueError),
        (lambda: NoiseSpec.uniform_d([-1, 1]), ValueError),
        (lambda: NoiseSpec.uniform(-1.0), ValueError),
        (lambda: NoiseSpec.gaussian(0.0, -1.0), ValueError),
        (lambda: NoiseSpec.gaussian_d([0, 0, 0], np.eye(2)), ValueError),
        (lambda: NoiseSpec.gaussian_d([0, 0], [[1, 0], [0, -1]]), NotPSD),
        (lambda: NoiseSpec.gaussian_d([0, 0], [[1, 0.5], [0, 1]]), NotSymmetric),
        (lambda: NoiseSpec.point_mass_d([0, math.nan]), ValueError),
        (lambda: NoiseSpec.gaussian(0.0, 1.0).lift([1.0, math.inf]), ValueError),
        (lambda: NoiseSpec.from_json({"family": "laplace", "params": {"loc": 0.0}}), ValueError),
        (lambda: NoiseSpec.from_json({"family": "gaussian", "params": {"mean": 0.0, "cov": [1.0]}}),
         ValueError),
        (lambda: NoiseSpec.from_json({"family": "cauchy", "params": {"scale": 1.0}}), ValueError),
    ], ids=["laplace_d_scale", "laplace_d_length", "laplace_scale", "student_t_d_df",
            "student_t_d_scale", "student_t_df", "uniform_d", "uniform", "gaussian_var",
            "gaussian_d_shape", "gaussian_d_not_psd", "gaussian_d_not_symmetric",
            "point_mass_d_nan", "lift_inf", "json_missing_scale", "json_scalar_mean",
            "json_family"])
    def test_bad_parameters_raise(self, make, error):
        # one check for both layouts and every way in
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize("scalar, vector, wide", [
        (NoiseSpec.gaussian(0.5, 2.0), NoiseSpec.gaussian_d([0.5], [[2.0]]),
         NoiseSpec.gaussian_d([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])),
        (NoiseSpec.laplace(0.4, 1.3), NoiseSpec.laplace_d([0.4], [1.3]),
         NoiseSpec.laplace_d([0.4, -0.2], [1.3, 0.5])),
        (NoiseSpec.student_t(4.5, 0.7), NoiseSpec.student_t_d(4.5, [0.7]),
         NoiseSpec.student_t_d(4.5, [0.7, 2.0])),
        (NoiseSpec.uniform(1.7), NoiseSpec.uniform_d([1.7]), NoiseSpec.uniform_d([1.7, 0.2])),
        (NoiseSpec.point_mass(-0.3), NoiseSpec.point_mass_d([-0.3]),
         NoiseSpec.point_mass_d([-0.3, 0.9])),
    ], ids=["gaussian", "laplace", "student_t", "uniform", "point_mass"])
    def test_one_formula_for_both_layouts(self, scalar, vector, wide):
        lifted = scalar.lift([1.0])
        assert lifted.is_scalar_driven and not vector.is_scalar_driven
        assert lifted.mean_vector().tobytes() == vector.mean_vector().tobytes()
        assert lifted.covariance().tobytes() == vector.covariance().tobytes()
        draws = [s.sampler()(np.random.default_rng(8), 1000) for s in (lifted, vector)]
        assert draws[0].shape == draws[1].shape == (1000, 1)
        assert draws[0].tobytes() == draws[1].tobytes()
        # the moments too, exact: one driver reaches the state, here the first of a d = 2
        # spec whose Sigma has one nonzero column, the same column as the lift's direction
        pairs = [((lifted, [[0.7]]), (vector, [[0.7]])),
                 ((scalar.lift([0.7, -0.2]), np.eye(2)), (wide, [[0.7, 0.0], [-0.2, 0.0]]))]
        for p in (1.0, 1.5, 3.0):
            for (a, Sa), (b, Sb) in pairs:
                got, want = b.abs_moment_sigma(Sb, p), a.abs_moment_sigma(Sa, p)
                assert want[1] == 0.0 and np.array(got).tobytes() == np.array(want).tobytes(), p

    @pytest.mark.parametrize("spec", [
        NoiseSpec.gaussian(0.5, 2.0).lift([1.0, -0.5]),
        NoiseSpec.laplace(0.4, 1.3).lift([1.0, -0.5]),
        NoiseSpec.student_t(6.0, 1.5).lift([1.0, -0.5]),
        NoiseSpec.uniform(2.0).lift([1.0, -0.5]),
        NoiseSpec.point_mass(0.7).lift([1.0, -0.5]),
        NoiseSpec.gaussian_d([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
        NoiseSpec.laplace_d([0.4, -0.2], [1.3, 0.5]),
        NoiseSpec.student_t_d(6.0, [1.5, 0.5]),
        NoiseSpec.uniform_d([2.0, 0.5]),
        NoiseSpec.point_mass_d([0.7, -0.3]),
    ], ids=lambda s: f"{s.family}-{'scalar' if s.is_scalar_driven else 'vector'}")
    def test_draws_match_stated_mean_and_covariance(self, spec):
        # the noise is the drivers times the loading: one driver per draw when scalar-driven
        n = 200_000
        eta = spec.sampler()(np.random.default_rng(31), n)
        k = 1 if spec.is_scalar_driven else 2
        assert eta.shape == (n, k) and spec.loading.shape == (k, 2)
        x = eta @ spec.loading
        mean = x.mean(axis=0)
        prods = (x - mean)[:, :, None] * (x - mean)[:, None, :]
        for got, want in ((x, spec.mean_vector()), (prods, spec.covariance())):
            five_se = 5 * got.std(axis=0, ddof=1) / math.sqrt(n) + 1e-10  # + summation rounding
            assert np.all(np.abs(got.mean(axis=0) - want) <= five_se), (got.mean(axis=0), want)

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
        # exact below 2 and at 2, a proven upper bound above: no route has a standard error
        spec = NoiseSpec.gaussian_d([0.5, 0.0], [[1.0, 0.2], [0.2, 0.5]])
        for p in (1.0, 1.5, 1.99, 2.0, 3.0):
            assert spec.abs_moment_sigma(np.eye(2), p)[1] == 0.0


def quad_gauss_norm_moment(mu, S, p):
    """Test-only oracle for ``E|Y|**p``, ``Y ~ N(mu, S)``: QUADPACK on the same
    Laplace-transform integral, the head ``[0, 1]`` with the algebraic weight
    ``u**-s`` and the tail in ``x = ln u`` over ``[0, 200]``, split where each
    ``1 + 2 u lam_i`` turns so that no feature hides between samples."""
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam = np.clip(lam, 0.0, None)
    nu2 = (V.T @ mu) ** 2
    c = lam.sum() + nu2.sum()
    lam, nu2, s = lam / c, nu2 / c, p / 2.0

    def log_laplace(u):
        return -0.5 * np.log1p(2.0 * u * lam).sum() - (u * nu2 / (1.0 + 2.0 * u * lam)).sum()

    def head(u):
        return -math.expm1(log_laplace(u)) / u if u > 0.0 else 1.0

    tight = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    integral = quad(head, 0.0, 1.0, weight="alg", wvar=(-s, 0.0), **tight)[0] + 1.0 / s
    turns = sorted(x for x in -np.log(2.0 * lam[lam > 0.0]) if 0.0 < x < 200.0)
    for a, b in itertools.pairwise([0.0, *turns, 200.0]):
        integral -= quad(lambda x: math.exp(log_laplace(math.exp(x)) - s * x), a, b, **tight)[0]
    return c**s * s / math.gamma(1.0 - s) * integral


def quad_laplace_abs_moment(loc, scale, p):
    """Test-only oracle for ``E|loc + L|**p``: QUADPACK on the density, split at
    ``0`` and ``-loc``, with the ``|loc + x|**p`` cusp as an algebraic weight."""
    lo, hi = min(0.0, -loc) - 80.0 * scale, max(0.0, -loc) + 80.0 * scale
    total = 0.0
    for a, b in itertools.pairwise([lo, *sorted((0.0, -loc)), hi]):
        if -loc in (a, b):
            kw = dict(weight="alg", wvar=(p, 0.0) if a == -loc else (0.0, p))

            def f(x):
                return math.exp(-abs(x) / scale) / (2.0 * scale)
        else:
            kw = {}

            def f(x):
                return abs(loc + x) ** p * math.exp(-abs(x) / scale) / (2.0 * scale)
        total += quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400, **kw)[0]
    return total


class TestMomentQuadrature:
    def test_import_leaves_out_integrate_and_optimize(self):
        # a subprocess: pytest's own warning filter imports scipy.integrate here
        code = (
            "import sys, ergobound, ergobound.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        src = str(Path(ergobound.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("rule, n", zip(_GAUSS_LEGENDRE, (16, 8)))
    def test_gauss_legendre_literals_are_leggauss(self, rule, n):
        for got, want in zip(rule, np.polynomial.legendre.leggauss(n)):
            assert got.tobytes() == want.tobytes()

    def test_seeded_battery_against_quadpack(self):
        # ill-conditioned, rank-deficient and far-from-centered covariances
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(150):
            d = int(rng.integers(1, 12))
            p = float(rng.uniform(0.02, 1.99))
            V, _ = np.linalg.qr(rng.standard_normal((d, d)))
            lam = np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 14.0), d) * 10.0 ** rng.uniform(-5, 5)
            if d > 1 and rng.random() < 0.2:
                lam[: int(rng.integers(1, d))] = 0.0
            mu = rng.standard_normal(d) * (10.0 ** rng.uniform(-6, 4) if rng.random() < 0.7 else 0.0)
            S = (V * lam) @ V.T
            want = quad_gauss_norm_moment(mu, S, p)
            worst = max(worst, abs(_gauss_norm_moment(mu, S, p) - want) / want)
        assert worst <= 1e-9

    def test_near_singular_centered_against_mpmath(self):
        # QUADPACK on the old infinite-range tail was 9.9e-7 off here while
        # estimating 1e-10; 50 digits by mpmath of E R**(1/2) * E_theta
        # (lam1 cos^2 + lam2 sin^2)**(1/4) for the polar form of Y
        got = _gauss_norm_moment(np.zeros(2), np.diag([9.9e-3, 1.5e-10]), 0.5)
        assert got == pytest.approx(0.25934363044608565957352548859499203155824644393169, rel=1e-14)

    @pytest.mark.parametrize("loc", [0.4, -1.3, 5.0, 30.0, -200.0])
    @pytest.mark.parametrize("p", [0.02, 0.5, 1.0, 1.5, 3.0])
    def test_laplace_with_location_against_quadpack(self, loc, p):
        for scale in (1.0, 0.3):
            want = quad_laplace_abs_moment(loc, scale, p)
            assert _laplace_abs_moment(loc, scale, p) == pytest.approx(want, rel=1e-12)

    # (scale, even orders) at the locations where Kummer's function is NaN or
    # inexact, or where A**(p+1) overflows although the moment is finite; odd
    # orders expand the same way while loc + L stays positive
    EXTREME_LAPLACE = {1e12: (1.0, (12,)), 1e-300: (1.0, (12,)), 3e10: (1.0, (12,)),
                       -1e6: (0.01, (38,)), 1e6: (1.0, (51,))}

    @pytest.mark.parametrize("loc", [1e-6, -0.7, 3.0, 50.0, -200.0, 1e4, *EXTREME_LAPLACE])
    def test_laplace_integer_orders_closed_form(self, loc):
        # E|loc + L| = |loc| + scale e^(-|loc|/scale); even orders expand
        # (loc + L)**p with E L**k = k! scale**k for even k
        scale, orders = self.EXTREME_LAPLACE.get(loc, (1.3, (2, 4, 8)))
        want = abs(loc) + scale * math.exp(-abs(loc) / scale)
        assert _laplace_abs_moment(loc, scale, 1.0) == pytest.approx(want, rel=1e-13)
        for p in orders:
            want = sum(math.comb(p, k) * loc ** (p - k) * math.factorial(k) * scale**k
                       for k in range(0, p + 1, 2))
            assert _laplace_abs_moment(loc, scale, float(p)) == pytest.approx(want, rel=1e-13)


def majorant(spec, Sigma, p):
    """Test-side upper bound on ``E|Sigma xi|**p`` over the drivers ``eta_k`` with rows ``L_k``
    of ``Sigma xi = eta @ L``: Minkowski's ``(sum_k (E|eta_k|**p)**(1/p) |L_k|)**p`` (below
    ``p = 1``, ``sum_k E|eta_k|**p |L_k|**p``) and, at ``p < 2`` with a finite variance, no
    more than Lyapunov's ``(E|Sigma xi|**2)**(p/2)``."""
    prm, L = spec.params, (Sigma @ spec.loading.T).T
    one = {"gaussian": lambda k: NoiseSpec.gaussian(prm["mean"][k], prm["cov"][k, k]),
           "laplace": lambda k: NoiseSpec.laplace(prm["loc"][k], prm["scale"][k]),
           "student_t": lambda k: NoiseSpec.student_t(prm["df"], prm["scale"][k]),
           "uniform": lambda k: NoiseSpec.uniform(prm["half_width"][k]),
           "point_mass": lambda k: NoiseSpec.point_mass(prm["value"][k])}[spec.family]
    q = min(p, 1.0)
    bound = sum(one(k).scalar_abs_moment(p) ** (q / p) * np.linalg.norm(L[k]) ** q
                for k in range(len(L))) ** (p / q)
    if p < 2 and spec.has_moment(2.0):
        m = Sigma @ spec.mean_vector()
        bound = min(bound, (m @ m + np.trace(Sigma @ spec.covariance() @ Sigma.T)) ** (p / 2))
    return bound


class TestMomentMajorant:
    """Two or more drivers on a non-orthogonal ``Sigma``, or a location, or ``p > 2``: the
    moment is a proven upper bound, checked against seeded sampled estimates."""

    ROT = np.array([[1.0, 0.6, 0.2], [0.0, 0.8, -0.5], [0.3, 0.0, 1.1]])
    CASES = {
        "gaussian": (NoiseSpec.gaussian_d([0.5, -1.0, 0.2], [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                                              [0.1, -0.2, 0.5]]), ROT),
        "laplace": (NoiseSpec.laplace_d([0.7, 0.0, -0.3], [1.0, 0.5, 2.0]), ROT),
        "student_t": (NoiseSpec.student_t_d(5.0, [1.0, 0.5, 2.0]), ROT),
        "student_t_1.8": (NoiseSpec.student_t_d(1.8, [1.0, 0.5]), ROT[:2, :2]),
        "uniform": (NoiseSpec.uniform_d([1.0, 3.0]), ROT[:2, :2]),
        "point_mass": (NoiseSpec.point_mass_d([1.0, -2.0, 0.5]), ROT),
    }

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_at_least_a_sampled_estimate(self, name, p):
        spec, Sigma = self.CASES[name]
        if not spec.has_moment(p):  # Student-t at df 1.8 < p
            with pytest.raises(MomentUnavailable):
                spec.abs_moment_sigma(Sigma, p)
            return
        n = 400_000
        ys = spec.sampler()(np.random.default_rng(11), n) @ (Sigma @ spec.loading.T).T
        vals = np.linalg.norm(ys, axis=1) ** p
        val, se = spec.abs_moment_sigma(Sigma, p)
        assert se == 0.0
        # a point mass's estimate is exact but for its rounding
        assert val >= vals.mean() * (1.0 - 1e-12) - 4.0 * vals.std(ddof=1) / math.sqrt(n)
        assert val <= majorant(spec, Sigma, p) * (1.0 + 1e-14)

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_orders_at_most_zero_are_refused(self, p):
        # neither inequality holds there: at p = -0.5 Minkowski's sum fell below the moment
        spec, Sigma = self.CASES["laplace"]
        assert not spec.has_moment(p)
        with pytest.raises(MomentUnavailable, match=f"order {p} moment unavailable"):
            spec.abs_moment_sigma(Sigma, p)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_second_moment_is_the_closed_form(self, name):
        spec, Sigma = self.CASES[name]
        if not spec.has_moment(2.0):  # Student-t at df 1.8
            with pytest.raises(MomentUnavailable):
                spec.abs_moment_sigma(Sigma, 2.0)
            return
        m = Sigma @ spec.mean_vector()
        want = m @ m + np.trace(Sigma @ spec.covariance() @ Sigma.T)
        assert spec.abs_moment_sigma(Sigma, 2.0) == (pytest.approx(want, rel=1e-12), 0.0)


class TestIndependentCoordinateMoments:
    """``E|Sigma xi|**p`` of centered Laplace, Student-t and uniform noise, ``0 < p < 2``,
    for ``Sigma`` with orthogonal columns: one quadrature, no draws."""

    VECTOR = {
        "laplace": lambda scale: NoiseSpec.laplace_d(np.zeros(len(scale)), scale),
        "uniform": lambda scale: NoiseSpec.uniform_d(scale),
        "student_t": lambda scale, df=4.5: NoiseSpec.student_t_d(df, scale),
    }

    @pytest.mark.parametrize("p", [0.3, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_one_dimensional_closed_forms(self, p, scale):
        cases = [(NoiseSpec.laplace_d([0.0], [scale]), scale**p * math.gamma(p + 1.0)),
                 (NoiseSpec.uniform_d([scale]), scale**p / (p + 1.0))]
        cases += [(NoiseSpec.student_t_d(df, [scale]), scale**p * _student_abs_moment(df, p))
                  for df in (1.5, 2.05, 2.5, 4.5, 30.0, 1e4, 1e6) if p < df]
        for spec, want in cases:
            val, se = spec.abs_moment_sigma(np.eye(1), p)
            assert se == 0.0
            assert val == pytest.approx(want, rel=1e-12)

    # E (a**2 xi_1**2 + b**2 xi_2**2)**(p/2) at unit spread, by mpmath.  Laplace and
    # uniform: the double integral over the density in polar coordinates, radial part in
    # closed form (25 digits).  Student-t: the 1-D moments less s / Gamma(1 - s) times
    # int g_1 g_2 u**(-s-1) du, g_k = 1 - E exp(-u a_k**2 T**2) by mpmath.hyperu (30
    # digits); the polar double integral agrees to 1e-15 except at df 2.2, p 1.9, where
    # its angular quadrature lands 1.5e-6 off.  At df 1e4 (where mpmath.hyperu fails): the
    # trapezoid rule in ln V_1, ln V_2 over T_k = Z_k / sqrt(V_k), the Gaussian form given V in
    # closed form, (2 beta)**s Gamma(1 + s) 2F1(-s, 1/2; 1; 1 - alpha/beta), beta >= alpha
    # (13 digits; the same rule gives the df 30 moment to 1e-14)
    TWO_D = [
        ("laplace", (1.0, 0.3), 0.3, 0.96256364478484947029, 1e-12),
        ("laplace", (2.0, 1e-3), 0.3, 1.1049500512781670121, 1e-12),
        ("laplace", (1.0, 0.3), 1.0, 1.1173445510773961917, 1e-12),
        ("laplace", (2.0, 1e-3), 1.0, 2.0000036475234210005, 1e-12),
        ("laplace", (1.0, 0.3), 1.5, 1.4724441878596785832, 1e-12),
        ("laplace", (2.0, 1e-3), 1.5, 3.7599442541680007638, 1e-12),
        ("laplace", (1.0, 0.3), 1.9, 1.9985076181413167436, 1e-12),
        ("laplace", (2.0, 1e-3), 1.9, 6.8199322037587294856, 1e-12),
        ("uniform", (1.0, 0.3), 0.3, 0.80538400924869237311, 1e-12),
        ("uniform", (2.0, 1e-3), 0.3, 0.94704695229431023691, 1e-12),
        ("uniform", (1.0, 0.3), 1.0, 0.54105646824706432274, 1e-12),
        ("uniform", (2.0, 1e-3), 1.0, 1.0000007606152493488, 1e-12),
        ("uniform", (1.0, 0.3), 1.5, 0.43497514000139229637, 1e-12),
        ("uniform", (2.0, 1e-3), 1.5, 1.1313712002042813294, 1e-12),
        ("uniform", (1.0, 0.3), 1.9, 0.37569261854401125077, 1e-12),
        ("uniform", (2.0, 1e-3), 1.9, 1.2869423855541382079, 1e-12),
        (("student_t", 2.2), (1.0, 0.5), 0.3, 1.0681469295196679946, 1e-10),
        (("student_t", 2.2), (1.0, 0.5), 1.0, 1.6584069203137533725, 1e-10),
        (("student_t", 2.2), (1.0, 0.5), 1.9, 8.7221771720495309264, 1e-10),
        (("student_t", 4.5), (1.0, 0.5), 0.3, 1.0008543771614455039, 1e-10),
        (("student_t", 4.5), (1.0, 0.5), 1.0, 1.1938439356872206055, 1e-10),
        (("student_t", 4.5), (1.0, 0.5), 1.9, 2.0696318830806194677, 1e-10),
        (("student_t", 1e4), (1.0, 0.5), 0.3, 0.95211488202381, 1e-10),
        (("student_t", 1e4), (1.0, 0.5), 1.0, 0.96636023639310, 1e-10),
        (("student_t", 1e4), (1.0, 0.5), 1.9, 1.20601869412599, 1e-10),
    ]

    @pytest.mark.parametrize("family, ab, p, want, rel", TWO_D)
    def test_two_dimensional_against_mpmath(self, family, ab, p, want, rel):
        family, *df = family if isinstance(family, tuple) else (family,)
        # the scales as the noise's spread and as Sigma's columns give one moment
        for spec, Sigma in ((self.VECTOR[family](np.array(ab), *df), np.eye(2)),
                            (self.VECTOR[family](np.ones(2), *df), np.diag(ab))):
            val, se = spec.abs_moment_sigma(Sigma, p)
            assert se == 0.0
            assert val == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("family", sorted(VECTOR))
    def test_diagonal_sigma_is_scaled_noise(self, family):
        a, b = np.array([0.3, 2.0, 1e-2, 5.0]), np.array([1.5, 0.2, 40.0, 1.0])
        for p in (0.5, 1.0, 1.7):
            got, _ = self.VECTOR[family](b).abs_moment_sigma(np.diag(a), p)
            want, _ = self.VECTOR[family](a * b).abs_moment_sigma(np.eye(4), p)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("family", sorted(VECTOR))
    def test_zero_column(self, family):
        # only the first coordinate reaches Y = Sigma xi: its 1-D moment times 2**p
        spec = self.VECTOR[family](np.array([0.7, 1.3, 0.4]))
        Sigma = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        one = self.VECTOR[family](np.array([0.7]))
        for p in (0.5, 1.0, 1.5):
            val, se = spec.abs_moment_sigma(Sigma, p)
            assert se == 0.0
            assert val == pytest.approx(2.0**p * one.abs_moment_sigma(np.eye(1), p)[0], rel=1e-13)
        assert spec.abs_moment_sigma(np.zeros((3, 3)), 1.0) == (0.0, 0.0)

    def test_monte_carlo_only_off_the_exact_regime(self):
        # where the Monte Carlo estimate used to enter (p > 2, columns that are not exactly
        # orthogonal, a location), the moment is the majorant; on the exact regime it is not
        spec = NoiseSpec.student_t_d(3.0, [1.0, 2.0])
        # columns orthogonal to 1e-12: far inside any tolerance, yet far above the rounding
        # of every BLAS kernel's product, so the exact route, which takes no tolerance, is off
        rotation = np.array([[math.cos(0.7), -math.sin(0.7 + 1e-12)],
                             [math.sin(0.7), math.cos(0.7 + 1e-12)]])
        assert not np.array_equal(rotation.T @ rotation, np.diag(np.diag(rotation.T @ rotation)))
        shifted = NoiseSpec.laplace_d([0.5, 0.0], [1.0, 1.0])
        for noise, Sigma, p in ((spec, np.eye(2), 2.5), (spec, rotation, 1.0),
                                (shifted, np.eye(2), 1.0)):
            val, se = noise.abs_moment_sigma(Sigma, p)
            assert se == 0.0 and val == pytest.approx(majorant(noise, Sigma, p), rel=1e-14)
        assert spec.abs_moment_sigma(np.eye(2), 1.0)[0] < 0.9 * majorant(spec, np.eye(2), 1.0)

    def test_exact_moments_ignore_draws_and_seed(self, count_calls):
        # a moment takes no draw count and no seed, opens no stream and is kept per (Sigma, p)
        draws = count_calls("stream_rng")
        spec = NoiseSpec.uniform_d([1.0, 2.0])
        first = spec.abs_moment_sigma(np.eye(2), 1.0)
        assert spec.abs_moment_sigma(np.eye(2), 1.0) is first and draws == []
        with pytest.raises(TypeError):
            spec.abs_moment_sigma(np.eye(2), 1.0, seed=1)

    def test_coupling_sweeps_draw_nothing(self, count_calls):
        from ergobound import bounds as bnd

        draws = count_calls("stream_rng")
        rng = np.random.default_rng(7)
        for k, family in enumerate(("laplace", "student_t", "uniform") * 2):
            # model_scan's raw models: non-normal Q, spectral radius in [0.95, 0.995]
            d = 2 + k % 3
            lam = rng.uniform(0.95, 0.995, d) * rng.choice([-1.0, 1.0], d)
            O, _ = np.linalg.qr(rng.standard_normal((d, d)))
            Q = O @ (np.diag(lam) + np.triu(rng.uniform(1.0, 3.0, (d, d)), 1)) @ O.T
            scale = rng.uniform(0.5, 1.5, d)
            noise = {"laplace": lambda: NoiseSpec.laplace_d(np.zeros(d), scale),
                     "student_t": lambda: NoiseSpec.student_t_d(2.0 + rng.uniform(0.05, 0.5), scale),
                     "uniform": lambda: NoiseSpec.uniform_d(scale)}[family]()
            m = raw_model(Q, np.eye(d), noise)
            for flavor in ("generic", "generic_diag", "sliced_generic", "parallel",
                           "empirical_mean"):
                for r in (1.0, 1.5, 2.0):
                    bnd.sweep(m, flavor, rng.normal(size=d), r, range(11), n_copies=4)
            # the kept moments the sweeps read are exact: below the majorant
            for p in (1.0, 1.5):
                assert m.noise.abs_moment_sigma(m.Sigma, p)[0] < majorant(m.noise, m.Sigma, p)
        assert draws == []


def mpmath_laplace_abs_moment(loc, scale, p):
    """Test-only 50-digit oracle for ``E|loc + L|**p``: mpmath on the density, split
    at ``0`` and ``-loc``."""
    import mpmath

    with mpmath.workdps(50):
        loc, scale, p = mpmath.mpf(loc), mpmath.mpf(scale), mpmath.mpf(p)
        cuts = sorted([mpmath.mpf(0), -loc])
        return mpmath.quad(lambda y: abs(loc + y) ** p * mpmath.exp(-abs(y) / scale) / (2 * scale),
                           [-mpmath.inf, *cuts, mpmath.inf])


class TestLaplaceHighOrders:
    # the far side's mass sits near z = p - |loc|/scale, past the old fixed reach
    # z = e^4.5 at order 30 (NonConvergence) and narrower than its panels at 51
    # near the top of the float range (A + z)**p overflows before e^-z scales it:
    # NonConvergence at (100, 1, 150), (100, 1, 140), (50, 1, 150), and inf at
    # (0.0217, 1.003, 124.26) although that moment is 7.6e207
    @pytest.mark.parametrize("loc, scale, p", [(0.4, 1.0, 30.0), (0.4, 1.0, 38.0),
                                               (30.0, 1.0, 51.0), (100.0, 1.0, 150.0),
                                               (100.0, 1.0, 140.0), (50.0, 1.0, 150.0),
                                               (0.021671060913381595, 1.0030438331978435,
                                                124.25685377645983), (0.4, 1.0, 170.0)])
    def test_against_mpmath(self, loc, scale, p):
        want = float(mpmath_laplace_abs_moment(loc, scale, p))
        assert _laplace_abs_moment(loc, scale, p) == pytest.approx(want, rel=1e-13)

    # Gamma(301) overflows; at (100, 1, 152) the moment itself is past 1.8e308
    @pytest.mark.parametrize("loc, scale, p", [(10.0, 1.0, 300.0), (100.0, 1.0, 152.0)])
    def test_past_the_float_range_raises(self, loc, scale, p):
        with pytest.raises(OverflowError):
            _laplace_abs_moment(loc, scale, p)


class TestStudentLargeDf:
    # gammaln((df - p)/2) - gammaln(df/2) cancels: 4e-12 relative off at df 1e4, 9e-10 at
    # 1e6 and 4e-4 at 1e12; the moment is E|Z|**p times the Gamma ratio over its leading
    # power, whose log stays near 0 however large df is
    @pytest.mark.parametrize("df", [1e3 + 12.0, 1e4, 1e5, 1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("p", [0.3, 1.0, 1.9, 4.0, 12.0])
    def test_against_mpmath(self, df, p):
        assert _student_abs_moment(df, p) == pytest.approx(mpmath_student_abs_moment(df, p),
                                                           rel=1e-13, abs=0.0)

    # the math.gamma quotient for df - p < 28 and Stirling's series past it, bit for bit,
    # against the gammaln route they replaced: gammaln's was 2.9e-15, 1.6e-13 and 1.1e-12
    # off mpmath at the last three
    _GAMMA_RATIO_BITS = {
        (2.05, 2.0): "0x1.4800000000013p+5", (2.5, 1.0): "0x1.34be52610c593p+0",
        (3.0, 1.0): "0x1.1a47c7ee5a514p+0", (30.0, 1.5): "0x1.cc9cddf861f31p-1",
        (999.0, 1.0): "0x1.98d2ebbdc3eafp-1", (1001.0, 1.5): "0x1.b8eb3026f8b8cp-1"}

    @pytest.mark.parametrize("df, p", list(_GAMMA_RATIO_BITS))
    def test_gammaln_route_below_the_series(self, df, p):
        got = _student_abs_moment(df, p)
        assert got == float.fromhex(self._GAMMA_RATIO_BITS[df, p])
        assert got == pytest.approx(mpmath_student_abs_moment(df, p), rel=4e-16, abs=0.0)
        old = math.exp((p / 2.0) * math.log(df) + gammaln((p + 1.0) / 2.0)
                       + gammaln((df - p) / 2.0) - 0.5 * math.log(math.pi)
                       - gammaln(df / 2.0))
        assert got == pytest.approx(old, rel=1.2e-12, abs=0.0)


def mpmath_student_abs_moment(df, p):
    """Test-only 40-digit ``E|T_df|**p``."""
    import mpmath

    with mpmath.workdps(40):
        h, z = mpmath.mpf(p) / 2, mpmath.mpf(df) / 2
        return float(mpmath.exp(h * mpmath.log(df) + mpmath.loggamma(h + 0.5)
                                + mpmath.loggamma(z - h) - mpmath.loggamma(z))
                     / mpmath.sqrt(mpmath.pi))


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
