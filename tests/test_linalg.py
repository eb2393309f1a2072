import math

import numpy as np
import pytest

from ergobound.errors import KappaBelowThreshold, NotPSD, NotSchurStable, NotSymmetric
from ergobound.linalg import (
    build_star_norm,
    eigen,
    one_norm,
    psd_sqrt,
    schur_triangularize,
    smallest_eigenvalue_sym,
    stationary_covariance,
)
from ergobound.model import companion


def random_stable(rng, d, target=None):
    A = rng.standard_normal((d, d))
    rho = np.abs(np.linalg.eigvals(A)).max()
    return A * ((target if target is not None else rng.uniform(0.3, 0.9)) / rho)


def assert_eig_multisets_match(got, want, tol=1e-8):
    got = list(got)
    for w in want:
        k = int(np.argmin([abs(g - w) for g in got]))
        assert abs(got[k] - w) <= tol, (got, want)
        got.pop(k)


class TestEigen:
    def test_diagonal(self):
        info = eigen(np.diag([0.5, 0.9]))
        np.testing.assert_allclose(sorted(np.real(info.eigenvalues)), [0.5, 0.9], atol=1e-12)
        assert info.spectral_radius == pytest.approx(0.9, abs=1e-12)
        assert info.diagonalizable

    def test_companion_quadratic(self):
        # quadratic-formula oracle for z^2 - 1.2 z + 0.5: conjugate pair, modulus sqrt(0.5)
        disc = 1.2**2 - 4 * 0.5
        root = (1.2 + 1j * math.sqrt(-disc)) / 2
        info = eigen(companion([1.2, -0.5]))
        got = sorted(info.eigenvalues, key=lambda z: z.imag)
        assert got[1] == pytest.approx(root, abs=1e-10)
        assert got[0] == pytest.approx(root.conjugate(), abs=1e-10)
        assert info.spectral_radius == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_identity(self):
        info = eigen(np.eye(3))
        assert info.spectral_radius == pytest.approx(1.0)
        assert info.diagonalizable

    def test_defective_not_diagonalizable(self):
        info = eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not info.diagonalizable
        assert info.spectral_radius == 0.0

    def test_residual_small_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            info = eigen(A)
            assert info.residual <= 1e-8 * np.linalg.norm(A, "fro")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSchur:
    def test_triangular_input_passthrough(self):
        A = np.array([[0.5, 1.0], [0.0, 0.5]])
        U, Delta = schur_triangularize(A)
        np.testing.assert_allclose(U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(Delta, A, atol=1e-12)

    def test_symmetric_gives_diagonal(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        S = M + M.T
        _, Delta = schur_triangularize(S)
        off = Delta - np.diag(np.diag(Delta))
        assert np.abs(off).max() <= 1e-9 * np.linalg.norm(S, "fro")

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        A = random_stable(rng, 4)
        U, Delta = schur_triangularize(A)
        resid = np.linalg.norm(A - U @ Delta @ U.conj().T, "fro")
        assert resid <= 1e-10 * np.linalg.norm(A, "fro")
        # diagonal of Delta is a permutation of the eigenvalues
        assert_eig_multisets_match(np.diag(Delta), eigen(A).eigenvalues)


class TestStarNorm:
    def test_diagonal_value(self):
        star = build_star_norm(np.diag([0.5, 0.9]))
        assert star.value == pytest.approx(0.9, abs=1e-12)

    def test_jordan_block_fixed_kappa(self):
        star = build_star_norm(np.array([[0.5, 1.0], [0.0, 0.5]]), {"fixed": 6.0})
        assert star.value == pytest.approx(0.5 + 1.0 / 6.0, abs=1e-12)

    def test_nilpotent(self):
        star = build_star_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), {"fixed": 2.0})
        assert star.value == pytest.approx(0.5, abs=1e-14)
        assert star.spectral_radius == 0.0

    def test_rejects_unstable(self):
        with pytest.raises(NotSchurStable):
            build_star_norm(np.eye(2))

    def test_rejects_low_kappa(self):
        # threshold for the Jordan-ish block is max(1, 1.5 / 0.5) = 3
        with pytest.raises(KappaBelowThreshold):
            build_star_norm(np.array([[0.5, 1.0], [0.0, 0.5]]), {"fixed": 2.5})

    def test_value_below_one_for_stable(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                star = build_star_norm(random_stable(rng, d))
                assert star.value < 1.0
                assert star.spectral_radius <= star.value + 1e-12

    def test_submultiplicative(self):
        rng = np.random.default_rng(4)
        star = build_star_norm(random_stable(rng, 4))
        for _ in range(30):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            assert star.of(A @ B) <= star.of(A) * star.of(B) * (1 + 1e-10)

    def test_euclidean_action_constant(self):
        rng = np.random.default_rng(5)
        star = build_star_norm(random_stable(rng, 3))
        for _ in range(100):
            A = rng.standard_normal((3, 3))
            x = rng.standard_normal(3)
            assert np.linalg.norm(A @ x) <= star.K_d * star.of(A) * np.linalg.norm(x) * (
                1 + 1e-10
            )

    def test_frobenius_constant(self):
        rng = np.random.default_rng(6)
        for d in (2, 4):
            star = build_star_norm(random_stable(rng, d))
            assert star.C_star <= d**2.5 * star.kappa ** (d - 1) * (1 + 1e-12)
            for _ in range(30):
                A = rng.standard_normal((d, d))
                assert np.linalg.norm(A, "fro") <= star.C_star * star.of(A) * (1 + 1e-10)

    def test_power_contraction(self):
        rng = np.random.default_rng(7)
        Q = random_stable(rng, 3, target=0.8)
        star = build_star_norm(Q)
        P = np.eye(3)
        for t in range(1, 51):
            P = P @ Q
            assert star.of(P) <= star.value**t * (1 + 1e-9)

    def test_optimize_policy_improves_objective(self):
        rng = np.random.default_rng(8)
        Q = random_stable(rng, 3, target=0.7)
        t = 20
        auto = build_star_norm(Q, {"auto_margin": 2.0})
        opt = build_star_norm(Q, {"optimize_at": t})

        def objective(star):
            s = star.value
            return star.K_d * s ** (t + 1) / (1.0 - s)

        assert objective(opt) <= objective(auto) * (1 + 1e-9)

    def test_kappa_consistency_of_evaluator(self):
        rng = np.random.default_rng(9)
        Q = random_stable(rng, 4)
        star = build_star_norm(Q)
        assert star.of(Q) == pytest.approx(star.value, rel=1e-12)


class TestStationaryCovariance:
    def test_scalar(self):
        S = stationary_covariance(np.array([[0.5]]), np.array([[1.0]]))
        assert S[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_matrix(self):
        V = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(stationary_covariance(np.zeros((2, 2)), V), V, atol=1e-14)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(10)
        Q = random_stable(rng, 3)
        M = rng.standard_normal((3, 3))
        V = M @ M.T
        S = stationary_covariance(Q, V, tol=1e-12)
        assert np.linalg.norm(S - Q @ S @ Q.T - V, "fro") <= 1e-10

    def test_matches_truncated_neumann_within_tail(self):
        rng = np.random.default_rng(11)
        Q = random_stable(rng, 3, target=0.7)
        Sig = rng.standard_normal((3, 3))
        M = rng.standard_normal((3, 3))
        Xi = M @ M.T
        V = Sig @ Xi @ Sig.T
        star = build_star_norm(Q)
        S = stationary_covariance(Q, V)
        for T in (5, 15, 40):
            part = np.zeros((3, 3))
            P = np.eye(3)
            for _ in range(T):
                part += P @ V @ P.T
                P = Q @ P
            tail = (
                star.C_star**2
                * np.linalg.norm(Sig, "fro") ** 2
                * np.linalg.norm(Xi, "fro")
                * star.value ** (2 * T)
                / (1 - star.value**2)
            )
            assert np.linalg.norm(S - part, "fro") <= tail * (1 + 1e-9)

    def test_rejects_unstable(self):
        with pytest.raises(NotSchurStable):
            stationary_covariance(np.eye(2), np.eye(2))

    def test_strongly_non_normal_near_unit_radius(self):
        # ||Q^k|| grows to ~1e3 before it decays, so ||S||_F ~ 3.5e6; a
        # squaring iteration S <- S + M S M^T, M <- M^2 stalls above the
        # 1e-12 residual cap on this seed.
        rng = np.random.default_rng(7)
        T = np.diag([0.99, -0.985, 0.98]) + np.triu(rng.uniform(1.0, 3.0, (3, 3)), 1)
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = O @ T @ O.T
        assert eigen(Q).spectral_radius == pytest.approx(0.99, abs=1e-9)
        S = stationary_covariance(Q, np.eye(3))
        fro_S = np.linalg.norm(S, "fro")
        assert fro_S > 1e6
        assert np.linalg.norm(S - Q @ S @ Q.T - np.eye(3), "fro") <= 1e-12 * fro_S
        np.testing.assert_array_equal(S, S.T)
        # S = sum_k Q^k Q^kT dominates its first term, the identity
        assert smallest_eigenvalue_sym(S) >= 1.0 - 1e-9 * fro_S

    def test_forward_accuracy_when_ill_conditioned(self):
        # rho ~ 0.99 and ||S||_F ~ 2.5e14.  An LU solve of the Kronecker
        # system (I - Q (x) Q) vec S = vec I meets the residual cap here too,
        # yet is 7% off S; the reference is a 50-digit solve of that system.
        Q = np.array([
            [4.087223525586051, -0.7785181558496346, 1.5080977660473815, -1.36155457284103],
            [1.9932834364318004, 0.17871308962571228, 0.9784771919430865, -0.717937219542643],
            [-1.213790343700156, -1.5385760992075213, -0.09738745822572303, 1.0166409555245368],
            [-0.18536155153620876, 1.0578587859898323, -1.0543860623633614, -0.23505460505639683],
        ])
        want = np.array([
            [82221920881924.372696, 41366523563952.49953, -71221177586125.082485, 83893541266437.479968],
            [41366523563952.49953, 20811845778394.060726, -35831960100805.963091, 42207418487311.960146],
            [-71221177586125.082485, -35831960100805.963091, 61692260324372.369617, -72669134995885.279549],
            [83893541266437.479968, 42207418487311.960146, -72669134995885.279549, 85600670152609.073615],
        ])
        S = stationary_covariance(Q, np.eye(4))
        assert np.linalg.norm(S - want, "fro") <= 1e-5 * np.linalg.norm(want, "fro")


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            S = M @ M.T
            R = psd_sqrt(S)
            assert np.linalg.norm(R @ R - S, "fro") <= 1e-10 * max(1, np.linalg.norm(S, "fro"))
            np.testing.assert_allclose(R, R.T, atol=1e-12)

    def test_sqrt_of_square_is_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            R = psd_sqrt(M @ M.T)  # an arbitrary PSD matrix
            back = psd_sqrt(R @ R)
            assert np.linalg.norm(back - R, "fro") <= 1e-10 * max(1, np.linalg.norm(R, "fro"))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        R = psd_sqrt(np.diag([1.0, -1e-14]))
        assert R[1, 1] == 0.0


class TestSmallestEigenvalue:
    def test_ar1_stationary_variance(self):
        assert smallest_eigenvalue_sym(np.array([[4.0 / 3.0]])) == pytest.approx(4.0 / 3.0)

    def test_diagonal(self):
        assert smallest_eigenvalue_sym(np.diag([1.0, 5.0])) == pytest.approx(1.0)

    def test_shift_property(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((4, 4))
        eps = 0.37
        S = M @ M.T + eps * np.eye(4)
        assert smallest_eigenvalue_sym(S) >= eps - 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            smallest_eigenvalue_sym(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_one_norm_is_max_column_sum():
    A = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert one_norm(A) == pytest.approx(4.0)
