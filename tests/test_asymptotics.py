import math

import mpmath
import numpy as np
import pytest

from ergobound.asymptotics import (
    JordanPairQuery,
    _comb_ratios,
    JordanQuery,
    jordan_estimate,
    jordan_pair_estimate,
    jordan_power,
    lyapunov_sandwich,
)
from ergobound.errors import NotDiagonalizable, OutOfRegime, ZeroEigenvalue
from ergobound.linalg import eigen


def jordan_block(q, d):
    J = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(J, q)
    J[np.arange(d - 1), np.arange(1, d)] = 1.0
    return J


def brute_power(q, d, t):
    P = np.eye(d, dtype=complex)
    J = jordan_block(q, d)
    for _ in range(t):
        P = P @ J
    return P


class TestJordanPower:
    def test_2x2_example(self):
        # oracle: three explicit 2x2 multiplications
        want = brute_power(0.5, 2, 3)
        np.testing.assert_allclose(want, [[0.125, 0.75], [0.0, 0.125]], atol=1e-15)
        np.testing.assert_allclose(jordan_power(0.5, 2, 3), want, atol=1e-14)

    def test_t_zero_identity(self):
        np.testing.assert_array_equal(jordan_power(0.7 + 0.1j, 4, 0), np.eye(4))

    def test_pascal_pattern(self):
        want = brute_power(1.0, 3, 4)
        np.testing.assert_allclose(want, [[1, 4, 6], [0, 1, 4], [0, 0, 1]], atol=1e-12)
        np.testing.assert_allclose(jordan_power(1.0, 3, 4), want, atol=1e-12)

    def test_matches_brute_force_complex(self):
        q = 0.8 * np.exp(1j * 0.9)
        for d in (2, 4):
            for t in (1, 5, 17):
                np.testing.assert_allclose(
                    jordan_power(q, d, t), brute_power(q, d, t), atol=1e-12
                )

    def test_semigroup(self):
        q = 0.6 * np.exp(1j * math.pi / 3)
        for d in (2, 3, 5):
            for t, s in ((3, 4), (10, 7), (25, 13)):
                lhs = jordan_power(q, d, t + s)
                rhs = jordan_power(q, d, t) @ jordan_power(q, d, s)
                assert np.abs(lhs - rhs).max() <= 1e-10

    @pytest.mark.parametrize("q", [0.99, -0.995, 0.999, 0.995 * np.exp(0.7j), 0.99j])
    def test_log_space_entries_past_t_1000(self, q):
        # past t = 1000 the magnitudes come from log C(t, j) + (t - j) log |q|; against
        # 50-digit C(t, j) q^(t - j) the largest relative error measured 6.8e-12 (glibc)
        with mpmath.workdps(50):
            for t in (1001, 1500, 3000, 5000):
                P = jordan_power(q, 4, t)
                for j in range(4):
                    want = mpmath.binomial(t, j) * mpmath.mpc(q) ** (t - j)
                    assert abs(mpmath.mpc(P[0, j]) - want) <= 1e-10 * abs(want), (q, t, j)
                    assert (np.diag(P, j) == P[0, j]).all()

    def test_nilpotent(self):
        got = jordan_power(0.0, 3, 2)
        want = np.zeros((3, 3))
        want[0, 2] = 1.0
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(jordan_power(0.0, 3, 5), np.zeros((3, 3)))


class TestJordanEstimate:
    def test_equality_case(self):
        est = jordan_estimate(JordanQuery(2, 0.5, [0.0, 1.0]), 10)
        np.testing.assert_allclose(est.scaled, [1.0, 0.05], atol=1e-14)
        np.testing.assert_allclose(est.target, [1.0, 0.0], atol=1e-14)
        assert est.error == pytest.approx(0.05, abs=1e-14)
        assert est.error_bound == pytest.approx(0.05, abs=1e-14)
        assert est.error <= est.error_bound

    def test_norm_constancy_under_rotation(self):
        q = 0.7 * np.exp(1j * math.pi / 4)
        x = np.zeros(3)
        x[2] = 1.0
        for t in (4, 9, 40):
            est = jordan_estimate(JordanQuery(3, q, x), t)
            assert np.linalg.norm(est.target) == pytest.approx(1.0, abs=1e-12)

    def test_error_within_bound_against_brute_force(self):
        est_query = JordanQuery(3, 0.6, [1.0, 1.0, 1.0])
        for t in (50, 80, 150):
            est = jordan_estimate(est_query, t)
            scale = 0.6 ** (t - 2) * math.comb(t, 2)
            oracle = brute_power(0.6, 3, t) @ est_query.x / scale
            err = np.linalg.norm(oracle - est.target)
            assert err <= est.error_bound * (1 + 1e-9) + 1e-10
            np.testing.assert_allclose(est.scaled, oracle, atol=1e-10)

    def test_signed_entries_stay_within_bound(self):
        # sign-alternating vectors exercise the absolute-value majorant
        query = JordanQuery(3, 0.5, [1.0, -1.0, 1.0])
        for t in (20, 100, 200):
            est = jordan_estimate(query, t)
            assert est.error <= est.error_bound * (1 + 1e-12)

    def test_mirror_index_flag(self):
        # for j_star < d the mirrored basis index misses the dominant entry
        est = jordan_estimate(JordanQuery(3, 0.5, [1.0, 1.0, 0.0]), 30)
        assert est.target_index == 1
        assert est.mirror_index == 2
        assert not est.mirror_matches

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            jordan_estimate(JordanQuery(5, 0.5, [1.0] * 5), 3)

    def test_zero_eigenvalue(self):
        with pytest.raises(ZeroEigenvalue):
            jordan_estimate(JordanQuery(2, 0.0, [1.0, 1.0]), 10)

    @pytest.mark.parametrize("t", [1001, 10**5, 10**7])
    def test_binomial_ratios_are_correctly_rounded(self, t):
        # quotients of exact integers at every t; lgamma differences were 3.6e-8 off at 1e7
        with mpmath.workdps(50):
            for k in (0, 3, 7):
                got = _comb_ratios(t, 8, k)
                for j in range(8):
                    want = mpmath.binomial(t, j) / mpmath.binomial(t, k)
                    assert abs(got[j] - want) <= 2.0**-53 * want, (t, j, k)

    def test_rate_stabilization(self):
        # error_bound * t approaches a constant (1/t rate)
        query = JordanQuery(4, 0.7, [0.3, -0.2, 0.5, 1.0])
        ts = [1000, 2154, 4641, 10000]
        prods = [jordan_estimate(query, t).error_bound * t for t in ts]
        for a, b in zip(prods, prods[1:]):
            assert b / a == pytest.approx(1.0, abs=0.02)
        # the error itself stabilizes at the same rate
        errs = [jordan_estimate(query, t).error * t for t in ts]
        for a, b in zip(errs, errs[1:]):
            assert b / a == pytest.approx(1.0, abs=0.05)


class TestJordanPairEstimate:
    @pytest.mark.parametrize(
        "x", [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]
    )
    def test_zero_eigenvalue(self, x):
        query = JordanPairQuery(2, 0j, x)
        assert query.j_star >= 1  # the query's constants need no nonzero eigenvalue
        with pytest.raises(ZeroEigenvalue):
            jordan_pair_estimate(query, 10)

    def test_minus_block_zero_reduces(self):
        x = np.array([0.3, 1.0, 0.0, 0.0])
        pair = jordan_pair_estimate(JordanPairQuery(2, 0.6, x), 20)
        single = jordan_estimate(JordanQuery(2, 0.6, [0.3, 1.0]), 20)
        np.testing.assert_allclose(pair.scaled[:2], single.scaled, atol=1e-14)
        np.testing.assert_allclose(pair.scaled[2:], 0.0, atol=1e-16)
        assert pair.error == pytest.approx(single.error, abs=1e-14)
        assert pair.error_bound == pytest.approx(single.error_bound, abs=1e-14)

    def test_n1_complex_pair_matches_brute_force(self):
        q = 0.7 * np.exp(1j * math.pi / 4)
        x = np.array([1.0, 1.0])
        est = jordan_pair_estimate(JordanPairQuery(1, q, x), 20)
        Q = np.diag([q, np.conj(q)])
        oracle = np.linalg.matrix_power(Q, 20) @ x / abs(q) ** 20
        np.testing.assert_allclose(est.scaled, oracle, atol=1e-12)
        assert est.error <= est.error_bound + 1e-14
        assert est.combined_holds

    def test_equal_top_indices_target_norm(self):
        q = 0.8 * np.exp(1j * 0.3)
        x = np.array([0.5, 1.0, -0.25, 2.0])  # j_plus = j_minus = 2
        est = jordan_pair_estimate(JordanPairQuery(2, q, x), 30)
        assert np.linalg.norm(est.target) == pytest.approx(
            math.sqrt(1.0**2 + 2.0**2), abs=1e-12
        )

    def test_error_within_combined_bound(self):
        rng = np.random.default_rng(0)
        for N in (1, 2, 3):
            q = 0.7 * np.exp(1j * rng.uniform(0, math.pi))
            for _ in range(10):
                x = rng.standard_normal(2 * N)
                query = JordanPairQuery(N, q, x)
                if query.j_plus == 0 or query.j_minus == 0:
                    continue
                t = max(2 * N - 1, 2 * (query.j_plus - 2), 12)
                est = jordan_pair_estimate(query, t)
                # brute-force oracle for the scaled vector
                Q = np.zeros((2 * N, 2 * N), dtype=complex)
                Q[:N, :N] = jordan_block(q, N)
                Q[N:, N:] = jordan_block(np.conj(q), N)
                scale = abs(q) ** (t - (query.j_plus - 1)) * math.comb(t, query.j_plus - 1)
                oracle = np.linalg.matrix_power(Q, t) @ x / scale
                np.testing.assert_allclose(est.scaled, oracle, atol=1e-9)
                assert est.combined_holds
                assert np.linalg.norm(oracle - est.target) <= est.combined_bound * (
                    1 + 1e-9
                ) + 1e-9


class TestQueryInput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: JordanQuery(2, float("nan"), [1.0, 1.0]),
            lambda: JordanQuery(2, 0.5, [1.0, math.inf]),
            lambda: JordanQuery(2, complex(0.5, math.inf), [1.0, 1.0]),
            lambda: JordanPairQuery(1, complex(math.nan, 0.5), [1.0, 1.0]),
            lambda: JordanPairQuery(2, 0.5 + 0.5j, [1.0, 0.0, -math.inf, 1.0]),
            lambda: JordanPairQuery(1, 0.5 + 0.5j, [math.nan, 0.0]),
        ],
        ids=["nan-q", "inf-x", "inf-imag-q", "pair-nan-q", "pair-inf-x", "pair-nan-x"],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestTargetIndices:
    # (x, expected mirror index): the mirrored coordinate of the first block
    # whose top index is j_star, counted 1-based over the whole vector
    @pytest.mark.parametrize(
        "x, mirror",
        [([1.0, 1.0, 0.0], 2), ([0.5, -1.0, 2.0], 1), ([2.0, 0.0, 0.0], 3)],
    )
    def test_single_block(self, x, mirror):
        q = 0.7 * np.exp(1j * 0.4)
        for t in (4, 40, 200):
            est = jordan_estimate(JordanQuery(3, q, x), t)
            assert est.mirror_index == mirror
            assert est.target_index in (1, mirror)
            assert np.count_nonzero(est.target) == 1
            assert est.target[est.target_index - 1] != 0

    @pytest.mark.parametrize(
        "x, mirror, both",
        [
            ([0.5, -1.0, 2.0, 0.7, 0.0, 0.0], 1, False),  # j_plus > j_minus
            ([0.5, 0.0, 0.0, 0.7, -1.0, 0.0], 5, False),  # j_plus < j_minus
            ([0.5, -1.0, 0.0, 0.7, 2.0, 0.0], 2, True),  # j_plus == j_minus
            ([0.5, -1.0, 0.0, 0.0, 0.0, 0.0], 2, False),  # minus block vanished
            ([0.0, 0.0, 0.0, 0.7, 2.0, 0.0], 5, False),  # plus block vanished
        ],
    )
    def test_pair(self, x, mirror, both):
        q = 0.7 * np.exp(1j * 0.4)
        query = JordanPairQuery(3, q, x)
        first = mirror - (3 - query.j_star)
        for t in (6, 40, 200):
            est = jordan_pair_estimate(query, t)
            assert est.mirror_index == mirror
            assert est.target_index in (first, mirror)
            assert np.count_nonzero(est.target) == 1 + both
            assert est.target[est.target_index - 1] != 0
            if both:
                assert est.target[est.target_index - 1 + 3] != 0
                # conjugate blocks carry conjugate phases
                i, j = est.target_index - 1, query.j_star
                phase_plus = est.target[i] / x[j - 1]
                phase_minus = est.target[i + 3] / x[3 + j - 1]
                assert phase_minus == pytest.approx(np.conj(phase_plus), abs=1e-15)


class TestLyapunovSandwich:
    def test_diagonal_example(self):
        spec = eigen(np.diag([0.5, 0.9]))
        lower, upper = lyapunov_sandwich(spec, [1.0, 0.0], 1)
        assert lower == pytest.approx(0.5 / math.sqrt(2), rel=1e-12)
        assert upper == pytest.approx(0.5 * math.sqrt(2), rel=1e-12)
        assert lower <= 0.5 <= upper

    def test_eigenvector_exact_power(self):
        Q = np.diag([0.5, 0.9])
        z = np.array([0.0, 1.0])
        for t in (1, 5, 20):
            want = np.linalg.norm(np.linalg.matrix_power(Q, t) @ z)
            assert want == pytest.approx(0.9**t, rel=1e-12)
            lower, upper = lyapunov_sandwich(eigen(Q), z, t)
            assert lower <= want * (1 + 1e-12)
            assert want <= upper * (1 + 1e-12)

    def test_random_sandwich_vs_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
            spec = eigen(A)
            if not spec.diagonalizable:
                continue
            z = rng.standard_normal(4)
            P = np.eye(4)
            for t in range(0, 61):
                val = np.linalg.norm(P @ z)
                lower, upper = lyapunov_sandwich(spec, z, t)
                assert lower <= val * (1 + 1e-9) + 1e-12
                assert val <= upper * (1 + 1e-9) + 1e-12
                P = A @ P

    def test_negative_t_rejected(self):
        for Q, t in ((np.diag([0.5, 0.0]), -1), (np.diag([0.5, 0.2]), -3)):
            with pytest.raises(ValueError, match="t must be an integer of at least 0"):
                lyapunov_sandwich(eigen(Q), [1.0, 1.0], t)

    def test_rejects_defective(self):
        spec = eigen(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(NotDiagonalizable):
            lyapunov_sandwich(spec, [1.0, 0.0], 3)
