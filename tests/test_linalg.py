import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from ergobound import linalg
from ergobound.errors import (
    KappaBelowThreshold,
    NonConvergence,
    NotPSD,
    NotSchurStable,
    NotSymmetric,
)
from ergobound.linalg import (
    _kappa_objective,
    _star_constants,
    build_star_norm,
    eigen,
    one_norm,
    psd_sqrt,
    schur_triangularize,
    smallest_eigenvalue_sym,
    solve_stein,
    star_norm,
    stationary_covariance,
)
from ergobound.model import ar_state_space, arma_state_space, companion
from ergobound.stability import is_schur_stable


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
        form = schur_triangularize(A)
        U, Delta = form.U, form.Delta
        np.testing.assert_allclose(U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(Delta, A, atol=1e-12)

    def test_symmetric_gives_diagonal(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        S = M + M.T
        Delta = schur_triangularize(S).Delta
        off = Delta - np.diag(np.diag(Delta))
        assert np.abs(off).max() <= 1e-9 * np.linalg.norm(S, "fro")

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        A = random_stable(rng, 4)
        form = schur_triangularize(A)
        U, Delta = form.U, form.Delta
        resid = np.linalg.norm(A - U @ Delta @ U.conj().T, "fro")
        assert resid <= 1e-10 * np.linalg.norm(A, "fro")
        assert form.residual == resid
        # diagonal of Delta is a permutation of the eigenvalues
        assert_eig_multisets_match(np.diag(Delta), eigen(A).eigenvalues)
        assert form.spectral_radius == np.abs(np.diag(Delta)).max()


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

    @pytest.mark.parametrize("policy", [
        {"fixed": math.nan}, {"fixed": math.inf}, {"fixed": -math.inf},
        {"auto_margin": math.nan}, {"auto_margin": math.inf}, {"auto_margin": 1.0},
        {"optimize_at": -3}, {"optimize_at": math.inf}, {"optimize_at": math.nan},
        {"optimize_at": 2.7}, {"optimize_at": "3"},
        {"fixed": 50.0, "optimize_at": 10}, {"auto_margin": 3.0, "optimize_at": 10},
        {"auto_margin": 3.0, "kappa": 9},
    ])
    def test_invalid_kappa_policy_raises(self, policy):
        with pytest.raises(ValueError):
            build_star_norm(0.5 * np.eye(2), policy)


def reference_kappa_objective(Delta, U, t):
    """The kappa objective as first written: the scaled norm of ``Delta`` in full and ``K_d``,
    one kappa per call."""
    p = np.arange(1, Delta.shape[0] + 1, dtype=float)

    def objective(kappa):
        s = one_norm(Delta * kappa ** (p[:, None] - p[None, :]))
        if s >= 1.0:
            return np.inf
        K_d, _ = _star_constants(U, kappa)
        return K_d * s ** (t + 1) / (1.0 - s)

    return objective


def reference_kappa_search_objective(Delta, U, t):
    """The reference objective called once per kappa of each grid."""
    one = reference_kappa_objective(Delta, U, t)
    return lambda kappas: [one(k) for k in kappas]


def golden_section_kappa(objective, threshold):
    """The kappa search as first written: the best of an 80-point log grid over ``[threshold
    (1 + 1e-9), 1e4 threshold]``, then 60 golden-section steps in its bracket."""
    grid = np.linspace(math.log(threshold * (1.0 + 1e-9)), math.log(threshold * 1e4), 80)
    k = int(np.argmin([objective(math.exp(g)) for g in grid]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(math.exp(x2))
    return math.exp(0.5 * (a + b))


class TestKappaSearch:
    MODELS = [
        companion([0.5]),
        companion([1.2, -0.5]),
        companion([0.3, -0.2, 0.4, 0.1]),
        arma_state_space([0.6, 0.2], [0.5, -0.3]).Q,
        random_stable(np.random.default_rng(31), 5, target=0.95),
        ar_state_space(np.full(10, 0.08)).Q,
    ]

    @pytest.mark.parametrize("Q", MODELS)
    @pytest.mark.parametrize("t", [0, 10, 300])
    def test_objective_bit_identical_to_reference(self, Q, t):
        form = linalg.schur_triangularize(Q)
        U, Delta = form.U, form.Delta
        fast, slow = _kappa_objective(Delta, U, t), reference_kappa_objective(Delta, U, t)
        kappas = np.geomspace(0.5, 1e6, 97)
        assert fast(kappas) == [slow(kappa) for kappa in kappas]  # the batched scan

    @pytest.mark.parametrize("Q", MODELS)
    def test_optimized_kappa_matches_reference_search(self, Q, monkeypatch):
        got = build_star_norm(Q, {"optimize_at": 20})
        monkeypatch.setattr(linalg, "_kappa_objective", reference_kappa_search_objective)
        want = build_star_norm(Q, {"optimize_at": 20})
        assert (got.kappa, got.value, got.K_d, got.C_star) == (
            want.kappa, want.value, want.K_d, want.C_star)

    @pytest.mark.parametrize("Q", MODELS)
    @pytest.mark.parametrize("t", [0, 10, 20, 300])
    def test_nested_grids_match_golden_section_search(self, Q, t):
        # the objective's log is convex in log kappa, so the nested grids end within their
        # stop width of the minimizer that the golden-section search closes in on
        form = linalg.schur_triangularize(Q)
        objective = reference_kappa_objective(form.Delta, form.U, t)
        threshold = max(1.0, one_norm(form.Delta) / (1.0 - form.spectral_radius))
        got = build_star_norm(Q, {"optimize_at": t}).kappa
        want = golden_section_kappa(objective, threshold)
        assert objective(got) <= objective(want) * (1 + 1e-9)


def bits(result):
    """A dataclass's fields, or an array, with every array as its bytes."""
    fields = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    return [f.tobytes() if isinstance(f, np.ndarray) else f for f in fields]


def fresh_schur(Q):
    """The Schur form of ``Q`` computed afresh, past the remembered one."""
    return linalg._schur(linalg._read_only(np.array(Q, dtype=float)))


def memo_models():
    """The kinds of matrix the benchmark's model scan decomposes, seeded apart from every
    other test: AR(d) up to d = 40, ARMA, and strongly non-normal raw matrices."""
    rng = np.random.default_rng(1601)
    out = []
    for d in (1, 2, 3, 7, 12, 25, 40):
        w = rng.uniform(-1.0, 1.0, d)
        out.append(ar_state_space(0.93 * w / np.abs(w).sum()).Q)
    out.append(arma_state_space([0.41, -0.27, 0.13], [0.52, -0.31]).Q)
    for d in (2, 3, 4):
        lam = rng.uniform(0.95, 0.995, d) * rng.choice([-1.0, 1.0], d)
        O, _ = np.linalg.qr(rng.standard_normal((d, d)))
        out.append(O @ (np.diag(lam) + np.triu(rng.uniform(1.0, 3.0, (d, d)), 1)) @ O.T)
    return out


class TestDecompositionMemo:
    """``schur_triangularize`` and ``eigen`` decompose each matrix once."""

    def test_one_schur_and_one_eig_per_matrix(self, lapack_calls):
        m = arma_state_space([0.37, 0.21], [0.44])
        Q, V = np.array(m.Q), np.array(m.noise_cov)  # equal, writable copies
        build_star_norm(Q)
        build_star_norm(Q, {"optimize_at": 7})
        stationary_covariance(Q, V)
        eigen(Q)
        is_schur_stable(Q)
        m.schur, m.spectrum
        assert lapack_calls == {"schur": 1, "eig": 1}

    @pytest.mark.parametrize("Q", memo_models())
    def test_remembered_results_equal_fresh_ones(self, Q):
        V = np.eye(len(Q))
        form = fresh_schur(Q)
        info = linalg._eigen(linalg._read_only(np.array(Q)))
        for _ in range(2):  # the first call decomposes, the second is remembered
            assert bits(schur_triangularize(Q)) == bits(form)
            assert bits(eigen(Q)) == bits(info)
            for policy in (None, {"optimize_at": 10}):
                assert bits(build_star_norm(Q, policy)) == bits(star_norm(form, policy))
            assert bits(stationary_covariance(Q, V)) == bits(solve_stein(form, V))

    def test_callers_array_is_copied_and_results_are_read_only(self):
        Q0 = np.array([[0.61, 0.37], [-0.23, 0.18]])
        Q = Q0.copy()
        form, info = schur_triangularize(Q), eigen(Q)
        Q *= 0.5
        assert form.A.tobytes() == Q0.tobytes()
        assert schur_triangularize(Q0.copy()) is form
        assert eigen(Q0.copy()) is info
        assert schur_triangularize(Q).A.tobytes() == Q.tobytes()
        for a in (form.A, form.U, form.Delta, info.eigenvalues, info.eigenvector_matrix):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("policy", [{"optimize_at": -1}, {"fixed": math.nan},
                                        {"auto_margin": 1.0}, {"fixed": 2.0, "auto_margin": 3.0}])
    def test_bad_policy_refused_before_the_schur_form(self, lapack_calls, monkeypatch, policy):
        monkeypatch.setattr(linalg, "_SCHUR", [(None, None)])  # no Schur form remembered
        with pytest.raises(ValueError, match="kappa policy|optimize_at must be"):
            build_star_norm(np.array([[0.3, 0.2], [1.0, 0.0]]), policy)
        assert lapack_calls["schur"] == 0

    def test_once_and_last_keep_nothing_from_a_raise(self):
        def fail():
            raise FloatingPointError("no value")

        kept, slot = {"a": 1}, [("a", 1)]
        for call in (lambda: linalg._once(kept, "b", fail), lambda: linalg._last(slot, "b", fail)):
            with pytest.raises(FloatingPointError):
                call()
        assert kept == {"a": 1} and slot == [("a", 1)]
        # _once keeps every key, _last the one asked last
        assert [linalg._once(kept, "b", lambda: 2), linalg._once(kept, "b", fail)] == [2, 2]
        assert [linalg._last(slot, "b", lambda: 2), linalg._last(slot, "b", fail)] == [2, 2]
        assert kept == {"a": 1, "b": 2} and slot == [("b", 2)]

    def test_non_convergence_is_not_remembered(self, lapack_calls, monkeypatch):
        Q = np.array([[0.52, 0.29], [-0.17, 0.33]])
        counted = scipy.linalg.schur

        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "schur", failing)
        with pytest.raises(NonConvergence):
            schur_triangularize(Q)
        monkeypatch.setattr(scipy.linalg, "schur", counted)
        form = schur_triangularize(Q)
        assert lapack_calls["schur"] == 1
        assert bits(form) == bits(fresh_schur(Q))

    def test_stricter_eigen_tol_is_honored(self, lapack_calls, monkeypatch):
        # Q is not the remembered matrix, so the strict cap reaches its decomposition
        P, Q = np.diag([0.5, 0.9]), np.array([[0.47, 1.9], [-0.21, -0.36]])
        info, before = eigen(P), lapack_calls["eig"]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_EIGEN_TOL", 1e-300)
            with pytest.raises(NonConvergence, match="residual"):
                eigen(Q)
            assert eigen(P) is info  # the call that raised kept nothing
        assert eigen(Q) is eigen(Q)
        assert lapack_calls["eig"] == before + 2

    def test_threads_alternating_two_matrices_get_their_own_forms(self, run_threads):
        # each slot holds one matrix: threads that alternate two replace it on every call,
        # and each must still read the form of the matrix it asked for
        mats = memo_models()[-2:]
        want = [(bits(fresh_schur(Q)), bits(linalg._eigen(linalg._read_only(Q.copy()))))
                for Q in mats]
        bad = []

        def run(i):
            for j in range(300):
                k = (i + j) % 2
                if (bits(schur_triangularize(mats[k])), bits(eigen(mats[k]))) != want[k]:
                    bad.append((i, j))

        run_threads(run)
        assert bad == []


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
        S = stationary_covariance(Q, V)
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

    def test_ar2_to_the_last_bit(self):
        # phi = (1.2, -0.5), V = e1 e1^T: Sigma_inf = [[100, 80], [80, 100]] / 27.
        # The bare Schur-basis solve is 1.2e-14 off here (the rounding of the
        # Schur form); its correction from the residual brings every entry
        # within one unit in the last place.
        V = np.zeros((2, 2))
        V[0, 0] = 1.0
        S = stationary_covariance(companion([1.2, -0.5]), V)
        want = np.array([[100.0, 80.0], [80.0, 100.0]]) / 27.0
        assert np.abs(S - want).max() <= np.spacing(100.0 / 27.0)

    def test_forward_accuracy_on_non_normal_raw_model(self):
        # O T O^T with T upper triangular, |diag T| in [0.95, 0.995] and
        # off-diagonal entries in [1, 3], as perfbench's model_scan builds raw
        # models (default_rng([4, 4]), the sixth draw), so ||S||_F ~ 8.8e11.
        # A squaring iteration with a bilinear fallback meets the residual cap
        # here yet is 4.8e-5 off S; the reference is a 50-digit solve of
        # (I - Q (x) Q) vec S = vec I.
        Q = np.array([
            [-2.4208038015487494, 2.2550855169949457, -0.0051683691740596486, -0.28620075858575467],
            [-0.5092423057118916, 1.6438101890818362, 0.2714793630917064, -2.1190501171331886],
            [0.771230152089946, -0.2510290721444061, -1.183488229648347, -1.2410953579970705],
            [0.016450558438903473, 1.3136195059970526, 0.752949977441355, -1.921285845188157],
        ])
        want = np.array([
            [414078668164.48772435, 289902419732.84442613, -230085427582.48397275, 232708941359.01592916],
            [289902419732.84442613, 202973201935.32452428, -161081250794.44964278, 162928204000.08995677],
            [-230085427582.48397275, -161081250794.44964278, 127851248462.02518108, -129303092135.26816963],
            [232708941359.01592916, 162928204000.08995677, -129303092135.26816963, 130783992646.64774283],
        ])
        S = stationary_covariance(Q, np.eye(4))
        assert np.linalg.norm(S - want, "fro") <= 1e-8 * np.linalg.norm(want, "fro")


def kitagawa_reference(U, Delta, R):
    """``linalg._kitagawa`` with ``scipy.linalg.solve_triangular`` for each column."""
    import scipy.linalg

    C = U.conj().T @ R @ U
    X = np.zeros_like(C)
    eye = np.eye(len(C))
    for j in range(len(C) - 1, -1, -1):
        rhs = C[:, j] + Delta @ (X[:, j + 1:] @ Delta[j, j + 1:].conj())
        X[:, j] = scipy.linalg.solve_triangular(
            eye - Delta[j, j].conj() * Delta, rhs, check_finite=False)
    return linalg._sym((U @ X @ U.conj().T).real)


class TestKitagawaLapack:
    @staticmethod
    def models():
        rng = np.random.default_rng(40)
        out = []
        for d in (2, 40, 100):
            phi = rng.uniform(-1.0, 1.0, d)
            Q = companion(0.9 * phi / np.abs(phi).sum())
            V = np.zeros((d, d))
            V[0, 0] = 1.0
            out.append((Q, V))
        for d in (2, 3, 4):  # strongly non-normal, spectral radius near one
            lam = rng.uniform(0.95, 0.995, d) * rng.choice([-1.0, 1.0], d)
            O, _ = np.linalg.qr(rng.standard_normal((d, d)))
            M = rng.standard_normal((d, d))
            out.append((O @ (np.diag(lam) + np.triu(rng.uniform(1.0, 3.0, (d, d)), 1)) @ O.T,
                        M @ M.T))
        return out

    def test_byte_equal_to_solve_triangular(self, monkeypatch):
        models = self.models()
        got = [(stationary_covariance(Q, V), linalg.solve_stein(schur_triangularize(Q), V))
               for Q, V in models]
        monkeypatch.setattr(linalg, "_kitagawa", kitagawa_reference)
        want = [(stationary_covariance(Q, V), linalg.solve_stein(schur_triangularize(Q), V))
                for Q, V in models]
        for pair, ref in zip(got, want):
            assert [a.tobytes() for a in pair] == [b.tobytes() for b in ref]


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

    @staticmethod
    def reference_root(S):
        """The matrix-at-a-time root: symmetrize, ``eigh``, clamp and rebuild."""
        S = 0.5 * (S + S.T)
        w, V = np.linalg.eigh(S)
        R = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        return 0.5 * (R + R.T)

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 40])
    def test_stack_is_per_matrix_bit_for_bit(self, d):
        # random covariances, a rank-deficient one, a zero one, and one with the
        # last-bit asymmetry of a computed product A B A
        rng = np.random.default_rng(d)
        mats = [M @ M.T for M in rng.standard_normal((6, d, d))]
        low = rng.standard_normal((d, max(d - 2, 1)))
        mats += [low @ low.T, mats[0] @ mats[1] @ mats[0], np.zeros((d, d))]
        stack = np.array(mats)
        roots = psd_sqrt(stack)
        assert roots.shape == stack.shape
        for S, R in zip(stack, roots):
            assert R.tobytes() == psd_sqrt(S).tobytes() == self.reference_root(S).tobytes()

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), NotSymmetric),
        (np.diag([1.0, -0.5]), NotPSD),
        (np.array([[1.0, 1e-3j], [-1e-3j, 1.0]]), NotSymmetric),
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad, error):
        with pytest.raises(error):
            psd_sqrt(bad)
        good = np.eye(2, dtype=bad.dtype)
        for k in range(3):
            stack = np.array([good, good, good])
            stack[k] = bad
            with pytest.raises(error):
                psd_sqrt(stack)

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 40])
    def test_symmetry_norms_are_fro_bit_for_bit(self, d):
        # one dot per matrix, so a 2-D call's threshold is exactly _SYM_TOL * max(1, fro(S))
        rng = np.random.default_rng(d)
        stack = rng.standard_normal((4, d, d)) * 10.0 ** rng.uniform(-4, 4, (4, 1, 1))
        flat = stack.reshape(4, -1)
        assert np.sqrt(linalg._sqnorms(flat)).tolist() == [linalg.fro(S) for S in stack]
        assert linalg._sqnorms(flat[0]) == flat[0] @ flat[0]

    def test_each_matrix_has_its_own_symmetry_threshold(self):
        # a skew part of Frobenius norm 1e-9: over 1e-10 * ||S||_F for S near I,
        # under it for S near 1e3 I, also when both share a stack
        skew = np.array([[0.0, 1e-9 / math.sqrt(2)], [0.0, 0.0]])
        psd_sqrt(1e3 * np.eye(2) + skew)
        with pytest.raises(NotSymmetric):
            psd_sqrt(np.eye(2) + skew)
        with pytest.raises(NotSymmetric):
            psd_sqrt(np.array([1e3 * np.eye(2) + skew, np.eye(2) + skew]))

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="square"):
            psd_sqrt(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="2-D"):
            psd_sqrt(np.zeros((2, 2, 2, 2)))


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


@pytest.mark.parametrize("d", [1, 2, 10, 40])
@pytest.mark.parametrize("complex_rows", [False, True])
def test_row_norms_are_numpy_norms_bit_for_bit(d, complex_rows):
    # one squared-norm kernel: row_norms and the symmetry check share _sqnorms
    rng = np.random.default_rng(d)
    Z = rng.standard_normal((6, d)) * 10.0 ** rng.uniform(-8, 8, (6, 1))
    if complex_rows:
        Z = Z + 1j * rng.standard_normal((6, d)) * 10.0 ** rng.uniform(-8, 8, (6, 1))
    assert linalg.row_norms(Z).tolist() == [np.linalg.norm(z) for z in Z]
    assert linalg.row_norms(Z).tolist() == np.sqrt(linalg._sqnorms(Z)).tolist()
