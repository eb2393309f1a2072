import math
import tracemalloc

import numpy as np
import pytest

from ergobound import _pool
from ergobound import bounds as bnd
from ergobound import sim
from ergobound.errors import DimensionMismatch, MomentUnavailable, NotSchurStable
from ergobound.linalg import build_star_norm, psd_factor
from ergobound.model import NoiseSpec, ar_state_space, arma_state_space, raw_model
from ergobound.sim import (
    SimConfig,
    empirical_mean_process,
    sample_stationary,
    simulate_paths,
    truncation_horizon,
)


def ar1(q, var=1.0, mean=0.0):
    return ar_state_space([q], noise1d=NoiseSpec.gaussian(mean, var))


def assert_same_law(a, b):
    """Means and covariances of two independent ``(n, d)`` samples agree within 4 stderr."""

    def moments(s):
        c = s - s.mean(axis=0)
        i, j = np.triu_indices(s.shape[1])
        return np.hstack([s, c[:, i] * c[:, j]])

    fa, fb = moments(a), moments(b)
    se = np.sqrt(fa.var(axis=0, ddof=1) / len(fa) + fb.var(axis=0, ddof=1) / len(fb))
    np.testing.assert_array_less(np.abs(fa.mean(axis=0) - fb.mean(axis=0)), 4 * se + 1e-12)


def rotation(rho, theta):
    c, s = math.cos(theta), math.sin(theta)
    return rho * np.array([[c, -s], [s, c]])


# Gaussian models for the exact routes, each with a start and the kept steps to jump to: a
# non-normal raw model with non-centred noise, a scalar-driven AR(3) whose gap 2 < d leaves
# C_2 rank-deficient, and a slow rotation with rho(Q) = 0.99 at gap 1000
EXACT_CASES = {
    "non_normal": (
        lambda: raw_model(
            [[0.5, 1.5, 0.0], [0.0, 0.4, 1.2], [0.0, 0.0, -0.3]],
            [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.3, 1.0]],
            NoiseSpec.gaussian_d([0.4, -0.2, 0.1],
                                 [[1.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.8]]),
        ),
        [2.0, -1.0, 0.5],
        (3, 7),
    ),
    "ar3_rank_deficient": (
        lambda: ar_state_space([0.5, -0.3, 0.2], noise1d=NoiseSpec.gaussian(0.3, 1.0)),
        [1.0, -0.5, 2.0],
        (2,),
    ),
    "slow_rotation": (
        lambda: raw_model(rotation(0.99, 0.3), np.eye(2),
                          NoiseSpec.gaussian_d([0.1, 0.0], [[1.0, 0.2], [0.2, 0.5]])),
        [50.0, 0.0],
        (1000,),
    ),
}


class TestSeedRange:
    """The seed fills the upper 64 bits of each Philox key, so one outside [0, 2**64)
    would alias another seed's streams; it is refused instead."""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejected(self, seed):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            _pool.stream_rng(seed, 0)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            simulate_paths(m, [1.0], SimConfig(n_paths=3, horizon=2, seed=seed))
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            sample_stationary(m, 3, seed, eps_stat=1e-3)

    def test_ends_are_distinct_streams(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        runs = [simulate_paths(m, [1.0], SimConfig(n_paths=3, horizon=2, seed=s)).samples
                for s in (0, 2**64 - 1, 5)]
        assert not np.array_equal(runs[0], runs[1]) and not np.array_equal(runs[1], runs[2])

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        want = simulate_paths(m, [1.0], SimConfig(n_paths=3, horizon=2, seed=int(seed)))
        got = simulate_paths(m, [1.0], SimConfig(n_paths=3, horizon=2, seed=seed))
        np.testing.assert_array_equal(got.samples, want.samples)


class TestSimulatePaths:
    def test_deterministic_repeat(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        cfg = SimConfig(n_paths=50, horizon=10, seed=7)
        a = simulate_paths(m, [1.0, 0.0], cfg)
        b = simulate_paths(m, [1.0, 0.0], cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_point_mass_closed_form(self):
        m = ar_state_space([0.4, 0.2], [0.0], NoiseSpec.point_mass(0.7))
        cfg = SimConfig(n_paths=3, horizon=12, seed=1)
        x = np.array([1.0, -1.0])
        ens = simulate_paths(m, x, cfg)
        drift = m.Sigma @ (0.7 * m.noise.direction)
        state = x.copy()
        for t in range(13):
            for i in range(3):
                np.testing.assert_allclose(ens.samples[i, t], state, atol=1e-12)
            state = m.Q @ state + drift

    def test_ensemble_mean_matches_formula(self):
        m = ar_state_space([0.5, 0.2], [0.0], NoiseSpec.gaussian(0.4, 1.0))
        cfg = SimConfig(n_paths=40_000, horizon=8, seed=3)
        x = np.array([2.0, 0.0])
        ens = simulate_paths(m, x, cfg)
        for t in (1, 4, 8):
            want = bnd.law_at(m, x, t).mean
            got = ens.at_time(t).mean(axis=0)
            se = ens.at_time(t).std(axis=0, ddof=1) / math.sqrt(cfg.n_paths)
            np.testing.assert_array_less(np.abs(got - want), 4 * se + 1e-12)

    def test_time_subset(self):
        # without Gaussian jumps a kept subset is a slice of the full run
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        full = simulate_paths(m, [1.0], SimConfig(n_paths=5, horizon=9, seed=2))
        part = simulate_paths(m, [1.0], SimConfig(n_paths=5, horizon=9, seed=2), times=(0, 4, 9))
        np.testing.assert_array_equal(part.at_time(4), full.at_time(4))
        np.testing.assert_array_equal(part.at_time(9), full.at_time(9))

    def test_gaussian_consecutive_steps_keep_their_bits(self):
        # with Gaussian noise, steps kept one after another from 0 equal the full run's,
        # and each is X Q^T + xi Sigma^T with xi from the noise sampler, bit for bit
        make, x, _ = EXACT_CASES["non_normal"]
        m, cfg = make(), SimConfig(n_paths=5, horizon=9, seed=2)
        full = simulate_paths(m, x, cfg)
        part = simulate_paths(m, x, cfg, times=(0, 1, 2, 3))
        np.testing.assert_array_equal(part.samples, full.samples[:, :4])
        rng, draw = _pool.stream_rng(2, _pool.PATHS), m.noise.sampler()
        state = np.tile(x, (5, 1))
        for t in range(1, 10):
            state = state @ m.Q.T + draw(rng, 5) @ m.Sigma.T
            np.testing.assert_array_equal(full.at_time(t), state)

    @pytest.mark.parametrize("noise", [NoiseSpec.gaussian(0.2, 1.0), NoiseSpec.laplace(0.0, 1.0)])
    def test_unsorted_times(self, noise):
        m = ar_state_space([0.3, 0.5], [0.0], noise)
        cfg = SimConfig(n_paths=6, horizon=9, seed=4)
        shuffled = simulate_paths(m, [1.0, 0.0], cfg, times=(9, 4))
        ordered = simulate_paths(m, [1.0, 0.0], cfg, times=(4, 9))
        assert shuffled.times == (9, 4)
        np.testing.assert_array_equal(shuffled.samples, ordered.samples[:, ::-1])

    def test_recursion_stops_at_last_kept_step(self, monkeypatch):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        short, long = (
            simulate_paths(m, [1.0, 0.0], SimConfig(n_paths=7, horizon=h, seed=5), times=(5,))
            for h in (5, 100)
        )
        np.testing.assert_array_equal(short.samples, long.samples)
        monkeypatch.setattr(sim, "_noise_steps", None)  # no step may draw noise
        for noise in (NoiseSpec.laplace(0.0, 1.0), NoiseSpec.gaussian(0.0, 1.0)):
            none = simulate_paths(ar_state_space([0.3, 0.5], [0.0], noise), [1.0, 0.0],
                                  SimConfig(n_paths=7, horizon=100, seed=5), times=())
            assert none.samples.shape == (7, 0, 2)

    def test_rejects_repeated_times(self):
        # a repeated step would leave one kept column unwritten
        with pytest.raises(ValueError, match="must not repeat"):
            simulate_paths(ar1(0.5), [1.0], SimConfig(n_paths=3, horizon=9, seed=2), times=[5, 5])

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # streams keyed by (seed, block) make the ensemble schedule-independent
        n = 2 * _pool.BLOCK + 500  # three blocks, the last one partial
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        runs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("ERGOBOUND_THREADS", threads)
            runs.append(
                (
                    simulate_paths(m, [1.0, 0.0], SimConfig(n_paths=n, horizon=4, seed=19)).samples,
                    sample_stationary(m, n, seed=19).samples,
                    empirical_mean_process(m, n, [1.0, 0.0], 4, seed=19).samples,
                )
            )
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)
        # every block draws from a stream of its own: first steps differ
        first = runs[0][0][:, 1]
        assert not np.allclose(first[:500], first[2 * _pool.BLOCK :])

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseSpec.gaussian_d(np.zeros(3), np.diag([1.0, 2.0, 0.5])),
            NoiseSpec.laplace_d(np.zeros(3), np.ones(3)),
            NoiseSpec.student_t_d(4.0, np.ones(3)),
            NoiseSpec.uniform_d(np.ones(3)),
            NoiseSpec.laplace(0.3, 1.0).lift([1.0, 0.0, -0.5]),
        ],
    )
    def test_step_chunk_does_not_change_output(self, monkeypatch, noise):
        # the chunk bounds memory only: split draws equal one concatenated draw
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        m = raw_model(0.6 * A / np.abs(np.linalg.eigvals(A)).max(), np.eye(3), noise)
        n = _pool.BLOCK + 300
        x = [1.0, -1.0, 0.5]

        def run_all():
            return (
                simulate_paths(m, x, SimConfig(n_paths=n, horizon=9, seed=37), times=(3, 9)).samples,
                sample_stationary(m, n, seed=37, truncation=12).samples,
                empirical_mean_process(m, n, x, 9, seed=37).samples,
            )

        ref = run_all()
        # one step per chunk; four steps per chunk in the full block, the last chunk short
        for values in (1, 4 * _pool.BLOCK * 3):
            monkeypatch.setattr(sim, "_CHUNK_VALUES", values)
            for a, b in zip(ref, run_all()):
                np.testing.assert_array_equal(a, b)

    def test_memory_follows_kept_times_not_horizon(self):
        # the noise of all 2000 x 2000 x 3 steps alone would be 96 MB
        m = ar_state_space([0.3, 0.2, 0.1], noise1d=NoiseSpec.laplace(0.0, 1.0))
        cfg = SimConfig(n_paths=2000, horizon=2000, seed=43)
        tracemalloc.start()
        try:
            ens = simulate_paths(m, [1.0, 0.0, 0.0], cfg, times=(2000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.samples.shape == (2000, 1, 3)
        assert peak < 10 * 2**20


class TestExactGaussianDraws:
    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_jumps_match_the_recursion(self, case):
        make, x, times = EXACT_CASES[case]
        m, n, horizon = make(), 20_000, max(times)
        jumped = simulate_paths(m, x, SimConfig(n_paths=n, horizon=horizon, seed=51), times=times)
        walked = simulate_paths(m, x, SimConfig(n_paths=n, horizon=horizon, seed=52))
        for t in times:
            assert_same_law(jumped.at_time(t), walked.at_time(t))

    @pytest.mark.parametrize("case", ["non_normal", "ar3_rank_deficient"])
    def test_stationary_matches_the_series(self, case):
        m, n = EXACT_CASES[case][0](), 20_000
        exact = sample_stationary(m, n, seed=53)
        series = sample_stationary(m, n, seed=54, truncation=truncation_horizon(m, 1e-8))
        assert exact.provenance["truncation"] == 0 and exact.provenance["exact"]
        assert not series.provenance["exact"]
        assert_same_law(exact.samples[:, 0], series.samples[:, 0])

    def test_transitions_are_the_laws_of_law_at(self):
        m = EXACT_CASES["non_normal"][0]()
        for k, (Pt, b, Ft) in sim._transitions(m, [2, 5, 40]).items():
            law = bnd.law_at(m, np.zeros(3), k)
            np.testing.assert_array_equal(b, law.mean)
            tol = 1e-13 * np.abs(law.cov).max()
            np.testing.assert_allclose(Ft.T @ Ft, law.cov, rtol=0, atol=tol)
            np.testing.assert_allclose(Pt.T, np.linalg.matrix_power(m.Q, k), rtol=1e-13)

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_draws_do_not_depend_on_the_kept_neumann_sums(self, case):
        # the jumps read the kept Neumann sums wherever an earlier call left them:
        # past every gap (a restart), or before them (a resumption)
        make, x, _ = EXACT_CASES[case]
        config, times = SimConfig(n_paths=64, horizon=40, seed=9), (0, 2, 7, 40)
        want = simulate_paths(make(), x, config, times=times).samples.tobytes()
        for left_at in (60, 3):
            m = make()
            bnd.law_at(m, x, left_at)
            assert simulate_paths(m, x, config, times=times).samples.tobytes() == want
            assert bnd._SUMS[0][0][1] == 33  # the longest jump, 7 -> 40
        m, fresh = make(), sim._transitions(make(), [2, 5, 38])
        for k, jump in sim._transitions(m, [38, 2, 5]).items():
            assert [a.tobytes() for a in jump] == [a.tobytes() for a in fresh[k]], k
            assert not any(a.flags.writeable for a in jump[:2])

    def test_factor_residual_on_a_badly_scaled_model(self):
        # |Sigma_inf| about 1e10 with eigenvalues down to 1.3
        Q = [[0.95, 4000.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.5]]
        m = raw_model(Q, np.eye(3), NoiseSpec.gaussian_d([1.0, 0.0, 0.0], np.eye(3)))
        S = m.stationary_cov
        assert 1e10 <= np.abs(S).max() <= 2e10
        F = psd_factor(S)
        assert np.abs(F @ F.T - S).max() <= 1e-14 * np.abs(S).max()
        draws = sample_stationary(m, 1000, seed=55).samples[:, 0]
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_blocks_and_chunks_do_not_change_the_draws(self, monkeypatch, threads):
        n = 2 * _pool.BLOCK + 500  # three blocks, the last one partial
        make, x, _ = EXACT_CASES["non_normal"]
        m, times = make(), (0, 1, 2, 6, 7, 15)

        def run_all():
            return (
                simulate_paths(m, x, SimConfig(n, 15, 57), times=times).samples,
                sample_stationary(m, n, seed=57).samples,
            )

        monkeypatch.setenv("ERGOBOUND_THREADS", "1")
        ref = run_all()
        monkeypatch.setenv("ERGOBOUND_THREADS", threads)
        for values in (1, sim._CHUNK_VALUES, 4 * _pool.BLOCK * 3):
            monkeypatch.setattr(sim, "_CHUNK_VALUES", values)
            for a, b in zip(ref, run_all()):
                np.testing.assert_array_equal(a, b)
        # every block draws from a stream of its own
        assert not np.allclose(ref[1][:500], ref[1][2 * _pool.BLOCK:])


class TestSampleStationary:
    def test_scalar_variance(self):
        m = ar1(0.5)
        ens = sample_stationary(m, 40_000, seed=11, eps_stat=1e-4)
        draws = ens.samples[:, 0, 0]
        var = draws.var(ddof=1)
        se = draws.std(ddof=1) ** 2 * math.sqrt(2.0 / (len(draws) - 1))  # var stderr
        assert var == pytest.approx(4.0 / 3.0, abs=4 * se + 1e-4)

    def test_zero_q_single_term(self):
        m = ar1(0.0)
        ens = sample_stationary(m, 100, seed=5)
        assert ens.provenance["truncation"] == 0
        # with T = 0 the draws are exactly Sigma xi_0
        rng_draws = ens.samples[:, 0, 0]
        assert np.abs(rng_draws).max() < 10

    def test_laplace_mean(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.8, 1.0))
        n = 40_000
        ens = sample_stationary(m, n, seed=13, eps_stat=1e-4)
        draws = ens.samples[:, 0, 0]
        want = bnd.stationary_mean(m)[0]
        se = draws.std(ddof=1) / math.sqrt(n)
        assert draws.mean() == pytest.approx(want, abs=4 * se + 1e-4)

    def test_truncation_formula(self):
        m = ar1(0.5)
        star = build_star_norm(m.Q)
        T = truncation_horizon(m, 1e-3, star)
        m1, _ = m.noise.abs_moment_sigma(m.Sigma, 1.0)
        tail = star.K_d * m1 * star.value ** (T + 1) / (1 - star.value)
        assert tail <= 1e-3
        if T > 0:
            prev = star.K_d * m1 * star.value**T / (1 - star.value)
            assert prev > 1e-3

    def test_truncation_audit(self):
        # widening the truncation moves the statistics by less than the budget
        m = ar_state_space([0.3, 0.4], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        star = build_star_norm(m.Q)
        eps = 1e-3
        T = truncation_horizon(m, eps, star)
        a = sample_stationary(m, 30_000, seed=17, truncation=T, star=star)
        b = sample_stationary(m, 30_000, seed=17, truncation=T + 10, star=star)
        for k in range(2):
            xa, xb = a.samples[:, 0, k], b.samples[:, 0, k]
            se = (xa.std() + xb.std()) / math.sqrt(len(xa))
            assert abs(xa.mean() - xb.mean()) <= eps + 3 * se

    def test_determinism(self):
        m = ar1(0.7)
        a = sample_stationary(m, 64, seed=23)
        b = sample_stationary(m, 64, seed=23)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_independent_of_path_streams(self):
        # stationary draws and path draws with the same seed are distinct streams
        m = ar1(0.7)
        paths = simulate_paths(m, [0.0], SimConfig(n_paths=16, horizon=1, seed=23))
        stat = sample_stationary(m, 16, seed=23, truncation=0)
        assert not np.allclose(paths.samples[:, 1, 0], stat.samples[:, 0, 0])

    def test_moment_guard(self):
        m = ar_state_space([0.5], noise1d=NoiseSpec.student_t(0.9, 1.0))
        with pytest.raises(MomentUnavailable):
            sample_stationary(m, 10, seed=1)

    def test_unstable_rejected(self):
        m = ar_state_space([1.5, 0.8], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        with pytest.raises(NotSchurStable):
            sample_stationary(m, 10, seed=1)

    @pytest.mark.parametrize("truncation", [-1, 2.5, "3"])
    def test_truncation_checked(self, truncation):
        m = ar_state_space([0.5], noise1d=NoiseSpec.laplace(0.0, 1.0))
        with pytest.raises(ValueError, match="truncation must be an integer of at least 0"):
            sample_stationary(m, 10, seed=1, truncation=truncation)
        # integers of any kind pass
        ens = sample_stationary(m, 10, seed=1, truncation=np.int64(3))
        assert ens.provenance["truncation"] == 3

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_truncation_budget_checked(self, eps):
        with pytest.raises(ValueError, match="eps_stat must be positive and finite"):
            sample_stationary(ar1(0.5), 10, seed=1, eps_stat=eps)

    def test_foreign_star_norm_raises(self):
        # the star norm of another dimension is refused as by every bound flavor
        m = ar_state_space([0.5, 0.2], [0.0], NoiseSpec.laplace(0.0, 1.0))
        star3 = build_star_norm(ar_state_space([0.5, 0.2, 0.1]).Q)
        with pytest.raises(DimensionMismatch, match="star norm dimension"):
            sample_stationary(m, 10, seed=1, star=star3)
        with pytest.raises(DimensionMismatch, match="star norm dimension"):
            truncation_horizon(m, 1e-3, star3)

    def test_scalar_driven_series_keeps_rows_not_matrices(self):
        # one (T + 1, d, d) stack of Q^j Sigma for this Laplace AR(40) at T = 2000 would
        # alone be 25.6 MB; the rows G Sigma^T (Q^T)^j of its one driver take 0.64 MB
        phi = np.random.default_rng(0).uniform(-1.0, 1.0, 40)
        m = ar_state_space(0.9 * phi / np.abs(phi).sum(), noise1d=NoiseSpec.laplace(0.0, 1.0))
        m.star  # set-up, not series
        tracemalloc.start()
        try:
            ens = sample_stationary(m, 200, seed=3, truncation=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.samples.shape == (200, 1, 40) and np.all(np.isfinite(ens.samples))
        assert peak < 2001 * 40 * 40 * 8 / 10

    @pytest.mark.parametrize("make", [
        lambda: ar_state_space([0.5, 0.3, 0.1], noise1d=NoiseSpec.laplace(0.2, 1.0)),
        lambda: arma_state_space([0.5, 0.2], [0.4, 0.3], NoiseSpec.student_t(5.0, 1.0)),
    ], ids=["ar3", "arma22"])
    def test_series_matches_matrix_powers(self, make):
        # the truncated series against sum_j eps_j Q^j Sigma u on the same draws.  With
        # gamma = d u / (1 - d u) and M_j = |Q|^j |Sigma| |u|, both the rows (a product of
        # j + 1 factors) and np.linalg.matrix_power (any product tree) are off by at most
        # ((1 + gamma)^(j+1) - 1) M_j, and summing the T + 1 rounded terms eps_j r_j adds
        # gamma_(T+1) sum_j |eps_j| (1 + gamma)^(j+1) M_j (Higham, 2002, 3.5 and 4.2)
        m, n, T = make(), 64, 80
        ens = sample_stationary(m, n, seed=5, truncation=T)
        # one block: its drivers, step by step, are one draw of (T + 1) n values
        eps = m.noise.sampler()(_pool.stream_rng(5, _pool.STATIONARY), (T + 1) * n)
        eps = eps.reshape(T + 1, n)
        u, unit = m.noise.direction, np.finfo(float).eps / 2
        assert np.count_nonzero(u) == (1 if m.provenance["kind"] == "ar" else 2)
        gamma, gamma_sum = (k * unit / (1 - k * unit) for k in (m.d, T + 1))
        ref, bound = np.zeros((n, m.d)), np.zeros((n, m.d))
        M = np.abs(m.Sigma) @ np.abs(u)
        for j in range(T + 1):
            ref += eps[j][:, None] * (np.linalg.matrix_power(m.Q, j) @ (m.Sigma @ u))
            grow = (1 + gamma) ** (j + 1)
            bound += np.abs(eps[j])[:, None] * ((grow - 1 + gamma_sum * grow) * M)
            M = np.abs(m.Q) @ M
        assert bound.max() < 1e-12
        assert np.all(np.abs(ens.samples[:, 0, :] - ref) <= 2 * bound)


class TestEmpiricalMeanProcess:
    def test_input_checks_match_simulate_paths(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        for call in (
            lambda x, h: empirical_mean_process(m, 4, x, h, seed=1),
            lambda x, h: simulate_paths(m, x, SimConfig(n_paths=4, horizon=h, seed=1)),
        ):
            with pytest.raises(ValueError, match="horizon must be an integer of at least 1"):
                call([1.0, 0.0], 0)
            # the start check of every bound (``bounds._start``)
            with pytest.raises(DimensionMismatch, match="x must have length d = 2"):
                call([1.0, 0.0, 2.0], 5)
            for bad in ([math.nan, 0.0], [0.0, math.inf]):
                with pytest.raises(ValueError, match="x must be finite"):
                    call(bad, 3)
        # both take their path count and horizon checks from errors.as_count
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            empirical_mean_process(m, 0, [1.0, 0.0], 5, seed=1)
        with pytest.raises(ValueError, match="n_paths must be an integer of at least 1"):
            SimConfig(n_paths=0, horizon=4, seed=1)
        with pytest.raises(ValueError, match="horizon must be an integer of at least 1"):
            SimConfig(n_paths=4, horizon=0, seed=1)

    def test_non_finite_recursion_residual_raises(self):
        # the mean overflows to inf, so the residual is NaN: it must not pass the check
        m = ar_state_space([1.2, -0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="recursion residual nan exceeds tolerance"):
            empirical_mean_process(m, 3, [1e308, 0.0], 5, seed=0)

    def test_n1_is_single_path(self):
        m = ar_state_space([0.3, 0.5], [0.0], NoiseSpec.laplace(0.0, 1.0))
        single = simulate_paths(m, [1.0, 0.0], SimConfig(n_paths=1, horizon=10, seed=31))
        avg = empirical_mean_process(m, 1, [1.0, 0.0], 10, seed=31)
        np.testing.assert_allclose(avg.samples[0], single.samples[0], atol=1e-14)

    def test_recursion_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            A = rng.standard_normal((d, d))
            A *= 0.7 / np.abs(np.linalg.eigvals(A)).max()
            m = raw_model(A, np.eye(d), NoiseSpec.gaussian_d(np.zeros(d), np.eye(d)))
            for n in (1, 3, 10):
                ens = empirical_mean_process(m, n, rng.normal(size=d), 15, seed=int(rng.integers(1e6)))
                assert ens.provenance["recursion_residual"] <= 1e-12 * (
                    1 + np.abs(ens.samples).max()
                )

    def test_variance_scales_inversely(self):
        m = ar1(0.5)
        t = 6
        reps = 400
        for n, tol in ((4, 0.25),):
            vals = np.array(
                [
                    empirical_mean_process(m, n, [0.0], t, seed=s).samples[0, t, 0]
                    for s in range(reps)
                ]
            )
            single = simulate_paths(
                m, [0.0], SimConfig(n_paths=reps, horizon=t, seed=10_000)
            ).at_time(t)[:, 0]
            ratio = vals.var(ddof=1) / single.var(ddof=1)
            assert ratio == pytest.approx(1.0 / n, rel=tol)


class TestConvergenceEmbodiment:
    def test_sliced_distance_below_threshold_at_bound_crossing(self):
        # small-scale version of the ergodicity check: at the first t where
        # the generic upper bound dips under eps, the empirical sliced W1 is
        # already below 2 * eps (plus estimator slack)
        from ergobound.wasserstein import sliced_empirical

        m = ar_state_space([0.3, 0.4], [0.0], NoiseSpec.gaussian(0.0, 1.0))
        star = build_star_norm(m.Q)
        x = np.array([2.0, 0.0])
        eps = 0.05
        t_star = next(
            t
            for t in range(400)
            if bnd.generic_bounds(m, x, 1.0, t, star).upper <= eps
        )
        n = 20_000
        ens = simulate_paths(m, x, SimConfig(n_paths=n, horizon=t_star, seed=41), times=(t_star,))
        stat = sample_stationary(m, n, seed=41, eps_stat=eps / 10, star=star)
        est = sliced_empirical(ens.at_time(t_star), stat.samples[:, 0, :], 1.0, 256, seed=2)
        assert est.value <= 2 * eps + 3 * est.stderr
