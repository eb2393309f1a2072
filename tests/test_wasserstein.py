import itertools
import math
import sys

import numpy as np
import pytest

from ergobound import _pool
from ergobound.errors import DimensionMismatch, NotPSD, NotSymmetric, UnequalSampleSizes
from ergobound.linalg import psd_sqrt
from ergobound.wasserstein import (
    EmpiricalEstimate,
    GaussianLaw,
    empirical_w1d,
    gaussian_w2,
    gaussian_w2_rows,
    gaussian_wr_1d,
    _log_sphere_moment_ratio,
    _projection_jobs,
    _sliced_directions,
    _sorted_projections,
    sliced_empirical,
    sliced_empirical_sweep,
)


# Orders the sorted (comonotone) coupling does not serve: below 1 (a concave cost), not finite.
BAD_ORDERS = [0.0, 0.5, -1.0, math.inf, math.nan]


def random_law(rng, d):
    M = rng.standard_normal((d, d))
    return GaussianLaw(rng.normal(size=d), M @ M.T + 0.05 * np.eye(d))


class TestGaussianW2:
    def test_one_dimensional(self):
        a = GaussianLaw([0.0], [[1.0]])
        b = GaussianLaw([1.0], [[4.0]])
        assert gaussian_w2(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_identical(self):
        rng = np.random.default_rng(0)
        a = random_law(rng, 3)
        assert gaussian_w2(a, a) <= 1e-10

    def test_commuting_diagonal(self):
        a = GaussianLaw([0.0, 0.0], np.diag([1.0, 4.0]))
        b = GaussianLaw([0.0, 0.0], np.diag([4.0, 1.0]))
        assert gaussian_w2(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = random_law(rng, 3), random_law(rng, 3)
            assert gaussian_w2(a, b) == pytest.approx(gaussian_w2(b, a), rel=1e-9, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c = (random_law(rng, 3) for _ in range(3))
            assert gaussian_w2(a, c) <= gaussian_w2(a, b) + gaussian_w2(b, c) + 1e-9

    def test_mean_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_law(rng, 4), random_law(rng, 4)
            assert gaussian_w2(a, b) >= np.linalg.norm(a.mean - b.mean) - 1e-10

    def test_bures_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_law(rng, 3)
            b = random_law(rng, 3)
            centered = gaussian_w2(
                GaussianLaw(np.zeros(3), a.cov), GaussianLaw(np.zeros(3), b.cov)
            )
            assert centered**2 >= -1e-10

    def test_tensorization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dims = [int(rng.integers(1, 4)) for _ in range(3)]
            laws_a = [random_law(rng, d) for d in dims]
            laws_b = [random_law(rng, d) for d in dims]
            prod_a = GaussianLaw(
                np.concatenate([l.mean for l in laws_a]),
                _block_diag([l.cov for l in laws_a]),
            )
            prod_b = GaussianLaw(
                np.concatenate([l.mean for l in laws_b]),
                _block_diag([l.cov for l in laws_b]),
            )
            per_block = math.sqrt(
                sum(gaussian_w2(x, y) ** 2 for x, y in zip(laws_a, laws_b))
            )
            assert gaussian_w2(prod_a, prod_b) == pytest.approx(per_block, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_w2(GaussianLaw([0.0], [[1.0]]), GaussianLaw([0.0, 0.0], np.eye(2)))
        with pytest.raises(DimensionMismatch):
            gaussian_w2_rows(np.zeros((3, 2)), np.zeros((2, 2, 2)),
                             GaussianLaw([0.0, 0.0], np.eye(2)))


def reference_w2(a, b):
    """The law-at-a-time W2: the standard-deviation gap in one dimension, else two
    checked roots and the Bures trace form."""
    dm = a.mean - b.mean
    if a.dim == 1:
        ds = math.sqrt(max(float(a.cov[0, 0]), 0.0)) - math.sqrt(max(float(b.cov[0, 0]), 0.0))
        return math.hypot(float(dm[0]), ds)
    ra = psd_sqrt(a.cov)
    cross = psd_sqrt(ra @ b.cov @ ra)
    bures = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return math.sqrt(float(dm @ dm) + max(bures, 0.0))


class TestGaussianW2Rows:
    @pytest.mark.parametrize("d", [1, 2, 5, 10, 40])
    def test_rows_are_per_law_bit_for_bit(self, d):
        from ergobound import bounds as bnd
        from ergobound.model import ar_state_space

        rng = np.random.default_rng(d)
        # the time-t laws of an AR(d) from a far start (rank-deficient while t < d)
        # against its stationary law, and random laws against a random one
        phi = rng.uniform(-1.0, 1.0, d)
        m = ar_state_space(0.9 * phi / np.abs(phi).sum())
        cases = [(bnd._laws(m, 3.0 * np.ones(d), list(range(2 * d + 3))), bnd.stationary_law(m))]
        low = rng.standard_normal((d, max(d - 1, 1)))
        laws = [random_law(rng, d) for _ in range(5)] + [GaussianLaw(np.zeros(d), low @ low.T)]
        cases.append((laws, random_law(rng, d)))
        for laws, b in cases:
            rows = gaussian_w2_rows([a.mean for a in laws], [a.cov for a in laws], b)
            want = [reference_w2(a, b) for a in laws]
            assert rows.tobytes() == np.array(want).tobytes()
            assert [gaussian_w2(a, b) for a in laws] == want

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), NotSymmetric),
        (np.diag([1.0, -0.5]), NotPSD),
        (np.array([[np.inf]]), ValueError),
    ])
    def test_one_bad_law_fails_the_stack(self, bad, error):
        d = bad.shape[0]
        b = GaussianLaw(np.zeros(d), np.eye(d))
        if np.isfinite(bad).all():
            with pytest.raises(error):
                gaussian_w2(GaussianLaw(np.zeros(d), bad), b)
        covs = np.array([np.eye(d)] * 3)
        covs[1] = bad
        with pytest.raises(error):
            gaussian_w2_rows(np.zeros((3, d)), covs, b)


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


class TestEmpiricalW1d:
    def test_two_point_brute_force(self):
        xs, ys = [0.0, 1.0], [1.0, 2.0]
        # brute-force over both pairings of two points
        brute = min(
            ((abs(xs[0] - ys[p[0]]) + abs(xs[1] - ys[p[1]])) / 2)
            for p in itertools.permutations([0, 1])
        )
        assert empirical_w1d(xs, ys, 1.0).value == pytest.approx(brute)

    def test_identical_samples(self):
        xs = np.random.default_rng(6).standard_normal(100)
        assert empirical_w1d(xs, xs, 2.0).value == 0.0

    def test_shift_linearity(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(500)
        for r in (1.0, 2.0, 3.5):
            for u in (-1.3, 0.4, 2.0):
                assert empirical_w1d(xs, xs + u, r).value == pytest.approx(abs(u), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        xs, ys = rng.standard_normal(300), rng.standard_normal(300)
        u = 0.73
        a = empirical_w1d(xs + u, ys, 2.0).value
        b = empirical_w1d(xs, ys - u, 2.0).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        xs, ys = rng.standard_normal(300), rng.standard_normal(300)
        for c in (-2.0, 0.5):
            assert empirical_w1d(c * xs, c * ys, 1.5).value == pytest.approx(
                abs(c) * empirical_w1d(xs, ys, 1.5).value, rel=1e-12
            )

    def test_monotone_in_order(self):
        rng = np.random.default_rng(10)
        xs, ys = rng.standard_normal(400), 2 * rng.standard_normal(400) + 1
        values = [empirical_w1d(xs, ys, r).value for r in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_unequal_sizes(self):
        with pytest.raises(UnequalSampleSizes):
            empirical_w1d([1.0, 2.0], [1.0], 1.0)


    @pytest.mark.parametrize("r", BAD_ORDERS)
    def test_order_outside_convex_costs_raises(self, r):
        with pytest.raises(ValueError, match="order r"):
            empirical_w1d([0.0, 1.0, 3.0], [0.5, 2.0, 2.5], r)


class TestGaussianWr1d:
    @pytest.mark.parametrize("r", BAD_ORDERS)
    def test_order_outside_convex_costs_raises(self, r):
        with pytest.raises(ValueError, match="order r"):
            gaussian_wr_1d(0.0, 1.0, 0.5, 2.0, r)

    def test_pure_shift(self):
        assert gaussian_wr_1d(0.0, 1.0, 2.5, 1.0, 3.0) == pytest.approx(2.5, abs=1e-12)

    def test_folded_normal_first_moment(self):
        # E|Z| = sqrt(2/pi); Monte Carlo oracle agrees
        rng = np.random.default_rng(11)
        z = rng.standard_normal(1_000_000)
        se = np.abs(z).std() / 1000
        got = gaussian_wr_1d(0.0, 1.0, 0.0, 2.0, 1.0)
        assert got == pytest.approx(math.sqrt(2 / math.pi), abs=2e-4)
        assert got == pytest.approx(np.abs(z).mean(), abs=3 * se)

    def test_r2_matches_gaussian_w2(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            got = gaussian_wr_1d(m1, s1, m2, s2, 2.0)
            want = gaussian_w2(GaussianLaw([m1], [[s1**2]]), GaussianLaw([m2], [[s2**2]]))
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_r(self):
        vals = [gaussian_wr_1d(0.3, 1.0, 0.0, 2.0, r) for r in (1.0, 2.0, 3.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_exact_first_moment(self):
        # E|Z| = sqrt(2/pi) and E|mu + Z| = sqrt(2/pi) exp(-mu^2/2) + mu erf(mu/sqrt 2)
        assert gaussian_wr_1d(0.0, 1.0, 0.0, 2.0, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-14
        )
        mu = -0.3
        want = math.sqrt(2 / math.pi) * math.exp(-mu * mu / 2) + mu * math.erf(mu / math.sqrt(2))
        assert gaussian_wr_1d(0.0, 1.0, mu, 2.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_gaussian_wr_1d_mean_gap_far_above_sd_gap():
    # a standard-deviation gap at rounding level leaves the mean gap
    for r in (1.0, 3.0, 4.0):
        assert gaussian_wr_1d(0.0, 1.0, 2.0, 1.0 + 2e-16, r) == pytest.approx(2.0, rel=1e-15)


class TestSlicedEmpirical:
    def test_identical_samples(self):
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((200, 3))
        assert sliced_empirical(xs, xs, 1.0, seed=0).value == 0.0

    def test_shift_matches_sphere_ratio(self):
        rng = np.random.default_rng(14)
        xs = rng.standard_normal((2000, 2))
        u = np.array([1.5, -0.7])
        est = sliced_empirical(xs, xs + u, 1.0, n_directions=512, seed=3)
        want = np.linalg.norm(u) * 2 / math.pi
        assert est.value == pytest.approx(want, abs=3 * est.stderr + 1e-9)

    def test_equispaced_deterministic(self):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal((500, 2))
        u = np.array([1.0, 1.0])
        est = sliced_empirical(xs, xs + u, 1.0, n_directions=256, mode="equispaced")
        assert est.stderr == 0.0
        # equispaced quadrature of |<u, v>| over the half circle
        ang = np.pi * np.arange(128) / 128
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        want = np.abs(dirs @ u).mean()
        assert est.value == pytest.approx(want, rel=1e-9)

    def test_seed_determinism(self):
        rng = np.random.default_rng(16)
        xs, ys = rng.standard_normal((300, 3)), rng.standard_normal((300, 3))
        a = sliced_empirical(xs, ys, 2.0, seed=7)
        b = sliced_empirical(xs, ys, 2.0, seed=7)
        assert a == b

    def test_sweep_matches_single_calls(self):
        rng = np.random.default_rng(17)
        ys = rng.standard_normal((400, 2))
        xs_list = [rng.standard_normal((400, 2)) for _ in range(3)]
        swept = sliced_empirical_sweep(xs_list, ys, 1.5, n_directions=64, seed=5)
        for xs, got in zip(xs_list, swept):
            want = sliced_empirical(xs, ys, 1.5, n_directions=64, seed=5)
            assert got == want

    def test_sweep_matches_per_step_reference(self):
        # the sweep as first written: fresh projections, variances and gaps per step
        rng = np.random.default_rng(19)
        ys = rng.standard_normal((300, 3))
        xs_list = [rng.standard_normal((300, 3)) + 0.1 * t for t in range(4)]
        r, n_dirs, seed = 1.5, 64, 11
        dirs, _ = _sliced_directions(3, n_dirs, seed, "random")
        py = np.sort(dirs @ ys.T, axis=1)
        swept = sliced_empirical_sweep(xs_list, ys, r, n_directions=n_dirs, seed=seed)
        for xs, got in zip(xs_list, swept):
            powers = (np.abs(np.sort(dirs @ xs.T, axis=1) - py) ** r).mean(axis=1)
            tr = float(np.var(xs, axis=0, ddof=1).sum() + np.var(ys, axis=0, ddof=1).sum())
            shift_se = math.exp(_log_sphere_moment_ratio(3, r) / r) * math.sqrt(tr / 300)
            mean_pow = float(powers.mean())
            value = mean_pow ** (1.0 / r)
            se_dir = float(powers.std(ddof=1) / math.sqrt(len(powers))) * value / (r * mean_pow)
            assert got.value == value
            assert got.stderr == math.hypot(se_dir, shift_se)

    @pytest.mark.parametrize("n_directions", [0, -3])
    def test_nonpositive_n_directions_raise(self, n_directions):
        xs = np.zeros((10, 2))
        with pytest.raises(ValueError, match="n_directions"):
            sliced_empirical(xs, xs + 1.0, n_directions=n_directions)
        with pytest.raises(ValueError, match="n_directions"):
            sliced_empirical_sweep([xs], xs, n_directions=n_directions, mode="equispaced")

    def test_self_distance_shrinks_with_n(self):
        rng = np.random.default_rng(18)
        vals = []
        for n in (200, 2000, 20000):
            xs = rng.standard_normal((n, 2))
            ys = rng.standard_normal((n, 2))
            vals.append(sliced_empirical(xs, ys, 1.0, seed=1).value)
        assert vals[2] < vals[1] < vals[0]

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            sliced_empirical(np.zeros((10, 1)), np.ones((10, 1)))

    @pytest.mark.parametrize("r", BAD_ORDERS)
    def test_order_outside_convex_costs_raises(self, r):
        xs = np.random.default_rng(20).standard_normal((50, 2))
        with pytest.raises(ValueError, match="order r"):
            sliced_empirical(xs, xs + 1.0, r, n_directions=8)

    @pytest.mark.parametrize("r", BAD_ORDERS)
    def test_sweep_order_outside_convex_costs_raises(self, r):
        xs = np.random.default_rng(21).standard_normal((50, 2))
        with pytest.raises(ValueError, match="order r"):
            sliced_empirical_sweep([xs, xs + 1.0], xs, r, n_directions=8)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_key_range_raises(self, seed):
        xs = np.random.default_rng(22).standard_normal((50, 2))
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            sliced_empirical(xs, xs + 1.0, 1.0, n_directions=8, seed=seed)

    def test_random_directions_come_from_the_directions_stream(self):
        v = _pool.stream_rng(5, _pool.DIRECTIONS).standard_normal((4, 3))
        dirs, deterministic = _sliced_directions(3, 8, 5, "random")
        assert not deterministic
        np.testing.assert_array_equal(dirs, v / np.linalg.norm(v, axis=1)[:, None])


# (d, n, r, n_directions, mode).  With at least 32 distinct directions the
# work splits into several jobs, each with a last column tile wider than the
# others or, for n off 16, zero-padded to a multiple of 16 columns; fewer
# directions run as one job.
WORKER_CASES = {
    "d2_ragged_tiles": (2, 3 * 4096 + 48, 1.0, 256, "random"),
    "d3_r1.5": (3, 2 * 2720 + 16, 1.5, 100, "random"),
    "d5": (5, 3 * 1632 + 64, 1.0, 70, "random"),
    "equispaced": (2, 2 * 4096 + 16, 1.5, 96, "equispaced"),
    "n_off_16": (5, 1025, 1.0, 64, "random"),
    "one_direction": (2, 4096 + 32, 1.0, 1, "random"),
    "three_directions": (3, 4096 + 32, 1.5, 3, "random"),
}


def padded_projections(dirs, xs):
    """One untiled product of ``xs`` zero-padded to a multiple of 16 rows, cut back to ``n``."""
    n = xs.shape[0]
    pad = np.zeros((-(-n // 16) * 16, xs.shape[1]))
    pad[:n] = xs
    return (dirs @ pad.T)[:, :n]


@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_worker_count_does_not_change_sliced_output(monkeypatch, case):
    # jobs and tiles are fixed by the shape, so any worker count gives the
    # same bits, which are those of one untiled product per step of the
    # zero-padded sample; a shortened switch interval interleaves the workers
    # finely
    d, n, r, n_dirs, mode = WORKER_CASES[case]
    rng = np.random.default_rng(23)
    ens = rng.standard_normal((n, 3, d))
    ys = rng.standard_normal((n, d))
    xs_list = [ens[:, t, :] + 0.3 * t for t in range(3)]  # strided, as ``at_time`` gives
    jobs = _projection_jobs((n_dirs + 1) // 2, n, d)
    if n_dirs >= 64:
        assert len(jobs) > 1
        widths = [np.diff(cols) for _, _, cols in jobs]
        assert all(w[-1] % 16 == 0 for w in widths)
        assert any(cols[-1] > n for _, _, cols in jobs) if n % 16 else any(
            len(set(w)) > 1 for w in widths)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ERGOBOUND_THREADS", threads)
            runs.append(sliced_empirical_sweep(xs_list, ys, r, n_dirs, seed=4, mode=mode))
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    dirs, _ = _sliced_directions(d, n_dirs, 4, mode)
    py = np.sort(padded_projections(dirs, ys), axis=1)
    px = np.sort(padded_projections(dirs, xs_list[1]), axis=1)
    for lo, hi, cols in jobs:  # each job's tiled projections, bit for bit
        for xs, ref in ((ys, py), (xs_list[1], px)):
            got = _sorted_projections(xs, dirs[lo:hi], np.empty((hi - lo, cols[-1])), cols)
            assert got.tobytes() == ref[lo:hi].tobytes()
    for xs, got in zip(xs_list, runs[0]):
        powers = (np.abs(np.sort(padded_projections(dirs, xs), axis=1) - py) ** r).mean(axis=1)
        assert got.value == float(powers.mean()) ** (1.0 / r)


@pytest.mark.parametrize("d", [32, 40])
def test_deep_projections_are_one_product(monkeypatch, d):
    # from depth 32 on, all directions project in one untiled product, so the estimate is
    # that of plain numpy: one ``dirs @ xs.T``, a row sort and the mean of |diff|^r
    n, r, n_dirs = 1003, 1.5, 96
    rng = np.random.default_rng(d)
    xs, ys = rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 0.2
    assert _projection_jobs(n_dirs // 2, n, d) == [(0, n_dirs // 2, [0, n])]
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("ERGOBOUND_THREADS", threads)
        runs.append(sliced_empirical(xs, ys, r, n_dirs, seed=6))
    assert runs[1] == runs[0]
    dirs, _ = _sliced_directions(d, n_dirs, 6, "random")
    powers = (np.abs(np.sort(dirs @ xs.T, axis=1) - np.sort(dirs @ ys.T, axis=1)) ** r).mean(axis=1)
    assert runs[0].value == float(powers.mean()) ** (1.0 / r)


def test_sweep_scratch_is_per_job(monkeypatch):
    # numpy reports its buffers to tracemalloc: each of the two workers holds two
    # (at most 31, n rounded up to 16) blocks at a time, so the peak does not grow with
    # the 512 distinct directions; the rest is the (steps, directions) powers and
    # (n, d) variance temporaries
    import tracemalloc

    monkeypatch.setenv("ERGOBOUND_THREADS", "2")
    n, d, steps, n_dirs = 4001, 2, 5, 1024
    rng = np.random.default_rng(31)
    ys = rng.standard_normal((n, d))
    xs_list = [rng.standard_normal((n, d)) for _ in range(steps)]
    sliced_empirical_sweep(xs_list, ys, 1.0, 16, seed=1)  # warm
    tracemalloc.start()
    try:
        sliced_empirical_sweep(xs_list, ys, 1.0, n_dirs, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 2 * 31 * (n + 15) * 8 + 4 * steps * n_dirs * 8 + 4 * n * d * 8
    assert peak <= bound < n_dirs // 2 * n * 8, (peak, bound)


def test_empirical_estimate_defaults():
    est = EmpiricalEstimate(value=1.0)
    assert est.stderr == 0.0 and est.n_directions == 0
