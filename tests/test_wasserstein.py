import itertools
import math

import numpy as np
import pytest

from ergobound.errors import DimensionMismatch, UnequalSampleSizes
from ergobound.wasserstein import (
    EmpiricalEstimate,
    GaussianLaw,
    empirical_w1d,
    gaussian_w2,
    gaussian_wr_1d,
    sliced_empirical,
    sliced_empirical_sweep,
)


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


class TestGaussianWr1d:
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


def test_empirical_estimate_defaults():
    est = EmpiricalEstimate(value=1.0)
    assert est.stderr == 0.0 and est.n_directions == 0
