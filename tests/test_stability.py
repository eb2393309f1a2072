import contextlib
import io
import json
import math

import numpy as np
import pytest

from ergobound.cli import main
from ergobound.model import NoiseSpec, ar_state_space, companion, raw_model, validate_model
from ergobound.stability import ar2_region, is_schur_stable, sufficient_tests


def ar2_radius_grid(p1, p2):
    """Vectorized quadratic-formula spectral radius of companion(p1, p2)."""
    disc = p1**2 + 4 * p2 + 0j
    root = np.sqrt(disc)
    return np.maximum(np.abs((p1 + root) / 2), np.abs((p1 - root) / 2))


class TestIsSchurStable:
    def test_companion_example(self):
        # roots of z^2 - 0.3 z - 0.5 by the quadratic formula
        rho = (0.3 + math.sqrt(0.3**2 + 4 * 0.5)) / 2
        v = is_schur_stable(companion([0.3, 0.5]))
        assert v.stable
        assert v.spectral_radius == pytest.approx(rho, abs=1e-10)
        assert v.margin == pytest.approx(1 - rho, abs=1e-10)

    def test_identity_boundary(self):
        v = is_schur_stable(np.eye(2))
        assert not v.stable
        assert v.boundary

    def test_zero_matrix(self):
        v = is_schur_stable(np.zeros((3, 3)))
        assert v.stable
        assert v.spectral_radius == 0.0

    @pytest.mark.parametrize("model", [
        ar_state_space([1.2, -0.5]), ar_state_space([0.3, 0.5]),
        ar_state_space([1.2, -0.5, 0.1]),
        raw_model(np.array([[0.9, 5.0, 0.0], [0.0, 0.8, 5.0], [0.0, 0.0, -0.7]]), np.eye(3),
                  NoiseSpec.gaussian_d(np.zeros(3), np.eye(3))),
    ], ids=["ar2_wing", "ar2_diamond", "ar3", "raw_nonnormal"])
    def test_radius_is_the_schur_radius(self, model):
        v = is_schur_stable(model.Q)
        assert v.spectral_radius == model.schur.spectral_radius  # bit for bit
        assert v.margin == 1.0 - model.schur.spectral_radius

    def test_command_makes_no_eig_call(self, lapack_calls):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["stability", "--phi", "0.61,-0.27,0.08"]) == 0
        assert lapack_calls["eig"] == 0
        radius = ar_state_space([0.61, -0.27, 0.08]).schur.spectral_radius
        assert json.loads(out.getvalue())["spectral_radius"] == radius


class TestAr2Region:
    def test_diamond(self):
        assert ar2_region(0.3, 0.5) == "diamond"

    def test_wing_example(self):
        # evaluate the angle criterion directly: 2 acos(0.9125) + acos(-0.19) < pi
        angle = 2 * math.acos((1 + 1.2**2 - 0.5**2) / (2 * 1.2)) + math.acos(
            (1 - 1.2**2 + 0.5**2) / (2 * 0.5)
        )
        assert angle < math.pi
        assert ar2_region(1.2, -0.5) == "wing"
        # cross-check: the root modulus is sqrt(0.5)
        assert abs(ar2_radius_grid(np.array(1.2), np.array(-0.5)) - math.sqrt(0.5)) < 1e-12

    def test_unstable(self):
        assert ar2_region(1.5, 0.8) == "unstable"

    def test_boundary_at_unit_root(self):
        assert ar2_region(1.0, 0.0) == "boundary"

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p1, p2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            assert ar2_region(p1, p2) == ar2_region(-p1, p2)

    def test_grid_agreement_with_root_oracle(self):
        g = np.linspace(-2, 2, 161)
        P1, P2 = np.meshgrid(g, g, indexing="ij")
        rho = ar2_radius_grid(P1, P2)
        keep = np.abs(rho - 1) > 1e-6
        for i, j in zip(*np.nonzero(keep)):
            label = ar2_region(P1[i, j], P2[i, j])
            assert label != "boundary"
            assert (label in ("diamond", "wing")) == (rho[i, j] < 1), (
                P1[i, j],
                P2[i, j],
                label,
                rho[i, j],
            )


class TestBoundaryTolerance:
    """A negative or non-finite tolerance is refused: a NaN one made every verdict unstable."""

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_rejected(self, tol):
        with pytest.raises(ValueError, match="boundary_tol must be nonnegative and finite"):
            is_schur_stable(companion([0.5]), boundary_tol=tol)
        with pytest.raises(ValueError, match="boundary_tol must be nonnegative and finite"):
            ar2_region(0.3, 0.5, boundary_tol=tol)
        with pytest.raises(ValueError, match="boundary_tol must be nonnegative and finite"):
            validate_model(ar_state_space([0.5]), 2.0, boundary_tol=tol)

    def test_zero_accepted(self):
        assert is_schur_stable(companion([0.5]), boundary_tol=0.0).stable
        assert ar2_region(1.0, 0.0, boundary_tol=0.0) == "boundary"
        assert validate_model(ar_state_space([0.5]), 2.0, boundary_tol=0.0).stable

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    def test_cli_exit_2(self, tol):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stability", "--phi", "0.5", f"--boundary-tol={tol}"])
        assert code == 2 and out.getvalue() == ""
        assert "--boundary-tol must be nonnegative and finite" in err.getvalue()


class TestSufficientTests:
    def test_enestrom_kakeya(self):
        flags = sufficient_tests([-0.9, -0.5, -0.1])
        assert "enestrom_kakeya" in flags
        assert is_schur_stable(companion([-0.9, -0.5, -0.1])).stable

    def test_cohn(self):
        assert "cohn" in sufficient_tests([0.2, 0.3, 0.1])

    def test_p3(self):
        phi = [0.3, 0.2, 0.1]
        assert abs(0.3 + 0.02) + abs(0.2 + 0.03) == pytest.approx(0.55)
        assert "p3_sufficient" in sufficient_tests(phi)
        assert is_schur_stable(companion(phi)).stable

    def test_p4_needs_zero_phi2(self):
        assert "p4_sufficient" in sufficient_tests([0.3, 0.0, 0.2, 0.1])
        assert "p4_sufficient" not in sufficient_tests([0.3, 0.01, 0.2, 0.1])

    def test_not_raised_outside(self):
        flags = sufficient_tests([1.5, 0.8])
        assert flags == set()

    def test_soundness_exhaustive_p3_grid(self):
        # every raised flag implies stability, on the full 101^3 coefficient grid
        g = np.linspace(-1, 1, 101)
        P1, P2, P3 = np.meshgrid(g, g, g, indexing="ij")
        p1, p2, p3 = P1.ravel(), P2.ravel(), P3.ravel()
        ek = (p1 > -1) & (p1 < p2) & (p2 < p3) & (p3 < 0)
        cohn = np.abs(p1) + np.abs(p2) + np.abs(p3) < 1
        p3s = np.abs(p1 + p2 * p3) + np.abs(p2 + p1 * p3) < 1 - p3**2
        flagged = ek | cohn | p3s
        # exclude a thin band around the flag-region edges
        margin = np.minimum(
            np.abs(np.abs(p1) + np.abs(p2) + np.abs(p3) - 1),
            np.abs(np.abs(p1 + p2 * p3) + np.abs(p2 + p1 * p3) - (1 - p3**2)),
        )
        flagged &= margin > 1e-9
        idx = np.nonzero(flagged)[0]
        comps = np.zeros((idx.size, 3, 3))
        comps[:, 0, 0] = p1[idx]
        comps[:, 0, 1] = p2[idx]
        comps[:, 0, 2] = p3[idx]
        comps[:, 1, 0] = 1.0
        comps[:, 2, 1] = 1.0
        rho = np.abs(np.linalg.eigvals(comps)).max(axis=1)
        boundary_band = np.abs(rho - 1) <= 1e-9
        assert np.all((rho < 1) | boundary_band), (
            f"{int(((rho >= 1) & ~boundary_band).sum())} flagged points unstable"
        )
