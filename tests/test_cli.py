import json
import math

import numpy as np
import pytest

from ergobound.cli import main
from ergobound.model import NoiseSpec, ar_state_space, model_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_model(tmp_path, model, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_json(model)))
    return str(path)


class TestStability:
    def test_diamond_inline(self, capsys):
        code, out, _ = run(capsys, "stability", "--phi", "0.3,0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["stable"] is True
        assert obj["region"] == "diamond"

    def test_unstable_inline(self, capsys):
        code, out, _ = run(capsys, "stability", "--phi", "1.5,0.8")
        assert code == 0
        obj = json.loads(out)
        assert obj["stable"] is False

    def test_boundary_model_file(self, capsys, tmp_path):
        from ergobound.model import raw_model

        m = raw_model(np.eye(2), np.eye(2), NoiseSpec.gaussian(0.0, 1.0).lift([1.0, 0.0]))
        code, out, _ = run(capsys, "stability", "--model", write_model(tmp_path, m))
        assert code == 0
        obj = json.loads(out)
        assert obj["boundary"] is True

    def test_sufficient_flags(self, capsys):
        # negative coefficient lists need the --phi=... spelling under argparse
        code, out, _ = run(capsys, "stability", "--phi=-0.9,-0.5,-0.1")
        obj = json.loads(out)
        assert "enestrom_kakeya" in obj["sufficient_flags"]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "stability", "--phi", "0.3;0.5")
        assert code == 2

    def test_missing_model_exit_3(self, capsys):
        code, _, _ = run(capsys, "stability")
        assert code == 3

    def test_bad_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "stability", "--model", str(bad))
        assert code == 3


class TestModelArgs:
    @pytest.mark.parametrize("family, partial, full", [
        ("gaussian", "0.5", "0.5,1"),
        ("laplace", "0.5", "0.5,1"),
        ("student_t", "5", "5,1"),
    ])
    def test_missing_noise_params_take_family_defaults(self, capsys, family, partial, full):
        def paths(params):
            code, out, err = run(capsys, "simulate", "--phi", "0.5", "--paths", "3",
                                 "--horizon", "3", "--seed", "1", "--noise", family,
                                 "--noise-params", params)
            assert code == 0, err
            return out

        assert paths(partial) == paths(full)

    @pytest.mark.parametrize("family, params", [
        ("gaussian", "0,1,2"), ("student_t", "5,1,1"), ("uniform", "1,2"), ("point_mass", "0,1"),
    ])
    def test_extra_noise_params_exit_2(self, capsys, family, params):
        code, _, err = run(capsys, "bounds", "--phi", "0.5", "--flavor", "generic",
                           "--noise", family, "--noise-params", params)
        assert code == 2, err

    @pytest.mark.parametrize("command", ["stability", "bounds", "simulate"])
    def test_non_finite_model_file_exit_3(self, capsys, tmp_path, command):
        doc = model_to_json(ar_state_space([0.3, 0.5]))
        doc["Q"][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--model", str(path))
        assert code == 3, err


class TestBounds:
    def test_gauss_affine_row_values(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--phi", "0.5", "--flavor", "gauss_affine",
            "--r", "2", "--t-max", "2", "--x", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,lower,upper")
        row = lines[3].split(",")
        assert float(row[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(row[2]) == pytest.approx(0.5 + math.sqrt(3) / 24, rel=1e-12)
        assert row[5] == "gauss_affine"

    def test_exact_ar1_curve(self, capsys):
        from ergobound.bounds import exact_w2_ar1

        code, out, _ = run(
            capsys, "bounds", "--phi", "0.5", "--flavor", "exact_ar1",
            "--t-max", "4", "--x", "2",
        )
        assert code == 0
        for t, line in enumerate(out.strip().splitlines()[1:]):
            cells = line.split(",")
            want = exact_w2_ar1(0.5, 1.0, 2.0, t)
            assert float(cells[1]) == pytest.approx(want, rel=1e-15)
            assert float(cells[2]) == pytest.approx(want, rel=1e-15)

    def test_t_max_zero_single_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--phi", "0.5", "--t-max", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_precondition_exit_4(self, capsys):
        # gaussian flavor on laplace noise
        code, _, err = run(
            capsys, "bounds", "--phi", "0.5", "--noise", "laplace",
            "--flavor", "gauss_affine", "--t-max", "1",
        )
        assert code == 4

    def test_unstable_exit_4_names_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--phi", "1.5,0.8", "--t-max", "1")
        assert code == 4
        assert "NotSchurStable" in err

    def test_moment_unavailable_named(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--phi", "0.5", "--noise", "student_t",
            "--noise-params", "1.5,1", "--flavor", "generic", "--r", "2", "--t-max", "1",
        )
        assert code == 4
        assert "MomentUnavailable" in err

    def test_overflowing_constants_exit_4(self, capsys):
        # AR(100) with sum |phi| = 0.9 is Schur stable, but its contraction
        # constants grow like kappa^(d-1) and overflow float64
        w = np.random.default_rng(100).uniform(-1.0, 1.0, 100)
        phi = 0.9 * w / np.abs(w).sum()
        code, _, err = run(
            capsys, "bounds", "--phi=" + ",".join(repr(float(v)) for v in phi),
            "--flavor", "gauss_affine", "--t-max", "5",
        )
        assert code == 4
        assert err.startswith("OverflowError")
        assert "Traceback" not in err

    def test_roundtrip_float_precision(self, capsys, tmp_path):
        out_file = tmp_path / "bounds.csv"
        code, _, _ = run(
            capsys, "bounds", "--phi", "0.5", "--t-max", "3", "--x", "2",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        val = lines[1].split(",")[2]
        assert float(val) == float(format(float(val), ".17g"))
        assert (tmp_path / "bounds.csv.manifest.json").exists()

    def test_other_flavors_run(self, capsys):
        for extra in (
            ["--flavor", "sliced_generic", "--r", "1", "--noise", "laplace"],
            ["--flavor", "sliced_gauss", "--mode", "as_printed"],
            ["--flavor", "generic_diag"],
            ["--flavor", "projected", "--v", "1,0"],
            ["--flavor", "parallel", "--n-copies", "4", "--per-copy-flavor", "gauss_affine"],
            ["--flavor", "empirical_mean", "--n-copies", "3", "--noise", "laplace", "--r", "1"],
        ):
            code, out, err = run(
                capsys, "bounds", "--phi", "0.3,0.5", "--t-max", "2", "--x", "1,0", *extra
            )
            assert code == 0, (extra, err)
            rows = out.strip().splitlines()
            assert len(rows) == 4
            for row in rows[1:]:
                cells = row.split(",")
                assert float(cells[1]) <= float(cells[2]) * (1 + 1e-12)

    def test_kappa_policies(self, capsys):
        for policy in ("auto:3", "fixed:50", "optimize:5"):
            code, out, _ = run(
                capsys, "bounds", "--phi", "0.5", "--t-max", "1",
                "--kappa-policy", policy,
            )
            assert code == 0
        code, _, _ = run(
            capsys, "bounds", "--phi", "0.5", "--t-max", "1", "--kappa-policy", "bogus"
        )
        assert code == 2


    def test_library_rows_bit_for_bit(self, capsys):
        from ergobound import bounds as bnd
        from ergobound.linalg import build_star_norm

        def cli_rows(*argv):
            code, out, err = run(capsys, "bounds", "--t-max", "6", "--r", "1.5", "--seed", "3",
                                 "--n-copies", "3", "--v", "0.6,0.8", *argv)
            assert code == 0, err
            return [row.split(",")[1:5] for row in out.strip().splitlines()[1:]]

        def fields(rep):
            parts = (rep.lower, rep.upper, rep.mean_part, rep.noise_part)
            return [format(v, ".17g") for v in parts]

        m = ar_state_space([0.3, 0.5], None, NoiseSpec.gaussian(0.0, 1.0))
        star, x, v = build_star_norm(m.Q), np.array([1.0, -0.5]), np.array([0.6, 0.8])
        calls = {
            "gauss_affine": lambda t: bnd.gaussian_affine_bounds(m, np.eye(2), x, 1.5, t, star),
            "projected": lambda t: bnd.projected_bounds(m, v, x, 1.5, t, star),
            "sliced_gauss": lambda t: bnd.sliced_gauss_bounds(m, x, 1.5, t, star),
            "generic": lambda t: bnd.generic_bounds(m, x, 1.5, t, star, mc_seed=3),
            "generic_diag": lambda t: bnd.diagonalizable_bounds(m, x, 1.5, t, star=star, mc_seed=3),
            "sliced_generic": lambda t: bnd.sliced_generic_bounds(m, x, 1.5, t, star, mc_seed=3),
            "parallel": lambda t: bnd.parallel_bounds(
                bnd.generic_bounds(m, x, 1.5, t, star, mc_seed=3), 3, 1.5),
            "empirical_mean": lambda t: bnd.empirical_mean_bounds(m, 3, x, 1.5, t, star, mc_seed=3),
        }
        for flavor, call in calls.items():
            rows = cli_rows("--phi", "0.3,0.5", "--x=1,-0.5", "--flavor", flavor)
            assert rows == [fields(call(t)) for t in range(7)], flavor
        rows = cli_rows("--phi", "0.5", "--x", "2", "--flavor", "exact_ar1")
        assert rows == [fields(bnd.exact_ar1_report(0.5, 1.0, 2.0, t)) for t in range(7)]
        assert set(calls) | {"exact_ar1"} == set(bnd.FLAVORS)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--flavor", "gauss_affine", "--t-max", "50"],
        ["bounds", "--flavor", "projected", "--v", "1,0", "--t-max", "50"],
        ["bounds", "--flavor", "parallel", "--per-copy-flavor", "sliced_gauss", "--t-max", "50"],
        ["validate", "--flavor", "gauss_affine", "--t-max", "50"],
        ["validate", "--flavor", "sliced_gauss", "--t-max", "5", "--n-samples", "200"],
    ])
    def test_one_stationary_solve_per_command(self, capsys, count_calls, argv):
        solves = count_calls("stationary_covariance")
        code, _, err = run(capsys, *argv, "--phi", "0.3,0.5", "--x", "1,0")
        assert code == 0, err
        assert len(solves) == 1

    def test_empirical_mean_averaged_moment_once(self, capsys, monkeypatch, tmp_path):
        # d = 3 vector Gaussian noise: the averaged noise's order-p moment is a
        # quadrature, which a sweep should run once, not once per row
        from ergobound import model as mdl
        from ergobound.model import raw_model

        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        Sigma = np.diag([1.0, 0.5, 2.0])
        m = raw_model(0.6 * A / np.abs(np.linalg.eigvals(A)).max(), Sigma,
                      NoiseSpec.gaussian_d(rng.normal(size=3), A @ A.T + np.eye(3)))
        averaged = Sigma @ m.noise.covariance() @ Sigma.T / 4
        covs = []
        quad = mdl._gauss_norm_moment
        monkeypatch.setattr(mdl, "_gauss_norm_moment",
                            lambda mu, S, p: covs.append(S) or quad(mu, S, p))
        code, out, err = run(capsys, "bounds", "--model", write_model(tmp_path, m),
                             "--flavor", "empirical_mean", "--n-copies", "4", "--r", "1.5",
                             "--t-max", "49")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 51
        assert sum(np.allclose(S, averaged, rtol=1e-12, atol=0.0) for S in covs) == 1

    @pytest.mark.parametrize("argv", [
        ["--flavor", "projected"],
        ["--flavor", "parallel", "--per-copy-flavor", "parallel"],
        ["--per-copy-flavor", "bogus"],
    ])
    def test_bad_flavor_arguments_exit_2(self, capsys, argv):
        try:
            code = main(["bounds", "--phi", "0.3,0.5", "--t-max", "1", *argv])
        except SystemExit as exc:  # argparse rejects the command line itself
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "validate", "simulate"])
    def test_start_state_length_checked(self, capsys, command):
        code, _, err = run(capsys, command, "--phi", "0.3,0.5", "--x", "1,2,3")
        assert code == 4
        assert "--x must have length d" in err


class TestValidate:
    def test_gaussian_exact_between_bounds(self, capsys):
        code, out, err = run(
            capsys, "validate", "--phi", "0.5", "--flavor", "gauss_affine",
            "--r", "2", "--t-max", "10", "--x", "2",
        )
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["violations"] == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 11
        assert all(r.split(",")[5] == "1" for r in rows)

    def test_point_mass_zero_stderr(self, capsys):
        code, out, err = run(
            capsys, "validate", "--phi", "0.5", "--noise", "point_mass",
            "--noise-params", "0", "--flavor", "generic", "--r", "1",
            "--t-max", "4", "--x", "2", "--n-samples", "50",
        )
        assert code == 0
        for t, row in enumerate(out.strip().splitlines()[1:]):
            cells = row.split(",")
            # deterministic recursion: the empirical distance is |q^t (x - 0)|
            assert float(cells[2]) == pytest.approx(0.5**t * 2.0, rel=1e-10)
            assert float(cells[3]) == 0.0

    def test_summary_to_stdout_with_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "val.csv"
        code, out, _ = run(
            capsys, "validate", "--phi", "0.5", "--flavor", "gauss_affine",
            "--t-max", "3", "--x", "1", "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        assert out_file.exists()

    def test_multivariate_generic_rejected(self, capsys):
        code, _, _ = run(
            capsys, "validate", "--phi", "0.3,0.5", "--noise", "laplace",
            "--flavor", "generic", "--t-max", "2", "--n-samples", "100",
        )
        assert code == 4

    def test_sliced_validation_runs(self, capsys):
        code, out, err = run(
            capsys, "validate", "--phi", "0.3,0.5", "--noise", "laplace",
            "--flavor", "sliced_generic", "--r", "1", "--t-max", "4",
            "--n-samples", "2000", "--n-directions", "64",
        )
        assert code == 0
        assert json.loads(err.strip().splitlines()[-1])["violations"] == 0

    def test_out_of_regime_violation_exit_5(self, capsys):
        # deterministic drift model: the stationary sampler truncates the
        # series at a bias budget of --eps, so once the upper bound decays
        # below that bias the empirical distance floors above it and the
        # sandwich check must report a violation (exit 5)
        code, out, err = run(
            capsys, "validate", "--phi", "0.9", "--noise", "point_mass",
            "--noise-params", "1", "--flavor", "generic", "--r", "1",
            "--t-max", "120", "--x", "2", "--n-samples", "20", "--eps", "1e-3",
        )
        assert code == 5
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["violations"] > 0


class TestSimulate:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--phi", "0.3,0.5", "--paths", "2",
                "--horizon", "3", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["config"]["paths"] == 2
        assert man["config"]["horizon"] == 3
        assert man["seed"] == 7

    def test_point_mass_matches_recursion(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--phi", "0.5", "--noise", "point_mass",
            "--noise-params", "1", "--paths", "1", "--horizon", "4", "--x", "0",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        state = 0.0
        for row in rows:
            _, _, val = row.split(",")
            assert float(val) == pytest.approx(state, abs=1e-15)
            state = 0.5 * state + 1.0

    def test_io_failure_exit_6(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "simulate", "--phi", "0.5", "--paths", "1", "--horizon", "2",
            "--out", str(tmp_path / "nope" / "deep" / "x.csv"),
        )
        assert code == 6
