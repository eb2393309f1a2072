import hashlib
import json
import math

import numpy as np
import pytest

from ergobound.cli import main
from ergobound.model import NoiseSpec, ar_state_space, model_to_json, raw_model


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

    @pytest.mark.parametrize("command", ["stability", "bounds", "simulate"])
    @pytest.mark.parametrize("noise", [
        {"family": "gaussian", "params": {"mean": None, "var": 1.0, "direction": [1.0, 0.0]}},
        {"family": "gaussian", "params": [1, 2]},
        "gaussian",
        {"family": "laplace", "params": {"loc": [0.0, 0.0], "scale": [-1.0, 1.0]}},
        {"family": "laplace", "params": {"loc": [0.0, 0.0], "scale": [1.0, 1.0, 1.0]}},
        {"family": "student_t", "params": {"df": 0.0, "scale": [1.0, 1.0]}},
        {"family": "uniform", "params": {"half_width": [-1.0, 1.0]}},
        {"family": "gaussian", "params": {"mean": [0.0, 0.0], "cov": [1.0, 0.0, 0.0, -1.0]}},
        {"family": "gaussian", "params": {"mean": [0.0, 0.0], "cov": [1.0, 0.5, 0.0, 1.0]}},
        {"family": "gaussian", "params": {"mean": 0.0, "var": 10**400, "direction": [1.0, 0.0]}},
        {"family": "gaussian", "params": {"mean": 0.0, "var": 1.0, "direction": 1.0}},
    ], ids=["mean_null", "params_list", "noise_string", "laplace_scale", "laplace_length",
            "student_t_df", "uniform_half_width", "cov_not_psd", "cov_not_symmetric",
            "var_past_float", "direction_number"])
    def test_malformed_noise_in_model_file_exit_3(self, capsys, tmp_path, command, noise):
        doc = model_to_json(ar_state_space([0.3, 0.5]))
        doc["noise"] = noise
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--model", str(path))
        assert code == 3, err
        assert err.startswith("invalid model: ")


@pytest.mark.parametrize("command", ["bounds", "validate"])
def test_negative_t_max_exit_2(capsys, tmp_path, command):
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, command, "--phi", "0.5", "--t-max", "-3", "--out", str(out))
    assert code == 2
    assert "--t-max must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "validate"])
@pytest.mark.parametrize(
    "policy", ["fixed:nan", "fixed:inf", "auto:nan", "auto:inf", "auto:1", "optimize:-3"]
)
def test_invalid_kappa_policy_exit_2(capsys, tmp_path, lapack_calls, monkeypatch, command,
                                     policy):
    from ergobound import linalg

    monkeypatch.setattr(linalg, "_SCHUR", [(None, None)])  # no Schur form remembered
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, command, "--phi", "0.5", "--t-max", "2",
                       "--kappa-policy", policy, "--out", str(out))
    assert code == 2
    assert "bad kappa policy" in err
    assert not out.exists()
    assert lapack_calls["schur"] == 0  # refused before the model's Schur form


def test_unsliced_generic_validate_refused_before_any_work(capsys, tmp_path, lapack_calls,
                                                          monkeypatch, count_calls):
    from ergobound import linalg

    monkeypatch.setattr(linalg, "_SCHUR", [(None, None)])  # no Schur form remembered
    sweeps = count_calls("sweep")
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, "validate", "--phi=1.2,-0.5", "--flavor", "generic",
                       "--t-max", "300", "--x=2,0", "--out", str(out))
    assert code == 4
    assert err.startswith("ValueError: empirical validation of the unsliced generic flavor "
                          "needs d = 1; use sliced_generic for multivariate models")
    assert not out.exists()
    assert lapack_calls["schur"] == 0 and sweeps == []  # refused before the star norm


@pytest.mark.parametrize("n_directions", ["0", "-3"])
def test_nonpositive_n_directions_exit_2(capsys, tmp_path, n_directions):
    out = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "validate", "--phi", "0.5,0.2", "--noise", "laplace", "--flavor",
        "sliced_generic", "--t-max", "2", "--n-samples", "100", "--n-directions",
        n_directions, "--out", str(out),
    )
    assert code == 2
    assert "--n-directions must be positive" in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "-1e-3", "nan", "inf"])
def test_bad_eps_exit_2(capsys, tmp_path, eps):
    out = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "validate", "--phi", "0.5,0.2", "--noise", "laplace", "--flavor",
        "sliced_generic", "--t-max", "2", "--n-samples", "100", f"--eps={eps}", "--out", str(out),
    )
    assert code == 2
    assert "--eps must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["bounds", "validate", "simulate"])
def test_non_finite_start_state_exit_2(capsys, tmp_path, command, x):
    out = tmp_path / "rows.csv"
    sizes = ["--horizon", "1", "--paths", "2"] if command == "simulate" else ["--t-max", "1"]
    code, stdout, err = run(capsys, command, "--phi=0.5", f"--x={x}", *sizes, "--out", str(out))
    assert code == 2
    assert "--x must be finite" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("v", ["nan,1", "0.6,inf", "-inf,0.8"])
def test_non_finite_direction_exit_2(capsys, tmp_path, v):
    out = tmp_path / "rows.csv"
    code, stdout, err = run(capsys, "bounds", "--phi=0.5,0.1", "--flavor", "projected",
                            f"--v={v}", "--t-max", "2", "--out", str(out))
    assert code == 2
    assert "--v must be finite" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--flavor", "parallel", "--n-copies", "0"], "--n-copies must be positive"),
    (["bounds", "--flavor", "empirical_mean", "--n-copies", "-2"], "--n-copies must be positive"),
    (["simulate", "--paths", "0"], "--paths must be positive"),
    (["simulate", "--horizon", "0"], "--horizon must be positive"),
    (["validate", "--noise", "laplace", "--flavor", "sliced_generic", "--n-samples", "0"],
     "--n-samples must be positive"),
])
def test_malformed_count_exit_2(capsys, tmp_path, argv, message):
    out = tmp_path / "rows.csv"
    code, stdout, err = run(capsys, *argv, "--phi=0.5,0.1", "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["bounds", "--t-max", "100000000000000000"],
    ["simulate", "--paths", "100000000000000000", "--horizon", "10"],
    ["validate", "--noise", "laplace", "--flavor", "generic", "--n-samples",
     "100000000000000000", "--t-max", "2"],
])
def test_unallocatable_size_exit_4(capsys, argv):
    # 1e17 steps or paths ask for exabytes, beyond any 64-bit address space, so the
    # first allocation fails at once under any overcommit setting
    code, stdout, err = run(capsys, *argv, "--phi=0.5")
    assert code == 4
    assert err.startswith("MemoryError: ") and err.count("\n") == 1, err
    assert stdout == ""


@pytest.mark.parametrize("r", ["nan", "inf", "0.5"])
@pytest.mark.parametrize("flavor", ["gauss_affine", "generic"])
@pytest.mark.parametrize("command", ["bounds", "validate"])
def test_bad_order_exit_2(capsys, tmp_path, command, flavor, r):
    out = tmp_path / "rows.csv"
    code, stdout, err = run(capsys, command, "--phi=0.5", "--flavor", flavor, f"--r={r}",
                            "--t-max", "2", "--out", str(out))
    assert code == 2
    assert "--r must be finite and at least 1" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", ["bounds", "validate", "simulate"])
def test_seed_out_of_range_exit_2(capsys, tmp_path, command, seed):
    # the seed keys the upper 64 bits of each Philox stream: -1 used to alias 2**64 - 1
    out = tmp_path / "rows.csv"
    flavor = [] if command == "simulate" else ["--flavor", "generic"]
    code, stdout, err = run(capsys, command, "--phi=0.5", "--noise", "laplace", *flavor,
                            f"--seed={seed}", "--out", str(out))
    assert code == 2
    assert "--seed must be in [0, 2**64)" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
def test_seed_range_ends_accepted(capsys, seed):
    code, _, err = run(capsys, "simulate", "--phi=0.5", "--noise", "laplace", "--paths", "3",
                       "--horizon", "2", f"--seed={seed}")
    assert code == 0, err
    code, _, err = run(capsys, "validate", "--phi=0.5", "--noise", "laplace", "--flavor",
                       "generic", "--t-max", "2", "--n-samples", "20", f"--seed={seed}")
    assert code in (0, 5), err


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

    def test_exact_ar1_takes_any_centered_1d_gaussian_model(self, capsys, tmp_path):
        # vector-layout noise of the same law as the inline AR(1)'s scalar one: same rows
        model = raw_model([[0.5]], [[1.0]], NoiseSpec.gaussian_d([0.0], [[1.0]]))
        argv = ("bounds", "--flavor", "exact_ar1", "--t-max", "6", "--x", "2")
        inline = run(capsys, *argv, "--phi", "0.5")
        from_file = run(capsys, *argv, "--model", write_model(tmp_path, model))
        assert inline[0] == from_file[0] == 0, from_file[2]
        assert from_file[1] == inline[1]

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

    def test_optimized_kappa_at_ar100_is_finite(self, capsys):
        # the kappa scan meets kappas whose norm or K_d overflows; they score inf
        w = np.random.default_rng(0).uniform(-1.0, 1.0, 100)
        phi = "--phi=" + ",".join(repr(float(v)) for v in 0.9 * w / np.abs(w).sum())
        rows = {}
        for policy in ("optimize:10", "auto"):
            code, out, err = run(capsys, "bounds", phi, "--flavor", "generic", "--x=1" + ",0" * 99,
                                 "--kappa-policy", policy, "--t-max", "10")
            assert code == 0, err
            rows[policy] = [[float(f) for f in line.split(",")[1:3]]
                            for line in out.strip().splitlines()[1:]]
        assert np.all(np.isfinite(rows["optimize:10"]))
        assert all(opt[1] <= auto[1] for opt, auto in zip(rows["optimize:10"], rows["auto"]))

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
            "generic": lambda t: bnd.generic_bounds(m, x, 1.5, t, star),
            "generic_diag": lambda t: bnd.diagonalizable_bounds(m, x, 1.5, t, star=star),
            "sliced_generic": lambda t: bnd.sliced_generic_bounds(m, x, 1.5, t, star),
            "parallel": lambda t: bnd.parallel_bounds(
                bnd.generic_bounds(m, x, 1.5, t, star), 3, 1.5),
            "empirical_mean": lambda t: bnd.empirical_mean_bounds(m, 3, x, 1.5, t, star),
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
        solves = count_calls("solve_stein")
        code, _, err = run(capsys, *argv, "--phi", "0.3,0.5", "--x", "1,0")
        assert code == 0, err
        assert len(solves) == 1

    @pytest.mark.parametrize("argv", [
        ["bounds", "--phi", "0.3,0.5", "--flavor", "gauss_affine", "--kappa-policy", "optimize:20"],
        ["bounds", "--phi", "0.3,0.5", "--flavor", "generic", "--kappa-policy", "fixed:1000"],
        ["validate", "--phi", "0.3,0.5", "--flavor", "gauss_affine", "--kappa-policy", "auto"],
        ["validate", "--phi", "0.3,0.5", "--flavor", "sliced_generic", "--n-samples", "200",
         "--t-max", "3", "--kappa-policy", "optimize:5"],
    ])
    def test_one_schur_form_per_command(self, capsys, count_calls, argv):
        # the star norm of any kappa policy and Sigma_inf share the model's Schur form
        schur_forms, eigens = count_calls("schur_triangularize"), count_calls("eigen")
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert (len(schur_forms), len(eigens)) == (1, 0)

    @pytest.mark.parametrize("noise", [NoiseSpec.laplace_d([0.0, 0.0], [1.0, 0.5]),
                                       NoiseSpec.student_t_d(4.5, [1.0, 0.5]),
                                       NoiseSpec.uniform_d([1.0, 2.0])])
    def test_exact_moments_seed_free(self, capsys, tmp_path, noise):
        # Sigma = I: the coupling flavors' moments are exact, so --seed changes nothing
        from ergobound.model import raw_model

        path = write_model(tmp_path, raw_model([[0.5, 1.0], [0.0, -0.4]], np.eye(2), noise))
        for flavor in ("generic", "sliced_generic", "empirical_mean"):
            for r in ("1", "1.5"):
                files = []
                for seed in ("1", "2"):
                    out = str(tmp_path / f"{flavor}-{r}-{seed}.csv")
                    code, _, err = run(capsys, "bounds", "--model", path, "--flavor", flavor,
                                       "--r", r, "--t-max", "20", "--x", "1,-2",
                                       "--seed", seed, "--out", out)
                    assert code == 0, err
                    files.append(open(out, "rb").read())
                assert files[0] == files[1]

    def test_empirical_mean_averaged_moment_once(self, capsys, monkeypatch, tmp_path):
        # d = 3 vector Gaussian noise: the exact per-n route reads generic's order-p moment
        # of Sigma xi, a quadrature a sweep runs once, and no moment of the averaged noise
        from ergobound import model as mdl
        from ergobound.model import raw_model

        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        Sigma = np.diag([1.0, 0.5, 2.0])
        m = raw_model(0.6 * A / np.abs(np.linalg.eigvals(A)).max(), Sigma,
                      NoiseSpec.gaussian_d(rng.normal(size=3), A @ A.T + np.eye(3)))
        C = m.noise.covariance()
        full = Sigma @ C @ Sigma.T
        calls = []
        quad = mdl._gauss_norm_moment
        monkeypatch.setattr(mdl, "_gauss_norm_moment",
                            lambda mu, S, p: calls.append((S, p)) or quad(mu, S, p))
        code, out, err = run(capsys, "bounds", "--model", write_model(tmp_path, m),
                             "--flavor", "empirical_mean", "--n-copies", "4", "--r", "1.5",
                             "--t-max", "49")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 51

        def quadratures(S, p=None):
            """The calls on covariance ``S`` (of order ``p`` when given)."""
            return sum(np.allclose(T, S, rtol=1e-12, atol=0.0) and (p is None or q == p)
                       for T, q in calls)

        assert quadratures(full, 1.5) == 1
        assert quadratures(full / 4) == quadratures(C / 4) == 0

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
    def test_start_state_length_checked(self, capsys, tmp_path, command):
        out = tmp_path / "rows.csv"
        code, _, err = run(capsys, command, "--phi", "0.3,0.5", "--x", "1,2,3", "--out", str(out))
        assert code == 2
        assert "--x must have length d" in err
        assert not out.exists()


def sweep_battery():
    """``(model, x, v)`` by name: AR(1) and AR(2) Gaussian, ARMA(2,1) Laplace, and a
    non-normal d = 3 raw model with Student-t(4.5) noise."""
    from ergobound.model import arma_state_space, raw_model

    nonnormal = np.array([[0.9, 5.0, 0.0], [0.0, 0.8, 5.0], [0.0, 0.0, -0.7]])
    return {
        "ar1_gauss": (ar_state_space([0.7], None, NoiseSpec.gaussian(0.0, 1.3)), [2.0], [1.0]),
        "ar2_gauss": (ar_state_space([1.2, -0.5]), [2.0, 0.0], [0.6, 0.8]),
        "arma21_laplace": (arma_state_space([0.5, 0.2], [0.4], NoiseSpec.laplace(0.0, 1.0)),
                           [1.0, 0.5, -0.3], [0.0, 0.6, 0.8]),
        "raw3_student": (raw_model(nonnormal, np.eye(3), STUDENT_3D), [1.0, -1.0, 0.5],
                         [0.0, 0.6, 0.8]),
    }


# Kept across builds, so the reference side solves its moments once.
STUDENT_3D = NoiseSpec.student_t_d(4.5, [1.0, 0.5, 2.0])


class TestSweepRows:
    """``bounds`` makes one sweep per command; its rows are the per-step reports."""

    @pytest.mark.parametrize("flavor", ["generic", "sliced_generic", "empirical_mean", "parallel"])
    def test_unused_lambda_minus_is_nan_and_never_solved(self, capsys, tmp_path, flavor):
        # rho = 0.9983 with entries near 1e4: the Stein solve for Sigma_inf misses its residual
        # cap, and no coupling bound reads lambda_minus, so the run exits 0 with a nan column
        Q = np.array([[-2132.3204598137177, 306.7500592907816],
                      [-14822.355313326687, 2132.3058325091083]])
        m = raw_model(Q, np.eye(2), NoiseSpec.gaussian_d(np.zeros(2), np.eye(2)))
        code, out, err = run(capsys, "bounds", "--model", write_model(tmp_path, m),
                             "--flavor", flavor, "--t-max", "2", "--x", "1,1")
        assert code == 0, err
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["nan"] * 3

    @pytest.mark.parametrize("flavor", ["exact_ar1", "gauss_affine", "projected", "sliced_gauss",
                                        "generic", "generic_diag", "sliced_generic", "parallel",
                                        "empirical_mean"])
    @pytest.mark.parametrize("name", sorted(sweep_battery()))
    def test_rows_are_per_step_reports(self, capsys, tmp_path, name, flavor):
        from ergobound import bounds as bnd
        from ergobound.linalg import build_star_norm

        m, x, v = sweep_battery()[name]
        code, out, err = run(capsys, "bounds", "--model", write_model(tmp_path, m),
                             "--flavor", flavor, "--r", "1.5", "--t-max", "30", "--seed", "2",
                             "--n-copies", "3", "--x=" + ",".join(map(repr, x)),
                             "--v=" + ",".join(map(repr, v)))
        star = build_star_norm(m.Q, {"auto_margin": 2.0})
        try:
            reps = [bnd.report(m, flavor, x, 1.5, t, star=star, v=v, n_copies=3)
                    for t in range(31)]
        except Exception as exc:  # noqa: BLE001 - the CLI names the same error
            assert code == 4 and out == ""
            assert err.startswith(f"{type(exc).__name__}: {exc}")
            return
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for t, (row, rep) in enumerate(zip(rows, reps, strict=True)):
            lam = rep.constants_used.get("lambda_minus", math.nan)  # nan where unused
            fields = (rep.lower, rep.upper, rep.mean_part, rep.noise_part, rep.order,
                      star.value, star.K_d, star.C_star, lam)
            assert row == [str(t), *(format(f, ".17g") for f in fields[:4]), rep.flavor,
                           *(format(f, ".17g") for f in fields[4:])]

    @pytest.mark.parametrize("flavor", ["exact_ar1", "gauss_affine", "generic", "sliced_generic",
                                        "sliced_gauss"])
    @pytest.mark.parametrize("name", sorted(sweep_battery()))
    def test_validate_rows_are_per_step_reports(self, capsys, tmp_path, name, flavor):
        from ergobound import bounds as bnd
        from ergobound.cli import _row
        from ergobound.linalg import build_star_norm
        from ergobound.sim import SimConfig, sample_stationary, simulate_paths
        from ergobound.wasserstein import empirical_w1d, gaussian_w2, sliced_empirical_sweep

        m, x, _ = sweep_battery()[name]
        code, out, err = run(capsys, "validate", "--model", write_model(tmp_path, m),
                             "--flavor", flavor, "--t-max", "30", "--seed", "2", "--n-samples",
                             "64", "--n-directions", "8", "--x=" + ",".join(map(repr, x)))
        star = build_star_norm(m.Q, {"auto_margin": 2.0})
        try:
            reps = [bnd.report(m, flavor, x, 2.0, t, star=star) for t in range(31)]
            if flavor in ("exact_ar1", "gauss_affine") and m.noise.family == "gaussian":
                refs = [(gaussian_w2(bnd.law_at(m, x, t), bnd.stationary_law(m)), 0.0)
                        for t in range(31)]
            else:
                ens = simulate_paths(m, x, SimConfig(64, 30, 2))
                stat = sample_stationary(m, 64, 2, eps_stat=1e-3, star=star).samples[:, 0, :]
                steps = [ens.at_time(t) for t in range(31)]
                if m.d == 1:
                    ests = [empirical_w1d(xs.ravel(), stat.ravel(), 2.0) for xs in steps]
                elif flavor == "generic":
                    raise ValueError("empirical validation of the unsliced generic flavor "
                                     "needs d = 1")
                else:
                    ests = sliced_empirical_sweep(steps, stat, 2.0, n_directions=8, seed=2)
                refs = [(e.value, e.stderr) for e in ests]
        except Exception as exc:  # noqa: BLE001 - the CLI names the same error
            assert code == 4 and out == ""
            assert err.startswith(f"{type(exc).__name__}: {str(exc)[:40]}")
            return
        assert code in (0, 5), err
        want = [_row(str(t), rep.lower, dist, se, rep.upper,
                     "1" if rep.lower - 3 * se <= dist <= rep.upper + 3 * se else "0")
                for t, (rep, (dist, se)) in enumerate(zip(reps, refs))]
        assert out.splitlines()[1:] == want

    def test_overflow_writes_no_csv(self, capsys, tmp_path):
        # C_star**2 overflows on this AR(100) before any row: exit 4, no partial file
        w = np.random.default_rng(100).uniform(-1.0, 1.0, 100)
        out = tmp_path / "b.csv"
        code, _, err = run(capsys, "bounds", "--phi=" + ",".join(repr(float(v)) for v in
                                                             0.9 * w / np.abs(w).sum()),
                           "--flavor", "gauss_affine", "--t-max", "50", "--out", str(out))
        assert code == 4 and err.startswith("OverflowError")
        assert not out.exists() and not (tmp_path / "b.csv.manifest.json").exists()


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


    def test_exact_column_is_one_neumann_sweep(self, capsys, count_calls, monkeypatch):
        # the exact Gaussian column resumes the kept Neumann sums through t = 0..t_max
        # instead of restarting the sum on every row
        from ergobound import bounds as bnd

        law_at_calls, advances, sums = count_calls("law_at"), [], bnd._neumann_sums

        def counted(model, t):
            (ref, at), _ = bnd._SUMS[0]
            at = at if ref is not None and ref() is model else 0
            advances.append(t - at if at <= t else t)
            return sums(model, t)

        monkeypatch.setattr(bnd, "_neumann_sums", counted)
        code, out, err = run(capsys, "validate", "--flavor", "gauss_affine", "--phi", "1.2,-0.5",
                             "--x", "2,0", "--t-max", "200")
        assert code in (0, 5), err
        assert len(out.strip().splitlines()) == 202
        assert law_at_calls == []
        assert len(advances) == 201 and sum(advances) == 200


    @pytest.mark.parametrize("argv", [
        ["--phi", "1.2,-0.5", "--noise", "laplace", "--flavor", "sliced_gauss", "--x", "2,0"],
        ["--phi", "0.5", "--noise", "laplace", "--flavor", "exact_ar1"],
        ["--phi", "0.5", "--noise", "student_t", "--noise-params", "1.5", "--flavor", "generic",
         "--r", "2"],
    ], ids=["sliced_gauss_laplace", "exact_ar1_laplace", "generic_student_df_1_5"])
    def test_refusal_costs_no_simulation(self, capsys, monkeypatch, argv):
        # the sweep runs before the references, so a flavor the model cannot take is
        # refused with the library's message and no path or stationary draw
        from ergobound import bounds as bnd
        from ergobound import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the sweep refused")

        monkeypatch.setattr(cli, "simulate_paths", forbidden)
        monkeypatch.setattr(cli, "sample_stationary", forbidden)
        code, out, err = run(capsys, "validate", *argv, "--t-max", "1000", "--n-samples", "20000")
        args = cli.build_parser().parse_args(["validate", *argv])
        model = cli._load_model(args)
        with pytest.raises(Exception) as exc:
            bnd.sweep(model, args.flavor, cli._start_state(args, model), args.r, range(1001))
        assert code == 4 and out == ""
        assert err == f"{type(exc.value).__name__}: {exc.value}\n"

    def test_exact_reference_draws_nothing(self, capsys, monkeypatch):
        from ergobound import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact Gaussian reference drew samples")

        monkeypatch.setattr(cli, "simulate_paths", forbidden)
        monkeypatch.setattr(cli, "sample_stationary", forbidden)
        code, out, err = run(capsys, "validate", "--phi", "1.2,-0.5", "--flavor", "gauss_affine",
                             "--x", "2,0", "--t-max", "50")
        assert code in (0, 5), err
        assert len(out.splitlines()) == 52


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

    @pytest.mark.parametrize("model_args, x", [
        (["--phi", "0.7"], "1.5"),
        (["--phi", "0.5,-0.2,0.1"], "1,0,-1"),
        (["--phi", "0.5,0.2", "--theta", "0.4"], "1,0.5,-0.3"),
        (["--model", "vector_laplace.json"], "1,-1"),
        # the lag coordinate of x2 at t = 1 is 0.0, not the -0.0 of x1 at t = 0
        (["--phi", "1.2,-0.5"], "-0,0"),
        # cells outside the array formatter's range, which Python formats
        (["--phi", "1.2,-0.5"], "0,1e-300"),
        (["--phi", "1.2,-0.5"], "1e20,0"),
        (["--phi", "0.5,-0.2,0.1"], "1e-300,0,-1e300"),
        (["--phi", "0.5", "--noise", "point_mass", "--noise-params", "1"], "0"),
    ])
    def test_rows_are_per_value_formats(self, capsys, tmp_path, model_args, x):
        from ergobound.cli import _load_model, build_parser
        from ergobound.sim import SimConfig, simulate_paths

        for fname, doc in PINNED_MODELS.items():
            (tmp_path / fname).write_text(json.dumps(doc))
        model_args = [str(tmp_path / a) if a in PINNED_MODELS else a for a in model_args]
        argv = ["simulate", *model_args, f"--x={x}", "--paths", "3", "--horizon", "60",
                "--seed", "4"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        model = _load_model(build_parser().parse_args(argv))
        ens = simulate_paths(model, [float(v) for v in x.split(",")], SimConfig(3, 60, 4))
        want = [",".join([str(i), str(t), *(format(v, ".17g") for v in ens.samples[i, k])])
                for i in range(3) for k, t in enumerate(ens.times)]
        assert out.splitlines()[1:] == want

    def test_out_file_is_written_path_by_path(self, tmp_path, monkeypatch):
        # numpy reports its buffers to tracemalloc: the run holds the ensemble and
        # what the simulation itself needs, plus a few paths' text, never the whole CSV
        import tracemalloc

        from ergobound.sim import SimConfig, simulate_paths

        monkeypatch.setenv("ERGOBOUND_THREADS", "2")
        model, paths, horizon = ar_state_space([1.2, -0.5]), 300, 400
        out = tmp_path / "s.csv"
        argv = ["simulate", "--phi", "1.2,-0.5", "--paths", str(paths), "--horizon",
                str(horizon), "--seed", "1", "--out", str(out)]
        peaks = []
        for job in (lambda: simulate_paths(model, [0.0, 0.0], SimConfig(paths, horizon, 1)),
                    lambda: main(argv)):
            job()  # warm: imports and cached model properties
            tracemalloc.start()
            try:
                job()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        path_text = out.stat().st_size / paths
        assert peaks[1] <= peaks[0] + 4 * path_text, (peaks, path_text)

    def test_long_path_is_written_batch_by_batch(self, tmp_path, monkeypatch):
        # one path longer than a batch: the text held is a few batches, not the path
        import tracemalloc

        from ergobound.cli import _SIMULATE_BATCH
        from ergobound.sim import SimConfig, simulate_paths

        monkeypatch.setenv("ERGOBOUND_THREADS", "2")
        model, paths, horizon = ar_state_space([1.2, -0.5]), 2, 50000
        out = tmp_path / "s.csv"
        argv = ["simulate", "--phi", "1.2,-0.5", "--paths", str(paths), "--horizon",
                str(horizon), "--seed", "1", "--out", str(out)]
        peaks = []
        for job in (lambda: simulate_paths(model, [0.0, 0.0], SimConfig(paths, horizon, 1)),
                    lambda: main(argv)):
            job()
            tracemalloc.start()
            try:
                job()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        batch_text = _SIMULATE_BATCH * out.stat().st_size / (paths * (horizon + 1))
        assert peaks[1] <= peaks[0] + 4 * batch_text, (peaks, batch_text)

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_rows_do_not_depend_on_the_batch(self, capsys, monkeypatch, batch):
        # lag chains longer than a batch restart at each batch's first row
        from ergobound import cli

        argv = ["simulate", "--phi", "0.4,-0.2,0.1,0.05,-0.1", "--x=1,0,-1,0.5,2", "--paths",
                "3", "--horizon", "20", "--seed", "4"]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "_SIMULATE_BATCH", batch)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want

    def test_empty_out_exit_2_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["bounds", "--phi", "0.5"], ["validate", "--phi", "0.5"],
                     ["simulate", "--phi", "0.5"]):
            code, out, err = run(capsys, *argv, "--out", "")
            assert code == 2, argv
            assert out == "" and "--out" in err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_main_builds_one_parser(self, capsys, monkeypatch):
        from ergobound import cli

        built = []

        def counted():
            built.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", [(None, None)])
        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (["stability", "--phi", "0.5"], ["bounds", "--phi", "0.5", "--t-max", "2"],
                     ["simulate", "--phi", "0.5", "--horizon", "2"]):
            assert run(capsys, *argv)[0] == 0
        assert built == [1]
        assert build_parser() is not cli._PARSER[0][1]  # a fresh parser per call, as before

    def test_options_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "bounds", "--phi", "0.5", "--seed", "5", "--out", str(a))[0] == 0
        assert run(capsys, "bounds", "--phi", "0.5", "--out", str(b))[0] == 0
        seeds = [json.loads((tmp_path / f"{p.name}.manifest.json").read_text())["seed"]
                 for p in (a, b)]
        assert seeds == [5, 0]

    def test_next_call_runs_after_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--phi", "0.5", "--flavor", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "stability", "--phi", "0.5")
        assert code == 0 and json.loads(out)["stable"] is True


def format_texts(values):
    """The text of each of ``values`` from ``format_17g``, NULs removed."""
    from ergobound._format import CELL, format_17g

    cells = format_17g(np.asarray(values, dtype=float))
    assert cells.shape == (np.size(values), CELL) and cells.dtype == np.uint8
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


class TestFormat17g:
    """``format_17g`` against ``'%.17g' %`` over about 1.1e6 values."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float).ravel()
        want = ["%.17g" % v for v in values.tolist()]
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), format_texts(values), want) if g != w]
        assert bad == [], bad[:10]

    def test_random_bit_patterns(self):
        # every class of float64: NaN payloads, +-inf, subnormals, +-0 and normals
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        self.check(np.concatenate([bits.view(np.float64), specials]))

    def test_normals_over_all_decades(self):
        rng = np.random.default_rng(18)
        self.check(rng.standard_normal(300_000) * 10.0 ** rng.integers(-300, 301, 300_000))

    def test_normals_in_and_around_the_array_range(self):
        rng = np.random.default_rng(19)
        self.check(rng.standard_normal(300_000) * 10.0 ** rng.integers(-8, 19, 300_000))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
        near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
        self.check(np.concatenate(near + [-p for p in near]))

    def test_ties_and_carries(self):
        # 18-digit values ending in 5 round half to even at the 17th digit
        rng = np.random.default_rng(20)
        ints = rng.integers(10**15, 2**51, 50_000).astype(float)
        ties = np.concatenate([ints + 0.25, ints + 0.75, ints + 0.5])
        self.check(np.concatenate([
            ties, -ties, [1234567890123456.75, 1234567890123456.25, 99999999999999999.0,
                          9999999999999999.0, 99999999999999984.0, 0.99999999999999989,
                          9.9999999999999995e-07, 1.0000000000000001e-06]]))

    def test_fixed_and_exponent_switches(self):
        # %g switches to exponent form below 1e-4 and from 1e17 on
        rng = np.random.default_rng(21)
        mantissas = rng.uniform(1.0, 10.0, 5_000)
        scales = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17]
        values = np.concatenate([mantissas * s for s in scales]
                                + [np.nextafter(np.array(scales), 0.0), scales])
        self.check(np.concatenate([values, -values]))


# Model files read by pinned runs, written next to their outputs under these names.
PINNED_MODELS = {
    "vector_laplace.json": {
        "d": 2, "Q": [0.5, 0.2, -0.1, 0.3], "Sigma": [1.0, 0.0, 0.4, 1.0],
        "noise": {"family": "laplace", "params": {"loc": [0.5, -0.25], "scale": [1.0, 0.5]}},
        "provenance": {"kind": "raw"},
    },
}

# SHA-256 of the data file and of its manifest for fixed runs.  Any change
# to a number or to the serialization shows up here; the digests hold for the
# float64 results of numpy's default BLAS/LAPACK on x86-64.
PINNED_RUNS = {
    "simulate_ar2": (
        ["simulate", "--phi", "1.2,-0.5", "--x", "2,0", "--paths", "5", "--horizon", "200",
         "--seed", "3"],
        "d417791e186202acab1bc51ca5c707a5aa4d3cc66db912cbf62dfd9e527d9fc9",
        "983912514e553b371d1f67b4ca8aa63ef1b7bdc23f8fdad7b918a0af3c2e9674",
    ),
    "simulate_ar3": (
        ["simulate", "--phi", "0.5,-0.2,0.1", "--x", "1,0,-1", "--paths", "5", "--horizon", "200",
         "--seed", "3"],
        "59a99bc0e4bcae1939afe673a75299b7416c3d9bdfc9dfcfbff53a5e8e274cee",
        "613fa4f20d409160648960de26da5edfd500421f8fa3a290602b79835048ef26",
    ),
    "validate_gauss_affine": (
        ["validate", "--flavor", "gauss_affine", "--phi", "1.2,-0.5", "--x", "2,0",
         "--t-max", "120"],
        "9f3e60326a01f72f1a106cf46f034a7f103a87635258d7f5f33734c69751fea2",
        "f8ecc096cb3246373b42c72c52b3f2e850d618b35aa50ede90e1c8e0e1774300",
    ),
    "simulate_ar2_laplace": (
        ["simulate", "--phi", "1.2,-0.5", "--x", "2,0", "--noise", "laplace",
         "--noise-params", "0.3,0.8", "--paths", "5", "--horizon", "50", "--seed", "3"],
        "40d736c1bcb1e13f774a74f5843c051973c753ca718c725da2a1da251891095d",
        "21edf840118232fc0b947f5dd46b82bf01241f0dc0dd9c2f13c01aff5f063500",
    ),
    "simulate_ar2_student_t": (
        ["simulate", "--phi", "1.2,-0.5", "--x", "2,0", "--noise", "student_t",
         "--noise-params", "4.5,0.7", "--paths", "5", "--horizon", "50", "--seed", "3"],
        "c19d84fce9b32c3c323f1f027f1dcc5189e7b4e3b168915b20fa10395c95d5d8",
        "feb209872cc46683369b1f27881c207a6d3a909a57e13b0d0d183185bea6e431",
    ),
    "simulate_vector_laplace": (
        ["simulate", "--model", "vector_laplace.json", "--x", "1,-1", "--paths", "5",
         "--horizon", "50", "--seed", "3"],
        "ebb71f795bf67f67fda79658a87a310dc5dee52b5a890ced4d42dfd4f5a278fd",
        "cb8306571a4dfbd3a43a81ce5009c6aa736a95c213c1fabb215faaa329db4074",
    ),
    # at r = 1 with s = |q| and K_d = 1 routes (a) and (b) agree in exact arithmetic, so the
    # rounding of each picks the winner: (a) on 57 of the 61 rows, each row with its own parts
    "bounds_generic_route_a": (
        ["bounds", "--phi=0.9", "--x", "1", "--flavor", "generic", "--r", "1", "--t-max", "60"],
        "c40b7b51575797da3370080df6bb2a495ecd80247c98e2557ba96ee0fe861f76",
        "7178d113640eba8dd19070f51b30409dd92ffd5070a523827443ffce0d2c4a67",
    ),
    # the exact per-n route b_exact_n gives the upper bound on all 61 rows
    "bounds_empirical_mean_exact_n": (
        ["bounds", "--phi=0.9", "--x", "1", "--flavor", "empirical_mean", "--n-copies", "4",
         "--r", "2", "--t-max", "60"],
        "12e5c6ee63456517aedddfb824d23b07cabf77568903d0fc9f7cc929945cadaa",
        "7e6ec2307e7102f9c9b71b9f4c517ea08d0af2be5233cec718d9fd8dcf9603bf",
    ),
}


class TestPinnedOutputs:
    @staticmethod
    def write(capsys, tmp_path, name):
        argv, _, _ = PINNED_RUNS[name]
        for fname, doc in PINNED_MODELS.items():
            (tmp_path / fname).write_text(json.dumps(doc))
        argv = [str(tmp_path / a) if a in PINNED_MODELS else a for a in argv]
        out = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code in (0, 5), err
        return out.read_bytes(), (tmp_path / f"{name}.csv.manifest.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_sha256_of_csv_and_manifest(self, capsys, tmp_path, name):
        data, manifest = self.write(capsys, tmp_path, name)
        _, data_sha, manifest_sha = PINNED_RUNS[name]
        assert hashlib.sha256(data).hexdigest() == data_sha
        assert hashlib.sha256(manifest).hexdigest() == manifest_sha

    @staticmethod
    def float_fields(data, skip):
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        for row in rows:
            for field in row[skip:]:
                assert format(float(field), ".17g") == field  # one spelling per float
        return rows

    def test_simulate_floats_parse_back_to_the_ensemble(self, capsys, tmp_path):
        from ergobound.sim import SimConfig, simulate_paths

        data, _ = self.write(capsys, tmp_path, "simulate_ar2")
        rows = self.float_fields(data, 2)
        ens = simulate_paths(ar_state_space([1.2, -0.5]), [2.0, 0.0], SimConfig(5, 200, 3))
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (i, t) for i in range(5) for t in ens.times
        ]
        parsed = np.array([[float(v) for v in r[2:]] for r in rows])
        assert parsed.tobytes() == ens.samples.reshape(-1, 2).tobytes()

    def test_validate_floats_parse_back_to_the_library_values(self, capsys, tmp_path):
        from ergobound import bounds as bnd
        from ergobound.linalg import build_star_norm
        from ergobound.wasserstein import gaussian_w2

        data, _ = self.write(capsys, tmp_path, "validate_gauss_affine")
        rows = self.float_fields(data, 1)
        m, x = ar_state_space([1.2, -0.5]), np.array([2.0, 0.0])
        star, stationary = build_star_norm(m.Q, {"auto_margin": 2.0}), bnd.stationary_law(m)
        assert len(rows) == 121
        for t, row in enumerate(rows):
            rep = bnd.report(m, "gauss_affine", x, 2.0, t, star=star)
            exact = gaussian_w2(bnd.law_at(m, x, t), stationary)
            assert [float(v) for v in row[1:5]] == [rep.lower, exact, 0.0, rep.upper]
