"""The four benchmark workloads: seeded inputs, timed phase and output checks.

Each workload is a class with three static methods:

- ``inputs(seed, tiny)`` builds plain numbers from the seed with numpy alone;
  it is part of set-up and calls nothing in ergobound.
- ``run(inp, ledger, tr, tmp)`` is the timed phase.  Every call into a
  package module goes through ``ledger.call`` with a span named
  ``<layer>.<operation>``, so the layers are measured from outside.
- ``check(inp, out, tmp)`` is untimed and returns an :class:`Outcome`: the
  output checks, the validated sandwich rows and a digest of the outputs,
  which must be identical in every pass of one seed.

``tiny=True`` shrinks every size for the smoke tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics

import numpy as np

import ergobound as eb
from ergobound import cli
from ergobound.errors import (
    NotDiagonalizable,
    OutOfRegime,
    SingularStationaryCovariance,
    ZeroEigenvalue,
)


class Ledger:
    """Operations attempted in a pass and those whose outcome fell outside its expected class.

    ``call`` returns the result, the exception itself when it is one of the
    ``allowed`` typed outcomes, or ``None`` when the call raised anything
    else, which counts as a failed operation.
    """

    def __init__(self, tracer):
        self.tr = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, span, fn, *args, allowed=(), **kwargs):
        self.attempted += 1
        try:
            return self.tr.call(span, fn, *args, **kwargs)
        except allowed as exc:
            return exc
        except Exception as exc:  # every other outcome is a failed operation
            self.failures.append(f"{span}: {type(exc).__name__}: {exc}")
            return None


class Outcome:
    """Result of the output checks of one pass."""

    def __init__(self, items: int):
        self.items = items
        self.bad: list[str] = []  # operations whose output failed a check
        self.rows = 0  # sandwich rows validated against a reference
        self.violations = 0
        self.log_tightness: list[float] = []
        self.rel_stderr: list[float] = []
        self.quality: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._digest = hashlib.sha256()

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.bad.append(what)
        return ok

    def validate(self, lower: float, upper: float, ref: float, se: float = 0.0) -> None:
        """One sandwich row: is ``ref`` inside ``[lower - 3 se, upper + 3 se]``?"""
        self.rows += 1
        if not (lower - 3.0 * se <= ref <= upper + 3.0 * se):
            self.violations += 1
        if ref > 0.0 and upper > 0.0:
            self.log_tightness.append(math.log10(upper / ref))

    def feed(self, *values) -> None:
        for v in values:
            self._digest.update(v if isinstance(v, bytes) else repr(v).encode())

    def summary(self) -> dict:
        q = dict(self.quality)
        q["violation_ratio"] = self.violations / self.rows if self.rows else None
        q["tightness_log10"] = statistics.median(self.log_tightness) if self.log_tightness else None
        q["mc_rel_stderr"] = statistics.median(self.rel_stderr) if self.rel_stderr else None
        return {
            "items": self.items,
            "bad": self.bad,
            "rows_validated": self.rows,
            "quality": q,
            "counts": self.counts,
            "digest": self._digest.hexdigest(),
        }


def _finite(*xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


def _report_ok(out: Outcome, rep, where: str) -> bool:
    return out.expect(
        _finite(rep.lower, rep.upper) and rep.lower <= rep.upper * (1.0 + 1e-12) + 1e-300,
        f"{where}: lower {rep.lower!r} > upper {rep.upper!r} or non-finite",
    )


def _in_proven_regime(rep) -> bool:
    return bool(
        rep.details.get("t_in_stated_range", True)
        and rep.details.get("coupling_regime_sound", True)
    )


def _stable_scaled_phi(rng, p: int) -> list[float]:
    """AR coefficients with ``sum |phi| = c < 1``, so the model is Schur stable."""
    w = rng.uniform(-1.0, 1.0, p)
    return (rng.uniform(0.5, 0.95) * w / np.abs(w).sum()).tolist()


# ---------------------------------------------------------------------------
# mc_sweep: the acceptance-04 pipeline


class McSweep:
    """Laplace AR(2), every step of a 30-step horizon, sliced W1 against stationary draws."""

    @staticmethod
    def inputs(seed: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {
            "phi": [1.2, -0.5],
            "x": [2.0, 0.0],
            "n": 300 if tiny else 10_000,
            "horizon": 5 if tiny else 30,
            "n_directions": 256,
            "sim_seed": int(rng.integers(2**31)),
            "dir_seed": int(rng.integers(2**31)),
        }

    @staticmethod
    def run(inp, L: Ledger, tr, tmp) -> dict:
        n, H, x = inp["n"], inp["horizon"], inp["x"]
        out = {}
        m = L.call(
            "model.build",
            lambda: eb.ar_state_space(inp["phi"], [0.0], eb.NoiseSpec.laplace(0.0, 1.0)),
        )
        if m is None:
            return out
        star = L.call("linalg.star_norm", eb.build_star_norm, m.Q)
        if star is None:
            return out
        tr.count("linalg.star_norm_calls")
        tr.high("linalg.schur_residual_max", star.schur_residual)
        ens = L.call(
            "sim.paths",
            eb.simulate_paths,
            m,
            x,
            eb.SimConfig(n_paths=n, horizon=H, seed=inp["sim_seed"]),
        )
        stat = L.call(
            "sim.stationary", eb.sample_stationary, m, n, inp["sim_seed"], eps_stat=1e-3, star=star
        )
        if ens is None or stat is None:
            return out
        T = stat.provenance["truncation"]
        tr.count("sim.path_draws", n * H)
        tr.count("sim.stationary_draws", n * (T + 1))
        tr.high("sim.truncation_T", T)
        tr.count("sim.kept_bytes", ens.samples.nbytes + stat.samples.nbytes)
        ests = L.call(
            "wasserstein.sliced",
            eb.sliced_empirical_sweep,
            [ens.at_time(t) for t in range(H + 1)],
            stat.samples[:, 0, :],
            1.0,
            inp["n_directions"],
            seed=inp["dir_seed"],
        )
        tr.count("wasserstein.sorted_values", n * ((inp["n_directions"] + 1) // 2) * (H + 2))
        reps = [
            L.call("bounds.report", eb.sliced_generic_bounds, m, x, 1.0, t, star)
            for t in range(H + 1)
        ]
        tr.count("bounds.reports", H + 1)
        out.update(ests=ests, reps=reps, T=T)
        return out

    @staticmethod
    def check(inp, out, tmp) -> Outcome:
        o = Outcome(items=inp["n"] * (inp["horizon"] + 1))
        ests, reps = out.get("ests"), out.get("reps")
        if ests is None or reps is None:
            return o
        o.feed(out["T"])
        for t, (est, rep) in enumerate(zip(ests, reps)):
            if rep is None:
                continue
            o.feed(est.value, est.stderr, rep.lower, rep.upper)
            ok = _report_ok(o, rep, f"sliced_generic t={t}")
            ok &= o.expect(
                _finite(est.value, est.stderr) and est.value >= 0.0 and est.stderr >= 0.0,
                f"sliced estimate t={t} malformed",
            )
            if ok and est.value > 0.0:
                o.rel_stderr.append(est.stderr / est.value)
            if ok and _in_proven_regime(rep):
                o.validate(rep.lower, rep.upper, est.value, est.stderr)
        return o


# ---------------------------------------------------------------------------
# mc_crossing: the acceptance-12 pipeline

CROSSING_LEVEL = 0.05
CROSSING_TOLERANCE = 0.1
CROSSING_MAX_T = 2000


class McCrossing:
    """Random raw models with full-covariance Gaussian noise; one kept time t* each."""

    @staticmethod
    def inputs(seed: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, 2])
        models = []
        for k in range(1 if tiny else 4):
            d = 2 + k % 2
            A = rng.standard_normal((d, d))
            A *= rng.uniform(0.3, 0.6) / np.abs(np.linalg.eigvals(A)).max()
            M = rng.standard_normal((d, d))
            models.append(
                {
                    "A": A,
                    "cov": 0.25 * (M @ M.T) + 0.05 * np.eye(d),
                    "x": rng.normal(size=d),
                    "sim_seed": int(rng.integers(2**31)),
                    "dir_seed": int(rng.integers(2**31)),
                }
            )
        return {"models": models, "n": 300 if tiny else 6_000, "n_directions": 256}

    @staticmethod
    def run(inp, L: Ledger, tr, tmp) -> dict:
        n = inp["n"]
        rows = []
        for spec in inp["models"]:
            d, x = spec["A"].shape[0], spec["x"]
            m = L.call(
                "model.build",
                lambda: eb.raw_model(
                    spec["A"], np.eye(d), eb.NoiseSpec.gaussian_d(np.zeros(d), spec["cov"])
                ),
            )
            if m is None:
                continue
            star = L.call("linalg.star_norm", eb.build_star_norm, m.Q)
            if star is None:
                continue
            tr.count("linalg.star_norm_calls")
            tr.high("linalg.schur_residual_max", star.schur_residual)
            # The order-1 noise moment is a seeded 1e6-draw Monte Carlo estimate,
            # cached on the noise; asking for it first puts its cost in the model
            # layer instead of in the first bound evaluation of the search.
            if L.call("model.moment", m.noise.abs_moment_sigma, m.Sigma, 1.0) is None:
                continue
            tr.count("model.moment_calls")

            def search():
                for t in range(CROSSING_MAX_T):
                    rep = tr.call("bounds.report", eb.generic_bounds, m, x, 1.0, t, star)
                    tr.count("bounds.reports")
                    tr.count("bounds.search_steps")
                    if rep.upper <= CROSSING_LEVEL:
                        return t
                raise LookupError(f"upper bound stays above {CROSSING_LEVEL} up to t={CROSSING_MAX_T}")

            t_star = L.call("search", search)
            if t_star is None:
                continue
            ens = L.call(
                "sim.paths",
                eb.simulate_paths,
                m,
                x,
                eb.SimConfig(n_paths=n, horizon=t_star, seed=spec["sim_seed"]),
                times=(t_star,),
            )
            stat = L.call(
                "sim.stationary", eb.sample_stationary, m, n, spec["sim_seed"], eps_stat=0.005, star=star
            )
            if ens is None or stat is None:
                continue
            T = stat.provenance["truncation"]
            tr.count("sim.path_draws", n * t_star)
            tr.count("sim.stationary_draws", n * (T + 1))
            tr.high("sim.truncation_T", T)
            tr.count("sim.kept_bytes", ens.samples.nbytes + stat.samples.nbytes)
            rep = L.call("bounds.report", eb.sliced_generic_bounds, m, x, 1.0, t_star, star)
            tr.count("bounds.reports")
            est = L.call(
                "wasserstein.sliced",
                eb.sliced_empirical,
                ens.at_time(t_star),
                stat.samples[:, 0, :],
                1.0,
                inp["n_directions"],
                seed=spec["dir_seed"],
            )
            tr.count("wasserstein.sorted_values", n * ((inp["n_directions"] + 1) // 2) * 2)
            if rep is not None and est is not None:
                rows.append((t_star, T, rep, est))
        return {"rows": rows}

    @staticmethod
    def check(inp, out, tmp) -> Outcome:
        o = Outcome(items=inp["n"] * len(inp["models"]))
        t_stars = []
        for t_star, T, rep, est in out["rows"]:
            t_stars.append(t_star)
            o.feed(t_star, T, rep.lower, rep.upper, est.value, est.stderr)
            ok = _report_ok(o, rep, f"sliced_generic t*={t_star}")
            ok &= o.expect(
                _finite(est.value, est.stderr) and est.value >= 0.0 and est.stderr >= 0.0,
                f"sliced estimate at t*={t_star} malformed",
            )
            ok &= o.expect(
                est.value <= CROSSING_TOLERANCE + 3.0 * est.stderr,
                f"estimate {est.value:.4g} at t*={t_star} above {CROSSING_TOLERANCE} + 3 se",
            )
            if ok and est.value > 0.0:
                o.rel_stderr.append(est.stderr / est.value)
            if ok and _in_proven_regime(rep):
                o.validate(rep.lower, rep.upper, est.value, est.stderr)
        if t_stars:
            o.quality["crossing_t_mean"] = statistics.fmean(t_stars)
        return o


# ---------------------------------------------------------------------------
# t_sweep: the command-line front door with --out files

BOUNDS_HEADER = "t,lower,upper,mean_part,noise_part,flavor,r,star_norm,K_d,C_star,lambda_minus"
VALIDATE_HEADER = "t,lower,empirical,stderr,upper,sandwich_ok"
AR2_PHI = (1.2, -0.5)
AR2_X = (2.0, 0.0)


def _csv(values) -> str:
    """A float list for the command line; pass it as ``--flag=value``, since a
    leading minus sign would otherwise read as an option."""
    return ",".join(format(float(v), ".17g") for v in values)


def _run_cli(argv):
    """``cli.main`` in-process; an exception escaping it propagates to the ledger."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TSweep:
    """Bound sweeps, validate, stability and simulate through ``cli.main``."""

    @staticmethod
    def inputs(seed: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, 3])
        t_max = 20 if tiny else 300
        ar2 = [f"--phi={_csv(AR2_PHI)}", f"--x={_csv(AR2_X)}"]
        ang = rng.uniform(0.0, math.pi)
        v = _csv([math.cos(ang), math.sin(ang)])
        cli_seed = str(int(rng.integers(2**31)))
        ops = []

        def bounds(flavor, model_args, t, extra=(), expect=(0,)):
            ops.append(
                {
                    "kind": "bounds",
                    "flavor": flavor,
                    "t_max": t,
                    "expect": list(expect),
                    "argv": ["bounds", *model_args, "--flavor", flavor, "--t-max", str(t),
                             "--seed", cli_seed, *extra],
                    "out": f"bounds-{len(ops)}-{flavor}.csv",
                }
            )

        for flavor, extra in (
            ("gauss_affine", ()),
            ("projected", (f"--v={v}",)),
            ("sliced_gauss", ()),
            ("generic", ()),
            ("generic_diag", ()),
            ("sliced_generic", ()),
            ("parallel", ("--n-copies", "4")),
            ("empirical_mean", ("--n-copies", "4")),
        ):
            bounds(flavor, ar2, t_max, extra)
        q = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.95))
        bounds("exact_ar1", [f"--phi={_csv([q])}", f"--x={_csv([rng.normal()])}"], t_max)
        ops.append(
            {
                "kind": "validate",
                "t_max": t_max,
                "expect": [0, 5],
                "argv": ["validate", *ar2, "--flavor", "gauss_affine", "--t-max", str(t_max)],
                "out": "validate.csv",
            }
        )
        ops.append(
            {"kind": "stability", "expect": [0], "argv": ["stability", ar2[0]], "out": None}
        )
        paths, horizon = (5, 20) if tiny else (100, 1000)
        ops.append(
            {
                "kind": "simulate",
                "paths": paths,
                "horizon": horizon,
                "expect": [0],
                "argv": ["simulate", *ar2, "--paths", str(paths), "--horizon", str(horizon),
                         "--seed", cli_seed],
                "out": "simulate.csv",
            }
        )
        # High-order models, whose contraction constants grow like kappa^(d-1);
        # a typed refusal (exit 4) is an accepted outcome, a traceback is not.
        for p in (40, 100):
            bounds("gauss_affine", [f"--phi={_csv(_stable_scaled_phi(rng, p))}"],
                   5 if tiny else 50, expect=(0, 4))
        return {"ops": ops}

    @staticmethod
    def run(inp, L: Ledger, tr, tmp) -> dict:
        results = []
        for op in inp["ops"]:
            argv = list(op["argv"])
            if op["out"]:
                argv += ["--out", os.path.join(tmp, op["out"])]
            span = f"cli.bounds.{op['flavor']}" if op["kind"] == "bounds" else f"cli.{op['kind']}"
            res = L.call(span, _run_cli, argv)
            tr.count("cli.uncaught" if res is None else f"cli.exit_{res[0]}")
            results.append(res)
        return {"results": results}

    @staticmethod
    def check(inp, out, tmp) -> Outcome:
        o = Outcome(items=0)
        rows_out = bytes_out = 0
        for op, res in zip(inp["ops"], out["results"]):
            if res is None:
                continue
            code, stdout, stderr = res
            where = " ".join(op["argv"][:4])[:80]
            bytes_out += len(stdout.encode()) + len(stderr.encode())
            o.feed(code, stdout.encode())
            if not o.expect(code in op["expect"], f"{where}: exit {code!r}, stderr {stderr[-200:]!r}"):
                continue
            if op["kind"] == "stability":
                _check_stability(o, stdout, where)
                continue
            if code != 0 and op["kind"] == "bounds":
                continue
            path = os.path.join(tmp, op["out"])
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                with open(path + ".manifest.json", "rb") as fh:
                    manifest = fh.read()
            except OSError as exc:
                o.expect(False, f"{where}: {exc}")
                continue
            o.feed(data, manifest)
            bytes_out += len(data) + len(manifest)
            lines = data.decode().splitlines()
            rows_out += len(lines) - 1
            try:
                command = json.loads(manifest)["command"]
            except (ValueError, KeyError):
                command = None
            if not o.expect(command == op["kind"], f"{where}: manifest command {command!r}"):
                continue
            if op["kind"] == "bounds":
                _check_bounds_csv(o, op, lines, where)
            elif op["kind"] == "validate":
                _check_validate(o, op, code, lines, stdout, where)
            else:
                _check_simulate(o, op, lines, where)
        o.items = rows_out
        o.counts = {"cli.rows_out": rows_out, "cli.bytes_out": bytes_out}
        return o


def _check_stability(o: Outcome, stdout: str, where: str) -> None:
    try:
        verdict = json.loads(stdout)
        rho = float(verdict["spectral_radius"])
        stable, region = verdict["stable"], verdict.get("region")
    except (ValueError, KeyError, TypeError):
        o.expect(False, f"{where}: malformed verdict {stdout[:200]!r}")
        return
    oracle = float(np.abs(np.roots([1.0, -AR2_PHI[0], -AR2_PHI[1]])).max())
    o.expect(abs(rho - oracle) <= 1e-9 and stable is True and region in ("diamond", "wing"),
             f"{where}: verdict {verdict} disagrees with root oracle {oracle}")


def _check_bounds_csv(o: Outcome, op, lines, where: str) -> None:
    if not o.expect(lines[:1] == [BOUNDS_HEADER] and len(lines) == op["t_max"] + 2,
                    f"{where}: header or row count wrong ({len(lines)} lines)"):
        return
    for t, line in enumerate(lines[1:]):
        cols = line.split(",")
        try:
            ok = (len(cols) == 11 and int(cols[0]) == t and cols[5] == op["flavor"]
                  and float(cols[1]) <= float(cols[2]) * (1.0 + 1e-12) + 1e-300)
        except ValueError:
            ok = False
        if not o.expect(ok, f"{where}: bad row {line[:120]!r}"):
            return


def _check_validate(o: Outcome, op, code, lines, stdout, where: str) -> None:
    t_max = op["t_max"]
    if not o.expect(lines[:1] == [VALIDATE_HEADER] and len(lines) == t_max + 2,
                    f"{where}: header or row count wrong ({len(lines)} lines)"):
        return
    try:
        summary = json.loads(stdout)
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    except ValueError:
        o.expect(False, f"{where}: unparsable summary or rows")
        return
    flagged = 0
    for t, (tt, lower, ref, se, upper, flag) in enumerate(rows):
        inside = lower - 3.0 * se <= ref <= upper + 3.0 * se
        flagged += flag == 0.0
        if not o.expect(tt == t and flag == float(inside) and lower <= upper,
                        f"{where}: row t={t} inconsistent"):
            return
        if t >= 1:  # the sandwich is stated for positive time steps
            o.validate(lower, upper, ref, se)
    o.expect(summary.get("rows") == t_max + 1 and summary.get("violations") == flagged
             and (code == 5) == (flagged > 0),
             f"{where}: summary {summary.get('rows')}/{summary.get('violations')} "
             f"disagrees with {flagged} flagged rows, exit {code}")


def _check_simulate(o: Outcome, op, lines, where: str) -> None:
    paths, horizon = op["paths"], op["horizon"]
    ok = lines[:1] == ["path,t,x1,x2"] and len(lines) == 1 + paths * (horizon + 1)
    if ok:
        first, last = lines[1].split(","), lines[-1].split(",")
        ok = (first[:2] == ["0", "0"] and [float(c) for c in first[2:]] == list(AR2_X)
              and last[:2] == [str(paths - 1), str(horizon)])
    o.expect(ok, f"{where}: malformed ensemble CSV ({len(lines)} lines)")


# ---------------------------------------------------------------------------
# model_scan: many small seeded models through the library

ORDER = 2.0  # distance order of every sweep; all noises below have two moments
N_COPIES = 4
VECTOR_FAMILIES = ("gaussian", "laplace", "student_t", "uniform", "point_mass")


def _noise_spec(rng, family: str, d: int | None) -> tuple:
    """A noise constructor call as plain data: (family, params, vector?)."""
    df = 2.0 + rng.uniform(0.05, 0.5)  # just above the order of the sweeps
    if d is None:
        params = {
            "gaussian": (0.0, rng.uniform(0.5, 2.0)),
            "laplace": (0.0, rng.uniform(0.5, 1.5)),
            "student_t": (df, rng.uniform(0.5, 1.5)),
            "uniform": (rng.uniform(0.5, 2.0),),
            "point_mass": (rng.uniform(-1.0, 1.0),),
        }[family]
        return family, [float(p) for p in params], False
    if family == "gaussian":
        M = rng.standard_normal((d, d))
        return family, [np.zeros(d), 0.25 * (M @ M.T) + 0.05 * np.eye(d)], True
    params = {
        "laplace": (np.zeros(d), rng.uniform(0.5, 1.5, d)),
        "student_t": (df, rng.uniform(0.5, 1.5, d)),
        "uniform": (rng.uniform(0.5, 2.0, d),),
        "point_mass": (rng.uniform(-1.0, 1.0, d),),
    }[family]
    return family, list(params), True


def _make_noise(noise) -> "eb.NoiseSpec":
    family, params, vector = noise
    ctor = getattr(eb.NoiseSpec, family + ("_d" if vector else ""))
    return ctor(*params)


def _build(spec):
    noise = _make_noise(spec["noise"])
    if spec["kind"] == "ar":
        return eb.ar_state_space(spec["phi"], None, noise)
    if spec["kind"] == "arma":
        return eb.arma_state_space(spec["phi"], spec["theta"], noise)
    return eb.raw_model(spec["Q"], np.eye(spec["Q"].shape[0]), noise)


def _json_roundtrip(m):
    doc = eb.model_to_json(m)
    return doc, eb.model_from_json(json.loads(json.dumps(doc)))


class ModelScan:
    """Every constructor and noise family; short sweeps against the exact Gaussian oracle."""

    @staticmethod
    def inputs(seed: int, tiny: bool = False) -> dict:
        rng = np.random.default_rng([seed, 4])
        specs = []
        for p in range(1, 4 if tiny else 41):
            family = VECTOR_FAMILIES[p % len(VECTOR_FAMILIES)]
            specs.append({"kind": "ar", "phi": _stable_scaled_phi(rng, p),
                          "noise": _noise_spec(rng, family, None)})
        for k in range(1 if tiny else 6):
            p = 1 + k % 4
            q = 1 + int(rng.integers(p))
            specs.append({"kind": "arma", "phi": _stable_scaled_phi(rng, p),
                          "theta": rng.uniform(-0.8, 0.8, q).tolist(),
                          "noise": _noise_spec(rng, ("gaussian", "laplace")[k % 2], None)})
        for k in range(2 if tiny else 10):
            # strongly non-normal, spectral radius close to one
            d = 2 + k % 3
            lam = rng.uniform(0.95, 0.995, d) * rng.choice([-1.0, 1.0], d)
            T = np.diag(lam) + np.triu(rng.uniform(1.0, 3.0, (d, d)), 1)
            O, _ = np.linalg.qr(rng.standard_normal((d, d)))
            specs.append({"kind": "raw", "Q": O @ T @ O.T,
                          "noise": _noise_spec(rng, VECTOR_FAMILIES[k % 5], d)})
        for s in specs:
            d = len(s["phi"]) + len(s.get("theta", ())) if "phi" in s else s["Q"].shape[0]
            s["x"] = rng.normal(size=d)
            v = rng.normal(size=d)
            s["v"] = v / np.linalg.norm(v)
        return {"specs": specs, "t_max": 3 if tiny else 10}

    @staticmethod
    def run(inp, L: Ledger, tr, tmp) -> dict:
        return {"models": [_scan_model(spec, inp["t_max"], L, tr) for spec in inp["specs"]]}

    @staticmethod
    def check(inp, out, tmp) -> Outcome:
        o = Outcome(items=len(inp["specs"]))
        for spec, res in zip(inp["specs"], out["models"]):
            _check_model(o, spec, res)
        return o


def _flavors(m, x, v, family: str):
    """(name, bound(t, star), allowed typed outcomes, oracle key) per applicable flavor."""
    singular = (SingularStationaryCovariance,)
    out = [
        ("generic", lambda t, s: eb.generic_bounds(m, x, ORDER, t, s), (), "w2"),
        ("generic_diag", lambda t, s: eb.diagonalizable_bounds(m, x, ORDER, t, star=s),
         (NotDiagonalizable,), "w2"),
        ("empirical_mean", lambda t, s: eb.empirical_mean_bounds(m, N_COPIES, x, ORDER, t, s),
         (), "mean_w2"),
        ("parallel", lambda t, s: eb.parallel_bounds(eb.generic_bounds(m, x, ORDER, t, s),
                                                     N_COPIES, ORDER), (), "par_w2"),
    ]
    if family == "gaussian":
        out += [
            ("gauss_affine", lambda t, s: eb.gaussian_affine_bounds(m, np.eye(m.d), x, ORDER, t, s),
             singular, "w2"),
            ("projected", lambda t, s: eb.projected_bounds(m, v, x, ORDER, t, s), singular, "proj_w2"),
        ]
    if m.d >= 2:
        out.append(("sliced_generic", lambda t, s: eb.sliced_generic_bounds(m, x, ORDER, t, s),
                    (), None))
        if family == "gaussian":
            out.append(("sliced_gauss", lambda t, s: eb.sliced_gauss_bounds(m, x, ORDER, t, s),
                        singular, None))
    return out


def _scan_model(spec, t_max: int, L: Ledger, tr) -> dict:
    res: dict = {}
    m = L.call("model.build", _build, spec)
    if m is None:
        return res
    res["model"] = m
    res["json"] = L.call("model.json_roundtrip", _json_roundtrip, m)
    res["verdict"] = L.call("stability.verdict", eb.is_schur_stable, m.Q)
    n_verdicts = 1
    if "phi" in spec:
        res["sufficient"] = L.call("stability.verdict", eb.sufficient_tests, spec["phi"])
        n_verdicts += 1
        if len(spec["phi"]) == 2:
            res["region"] = L.call("stability.verdict", eb.ar2_region, *spec["phi"])
            n_verdicts += 1
    tr.count("stability.calls", n_verdicts)
    star = res["star"] = L.call("linalg.star_norm", eb.build_star_norm, m.Q)
    res["star_opt"] = L.call("linalg.star_norm", eb.build_star_norm, m.Q, {"optimize_at": t_max})
    tr.count("linalg.star_norm_calls", 2)
    for s in (res["star"], res["star_opt"]):
        if s is not None:
            tr.high("linalg.schur_residual_max", s.schur_residual)
    eig = res["eigen"] = L.call("linalg.eigen", eb.eigen, m.Q)
    V = m.Sigma @ m.noise.covariance() @ m.Sigma.T
    res["cov"] = (V, L.call("linalg.stationary_cov", eb.stationary_covariance, m.Q, V))
    res["moments"] = [L.call("model.moment", m.noise.abs_moment_sigma, m.Sigma, p) for p in (1.0, ORDER)]
    tr.count("model.moment_calls", 2)
    if star is None:
        return res

    family = spec["noise"][0]
    res["reports"] = reports = []
    for name, call, allowed, oracle in _flavors(m, spec["x"], spec["v"], family):
        for t in range(t_max + 1):
            reports.append((name, t, oracle, L.call("bounds.report", call, t, star, allowed=allowed)))
    tr.count("bounds.reports", len(reports))
    if family == "gaussian":
        x, v = spec["x"], spec["v"][None, :]
        inf = L.call("bounds.law_at", eb.stationary_law, m)
        inf_v = L.call("bounds.law_at", eb.stationary_law, m, v)
        refs = res["refs"] = []
        for t in range(t_max + 1):
            law = L.call("bounds.law_at", eb.law_at, m, x, t)
            law_v = L.call("bounds.law_at", eb.law_at, m, x, t, v)
            if None in (inf, inf_v, law, law_v):
                refs.append(None)
                continue
            w2 = L.call("wasserstein.gaussian_w2", eb.gaussian_w2, law, inf)
            proj = L.call("wasserstein.gaussian_w2", eb.gaussian_w2, law_v, inf_v)
            mean = L.call(
                "wasserstein.gaussian_w2",
                eb.gaussian_w2,
                eb.GaussianLaw(law.mean, law.cov / N_COPIES),
                eb.GaussianLaw(inf.mean, inf.cov / N_COPIES),
            )
            refs.append({"w2": w2, "proj_w2": proj, "mean_w2": mean,
                         # n independent copies: joint W2 is sqrt(n) times the per-copy W2
                         "par_w2": None if w2 is None else math.sqrt(N_COPIES) * w2})
        tr.count("wasserstein.gaussian_w2_calls", 3 * (t_max + 1))

    if eig is not None:
        q = complex(eig.eigenvalues[np.argmax(np.abs(eig.eigenvalues))])
        dim = 2 + len(spec["x"]) % 3
        xj = np.resize(spec["x"], dim)
        t_j = 3 * dim + 10
        if q.imag == 0.0:
            res["jordan"] = (q.real, dim, xj, t_j, L.call(
                "asymptotics.jordan",
                lambda: eb.jordan_estimate(eb.JordanQuery(dim, q.real, xj), t_j),
                allowed=(OutOfRegime, ZeroEigenvalue)))
        else:
            xp = np.concatenate([xj, xj[::-1]])
            res["jordan_pair"] = L.call(
                "asymptotics.jordan",
                lambda: eb.jordan_pair_estimate(eb.JordanPairQuery(dim, q, xp), t_j),
                allowed=(OutOfRegime, ZeroEigenvalue))
        tr.count("asymptotics.jordan_calls")
        res["lyapunov"] = (t_max, L.call("asymptotics.lyapunov", eb.lyapunov_sandwich, eig,
                                         spec["x"], t_max, allowed=(NotDiagonalizable,)))
    return res


def _check_model(o: Outcome, spec, res) -> None:
    m = res.get("model")
    if m is None:
        return
    where = f"{spec['kind']}(d={m.d}, {spec['noise'][0]})"
    Q = m.Q
    rho = float(np.abs(np.linalg.eigvals(Q)).max())
    if res["json"] is not None:
        doc, back = res["json"]
        o.expect(eb.model_to_json(back) == doc and np.array_equal(back.Q, Q)
                 and np.array_equal(back.Sigma, m.Sigma), f"{where}: JSON round trip differs")
    verdict = res["verdict"]
    if verdict is not None:
        o.feed(verdict.spectral_radius)
        o.expect(verdict.stable == (rho < 1.0 - 1e-9)
                 and abs(verdict.spectral_radius - rho) <= 1e-8 * max(1.0, rho),
                 f"{where}: stability verdict {verdict} vs oracle radius {rho}")
    if res.get("sufficient") is not None:
        o.feed(sorted(res["sufficient"]))
    if res.get("region") is not None:
        o.expect((res["region"] in ("diamond", "wing")) == (rho < 1.0),
                 f"{where}: AR(2) region {res['region']} vs oracle radius {rho}")
    for key in ("star", "star_opt"):
        s = res[key]
        if s is not None:
            o.feed(s.value, s.K_d, s.C_star)
            # the oracle radius of a non-normal Q carries eigenvalue rounding error
            o.expect(rho * (1.0 - 1e-6) <= s.value < 1.0 and _finite(s.K_d, s.C_star)
                     and s.schur_residual <= 1e-8 * max(1.0, float(np.linalg.norm(Q))),
                     f"{where}: {key} value {s.value} radius {rho} residual {s.schur_residual}")
    if res["eigen"] is not None:
        o.expect(abs(res["eigen"].spectral_radius - rho) <= 1e-8 * max(1.0, rho),
                 f"{where}: eigen radius {res['eigen'].spectral_radius} vs {rho}")
    V, S = res["cov"]
    if S is not None:
        o.feed(float(np.trace(S)))
        scale = max(1.0, float(np.linalg.norm(S)))
        o.expect(np.linalg.norm(S - Q @ S @ Q.T - V) <= 1e-9 * scale
                 and np.allclose(S, S.T, rtol=0.0, atol=1e-12 * scale),
                 f"{where}: stationary covariance residual")
    m1, m2 = res["moments"]
    if m1 is not None and m2 is not None:
        o.feed(m1, m2)
        o.expect(_finite(*m1, *m2) and min(*m1, *m2) >= 0.0
                 and m1[0] - 3.0 * m1[1] <= math.sqrt(m2[0] + 3.0 * m2[1]) * (1.0 + 1e-12) + 1e-300,
                 f"{where}: moments {m1} {m2} break Jensen")
    refs = res.get("refs")
    for name, t, oracle, rep in res.get("reports", ()):
        if rep is None or isinstance(rep, Exception):
            o.feed(name, t, type(rep).__name__)
            continue
        o.feed(rep.lower, rep.upper)
        if not _report_ok(o, rep, f"{where} {name} t={t}"):
            continue
        if oracle and refs and refs[t] is not None and refs[t][oracle] is not None \
                and _in_proven_regime(rep):
            o.validate(rep.lower, rep.upper, refs[t][oracle])
    if "jordan" in res:
        q, dim, xj, t_j, est = res["jordan"]
        if est is not None and not isinstance(est, Exception):
            o.feed(est.error, est.error_bound)
            J = np.diag(np.full(dim, q)) + np.diag(np.ones(dim - 1), 1)
            j_star = int(np.max(np.nonzero(xj)[0])) + 1
            scale = abs(q) ** (t_j - (j_star - 1)) * math.comb(t_j, j_star - 1)
            brute = np.linalg.matrix_power(J, t_j) @ xj / scale
            o.expect(np.allclose(brute, est.scaled, rtol=1e-8, atol=1e-10)
                     and est.error <= est.error_bound * (1.0 + 1e-12) + 1e-300,
                     f"{where}: Jordan estimate off brute force or above its bound")
    pair = res.get("jordan_pair")
    if pair is not None and not isinstance(pair, Exception):
        o.feed(pair.error, pair.combined_bound)
        o.expect(pair.combined_holds is not False, f"{where}: Jordan pair combined bound fails")
    t_l, lyap = res.get("lyapunov", (0, None))
    if lyap is not None and not isinstance(lyap, Exception):
        lo, hi = lyap
        o.feed(lo, hi)
        norm = float(np.linalg.norm(np.linalg.matrix_power(Q, t_l) @ spec["x"]))
        o.expect(lo * (1.0 - 1e-9) <= norm <= hi * (1.0 + 1e-9),
                 f"{where}: |Q^t z| = {norm} outside lyapunov sandwich [{lo}, {hi}]")


WORKLOADS = {
    "mc_sweep": McSweep,
    "mc_crossing": McCrossing,
    "t_sweep": TSweep,
    "model_scan": ModelScan,
}
