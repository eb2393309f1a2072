"""Command-line front door.

Subcommands: ``stability`` (JSON verdict), ``bounds`` (per-t CSV sweep),
``validate`` (bound-versus-truth CSV plus summary JSON) and ``simulate``
(ensemble CSV).  Floats are serialized with 17 significant digits so files
round-trip bit-exactly; a run writing to ``--out`` also writes a manifest
JSON side file, and reruns with equal manifests produce byte-identical
data files.

Exit codes: 0 success, 2 argument parse error, 3 invalid model, 4
precondition violation (the error name is printed), 5 sandwich violation
in ``validate``, 6 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, bounds as bnd
from .errors import ErgoboundError
from .linalg import build_star_norm
from .model import (
    NoiseSpec,
    StateSpaceModel,
    ar_state_space,
    arma_state_space,
    model_digest,
    model_from_json,
)
from .sim import SimConfig, sample_stationary, simulate_paths
from .stability import ar2_region, is_schur_stable, sufficient_tests
from .wasserstein import empirical_w1d, gaussian_w2, sliced_empirical_sweep

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_PRECONDITION = 4
EXIT_VALIDATION = 5
EXIT_IO = 6

_BOUNDS_COLUMNS = (
    "t,lower,upper,mean_part,noise_part,flavor,r,star_norm,K_d,C_star,lambda_minus"
)
_VALIDATE_COLUMNS = "t,lower,empirical,stderr,upper,sandwich_ok"


class _ParseError(Exception):
    """Malformed command-line value (exit code 2)."""


class _ModelError(Exception):
    """Unusable model file or construction arguments (exit code 3)."""


def _fmt(x) -> str:
    """Round-trip float formatting (17 significant digits)."""
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def _row(*fields) -> str:
    """One CSV line: strings as given, numbers (and ``None``) through :func:`_fmt`."""
    return ",".join(f if isinstance(f, str) else _fmt(f) for f in fields)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _ParseError(f"expected a comma-separated float list, got {text!r}") from exc


# Default ``--noise-params`` of each family, in ``NoiseSpec`` constructor order.
_NOISE_DEFAULTS = {"gaussian": (0.0, 1.0), "laplace": (0.0, 1.0), "student_t": (3.0, 1.0),
                   "uniform": (1.0,), "point_mass": (0.0,)}


def _noise_from_args(args) -> NoiseSpec:
    """The ``--noise`` family with ``--noise-params``; missing trailing values take defaults."""
    defaults = _NOISE_DEFAULTS[args.noise]
    given = _parse_floats(args.noise_params) if args.noise_params else []
    if len(given) > len(defaults):
        raise _ParseError(
            f"{args.noise} noise takes at most {len(defaults)} parameters, got {len(given)}"
        )
    return getattr(NoiseSpec, args.noise)(*given, *defaults[len(given):])


def _load_model(args) -> StateSpaceModel:
    try:
        if getattr(args, "model", None):
            with open(args.model, "r", encoding="utf-8") as fh:
                return model_from_json(json.load(fh))
        if getattr(args, "phi", None):
            phi = _parse_floats(args.phi)
            noise = _noise_from_args(args)
            if getattr(args, "theta", None):
                return arma_state_space(phi, _parse_floats(args.theta), noise)
            a = _parse_floats(args.a) if getattr(args, "a", None) else None
            return ar_state_space(phi, a, noise)
    except _ParseError:
        raise
    except (OSError, json.JSONDecodeError, KeyError, ValueError, ErgoboundError) as exc:
        raise _ModelError(f"{type(exc).__name__}: {exc}") from exc
    raise _ModelError("provide a model via --model FILE or --phi LIST")


def _start_state(args, model: StateSpaceModel) -> np.ndarray:
    x = np.asarray(_parse_floats(args.x), dtype=float) if args.x else np.zeros(model.d)
    if x.shape != (model.d,):
        raise ValueError("--x must have length d")
    return x


def _kappa_policy(text: str | None) -> dict:
    if not text:
        return {"auto_margin": 2.0}
    try:
        kind, _, val = text.partition(":")
        if kind == "auto":
            return {"auto_margin": float(val) if val else 2.0}
        if kind == "fixed":
            return {"fixed": float(val)}
        if kind == "optimize":
            return {"optimize_at": int(val) if val else 10}
    except ValueError as exc:
        raise _ParseError(f"bad kappa policy {text!r}") from exc
    raise _ParseError(f"unknown kappa policy {text!r}")


def _manifest(command: str, model: StateSpaceModel | None, args, keys) -> dict:
    config = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    return {
        "command": command,
        "model_digest": model_digest(model) if model is not None else None,
        "config": config,
        "artifact_version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _write_lines(path: str | None, lines: list[str], manifest: dict) -> None:
    payload = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# stability


def _cmd_stability(args) -> int:
    model = _load_model(args)
    verdict = is_schur_stable(model.Q, boundary_tol=args.boundary_tol)
    out = dataclasses.asdict(verdict)
    prov = model.provenance
    phi = prov.get("phi")
    if phi is not None:
        out["sufficient_flags"] = sorted(sufficient_tests(phi))
        if len(phi) == 2:
            out["region"] = ar2_region(phi[0], phi[1], boundary_tol=args.boundary_tol)
    else:
        out["sufficient_flags"] = []
    out.pop("region_label", None)
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(args) -> int:
    model = _load_model(args)
    flavors = (args.flavor, args.per_copy_flavor) if args.flavor == "parallel" else (args.flavor,)
    if "projected" in flavors and not args.v:
        raise _ParseError("the projected flavor needs --v")
    v = _parse_floats(args.v) if args.v else None
    star = build_star_norm(model.Q, _kappa_policy(args.kappa_policy))
    x = _start_state(args, model)
    rows = [_BOUNDS_COLUMNS]
    for t in range(args.t_max + 1):
        rep = bnd.report(
            model, args.flavor, x, args.r, t, star=star, v=v, mode=args.mode,
            mc_seed=args.seed, n_copies=args.n_copies, per_copy_flavor=args.per_copy_flavor,
        )
        lam = rep.constants_used.get("lambda_minus", model.lambda_min)
        rows.append(_row(str(t), rep.lower, rep.upper, rep.mean_part, rep.noise_part,
                         rep.flavor, rep.order, star.value, star.K_d, star.C_star, lam))
    manifest = _manifest(
        "bounds", model, args,
        ("flavor", "r", "t_max", "x", "kappa_policy", "mode", "seed", "n_copies"),
    )
    _write_lines(args.out, rows, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    model = _load_model(args)
    x = _start_state(args, model)
    star = build_star_norm(model.Q, _kappa_policy(args.kappa_policy))
    exact_gaussian = (
        args.flavor in ("gauss_affine", "exact_ar1") and model.noise.family == "gaussian"
    )
    if not exact_gaussian and model.d >= 2 and args.flavor == "generic":
        raise ValueError(
            "empirical validation of the unsliced generic flavor needs d = 1; "
            "use sliced_generic for multivariate models"
        )
    if not exact_gaussian:
        config = SimConfig(n_paths=args.n_samples, horizon=max(args.t_max, 1), seed=args.seed)
        ens = simulate_paths(model, x, config)
        stat = sample_stationary(model, args.n_samples, args.seed, eps_stat=args.eps, star=star)
        stat_slice = stat.samples[:, 0, :]
        if model.d == 1:
            estimates = [
                empirical_w1d(ens.at_time(t).ravel(), stat_slice.ravel(), args.r)
                for t in range(args.t_max + 1)
            ]
        else:
            estimates = sliced_empirical_sweep(
                [ens.at_time(t) for t in range(args.t_max + 1)],
                stat_slice,
                args.r,
                n_directions=args.n_directions,
                seed=args.seed,
            )
    else:
        stationary = bnd.stationary_law(model)
    rows = [_VALIDATE_COLUMNS]
    violations = 0
    first_violation = None
    for t in range(args.t_max + 1):
        rep = bnd.report(model, args.flavor, x, args.r, t, star=star, mode=args.mode,
                         mc_seed=args.seed)
        if exact_gaussian:
            dist = gaussian_w2(bnd.law_at(model, x, t), stationary)
            se = 0.0
        else:
            dist, se = estimates[t].value, estimates[t].stderr
        ok = (rep.lower - 3.0 * se) <= dist <= (rep.upper + 3.0 * se)
        if not ok:
            violations += 1
            if first_violation is None:
                first_violation = t
        rows.append(_row(str(t), rep.lower, dist, se, rep.upper, "1" if ok else "0"))
    manifest = _manifest(
        "validate", model, args,
        ("flavor", "r", "t_max", "x", "n_samples", "n_directions", "seed", "eps", "kappa_policy"),
    )
    _write_lines(args.out or None, rows, manifest)
    summary_stream = sys.stdout if args.out else sys.stderr
    summary = {
        "rows": args.t_max + 1,
        "violations": violations,
        "first_violation_t": first_violation,
        "manifest": manifest,
    }
    json.dump(summary, summary_stream, sort_keys=True)
    summary_stream.write("\n")
    return EXIT_VALIDATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    model = _load_model(args)
    x = _start_state(args, model)
    config = SimConfig(n_paths=args.paths, horizon=args.horizon, seed=args.seed)
    ens = simulate_paths(model, x, config)
    header = "path,t," + ",".join(f"x{i + 1}" for i in range(model.d))
    rows = [header]
    for i in range(ens.n_paths):
        for k, t in enumerate(ens.times):
            vals = ",".join(_fmt(v) for v in ens.samples[i, k, :])
            rows.append(f"{i},{t},{vals}")
    manifest = _manifest("simulate", model, args, ("paths", "horizon", "seed", "x"))
    _write_lines(args.out, rows, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--phi", help="comma-separated AR coefficients")
    p.add_argument("--theta", help="comma-separated MA coefficients (ARMA)")
    p.add_argument("--a", help="comma-separated nonnegative diagonal weights")
    p.add_argument("--noise", default="gaussian",
                   choices=["gaussian", "laplace", "student_t", "uniform", "point_mass"])
    p.add_argument("--noise-params", dest="noise_params",
                   help="comma-separated family parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergobound",
        description="Ergodicity bounds for Schur stable autoregressive recursions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="stability verdict as JSON")
    _add_model_args(p)
    p.add_argument("--boundary-tol", dest="boundary_tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("bounds", help="bound sweep as CSV")
    _add_model_args(p)
    p.add_argument("--flavor", default="gauss_affine", choices=bnd.FLAVORS)
    p.add_argument("--r", type=float, default=2.0, help="distance order (p for generic flavors)")
    p.add_argument("--t-max", dest="t_max", type=int, default=20)
    p.add_argument("--x", help="comma-separated initial state (default zeros)")
    p.add_argument("--v", help="unit projection direction (projected flavor)")
    p.add_argument("--mode", default="jensen_consistent",
                   choices=["as_printed", "jensen_consistent"])
    p.add_argument("--kappa-policy", dest="kappa_policy",
                   help="auto[:margin] | fixed:value | optimize[:t]")
    p.add_argument("--n-copies", dest="n_copies", type=int, default=1)
    p.add_argument("--per-copy-flavor", dest="per_copy_flavor", default="generic",
                   choices=[f for f in bnd.FLAVORS if f != "parallel"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output file (stdout when omitted)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("validate", help="bounds against exact or Monte Carlo distances")
    _add_model_args(p)
    p.add_argument("--flavor", default="gauss_affine",
                   choices=["exact_ar1", "gauss_affine", "generic", "sliced_generic",
                            "sliced_gauss"])
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--t-max", dest="t_max", type=int, default=20)
    p.add_argument("--x", help="comma-separated initial state")
    p.add_argument("--mode", default="jensen_consistent",
                   choices=["as_printed", "jensen_consistent"])
    p.add_argument("--n-samples", dest="n_samples", type=int, default=10000)
    p.add_argument("--n-directions", dest="n_directions", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-3, help="stationary truncation budget")
    p.add_argument("--kappa-policy", dest="kappa_policy")
    p.add_argument("--out", help="CSV output file; summary JSON then goes to stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="write a path ensemble as CSV")
    _add_model_args(p)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x", help="comma-separated initial state")
    p.add_argument("--out", help="CSV output file (stdout when omitted)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ErgoboundError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OverflowError as exc:
        print(f"OverflowError: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
