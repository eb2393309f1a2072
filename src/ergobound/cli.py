"""Command-line front door.

Subcommands: ``stability`` (JSON verdict), ``bounds`` (per-t CSV sweep),
``validate`` (bound-versus-truth CSV plus summary JSON) and ``simulate``
(ensemble CSV).  Floats are serialized with 17 significant digits so files
round-trip bit-exactly; a run writing to ``--out`` also writes a manifest
JSON side file, and reruns with equal manifests produce byte-identical
data files.

Exit codes: 0 success, 2 argument parse error, 3 invalid model, 4
precondition violation or a size too large to allocate (the error name is
printed), 5 sandwich violation in ``validate``, 6 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys

import numpy as np

from . import __version__, bounds as bnd
from ._format import CELL, format_17g
from .errors import ErgoboundError
from .linalg import StarNorm, _last, check_kappa_policy, star_norm
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
from .wasserstein import empirical_w1d, gaussian_w2_rows, sliced_empirical_sweep

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


def _row(*fields) -> str:
    """One CSV line: strings as given, ``None`` as nan, numbers with 17 significant digits."""
    return ",".join(
        f if isinstance(f, str) else "nan" if f is None else format(float(f), ".17g")
        for f in fields
    )


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
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError,
            ErgoboundError) as exc:
        raise _ModelError(f"{type(exc).__name__}: {exc}") from exc
    raise _ModelError("provide a model via --model FILE or --phi LIST")


def _start_state(args, model: StateSpaceModel) -> np.ndarray:
    x = np.asarray(_parse_floats(args.x), dtype=float) if args.x else np.zeros(model.d)
    if not np.all(np.isfinite(x)):
        raise _ParseError(f"--x must be finite, got {args.x!r}")
    if x.shape != (model.d,):
        raise _ParseError(f"--x must have length d = {model.d}, got {x.shape[0]}")
    return x


def _star(model: StateSpaceModel, text: str | None) -> StarNorm:
    kind, _, val = (text or "auto").partition(":")
    try:
        if kind == "auto":
            policy = {"auto_margin": float(val) if val else 2.0}
        elif kind == "fixed":
            policy = {"fixed": float(val)}
        elif kind == "optimize":
            policy = {"optimize_at": int(val) if val else 10}
        else:
            raise _ParseError(f"unknown kappa policy {text!r}")
        check_kappa_policy(policy)
    except ValueError as exc:
        raise _ParseError(f"bad kappa policy {text!r}: {exc}") from exc
    return star_norm(model.schur, policy)  # the Schur form is taken once the policy passes


def _manifest(command: str, model: StateSpaceModel | None, args, keys) -> dict:
    config = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    return {
        "command": command,
        "model_digest": model_digest(model) if model is not None else None,
        "config": config,
        "artifact_version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _write_lines(path: str | None, chunks, manifest: dict) -> None:
    """Each text chunk of ``chunks`` and a newline, to ``path`` (stdout when None) as it
    comes, none held while the next is made; a file gets the manifest beside it."""
    if path is None:
        sys.stdout.writelines(map("{}\n".format, chunks))
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map("{}\n".format, chunks))
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
    if v is not None and not np.all(np.isfinite(v)):
        raise _ParseError(f"--v must be finite, got {args.v!r}")
    x = _start_state(args, model)
    star = _star(model, args.kappa_policy)
    reps = bnd.sweep(
        model, args.flavor, x, args.r, range(args.t_max + 1), star=star, v=v, mode=args.mode,
        n_copies=args.n_copies, per_copy_flavor=args.per_copy_flavor,
    )
    # one flavor, order and lambda_minus (nan if unused) per sweep: formatted once
    template = "%d" + ",%.17g" * 4 + "," + _row(
        reps[0].flavor, reps[0].order, star.value, star.K_d, star.C_star,
        reps[0].constants_used.get("lambda_minus"))
    rows = [_BOUNDS_COLUMNS] + [
        template % (rep.t, rep.lower, rep.upper, rep.mean_part, rep.noise_part) for rep in reps]
    manifest = _manifest(
        "bounds", model, args,
        ("flavor", "r", "t_max", "x", "kappa_policy", "mode", "seed", "n_copies"),
    )
    _write_lines(args.out, rows, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _references(model: StateSpaceModel, args, x: np.ndarray, star, ts: list) -> tuple:
    """Each step's distance to the stationary law and its standard error, as two arrays:
    the exact W2 for ``gauss_affine`` and ``exact_ar1`` on Gaussian noise, else the
    order-``r`` estimate from one path ensemble against one stationary sample."""
    if args.flavor in ("gauss_affine", "exact_ar1") and model.noise.family == "gaussian":
        laws = bnd._laws(model, x, ts)
        dist = gaussian_w2_rows([law.mean for law in laws], [law.cov for law in laws],
                                bnd.stationary_law(model))
        return dist, np.zeros_like(dist)
    config = SimConfig(n_paths=args.n_samples, horizon=max(ts[-1], 1), seed=args.seed)
    ens = simulate_paths(model, x, config)
    stat = sample_stationary(model, args.n_samples, args.seed, eps_stat=args.eps,
                             star=star).samples[:, 0, :]
    if model.d == 1:
        estimates = [empirical_w1d(ens.at_time(t).ravel(), stat.ravel(), args.r) for t in ts]
    else:
        estimates = sliced_empirical_sweep([ens.at_time(t) for t in ts], stat, args.r,
                                           n_directions=args.n_directions, seed=args.seed)
    return (np.array([est.value for est in estimates]),
            np.array([est.stderr for est in estimates]))


def _cmd_validate(args) -> int:
    model = _load_model(args)
    x = _start_state(args, model)
    if model.d >= 2 and args.flavor == "generic":
        raise ValueError("empirical validation of the unsliced generic flavor needs d = 1; "
                         "use sliced_generic for multivariate models")
    star = _star(model, args.kappa_policy)
    ts = list(range(args.t_max + 1))
    reps = bnd.sweep(model, args.flavor, x, args.r, ts, star=star, mode=args.mode)
    dist, se = _references(model, args, x, star, ts)
    lower, upper = np.array([(rep.lower, rep.upper) for rep in reps]).T
    ok = (lower - 3.0 * se <= dist) & (dist <= upper + 3.0 * se)
    rows = [_VALIDATE_COLUMNS] + [
        "%d,%.17g,%.17g,%.17g,%.17g,%d" % row
        for row in zip(ts, lower.tolist(), dist.tolist(), se.tolist(), upper.tolist(),
                       ok.tolist())]
    manifest = _manifest(
        "validate", model, args,
        ("flavor", "r", "t_max", "x", "n_samples", "n_directions", "seed", "eps", "kappa_policy"),
    )
    _write_lines(args.out, rows, manifest)
    bad = np.flatnonzero(~ok).tolist()
    summary_stream = sys.stdout if args.out else sys.stderr
    summary = {"rows": len(ts), "violations": len(bad),
               "first_violation_t": bad[0] if bad else None, "manifest": manifest}
    json.dump(summary, summary_stream, sort_keys=True)
    summary_stream.write("\n")
    return EXIT_VALIDATION if bad else EXIT_OK


# ---------------------------------------------------------------------------
# simulate


# rows and float cells of simulate text per chunk: the writer holds a few such blocks
# and the formatter's arrays for one, never the whole CSV
_SIMULATE_BATCH, _SIMULATE_CELLS = 2**11, 2**14


def _text_table(texts, width: int = 0) -> np.ndarray:
    """The strings ``texts`` as NUL-padded void items of ``width`` bytes (default: the
    longest)."""
    table = np.array([t.encode() for t in texts], dtype=f"S{width}" if width else None)
    return table.view(f"V{table.itemsize}")


def _fields(block: np.ndarray, start: int, size: int, count: int = 1) -> np.ndarray:
    """The ``(rows, count)`` void view of ``count`` adjacent ``size``-byte fields of
    each row of the uint8 ``block``, the first at byte ``start``."""
    return np.ndarray((block.shape[0], count), f"V{size}", block, start, (block.shape[1], size))


def _simulate_chunks(samples: np.ndarray, times):
    """The rows ``path,t,x1..xd`` of the ``(paths, steps, d)`` ensemble ``samples`` as text
    chunks of at most ``_SIMULATE_BATCH`` rows and ``_SIMULATE_CELLS`` floats (but at least
    one row), each without its final newline.

    A chunk is laid out as one NUL-padded uint8 block over a ``bytearray`` and emitted with
    the NULs removed by ``bytearray.translate``, which reads the block in place: the text
    exists once as bytes and once as the str.  Each float cell is the ``%.17g`` text from
    ``format_17g``, except that a cell equal bit for bit to its left neighbour one row up
    (the lag coordinates of an AR/ARMA state) copies that neighbour's characters."""
    n_paths, n_times, d = samples.shape
    flat = samples.reshape(-1, d)
    bits = flat.view(np.uint64)
    # the step numbers are held once; the path numbers "i," only for each chunk's paths
    steps, path_width = _text_table(map(str, times)), len(f"{n_paths - 1},")
    lead = path_width + steps.itemsize
    batch = min(_SIMULATE_BATCH, max(1, _SIMULATE_CELLS // d), flat.shape[0])
    width = lead + d * (1 + CELL) + 1
    buf = bytearray(batch * width)
    block = np.frombuffer(buf, dtype=np.uint8).reshape(batch, width)
    path_col = _fields(block, 0, path_width)[:, 0]
    step_col = _fields(block, path_width, steps.itemsize)[:, 0]
    cells = block[:, lead:-1].reshape(batch, d, 1 + CELL)  # "," and the value
    cell_items = _fields(block, lead, 1 + CELL, d)  # the same bytes, one item per cell
    cells[:, :, 0] = ord(",")
    for r0 in range(0, flat.shape[0], batch):
        r1 = min(r0 + batch, flat.shape[0])
        n, rows = r1 - r0, np.arange(r0, r1)
        first, last = r0 // n_times, (r1 - 1) // n_times
        paths = _text_table((f"{i}," for i in range(first, last + 1)), path_width)
        path_col[:n] = paths[rows // n_times - first]
        step_col[:n] = steps[rows % n_times]
        fresh = np.ones((n, d), dtype=bool)
        fresh[1:, 1:] = bits[r0 + 1:r1, 1:] != bits[r0:r1 - 1, :-1]
        cells[:n, :, 1:][fresh] = format_17g(flat[r0:r1][fresh])
        copied = np.flatnonzero(~fresh)
        if copied.size:
            # a copied cell takes the bytes at the head of its chain of up-left neighbours;
            # in flat cell order that neighbour is d + 1 cells back, so in rows of d + 1
            # flat cells each chain is one column, headed by its last fresh cell above
            # (row 0 and column 0 of a batch are fresh)
            chains = np.append(fresh, np.ones(-fresh.size % (d + 1), dtype=bool))
            chains = chains.reshape(-1, d + 1)
            heads = np.maximum.accumulate(chains * np.arange(len(chains))[:, None], axis=0)
            source = (heads * (d + 1) + np.arange(d + 1)).ravel()[copied]
            cell_items[copied // d, copied % d] = cell_items[source // d, source % d]
            del chains, heads, source  # not held while the next chunk is formatted
        # the chunk's final newline and the rows past the ensemble's end (in the last chunk)
        # drop out with the padding, so the translated buffer is the text
        block[:, -1] = ord("\n")
        block[n - 1, -1] = 0
        block[n:] = 0
        yield buf.translate(None, b"\0").decode("ascii")


def _cmd_simulate(args) -> int:
    model = _load_model(args)
    x = _start_state(args, model)
    config = SimConfig(n_paths=args.paths, horizon=args.horizon, seed=args.seed)
    ens = simulate_paths(model, x, config)
    header = "path,t," + ",".join(f"x{i + 1}" for i in range(model.d))
    manifest = _manifest("simulate", model, args, ("paths", "horizon", "seed", "x"))
    _write_lines(args.out, itertools.chain([header], _simulate_chunks(ens.samples, ens.times)),
                 manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--phi", help="comma-separated AR coefficients")
    p.add_argument("--theta", help="comma-separated MA coefficients (ARMA)")
    p.add_argument("--a", help="comma-separated nonnegative diagonal weights")
    p.add_argument("--noise", default="gaussian", choices=list(_NOISE_DEFAULTS))
    p.add_argument("--noise-params", dest="noise_params",
                   help="comma-separated family parameters")


def _add_sweep_args(p: argparse.ArgumentParser, flavors) -> None:
    p.add_argument("--flavor", default="gauss_affine", choices=flavors)
    p.add_argument("--r", type=float, default=2.0, help="distance order (p for generic flavors)")
    p.add_argument("--t-max", dest="t_max", type=int, default=20)
    p.add_argument("--x", help="comma-separated initial state (default zeros)")
    p.add_argument("--mode", default="jensen_consistent",
                   choices=["as_printed", "jensen_consistent"])
    p.add_argument("--kappa-policy", dest="kappa_policy",
                   help="auto[:margin] | fixed:value | optimize[:t]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of validate's draws (bounds records it in the manifest only)")


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
    _add_sweep_args(p, bnd.FLAVORS)
    p.add_argument("--v", help="unit projection direction (projected flavor)")
    p.add_argument("--n-copies", dest="n_copies", type=int, default=1)
    p.add_argument("--per-copy-flavor", dest="per_copy_flavor", default="generic",
                   choices=[f for f in bnd.FLAVORS if f != "parallel"])
    p.add_argument("--out", help="CSV output file (stdout when omitted)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("validate", help="bounds against exact or Monte Carlo distances")
    _add_model_args(p)
    _add_sweep_args(p, ("exact_ar1", "gauss_affine", "generic", "sliced_generic",
                        "sliced_gauss"))
    p.add_argument("--n-samples", dest="n_samples", type=int, default=10000)
    p.add_argument("--n-directions", dest="n_directions", type=int, default=256)
    p.add_argument("--eps", type=float, default=1e-3,
                   help="stationary truncation budget (non-Gaussian noise; Gaussian is exact)")
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


# each numeric option's admissible values, checked before any work: (dest, test, wording)
_RANGES = (
    ("t_max", lambda v: v >= 0, "nonnegative"),
    *((name, lambda v: v >= 1, "positive")
      for name in ("n_directions", "n_copies", "n_samples", "paths", "horizon")),
    ("eps", lambda v: 0.0 < v < np.inf, "positive and finite"),
    ("r", lambda v: 1.0 <= v < np.inf, "finite and at least 1"),
    ("boundary_tol", lambda v: 0.0 <= v < np.inf, "nonnegative and finite"),
    ("seed", lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
)

# build_parser's parser, kept from the first main call: parsing leaves a parser unchanged
_PARSER: list = [(None, None)]


def main(argv=None) -> int:
    args = _last(_PARSER, build_parser, build_parser).parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise _ParseError("--out must name a file, got ''")
        for name, ok, word in _RANGES:
            if hasattr(args, name) and not ok(getattr(args, name)):
                raise _ParseError(f"--{name.replace('_', '-')} must be {word}, "
                                  f"got {getattr(args, name)}")
        return args.func(args)
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ErgoboundError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:  # numpy's LinAlgError too, printed as ValueError
        print(f"ValueError: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:  # numpy's failed allocations too, printed as MemoryError
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
