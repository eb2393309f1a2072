"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs building.  The workload runs as a closed loop of
cold passes, one at a time, each in a fresh process (``worker.py``).  The
number of passes is as many as fit in ``--seconds`` at the workload's
reference pass time (``PASS_S``), at least three (four when traced); it
depends on the arguments alone, not on the clock, so ``attempted`` and
``failed`` depend on the seed alone.  ``wall_s`` and ``items_per_s`` come
from the fastest untraced pass, because other load on the host only ever
adds time to a pass; ``setup_s`` is the median set-up of all passes and
``peak_rss_mb`` the median of the untraced passes.  With ``--trace 1`` the
passes alternate untraced and traced; the per-layer metrics are medians over
the traced passes and ``trace.overhead_s`` is the fastest traced minus the
fastest untraced wall time.  Every pass checks its outputs, and every pass
of one seed must produce identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, QUALITY  # noqa: E402

WORKLOADS = ("mc_sweep", "mc_crossing", "t_sweep", "model_scan")
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two traced, two untraced
MAX_PASSES = 200
# Seconds one untraced cold pass takes, process start to exit, on the
# reference machine (2-vCPU x86_64 VM, Python 3.11, numpy 2.4).
PASS_S = {"mc_sweep": 3.0, "mc_crossing": 3.1, "t_sweep": 3.2, "model_scan": 4.0}
# The whole run must end within 180 s; no pass starts that would likely end past
# this, which cuts the planned passes short only if the program is far slower.
HARD_LIMIT_S = 150.0


def planned_passes(workload: str, seconds: float, traced: bool) -> int:
    need = MIN_TRACED_PASSES if traced else MIN_PASSES
    return min(MAX_PASSES, max(need, int(seconds / PASS_S[workload])))


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("ERGOBOUND_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _run_pass(args, index: int, traced: bool, tmp_root: str, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--pass-index", str(index), "--tmp", tmp_root,
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    result["traced"] = traced
    return result


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ergobound" / "__init__.py").is_file():
        print(f"no ergobound sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    planned = planned_passes(args.workload, args.seconds, bool(args.trace))
    began = time.monotonic()
    deadline = began + 170.0
    passes: list[dict] = []
    tmp_root = tempfile.mkdtemp(prefix=".scratch-", dir=HERE)
    try:
        while len(passes) < planned:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(args, len(passes), traced, tmp_root, env, deadline))
            used = time.monotonic() - began
            typical = _median([p["elapsed"] for p in passes])
            if used + typical > HARD_LIMIT_S and len(passes) >= (2 if args.trace else 1):
                print(f"# stopped after {len(passes)} of {planned} passes: time limit",
                      file=sys.stderr)
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]
    digests = {p["digest"] for p in passes}
    bad = [b for p in passes for b in p["bad"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not bad and len(digests) == 1

    end_to_end = {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "wall_s": min(p["wall_s"] for p in untraced),
        "items_per_s": max(p["items"] / p["wall_s"] for p in untraced),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
    }
    quality = dict(first["quality"])
    quality["failed_ops_ratio"] = failed / attempted if attempted else None

    v = first["versions"]
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"(traced {len(traced)}) python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
          f"ergobound={v['ergobound']} nproc={nproc} threads={first['threads']}")
    print(f"# items per pass={first['items']} rows validated per pass={first['rows_validated']} "
          f"wall_s per pass={[round(p['wall_s'], 4) for p in passes]}")
    print(f"# setup_s per pass={[round(p['setup_s'], 4) for p in passes]}")
    print(f"# elapsed per pass={[round(p['elapsed'], 3) for p in passes]} "
          f"run={time.monotonic() - began:.1f} s")
    for msg in sorted({m for p in passes for m in p["failures"]}):
        print(f"# failed op: {msg}")
    if len(digests) != 1:
        print("# outputs differ between passes of one seed")
    for msg in sorted(set(bad))[:10]:
        print(f"# check failed: {msg}")
    for name, unit in QUALITY:
        print(f"{name} {quality.get(name)} {unit}")

    if args.trace:
        layers = {
            name: _median([p["layers"][name] for p in traced])
            for name, _, _ in PER_LAYER if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = min(p["wall_s"] for p in traced) - end_to_end["wall_s"]
        reported = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        reported = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in reported.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
