"""One cold pass of one workload, in the process that runs this file.

``run.py`` starts a fresh process per pass:

    PYTHONPATH=src python3 perfbench/worker.py --workload mc_sweep --seed 1 \\
        --trace 0 --pass-index 0 --tmp DIR

Set-up is ``import ergobound`` plus building the inputs from the seed; the
timed phase is the workload's calls into the package; the output checks run
after it, untimed.  The last line of standard output is one JSON object.
Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "ergobound"
TRACE_DIR = HERE / "traces"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-index", dest="pass_index", type=int, default=0)
    ap.add_argument("--tmp", required=True, help="directory for the pass's output files")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ergobound

    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    setup_s = time.perf_counter() - t0
    if Path(ergobound.__file__).resolve().parent != PACKAGE:
        print(f"ergobound imported from {ergobound.__file__}, not {PACKAGE}", file=sys.stderr)
        return 3

    run_id = f"{args.workload}-seed{args.seed}-pass{args.pass_index}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    ledger = Ledger(tracer)
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        t1 = time.perf_counter()
        with tracer.span("pass"):
            out = workload.run(inputs, ledger, tracer, tmp)
        wall_s = time.perf_counter() - t1
        outcome = workload.check(inputs, out, tmp).summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        from metrics import layer_values

        layers = layer_values(tracer, outcome["counts"])
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{run_id}.json")

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": outcome["items"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures) + len(outcome["bad"]),
        "failures": ledger.failures[:5],
        "bad": outcome["bad"][:5],
        "rows_validated": outcome["rows_validated"],
        "quality": outcome["quality"],
        "digest": outcome["digest"],
        "layers": layers,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "ergobound": ergobound.__version__,
        },
        "threads": {k: os.environ.get(k) for k in ("ERGOBOUND_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
