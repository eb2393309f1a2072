"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


def _pass(name, tracer, tmp_path):
    wl = WORKLOADS[name]
    inp = wl.inputs(5, tiny=True)
    ledger = Ledger(tracer)
    out = wl.run(inp, ledger, tracer, str(tmp_path))
    return ledger, wl.check(inp, out, str(tmp_path)).summary()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_checks_and_traces(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    ledger, plain = _pass(name, NullTracer(), tmp_path / "a")
    tracer = Tracer("smoke")
    traced_ledger, traced = _pass(name, tracer, tmp_path / "b")
    assert plain["bad"] == [] and traced["bad"] == []
    assert plain["items"] > 0 and ledger.attempted > 0
    # tracing must not change what the program computes
    assert plain["digest"] == traced["digest"]
    assert ledger.failures == traced_ledger.failures
    values = layer_values(tracer, traced["counts"])
    assert set(values) == {n for n, _, _ in PER_LAYER} - {"trace.overhead_s"}
    assert all(v >= 0 for v in values.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]
    assert repr(wl.inputs(3, tiny=True)) == repr(wl.inputs(3, tiny=True))
    assert repr(wl.inputs(3, tiny=True)) != repr(wl.inputs(4, tiny=True))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_self_time_excludes_child_spans():
    tr = Tracer("t")
    tr.spans = [["pass", 0.0, 10.0, None], ["cli.bounds.generic", 1.0, 4.0, 0],
                ["search", 4.0, 9.0, 0], ["bounds.report", 5.0, 7.0, 2]]
    self_times = tr.layer_self_times()
    assert self_times["cli"] == 3.0 and self_times["bounds"] == 2.0 and self_times["sim"] == 0.0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces", ".scratch-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_count_follows_the_arguments_alone():
    for name in WORKLOADS:
        planned = run.planned_passes(name, 30, False)
        assert planned >= run.MIN_PASSES and planned == run.planned_passes(name, 30, False)
        assert run.planned_passes(name, 1, True) == run.MIN_TRACED_PASSES
