"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root (takes about a minute)::

    python3 -m pytest perfbench -q

Checks that every metric a run prints is well named and declared in
``BENCHMARK.json`` with the same unit and a direction, that no point
fails, and that tracing leaves every simulated count unchanged.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY = ["--size", "32", "--seconds", "0"]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_and_metrics_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in declared["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_declared_metrics(workload, trace):
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in _declared()[section]}
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert NAME_RE.fullmatch(name), name
        assert entry["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tracing_leaves_simulated_counts_unchanged(workload):
    args = SimpleNamespace(seed=wl.DEFAULT_SEED, size=32)
    work = ROOT / ".perfbench_out" / f"selftest-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 120
    spec = wl.WORKLOADS[workload]
    plain, _ = run.run_child(args, spec, work, "measure", 0, deadline)
    traced, _ = run.run_child(args, spec, work, "traced", 0, deadline)
    shutil.rmtree(work, ignore_errors=True)
    assert plain["sim"] and plain["sim"] == traced["sim"]
    assert plain["digests"] == traced["digests"]
    assert len(plain["digests"]) == 1
    assert not plain["failed_labels"] and not traced["failed_labels"]
