"""Repo benchmark: cold sweep throughput end to end, host time per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload accel-sweep --seed 20220530 \
        --seconds 5 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` prints the end-to-end metrics, measured with tracing off
in three fresh interpreters, as medians.  Throughput and set-up time
are counted in reference seconds: host seconds divided by the slowdown
of a speed probe timed next to the work in a process of its own
(``calibrate.py``), because the shared host's speed varies.
``--trace 1`` prints the per-layer metrics of a traced sample next to an
untraced one.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it name
every metric with its unit and record the run's settings.

Workloads, metrics and the layer each metric should move are described
in ``perfbench/README.md``.  Everything the run writes goes under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (needs the path above)

#: Samples (fresh interpreters) per untraced run.
SAMPLES = 3
#: Whole-run budget: children are killed past it.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "points_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "fraction",
    "sim_cycles": "cycles",
}

#: Per-layer metric -> (layer in tracing.LAYERS, quantity, unit).
LAYER_METRICS = {
    "workloads.gen_s": ("workloads.gen", "self_s", "s"),
    "isa.assemble_s": ("isa.assemble", "self_s", "s"),
    "system.build_s": ("system.build", "self_s", "s"),
    "cpu.self_s": ("cpu", "self_s", "s"),
    "cpu.compile_s": ("cpu.compile", "self_s", "s"),
    "cpu.compile.blocks": ("cpu.compile", "calls", "count"),
    "device.engine_s": ("device.engine", "self_s", "s"),
    "device.engine.pumps": ("device.engine", "calls", "count"),
    "device.hht_s": ("device.hht", "self_s", "s"),
    "device.hht.mmio_reads": ("device.hht", "calls", "count"),
    "device.stream_s": ("device.stream", "self_s", "s"),
    "device.stream.ops": ("device.stream", "calls", "count"),
    "device.ssr_s": ("device.ssr", "self_s", "s"),
    "device.ssr.pops": ("device.ssr", "calls", "count"),
    "memory.system_s": ("memory.system", "self_s", "s"),
    "memory.system.calls": ("memory.system", "calls", "count"),
    "memory.port_s": ("memory.port", "self_s", "s"),
    "memory.port.issues": ("memory.port", "calls", "count"),
    "memory.bus_s": ("memory.bus", "self_s", "s"),
    "memory.bus.calls": ("memory.bus", "calls", "count"),
    "memory.tlb_s": ("memory.tlb", "self_s", "s"),
    "memory.tlb.translations": ("memory.tlb", "calls", "count"),
    "exec.cache.get_s": ("exec.cache.get", "self_s", "s"),
    "exec.cache.put_s": ("exec.cache.put", "self_s", "s"),
}
#: Per-layer metrics derived from several layers or from the run.
DERIVED_METRICS = {
    "cpu.share": "fraction",
    "cpu.host_ns_per_sim_inst": "ns",
    "device.share": "fraction",
    "memory.share": "fraction",
    "exec.cache.hits": "count",
    "exec.cache.misses": "count",
    "exec.pool.overhead_s": "s",
    "exec.retries": "count",
    "exec.failed": "count",
    "trace.overhead": "fraction",
    "host.probe_slowdown": "ratio",
    "sim.paper_speedup_err": "fraction",
    "sim.cpu.instructions": "count",
    **{name: ("cycles" if name.endswith("cycles") else "count")
       for name in wl.SIM_COUNTS},
}
PER_LAYER = {**{k: v[2] for k, v in LAYER_METRICS.items()},
             **DERIVED_METRICS}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed sweep point)."""


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------
def git_commit(root: Path = ROOT) -> str:
    """HEAD commit read from ``.git`` files; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(args, workload: wl.Workload, code: str) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "backend": "compiled",
        "code_version": code,
        "size": args.size,
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def child_env(work: Path) -> dict:
    """Environment of every child: no inherited REPRO_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update({
        "REPRO_BACKEND": "compiled",
        "REPRO_CACHE_DIR": str(work / "unused-default-cache"),
        "TMPDIR": str(tmp),
    })
    return env


def run_child(args, workload: wl.Workload, work: Path, role: str,
              index: int, deadline: float, budget: float = 0.0
              ) -> tuple[dict, float]:
    """Start one child and its prober; return its result and start time."""
    out = work / f"{role}-{index}.json"
    env = child_env(work)
    prober = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              env=env, cwd=str(ROOT))
    fds = (prober.stdin.fileno(), prober.stdout.fileno())
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role,
           "--workload", workload.name, "--seed", str(args.seed),
           "--size", str(args.size), "--budget", f"{budget:.3f}",
           "--work-dir", str(work), "--out", str(out),
           "--probe-fds", ",".join(map(str, fds))]
    try:
        started = time.time()
        proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT),
                                stdout=subprocess.DEVNULL, pass_fds=fds,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's own pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    finally:
        # With every holder of the request pipe gone, the prober sees
        # end of file and exits.
        prober.stdin.close()
        prober.stdout.close()
        try:
            prober.wait(timeout=10)
        except subprocess.TimeoutExpired:
            prober.kill()
            prober.wait()
    if code is None:
        raise BenchError(f"{role} sample {index} exceeded the run budget")
    if code != 0 or not out.is_file():
        raise BenchError(f"{role} sample {index} exited with code {code}")
    return json.loads(out.read_text()), started


def cleanup(work: Path) -> None:
    """Remove the caches, logs and temp files of a run; keep its JSON."""
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------
def _failures(samples: list[dict]) -> tuple[int, int]:
    """(attempted, failed) points over every pass of every sample.

    A point fails on an engine error, on an output numpy disagrees with,
    or when its pass's simulated-count digest differs from the first
    sample's (traced samples included: tracing must not move a count).
    """
    attempted = failed = 0
    reference = samples[0]["digests"][:1]
    for sample in samples:
        n_passes = len(sample["passes"])
        attempted += sample["points"] * n_passes
        bad = len(sample["failed_labels"]) + len(sample["wrong_output"])
        if sample["digests"] != reference or len(sample["digests"]) != 1:
            bad = max(bad, sample["points"] * n_passes)
        failed += min(bad, sample["points"] * n_passes)
    return attempted, failed


def ref_seconds(p: dict) -> float:
    """A pass's wall time in reference seconds (see ``calibrate.py``).

    Time spent waiting on the prober inside the pass is taken off its
    wall time, spread over the workers that ran the points.
    """
    busy = p["wall_s"] - p["probe_total_s"] / p["workers"]
    return busy / p["slowdown"]


def complete_sim(samples: list[dict]) -> dict:
    """Simulated counts of the first sample in which every point ran.

    Counts of a partial pass would read as fewer simulated cycles, a
    false gain, so without a complete sample the run fails.
    """
    for sample in samples:
        if sample["sim"]:
            return sample["sim"]
    raise BenchError("no sample completed every point; "
                     "the simulated counts are unknown")


def end_to_end(args, workload: wl.Workload, work: Path, deadline: float
               ) -> tuple[dict, list]:
    samples, setups = [], []
    for index in range(SAMPLES):
        sample, spawned = run_child(args, workload, work, "measure", index,
                                    deadline, args.seconds / SAMPLES)
        samples.append(sample)
        # In reference seconds too, scaled by the slowdown of the probes
        # taken during set-up (see child.py).
        setups.append((sample["setup_done"] - spawned)
                      / sample["setup_slowdown"])
    rates = [p["points"] / ref_seconds(p)
             for s in samples for p in s["passes"]]
    rss = [(s["rss_self_kb"] + s["rss_children_kb"]) / 1024 for s in samples]
    metrics = {
        "points_per_ref_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "sim_cycles": complete_sim(samples)["sim_cycles"],
    }
    return metrics, samples


def _pass_ref_seconds(sample: dict) -> float:
    return statistics.median(ref_seconds(p) for p in sample["passes"])


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced sample, per pass."""
    from tracing import LAYERS, layer_totals, point_seconds

    n_passes = len(traced["passes"])
    totals = layer_totals(traced["records"])
    point_s = point_seconds(traced["records"])
    sim = complete_sim([traced])
    metrics = {}
    for name, (layer, quantity, _) in LAYER_METRICS.items():
        metrics[name] = totals[layer][quantity] / n_passes

    def share(*layers: str) -> float:
        own = sum(totals[layer]["self_s"] for layer in layers)
        return own / point_s if point_s else 0.0

    instructions = sim["sim.cpu.instructions"]
    passes = traced["passes"]
    wall = sum(p["wall_s"] for p in passes)
    workers = max(min(p["jobs"], p["executed"]) for p in passes) or 1
    metrics.update({
        "cpu.share": share("cpu"),
        "cpu.host_ns_per_sim_inst": (
            totals["cpu"]["self_s"] * 1e9 / instructions
            if instructions else 0.0),
        "device.share": share(*(l for l in LAYERS if l.startswith("device."))),
        "memory.share": share(*(l for l in LAYERS if l.startswith("memory."))),
        "exec.cache.hits": sum(p["cached"] for p in passes) / n_passes,
        "exec.cache.misses": sum(p["points"] - p["cached"]
                                 for p in passes) / n_passes,
        "exec.pool.overhead_s": (workers * wall
                                 - traced["attempt_seconds"]) / n_passes,
        "exec.retries": sum(p["retried"] for p in passes) / n_passes,
        "exec.failed": sum(p["failed"] for p in passes) / n_passes,
        "trace.overhead": (_pass_ref_seconds(traced)
                           / _pass_ref_seconds(plain) - 1.0),
        "host.probe_slowdown": statistics.median(
            p["slowdown"] for p in plain["passes"]),
        "sim.paper_speedup_err": traced["paper_speedup_err"] or 0.0,
    })
    for name in ("sim.cpu.instructions", *wl.SIM_COUNTS):
        metrics[name] = sim[name]
    return metrics


def per_layer(args, workload: wl.Workload, work: Path, deadline: float
              ) -> tuple[dict, list]:
    pairs = []
    started = time.monotonic()
    while not pairs or time.monotonic() - started < args.seconds:
        plain, _ = run_child(args, workload, work, "measure", len(pairs),
                             deadline)
        traced, _ = run_child(args, workload, work, "traced", len(pairs),
                              deadline)
        pairs.append((plain, traced))
    runs = [layer_metrics(plain, traced) for plain, traced in pairs]
    metrics = {name: statistics.median(run[name] for run in runs)
               for name in PER_LAYER}
    return metrics, [s for pair in pairs for s in pair]


def run_workload(args, name: str) -> dict:
    workload = wl.WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    stamp = time.strftime("%Y%m%d-%H%M%S")
    work = (ROOT / ".perfbench_out"
            / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_child(args, workload, work, "warmup", 0, deadline)
        if args.trace:
            metrics, samples = per_layer(args, workload, work, deadline)
            units = PER_LAYER
            records = [r for s in samples for r in s.get("records", ())]
            (work / "trace.json").write_text(json.dumps(records))
        else:
            metrics, samples = end_to_end(args, workload, work, deadline)
            units = END_TO_END
    finally:
        cleanup(work)
    backends = sorted({b for s in samples for b in s["backends"]})
    if backends != ["compiled"]:
        raise BenchError(f"specs ran on {backends}, not the compiled backend")
    attempted, failed = _failures(samples)
    metrics["ok_rate"] = (attempted - failed) / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    meta = run_meta(args, workload, samples[0]["code_version"])
    (work / "result.json").write_text(json.dumps(
        {"meta": meta, "result": result}, indent=1))
    print(f"# perfbench {json.dumps(meta, sort_keys=True)}")
    for key, entry in result["metrics"].items():
        print(f"{name:>14}  {key:<28} {entry['value']:>16.6g} {entry['unit']}")
    return result


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("all", *wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="read-back time of warm-rerun, shared by its "
                        "samples; length of a traced run (a cold sample "
                        "times one pass, longer than seconds / samples)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, default=wl.DEFAULT_SIZE)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
