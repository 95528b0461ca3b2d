"""One measurement in a fresh interpreter: set up, time a pass, check.

``run.py`` starts this script once per sample, so every sample pays
what a user pays for a fresh ``repro`` run: the import, building the
spec list, opening an empty cache (and, on warm-rerun, filling it).
Usage (normally only ``run.py`` calls it)::

    python3 perfbench/child.py --role measure --workload cpu-baseline \
        --seed 20220530 --size 256 --work-dir W --out W/sample-0.json

Roles:

* ``warmup``  -- run one tiny point per spec kind untimed, so the
  bytecode cache is warm before any timed sample;
* ``measure`` -- tracing off: the end-to-end sample;
* ``traced``  -- the same pass with every layer wrapped (see
  ``tracing.py``) and the obs event log armed.

Both timed roles ask the prober ``run.py`` started (``calibrate.py``)
for a host-speed probe before every point and on both sides of every
warm read-back pass.

The result goes to ``--out`` as JSON; the exit code is 0 unless the
benchmark itself broke (failed points are reported, not raised).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402  (needs the path above)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("warmup", "measure", "traced"),
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=float, default=0.0,
                   help="seconds of timed read-back passes, at least 3 "
                        "(warm-rerun only; a cold sample times one pass)")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--probe-fds", required=True,
                   help="W,R: request and reply pipes of the prober")
    return p.parse_args(argv)


def _reap_pool_workers() -> None:
    """Wait for executor threads, which join the pool's worker processes.

    ``run_specs`` shuts its pool down without waiting; the workers count
    in ``RUSAGE_CHILDREN`` only once they have been joined.
    """
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=30)


def main(argv=None) -> int:
    args = _parse(argv)
    prober = calibrate.Prober(args.probe_fds)
    setup_probe = prober.interp()  # before any set-up work
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_BACKEND"] = "compiled"

    tracer = None
    if args.role == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()  # before any Soc exists; forked workers inherit
    if args.role != "warmup":
        _probe_each_point(prober)

    from repro.exec import (
        ExecPolicy,
        NullCache,
        ResultCache,
        RunSummary,
        code_version,
        configure,
        run_specs,
        session_stats,
    )
    from repro.obs import NULL_OBS

    import workloads as wl

    work = Path(args.work_dir)
    workload = wl.WORKLOADS[args.workload]
    specs = wl.build_specs(args.workload, args.seed, args.size)
    policy = ExecPolicy(on_error="collect")

    if args.role == "warmup":
        kinds = {}
        for spec in wl.build_specs(args.workload, args.seed, 16, (0.5,)):
            kinds.setdefault((spec.kernel, spec.variant), spec)
        run_specs(list(kinds.values()), jobs=1, cache=NullCache(),
                  policy=policy, obs=NULL_OBS, progress=False)
        Path(args.out).write_text(json.dumps({"role": "warmup"}))
        return 0

    cache = ResultCache(work / f"cache-{os.getpid()}")  # never ~/.cache/repro
    fill = []
    if workload.warm:
        filled = run_specs(specs, jobs=workload.jobs, cache=cache,
                           policy=policy, obs=NULL_OBS, progress=False)
        fill = _take_probes(filled)
    setup_done = time.time()
    if fill:  # the fill is most of warm-rerun's set-up time
        setup_slowdown = calibrate.time_weighted_slowdown(
            [(probe, point) for probe, _, point in fill])
    else:
        setup_slowdown = ((setup_probe + prober.interp()) / 2
                          / calibrate.INTERP_REF_S)

    obs_dir = None
    if tracer is not None:
        obs_dir = work / f"obs-{os.getpid()}"
        configure(obs_dir=str(obs_dir))
        tracer.active = True

    passes = []
    failed_labels: list[str] = []
    digests = set()
    last_probe = prober.decode()
    deadline = time.perf_counter() + args.budget
    while True:
        before = session_stats()
        started = time.perf_counter()
        results = run_specs(specs, jobs=workload.jobs, cache=cache,
                            policy=policy,
                            obs=None if tracer is not None else NULL_OBS,
                            progress=False)
        wall = time.perf_counter() - started
        stats = session_stats().delta(before)
        # Checked pass by pass, so memory does not grow with the count.
        summaries = [r for r in results if isinstance(r, RunSummary)]
        probes = _take_probes(summaries)
        # Time the points spent waiting on the prober inside the pass.
        probe_total = sum(wait for _, wait, _ in probes)
        if probes:
            slowdown = calibrate.time_weighted_slowdown(
                [(probe, point) for probe, _, point in probes])
        else:  # all read back: probe on both sides of the pass
            after = prober.decode()
            slowdown = (last_probe + after) / 2 / calibrate.DECODE_REF_S
            last_probe = after
        passes.append({
            "wall_s": wall, "points": len(specs),
            "executed": stats.executed, "cached": stats.cached,
            "retried": stats.retried, "failed": stats.failed,
            "jobs": workload.jobs,
            "workers": max(1, min(workload.jobs, stats.executed)),
            "slowdown": slowdown,
            "probe_total_s": probe_total,
        })
        failed_labels += [s.label for s, r in zip(specs, results)
                          if not isinstance(r, RunSummary)]
        if len(summaries) == len(specs):
            digests.add(wl.sim_digest(specs, summaries))
        if tracer is not None:
            tracer.collect(summaries)
        # A cold sample times one pass: its peak RSS must not depend on
        # how many passes the host's speed allowed.
        if not workload.warm or (len(passes) >= 3
                                 and time.perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.active = False
        configure(obs_dir=None)

    _reap_pool_workers()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # -- output check on the last pass (untimed) ---------------------------
    wrong = [s.label for s, r in zip(specs, results)
             if isinstance(r, RunSummary) and not wl.output_ok(s, r)]
    if workload.warm and any(p["executed"] for p in passes):
        failed_labels.append("warm pass simulated instead of reading cache")
    backends = sorted({wl.backend_of(s) for s in specs})

    out = {
        "role": args.role,
        "workload": args.workload,
        "setup_done": setup_done,
        "setup_slowdown": setup_slowdown,
        "passes": passes,
        "points": len(specs),
        "failed_labels": failed_labels,
        "wrong_output": wrong,
        "digests": sorted(digests),
        "sim": wl.sim_counts(summaries) if len(summaries) == len(specs) else {},
        "paper_speedup_err": (wl.paper_speedup_err(specs, summaries)
                              if len(summaries) == len(specs) else None),
        "rss_self_kb": self_kb,
        "rss_children_kb": child_kb,
        "backends": backends,
        "code_version": code_version(),
    }
    if tracer is not None:
        out["records"] = tracer.records()
        out["attempt_seconds"] = _attempt_seconds(obs_dir)
    Path(args.out).write_text(json.dumps(out))
    return 0


def _probe_each_point(prober: calibrate.Prober) -> None:
    """Ask the prober for a probe before each point, where the point runs.

    Wraps ``repro.exec.engine.execute`` (outside any tracing span); pool
    workers forked later inherit the wrap.  The probe's seconds, the
    wait for it and the point's host seconds ride back to the driver on
    the point's ``RunSummary``.
    """
    import repro.exec.engine as engine

    inner = engine.execute

    def execute(spec):
        asked = time.perf_counter()
        probe = prober.interp()
        started = time.perf_counter()
        summary = inner(spec)
        summary.perfbench_probe = (probe, started - asked,
                                   time.perf_counter() - started)
        return summary

    engine.execute = execute


def _take_probes(results) -> list[tuple[float, float, float]]:
    """Pop the probe times the points brought back (see above)."""
    return [vars(r).pop("perfbench_probe") for r in results
            if "perfbench_probe" in getattr(r, "__dict__", {})]


def _attempt_seconds(obs_dir: Path | None) -> float:
    """Sum of per-attempt ``seconds`` in the merged obs event logs."""
    total = 0.0
    if obs_dir is None:
        return total
    for events in sorted(obs_dir.glob("*/events.jsonl")):
        with open(events, encoding="utf-8") as f:
            for line in f:
                event = json.loads(line)
                if event.get("type") in ("attempt.ok", "attempt.error"):
                    total += float(event.get("data", {}).get("seconds", 0.0))
    return total


if __name__ == "__main__":
    sys.exit(main())
