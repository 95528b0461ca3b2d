"""O1 — sweep observability must cost at most 5% when armed.

The obs subsystem promises two things about cost: a bare sweep pays
nothing (a falsy-singleton truthiness test per emit site — the obs-off
path is further covered by the bit-identity test in tests/obs), and a
*logged* sweep pays at most 5% wall-clock over bare, because every emit
is one flushed JSONL line off the simulation's hot path.

Methodology mirrors ``test_probe_hook_overhead``: the median of
adjacent-pair ratios (the ``adjacent_pair_overheads`` fixture) of a bare
sweep and a logged sweep.  Sweeps run serially on a NullCache so the
measured work is pure simulation + obs, with no pool-scheduling or
disk-cache noise.
"""

from __future__ import annotations

import itertools
import time

from repro.analysis.tables import Table
from repro.exec import ExecPolicy, FaultPlan, NullCache, run_specs, spmv_spec
from repro.obs import NULL_OBS, ObsLog


def _specs():
    return [
        spmv_spec((48, 48), 0.3 + 0.05 * i,
                  accel="hht" if i % 2 else None,
                  matrix_seed=i, vector_seed=i + 100)
        for i in range(4)
    ]


def test_obs_logging_overhead(record_table, adjacent_pair_overheads,
                              tmp_path):
    def timed(obs_root=None):
        # NULL_OBS pins the bare arm off even if $REPRO_OBS_DIR is set.
        obs = ObsLog.create(obs_root) if obs_root is not None else NULL_OBS
        start = time.perf_counter()
        results = run_specs(
            _specs(), jobs=1, cache=NullCache(), policy=ExecPolicy(),
            faults=FaultPlan(), obs=obs,
        )
        elapsed = time.perf_counter() - start
        cycles = sum(r.cycles for r in results)
        return elapsed, cycles

    rounds = 13
    roots = (tmp_path / f"round-{r}" for r in itertools.count())
    overheads, seconds = adjacent_pair_overheads(
        timed, {"obs_logged": lambda: timed(next(roots))}, rounds)
    overhead = overheads["obs_logged"]
    table = Table(
        "obs logging overhead (4-spec 48x48 serial SpMV sweep, median of "
        f"{rounds} adjacent-pair ratios)",
        ["variant", "total_seconds", "overhead_vs_bare"],
    )
    table.add_row("bare", seconds["bare"], "+0.0%")
    table.add_row("obs_logged", seconds["obs_logged"], f"{overhead:+.1%}")
    record_table(table, "obs_overhead")

    assert overhead <= 0.05, (
        f"armed obs logging costs {overhead:+.1%} (gate: +5.0%) — an "
        "emit site has crept onto the per-cycle hot path"
    )
