"""The four sweep workloads: spec lists, output checks and sim counts.

Every workload is a list of :class:`repro.exec.RunSpec` built from the
benchmark seed alone.  The benchmark hands the list to
:func:`repro.exec.run_specs` and never touches the memoised figure
functions, so each pass really goes through the sweep engine.

This module imports ``repro`` lazily: the orchestrator (``run.py``)
imports it before it knows whether the package is present.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

#: Default benchmark seed (the one ``repro.analysis.experiments`` uses).
DEFAULT_SEED = 20220530
#: Matrix dimension: the ``repro report`` default (the paper used 512).
DEFAULT_SIZE = 256
#: The paper's sparsity sweep, 10 % to 90 % zeroes.
SPARSITIES = tuple(round(0.1 * k, 1) for k in range(1, 10))
#: Sparsities of the cores x MMU grid.
MULTICORE_SPARSITIES = (0.3, 0.5, 0.7, 0.9)
MULTICORE_CORES = (1, 2, 4)

#: Paper averages of the four headline speedups (EXPERIMENTS.md).
PAPER_SPEEDUPS = {
    "fig4_1buf": 1.70,
    "fig4_2buf": 1.73,
    "fig5_v1": 2.47,
    "fig5_v2": 3.05,
}


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    #: True when set-up fills a cache that every timed pass reads back.
    warm: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("accel-sweep", jobs=2),
        Workload("cpu-baseline", jobs=1),
        Workload("multicore-vm", jobs=1),
        Workload("warm-rerun", jobs=2, warm=True),
    )
}


def _seeds(seed: int, i: int) -> tuple[int, int]:
    """(matrix_seed, vector_seed) of sweep point *i*."""
    return seed + i, seed + 1000 + i


def accel_specs(seed: int, size: int, sparsities=SPARSITIES) -> list:
    """fig4/fig5 HHT pairs plus the SSR and IndexMAC rivals, 10 per sparsity."""
    from repro.exec import spmspv_spec, spmv_spec

    specs = []
    for i, s in enumerate(sparsities):
        ms, vs = _seeds(seed, i)
        shape = (size, size)
        specs.append(spmv_spec(shape, s, accel=None,
                               matrix_seed=ms, vector_seed=vs))
        for n_buffers in (1, 2):
            specs.append(spmv_spec(shape, s, accel="hht", n_buffers=n_buffers,
                                   matrix_seed=ms, vector_seed=vs))
        for accel in ("ssr", "indexmac"):
            specs.append(spmv_spec(shape, s, accel=accel,
                                   matrix_seed=ms, vector_seed=vs))
        specs.append(spmspv_spec(size, s, mode="baseline",
                                 matrix_seed=ms, vector_seed=vs))
        for mode in ("hht_v1", "hht_v2"):
            for n_buffers in (1, 2):
                specs.append(spmspv_spec(size, s, mode=mode,
                                         n_buffers=n_buffers,
                                         matrix_seed=ms, vector_seed=vs))
    return specs


def cpu_specs(seed: int, size: int, sparsities=SPARSITIES) -> list:
    """Scalar (VL=1) and vector (VL=8) CPU baselines, SpMV and SpMSpV."""
    from repro.exec import spmspv_spec, spmv_spec

    specs = []
    for i, s in enumerate(sparsities):
        ms, vs = _seeds(seed, i)
        for vlmax in (1, 8):
            specs.append(spmv_spec((size, size), s, accel=None, vlmax=vlmax,
                                   matrix_seed=ms, vector_seed=vs))
            specs.append(spmspv_spec(size, s, mode="baseline", vlmax=vlmax,
                                     matrix_seed=ms, vector_seed=vs))
    return specs


def multicore_specs(seed: int, size: int,
                    sparsities=MULTICORE_SPARSITIES) -> list:
    """Row-partitioned SpMV at 1/2/4 cores, MMU off and on."""
    from repro.exec import spmv_spec
    from repro.memory.mmu import MmuConfig
    from repro.system.config import SystemConfig

    specs = []
    for i, s in enumerate(sparsities):
        ms, vs = _seeds(seed, i)
        for n_cores in MULTICORE_CORES:
            for mmu in (False, True):
                cfg = SystemConfig.paper_table1()
                cfg.n_cores = n_cores
                if mmu:
                    cfg.mmu = MmuConfig()
                specs.append(spmv_spec((size, size), s, accel=None,
                                       config=cfg, matrix_seed=ms,
                                       vector_seed=vs))
    return specs


def build_specs(workload: str, seed: int, size: int,
                sparsities=None) -> list:
    builder = {
        "accel-sweep": accel_specs,
        "warm-rerun": accel_specs,
        "cpu-baseline": cpu_specs,
        "multicore-vm": multicore_specs,
    }[workload]
    if sparsities is None:
        return builder(seed, size)
    return builder(seed, size, sparsities)


def backend_of(spec) -> str:
    return dict(spec.config).get("cpu.backend", "reference")


# ---------------------------------------------------------------------------
# Output checks (numpy reference, independent of the engine's verify=True)
# ---------------------------------------------------------------------------
def reference_output(spec) -> np.ndarray:
    """numpy y = A @ x for a synthetic spec, regenerated from its seeds."""
    from repro.workloads.synthetic import (
        random_csr,
        random_dense_vector,
        random_sparse_vector,
    )

    a = random_csr((spec.rows, spec.cols), spec.sparsity,
                   seed=spec.matrix_seed).to_dense().astype(np.float64)
    if spec.kernel == "spmspv":
        vs = spec.vector_sparsity if spec.vector_sparsity >= 0 else spec.sparsity
        x = random_sparse_vector(spec.cols, vs, seed=spec.vector_seed).to_dense()
    else:
        x = random_dense_vector(spec.cols, seed=spec.vector_seed)
    return a @ np.asarray(x, np.float64)


def output_ok(spec, summary) -> bool:
    y = np.asarray(summary.y, np.float64)
    ref = reference_output(spec)
    return y.shape == ref.shape and bool(
        np.allclose(y, ref, rtol=1e-3, atol=1e-4))


# ---------------------------------------------------------------------------
# Simulated counts
# ---------------------------------------------------------------------------
#: Per-layer simulated counts: metric -> regex over registry keys.
SIM_COUNTS = {
    "sim.ram.requests": r"soc\.ram\.requests",
    "sim.ram.queue_cycles": r"soc\.ram\.queue_cycles",
    "sim.hht.cpu_wait_cycles": r"soc\.hht\d*\.cpu_wait_cycles",
    "sim.hht.hht_wait_cycles": r"soc\.hht\d*\.hht_wait_cycles",
    "sim.hht.elements_supplied": r"soc\.hht\d*\.elements_supplied",
    "sim.ssr.cpu_wait_cycles": r"soc\.ssr\d*\.cpu_wait_cycles",
    "sim.indexmac.gathered_elements": r"soc\.indexmac\d*\.gathered_elements",
    "sim.tlb.misses": r"soc\.cpu\d*\.tlb\.misses",
    "sim.tlb.walk_cycles": r"soc\.cpu\d*\.tlb\.walk_cycles",
}
_SIM_RES = {name: re.compile(pat) for name, pat in SIM_COUNTS.items()}


def sim_counts(summaries) -> dict[str, int]:
    """Simulated counts summed over a pass (exact from run to run)."""
    counts = {"sim_cycles": 0, "sim.cpu.instructions": 0}
    counts.update({name: 0 for name in SIM_COUNTS})
    for summary in summaries:
        counts["sim_cycles"] += summary.cycles
        counts["sim.cpu.instructions"] += summary.instructions
        for key, value in summary.stats.items():
            for name, regex in _SIM_RES.items():
                if regex.fullmatch(key):
                    counts[name] += int(value)
    return counts


def sim_digest(specs, summaries) -> str:
    """sha256 over every point's label, cycles, registry and output."""
    h = hashlib.sha256()
    for spec, summary in zip(specs, summaries):
        h.update(spec.label.encode())
        h.update(str((summary.cycles, summary.instructions,
                      sorted(summary.stats.items()))).encode())
        h.update(np.asarray(summary.y, np.float32).tobytes())
    return h.hexdigest()


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_speedup_err(specs, summaries) -> float:
    """Mean relative error of the headline geomean speedups vs the paper.

    Uses the fig4 (HHT SpMV, 1 and 2 buffers) and fig5 (SpMSpV variants
    1 and 2, 2 buffers) points of the spec list; 0.0 when the list holds
    none of them.
    """
    cycles = {}
    for spec, summary in zip(specs, summaries):
        n_buffers = dict(spec.config).get("hht.n_buffers")
        cycles[(spec.kernel, spec.variant, n_buffers, spec.sparsity)] = (
            summary.cycles)
    baseline = {(k, s): c for (k, v, _, s), c in cycles.items()
                if v == "baseline"}
    series = {
        "fig4_1buf": ("spmv", "hht", 1),
        "fig4_2buf": ("spmv", "hht", 2),
        "fig5_v1": ("spmspv", "hht_v1", 2),
        "fig5_v2": ("spmspv", "hht_v2", 2),
    }
    errors = []
    for name, key in series.items():
        speedups = [baseline[(k, s)] / c
                    for (k, v, nb, s), c in cycles.items()
                    if (k, v, nb) == key and (k, s) in baseline]
        if speedups:
            paper = PAPER_SPEEDUPS[name]
            errors.append(abs(_geomean(speedups) - paper) / paper)
    return sum(errors) / len(errors) if errors else 0.0
