"""A finished sweep point is freed by reference counting alone.

Each point builds a ``Soc`` holding a 1 MB ``Ram``.  If anything in the
tree points back up (a CPU's table of bound handlers, compiled blocks
bound to their CPU, a block function inside its own globals), the whole
tree is cyclic garbage and lives until the cyclic GC happens to run.
With the GC disabled, the point's ``Ram`` must be gone as soon as
``execute`` returns.
"""

import gc
import weakref

import pytest

from repro.exec.spec import execute, programmable_spec, spmspv_spec, spmv_spec
from repro.memory.mmu import MmuConfig
from repro.memory.ram import Ram
from repro.system import SystemConfig

SIZE = 32


def _cores(n_cores, mmu):
    cfg = SystemConfig.paper_table1()
    cfg.n_cores = n_cores
    if mmu:
        cfg.mmu = MmuConfig()
    return spmv_spec((SIZE, SIZE), 0.5, accel=None, config=cfg)


CASES = {
    "baseline": lambda: spmv_spec((SIZE, SIZE), 0.5, accel=None),
    "hht-spmv": lambda: spmv_spec((SIZE, SIZE), 0.5, accel="hht"),
    "hht-v1": lambda: spmspv_spec(SIZE, 0.5, mode="hht_v1"),
    "hht-v2": lambda: spmspv_spec(SIZE, 0.5, mode="hht_v2"),
    "ssr": lambda: spmv_spec((SIZE, SIZE), 0.5, accel="ssr"),
    "ssr-spmspv": lambda: spmspv_spec(SIZE, 0.5, mode="ssr"),
    "indexmac": lambda: spmv_spec((SIZE, SIZE), 0.5, accel="indexmac"),
    "programmable": lambda: programmable_spec(
        (SIZE, SIZE), 0.5, format_name="csr"
    ),
    **{
        f"{n}core-mmu{int(mmu)}": (lambda n=n, mmu=mmu: _cores(n, mmu))
        for n in (1, 2, 4)
        for mmu in (False, True)
    },
}


@pytest.mark.parametrize("backend", ["reference", "compiled"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_point_ram_freed_without_gc(case, backend, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    spec = CASES[case]()
    rams = []
    init = Ram.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rams.append(weakref.ref(self))

    monkeypatch.setattr(Ram, "__init__", tracking_init)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        summary = execute(spec)
        assert rams, "the point built no Ram"
        alive = [ref for ref in rams if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert summary.cycles > 0
    assert alive == []
