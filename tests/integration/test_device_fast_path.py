"""The device layer's closed forms equal the per-word paths they replace.

On the Table-1 memory (one bank, no L1D) the HHT engines'
``MemorySystem.gather``, the SSR indexed chain and IndexMAC's
``Bus.load_gather`` take closed forms.  A probe subscribed to port
issues must see every word, so attaching one forces every per-word
fallback.  A bare run and a probed run of the same kernel must agree on
cycles, the flat registry and the output.
"""

import numpy as np
import pytest

from repro.instrument import Probe
from repro.kernels import spmspv_kernel, spmv_kernel
from repro.system import Soc, SystemConfig
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

SIZE = 40


class PortIssueCounter(Probe):
    """No-op subscriber to port issues (it only counts them)."""

    name = "port_issue_counter"

    def __init__(self):
        self.requests = 0

    def on_port_issue(self, port, requester, slot, count, waited):
        self.requests += count


def _run(case, backend, probes=()):
    kernel, variant, n_buffers = case
    cfg = SystemConfig.paper_table1(n_buffers=n_buffers)
    cfg.cpu.backend = backend
    if variant in ("ssr", "indexmac"):
        cfg = cfg.with_accelerator(variant)
    soc = Soc(cfg)
    soc.load_csr(random_csr((SIZE, SIZE), 0.6, seed=5))
    if kernel == "spmv":
        soc.load_dense_vector(random_dense_vector(SIZE, seed=6))
        text = spmv_kernel(accel=variant, vector=True)
    else:
        soc.load_sparse_vector(random_sparse_vector(SIZE, 0.5, seed=7))
        text = spmspv_kernel(mode=variant, vector=True)
    soc.allocate_output(SIZE)
    result = soc.run(soc.assemble(text), probes=probes)
    y = soc.read_output("y", SIZE)
    return result.cycles, result.instructions, dict(result.stats), y.tobytes()


CASES = [
    ("spmv", "hht", 1),
    ("spmv", "hht", 2),
    ("spmspv", "hht_v1", 2),
    ("spmspv", "hht_v2", 2),
    ("spmv", "ssr", 2),
    ("spmv", "indexmac", 2),
    ("spmspv", "indexmac", 2),
]


@pytest.mark.parametrize("backend", ["reference", "compiled"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_bare_run_equals_per_word_fallback(case, backend):
    bare = _run(case, backend)
    counter = PortIssueCounter()
    probed = _run(case, backend, probes=(counter,))
    assert probed == bare
    # The probe saw every request, so every word took the per-word path.
    assert counter.requests == bare[2]["soc.ram.requests"]
    assert np.frombuffer(bare[3], np.float32).any()
