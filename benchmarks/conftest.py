"""Shared infrastructure for the paper-regeneration benchmarks.

Each benchmark regenerates one table/figure of the paper, times it with
pytest-benchmark, prints the resulting rows and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.

Sizing: sweeps default to a 256 x 256 matrix (the paper uses 512 x 512 —
the shapes are scale-invariant, see tests/integration).  Set
``REPRO_FULL=1`` to regenerate at the paper's exact sizes.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def _adjacent_pair_overheads(bare, variants: dict, rounds: int = 13):
    """Median overhead of each variant over *bare*, from paired timings.

    Each round times every variant back-to-back with a bare run
    (alternating which goes first) and keeps their ratio; a variant's
    overhead is the median ratio across rounds minus one.  Adjacent-pair
    ratios cancel slow drift (frequency scaling, noisy CI neighbours)
    that makes best-of-N absolute times unstable on shared boxes, and
    alternating the order cancels within-pair drift bias.

    *bare* and each variant are callables returning ``(seconds, work)``;
    the two runs of a pair must report the same simulated *work*, or
    their ratio is meaningless.  Returns ``(overheads, seconds)``, with
    total seconds per arm (``"bare"`` included).
    """
    ratios = {name: [] for name in variants}
    seconds = dict.fromkeys(["bare", *variants], 0.0)
    for r in range(rounds):
        for name, run in variants.items():
            if r % 2:
                elapsed, work = run()
                bare_elapsed, bare_work = bare()
            else:
                bare_elapsed, bare_work = bare()
                elapsed, work = run()
            assert work == bare_work
            ratios[name].append(elapsed / bare_elapsed)
            seconds[name] += elapsed
            seconds["bare"] += bare_elapsed
    overheads = {name: statistics.median(r) - 1.0
                 for name, r in ratios.items()}
    return overheads, seconds


@pytest.fixture
def adjacent_pair_overheads():
    """The shared paired-timing harness of the overhead gates."""
    return _adjacent_pair_overheads


@pytest.fixture
def record_table():
    """Print a rendered table and archive it under benchmarks/results/."""

    def _record(table, name: str):
        text = table.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        (RESULTS_DIR / f"{name}.csv").write_text(table.to_csv())
        return table

    return _record
