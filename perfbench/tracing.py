"""Layer tracing from outside the program: class-level method wraps.

:meth:`Tracer.install` replaces the public entry points of each layer
(named after its ``repro`` module) with a timing wrapper, at class
level, before any ``Soc`` exists.  Pool workers forked later inherit the
wraps.  Nothing under ``src/`` changes.

Each wrapped call is a span with a name, a start, an end and a parent.
A stack of open spans gives every layer its *self* time: its span minus
the part its child spans cover.  Spans of one sweep point share one id,
the spec label.

Two kinds of layer keep their spans differently, so that tracing stays
cheap and small in memory:

* coarse layers (the point itself, workload generation, assembly, SoC
  build, ``Soc.run``, block compilation, cache get/put) keep every span;
* hot layers (device and memory models, called up to millions of times
  a pass) are rolled up per (point, layer, parent): one record with the
  first start, the last end, the call count and the summed self time.

The point wrapper around ``repro.exec.engine.execute`` hands the
point's spans back to the driver attached to its ``RunSummary``, so they
cross the pool's pipe with the result and stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: (layer, module, class or None for module functions, methods, counted).
#: ``counted`` names the methods whose calls the layer's ``calls`` total
#: counts (HHT: MMIO reads only); None counts every wrapped call.
LAYER_TABLE = (
    ("workloads.gen", "repro.workloads.synthetic", None,
     ("random_csr", "random_dense_vector", "random_sparse_vector"), None),
    ("isa.assemble", "repro.system.soc", "Soc", ("assemble",), None),
    ("system.build", "repro.system.soc", "Soc",
     ("__init__", "load_*", "allocate_output"), None),
    ("cpu", "repro.system.soc", "Soc", ("run",), None),
    ("cpu.compile", "repro.cpu.compiled", "CompiledBackend",
     ("compile_block",), None),
    ("device.engine", "repro.core.engines", "BackEndEngine", ("pump",), None),
    ("device.hht", "repro.core.hht", "HHT",
     ("read_word", "read_burst", "write_word"), ("read_word", "read_burst")),
    ("device.stream", "repro.core.stream", "BufferedStream",
     ("pop_available", "push", "push_group"), None),
    ("device.ssr", "repro.accel.ssr", "SSRUnit", ("pop", "read_burst"), None),
    ("memory.system", "repro.memory.hierarchy", "MemorySystem",
     ("read", "write", "read_seq", "write_seq"), None),
    ("memory.port", "repro.memory.port", "MemoryPort",
     ("issue", "issue_burst"), None),
    ("memory.bus", "repro.memory.bus", "Bus",
     ("load_word", "store_word", "load_burst", "store_burst"), None),
    ("memory.bus", "repro.memory.mmu", "TranslatingBus",
     ("load_word", "store_word", "load_burst", "store_burst"), None),
    ("memory.tlb", "repro.memory.mmu", "Tlb", ("translate",), None),
    ("exec.cache.get", "repro.exec.cache", "ResultCache", ("get",), None),
    ("exec.cache.put", "repro.exec.cache", "ResultCache", ("put",), None),
)
#: Layers whose every span is kept (the rest are rolled up).
COARSE = frozenset({"point", "workloads.gen", "isa.assemble",
                    "system.build", "cpu", "cpu.compile",
                    "exec.cache.get", "exec.cache.put"})
LAYERS = ("point",) + tuple(dict.fromkeys(row[0] for row in LAYER_TABLE))
DRIVER_ID = "driver"


class _Recorder:
    """Spans and per-layer totals of one point (or of the driver)."""

    def __init__(self, span_id: str):
        self.id = span_id
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.spans: list[tuple] = []   # (id, name, start, end, parent)
        self.rolled: dict[tuple, list] = {}  # (name, parent) -> [t0, t1, n, self]

    def export(self) -> dict:
        spans = list(self.spans)
        spans += [(self.id, name, t0, t1, parent, n, round(own, 9))
                  for (name, parent), (t0, t1, n, own) in self.rolled.items()]
        return {
            "id": self.id,
            "calls": dict(zip(LAYERS, self.calls)),
            "self_s": dict(zip(LAYERS, self.self_s)),
            "spans": spans,
        }


class Tracer:
    """Installs the wraps and records spans while :attr:`active`."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []   # open spans: [layer index, child time]
        self.rec = _Recorder(DRIVER_ID)
        self.points: list[dict] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, cls_name, methods, counted in LAYER_TABLE:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            names = []
            for pattern in methods:
                if pattern.endswith("*"):
                    names += sorted(n for n in vars(owner)
                                    if n.startswith(pattern[:-1]))
                else:
                    names.append(pattern)
            for name in names:
                fn = vars(owner)[name]
                is_counted = counted is None or name in counted
                setattr(owner, name, self._wrap(fn, layer, is_counted))
        engine = importlib.import_module("repro.exec.engine")
        engine.execute = self._wrap_point(engine.execute)

    def _wrap(self, fn, layer: str, is_counted: bool):
        tracer = self
        stack = self.stack
        index = LAYERS.index(layer)
        coarse = layer in COARSE
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                parent = LAYERS[stack[-1][0]] if stack else ""
                if stack:
                    stack[-1][1] += dur
                rec = tracer.rec
                if is_counted:
                    rec.calls[index] += 1
                rec.self_s[index] += own
                if coarse:
                    span_id = rec.id
                    if span_id == DRIVER_ID and len(args) > 1:
                        span_id = getattr(args[1], "label", span_id)
                    rec.spans.append((span_id, layer, t0, t1, parent))
                else:
                    roll = rec.rolled.get((layer, parent))
                    if roll is None:
                        rec.rolled[(layer, parent)] = [t0, t1, 1, own]
                    else:
                        roll[1] = t1
                        roll[2] += 1
                        roll[3] += own
        return wrapper

    def _wrap_point(self, fn):
        tracer = self

        @functools.wraps(fn)
        def execute(spec):
            if not tracer.active:
                return fn(spec)
            outer, outer_stack = tracer.rec, list(tracer.stack)
            tracer.rec = rec = _Recorder(spec.label)
            tracer.stack.clear()
            index = LAYERS.index("point")
            frame = [index, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                summary = fn(spec)
            finally:
                t1 = perf_counter()
                tracer.stack.clear()
                tracer.stack.extend(outer_stack)
                tracer.rec = outer
            rec.calls[index] += 1
            rec.self_s[index] += (t1 - t0) - frame[1]
            rec.spans.append((rec.id, "point", t0, t1, ""))
            # Rides back to the driver with the result (pickled with the
            # instance dict); the cache stores only the summary fields.
            summary.perfbench_trace = rec.export()
            return summary
        return execute

    # -- collection --------------------------------------------------------
    def collect(self, summaries) -> None:
        """Take the point traces off a pass's summaries."""
        for summary in summaries:
            trace = getattr(summary, "perfbench_trace", None)
            if trace is not None:
                self.points.append(trace)
                del summary.perfbench_trace

    def records(self) -> list[dict]:
        """Every point's record plus the driver's own."""
        return self.points + [self.rec.export()]


def layer_totals(records) -> dict[str, dict[str, float]]:
    """Sum counted calls and self seconds per layer."""
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for record in records:
        for layer in LAYERS:
            totals[layer]["calls"] += record["calls"][layer]
            totals[layer]["self_s"] += record["self_s"][layer]
    return totals


def point_seconds(records) -> float:
    """Host seconds inside ``execute`` summed over every point."""
    return sum(span[3] - span[2] for record in records
               for span in record["spans"] if span[1] == "point")
