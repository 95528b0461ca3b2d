"""Host-speed probes, timed in a process of their own.

The host the benchmark was tuned on is shared, and its speed changes by
up to 2x within seconds.  Timing a probe next to the measured work tells
how fast the host ran at that moment, so throughput can be stated in
reference seconds: host seconds divided by the probe's slowdown, its
time over its time in the host's fast state (``*_REF_S``).

Each probe mirrors the work it stands beside, because the host's slow
state costs different work different amounts.  On that host:

* :func:`interp_probe`, a pure-Python integer loop, tracks a simulated
  point one for one (log-log slope 0.8-1.1); probes of attribute, dict
  or JSON work swing about twice as far as the simulator does;
* :func:`decode_probe`, JSON decoding and SHA-256 of a cache-entry-sized
  document, tracks a cache read-back pass, which swings further than
  the simulator does.

The probes run in a prober: this file run as a script, a process that
never imports ``repro``.  ``run.py`` starts one per sample and hands its
pipes to the sample (:class:`Prober`), which asks for a probe before
every point and around every warm read-back pass.  A request is one
byte (``i`` or ``d``), a reply the probe's seconds as an 8-byte double.
So no hook, thread or state of the program runs inside a probe; the
program reaches the probes only through the load it puts on the host.
``host.probe_slowdown`` (a per-layer metric) shows that load.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from time import perf_counter

#: Probe times in the host's fast state when the benchmark was tuned.
#: They set only the scale of reference seconds, not their spread.
INTERP_REF_S = 0.0013
DECODE_REF_S = 0.0008

_ENTRY = json.dumps({
    "cycles": 123456,
    "stats": {f"soc.cpu.class_counts.k{i}": i * 37 for i in range(40)},
    "y": [i / 7 for i in range(256)],
})
_REPLY = struct.Struct("d")


def interp_probe() -> float:
    """Seconds a fixed integer loop took just now."""
    started = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return perf_counter() - started


def decode_probe() -> float:
    """Seconds a fixed JSON decode and hash took just now."""
    started = perf_counter()
    for _ in range(3):
        entry = json.loads(_ENTRY)
        hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).digest()
    return perf_counter() - started


def serve(requests: int = 0, replies: int = 1) -> None:
    """Answer probe requests until the request pipe closes."""
    probes = {b"i": interp_probe, b"d": decode_probe}
    while True:
        kind = os.read(requests, 1)
        if not kind:
            return
        os.write(replies, _REPLY.pack(probes[kind]()))


class Prober:
    """The sample's end of a prober's pipes (``--probe-fds W,R``).

    Forked pool workers share the pipes.  Requests and replies are
    single atomic writes, so replies never tear; two workers asking at
    once may swap replies, each a probe taken within a millisecond of
    both requests.
    """

    def __init__(self, fds: str):
        self.requests, self.replies = (int(fd) for fd in fds.split(","))

    def _ask(self, kind: bytes) -> float:
        os.write(self.requests, kind)
        reply = os.read(self.replies, _REPLY.size)
        if len(reply) != _REPLY.size:
            raise RuntimeError("the prober closed its pipe")
        return _REPLY.unpack(reply)[0]

    def interp(self) -> float:
        return self._ask(b"i")

    def decode(self) -> float:
        return self._ask(b"d")


def time_weighted_slowdown(points) -> float:
    """Slowdown of a stretch of work from (probe_s, point_s) pairs.

    Each point counts by its host time, so the result is the share of
    time the host spent in each state, not a vote of the probes.
    """
    host = sum(t for _, t in points)
    ref = sum(t * INTERP_REF_S / probe for probe, t in points)
    return host / ref


if __name__ == "__main__":
    serve()
    sys.exit(0)
