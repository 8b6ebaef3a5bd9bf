"""Machine-speed probe: a fixed piece of interpreter work that does not touch
the program.

On a shared 2-vCPU host the CPU speed changes by up to 2x from one second to
the next, as other tenants come and go.  The benchmark runs this probe between ops and
scales each op's latency by the probe's local speed, so that run-to-run
spread reflects the program, not the machine: an interval is scaled by the
mean of the probe samples taken just before and just after it.  The work mimics the
program's inner loops (deep copies of nested payloads, key lookups while
filtering records, JSON parsing, graph search, keyed sorts) so that it
slows down with the machine as the program does.
"""

from __future__ import annotations

import copy
import json
import time

REFERENCE_S = 0.001  # probe time that defines "reference speed"

_PAYLOAD = {"id": "order", "scores": [{"robot": f"agv{i}", "delay": i} for i in range(120)]}


class _Record:
    __slots__ = ("key", "n")

    def __init__(self, key: tuple[str, int], n: int) -> None:
        self.key = key
        self.n = n


_RECORDS = [_Record((f"n{i % 9}", i), i) for i in range(400)]
_KNOWN = {r.key: r for r in _RECORDS[::2]}
_GRAPH_JSON = json.dumps(
    [{"source": f"s{i}", "target": f"s{i + 1}", "label": {"cmd": f"c{i}", "role": "r1"}}
     for i in range(60)]
)


def _order(r: _Record) -> tuple:
    return (r.n % 7, r.key)


def sample() -> float:
    """The faster of two back-to-back probes: interference only adds time."""
    return min(probe(), probe())


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between samples ``before`` and ``after``,
    converted to reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)


def probe() -> float:
    """Seconds the fixed work took."""
    start = time.perf_counter()
    copy.deepcopy(_PAYLOAD)
    for _ in range(4):
        missing = [r for r in _RECORDS if r.key not in _KNOWN]
    edges: dict[str, list[str]] = {}
    for t in json.loads(_GRAPH_JSON):
        edges.setdefault(t["source"], []).append(t["target"])
    seen, frontier = {"s0"}, ["s0"]
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    sorted(_RECORDS, key=_order)
    if len(missing) + len(seen) < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start
