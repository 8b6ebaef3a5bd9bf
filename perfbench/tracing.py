"""Span and count wrappers around the public entry points of each layer.

``Tracer.install`` replaces functions, methods and the ``MachineRunner.state``
property of an imported ``swarmproto`` with wrappers that record one span per
call (name, start, end, parent span, op id) and update counters from
arguments, return values and public attributes.  Untraced runs never call it.

Self time is computed as a span's duration minus the durations of its child
spans, online, so it is exact even when the in-memory span list is capped.
The wrapper's own time, counter updates included, is measured on each call
where the clock can see it and calibrated where it cannot, and is taken out
of self times.  It is reported as ``trace.overhead_s``, so layer self times,
the benchmark's own time (``trace.bench_self_s``) and the overhead add up to
``trace.op_s``.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

SPAN_CAP = 200_000  # spans kept in memory and written at exit; later spans are only aggregated

# (module, attribute, span name) for plain functions; the wrapper replaces
# every binding of the same function object in every swarmproto module.
FUNCTIONS = [
    ("model", "parse_protocol", "model.parse"),
    ("model", "parse_subscriptions", "model.parse"),
    ("model", "parse_machine_shape", "model.parse"),
    ("model", "serialize_protocol", "model.serialize"),
    ("model", "serialize_subscriptions", "model.serialize"),
    ("model", "serialize_machine_shape", "model.serialize"),
    ("wellformed", "check_swarm_protocol", "wellformed.check"),
    ("projection", "project", "projection.project"),
    ("projection", "check_projection", "projection.conformance"),
    ("eventlog", "records_to_ndjson", "eventlog.ndjson_encode"),
    ("eventlog", "records_from_ndjson", "eventlog.ndjson_decode"),
    ("runner", "evaluate", "runner.evaluate"),
    ("sim", "parse_scenario", "sim.parse"),
    ("sim", "run_scenario", "sim.run"),
    ("sim", "consensus_check", "sim.consensus"),
    ("sim", "enumerate_schedules", "sim.enum"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("eventlog", "NodeLog", "append", "eventlog.append"),
    ("eventlog", "NodeLog", "receive", "eventlog.receive"),
    ("eventlog", "NodeLog", "undelivered_for", "eventlog.scan"),
    ("runner", "MachineRunner", "advance", "runner.advance"),
    ("runner", "MachineRunner", "invoke", "runner.invoke"),
]

BATCH_METHODS = {"eventlog.receive", "runner.advance"}  # (self, records) methods

OP = "bench.op"


def _call(fn: Callable[[], Any]) -> Any:
    return fn()


def _noop(a: Any, b: Any) -> None:
    return None


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.dropped = 0
        # name -> [calls, total s, raw self s, direct children, wrapper cost of descendants s]
        self.agg: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.measured_s = 0.0  # wrapper time outside spans, read from the clock
        self.op_id = -1
        # frames: [child s, span id, direct children, wrapper cost of descendants s]
        self.stack: list[list] = []
        self.ids = itertools.count()
        self.inner_s = 0.0  # unmeasured wrapper cost inside a span's own interval
        self.outer_s = 0.0  # unmeasured wrapper cost a span adds to its parent's self time
        self._op = self.wrap(OP, _call)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span named ``name``; ``hook(counts, args, kwargs,
        result, self seconds)`` updates counters after the span ends.  Calls
        made outside an op (set-up, output checks) are passed straight on.

        The wrapper reads the clock on entry and on exit as well, so its own
        time outside the span, hook included, is measured on every call and
        kept out of the parent's self time."""
        tracer, clock, stack, spans, ids = self, self.clock, self.stack, self.spans, self.ids
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
        batch_arg = name in BATCH_METHODS

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            entered = clock()
            if batch_arg and not isinstance(args[1], (list, tuple)):
                args = (args[0], list(args[1]), *args[2:])  # the hook reads the batch again
            parent = stack[-1]
            frame = [0.0, next(ids), 0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                parent[2] += 1
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                agg[3] += frame[2]
                agg[4] += frame[3]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], name, start, end, parent[1], tracer.op_id))
                else:
                    tracer.dropped += 1
            if hook is not None:
                self_s = duration - frame[0] - tracer.inner_s - frame[2] * tracer.outer_s
                hook(tracer.counts, args, kwargs, result, self_s)
            cost = start - entered + clock() - end
            parent[0] += cost
            parent[3] += cost + tracer.inner_s + tracer.outer_s + frame[3]
            tracer.measured_s += cost
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op inside a ``bench.op`` span."""
        self.op_id = op_id
        outside = [0.0, -1, 0, 0.0]
        op_agg = self.agg[OP]
        timed_before = op_agg[1]
        self.stack.append(outside)
        try:
            return self._op(fn)
        finally:
            self.stack.pop()
            # the op wrapper's own cost lies outside the op span: not overhead of the op
            self.measured_s -= outside[0] - (op_agg[1] - timed_before)

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Estimate the wrapper cost the clock reads cannot see, on a
        two-argument no-op: the part inside a span's own interval
        (``inner_s``) and the call and return around the wrapper
        (``outer_s``).  ``metrics`` takes both out of self times and reports
        them with the measured cost as ``trace.overhead_s``.  The lowest of
        several repeats is used, as noise only adds time."""
        wrapped = self.wrap("trace.calibration", _noop)
        agg = self.agg["trace.calibration"]
        inner, outer = [], []
        for _ in range(repeats):
            frame = [0.0, -1, 0, 0.0]
            self.stack.append(frame)
            timed_before = agg[1]
            start = self.clock()
            for _ in range(calls):
                wrapped(self, frame)
            traced_s = self.clock() - start
            self.stack.pop()
            start = self.clock()
            for _ in range(calls):
                _noop(self, frame)
            plain_s = self.clock() - start
            inner.append((agg[1] - timed_before) / calls)
            outer.append((traced_s - frame[0] - plain_s) / calls)
        self.inner_s, self.outer_s = min(inner), max(0.0, min(outer))
        del self.agg["trace.calibration"]
        self.spans.clear()
        self.measured_s = 0.0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"swarmproto.{m}") for m in
                ("model", "wellformed", "projection", "eventlog", "runner", "sim", "cli")}
        loaded = [m for n, m in sys.modules.items() if n == "swarmproto" or n.startswith("swarmproto.")]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            wrapped = self.wrap(name, orig, HOOKS.get(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), HOOKS.get(name)))
        runner_cls = mods["runner"].MachineRunner
        runner_cls.state = property(self.wrap("runner.state", runner_cls.state.fget))

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("# id\tname\tstart_s\tend_s\tparent\top\n")
            for span in self.spans:
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)
            if self.dropped:
                out.write(f"# {self.dropped} later spans aggregated only\n")

    def metrics(self, ops_per_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit).  ``ops_per_s`` is the
        traced loop's rate at reference speed, reported as
        ``trace.ops_per_s``; self times are wall seconds."""
        c = self.counts
        n: Counter = Counter()
        s: Counter = Counter()  # self time, wrapper cost taken out
        total: Counter = Counter()  # duration, wrapper cost of the span and its descendants taken out
        overhead = self.measured_s
        for name, (calls, duration, raw_self, children, below) in self.agg.items():
            cost = calls * self.inner_s + children * self.outer_s
            n[name] = calls
            s[name] = raw_self - cost
            total[name] = duration - calls * self.inner_s - below
            overhead += cost

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        op_s = self.agg[OP][1]
        out = {
            "model.parse_calls": (n["model.parse"], "count"),
            "model.parse_s": (s["model.parse"], "s"),
            "model.serialize_s": (s["model.serialize"], "s"),
            "wellformed.check_calls": (n["wellformed.check"], "count"),
            "wellformed.check_s": (s["wellformed.check"], "s"),
            "wellformed.us_per_state": (
                ratio(s["wellformed.check"] * 1e6, c["wellformed.states"]), "us"),
            "wellformed.diagnostics": (c["wellformed.diagnostics"], "count"),
            "projection.project_calls": (n["projection.project"], "count"),
            "projection.project_s": (s["projection.project"], "s"),
            "projection.conformance_calls": (n["projection.conformance"], "count"),
            "projection.conformance_s": (s["projection.conformance"], "s"),
            "eventlog.append_calls": (n["eventlog.append"], "count"),
            "eventlog.append_s": (s["eventlog.append"], "s"),
            "eventlog.receive_calls": (n["eventlog.receive"], "count"),
            "eventlog.receive_s": (s["eventlog.receive"], "s"),
            "eventlog.records_offered": (c["eventlog.offered"], "count"),
            "eventlog.fresh_ratio": (ratio(c["eventlog.fresh"], c["eventlog.offered"]), "ratio"),
            "eventlog.scan_calls": (n["eventlog.scan"], "count"),
            "eventlog.scan_s": (s["eventlog.scan"], "s"),
            "eventlog.scan_hit_ratio": (ratio(c["eventlog.scan_hits"], n["eventlog.scan"]), "ratio"),
            "eventlog.ndjson_encode_s": (s["eventlog.ndjson_encode"], "s"),
            "eventlog.ndjson_decode_s": (s["eventlog.ndjson_decode"], "s"),
            "runner.advance_calls": (n["runner.advance"], "count"),
            "runner.advance_s": (s["runner.advance"], "s"),
            "runner.append_advance_s": (
                s["runner.advance"] - c["runner.replay_self_s"], "s"),
            "runner.replay_advance_s": (c["runner.replay_self_s"], "s"),
            "runner.replay_ratio": (ratio(c["runner.replays"], n["runner.advance"]), "ratio"),
            "runner.invisible_replays": (c["runner.invisible_replays"], "count"),
            "runner.records_refolded": (c["runner.refolded"], "count"),
            "runner.discards_unexpected": (c["runner.unexpected"], "count"),
            "runner.discards_invalidated": (c["runner.invalidated"], "count"),
            "runner.state_reads": (n["runner.state"], "count"),
            "runner.state_s": (s["runner.state"], "s"),
            "runner.invoke_calls": (n["runner.invoke"], "count"),
            "runner.invoke_s": (s["runner.invoke"], "s"),
            "runner.evaluate_calls": (n["runner.evaluate"], "count"),
            "runner.evaluate_s": (s["runner.evaluate"], "s"),
            "sim.run_calls": (n["sim.run"], "count"),
            "sim.self_s": (s["sim.run"], "s"),
            "sim.parse_s": (s["sim.parse"], "s"),
            "sim.consensus_calls": (n["sim.consensus"], "count"),
            "sim.consensus_s": (s["sim.consensus"], "s"),
            "sim.enum_calls": (n["sim.enum"], "count"),
            "sim.enum_self_s": (s["sim.enum"], "s"),
            "sim.enum_states": (c["sim.enum_states"], "count"),
            "sim.enum_states_per_s": (ratio(c["sim.enum_states"], total["sim.enum"]), "1/s"),
            "sim.enum_terminals": (c["sim.enum_terminals"], "count"),
            "cli.calls": (n["cli.main"], "count"),
            "cli.self_s": (s["cli.main"], "s"),
            "trace.ops_per_s": (ops_per_s, "1/s"),
            "trace.op_s": (op_s, "s"),
            "trace.bench_self_s": (s[OP], "s"),
            "trace.overhead_s": (overhead, "s"),
        }
        return out


# --------------------------------------------------------------------------
# Counter hooks: (counts, args, kwargs, result, self seconds) -> None
# --------------------------------------------------------------------------


def _wellformed(counts: Counter, args: tuple, kwargs: dict, result: Any, self_s: float) -> None:
    counts["wellformed.states"] += len(args[0].states())
    counts["wellformed.diagnostics"] += len(result.errors)


def _receive(counts: Counter, args: tuple, kwargs: dict, result: Any, self_s: float) -> None:
    counts["eventlog.offered"] += len(args[1])
    counts["eventlog.fresh"] += len(result)


def _scan(counts: Counter, args: tuple, kwargs: dict, result: Any, self_s: float) -> None:
    if result:
        counts["eventlog.scan_hits"] += 1


def _advance(counts: Counter, args: tuple, kwargs: dict, result: Any, self_s: float) -> None:
    runner, batch = args[0], args[1]
    for rep in result.reports:
        counts["runner." + rep.reason] += 1
    if not result.replayed:
        return
    counts["runner.replays"] += 1
    counts["runner.replay_self_s"] += self_s
    counts["runner.refolded"] += len(runner.log)
    if not any(
        r.session_id == runner.session_id and r.event_type in runner.subscription for r in batch
    ):
        counts["runner.invisible_replays"] += 1


def _enum(counts: Counter, args: tuple, kwargs: dict, result: Any, self_s: float) -> None:
    counts["sim.enum_states"] += result.states_explored
    counts["sim.enum_terminals"] += result.terminal_runs


HOOKS = {
    "wellformed.check": _wellformed,
    "eventlog.receive": _receive,
    "eventlog.scan": _scan,
    "runner.advance": _advance,
    "sim.enum": _enum,
}
