"""swarmproto benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload design-check --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run sets up several times (``setup_s`` is the median),
then runs ops back to back for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it wraps each layer's public entry points, runs
a fixed number of ops (``--seconds`` times the workload's nominal traced
rate, so counts repeat exactly for a seed) and reports per-layer metrics.
Every op's output is checked; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speedprobe
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MIN_TRACE_OPS = 20
PROBE_EVERY_S = 0.04


def fresh_setup(name: str, seed: int) -> tuple[object, float]:
    """Import the package from scratch, build the workload and warm it up;
    returns the workload and the seconds this took."""
    start = time.perf_counter()
    for mod in [m for m in sys.modules if m == "swarmproto" or m.startswith("swarmproto.")]:
        del sys.modules[mod]
    import swarmproto  # noqa: F401

    workload = workloads.WORKLOADS[name](seed, WORK)
    workload.warm_up()
    return workload, time.perf_counter() - start


def percentiles(values: list[float]) -> dict[int, float]:
    """p50 and p90, interpolated between order statistics."""
    if len(values) < 2:
        return {q: values[0] for q in (50, 90)}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {q: cuts[q - 1] for q in (50, 90)}


def run_loop(workload, seconds: float, op_limit: int | None, tracer: Tracer | None):
    """Closed loop with one caller; returns (latencies, latencies at
    reference speed, failed, probe times).

    Between ops, every ``PROBE_EVERY_S`` of wall time, a speed sample is
    taken outside any op's timing.  An op's latency is scaled to reference
    speed by the samples just before and just after it."""
    latencies: list[float] = []
    last_probe: list[int] = []  # per op, index of the last probe before it
    probes: list[float] = []
    failed = 0
    reported = False
    clock = time.perf_counter
    start = next_probe = clock()
    i = 0
    while (clock() - start < seconds) if op_limit is None else (i < op_limit):
        if clock() >= next_probe:
            probes.append(speedprobe.sample())
            next_probe = clock() + PROBE_EVERY_S
        op = workload.prepare(i)
        output, raised = None, False
        t0 = clock()
        try:
            output = op() if tracer is None else tracer.run_op(i, op)
        except Exception:
            raised = True
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        latencies.append(clock() - t0)
        last_probe.append(len(probes) - 1)
        failed += workload.check(i, output, raised)
        i += 1
    failed += workload.finish()
    probes.append(speedprobe.sample())
    scaled = [speedprobe.scale(t, probes[j], probes[j + 1]) for t, j in zip(latencies, last_probe)]
    return latencies, scaled, min(failed, len(latencies)), probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swarmproto" / "__init__.py").is_file():
        print(f"error: no swarmproto package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = []
        for _ in range(repeats):
            before = speedprobe.sample()
            workload, seconds = fresh_setup(args.workload, args.seed)
            setups.append(speedprobe.scale(seconds, before, speedprobe.sample()))
        setup_s = statistics.median(setups)
        gc.collect()

        tracer = None
        op_limit = None
        if args.trace:
            tracer = Tracer()
            tracer.calibrate()
            tracer.install()
            op_limit = max(MIN_TRACE_OPS, round(workload.trace_ops_per_s * args.seconds))
        latencies, scaled, failed, probes = run_loop(workload, args.seconds, op_limit, tracer)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(latencies)
    busy = sum(latencies)
    raw = percentiles(latencies)
    print(f"unscaled: ops_per_s {attempted / busy:.4f} op_ms_p50 {raw[50] * 1e3:.3f} "
          f"op_ms_p90 {raw[90] * 1e3:.3f}; speed probe median "
          f"{statistics.median(probes) * 1e3:.4f} ms over {len(probes)} samples")
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.tsv")
        metrics = tracer.metrics(attempted / sum(scaled))
    else:
        pct = percentiles(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(scaled), "1/s"),
            "op_ms_p50": (pct[50] * 1e3, "ms"),
            "op_ms_p90": (pct[90] * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {busy:.3f} s busy, "
          f"{failed} failed (fail_ratio {failed / max(attempted, 1):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
