"""Tests of the benchmark itself: inputs repeat for a seed, every output
check fires on a corrupted output, and the tracer's numbers add up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _verdict(*codes: str) -> SimpleNamespace:
    return SimpleNamespace(errors=[SimpleNamespace(code=c) for c in codes])


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert generators.design_input(3, 7) == generators.design_input(3, 7)
    assert generators.design_input(3, 7) != generators.design_input(4, 7)
    assert generators.replica_episode(3, 1) == generators.replica_episode(3, 1)
    assert generators.replica_episode(3, 1) != generators.replica_episode(4, 1)
    assert [generators.sim_seed(3, i) for i in range(5)] == [
        generators.sim_seed(3, i) for i in range(5)
    ]


def test_design_sizes_cover_the_range_evenly():
    sizes = sorted(generators.design_size(11, i) for i in range(100))
    assert generators.MIN_STATES <= sizes[0] and sizes[-1] < generators.MAX_STATES
    span = generators.MAX_STATES - generators.MIN_STATES
    for q in (10, 50, 90):
        assert abs(sizes[q] - (generators.MIN_STATES + q / 100 * span)) < 0.03 * span


def test_one_design_input_in_four_is_a_mutant():
    expected = [generators.design_input(5, i).expected for i in range(40)]
    assert sum(e != generators.OK for e in expected) == 10


def test_replica_plan_delivers_every_record_and_holds_some_back():
    ep = generators.replica_episode(2, 0)
    delivered = [i for batch in ep.batches for i in batch]
    assert set(delivered) == set(range(len(ep.records)))
    assert all(1 <= len(b) <= generators.MAX_BATCH + 1 for b in ep.batches)
    late, newest = 0, None
    for batch in ep.batches:
        keys = [ep.records[i].order_key for i in batch]
        if newest is not None and min(keys) < newest:
            late += 1
        newest = max([*keys, newest] if newest else keys)
    assert 0.2 < late / len(ep.batches) < 0.4


# --------------------------------------------------------------------------
# Output checks fire on corrupted outputs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_design_check_accepts_real_outputs(seed):
    wl = workloads.DesignCheck(seed, ROOT / ".perfbench-work")
    for i in range(8):
        d = generators.design_input(seed, i, states=60)
        assert checks.design_ok(d.expected, *wl._run(d)), d.expected


def test_design_check_fires_on_corrupted_outputs():
    ok_conformance = [_verdict() for _ in range(5)]
    assert checks.design_ok("OK", _verdict(), ok_conformance)
    assert checks.design_ok("WF_LOG_GAP", _verdict("WF_LOG_GAP", "WF_LOG_GAP"), ok_conformance)
    assert not checks.design_ok("OK", _verdict("WF_LOG_GAP"), ok_conformance)
    assert not checks.design_ok("WF_BRANCH_BLIND", _verdict(), ok_conformance)
    assert not checks.design_ok("WF_BRANCH_BLIND", _verdict("WF_LOG_GAP"), ok_conformance)
    assert not checks.design_ok(
        "WF_BRANCH_BLIND", _verdict("WF_BRANCH_BLIND", "WF_ACTOR_BLIND"), ok_conformance
    )
    broken = ok_conformance[:4] + [_verdict("PROJ_MISSING_REACTION")]
    assert not checks.design_ok("OK", _verdict(), broken)
    assert not checks.design_ok("OK", _verdict(), ok_conformance[:4])


def _replica_after(batches: int) -> workloads.ReplicaFold:
    wl = workloads.ReplicaFold(6, ROOT / ".perfbench-work")
    for i in range(batches):
        wl.prepare(i)()
    return wl


def test_replica_check_accepts_real_outputs_and_fires_on_corrupted_ones():
    wl = _replica_after(120)
    delivered = [wl.plain[k] for k in sorted(wl.delivered)]
    runner, session = wl.runners[0], generators.SESSIONS[0]
    assert checks.replica_ok(runner, session, delivered)

    state = runner.state
    wrong_payload = SimpleNamespace(
        state=SimpleNamespace(state_name=state.state_name,
                              payload={**state.payload, "scores": state.payload["scores"][:-1]}),
        applied_records=runner.applied_records,
    )
    assert not checks.replica_ok(wrong_payload, session, delivered)
    wrong_state = SimpleNamespace(
        state=SimpleNamespace(state_name="DoIt", payload=state.payload),
        applied_records=runner.applied_records,
    )
    assert not checks.replica_ok(wrong_state, session, delivered)
    wrong_order = SimpleNamespace(state=state, applied_records=runner.applied_records[::-1])
    assert not checks.replica_ok(wrong_order, session, delivered)
    assert not checks.replica_ok(runner, generators.SESSIONS[1], delivered)


def test_replica_episode_failure_counts_every_op_of_the_episode():
    wl = _replica_after(0)
    for i in range(5):
        wl.prepare(i)()
        wl.check(i, None, False)
    wl.runners[0] = wl.runner.MachineRunner(  # a replica that lost its whole log
        wl.station, {}, generators.SESSIONS[0], subscription=workloads.STATION_SUBSCRIPTION
    )
    assert wl.finish() == 5


def test_sim_check_fires_on_corrupted_outputs():
    wl = workloads.SwarmSim(1, ROOT / ".perfbench-work")
    code, out = workloads.simulate(wl.cli, wl.path, 1)
    digest = wl.digests["1"]
    assert checks.sim_ok(code, out, digest)
    assert not checks.sim_ok(1, out, digest)
    assert not checks.sim_ok(code, out.replace("\n", " \n"), digest)
    obj = json.loads(out)
    obj["converged"] = False
    assert not checks.sim_ok(code, json.dumps(obj, sort_keys=True) + "\n", digest)
    assert not checks.sim_ok(code, "not json", digest)


def test_model_check_fires_on_corrupted_outputs():
    wl = workloads.ModelCheck(1, ROOT / ".perfbench-work")
    result = wl.sim.enumerate_schedules(wl.scenarios["actor_blind"], max_emitted=8)
    answer = wl.answers["actor_blind"]
    assert checks.model_ok(result, answer)
    assert checks.model_ok(SimpleNamespace(diverged=tuple(answer["diverged"]) * 2), answer)
    assert not checks.model_ok(SimpleNamespace(diverged=()), answer)
    assert not checks.model_ok(SimpleNamespace(diverged=tuple(answer["diverged"][:1])), answer)
    assert not checks.model_ok(result, wl.answers["ok"])


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------


def test_self_times_and_overhead_add_up_to_op_time():
    tracer = Tracer()
    tracer.calibrate(calls=2000)
    inner = tracer.wrap("eventlog.scan", lambda a, b: sum(range(2000)))
    outer = tracer.wrap("sim.run", lambda: [inner(1, 2) for _ in range(3)])
    for i in range(4):
        tracer.run_op(i, outer)
    m = tracer.metrics(1.0)
    layers = m["eventlog.scan_s"][0] + m["sim.self_s"][0]
    parts = layers + m["trace.bench_self_s"][0] + m["trace.overhead_s"][0]
    assert parts == pytest.approx(m["trace.op_s"][0], rel=1e-9)
    assert m["eventlog.scan_calls"][0] == 12 and m["sim.run_calls"][0] == 4
    assert len(tracer.spans) == 4 + 4 + 12
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] in ids for span in tracer.spans if span[1] != "bench.op")


def _traced_counts(workload: str, ops: int) -> dict:
    wl, _ = run.fresh_setup(workload, 9)
    tracer = Tracer()
    tracer.install()
    run.run_loop(wl, 0, ops, tracer)
    return {k: v for k, (v, unit) in tracer.metrics(1.0).items() if unit in ("count", "ratio")}


def test_traced_counts_repeat_exactly_for_a_seed():
    first = _traced_counts("replica-fold", 60)
    assert first == _traced_counts("replica-fold", 60)
    assert first["runner.advance_calls"] == 4 * 60
    assert first["eventlog.receive_calls"] == 60
