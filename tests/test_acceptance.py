"""Acceptance suite: one test per release criterion, with pinned budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from __future__ import annotations

import random
import time

from swarmproto import transport
from swarmproto.eventlog import EventRecord, NodeLog, compare, sort_records
from swarmproto.projection import check_projection, project
from swarmproto.runner import INVALIDATED, MachineRunner, evaluate, extract_shape
from swarmproto.sim import enumerate_schedules, run_scenario, scenario_from_obj, trace_to_ndjson
from swarmproto.wellformed import (
    WF_ACTOR_BLIND,
    WF_BRANCH_BLIND,
    WF_GUARD_CLASH,
    check_swarm_protocol,
)

from conftest import load_fixture, random_wellformed_pair

SESSION = load_fixture("scenario_ok")["sessionId"]


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_paper_expectations(protocol, full_subs) -> None:
    started = time.perf_counter()
    wf = check_swarm_protocol(protocol, full_subs)
    assert wf.to_obj() == {"type": "OK"}
    proj = check_projection(protocol, full_subs, "robot", extract_shape(transport.ROBOT))
    assert proj.to_obj() == {"type": "OK"}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(
        "criterion 1 (fixture expectations)",
        f"checker and robot projection both exactly OK in {elapsed:.3f}s",
    )


def test_criterion_2_projection_roundtrip_200_protocols() -> None:
    started = time.perf_counter()
    rng = random.Random(20_000)
    accepted = 0
    attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 5000, "generator starved"
        pair = random_wellformed_pair(rng)
        if pair is None:
            continue
        accepted += 1
        p, subs = pair
        for role in subs:
            projected = project(p, subs, role).shape
            result = check_projection(p, subs, role, projected)
            assert result.ok, (p, role, result.to_obj())
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        "criterion 2 (projection round-trip)",
        f"{accepted} well-formed protocols, every role round-trips OK "
        f"({attempts - accepted} filtered), {elapsed:.1f}s",
    )


def test_criterion_3_wellformed_implies_consensus() -> None:
    started = time.perf_counter()
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    assert check_swarm_protocol(scenario.protocol, scenario.subs).ok
    for seed in range(1, 101):
        report = run_scenario(scenario, seed=seed).report
        assert report.converged, f"seed {seed} diverged: {report.divergences}"

    enum = enumerate_schedules(scenario, max_emitted=8)
    assert enum.all_converged, enum.diverged
    assert enum.terminal_runs >= 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        "criterion 3 (well-formed => consensus)",
        f"100 seeds converged; exhaustive enumeration explored "
        f"{enum.states_explored} states / {enum.terminal_runs} terminals, {elapsed:.1f}s",
    )


def test_criterion_4_illformed_counterexamples(protocol, full_subs) -> None:
    started = time.perf_counter()

    # (a) robot missing `selected`: predicted WF_BRANCH_BLIND
    subs_a = dict(full_subs)
    subs_a["robot"] = frozenset({"requested", "bid"})
    result = check_swarm_protocol(protocol, subs_a)
    assert WF_BRANCH_BLIND in [d.code for d in result.errors]

    # (b) duplicated guard event type: predicted WF_GUARD_CLASH
    from swarmproto.model import protocol_from_obj

    # protocol_guard_clash.json: `select` emits `bid`, so both auction branches share a guard
    clash = protocol_from_obj(load_fixture("protocol_guard_clash"))
    result = check_swarm_protocol(clash, full_subs)
    assert WF_GUARD_CLASH in [d.code for d in result.errors]

    # (c) actor not subscribed to its own emission: predicted WF_ACTOR_BLIND
    subs_c = dict(full_subs)
    subs_c["machine"] = frozenset({"bid", "selected"})
    result = check_swarm_protocol(protocol, subs_c)
    assert WF_ACTOR_BLIND in [d.code for d in result.errors]

    # Subscription-visibility mutations must show a diverging seed in 1..100,
    # localized to the predicted role.
    def first_divergence(obj, diverging_role_agents, clean_agents):
        scenario = scenario_from_obj(obj)
        for seed in range(1, 101):
            report = run_scenario(scenario, seed=seed).report
            if not report.converged:
                assert any(not report.per_agent[a].matches for a in diverging_role_agents)
                assert all(report.per_agent[a].matches for a in clean_agents)
                return seed
        raise AssertionError("no diverging seed in 1..100")

    # robots miss `selected`, station selects after one bid: a late bidder never learns it closed
    seed_a = first_divergence(
        load_fixture("scenario_branch_blind"), ["agv1", "agv2"], ["station"]
    )
    # the station misses its own `requested`, so it never sees the auction open and stalls
    seed_c = first_divergence(
        load_fixture("scenario_actor_blind"), ["station"], ["agv1", "agv2"]
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        "criterion 4 (ill-formedness counterexamples)",
        f"predicted codes reported; diverging seeds: branch-blind={seed_a}, "
        f"actor-blind={seed_c}, {elapsed:.1f}s",
    )


def _random_swarm_records(rng: random.Random) -> list[EventRecord]:
    nodes = [NodeLog(f"n{i}") for i in range(3)]
    types = ["requested", "bid", "selected"]
    for _ in range(rng.randrange(21)):
        node = nodes[rng.randrange(3)]
        node.append(
            types[rng.randrange(3)],
            {
                "robot": f"agv{rng.randrange(3)}",
                "delay": rng.randrange(3),
                "id": "1",
                "from": "A",
                "to": "B",
                "winner": f"agv{rng.randrange(3)}",
            },
            SESSION,
        )
        if rng.randrange(2):
            nodes[rng.randrange(3)].receive(node.known)
    return sort_records({r.key: r for n in nodes for r in n.known}.values())


def test_criterion_5_log_merge_crdt_laws() -> None:
    rng = random.Random(50_000)
    cases = 0
    for _ in range(350):
        records = _random_swarm_records(rng)
        pick = lambda: (
            [records[rng.randrange(len(records))] for _ in range(rng.randrange(len(records) + 1))]
            if records
            else []
        )
        a, b, c = pick(), pick(), pick()

        log = NodeLog("x")
        log.receive(a)
        once = list(log.known)
        log.receive(a)
        assert log.known == once
        cases += 1

        left, right = NodeLog("x"), NodeLog("x")
        left.receive(a)
        left.receive(b)
        right.receive(b)
        right.receive(a)
        assert left.known == right.known
        cases += 1

        grouped, split = NodeLog("x"), NodeLog("x")
        grouped.receive(a + b)
        grouped.receive(c)
        split.receive(a)
        split.receive(b + c)
        assert grouped.known == split.known
        cases += 1

    causality_runs = 0
    for _ in range(200):
        logs = [NodeLog(f"n{i}") for i in range(3)]
        for _ in range(20):
            node = logs[rng.randrange(3)]
            if rng.randrange(2) == 0:
                known_before = list(node.known)
                rec = node.append(f"e{rng.randrange(3)}", {}, SESSION)
                for prior in known_before:
                    assert compare(prior, rec) < 0
            else:
                src = logs[rng.randrange(3)]
                if src.known:
                    node.receive(rng.sample(src.known, 1 + rng.randrange(len(src.known))))
        causality_runs += 1

    assert cases >= 1000
    _report(
        "criterion 5 (log-merge CRDT laws)",
        f"{cases} law cases + {causality_runs} causality interleavings, zero failures",
    )


def test_criterion_6_replay_determinism_500_logs() -> None:
    started = time.perf_counter()
    rng = random.Random(60_000)
    replays_seen = 0
    for _ in range(500):
        records = _random_swarm_records(rng)
        oracle_state, oracle_reports = evaluate(
            transport.ROBOT, {"robot": "agv1"}, records, SESSION
        )

        shuffled = list(records)
        rng.shuffle(shuffled)
        runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
        while shuffled:
            take = 1 + rng.randrange(len(shuffled))
            batch, shuffled = shuffled[:take], shuffled[take:]
            held_max = runner.log[-1].order_key if runner.log else None
            known_keys = {r.key for r in runner.log}
            fresh = [r for r in batch if r.key not in known_keys]
            expect_replay = bool(fresh) and held_max is not None and any(
                r.order_key < held_max for r in fresh
            )
            applied_before = {r.key for r in runner.applied_records}
            result = runner.advance(batch)
            assert result.replayed == expect_replay
            if result.replayed:
                replays_seen += 1
                reported = {r.record.key for r in result.reports}
                invalidated = {
                    r.record.key for r in result.reports if r.reason == INVALIDATED
                }
                assert invalidated == applied_before & reported

        assert runner.state.state_name == oracle_state.state_name
        assert runner.state.payload == oracle_state.payload
        assert sorted(r.record.key for r in runner.current_discards) == sorted(
            r.record.key for r in oracle_reports
        )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 6 (replay determinism)",
        f"500 random logs, {replays_seen} replays exercised, zero failures, {elapsed:.1f}s",
    )


def test_criterion_7_simulator_determinism() -> None:
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert trace_to_ndjson(first.trace) == trace_to_ndjson(second.trace)
    assert first.report.to_obj() == second.report.to_obj()
    _report(
        "criterion 7 (simulator determinism)",
        "two consecutive runs produced byte-identical traces and reports",
    )
