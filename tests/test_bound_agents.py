"""Agents whose runner folds the node's own log, against two-log agents.

An ``AgentRuntime`` binds its runner to its node: the runner keeps its
records in the node, and the simulator folds what the node appended or
received through ``MachineRunner._fold_fresh``, with no second merge.  The oracle below is the agent as it was before: the
runner keeps its own copy of the log, and every step goes through the public
``advance``, which merges and inserts the records a second time.  Both must
give the same traces and reports on the scenario fixtures (seeds 1 to 100)
and on 150 random small scenarios (seeds 1 to 40), the same enumeration
results on the stock fixtures and the random set, and the same error when a
handler raises, after which a bound runner must still share its node's log.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial

import pytest

from conftest import load_fixture, random_scenarios
from swarmproto import sim
from swarmproto.errors import ConflictError, HandlerError, PreconditionError, ScenarioError
from swarmproto.eventlog import EventRecord, NodeLog
from swarmproto.runner import MachineDefinition, MachineRunner, evaluate
from swarmproto.sim import (
    AgentRuntime,
    AgentSpec,
    MachineEntry,
    Once,
    Scenario,
    _invoke,
    enumerate_schedules,
    run_scenario,
    scenario_from_obj,
    trace_to_ndjson,
)

FIXTURES = ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind", "scenario_three_robots")


# --------------------------------------------------------------------------
# Oracle: the two-log agent, stepped through the public ``advance``
# --------------------------------------------------------------------------


@dataclass
class TwoLogAgent:
    """An agent whose runner keeps a log of its own, next to its node's."""

    spec: AgentSpec
    initial_payload: object
    node: NodeLog
    runner: MachineRunner
    spent: frozenset[int] = frozenset()

    def _fork(self) -> "TwoLogAgent":
        return TwoLogAgent(
            self.spec, self.initial_payload, self.node._fork(), self.runner._fork(), self.spent
        )


def two_log_agents(scenario: Scenario) -> list[TwoLogAgent]:
    agents = []
    for spec in scenario.agents:
        entry = scenario.machines[spec.machine]
        payload = entry.payload_factory(spec.agent_id)
        subscription = frozenset(scenario.subs[spec.role])
        runner = MachineRunner(entry.definition, payload, scenario.session_id, subscription)
        agents.append(TwoLogAgent(spec, payload, NodeLog(spec.node_id), runner))
    return agents


def two_log_invoke(agent: TwoLogAgent, proposal: tuple) -> list[EventRecord]:
    si, cmd, args = proposal
    records = agent.runner.invoke(cmd, args, agent.node)
    if isinstance(agent.spec.strategies[si], Once):
        agent.spent |= {si}
    agent.runner.advance(records)
    return records


def two_log_deliver(dst: TwoLogAgent, batch: list[EventRecord]) -> list[EventRecord]:
    fresh = dst.node.receive(batch)
    dst.runner.advance(fresh)
    return fresh


def with_two_log_agents(monkeypatch, call):
    """``call()`` with the simulator and the enumerator on two-log agents."""
    with monkeypatch.context() as mp:
        mp.setattr(sim, "_build_agents", two_log_agents)
        mp.setattr(sim, "_invoke", two_log_invoke)
        mp.setattr(sim, "_deliver", two_log_deliver)
        return call()


def digests(scenario: Scenario, seeds) -> tuple[str, str]:
    traces, reports = hashlib.sha256(), hashlib.sha256()
    for seed in seeds:
        result = run_scenario(scenario, seed)
        traces.update(trace_to_ndjson(result.trace).encode())
        reports.update(json.dumps(result.report.to_obj(), sort_keys=True).encode())
    return traces.hexdigest(), reports.hexdigest()


def enumeration(scenario: Scenario) -> tuple:
    try:
        result = enumerate_schedules(scenario)
    except ScenarioError as err:
        return ("bound", str(err))
    return result.states_explored, result.terminal_runs, result.diverged


# --------------------------------------------------------------------------
# Differential checks
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_runs_match_two_log_agents(monkeypatch, name) -> None:
    scenario = scenario_from_obj(load_fixture(name))
    seeds = range(1, 101)
    assert digests(scenario, seeds) == with_two_log_agents(
        monkeypatch, lambda: digests(scenario, seeds)
    )


def test_random_scenario_runs_match_two_log_agents(monkeypatch) -> None:
    seeds = range(1, 41)
    for p, subs, _, scenario in random_scenarios(5151, 150):
        assert digests(scenario, seeds) == with_two_log_agents(
            monkeypatch, lambda: digests(scenario, seeds)
        ), (p, subs)


def test_enumerations_match_two_log_agents(monkeypatch) -> None:
    scenarios = [scenario_from_obj(load_fixture(name)) for name in FIXTURES]
    scenarios += [scenario for *_, scenario in random_scenarios(5151, 150)]
    outcomes = [enumeration(scenario) for scenario in scenarios]
    assert outcomes == with_two_log_agents(
        monkeypatch, lambda: [enumeration(scenario) for scenario in scenarios]
    )
    assert outcomes[:4] == [
        (10, 3, ()),
        (22, 9, outcomes[1][2]),
        (7, 3, outcomes[2][2]),
        (148, 41, ()),
    ]
    assert outcomes[1][2] and outcomes[2][2]


# --------------------------------------------------------------------------
# Binding
# --------------------------------------------------------------------------


def _stock_runner(scenario: Scenario, spec: AgentSpec) -> MachineRunner:
    entry = scenario.machines[spec.machine]
    subscription = frozenset(scenario.subs[spec.role])
    return MachineRunner(
        entry.definition, entry.payload_factory(spec.agent_id), scenario.session_id, subscription
    )


def test_an_agent_binds_its_runner_to_its_node() -> None:
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    spec = scenario.agents[0]
    node, runner = NodeLog(spec.node_id), _stock_runner(scenario, spec)
    agent = AgentRuntime(spec, None, node, runner)
    assert runner._node is node
    records = _invoke(agent, (0, "request", ["4711", "storage", "assembly"]))
    assert records and runner.log == tuple(node.known) == tuple(records)
    assert [r.key for r in runner.applied_records] == [r.key for r in records]
    twin = agent._fork()
    assert twin.runner._node is twin.node
    assert twin.node.known is not node.known and twin.node.known == node.known


def test_an_agent_refuses_a_runner_whose_log_differs_from_its_node() -> None:
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    spec = scenario.agents[0]
    record = EventRecord("requested", {"id": "1", "from": "A", "to": "B"}, 1, "n9", 0,
                         scenario.session_id)
    folded = _stock_runner(scenario, spec)
    folded.advance([record])
    with pytest.raises(PreconditionError, match="differs from its node"):
        AgentRuntime(spec, None, NodeLog(spec.node_id), folded)
    node = NodeLog(spec.node_id)
    node.receive([record])
    with pytest.raises(PreconditionError, match="differs from its node"):
        AgentRuntime(spec, None, node, _stock_runner(scenario, spec))
    # Equal logs bind, and the runner keeps what it folded.
    AgentRuntime(spec, None, node, folded)
    assert folded._node is node and folded.applied_records == (record,)


def test_advance_on_a_bound_runner_moves_the_node_clock() -> None:
    # A record merged through the runner is merged into the node, so the
    # node's clock must not fall behind it: the next emission sorts last.
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    agent = sim._build_agents(scenario)[0]
    late = EventRecord("requested", {"id": "1", "from": "A", "to": "B"}, 7, "n9", 0,
                       scenario.session_id)
    agent.runner.advance([late])
    assert agent.node.clock == 7
    own = agent.node.append("selected", {"winner": "agv1"}, scenario.session_id)
    assert own.lamport == 8
    assert agent.node.known == [late, own]


def _runner_view(runner: MachineRunner) -> tuple:
    return (runner.log, runner.state, runner.applied_records, runner.current_discards,
            runner.invalidated_keys)


@pytest.mark.parametrize("bound", [False, True])
def test_a_conflicting_record_leaves_the_runner_unchanged(bound) -> None:
    """A batch whose fresh records come before a record that reuses a held
    key with other content raises, and the runner, standalone through
    ``advance`` or bound through the simulator's delivery, keeps its log,
    state, applied records, discards and invalidated keys."""
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    spec = scenario.agents[1]  # a robot
    runner = _stock_runner(scenario, spec)
    deliver = runner.advance
    if bound:
        node = NodeLog(spec.node_id)
        deliver = partial(sim._deliver, AgentRuntime(spec, None, node, runner))

    def rec(event_type, payload, lamport, node_id, seq=0):
        return EventRecord(event_type, payload, lamport, node_id, seq, scenario.session_id)

    request = {"id": "4711", "from": "A", "to": "B"}
    held_bid = rec("bid", {"robot": "agv2", "delay": 3}, 3, "n3")
    deliver([rec("requested", request, 2, "n1"), held_bid])
    deliver([rec("requested", request, 1, "n9")])  # late: invalidates the first request
    before = _runner_view(runner)
    assert before[4] == {("n1", 0)} and before[3]
    forged = rec("bid", {"robot": "agv2", "delay": 0}, 3, "n3")
    batch = [rec("bid", {"robot": "agv3", "delay": 1}, 1, "n8"),
             rec("selected", {"winner": "agv2"}, 4, "n1", 1), forged]
    with pytest.raises(ConflictError):
        deliver(batch)
    assert _runner_view(runner) == before
    deliver(batch[:-1])  # not swallowed by the failed call
    assert {r.key for r in batch[:-1]} <= {r.key for r in runner.log}
    if bound:
        assert runner._node is node and node.known == list(runner.log)


# --------------------------------------------------------------------------
# A failing handler on a shared log
# --------------------------------------------------------------------------


def _faulty_scenario(fault: str) -> Scenario:
    """Two agents on one machine.  ``tick`` emits a record both fold;
    ``poison`` emits one whose reaction raises at every agent (``invoke``)
    or only at agent ``b`` (``deliver``); ``crash``'s command handler
    raises (``command``)."""

    def count(payload, records):
        if records[0].payload.get("boom") and (fault == "invoke" or payload["me"] == "b"):
            raise ValueError(f"cannot take {records[0].node_id}/{records[0].seq}")
        return {**payload, "seen": payload["seen"] + 1}

    def crash(payload):
        raise ValueError(f"crashed after {payload['seen']}")

    tally = MachineDefinition(role="tally", initial="s")
    tally.react("s", ["ticked"], "s", count)
    tally.command("s", "tick", ["ticked"], lambda p: [{}])
    tally.command("s", "poison", ["ticked"], lambda p: [{"boom": True}])
    tally.command("s", "crash", ["ticked"], crash)
    last = "crash" if fault == "command" else "poison"
    obj = {
        "protocol": {
            "initial": "s",
            "transitions": [
                {"source": "s", "target": "s", "label": {"cmd": c, "logType": ["ticked"], "role": "tally"}}
                for c in ("tick", "poison", "crash")
            ],
        },
        "subs": {"tally": ["ticked"]},
        "agents": [
            {
                "agentId": agent,
                "role": "tally",
                "machine": "tally",
                "nodeId": node,
                "strategy": [{"name": "once", "cmd": "tick", "args": []}]
                + ([{"name": "once", "cmd": last, "args": []}] if agent == "a" else []),
            }
            for agent, node in (("a", "n1"), ("b", "n2"))
        ],
        "sessionId": "s1",
        "seed": 1,
        "maxSteps": 12,
    }
    entry = MachineEntry(tally, lambda agent: {"me": agent, "seen": 0})
    return scenario_from_obj(obj, machines={"tally": entry})


def _failure(monkeypatch, call) -> tuple[str, int | None, object]:
    """The ``HandlerError`` ``call()`` raises, as (message, record index),
    and the last agent a step ran on."""
    stepped = []
    with monkeypatch.context() as mp, pytest.raises(HandlerError) as info:
        for name in ("_invoke", "_deliver"):
            step = getattr(sim, name)
            mp.setattr(sim, name, lambda agent, arg, step=step: stepped.append(agent) or step(agent, arg))
        call()
    return str(info.value), info.value.record_index, stepped[-1]


@pytest.mark.parametrize("fault", ["invoke", "deliver", "command"])
@pytest.mark.parametrize("driver", ["run_scenario", "enumerate_schedules"])
def test_a_failing_handler_leaves_the_runner_bound(monkeypatch, fault, driver) -> None:
    scenario = _faulty_scenario(fault)
    drive = getattr(sim, driver)
    message, index, agent = _failure(monkeypatch, lambda: drive(scenario))
    oracle = with_two_log_agents(monkeypatch, lambda: _failure(monkeypatch, lambda: drive(scenario)))
    assert (message, index) == oracle[:2]
    assert ("command handler" in message) == (fault == "command")
    runner, node = agent.runner, agent.node
    assert runner._node is node
    assert set(node._by_key) == {r.key for r in node.known}
    # The failed records are gone from the shared log, and the fold is what
    # a fold of that log gives.
    assert not any(r.payload.get("boom") for r in node.known)
    state, reports = evaluate(runner.definition, agent.initial_payload, node.known,
                              scenario.session_id, runner.subscription)
    assert (runner._fold.state, runner._fold.payload) == (state.state_name, state.payload)
    assert runner.applied_records == tuple(node.known)
    assert runner.current_discards == tuple(reports)
