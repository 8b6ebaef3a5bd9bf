"""The seeded scheduler's action table against a full rescan.

``run_scenario`` keeps each agent's proposal, each node pair's pending
records and the sorted lists of invoking agents and enabled pairs from step
to step, and updates only the agent an action changed, from the records the
action made new there.  The oracle below is the scheduler it replaced: it
rebuilds the action list every step by proposing for every agent and
scanning every ordered node pair, and its drain rescans every pair until a
sweep delivers nothing.  It shares only the per-agent step primitives
(``_propose``, ``_invoke``, ``_deliver``) with the scheduler, and writes its
trace lines itself, from the format the README documents.  Both must give
the same trace and ``ConsensusReport`` on random small scenarios with a
random partition window and on one station with sixteen robots.  A
step-by-step check compares the kept table, its pending masks decoded, with
a full rescan after every action, drain included, and checks that the
scheduler stops drawing at the first step where the rescan finds nothing to
do.  A report-only run (``_trace=False``) must give the same report.

A pending mask is decoded by sorting its records by order key, which
reproduces the ``known`` order only because ``NodeLog.append`` gives every
simulated record a distinct order key; a test backs that premise.  A call
count pins the asymptotic fix: no step scans a log, and neither does
building the table.
"""

from __future__ import annotations

import dataclasses
import random

from conftest import load_fixture, random_scenarios
from swarmproto import sim
from swarmproto.eventlog import NodeLog, record_to_obj
from swarmproto.sim import (
    AgentRuntime,
    PartitionWindow,
    RunResult,
    Scenario,
    _ActionTable,
    _build_agents,
    _deliver,
    _group_of,
    _invoke,
    _propose,
    consensus_check,
    run_scenario,
    scenario_from_obj,
)


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------


def rescan_actions(agents: list[AgentRuntime], groups: list[int]) -> list[tuple]:
    actions: list[tuple] = []
    for ai, agent in enumerate(agents):
        proposal = _propose(agent)
        if proposal is not None:
            actions.append(("invoke", ai, proposal))
    for si, src in enumerate(agents):
        for di, dst in enumerate(agents):
            if si != di and groups[si] == groups[di]:
                pending = src.node.undelivered_for(dst.node)
                if pending:
                    actions.append(("deliver", si, di, pending))
    return actions


def delivery_line(step: int, kind: str, src: AgentRuntime, dst: AgentRuntime, batch: list) -> dict:
    """A ``deliver`` or ``drain`` trace line as the README's trace format
    spells it: the two node ids, and each delivered record as its
    ``"node/seq"`` key."""
    return {
        "step": step,
        "kind": kind,
        "from": src.spec.node_id,
        "to": dst.spec.node_id,
        "records": [f"{r.node_id}/{r.seq}" for r in batch],
    }


def rescan_drain(agents: list[AgentRuntime], trace: list[dict], step0: int) -> None:
    step = step0
    changed = True
    while changed:
        changed = False
        for si, src in enumerate(agents):
            for di, dst in enumerate(agents):
                if si == di:
                    continue
                batch = src.node.undelivered_for(dst.node)
                if not batch:
                    continue
                _deliver(dst, batch)
                trace.append(delivery_line(step, "drain", src, dst, batch))
                step += 1
                changed = True


def rescan_run(scenario: Scenario, seed: int) -> RunResult:
    rng = random.Random(seed)
    agents = _build_agents(scenario)
    trace: list[dict] = []

    for step in range(scenario.max_steps):
        rng.randrange(2**32)
        groups = [_group_of(scenario, step, a.spec.node_id) for a in agents]
        actions = rescan_actions(agents, groups) + [("noop",)]

        action = actions[rng.randrange(len(actions))]
        if action[0] == "invoke":
            _, ai, proposal = action
            records = _invoke(agents[ai], proposal)
            trace.append(
                {
                    "step": step,
                    "kind": "invoke",
                    "agent": agents[ai].spec.agent_id,
                    "cmd": proposal[1],
                    "args": proposal[2],
                    "records": [record_to_obj(r) for r in records],
                }
            )
        elif action[0] == "deliver":
            _, si, di, undelivered = action
            count = 1 + rng.randrange(len(undelivered))
            pool = list(range(len(undelivered)))
            picked = [pool.pop(rng.randrange(len(pool))) for _ in range(count)]
            picked.sort()
            batch = [undelivered[i] for i in picked]
            _deliver(agents[di], batch)
            trace.append(delivery_line(step, "deliver", agents[si], agents[di], batch))
        else:
            trace.append({"step": step, "kind": "noop"})

    rescan_drain(agents, trace, scenario.max_steps)
    report = consensus_check(scenario.protocol, scenario.subs, agents, scenario.session_id)
    return RunResult(trace=tuple(trace), report=report)


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def robots_scenario(robots: int, max_steps: int = 400) -> Scenario:
    """One station and ``robots`` bid-once robots on the transport-order
    protocol; the station selects after half the bids, and the robots with
    odd numbers are cut off from the rest during steps 100-200."""
    obj = load_fixture("scenario_ok")
    station, robot = obj["agents"][0], obj["agents"][1]
    station["strategy"][1]["k"] = max(1, robots // 2)
    obj["agents"] = [station] + [
        dict(robot, agentId=f"agv{i}", nodeId=f"r{i}", strategy={"name": "bid-once", "delay": i})
        for i in range(1, robots + 1)
    ]
    odd = [f"r{i}" for i in range(1, robots + 1, 2)]
    rest = [station["nodeId"]] + [f"r{i}" for i in range(2, robots + 1, 2)]
    obj["partitionSchedule"] = [{"fromStep": 100, "toStep": 200, "groups": [odd, rest]}]
    obj["maxSteps"] = max_steps
    return scenario_from_obj(obj)


def with_random_window(scenario: Scenario, rng: random.Random) -> Scenario:
    """``scenario`` with one partition window at a random place, splitting
    the nodes into two or three non-empty groups."""
    nodes = [a.node_id for a in scenario.agents]
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, len(nodes)), 1 + rng.randrange(min(2, len(nodes) - 1))))
    groups = tuple(
        frozenset(nodes[a:b]) for a, b in zip([0] + cuts, cuts + [len(nodes)])
    )
    start = rng.randrange(scenario.max_steps)
    window = PartitionWindow(start, start + 1 + rng.randrange(scenario.max_steps), groups)
    return dataclasses.replace(scenario, partition_schedule=(window,))


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


def test_random_scenarios_match_rescan_oracle() -> None:
    rng = random.Random(2024)
    diverging = 0
    for p, subs, _, scenario in random_scenarios(5151, 150):
        scenario = with_random_window(scenario, rng)
        for seed in (1, 2, 3):
            result = run_scenario(scenario, seed=seed)
            assert result == rescan_run(scenario, seed), (p, subs, scenario.partition_schedule, seed)
            diverging += not result.report.converged
    assert diverging >= 20, diverging


def test_sixteen_robots_match_rescan_oracle() -> None:
    drained = 0
    for max_steps in (400, 150):
        scenario = robots_scenario(16, max_steps)
        for seed in (1, 2, 3):
            result = run_scenario(scenario, seed=seed)
            assert result == rescan_run(scenario, seed), (max_steps, seed)
            drained += len(result.trace) > max_steps
    assert drained >= 3, drained


def test_report_only_runs_give_the_traced_report() -> None:
    rng = random.Random(2026)
    runs = [
        (with_random_window(scenario, rng), seed)
        for *_, scenario in random_scenarios(5151, 150)
        for seed in (1, 2, 3)
    ]
    runs += [(robots_scenario(16), seed) for seed in (1, 2, 3)]
    ok = load_fixture("scenario_ok")
    idle = dict(ok, agents=[dict(a, strategy={"name": "idle"}) for a in ok["agents"]])
    runs += [(scenario_from_obj(idle), 1), (scenario_from_obj(dict(ok, maxSteps=0)), 1)]
    for scenario, seed in runs:
        report_only = run_scenario(scenario, seed=seed, _trace=False)
        assert report_only.trace == ()
        traced = run_scenario(scenario, seed=seed)
        assert report_only.report.to_obj() == traced.report.to_obj(), (scenario, seed)
    # The idle scenario is quiescent at step 0: its trace is noops only.
    idle_trace = run_scenario(scenario_from_obj(idle)).trace
    assert [line["kind"] for line in idle_trace] == ["noop"] * ok["maxSteps"]


def test_a_step_scans_only_the_changed_agents_row_and_column(monkeypatch) -> None:
    scenario = robots_scenario(16)
    calls = 0
    scan = NodeLog.undelivered_for

    def counted(self, other):
        nonlocal calls
        calls += 1
        return scan(self, other)

    monkeypatch.setattr(NodeLog, "undelivered_for", counted)
    trace = run_scenario(scenario, seed=1).trace
    n = len(scenario.agents)
    acted = sum(line["kind"] != "noop" for line in trace)
    assert acted > scenario.max_steps // 2
    assert calls == 0, (calls, acted, n)  # no scan, not even to build the table


def rescan_table(table: _ActionTable, groups: list[int]) -> tuple:
    """The table's proposals, invokers, pending lists and enabled slots,
    recomputed from its agents' logs and states."""
    agents, n = table.agents, len(table.agents)
    proposals = [_propose(agent) for agent in agents]
    pending = [
        [] if src is dst else src.node.undelivered_for(dst.node) for src in agents for dst in agents
    ]
    return (
        proposals,
        [ai for ai, proposal in enumerate(proposals) if proposal is not None],
        pending,
        [k for k, slot in enumerate(pending) if slot and groups[k // n] == groups[k % n]],
    )


def kept_table(table: _ActionTable) -> tuple:
    """The table's proposals, invokers, pending lists and enabled slots, each
    pending mask decoded bit by bit into the source's records under those
    bits, in the source's ``known`` order; a bit no such record has fails."""
    n, pending = len(table.agents), []
    for k, mask in enumerate(table.pending):
        src = table.agents[k // n].node
        listed = [r for r in src.known if mask >> table.bits[r.key] & 1]
        assert sum(1 << table.bits[r.key] for r in listed) == mask, k
        pending.append(listed)
    return table.proposals, table.invokers, pending, table.enabled


def quiescent(table: _ActionTable) -> bool:
    """Whether a rescan finds no proposal and no pending pair anywhere."""
    proposals, _, pending, _ = rescan_table(table, table.groups)
    return not any(proposals) and not any(pending)


def test_kept_table_matches_a_rescan_after_every_action(monkeypatch) -> None:
    refresh, action, drain = _ActionTable.refresh, _ActionTable.action, sim._drain
    scenario: Scenario
    step = drained = refreshed = stopped = 0
    quiet_at_drain = False

    def checked_action(self, index):  # run_scenario draws one action per step
        nonlocal step
        groups = [_group_of(scenario, step, a.spec.node_id) for a in self.agents]
        assert self.groups == groups, step
        assert kept_table(self) == rescan_table(self, groups), step
        assert not quiescent(self), step  # a step is drawn only before quiescence
        every = [action(self, i) for i in range(len(self.invokers) + len(self.enabled) + 1)]
        assert every == rescan_actions(self.agents, groups) + [("noop",)], step
        step += 1
        return action(self, index)

    def checked_refresh(self, changed, fresh):
        nonlocal refreshed
        refresh(self, changed, fresh)
        assert kept_table(self) == rescan_table(self, self.groups), (step, changed)
        refreshed += 1

    def counted_drain(table, trace, step0):
        nonlocal drained, quiet_at_drain
        quiet_at_drain = quiescent(table)
        before = refreshed
        drain(table, trace, step0)
        drained += refreshed - before

    monkeypatch.setattr(_ActionTable, "action", checked_action)
    monkeypatch.setattr(_ActionTable, "refresh", checked_refresh)
    monkeypatch.setattr(sim, "_drain", counted_drain)
    rng = random.Random(2025)
    runs = [
        (with_random_window(base, rng), seed)
        for *_, base in random_scenarios(5151, 150)
        for seed in (1, 2, 3)
    ]
    runs += [(robots_scenario(16, max_steps), 1) for max_steps in (400, 150)]
    for scenario, seed in runs:
        step = 0
        trace = run_scenario(scenario, seed=seed).trace
        # The drawn steps are exactly those before the first quiescent one.
        assert step == scenario.max_steps or quiet_at_drain, (scenario, seed, step)
        assert [line["step"] for line in trace[: scenario.max_steps]] == list(
            range(scenario.max_steps)
        )
        assert all(line["kind"] == "noop" for line in trace[step : scenario.max_steps])
        stopped += step < scenario.max_steps
    assert refreshed > 2500 and drained > 60, (refreshed, drained)
    assert stopped > 400, stopped


def test_appended_records_have_distinct_order_keys() -> None:
    """Interleaved appends and receives on several nodes: every record
    ``NodeLog.append`` makes gets an order key no other record has, also
    after a receive moved the node's clock."""
    rng = random.Random(77)
    for _ in range(50):
        nodes = [NodeLog(f"n{i}") for i in range(2 + rng.randrange(4))]
        made = []
        for _ in range(60):
            node = rng.choice(nodes)
            if rng.randrange(2):
                made.append(node.append("e", rng.randrange(3), "s"))
            else:
                known = rng.choice(nodes).known
                node.receive(rng.sample(known, rng.randrange(len(known) + 1)))
        assert len({r.order_key for r in made}) == len(made)
        for node in nodes:
            assert [r.order_key for r in node.known] == sorted(r.order_key for r in node.known)
