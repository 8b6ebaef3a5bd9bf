"""The interned-state schedule enumerator against its snapshot/restore
predecessor.

The oracle below is the earlier enumerator, kept verbatim in spirit: it
stores each world as a snapshot (per agent, the NDJSON of the known log, the
command lock and the spent set, the indices of the ``once`` rules that have
fired) and rebuilds live agents from a snapshot, by decoding it and
refolding every record, once per visited state and once more per branch.
It takes each world's enabled actions from an ``_ActionTable`` built from
scratch, which ``test_differential_scheduler.py`` checks against a rescan of
every node pair.
Both sides must give the same ``EnumerationResult`` (states explored,
terminal runs, and divergences in order) on the three stock scenarios and
on 150 random small scenarios with two or three agents, half of them with
cut-down subscriptions so that some diverge, and must raise the same bound
error.

On the same scenarios, every world the enumerator visits must have the
branches that an action table built from the world's agents alone gives,
and a key that matches the world's snapshot one to one.  On a walk without
any memo, every step that repeats an earlier (agent index, agent snapshot,
action) must, run on the repeating world's own agent, give what the first
such step gave: the premise of the enumerator's caches.  And terminal worlds
with equal logs must give equal consensus divergences.

A thousand more scenarios from the same generator check the checker against
the enumerator: no scenario the checker accepts may diverge.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import load_fixture, random_scenarios
from swarmproto.errors import ScenarioError
from swarmproto.eventlog import records_from_ndjson, records_to_ndjson
from swarmproto.sim import (
    AgentRuntime,
    EnumerationResult,
    Once,
    Scenario,
    _ActionTable,
    _build_agents,
    _deliver,
    _invoke,
    _WorldKeys,
    _worlds,
    consensus_check,
    enumerate_schedules,
    scenario_from_obj,
)
from swarmproto.wellformed import check_swarm_protocol


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------


def snapshot(agents: list[AgentRuntime]) -> tuple:
    return tuple(
        (
            records_to_ndjson(agent.node.known),
            agent.runner._locked,
            agent.spent,
        )
        for agent in agents
    )


def restore(scenario: Scenario, snap: tuple) -> list[AgentRuntime]:
    agents = _build_agents(scenario)
    for agent, (known_ndjson, locked, spent) in zip(agents, snap):
        records = records_from_ndjson(known_ndjson)
        own = [r for r in records if r.node_id == agent.node.node_id]
        agent.node.own = sorted(own, key=lambda r: r.seq)
        agent.node.receive(records)
        agent.runner.advance(records)
        agent.runner._locked = locked
        agent.spent = spent
    return agents


def oracle_enumerate(scenario: Scenario, max_emitted: int = 8) -> EnumerationResult:
    seen: set[tuple] = set()
    diverged: list[str] = []
    terminals = 0

    stack = [snapshot(_build_agents(scenario))]
    while stack:
        snap = stack.pop()
        if snap in seen:
            continue
        seen.add(snap)
        agents = restore(scenario, snap)

        actions = _ActionTable(agents).actions([0] * len(agents))
        if not actions:
            terminals += 1
            report = consensus_check(scenario.protocol, scenario.subs, agents, scenario.session_id)
            if not report.converged:
                diverged.extend(report.divergences)
            continue

        for action in actions:
            branch = restore(scenario, snap)
            if action[0] == "invoke":
                _, ai, (si, cmd, args) = action
                agent = branch[ai]
                emitted = sum(len(a.node.own) for a in branch)
                records = agent.runner.invoke(cmd, args, agent.node)
                if emitted + len(records) > max_emitted:
                    raise ScenarioError(
                        f"enumeration bound exceeded: more than {max_emitted} emitted events"
                    )
                if isinstance(agent.spec.strategies[si], Once):
                    agent.spent |= {si}
                agent.runner.advance(records)
            else:
                si, di = action[1], action[2]
                batch = branch[si].node.undelivered_for(branch[di].node)[:1]
                branch[di].node.receive(batch)
                branch[di].runner.advance(batch)
            stack.append(snapshot(branch))

    return EnumerationResult(
        states_explored=len(seen),
        terminal_runs=terminals,
        diverged=tuple(diverged),
    )


def outcome(enumerate_fn, scenario: Scenario, max_emitted: int) -> EnumerationResult | str:
    try:
        return enumerate_fn(scenario, max_emitted=max_emitted)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


# --------------------------------------------------------------------------
# Differential tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj",
    [
        load_fixture("scenario_ok"),  # full subscriptions: well-formed
        # robots miss `selected`, station selects after one bid: a late bidder never learns
        load_fixture("scenario_branch_blind"),
        # the station misses its own `requested`, never sees the auction open and stalls
        load_fixture("scenario_actor_blind"),
    ],
    ids=["ok", "branch_blind", "actor_blind"],
)
def test_stock_scenarios_match_snapshot_oracle(obj) -> None:
    scenario = scenario_from_obj(obj)
    for max_emitted in (8, 2):
        expected = outcome(oracle_enumerate, scenario, max_emitted)
        assert outcome(enumerate_schedules, scenario, max_emitted) == expected


def test_random_scenarios_match_snapshot_oracle() -> None:
    cut = diverging = 0
    for p, subs, cut_down, scenario in random_scenarios(5151, 150):
        results = [outcome(enumerate_schedules, scenario, m) for m in (8, 2)]
        assert results == [outcome(oracle_enumerate, scenario, m) for m in (8, 2)], (p, subs)
        cut += cut_down
        diverging += bool(results[0].diverged)
    assert cut >= 50 and diverging >= 20, (cut, diverging)


def check_carried_keys_and_tables(scenario: Scenario) -> int:
    """Walk every world the enumerator visits (up to the bound error) and
    check its cached branches against ones computed from the world alone:
    each action of an action table built from scratch, run on a fork of the
    world's own agent and keyed.  Check too that the world's integer key is
    the key of its materialised agents, and that integer keys and snapshots
    (known-log NDJSON, lock and spent set per agent) match one to one.
    Returns the number of worlds."""
    keys, n, snapshots = _WorldKeys(), len(scenario.agents), {}
    try:
        for key, branches in _worlds(scenario, 8, keys):
            world = [keys.agents[c] for c in key]
            assert key == keys.of(world), (scenario, len(snapshots))
            snapshots[key] = snapshot(world)
            fresh = []
            for action in _ActionTable(world).actions([0] * n):
                ai = action[1] if action[0] == "invoke" else action[2]
                agent = world[ai]._fork()
                if action[0] == "invoke":
                    _invoke(agent, action[2])
                else:
                    _deliver(agent, action[3][:1])
                fresh.append(key[:ai] + (keys.agent(ai, agent),) + key[ai + 1:])
            assert branches == fresh, (scenario, len(snapshots))
    except ScenarioError:
        pass
    assert len(set(snapshots.values())) == len(snapshots), scenario
    return len(snapshots)


def test_carried_keys_and_tables_match_ones_built_from_scratch() -> None:
    stock = [
        scenario_from_obj(load_fixture(name))
        for name in ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind")
    ]
    randoms = [scenario for _, _, _, scenario in random_scenarios(5151, 150)]
    total = sum(check_carried_keys_and_tables(scenario) for scenario in stock + randoms)
    assert total > 5000, total


def transition_result(agent: AgentRuntime) -> tuple:
    """Everything an agent carries out of a transition, runner history too."""
    runner = agent.runner
    return (
        records_to_ndjson(agent.node.known),
        runner._locked,
        agent.spent,
        [r.key for r in runner.applied_records],
        runner.state.state_name,
        [(rep.record.key, rep.reason) for rep in runner.current_discards],
        runner.invalidated_keys,
    )


def check_repeated_transitions(scenario: Scenario) -> int:
    """Walk every world of the scenario without any memo, the way the
    enumerator did before it had one: depth first, in the enumerator's
    order, each branch a fork of the changed agent with the action run on
    it, and every world kept as live agents reached along its own path.
    Check that each step repeating an earlier (agent index, snapshot of that
    agent, action), the action being ``None`` for an invoke and the
    delivered record's NDJSON for a delivery, gives the first such step's
    result.  Stops where the enumerator raises its bound error (more than 8
    emitted events), after the world that exceeds it; returns the number of
    repeats."""
    first: dict[tuple, tuple] = {}
    seen: set[tuple] = set()
    repeats = 0
    stack = [_build_agents(scenario)]
    while stack:
        world = stack.pop()
        snap = snapshot(world)
        if snap in seen:
            continue
        seen.add(snap)
        branches = []
        for action in _ActionTable(world).actions([0] * len(world)):
            if action[0] == "invoke":
                _, ai, proposal = action
                agent = world[ai]._fork()
                _invoke(agent, proposal)
                step = None
            else:
                _, _, ai, pending = action
                agent = world[ai]._fork()
                _deliver(agent, pending[:1])
                step = records_to_ndjson(pending[:1])
            memo = (ai, snap[ai], step)
            result = transition_result(agent)
            if memo in first:
                repeats += 1
                assert result == first[memo], (scenario, memo)
            else:
                first[memo] = result
            branches.append(world[:ai] + [agent] + world[ai + 1:])
        if any(sum(len(a.node.own) for a in branch) > 8 for branch in branches):
            break
        stack.extend(branches)
    return repeats


def test_repeated_transitions_give_the_first_result() -> None:
    stock = [
        scenario_from_obj(load_fixture(name))
        for name in ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind")
    ]
    randoms = [scenario for _, _, _, scenario in random_scenarios(5151, 150)]
    total = sum(check_repeated_transitions(scenario) for scenario in stock + randoms)
    assert total > 9000, total


def test_equal_terminal_logs_give_equal_divergences() -> None:
    # The premise of a partial-order reduction that reaches every terminal
    # log rather than every terminal world: at quiescence every agent knows
    # the same log, and consensus_check's verdict is a function of it.
    stock = [
        scenario_from_obj(load_fixture(name))
        for name in ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind")
    ]
    randoms = [scenario for _, _, _, scenario in random_scenarios(5151, 150)]
    terminals = repeats = 0
    for scenario in stock + randoms:
        keys, by_log = _WorldKeys(), {}
        try:
            for key, branches in _worlds(scenario, 8, keys):
                if branches:
                    continue
                world = [keys.agents[c] for c in key]
                report = consensus_check(
                    scenario.protocol, scenario.subs, world, scenario.session_id
                )
                log = records_to_ndjson(world[0].node.known)
                terminals += 1
                repeats += log in by_log
                assert by_log.setdefault(log, report.divergences) == report.divergences, scenario
        except ScenarioError:
            pass
    print(f"{terminals} terminal worlds, {repeats} of them repeat an earlier terminal log")
    assert terminals > 500, terminals


def test_checker_ok_implies_no_divergence() -> None:
    # The paper's central claim, checked exhaustively at scale: under a
    # subscription the checker accepts, every schedule reaches consensus.
    # Rejected cases may converge too (the checker is conservative), so the
    # table of verdict against outcome is printed, not asserted.
    table: Counter = Counter()
    cut = 0
    for p, subs, cut_down, scenario in random_scenarios(7, 1000):
        ok = check_swarm_protocol(p, subs).ok
        result = enumerate_schedules(scenario, max_emitted=8)
        assert not (ok and result.diverged), (p, subs, result.diverged)
        table[ok, bool(result.diverged)] += 1
        cut += cut_down
    print(f"(checker OK, some schedule diverges): count {dict(table)}; {cut} cut down")
    assert cut >= 400 and table[True, False] >= 300 and table[False, True] >= 300, (cut, table)
