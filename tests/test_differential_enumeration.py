"""The live-world schedule enumerator against its snapshot/restore
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

On the same scenarios, every world the enumerator visits must carry the key
and the actions that a key and an action table computed from the world alone
give.  And every step that repeats an earlier (agent index, key component,
action) must, run afresh on the repeating world's own agent, give what the
first such step gave: the premise of the enumerator's transition memo.

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
    """Walk every world the enumerator visits (up to the bound error), check
    the key and actions each branch carried over from its parent against
    ones computed from the world alone, and return the number of worlds.
    Record integers depend on the order records are first interned, so the
    recomputed key uses the walk's own interning table."""
    keys, n, worlds = _WorldKeys(), len(scenario.agents), 0
    try:
        for world, key, actions in _worlds(scenario, 8, keys):
            worlds += 1
            assert key == keys.of(world), (scenario, worlds)
            assert actions == _ActionTable(world).actions([0] * n), (scenario, worlds)
    except ScenarioError:
        pass
    return worlds


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
    """Walk every world the enumerator visits (up to the bound error); run
    each enabled action on a fork of the world's own agent, and check that a
    step repeating an earlier (agent index, key component, action), the
    action being ``None`` for an invoke and the delivered record's interned
    integer for a delivery, gives the first such step's result.  Returns the
    number of repeats."""
    keys, first, repeats = _WorldKeys(), {}, 0
    try:
        for world, key, actions in _worlds(scenario, 8, keys):
            for action in actions:
                if action[0] == "invoke":
                    _, ai, proposal = action
                    agent = world[ai]._fork()
                    _invoke(agent, proposal)
                    memo = (ai, key[ai], None)
                else:
                    _, _, ai, pending = action
                    agent = world[ai]._fork()
                    _deliver(agent, pending[:1])
                    memo = (ai, key[ai], keys._intern(pending[0]))
                result = transition_result(agent)
                if memo in first:
                    repeats += 1
                    assert result == first[memo], (scenario, memo)
                else:
                    first[memo] = result
    except ScenarioError:
        pass
    return repeats


def test_repeated_transitions_give_the_first_result() -> None:
    stock = [
        scenario_from_obj(load_fixture(name))
        for name in ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind")
    ]
    randoms = [scenario for _, _, _, scenario in random_scenarios(5151, 150)]
    total = sum(check_repeated_transitions(scenario) for scenario in stock + randoms)
    assert total > 9000, total


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
