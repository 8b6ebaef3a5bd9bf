"""The lazy-delivery enumerator against a walk over every world.

The oracle below walks every world of a scenario depth first, as live
agents: each branch is a fork of the changed agent with one action run on
it, and a world is identified by its snapshot (per agent, the NDJSON of the
known log, the command lock and the spent set, the indices of the ``once``
rules that have fired).  Its actions are the seeded scheduler's
(``_ActionTable.action``, which ``test_differential_scheduler.py`` checks
against a rescan of every node pair), with each delivery split into one
branch per pending record of the pair: any record a node knows can reach
any other node at any time, as in ``run_scenario``.  Both sides must reach
the same terminal logs, give the same divergences per terminal log, and
raise the same bound error, on the three stock scenarios and on 150 random
small scenarios with two or three agents, half of them with cut-down
subscriptions so that some diverge.  And every log a seeded simulation ends
in must be an enumerated terminal log.

The premises of the search are checked on the same scenarios: every
component's record masks, built step by step, equal masks built from its
representative alone, and components and snapshots match one to one; every
component's runner holds what ``evaluate`` gives over its known log; on the
oracle's walk, every step that repeats an earlier (agent index, agent
snapshot, action) gives what the first such step gave, and every delivery
into an unlocked agent leaves it unlocked with one more known line; and
terminal worlds with equal logs give equal consensus divergences.

The search skips a delivery into an unlocked component whose successor is
interned, and runs each agent's local search once per (component, emitted
records) pair.  Its unreduced form, kept below with neither, must give the
same result and intern the same components, in the same order and with the
same representatives, on the stock scenarios, the 3- and 4-robot auctions
and the 150 random scenarios.

A thousand more scenarios from the same generator check the checker against
the enumerator: no scenario the checker accepts may diverge.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator

import pytest

from conftest import load_fixture, random_scenarios
from swarmproto import sim
from swarmproto.errors import ScenarioError
from swarmproto.eventlog import EventRecord, records_to_ndjson
from swarmproto.runner import evaluate
from swarmproto.sim import (
    AgentRuntime,
    EnumerationResult,
    Scenario,
    _ActionTable,
    _build_agents,
    _deliver,
    _invoke,
    _verdicts,
    _WorldKeys,
    consensus_check,
    enumerate_schedules,
    run_scenario,
    scenario_from_obj,
)
from swarmproto.wellformed import check_swarm_protocol

STOCK = ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind")


def stock_and_random() -> list[Scenario]:
    stock = [scenario_from_obj(load_fixture(name)) for name in STOCK]
    return stock + [scenario for _, _, _, scenario in random_scenarios(5151, 150)]


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------


# Record id -> (record, its NDJSON line).  Holding the record keeps its id
# from being reused; ``every_world`` empties the cache when it starts.
LINES: dict[int, tuple[EventRecord, str]] = {}


def ndjson(records) -> str:
    """``records_to_ndjson(records)``, each record encoded once."""
    out = []
    for record in records:
        hit = LINES.get(id(record))
        if hit is None:
            hit = LINES[id(record)] = (record, records_to_ndjson([record]))
        out.append(hit[1])
    return "".join(out)


def snapshot(agents: list[AgentRuntime]) -> tuple:
    return tuple((ndjson(agent.node.known), agent.runner._locked, agent.spent) for agent in agents)


def actions(table: _ActionTable) -> list[tuple]:
    """Every enabled action but the noop, in the scheduler's order, with
    every agent in one partition group."""
    table.regroup([0] * len(table.agents))
    return [table.action(i) for i in range(len(table.invokers) + len(table.enabled))]


def steps(world: list[AgentRuntime]) -> Iterator[tuple[int, AgentRuntime, EventRecord | None]]:
    """Each action of ``world`` with deliveries split into single records,
    as (index of the changed agent, a fork of it with the action run on it,
    the delivered record or ``None`` for an invoke)."""
    for action in actions(_ActionTable(world)):
        if action[0] == "invoke":
            _, ai, proposal = action
            agent = world[ai]._fork()
            _invoke(agent, proposal)
            yield ai, agent, None
        else:
            _, _, ai, pending = action
            for record in pending:
                agent = world[ai]._fork()
                _deliver(agent, [record])
                yield ai, agent, record


def every_world(scenario: Scenario, max_emitted: int = 8) -> Iterator[tuple]:
    """Each distinct world of the scenario, depth first, as ``(world,
    snapshot, steps)``, where ``steps`` lists the world's ``steps``.  Raises
    the enumerator's bound error at the first world with a step that would
    emit more than ``max_emitted`` events in all."""
    LINES.clear()
    seen: set[tuple] = set()
    stack = [_build_agents(scenario)]
    while stack:
        world = stack.pop()
        snap = snapshot(world)
        if snap in seen:
            continue
        seen.add(snap)
        branches = list(steps(world))
        emitted = sum(len(a.node.own) for a in world)
        for ai, agent, _ in branches:
            if emitted - len(world[ai].node.own) + len(agent.node.own) > max_emitted:
                raise ScenarioError(
                    f"enumeration bound exceeded: more than {max_emitted} emitted events"
                )
        yield world, snap, branches
        stack.extend(world[:ai] + [agent] + world[ai + 1:] for ai, agent, _ in branches)


def oracle_terminals(scenario: Scenario, max_emitted: int) -> dict[str, tuple[str, ...]]:
    """Each terminal log's NDJSON, with the divergences of the first
    terminal world that has it."""
    terminals: dict[str, tuple[str, ...]] = {}
    for world, _, branches in every_world(scenario, max_emitted):
        if not branches:
            log = ndjson(world[0].node.known)
            if log not in terminals:
                report = consensus_check(
                    scenario.protocol, scenario.subs, world, scenario.session_id
                )
                terminals[log] = report.divergences
    return terminals


def search_terminals(scenario: Scenario, max_emitted: int) -> dict[str, tuple[str, ...]]:
    """Each terminal log's NDJSON the enumerator checks, with its divergences,
    in the order checked; also checks that the result lists each log once,
    and exactly those divergences, in that order."""
    terminals: dict[str, tuple[str, ...]] = {}

    def spy(p, subs, agents, session_id):
        canonical, verdicts = _verdicts(p, subs, agents, session_id)
        log = records_to_ndjson(agents[0].node.known)
        assert log not in terminals, "a terminal log checked twice"
        terminals[log] = tuple(d for _, _, d in verdicts if d is not None)
        return canonical, verdicts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_verdicts", spy)
        result = enumerate_schedules(scenario, max_emitted=max_emitted)
    assert result.terminal_runs == len(terminals)
    assert result.diverged == tuple(chain.from_iterable(terminals.values()))
    return terminals


def outcome(terminals_fn, scenario: Scenario, max_emitted: int) -> dict | str:
    try:
        return terminals_fn(scenario, max_emitted)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


# --------------------------------------------------------------------------
# Differential tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, worlds",
    [
        ("scenario_ok", 85),  # full subscriptions: well-formed
        # robots miss `selected`, station selects after one bid: a late bidder never learns
        ("scenario_branch_blind", 253),
        # the station misses its own `requested`, never sees the auction open and stalls
        ("scenario_actor_blind", 53),
    ],
    ids=["ok", "branch_blind", "actor_blind"],
)
def test_stock_scenarios_match_snapshot_oracle(name, worlds) -> None:
    scenario = scenario_from_obj(load_fixture(name))
    for max_emitted in (8, 2):
        expected = outcome(oracle_terminals, scenario, max_emitted)
        assert outcome(search_terminals, scenario, max_emitted) == expected
    assert sum(1 for _ in every_world(scenario)) == worlds


def test_random_scenarios_match_snapshot_oracle() -> None:
    cut = diverging = 0
    for p, subs, cut_down, scenario in random_scenarios(5151, 150):
        results = [outcome(search_terminals, scenario, m) for m in (8, 2)]
        assert results == [outcome(oracle_terminals, scenario, m) for m in (8, 2)], (p, subs)
        cut += cut_down
        diverging += any(results[0].values())
    assert cut >= 50 and diverging >= 20, (cut, diverging)


def checked_logs(call) -> set[str]:
    """The log of each consensus check that ``call()`` makes: the per-agent
    verdicts of the simulator's ``consensus_check`` or of the enumerator."""
    logs: set[str] = set()

    def spy(p, subs, agents, session_id):
        logs.add(records_to_ndjson(agents[0].node.known))
        return _verdicts(p, subs, agents, session_id)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_verdicts", spy)
        call()
    return logs


def missed_logs(scenario: Scenario, seeds: range) -> set[str]:
    """The logs the seeded simulations of ``scenario`` end in that
    enumeration does not reach."""
    simulated = checked_logs(lambda: [run_scenario(scenario, s, _trace=False) for s in seeds])
    return simulated - checked_logs(lambda: enumerate_schedules(scenario, max_emitted=8))


def test_enumeration_reaches_simulated_terminal_logs() -> None:
    # The simulator delivers any subset of a pair's pending records, so the
    # enumerator must reach every log a simulation can end in.
    for name, seed in (
        ("scenario_branch_blind", 168),
        ("scenario_branch_blind", 550),
        ("scenario_three_robots", 381),
    ):
        scenario = scenario_from_obj(load_fixture(name))
        assert not missed_logs(scenario, range(seed, seed + 1)), (name, seed)
    for p, subs, _, scenario in random_scenarios(5151, 150):
        assert not missed_logs(scenario, range(1, 41)), (p, subs)


# --------------------------------------------------------------------------
# Premises of the search
# --------------------------------------------------------------------------


Searched = tuple[EnumerationResult | str, _WorldKeys]


def searched(scenario: Scenario, max_emitted: int = 8) -> Searched:
    """One enumeration's result, or its bound error as a string, and the
    components it interned up to there."""
    made: list[_WorldKeys] = []

    class Recorded(_WorldKeys):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_WorldKeys", Recorded)
        try:
            result = enumerate_schedules(scenario, max_emitted=max_emitted)
        except ScenarioError as exc:
            result = f"ScenarioError: {exc}"
    return result, made[0]


def search_keys(scenario: Scenario) -> _WorldKeys:
    """The components one enumeration interned, up to its bound error, if
    any."""
    return searched(scenario)[1]


def test_component_masks_match_ones_built_from_scratch() -> None:
    # Each component's masks are its parent's plus the records its step made
    # new; built from the representative's own logs they must be the same,
    # and components must stand for distinct agent snapshots.
    components = 0
    for scenario in stock_and_random():
        keys = search_keys(scenario)
        snapshots = set()
        for (index, known, locked, spent), cid in keys._ids.items():
            agent = keys.agents[cid]
            assert agent.spec == scenario.agents[index]
            assert (keys.known[cid], keys.own[cid]) == (known, keys.mask(agent.node.own))
            assert known == keys.mask(agent.node.known), scenario
            assert (locked, spent) == (agent.runner._locked, agent.spent)
            snapshots.add((index,) + snapshot([agent])[0])
        assert len(snapshots) == len(keys.agents), scenario
        assert all(keys.mask([record]) == 1 << bit for bit, record in keys.records.items())
        components += len(keys.agents)
    assert components > 10000, components


def test_components_hold_the_fold_of_their_known_log() -> None:
    # A component is keyed by its known log, lock and spent set, not by the
    # path that reached it; so its runner must hold what a fold of the whole
    # known log from scratch gives.
    components = 0
    for scenario in stock_and_random():
        keys = search_keys(scenario)
        for agent in keys.agents:
            runner, known = agent.runner, agent.node.known
            state, reports = evaluate(
                runner.definition,
                agent.initial_payload,
                known,
                scenario.session_id,
                subscription=runner.subscription,
            )
            discarded = {rep.record.key for rep in reports}
            applied = [
                r.key
                for r in known
                if r.session_id == scenario.session_id
                and r.event_type in runner.subscription
                and r.key not in discarded
            ]
            assert runner.state.state_name == state.state_name, scenario
            assert runner.state.payload == state.payload, scenario
            assert [r.key for r in runner.applied_records] == applied, scenario
            components += 1
    assert components > 10000, components


def transition_result(agent: AgentRuntime) -> tuple:
    """Everything an agent carries out of a transition but its runner
    history (discard reasons and invalidated keys), which depends on the
    order the known log arrived in."""
    runner = agent.runner
    return (
        ndjson(agent.node.known),
        runner._locked,
        agent.spent,
        [r.key for r in runner.applied_records],
        runner.state.state_name,
        runner.state.payload,
        [rep.record.key for rep in runner.current_discards],
    )


def check_repeated_transitions(scenario: Scenario) -> int:
    """Walk every world of the scenario (up to the bound error, if any) and
    check that each step repeating an earlier (agent index, snapshot of that
    agent, action), the action being ``None`` for an invoke and the
    delivered record's NDJSON for a delivery, gives the first such step's
    result; returns the number of repeats."""
    first: dict[tuple, tuple] = {}
    repeats = 0
    try:
        for _, snap, branches in every_world(scenario):
            for ai, agent, record in branches:
                memo = (ai, snap[ai], None if record is None else ndjson([record]))
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
    # The premise of running each component's invoke, and its delivery of
    # each record, once per search.
    total = sum(check_repeated_transitions(scenario) for scenario in stock_and_random())
    assert total > 50000, total


def test_equal_terminal_logs_give_equal_divergences() -> None:
    # The premise of a search that reaches every terminal log rather than
    # every terminal world: at quiescence every agent knows the same log,
    # and consensus_check's verdict is a function of it.
    terminals = repeats = 0
    for scenario in stock_and_random():
        by_log: dict[str, tuple] = {}
        try:
            for world, _, branches in every_world(scenario):
                if branches:
                    continue
                report = consensus_check(
                    scenario.protocol, scenario.subs, world, scenario.session_id
                )
                log = ndjson(world[0].node.known)
                terminals += 1
                repeats += log in by_log
                assert by_log.setdefault(log, report.divergences) == report.divergences, scenario
        except ScenarioError:
            pass
    print(f"{terminals} terminal worlds, {repeats} of them repeat an earlier terminal log")
    assert terminals > 900, terminals


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


def test_deliveries_into_unlocked_agents_add_one_line() -> None:
    # The premises of skipping a delivery into an unlocked component whose
    # successor is interned: the branch stays unlocked with the same spent
    # set, and its node found the record fresh, so its known log is the
    # parent's plus exactly the delivered line.  A ConflictError would
    # propagate out of the walk.
    deliveries = 0
    for scenario in stock_and_random():
        try:
            for world, _, branches in every_world(scenario):
                for ai, agent, record in branches:
                    parent = world[ai]
                    if record is None or parent.runner._locked:
                        continue
                    line, lines = ndjson([record]), [ndjson([r]) for r in agent.node.known]
                    before = [ndjson([r]) for r in parent.node.known]
                    assert [x for x in lines if x != line] == before, scenario
                    assert len(lines) == len(before) + 1, scenario
                    assert (agent.runner._locked, agent.spent) == (False, parent.spent), scenario
                    deliveries += 1
        except ScenarioError:
            pass
    assert deliveries > 80000, deliveries


# --------------------------------------------------------------------------
# The search against its unreduced form
# --------------------------------------------------------------------------


class EveryDelivery(_WorldKeys):
    """Components without the delivery skip: each distinct delivery of one
    record into one component runs, locked or not."""

    def reach(self, index: int, c: int, emitted: int) -> dict[int, None]:
        found, stack = {c: None}, [c]
        while stack:
            x = stack.pop()
            missing = emitted & ~self.known[x]
            while missing:
                bit = missing.bit_length() - 1
                missing ^= 1 << bit
                y = self._delivered.get((x, bit))
                if y is None:
                    y = self.step(index, x, _deliver, [self.records[bit]])
                    self._delivered[x, bit] = y
                if y not in found:
                    found[y] = None
                    stack.append(y)
        return found


def unreduced(scenario: Scenario, max_emitted: int = 8) -> Searched:
    """``searched`` for the search with neither the delivery skip nor the
    per-(component, emitted) memo: every search state reruns each agent's
    local search."""
    keys = EveryDelivery()
    root = tuple(keys.agent(ai, a, 0, 0) for ai, a in enumerate(_build_agents(scenario)))
    seen, stack, terminal = {root}, [root], {}
    try:
        while stack:
            state = stack.pop()
            emitted = sum(map(keys.own.__getitem__, state))
            settled = []
            for ai, c in enumerate(state):
                quiet = None
                for x in keys.reach(ai, c, emitted):
                    nxt = keys.invoked(ai, x)
                    if nxt is None:
                        quiet = x if keys.known[x] == emitted else quiet
                    elif (emitted | keys.own[nxt]).bit_count() > max_emitted:
                        raise ScenarioError(
                            f"enumeration bound exceeded: more than {max_emitted} emitted events"
                        )
                    else:
                        branch = state[:ai] + (nxt,) + state[ai + 1:]
                        if branch not in seen:
                            seen.add(branch)
                            stack.append(branch)
                settled.append(quiet)
            if None not in settled and emitted not in terminal:
                world = [keys.agents[x] for x in settled]
                report = consensus_check(
                    scenario.protocol, scenario.subs, world, scenario.session_id
                )
                terminal[emitted] = report.divergences
    except ScenarioError as exc:
        return f"ScenarioError: {exc}", keys
    return EnumerationResult(len(seen), len(terminal), tuple(chain(*terminal.values()))), keys


def component_table(keys: _WorldKeys) -> tuple:
    """The interned components in id order, each with its masks and what
    its representative holds, and each record bit's NDJSON line."""
    reps = [
        (
            agent.runner._locked,
            agent.spent,
            agent.runner.state.state_name,
            [r.key for r in agent.runner.applied_records],
        )
        for agent in keys.agents
    ]
    lines = {bit: records_to_ndjson([record]) for bit, record in keys.records.items()}
    return list(keys._ids.items()), keys.known, keys.own, reps, lines


def test_search_matches_its_unreduced_form() -> None:
    # Skipping deliveries whose successor is interned, and running each
    # agent's local search once per (component, emitted) pair, must leave
    # the result and every interned component as they are.
    three = load_fixture("scenario_three_robots")
    robot = {"agentId": "agv4", "nodeId": "n5", "strategy": {"name": "bid-once", "delay": 4}}
    four = dict(three, agents=three["agents"] + [dict(three["agents"][-1], **robot)])
    del four["partitionSchedule"]
    cases = [(scenario, 8) for scenario in stock_and_random()]
    cases += [(scenario_from_obj(load_fixture(name)), 2) for name in STOCK]
    cases += [(scenario_from_obj(three), 8), (scenario_from_obj(four), 8)]
    components = bounded = 0
    for scenario, max_emitted in cases:
        result, keys = searched(scenario, max_emitted)
        expected, oracle = unreduced(scenario, max_emitted)
        assert result == expected, scenario
        assert component_table(keys) == component_table(oracle), scenario
        components += len(keys.agents)
        bounded += isinstance(result, str)
    assert components > 20000 and bounded >= 3, (components, bounded)
