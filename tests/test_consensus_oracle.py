"""``consensus_check`` against the evaluate-always form it replaced.

``consensus_check`` reads each agent's settled state and applied records from
its runner's fold, and runs the ``evaluate`` oracle only for an agent whose
applied keys differ from the expected ones.  ``oracle_consensus_check``
below is the form it replaced: it reads ``.state``, and runs ``evaluate`` for
every agent.  Both must give the same report on every run of the scenario
fixtures, seeds 1 to 100, on every terminal log the enumerator reaches on the
stock fixtures and on random scenarios, and on hand-built agents that
applied off-path records, where the mismatch path runs.

On the same sets each agent is checked against the lemma the skip rests on:
when an agent applied exactly the expected keys, the oracle's fold of the
expected records alone settles in the agent's own state.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import load_fixture, random_scenarios
from swarmproto import sim
from swarmproto.eventlog import EventRecord
from swarmproto.runner import MachineRunner, evaluate
from swarmproto.sim import (
    AgentOutcome,
    AgentRuntime,
    ConsensusReport,
    _build_agents,
    _deliver,
    _key_str,
    _verdicts,
    canonical_run,
    consensus_check,
    enumerate_schedules,
    run_scenario,
    scenario_from_obj,
)

FIXTURES = ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind", "scenario_three_robots")

def oracle_consensus_check(p, subs, agents, session_id, paths: Counter) -> ConsensusReport:
    """``consensus_check`` as it was: ``evaluate`` for every agent, and the
    agent's state read through ``.state``.  Also asserts the lemma, and
    counts in ``paths`` the agents by whether their applied keys equal the
    expected keys."""
    common = agents[0].node.known if agents else []
    canonical = canonical_run(p, common, session_id)
    per_agent: dict[str, AgentOutcome] = {}
    divergences: list[str] = []
    for agent in agents:
        role_types = subs[agent.spec.role]
        expected_records = [r for r in canonical.applied if r.event_type in role_types]
        expected_state, _ = evaluate(
            agent.runner.definition,
            agent.initial_payload,
            expected_records,
            session_id,
            subscription=frozenset(role_types),
        )
        actual = [r.key for r in agent.runner.applied_records]
        expected = [r.key for r in expected_records]
        final_state = agent.runner.state.state_name
        paths[actual == expected] += 1
        if actual == expected:
            assert final_state == expected_state.state_name, (agent.spec.agent_id, actual)
        state_ok = final_state == expected_state.state_name
        matches = actual == expected and state_ok
        if not matches:
            expected_keys, actual_keys = set(expected), set(actual)
            extra = [k for k in actual if k not in expected_keys]
            missing = [k for k in expected if k not in actual_keys]
            detail = []
            if extra:
                detail.append(f"applied off-path records {[_key_str(k) for k in extra]}")
            if missing:
                detail.append(f"missed canonical records {[_key_str(k) for k in missing]}")
            if not state_ok:
                detail.append(
                    f"settled in '{final_state}' instead of '{expected_state.state_name}'"
                )
            divergences.append(
                f"agent '{agent.spec.agent_id}' (role '{agent.spec.role}'): " + "; ".join(detail)
            )
        per_agent[agent.spec.agent_id] = AgentOutcome(
            final_state=final_state,
            expected_state=expected_state.state_name,
            matches=matches,
            discards=tuple(_key_str(rep.record.key) for rep in agent.runner.current_discards),
            invalidations=tuple(_key_str(k) for k in sorted(agent.runner.invalidated_keys)),
        )
    return ConsensusReport(
        converged=all(o.matches for o in per_agent.values()),
        canonical_path=canonical.path,
        per_agent=per_agent,
        divergences=tuple(divergences),
    )


@pytest.fixture
def checked(monkeypatch) -> Counter:
    """Make every per-agent verdict the simulator (through
    ``consensus_check``) and the enumerator compute build the full report
    too, compare it with the oracle's, and compare the verdicts'
    divergences with the report's; returns the oracle's path counts."""
    paths = Counter()

    def both(p, subs, agents, session_id):
        with pytest.MonkeyPatch.context() as mp:  # the report's own verdicts, unchecked
            mp.setattr(sim, "_verdicts", _verdicts)
            report = consensus_check(p, subs, agents, session_id)
        oracle = oracle_consensus_check(p, subs, agents, session_id, paths)
        assert report.to_obj() == oracle.to_obj()
        canonical, verdicts = _verdicts(p, subs, agents, session_id)
        assert tuple(d for _, _, d in verdicts if d is not None) == report.divergences
        return canonical, verdicts

    monkeypatch.setattr(sim, "_verdicts", both)
    return paths


def test_fixture_runs_match_the_oracle(checked) -> None:
    for name in FIXTURES:
        scenario = scenario_from_obj(load_fixture(name))
        for seed in range(1, 101):
            run_scenario(scenario, seed, _trace=False)
    assert checked[True] and checked[False], checked  # both paths ran


def test_every_enumerated_terminal_log_matches_the_oracle(checked) -> None:
    scenarios = [scenario_from_obj(load_fixture(name)) for name in FIXTURES]
    scenarios += [scenario for *_, scenario in random_scenarios(5151, 150)]
    for scenario in scenarios:
        enumerate_schedules(scenario)
    assert checked[True] and checked[False], checked


def _auction_log(session: str) -> list[EventRecord]:
    """A full auction and a bid that arrives after ``selected``."""
    return [
        EventRecord("requested", {"id": "1", "from": "A", "to": "B"}, 1, "n1", 0, session),
        EventRecord("bid", {"robot": "agv1", "delay": 1}, 2, "n2", 0, session),
        EventRecord("bid", {"robot": "agv2", "delay": 2}, 3, "n3", 0, session),
        EventRecord("selected", {"winner": "agv1"}, 4, "n1", 1, session),
        EventRecord("bid", {"robot": "agv2", "delay": 2}, 5, "n3", 1, session),
    ]


@pytest.mark.parametrize(
    "subscriptions, diverging",
    [
        ({}, set()),
        ({"agv1": {"requested", "bid"}}, {"agv1"}),  # applies the late bid, misses selected
        ({"station": {"requested", "selected"}}, {"station"}),  # misses both bids
        ({"agv2": {"requested", "bid", "selected", "noise"}}, set()),  # subscribed to a type nobody emits
        (
            {"agv1": {"requested", "bid"}, "agv2": {"requested"}, "station": {"bid"}},
            {"agv1", "agv2", "station"},
        ),
    ],
)
def test_hand_built_agents_match_the_oracle(monkeypatch, subscriptions, diverging) -> None:
    # Runners whose subscription differs from their role's apply records off
    # the canonical path, or miss some of it; only those run the oracle.
    scenario = scenario_from_obj(load_fixture("scenario_ok"))
    agents = []
    for agent in _build_agents(scenario):
        if agent.spec.agent_id in subscriptions:
            runner = MachineRunner(
                agent.runner.definition,
                agent.initial_payload,
                scenario.session_id,
                frozenset(subscriptions[agent.spec.agent_id]),
            )
            agent = AgentRuntime(agent.spec, agent.initial_payload, agent.node, runner)
        _deliver(agent, _auction_log(scenario.session_id))
        agents.append(agent)
    evaluated = []
    monkeypatch.setattr(sim, "evaluate", lambda *a, **k: evaluated.append(a) or evaluate(*a, **k))
    args = (scenario.protocol, scenario.subs, agents, scenario.session_id)
    report = consensus_check(*args)
    assert len(evaluated) == len(diverging)
    paths = Counter()
    assert report.to_obj() == oracle_consensus_check(*args, paths).to_obj()
    assert {aid for aid, o in report.per_agent.items() if not o.matches} == diverging
    assert paths[False] == len(diverging)
