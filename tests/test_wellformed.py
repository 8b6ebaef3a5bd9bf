"""Well-formedness checker: condition coverage, determinism, monotonicity."""

from __future__ import annotations

import random

import pytest

from swarmproto.errors import PreconditionError
from swarmproto.model import protocol_from_obj, subscriptions_from_obj
from swarmproto.wellformed import (
    ALL_CODES,
    WF_ACTOR_BLIND,
    WF_BRANCH_BLIND,
    WF_EMPTY_LOG,
    WF_EVENT_REUSE,
    WF_GUARD_CLASH,
    WF_LATER_ACTOR_BLIND,
    WF_LOG_GAP,
    WF_UNREACHABLE,
    check_swarm_protocol,
)

from conftest import load_fixture, random_protocol, random_wellformed_pair, repair_round


def _codes(result) -> list[str]:
    return [d.code for d in result.errors]


def test_transport_order_is_well_formed(protocol, full_subs) -> None:
    assert check_swarm_protocol(protocol, full_subs).to_obj() == {"type": "OK"}


def test_empty_protocol_is_well_formed() -> None:
    p = protocol_from_obj({"initial": "s0", "transitions": []})
    assert check_swarm_protocol(p, {}).ok


def test_branch_blind_robot(protocol, full_subs) -> None:
    full_subs["robot"] = frozenset({"requested", "bid"})
    result = check_swarm_protocol(protocol, full_subs)
    assert not result.ok
    # both the missing guard subscription and the auction/doIt conflation
    # it causes are reported as branch blindness at the same locus
    for d in result.errors:
        assert d.code == WF_BRANCH_BLIND
        assert d.state == "auction"
        assert d.role == "robot"
        assert d.event_type == "selected"


@pytest.mark.parametrize(
    "fixture", ["subs_branch_blind", "scenario_branch_blind", "scenario_actor_blind"]
)
def test_one_repair_round_restores_the_transport_subscription(
    fixture, protocol, full_subs
) -> None:
    # each broken subscription lacks guards; the event types the diagnostics
    # name are exactly those guards, so one round gives the accepted one back
    obj = load_fixture(fixture)
    p = protocol_from_obj(obj["protocol"]) if "protocol" in obj else protocol
    subs = subscriptions_from_obj(obj.get("subs", obj))
    assert not check_swarm_protocol(p, subs).ok
    repaired = repair_round(p, subs)
    assert repaired == full_subs
    assert check_swarm_protocol(p, repaired).ok


def test_guard_clash(fixtures_dir, full_subs) -> None:
    import json

    p = protocol_from_obj(json.loads((fixtures_dir / "protocol_guard_clash.json").read_text()))
    result = check_swarm_protocol(p, full_subs)
    codes = _codes(result)
    assert WF_GUARD_CLASH in codes
    clash = next(d for d in result.errors if d.code == WF_GUARD_CLASH)
    assert clash.state == "auction"
    assert clash.event_type == "bid"
    assert WF_EVENT_REUSE in codes  # the reused 'bid' also trips determinacy (b)


def test_empty_log() -> None:
    p = protocol_from_obj(
        {
            "initial": "a",
            "transitions": [
                {"source": "a", "target": "b", "label": {"cmd": "c", "logType": [], "role": "r"}}
            ],
        }
    )
    result = check_swarm_protocol(p, {"r": frozenset()})
    assert _codes(result) == [WF_EMPTY_LOG]


def test_unreachable_transition() -> None:
    p = protocol_from_obj(
        {
            "initial": "a",
            "transitions": [
                {"source": "a", "target": "b", "label": {"cmd": "c1", "logType": ["e1"], "role": "r"}},
                {"source": "x", "target": "y", "label": {"cmd": "c2", "logType": ["e2"], "role": "r"}},
            ],
        }
    )
    result = check_swarm_protocol(p, {"r": frozenset({"e1", "e2"})})
    assert _codes(result) == [WF_UNREACHABLE]
    assert result.errors[0].transition == 1


def test_actor_blind(protocol, full_subs) -> None:
    full_subs["machine"] = frozenset({"bid", "selected"})
    result = check_swarm_protocol(protocol, full_subs)
    codes = _codes(result)
    assert WF_ACTOR_BLIND in codes
    blind = next(d for d in result.errors if d.code == WF_ACTOR_BLIND)
    assert blind.role == "machine"
    assert blind.event_type == "requested"
    assert blind.transition == 0
    # The machine can also act in the target state, so it is a later actor too.
    assert WF_LATER_ACTOR_BLIND in codes


def test_later_actor_blind_isolated() -> None:
    p = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "s0", "target": "s1", "label": {"cmd": "c1", "logType": ["e1"], "role": "r1"}},
                {"source": "s1", "target": "s2", "label": {"cmd": "c2", "logType": ["e2"], "role": "r2"}},
            ],
        }
    )
    subs = {"r1": frozenset({"e1"}), "r2": frozenset({"e2"})}
    result = check_swarm_protocol(p, subs)
    assert _codes(result) == [WF_LATER_ACTOR_BLIND]
    d = result.errors[0]
    assert (d.role, d.event_type, d.state) == ("r2", "e1", "s1")


def test_log_gap() -> None:
    p = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "s0", "target": "s1", "label": {"cmd": "c", "logType": ["g", "b"], "role": "r"}}
            ],
        }
    )
    subs = {"r": frozenset({"g", "b"}), "watcher": frozenset({"b"})}
    result = check_swarm_protocol(p, subs)
    assert _codes(result) == [WF_LOG_GAP]
    assert result.errors[0].role == "watcher"
    assert result.errors[0].event_type == "g"


def test_precondition_role_without_entry(protocol) -> None:
    with pytest.raises(PreconditionError) as err:
        check_swarm_protocol(protocol, {"robot": frozenset({"requested", "bid", "selected"})})
    assert "machine" in str(err.value)


def test_diagnostics_sorted_and_closed_codes() -> None:
    # Multiple violations across transitions: order is (transition, code).
    p = protocol_from_obj(
        {
            "initial": "a",
            "transitions": [
                {"source": "a", "target": "b", "label": {"cmd": "c1", "logType": ["e1"], "role": "r"}},
                {"source": "a", "target": "c", "label": {"cmd": "c2", "logType": ["e1"], "role": "r"}},
                {"source": "z", "target": "z", "label": {"cmd": "c3", "logType": [], "role": "r"}},
            ],
        }
    )
    result = check_swarm_protocol(p, {"r": frozenset({"e1"})})
    keys = [(d.transition, d.code) for d in result.errors]
    assert keys == sorted(keys)
    assert all(d.code in ALL_CODES for d in result.errors)


def test_determinism_repeated_runs(protocol, full_subs) -> None:
    full_subs["robot"] = frozenset({"requested"})
    first = check_swarm_protocol(protocol, full_subs).to_obj()
    for _ in range(3):
        assert check_swarm_protocol(protocol, full_subs).to_obj() == first


def test_random_inputs_use_closed_code_set() -> None:
    rng = random.Random(2)
    for _ in range(150):
        p = random_protocol(rng)
        all_types = sorted({e for t in p.transitions for e in t.log_type})
        subs = {
            t.role: frozenset(e for e in all_types if rng.randrange(2))
            for t in p.transitions
        }
        result = check_swarm_protocol(p, subs)
        assert all(d.code in ALL_CODES for d in result.errors)
        if not result.ok:
            assert len(result.errors) >= 1


def test_monotonicity_of_actor_visibility() -> None:
    # Growing subscriptions never introduces blind-actor diagnostics: those
    # quantify over roles fixed by the protocol itself.  (Branch awareness
    # and log closure can newly bind a role that the growth drags into the
    # involved set, so they are checked separately below.)
    rng = random.Random(3)
    checked = 0
    while checked < 60:
        pair = random_wellformed_pair(rng)
        if pair is None:
            continue
        checked += 1
        p, subs = pair
        all_types = sorted({e for t in p.transitions for e in t.log_type})
        grown = {
            role: frozenset(set(types) | {e for e in all_types if rng.randrange(3) == 0})
            for role, types in subs.items()
        }
        result = check_swarm_protocol(p, grown)
        codes = set(_codes(result))
        assert WF_ACTOR_BLIND not in codes
        assert WF_LATER_ACTOR_BLIND not in codes


def test_growth_can_create_involvement() -> None:
    # Documented asymmetry: subscribing a bystander to a downstream event
    # makes it involved at the branch and newly branch-blind.
    p = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "s0", "target": "s1", "label": {"cmd": "c1", "logType": ["g1"], "role": "r1"}},
                {"source": "s0", "target": "s2", "label": {"cmd": "c2", "logType": ["g2"], "role": "r1"}},
                {"source": "s1", "target": "s1", "label": {"cmd": "c3", "logType": ["x"], "role": "r1"}},
            ],
        }
    )
    subs = {"r1": frozenset({"g1", "g2", "x"}), "bystander": frozenset()}
    assert check_swarm_protocol(p, subs).ok
    grown = dict(subs)
    grown["bystander"] = frozenset({"x"})
    result = check_swarm_protocol(p, grown)
    assert WF_BRANCH_BLIND in _codes(result)
    assert all(d.role == "bystander" for d in result.errors)
