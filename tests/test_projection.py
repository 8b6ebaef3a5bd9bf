"""Role projection and machine conformance checking."""

from __future__ import annotations

import itertools
import random

import pytest

from swarmproto import transport
from swarmproto.errors import PreconditionError, ProjectionAmbiguity
from swarmproto.model import (
    Execute,
    Input,
    MachineShape,
    MachineTransition,
    protocol_from_obj,
    walk_shape,
)
from swarmproto.projection import (
    PROJ_CMD_SET_MISMATCH,
    PROJ_EXTRA_REACTION,
    PROJ_MISSING_REACTION,
    PROJ_SUBSCRIPTION_MISMATCH,
    PROJ_TARGET_MISMATCH,
    check_projection,
    project,
)
from swarmproto.runner import extract_shape
from swarmproto.wellformed import check_swarm_protocol

from conftest import random_wellformed_pair

ROBOT_SHAPE = extract_shape(transport.ROBOT)


def _codes(result) -> list[str]:
    return [d.code for d in result.errors]


def test_project_robot_matches_hand_written_machine(protocol, full_subs) -> None:
    shape = project(protocol, full_subs, "robot").shape
    assert shape.initial == "initial"
    assert shape.input_edges("initial") == {"requested": "auction"}
    assert shape.input_edges("auction") == {"bid": "auction", "selected": "doIt"}
    assert shape.commands("auction") == frozenset({("bid", ("bid",))})
    assert shape.commands("initial") == frozenset()
    # and it is equivalent to the machine written by hand
    assert check_projection(protocol, full_subs, "robot", ROBOT_SHAPE).to_obj() == {
        "type": "OK"
    }


def test_project_station_machine(protocol, full_subs) -> None:
    shape = project(protocol, full_subs, "machine").shape
    assert shape.commands("initial") == frozenset({("request", ("requested",))})
    assert shape.commands("auction") == frozenset({("select", ("selected",))})
    assert check_projection(protocol, full_subs, "machine", extract_shape(transport.STATION)).ok


def test_project_empty_subscription_role(protocol, full_subs) -> None:
    full_subs["observer"] = frozenset()
    shape = project(protocol, full_subs, "observer").shape
    assert shape.transitions == ()
    assert shape.initial == "auction"  # all three states merge; smallest name wins


def test_project_observer_of_selected(protocol, full_subs) -> None:
    full_subs["observer"] = frozenset({"selected"})
    shape = project(protocol, full_subs, "observer").shape
    # initial and auction merge; selected leads to doIt
    assert shape.initial == "auction"
    assert shape.input_edges("auction") == {"selected": "doIt"}
    assert len(shape.transitions) == 1


def test_project_requires_subscription_entry(protocol, full_subs) -> None:
    with pytest.raises(PreconditionError):
        project(protocol, full_subs, "nosuch")


def test_projection_roundtrip_on_fixture(protocol, full_subs) -> None:
    for role in ("robot", "machine"):
        projected = project(protocol, full_subs, role).shape
        assert check_projection(protocol, full_subs, role, projected).ok


def test_projection_roundtrip_random_sample() -> None:
    rng = random.Random(7)
    done = 0
    while done < 40:
        pair = random_wellformed_pair(rng)
        if pair is None:
            continue
        done += 1
        p, subs = pair
        for role in subs:
            projected = project(p, subs, role).shape
            result = check_projection(p, subs, role, projected)
            assert result.ok, (p, role, result.to_obj())


def test_renaming_invariance(protocol, full_subs) -> None:
    renamed = MachineShape(
        initial="X_Initial",
        subscriptions=ROBOT_SHAPE.subscriptions,
        transitions=tuple(
            MachineTransition(f"X_{t.source}", f"X_{t.target}", t.label)
            for t in ROBOT_SHAPE.transitions
        ),
    )
    assert check_projection(protocol, full_subs, "robot", renamed).ok


def test_missing_reaction(protocol, full_subs, fixtures_dir) -> None:
    from swarmproto.model import parse_machine_shape

    impl = parse_machine_shape((fixtures_dir / "robot_machine_missing_bid.json").read_text())
    result = check_projection(protocol, full_subs, "robot", impl)
    assert not result.ok
    missing = next(d for d in result.errors if d.code == PROJ_MISSING_REACTION)
    assert missing.event_type == "bid"
    assert missing.path == ("requested",)


def test_extra_reaction(protocol, full_subs) -> None:
    impl = MachineShape(
        initial=ROBOT_SHAPE.initial,
        subscriptions=ROBOT_SHAPE.subscriptions,
        transitions=ROBOT_SHAPE.transitions
        + (MachineTransition("DoIt", "Initial", Input("requested")),),
    )
    result = check_projection(protocol, full_subs, "robot", impl)
    extra = next(d for d in result.errors if d.code == PROJ_EXTRA_REACTION)
    assert extra.event_type == "requested"
    assert extra.path == ("requested", "selected")


def test_command_set_mismatch(protocol, full_subs) -> None:
    impl = MachineShape(
        initial=ROBOT_SHAPE.initial,
        subscriptions=ROBOT_SHAPE.subscriptions,
        transitions=tuple(
            t for t in ROBOT_SHAPE.transitions if not isinstance(t.label, Execute)
        ),
    )
    result = check_projection(protocol, full_subs, "robot", impl)
    assert _codes(result) == [PROJ_CMD_SET_MISMATCH]
    assert result.errors[0].path == ("requested",)


def test_subscription_mismatch(protocol, full_subs) -> None:
    impl = MachineShape(
        initial=ROBOT_SHAPE.initial,
        subscriptions=frozenset({"requested", "bid"}),
        transitions=ROBOT_SHAPE.transitions,
    )
    result = check_projection(protocol, full_subs, "robot", impl)
    assert PROJ_SUBSCRIPTION_MISMATCH in _codes(result)


def test_target_mismatch_on_nondeterministic_machine(protocol, full_subs) -> None:
    impl = MachineShape(
        initial=ROBOT_SHAPE.initial,
        subscriptions=ROBOT_SHAPE.subscriptions,
        transitions=ROBOT_SHAPE.transitions
        + (MachineTransition("Auction", "DoIt", Input("bid")),),
    )
    result = check_projection(protocol, full_subs, "robot", impl)
    assert PROJ_TARGET_MISMATCH in _codes(result)


def test_projection_ambiguity_raises() -> None:
    p = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "s0", "target": "s1", "label": {"cmd": "c1", "logType": ["g", "a"], "role": "r"}},
                {"source": "s0", "target": "s2", "label": {"cmd": "c2", "logType": ["g", "b"], "role": "r"}},
            ],
        }
    )
    subs = {"r": frozenset({"g", "a", "b"})}
    with pytest.raises(ProjectionAmbiguity):
        project(p, subs, "r")


def test_multi_event_log_projects_to_chain() -> None:
    p = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "s0", "target": "s1", "label": {"cmd": "c", "logType": ["a", "b", "c"], "role": "r"}}
            ],
        }
    )
    full = project(p, {"r": frozenset({"a", "b", "c"})}, "r").shape
    run = walk_shape(full, ["a", "b", "c"])
    assert run.final_state == "s1"
    assert len([t for t in full.transitions if isinstance(t.label, Input)]) == 3
    # a partial subscription shortens the chain
    partial = project(p, {"r": frozenset({"b"})}, "r").shape
    assert partial.input_edges(partial.initial) == {"b": "s1"}
    # commands keep the full emitted log even when the actor misses parts
    assert partial.commands(partial.initial) == frozenset({("c", ("a", "b", "c"))})


def collision_protocol(middle: str) -> dict:
    """``a -c1[e1,e2]-> b -c2[e3]-> <middle> -c3[e4]-> z``, all acted by ``r``."""
    steps = [("a", "b", "c1", ["e1", "e2"]), ("b", middle, "c2", ["e3"]), (middle, "z", "c3", ["e4"])]
    return {
        "initial": "a",
        "transitions": [
            {"source": s, "target": t, "label": {"cmd": c, "logType": log, "role": "r"}} for s, t, c, log in steps
        ],
    }


def test_chain_states_skip_a_protocol_state_of_the_same_name() -> None:
    """A chain state is named '<source>|<k>'; a real state already named so
    keeps its own identity, and the chain takes the next free name."""
    subs = {"r": frozenset({"e1", "e2", "e3", "e4"})}
    colliding = protocol_from_obj(collision_protocol("a|1"))
    plain = protocol_from_obj(collision_protocol("x"))
    assert check_swarm_protocol(colliding, subs).ok
    shape = project(colliding, subs, "r").shape
    assert [(t.source, t.label.event_type, t.target) for t in shape.transitions if isinstance(t.label, Input)] == [
        ("a", "e1", "a|2"),
        ("a|2", "e2", "b"),
        ("b", "e3", "a|1"),
        ("a|1", "e4", "z"),
    ]
    # after e1 the machine waits for e2 and offers nothing
    assert shape.input_edges("a|2") == {"e2": "b"} and shape.commands("a|2") == frozenset()
    assert walk_shape(shape, ["e1", "e4"]).applied == ("e1",)
    # each projection is a correct machine for the other protocol
    assert check_projection(colliding, subs, "r", project(plain, subs, "r").shape).ok
    assert check_projection(plain, subs, "r", shape).ok


def test_provenance_maps_back_to_protocol(protocol, full_subs) -> None:
    projected = project(protocol, full_subs, "robot")
    origins = sorted(set(projected.provenance.values()))
    assert origins == [0, 1, 2]
    for idx, origin in projected.provenance.items():
        t = projected.shape.transitions[idx]
        proto_t = protocol.transitions[origin]
        if isinstance(t.label, Input):
            assert t.label.event_type in proto_t.log_type
        else:
            assert t.label.cmd == proto_t.cmd


def test_language_property_exhaustive_on_fixture(protocol, full_subs) -> None:
    # Over every event-type sequence of length <= 6, the hand-written robot
    # machine and the projection apply the same events and enable the same
    # command sets at every step.
    projected = project(protocol, full_subs, "robot").shape
    impl = ROBOT_SHAPE
    alphabet = sorted(full_subs["robot"])
    for length in range(0, 7):
        for seq in itertools.product(alphabet, repeat=length):
            a = walk_shape(projected, seq)
            b = walk_shape(impl, seq)
            assert a.applied == b.applied, seq
            assert a.command_trace == b.command_trace, seq
