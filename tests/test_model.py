"""Parsing, serialization, graph utilities, and DOT export."""

from __future__ import annotations

import json
import random

import pytest

from swarmproto.errors import ParseError
from swarmproto.model import (
    Execute,
    Input,
    MachineShape,
    MachineTransition,
    event_types_of,
    machine_states,
    machine_shape_from_obj,
    machine_to_dot,
    parse_machine_shape,
    parse_protocol,
    parse_subscriptions,
    protocol_from_obj,
    reachable_from,
    reachable_states,
    roles_of,
    serialize_machine_shape,
    serialize_protocol,
    serialize_subscriptions,
    successors,
    to_dot,
    unobserved_classes,
    walk_shape,
)

from conftest import random_protocol


def test_parse_transport_order_protocol(fixtures_dir) -> None:
    p = parse_protocol((fixtures_dir / "transport_protocol.json").read_text())
    assert p.initial == "initial"
    assert len(p.transitions) == 3
    t0 = p.transitions[0]
    assert (t0.cmd, t0.role, t0.log_type) == ("request", "machine", ("requested",))
    assert p.transitions[1].source == p.transitions[1].target == "auction"
    assert p.transitions[2].log_type == ("selected",)


def test_parse_empty_protocol() -> None:
    p = parse_protocol('{"initial":"s0","transitions":[]}')
    assert p.states() == {"s0"}
    assert p.transitions == ()


def test_parse_missing_transitions() -> None:
    with pytest.raises(ParseError) as err:
        parse_protocol('{"initial":"s0"}')
    assert "transitions" in str(err.value)


def test_parse_rejects_unknown_fields() -> None:
    with pytest.raises(ParseError) as err:
        parse_protocol('{"initial":"s0","transitions":[],"extra":1}')
    assert "extra" in str(err.value)
    bad_label = {
        "initial": "a",
        "transitions": [
            {"source": "a", "target": "b", "label": {"cmd": "c", "logtype": ["e"], "role": "r"}}
        ],
    }
    with pytest.raises(ParseError) as err:
        protocol_from_obj(bad_label)
    assert "logtype" in str(err.value)


def test_parse_rejects_bad_shapes() -> None:
    with pytest.raises(ParseError):
        parse_protocol('{"initial":"s0","transitions":{}}')
    with pytest.raises(ParseError):
        parse_protocol('{"initial":17,"transitions":[]}')
    with pytest.raises(ParseError) as err:
        protocol_from_obj(
            {
                "initial": "a",
                "transitions": [
                    {"source": "a", "target": "b", "label": {"cmd": "c", "logType": "e", "role": "r"}}
                ],
            }
        )
    assert "logType" in str(err.value)
    with pytest.raises(ParseError):
        parse_protocol('{"initial":"","transitions":[]}')
    with pytest.raises(ParseError):
        parse_protocol("not json{")


def test_parse_subscriptions_and_shape(fixtures_dir) -> None:
    subs = parse_subscriptions((fixtures_dir / "transport_subs.json").read_text())
    assert subs["robot"] == frozenset({"requested", "bid", "selected"})
    with pytest.raises(ParseError):
        parse_subscriptions('{"robot": "requested"}')

    shape = parse_machine_shape((fixtures_dir / "robot_machine.json").read_text())
    assert shape.initial == "Initial"
    assert shape.commands("Auction") == frozenset({("bid", ("bid",))})


def test_machine_shape_execute_must_be_self_loop() -> None:
    obj = {
        "initial": "A",
        "subscriptions": [],
        "transitions": [
            {"source": "A", "target": "B", "label": {"tag": "Execute", "cmd": "c", "logType": ["e"]}}
        ],
    }
    with pytest.raises(ParseError):
        machine_shape_from_obj(obj)
    obj["transitions"][0]["label"]["tag"] = "Unknown"
    with pytest.raises(ParseError):
        machine_shape_from_obj(obj)


def test_protocol_roundtrip_random() -> None:
    rng = random.Random(101)
    for _ in range(200):
        p = random_protocol(rng)
        assert parse_protocol(serialize_protocol(p)) == p


def test_subscriptions_roundtrip_random() -> None:
    rng = random.Random(102)
    for _ in range(200):
        subs = {
            f"r{i}": frozenset(f"e{rng.randrange(20)}" for _ in range(rng.randrange(6)))
            for i in range(rng.randrange(5))
        }
        assert parse_subscriptions(serialize_subscriptions(subs)) == subs


def test_machine_shape_roundtrip_random() -> None:
    rng = random.Random(103)
    for _ in range(200):
        states = [f"S{i}" for i in range(1 + rng.randrange(5))]
        transitions = []
        for i in range(rng.randrange(8)):
            src = states[rng.randrange(len(states))]
            if rng.randrange(3) == 0:
                label = Execute(cmd=f"c{i}", log_type=tuple(f"e{j}" for j in range(rng.randrange(3))))
                transitions.append(MachineTransition(src, src, label))
            else:
                dst = states[rng.randrange(len(states))]
                transitions.append(MachineTransition(src, dst, Input(f"e{rng.randrange(9)}")))
        shape = MachineShape(
            initial=states[0],
            subscriptions=frozenset(f"e{rng.randrange(9)}" for _ in range(rng.randrange(5))),
            transitions=tuple(transitions),
        )
        assert parse_machine_shape(serialize_machine_shape(shape)) == shape


def test_reachable_states(protocol) -> None:
    assert reachable_states(protocol) == {"initial", "auction", "doIt"}
    p = parse_protocol('{"initial":"s0","transitions":[]}')
    assert reachable_states(p) == {"s0"}
    disconnected = protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {"source": "t1", "target": "t2", "label": {"cmd": "c", "logType": ["e"], "role": "r"}}
            ],
        }
    )
    assert reachable_states(disconnected) == {"s0"}


def test_reachable_contained_in_states_random() -> None:
    rng = random.Random(104)
    for _ in range(100):
        p = random_protocol(rng)
        reach = reachable_states(p)
        assert p.initial in reach
        assert reach <= p.states()


def test_roles_and_event_types(protocol) -> None:
    assert roles_of(protocol) == {"machine", "robot"}
    assert event_types_of(protocol) == {"requested", "bid", "selected"}
    empty = parse_protocol('{"initial":"s0","transitions":[]}')
    assert roles_of(empty) == set()
    assert event_types_of(empty) == set()
    repeated = protocol_from_obj(
        {
            "initial": "a",
            "transitions": [
                {"source": "a", "target": "b", "label": {"cmd": "c1", "logType": ["e"], "role": "r"}},
                {"source": "b", "target": "a", "label": {"cmd": "c2", "logType": ["e"], "role": "r"}},
            ],
        }
    )
    assert event_types_of(repeated) == {"e"}


def test_to_dot(protocol) -> None:
    dot = to_dot(protocol)
    assert dot.startswith("digraph")
    assert dot.count("->") == 3
    for state in ("initial", "auction", "doIt"):
        assert f'"{state}"' in dot
    assert '"request@machine / requested"' in dot


def test_to_dot_empty_protocol() -> None:
    dot = to_dot(parse_protocol('{"initial":"s0","transitions":[]}'))
    assert dot.count("shape=") == 1
    assert "->" not in dot


def test_to_dot_escapes_quotes() -> None:
    p = protocol_from_obj(
        {
            "initial": 'st "a"',
            "transitions": [
                {"source": 'st "a"', "target": "b", "label": {"cmd": "c", "logType": ["e"], "role": "r"}}
            ],
        }
    )
    dot = to_dot(p)
    assert '"st \\"a\\""' in dot


def test_machine_to_dot(fixtures_dir) -> None:
    shape = parse_machine_shape((fixtures_dir / "robot_machine.json").read_text())
    dot = machine_to_dot(shape)
    assert dot.count("->") == 4  # 3 reactions + 1 command self-loop
    assert '"bid! / bid"' in dot


def test_walk_shape_discards_unknown(fixtures_dir) -> None:
    shape = parse_machine_shape((fixtures_dir / "robot_machine.json").read_text())
    run = walk_shape(shape, ["selected", "requested", "bid", "selected"])
    assert run.applied == ("requested", "bid", "selected")
    assert run.final_state == "DoIt"
    assert run.command_trace[0] == frozenset()
    assert ("bid", ("bid",)) in run.command_trace[2]


def test_json_output_is_stable(fixtures_dir) -> None:
    text = (fixtures_dir / "transport_protocol.json").read_text()
    p = parse_protocol(text)
    assert serialize_protocol(p) == serialize_protocol(parse_protocol(serialize_protocol(p)))
    obj = json.loads(serialize_protocol(p))
    assert obj == json.loads(text)


def test_reachable_from_matches_naive_closure() -> None:
    rng = random.Random(105)

    def closure_of(p, starts: set[str]) -> set[str]:
        closure = set(starts)
        while True:
            more = {t.target for t in p.transitions if t.source in closure} - closure
            if not more:
                return closure
            closure |= more

    for _ in range(200):
        p = random_protocol(rng)
        edges = successors(p)
        states = sorted(p.states())
        for start in states:
            assert reachable_from(edges, start) == closure_of(p, {start})
        for _ in range(5):
            starts = rng.sample(states, rng.randrange(len(states) + 1))
            # a start given twice counts once
            starts += starts[: rng.randrange(len(starts) + 1)]
            assert reachable_from(edges, *starts) == closure_of(p, set(starts))


def random_shape(rng: random.Random) -> MachineShape:
    """Input edges from a small pool of event types, so the same state often
    has several same-typed inputs, some to different targets; commands with
    repeats."""
    states = [f"m{i}" for i in range(1 + rng.randrange(5))]
    transitions = []
    for _ in range(rng.randrange(15)):
        source = rng.choice(states)
        if rng.randrange(3):
            target = rng.choice(states)
            transitions.append(MachineTransition(source, target, Input(rng.choice("abc"))))
        else:
            log = tuple(rng.choice("abc") for _ in range(rng.randrange(3)))
            transitions.append(MachineTransition(source, source, Execute(rng.choice("xy"), log)))
    return MachineShape(states[0], frozenset("abc"), tuple(transitions))


def test_shape_index_matches_naive_scan() -> None:
    rng = random.Random(107)
    clashing = 0
    for _ in range(500):
        m = random_shape(rng)
        for state in sorted(machine_states(m)) + ["absent"]:
            edges: dict[str, str] = {}
            clashes = []
            for t in m.transitions:
                if t.source == state and isinstance(t.label, Input):
                    if edges.setdefault(t.label.event_type, t.target) != t.target:
                        clashes.append(t.label.event_type)
            commands = frozenset(
                (t.label.cmd, t.label.log_type)
                for t in m.transitions
                if t.source == state and isinstance(t.label, Execute)
            )
            assert m.input_edges(state) == edges
            assert m.commands(state) == commands
            assert m.input_clashes(state) == tuple(clashes)
            clashing += bool(clashes)
    assert clashing >= 100


def test_input_edges_returns_a_fresh_dict() -> None:
    m = MachineShape("A", frozenset({"e"}), (MachineTransition("A", "B", Input("e")),))
    edges = m.input_edges("A")
    edges["e"] = "C"
    edges["f"] = "D"
    assert m.input_edges("A") == {"e": "B"}
    missing = m.input_edges("B")
    missing["e"] = "A"
    assert m.input_edges("B") == {}
    assert m.input_edges("A") is not m.input_edges("A")
    # the index is not part of the value
    assert m == MachineShape(m.initial, m.subscriptions, m.transitions)
    assert hash(m) == hash(MachineShape(m.initial, m.subscriptions, m.transitions))


def test_unobserved_classes_match_brute_force_components() -> None:
    rng = random.Random(106)
    for _ in range(200):
        p = random_protocol(rng)
        observed = {e for e in sorted(event_types_of(p)) if rng.randrange(2)}
        hops = [(t.source, t.target) for t in p.transitions if not set(t.log_type) & observed]
        classes = unobserved_classes(p, observed)
        assert set(classes) == p.states()
        for state in p.states():
            component = {state}
            grown = True
            while grown:
                grown = False
                for a, b in hops:
                    if (a in component) != (b in component):
                        component |= {a, b}
                        grown = True
            assert classes[state] == min(component)
            assert {q for q in classes if classes[q] == classes[state]} == component
