"""Parsing, serialization, graph utilities, and DOT export."""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmproto.errors import ParseError, ProjectionAmbiguity
from swarmproto.eventlog import EventRecord, record_to_obj, records_from_ndjson
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
    protocol_to_obj,
    reachable_from,
    reachable_states,
    roles_of,
    serialize_machine_shape,
    serialize_protocol,
    serialize_subscriptions,
    subscriptions_from_obj,
    successors,
    to_dot,
    unobserved_classes,
    walk_shape,
)
from swarmproto.projection import check_projection, project
from swarmproto.sim import scenario_from_obj

from conftest import closure_subs, load_fixture, random_protocol


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


def assert_index_matches_naive_scan(m: MachineShape) -> int:
    """``m``'s per-state queries equal a scan of its transitions; returns
    the number of states with clashing inputs."""
    clashing = 0
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
    return clashing


class TaggedInput(Input):
    """An ``Input`` subclass; the index must still file it as an input."""


def test_shape_index_matches_naive_scan() -> None:
    rng = random.Random(107)
    clashing = 0
    for _ in range(500):
        m = random_shape(rng)
        clashing += assert_index_matches_naive_scan(m)
        tagged = tuple(
            MachineTransition(t.source, t.target, TaggedInput(t.label.event_type))
            if isinstance(t.label, Input) and rng.randrange(2) else t
            for t in m.transitions
        )
        assert_index_matches_naive_scan(MachineShape(m.initial, m.subscriptions, tagged))
    assert clashing >= 100


def test_projected_shape_index_matches_naive_scan() -> None:
    """A projected shape builds its index only when a caller asks, from its
    own transitions; checking a machine against it builds none."""
    rng = random.Random(108)
    checked = 0
    for _ in range(100):
        p = random_protocol(rng)
        closure = closure_subs(p)
        everything = frozenset(e for t in p.transitions for e in t.log_type)
        for subs in (closure, {role: everything for role in closure}):
            # a fresh protocol object, so no earlier scan built the index
            p = protocol_from_obj(protocol_to_obj(p))
            for role in sorted(subs):
                shape = project(p, subs, role).shape
                impl = parse_machine_shape(serialize_machine_shape(shape))
                assert check_projection(p, subs, role, impl).ok
                assert "_index" not in vars(shape)
                assert_index_matches_naive_scan(shape)
                checked += 1
    assert checked >= 300


def test_parsed_values_equal_constructed_ones() -> None:
    """The parsers build transitions and labels past the dataclass
    ``__init__``; each must be the value the public constructor gives."""
    protocol = protocol_from_obj(load_fixture("transport_protocol"))
    machine = machine_shape_from_obj(load_fixture("robot_machine"))
    labels = [t.label for t in machine.transitions]
    assert {type(v) for v in labels} == {Input, Execute}
    for got in [*protocol.transitions, *machine.transitions, *labels]:
        cls = type(got)
        fields = dataclasses.fields(cls)
        built = cls(*(getattr(got, f.name) for f in fields))
        assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
        assert dataclasses.fields(got) == fields and vars(got) == vars(built)
        assert list(vars(got)) == [f.name for f in fields]
        assert pickle.dumps(got) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(got)) == built
        copy = dataclasses.replace(got)
        assert type(copy) is cls and copy == built and copy is not got
        name = fields[0].name
        changed = dataclasses.replace(got, **{name: "other"})
        assert changed == dataclasses.replace(built, **{name: "other"}) != got
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(got, name)
        assert got == built


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


# --------------------------------------------------------------------------
# Byte-identity of the machine-shape writer
# --------------------------------------------------------------------------


def _reference_shape_json(m: MachineShape) -> str:
    """The writer as it was before ``serialize_machine_shape`` built the text
    itself: ``json.dumps`` with ``indent=2, sort_keys=True``."""
    transitions = []
    for t in m.transitions:
        if isinstance(t.label, Input):
            label = {"tag": "Input", "eventType": t.label.event_type}
        else:
            label = {"tag": "Execute", "cmd": t.label.cmd, "logType": list(t.label.log_type)}
        transitions.append({"source": t.source, "target": t.target, "label": label})
    obj = {"initial": m.initial, "subscriptions": sorted(m.subscriptions), "transitions": transitions}
    return json.dumps(obj, indent=2, sort_keys=True)


def _fixture_projections() -> list[MachineShape]:
    pairs = [
        ("transport_protocol", load_fixture("transport_subs")),
        ("transport_protocol", load_fixture("subs_branch_blind")),
        ("protocol_guard_clash", load_fixture("transport_subs")),
    ]
    pairs = [(load_fixture(p), subs) for p, subs in pairs]
    for name in ("scenario_ok", "scenario_branch_blind", "scenario_actor_blind", "scenario_three_robots"):
        scenario = load_fixture(name)
        pairs.append((scenario["protocol"], scenario["subs"]))
    shapes = []
    for protocol_obj, subs_obj in pairs:
        p, subs = protocol_from_obj(protocol_obj), subscriptions_from_obj(subs_obj)
        for role in sorted(subs):
            try:
                shapes.append(project(p, subs, role).shape)
            except ProjectionAmbiguity:
                pass
    return shapes


def test_serialized_shape_matches_json_dumps_on_fixture_projections() -> None:
    shapes = _fixture_projections()
    assert len(shapes) == 12
    for m in shapes:
        assert serialize_machine_shape(m) == _reference_shape_json(m)


def test_serialized_shape_matches_json_dumps_on_random_shapes() -> None:
    rng = random.Random(108)
    for _ in range(500):
        m = random_shape(rng)
        assert serialize_machine_shape(m) == _reference_shape_json(m)


def test_serialized_shape_matches_json_dumps_on_edge_cases() -> None:
    shapes = [
        MachineShape("A", frozenset(), ()),
        MachineShape("A", frozenset({"e"}), ()),
        MachineShape("A", frozenset(), (MachineTransition("A", "A", Execute("c", ())),)),
        MachineShape(
            "A",
            frozenset(),
            (MachineTransition("A", "B", Input("e")), MachineTransition("B", "B", Execute("c", ("e", "f")))),
        ),
    ]
    for m in shapes:
        assert serialize_machine_shape(m) == _reference_shape_json(m)
    assert serialize_machine_shape(shapes[0]) == (
        '{\n  "initial": "A",\n  "subscriptions": [],\n  "transitions": []\n}'
    )


_odd_names = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "\ud800"]),
    max_size=6,
)
_labels = st.builds(Input, _odd_names) | st.builds(
    Execute, _odd_names, st.lists(_odd_names, max_size=3).map(tuple)
)
_odd_shapes = st.builds(
    MachineShape,
    _odd_names,
    st.frozensets(_odd_names, max_size=4),
    st.lists(st.builds(MachineTransition, _odd_names, _odd_names, _labels), max_size=5).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(m=_odd_shapes)
def test_serialized_shape_matches_json_dumps_on_odd_names(m: MachineShape) -> None:
    assert serialize_machine_shape(m) == _reference_shape_json(m)


def test_serialize_rejects_non_str_names() -> None:
    bad = [
        MachineShape(0, frozenset(), ()),
        MachineShape("A", frozenset({1}), ()),
        MachineShape("A", frozenset(), (MachineTransition("A", 2, Input("e")),)),
        MachineShape("A", frozenset(), (MachineTransition("A", "B", Input(None)),)),
        MachineShape("A", frozenset(), (MachineTransition("A", "A", Execute("c", ("e", 3))),)),
    ]
    for m in bad:
        with pytest.raises(TypeError):
            serialize_machine_shape(m)


# --------------------------------------------------------------------------
# Parse error loci
# --------------------------------------------------------------------------


def _edit(doc: Any, path: tuple = (), drop: tuple[str, ...] = (), **add: Any) -> Any:
    """A copy of ``doc`` with ``drop`` removed from, and ``add`` put into,
    the object at ``path``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path:
        target = target[key]
    for key in drop:
        del target[key]
    target.update(add)
    return doc


def _put(doc: Any, path: tuple, value: Any) -> Any:
    """A copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_PROTOCOL = load_fixture("transport_protocol")
_MACHINE = load_fixture("robot_machine")
_SCENARIO = load_fixture("scenario_ok")
_RECORD = record_to_obj(EventRecord("bid", {"robot": "agv1"}, 2, "n2", 0, "4711"))

PARSERS = {
    "protocol": protocol_from_obj,
    "machine": machine_shape_from_obj,
    "record": lambda obj: records_from_ndjson(json.dumps(obj) + "\n"),
    "scenario": scenario_from_obj,
}

PARSE_ERROR_LOCI = [
    # an unknown field is reported before a missing one
    ("protocol", _edit(_PROTOCOL, drop=("transitions",), zeta=1), "protocol.zeta: unknown field"),
    ("protocol", _edit(_PROTOCOL, beta=1, alpha=2), "protocol.alpha: unknown field"),
    ("protocol", _edit(_PROTOCOL, drop=("transitions",)), "protocol.transitions: missing field"),
    ("protocol", [], "protocol: expected an object"),
    (
        "protocol",
        _edit(_PROTOCOL, ("transitions", 1, "label"), drop=("logType",), logtype=["bid"]),
        "protocol.transitions[1].label.logtype: unknown field",
    ),
    ("protocol", _edit(_PROTOCOL, ("transitions", 2), drop=("target",)), "protocol.transitions[2].target: missing field"),
    ("protocol", _put(_PROTOCOL, ("transitions", 0), "x"), "protocol.transitions[0]: expected an object"),
    ("machine", _edit(_MACHINE, drop=("initial",), start="A"), "machine.start: unknown field"),
    ("machine", _edit(_MACHINE, zz=1, aa=2), "machine.aa: unknown field"),
    ("machine", _edit(_MACHINE, drop=("subscriptions",)), "machine.subscriptions: missing field"),
    ("machine", "machine", "machine: expected an object"),
    (
        "machine",
        _edit(_MACHINE, ("transitions", 0), drop=("source",), via="x", from_="y"),
        "machine.transitions[0].from_: unknown field",
    ),
    ("machine", _edit(_MACHINE, ("transitions", 1), drop=("label",)), "machine.transitions[1].label: missing field"),
    ("machine", _put(_MACHINE, ("transitions", 2), None), "machine.transitions[2]: expected an object"),
    (
        "machine",
        _edit(_MACHINE, ("transitions", 0, "label"), drop=("eventType",), event="e"),
        "machine.transitions[0].label.event: unknown field",
    ),
    (
        "machine",
        _edit(_MACHINE, ("transitions", 3, "label"), drop=("logType",)),
        "machine.transitions[3].label.logType: missing field",
    ),
    (
        "machine",
        _edit(_MACHINE, ("transitions", 3, "label"), eventType="bid", args=[]),
        "machine.transitions[3].label.args: unknown field",
    ),
    (
        "machine",
        _put(_MACHINE, ("transitions", 3, "label"), ["Execute"]),
        "machine.transitions[3].label: expected an object with a tag",
    ),
    ("record", _edit(_RECORD, drop=("seq",), sequence=0), "records[0].sequence: unknown field"),
    ("record", _edit(_RECORD, z=0, y=1), "records[0].y: unknown field"),
    ("record", _edit(_RECORD, drop=("payload",)), "records[0].payload: missing field"),
    ("record", [1], "records[0]: expected an object"),
    ("scenario", _edit(_SCENARIO, drop=("agents",), actors=[]), "scenario.actors: unknown field"),
    ("scenario", _edit(_SCENARIO, steps=1, delay=2), "scenario.delay: unknown field"),
    ("scenario", _edit(_SCENARIO, drop=("seed",)), "scenario.seed: missing field"),
    ("scenario", 7, "scenario: expected an object"),
    (
        "scenario",
        _edit(_SCENARIO, ("agents", 1), drop=("nodeId",), node="n2"),
        "scenario.agents[1].node: unknown field",
    ),
    ("scenario", _edit(_SCENARIO, ("agents", 0), drop=("role",)), "scenario.agents[0].role: missing field"),
    (
        "scenario",
        _edit(_SCENARIO, ("partitionSchedule", 0), drop=("groups",), to=1, fromstep=2),
        "scenario.partitionSchedule[0].fromstep: unknown field",
    ),
    (
        "scenario",
        _edit(_SCENARIO, ("agents", 0, "strategy", 1), drop=("k",), count=2),
        "scenario.agents[0].strategy[1].count: unknown field",
    ),
    (
        "scenario",
        _edit(_SCENARIO, ("agents", 0, "strategy", 0), drop=("args",)),
        "scenario.agents[0].strategy[0].args: missing field",
    ),
]


@pytest.mark.parametrize("kind,doc,message", PARSE_ERROR_LOCI)
def test_parse_error_locus(kind: str, doc: Any, message: str) -> None:
    with pytest.raises(ParseError) as err:
        PARSERS[kind](doc)
    assert str(err.value) == message
