"""The parsers against a strict oracle that formats every error path up front.

The oracle is the earlier form of ``protocol_from_obj``,
``machine_shape_from_obj`` and ``subscriptions_from_obj``: each field's path
is built before the field is checked.  The parsers under test build a path
only when they raise, so every document must give an equal value or a
``ParseError`` with the same path and message."""

from __future__ import annotations

import json
import random
from typing import AbstractSet, Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmproto.errors import ParseError
from swarmproto.model import (
    Execute,
    Input,
    MachineLabel,
    MachineShape,
    MachineTransition,
    ProtocolTransition,
    Subscriptions,
    SwarmProtocol,
    machine_shape_from_obj,
    protocol_from_obj,
    protocol_to_obj,
    serialize_machine_shape,
    subscriptions_from_obj,
    subscriptions_to_obj,
)
from swarmproto.projection import project
from swarmproto.sim import scenario_from_obj

from conftest import closure_subs, load_fixture, random_protocol
from test_parse_fuzz import mutated

# --------------------------------------------------------------------------
# Oracle: the strict parser with eagerly formatted paths
# --------------------------------------------------------------------------

_PROTOCOL_FIELDS = frozenset({"initial", "transitions"})
_PROTOCOL_LABEL_FIELDS = frozenset({"cmd", "logType", "role"})
_MACHINE_FIELDS = frozenset({"initial", "subscriptions", "transitions"})
_TRANSITION_FIELDS = frozenset({"source", "target", "label"})
_INPUT_FIELDS = frozenset({"tag", "eventType"})
_EXECUTE_FIELDS = frozenset({"tag", "cmd", "logType"})


def _as_obj(value: Any, path: str, allowed: AbstractSet[str], required: AbstractSet[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(path, "expected an object")
    keys = value.keys()
    if keys <= allowed and keys >= required:
        return value
    unknown = keys - allowed
    if unknown:
        raise ParseError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    raise ParseError(f"{path}.{sorted(required - keys)[0]}", "missing field")


def _as_name(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(path, "expected a string")
    if not value:
        raise ParseError(path, "must be non-empty")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(path, "expected an array")
    return value


def _as_names(value: Any, path: str) -> list[str]:
    return [_as_name(e, f"{path}[{j}]") for j, e in enumerate(_as_list(value, path))]


def oracle_protocol_from_obj(obj: Any, path: str = "protocol") -> SwarmProtocol:
    top = _as_obj(obj, path, _PROTOCOL_FIELDS, _PROTOCOL_FIELDS)
    initial = _as_name(top["initial"], f"{path}.initial")
    transitions = []
    for i, item in enumerate(_as_list(top["transitions"], f"{path}.transitions")):
        tpath = f"{path}.transitions[{i}]"
        tr = _as_obj(item, tpath, _TRANSITION_FIELDS, _TRANSITION_FIELDS)
        label = _as_obj(tr["label"], f"{tpath}.label", _PROTOCOL_LABEL_FIELDS, _PROTOCOL_LABEL_FIELDS)
        transitions.append(
            ProtocolTransition(
                source=_as_name(tr["source"], f"{tpath}.source"),
                target=_as_name(tr["target"], f"{tpath}.target"),
                cmd=_as_name(label["cmd"], f"{tpath}.label.cmd"),
                role=_as_name(label["role"], f"{tpath}.label.role"),
                log_type=tuple(_as_names(label["logType"], f"{tpath}.label.logType")),
            )
        )
    return SwarmProtocol(initial=initial, transitions=tuple(transitions))


def oracle_subscriptions_from_obj(obj: Any, path: str = "subscriptions") -> Subscriptions:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    subs: Subscriptions = {}
    for role, types in obj.items():
        _as_name(role, f"{path}.{role!r}")
        subs[role] = frozenset(_as_names(types, f"{path}.{role}"))
    return subs


def oracle_machine_shape_from_obj(obj: Any, path: str = "machine") -> MachineShape:
    top = _as_obj(obj, path, _MACHINE_FIELDS, _MACHINE_FIELDS)
    initial = _as_name(top["initial"], f"{path}.initial")
    subscriptions = frozenset(_as_names(top["subscriptions"], f"{path}.subscriptions"))
    transitions = []
    for i, item in enumerate(_as_list(top["transitions"], f"{path}.transitions")):
        tpath = f"{path}.transitions[{i}]"
        tr = _as_obj(item, tpath, _TRANSITION_FIELDS, _TRANSITION_FIELDS)
        raw = tr["label"]
        if not isinstance(raw, dict) or "tag" not in raw:
            raise ParseError(f"{tpath}.label", "expected an object with a tag")
        tag = raw["tag"]
        label: MachineLabel
        if tag == "Input":
            lab = _as_obj(raw, f"{tpath}.label", _INPUT_FIELDS, _INPUT_FIELDS)
            label = Input(_as_name(lab["eventType"], f"{tpath}.label.eventType"))
        elif tag == "Execute":
            lab = _as_obj(raw, f"{tpath}.label", _EXECUTE_FIELDS, _EXECUTE_FIELDS)
            label = Execute(
                cmd=_as_name(lab["cmd"], f"{tpath}.label.cmd"),
                log_type=tuple(_as_names(lab["logType"], f"{tpath}.label.logType")),
            )
        else:
            raise ParseError(f"{tpath}.label.tag", "expected 'Input' or 'Execute'")
        source = _as_name(tr["source"], f"{tpath}.source")
        target = _as_name(tr["target"], f"{tpath}.target")
        if isinstance(label, Execute) and source != target:
            raise ParseError(f"{tpath}", "Execute labels must be self-loops")
        transitions.append(MachineTransition(source=source, target=target, label=label))
    return MachineShape(initial=initial, subscriptions=subscriptions, transitions=tuple(transitions))


# --------------------------------------------------------------------------
# Documents
# --------------------------------------------------------------------------


def _richer_documents() -> tuple[dict, dict, dict]:
    """A random protocol with multi-event logs, its subscriptions, and the
    serialized projection of one role, which has Execute labels with
    several event types."""
    p = random_protocol(random.Random(18), max_states=6, max_transitions=8)
    subs = closure_subs(p)
    role = max(sorted(subs), key=lambda r: sum(t.role == r for t in p.transitions))
    shape = project(p, subs, role).shape
    return protocol_to_obj(p), subscriptions_to_obj(subs), json.loads(serialize_machine_shape(shape))


_LONG_PROTOCOL, _LONG_SUBS, _LONG_MACHINE = _richer_documents()


def _input(source: str, target: str, ev: str) -> dict:
    return {"label": {"eventType": ev, "tag": "Input"}, "source": source, "target": target}


# event types reused across Input edges and inside an Execute log
_REUSED_MACHINE = {
    "initial": "a",
    "subscriptions": ["e", "f"],
    "transitions": [
        _input("a", "b", "e"),
        _input("b", "a", "f"),
        _input("b", "c", "e"),
        {"label": {"cmd": "go", "logType": ["e", "f", "e"], "tag": "Execute"}, "source": "a", "target": "a"},
        _input("c", "a", "e"),
        _input("c", "c", "f"),
    ],
}

PAIRS: dict[str, tuple[Callable, Callable, Any]] = {
    "protocol": (protocol_from_obj, oracle_protocol_from_obj, load_fixture("transport_protocol")),
    "protocol-long": (protocol_from_obj, oracle_protocol_from_obj, _LONG_PROTOCOL),
    "subscriptions": (subscriptions_from_obj, oracle_subscriptions_from_obj, load_fixture("transport_subs")),
    "subscriptions-long": (subscriptions_from_obj, oracle_subscriptions_from_obj, _LONG_SUBS),
    "machine": (machine_shape_from_obj, oracle_machine_shape_from_obj, load_fixture("robot_machine")),
    "machine-long": (machine_shape_from_obj, oracle_machine_shape_from_obj, _LONG_MACHINE),
    "machine-reused": (machine_shape_from_obj, oracle_machine_shape_from_obj, _REUSED_MACHINE),
}


def outcome(parse: Callable[[Any], Any], doc: Any) -> tuple:
    """What ``parse`` makes of ``doc``: the value (with a dict's key order),
    or the exception's type, text, path and message."""
    try:
        value = parse(doc)
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "path", None), getattr(exc, "message", None))
    return ("ok", value, list(value) if isinstance(value, dict) else None)


def test_richer_documents_have_long_logs() -> None:
    assert max(len(t["label"]["logType"]) for t in _LONG_PROTOCOL["transitions"]) >= 2
    assert len(_LONG_PROTOCOL["transitions"]) >= 4
    executes = [t for t in _LONG_MACHINE["transitions"] if t["label"]["tag"] == "Execute"]
    assert max(len(t["label"]["logType"]) for t in executes) >= 2


@pytest.mark.parametrize("kind", sorted(PAIRS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_matches_strict_oracle(kind, data) -> None:
    parse, oracle, valid = PAIRS[kind]
    doc = mutated(data, valid)
    assert outcome(parse, doc) == outcome(oracle, doc)


def _edit(doc: Any, path: tuple, value: Any) -> Any:
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_PROTOCOL = load_fixture("transport_protocol")
_MACHINE = load_fixture("robot_machine")
_SUBS = load_fixture("transport_subs")
_EXECUTE = {"cmd": "bid", "logType": ["bid", "won", "paid"], "tag": "Execute"}

# errors past the first transition, and past the first logType element
LATE_ERRORS = [
    ("protocol", _edit(_PROTOCOL, ("transitions", 2, "label", "logType"), ["selected", ""]),
     "protocol.transitions[2].label.logType[1]: must be non-empty"),
    ("protocol", _edit(_PROTOCOL, ("transitions", 1, "label", "logType"), ["bid", "x", 3]),
     "protocol.transitions[1].label.logType[2]: expected a string"),
    ("protocol", _edit(_PROTOCOL, ("transitions", 1, "source"), 5),
     "protocol.transitions[1].source: expected a string"),
    ("protocol", _edit(_PROTOCOL, ("transitions", 2, "label", "roles"), "robot"),
     "protocol.transitions[2].label.roles: unknown field"),
    ("protocol", _edit(_PROTOCOL, ("transitions", 2, "label"), []),
     "protocol.transitions[2].label: expected an object"),
    ("protocol", _edit(_PROTOCOL, ("transitions", 1), 0),
     "protocol.transitions[1]: expected an object"),
    ("machine", _edit(_MACHINE, ("transitions", 3, "label"), dict(_EXECUTE, logType=["bid", 7])),
     "machine.transitions[3].label.logType[1]: expected a string"),
    ("machine", _edit(_MACHINE, ("transitions", 3, "label", "logType"), ["bid", "won", ""]),
     "machine.transitions[3].label.logType[2]: must be non-empty"),
    ("machine", _edit(_MACHINE, ("transitions", 2, "label"), _EXECUTE),
     "machine.transitions[2]: Execute labels must be self-loops"),
    ("machine", _edit(_MACHINE, ("transitions", 2, "label", "tag"), "Output"),
     "machine.transitions[2].label.tag: expected 'Input' or 'Execute'"),
    ("machine", _edit(_MACHINE, ("transitions", 2, "label", "eventType"), ""),
     "machine.transitions[2].label.eventType: must be non-empty"),
    ("machine", _edit(_MACHINE, ("transitions", 1, "target"), None),
     "machine.transitions[1].target: expected a string"),
    ("machine", _edit(_MACHINE, ("subscriptions", 1), []),
     "machine.subscriptions[1]: expected a string"),
    ("subscriptions", _edit(_SUBS, ("robot", 2), ""), "subscriptions.robot[2]: must be non-empty"),
    ("subscriptions", _edit(_SUBS, ("",), ["bid"]), "subscriptions.'': must be non-empty"),
]

PARSERS = {
    "protocol": (protocol_from_obj, oracle_protocol_from_obj),
    "machine": (machine_shape_from_obj, oracle_machine_shape_from_obj),
    "subscriptions": (subscriptions_from_obj, oracle_subscriptions_from_obj),
}


@pytest.mark.parametrize(("kind", "doc", "expected"), LATE_ERRORS)
def test_late_errors_match_oracle(kind, doc, expected) -> None:
    parse, oracle = PARSERS[kind]
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert str(err.value) == expected
    assert outcome(parse, doc) == outcome(oracle, doc)


def test_nested_documents_keep_their_prefix() -> None:
    """A protocol inside a scenario reports its errors under the scenario's
    path."""
    scenario = load_fixture("scenario_ok")
    scenario["protocol"]["transitions"][1]["label"]["logType"] = ["bid", ""]
    with pytest.raises(ParseError) as err:
        scenario_from_obj(scenario)
    assert str(err.value) == "scenario.protocol.transitions[1].label.logType[1]: must be non-empty"
    assert outcome(lambda d: protocol_from_obj(d, "scenario.protocol"), scenario["protocol"]) == outcome(
        lambda d: oracle_protocol_from_obj(d, "scenario.protocol"), scenario["protocol"]
    )


# --------------------------------------------------------------------------
# Subclassed values
# --------------------------------------------------------------------------


class Obj(dict):
    """An object that ``isinstance(value, dict)`` accepts."""


class Arr(list):
    """An array that ``isinstance(value, list)`` accepts."""


class Name(str):
    """A name that ``isinstance(value, str)`` accepts; its repr shows where
    it ends up."""

    def __repr__(self) -> str:
        return f"Name({str.__repr__(self)})"


def dressed(value: Any, rng: random.Random) -> Any:
    """``value`` with about half of its objects, arrays, keys and strings
    replaced by equal instances of subclasses."""
    swap = rng.randrange(2)
    if isinstance(value, dict):
        items = {dressed(k, rng): dressed(v, rng) for k, v in value.items()}
        return Obj(items) if swap else items
    if isinstance(value, list):
        items = [dressed(v, rng) for v in value]
        return Arr(items) if swap else items
    if isinstance(value, str) and swap:
        return Name(value)
    return value


@pytest.mark.parametrize("kind", sorted(PAIRS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subclassed_values_match_strict_oracle(kind, data) -> None:
    """Inline ``type(x) is`` tests accept exactly what the oracle's
    ``isinstance`` tests accept, and keep each subclassed value where the
    oracle puts it."""
    parse, oracle, valid = PAIRS[kind]
    doc = mutated(data, valid) if data.draw(st.booleans(), label="mutate") else valid
    doc = dressed(doc, random.Random(data.draw(st.integers(0, 2**32), label="dress")))
    got, want = outcome(parse, doc), outcome(oracle, doc)
    assert got == want
    assert repr(got) == repr(want)

