"""Parser fuzzing: a valid document with one subtree replaced by an arbitrary
JSON value either parses or raises ParseError / ScenarioError, nothing else."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmproto.errors import ParseError, ScenarioError
from swarmproto.eventlog import EventRecord, record_to_obj, records_from_ndjson
from swarmproto.model import machine_shape_from_obj, protocol_from_obj, subscriptions_from_obj
from swarmproto.sim import scenario_from_obj

from conftest import load_fixture

DOCUMENTS = {
    "protocol": (protocol_from_obj, load_fixture("transport_protocol")),
    "subscriptions": (subscriptions_from_obj, load_fixture("transport_subs")),
    "machine": (machine_shape_from_obj, load_fixture("robot_machine")),
    "scenario": (scenario_from_obj, load_fixture("scenario_ok")),
    "record": (
        lambda doc: records_from_ndjson(json.dumps(doc)),
        record_to_obj(EventRecord("bid", {"robot": "agv1", "delay": 3}, 2, "n2", 0, "4711")),
    ),
}

_names = st.sampled_from(["", "x", "n1", "bid", "name", "once", "robot", "tag", "Input"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False) | _names,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_names, inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


def mutated(data: st.DataObject, valid: object) -> object:
    """A copy of ``valid`` with one subtree, drawn from ``data``, replaced by
    an arbitrary JSON value."""
    path = data.draw(st.sampled_from(list(_paths(valid))), label="path")
    value = data.draw(_json, label="value")
    if not path:
        return value
    doc = json.loads(json.dumps(valid))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_accepts_or_raises_parse_error(kind, data) -> None:
    parse, valid = DOCUMENTS[kind]
    doc = mutated(data, valid)
    try:
        parse(doc)
    except (ParseError, ScenarioError):
        pass
