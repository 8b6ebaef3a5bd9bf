"""Lamport-ordered node logs: append, receive, merge laws, NDJSON."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmproto.errors import ConflictError, ParseError
from swarmproto.eventlog import (
    EventRecord,
    NodeLog,
    compare,
    record_to_obj,
    records_from_ndjson,
    records_to_ndjson,
    sort_records,
)
from swarmproto.sim import trace_to_ndjson


def _rec(event_type="e", lamport=1, node="n1", seq=0, payload=None, session="s"):
    return EventRecord(event_type, payload or {}, lamport, node, seq, session)


def test_record_keys_are_computed_once_and_stay_out_of_eq_hash_and_repr() -> None:
    rec = EventRecord("bid", {"delay": 3}, 7, "n2", 4, "s")
    assert rec.key == ("n2", 4) and rec.order_key == (7, "n2")
    assert rec.key is rec.key and rec.order_key is rec.order_key
    assert not hasattr(rec, "__dict__")
    assert repr(rec) == (
        "EventRecord(event_type='bid', payload={'delay': 3}, lamport=7, node_id='n2', "
        "seq=4, session_id='s')"
    )
    twin = EventRecord("bid", {"delay": 3}, 7, "n2", 4, "s")
    assert twin == rec and twin.key == rec.key and twin.key is not rec.key
    assert rec != EventRecord("bid", {"delay": 4}, 7, "n2", 4, "s")
    hashable = EventRecord("bid", None, 7, "n2", 4, "s")
    assert hash(hashable) == hash(("bid", None, 7, "n2", 4, "s"))
    assert [f.name for f in dataclasses.fields(EventRecord)] == [
        "event_type", "payload", "lamport", "node_id", "seq", "session_id", "key", "order_key",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.key = ("n9", 0)  # type: ignore[misc]


def test_record_copies_and_replace_keep_the_keys_right() -> None:
    rec = EventRecord("bid", {"delay": 3}, 7, "n2", 4, "s")
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in protocols]
    for other in [copy.copy(rec), copy.deepcopy(rec), *pickled]:
        assert other == rec and repr(other) == repr(rec)
        assert (other.key, other.order_key) == (("n2", 4), (7, "n2"))
    assert copy.deepcopy(rec).payload is not rec.payload
    moved = dataclasses.replace(rec, lamport=9, node_id="n5", seq=1)
    assert (moved.key, moved.order_key) == (("n5", 1), (9, "n5"))
    assert (rec.key, rec.order_key) == (("n2", 4), (7, "n2"))
    with pytest.raises((ValueError, TypeError)):  # TypeError from Python 3.13 on
        dataclasses.replace(rec, key=("n9", 0))


def test_append_fresh_node() -> None:
    log = NodeLog("n1")
    rec = log.append("requested", {"id": "4711"}, "s")
    assert (rec.lamport, rec.node_id, rec.seq) == (1, "n1", 0)
    assert log.known == [rec]
    assert log.own == [rec]


def test_append_monotone() -> None:
    log = NodeLog("n1")
    a = log.append("e1", {}, "s")
    b = log.append("e2", {}, "s")
    assert (a.lamport, b.lamport) == (1, 2)
    assert a.order_key < b.order_key
    assert (a.seq, b.seq) == (0, 1)


def test_append_after_receive_advances_clock() -> None:
    log = NodeLog("n1")
    log.receive([_rec(lamport=7, node="n2")])
    rec = log.append("e", {}, "s")
    assert rec.lamport == 8


def test_receive_empty_is_identity() -> None:
    log = NodeLog("n1")
    log.append("e", {}, "s")
    before = list(log.known)
    assert log.receive([]) == []
    assert log.known == before


def test_receive_commutes_on_known() -> None:
    batch_a = [_rec("a", 1, "n2", 0), _rec("b", 2, "n2", 1)]
    batch_b = [_rec("c", 1, "n3", 0)]
    one = NodeLog("n1")
    one.receive(batch_a)
    one.receive(batch_b)
    two = NodeLog("n1")
    two.receive(batch_b)
    two.receive(batch_a)
    assert one.known == two.known


def test_concurrent_emissions_order_by_node_id() -> None:
    # Two nodes each emit one event independently; every delivery schedule
    # converges to the same order, with the node id breaking the tie.
    n1, n2 = NodeLog("n1"), NodeLog("n2")
    e1 = n1.append("a", {}, "s")
    e2 = n2.append("b", {}, "s")
    assert e1.lamport == e2.lamport == 1
    for schedule in itertools.permutations([("n1", [e2]), ("n2", [e1])]):
        logs = {"n1": NodeLog("n1"), "n2": NodeLog("n2")}
        logs["n1"].receive([e1])
        logs["n2"].receive([e2])
        for node, batch in schedule:
            logs[node].receive(batch)
        assert [r.key for r in logs["n1"].known] == [r.key for r in logs["n2"].known]
        assert [r.key for r in logs["n1"].known] == [("n1", 0), ("n2", 0)]


def test_compare() -> None:
    assert compare(_rec(lamport=3, node="n2"), _rec(lamport=5, node="n1")) < 0
    assert compare(_rec(lamport=3, node="n1"), _rec(lamport=3, node="n2")) < 0
    rec = _rec()
    assert compare(rec, rec) == 0


def test_conflict_on_forged_stream() -> None:
    log = NodeLog("n1")
    log.receive([_rec("a", 1, "n2", 0)])
    log.receive([_rec("a", 1, "n2", 0)])  # exact duplicate is fine
    with pytest.raises(ConflictError):
        log.receive([_rec("b", 1, "n2", 0)])


def test_conflict_leaves_log_unchanged() -> None:
    log = NodeLog("n1")
    log.receive([_rec("a", 1, "n2", 0)])
    before = list(log.known)
    fresh = _rec("b", 2, "n3", 0)
    with pytest.raises(ConflictError):
        log.receive([fresh, _rec("x", 1, "n2", 0)])
    assert log.known == before
    assert log.clock == 1
    assert log.receive([fresh]) == [fresh]  # not swallowed by the failed call


# Small lamport and node ranges, so batches often reach back into the log and
# order keys tie (a misbehaving node reusing a lamport value).
_order_keys = st.tuples(st.integers(0, 8), st.sampled_from(["n1", "n2", "n3"]))


def _records_at(keys: list[tuple[int, str]], first_seq: int) -> list[EventRecord]:
    return [_rec("e", lamport, node, first_seq + i) for i, (lamport, node) in enumerate(keys)]


@given(st.lists(_order_keys, max_size=30), st.lists(_order_keys, max_size=12))
def test_receive_inserts_as_a_stable_full_sort(old_keys, fresh_keys) -> None:
    log = NodeLog("x")
    log.receive(_records_at(old_keys, 0))
    old = list(log.known)
    fresh = _records_at(fresh_keys, len(old_keys))
    expected = sorted(old + fresh, key=lambda r: r.order_key)
    assert log.receive(fresh) == fresh  # arrival order
    assert [id(r) for r in log.known] == [id(r) for r in expected]  # ties: old first, then arrival


@given(st.lists(st.lists(_order_keys, max_size=10), max_size=6))
def test_receive_keeps_sorted_union_and_returns_arrival_order(batches) -> None:
    # The merge-law input as generated data: any sequence of batches, with
    # repeats, leaves ``known`` equal to the sorted union.
    log = NodeLog("x")
    seen: dict = {}
    for keys in batches:
        batch = [_rec("e", lamport, node, lamport) for lamport, node in keys]
        fresh: dict = {}
        for r in batch:
            if r.key not in seen:
                fresh.setdefault(r.key, r)
        assert log.receive(batch) == list(fresh.values())
        seen.update(fresh)
        assert log.known == sort_records(seen.values())


def _random_records(rng: random.Random, nodes: int = 4, per_node: int = 6) -> list[EventRecord]:
    records = []
    for n in range(nodes):
        lamport = 0
        for seq in range(rng.randrange(per_node + 1)):
            lamport += 1 + rng.randrange(3)
            records.append(
                EventRecord(
                    event_type=f"e{rng.randrange(5)}",
                    payload={"v": rng.randrange(100)},
                    lamport=lamport,
                    node_id=f"n{n}",
                    seq=seq,
                    session_id="s",
                )
            )
    return records


def test_merge_laws_randomized() -> None:
    # Idempotence, commutativity, associativity of receive's effect on known.
    rng = random.Random(11)
    for _ in range(300):
        records = _random_records(rng)
        pick = lambda: [records[rng.randrange(len(records))] for _ in range(rng.randrange(len(records) + 1))] if records else []
        a, b, c = pick(), pick(), pick()

        log = NodeLog("x")
        log.receive(a)
        once = list(log.known)
        log.receive(a)
        assert log.known == once  # idempotent

        left = NodeLog("x")
        left.receive(a)
        left.receive(b)
        right = NodeLog("x")
        right.receive(b)
        right.receive(a)
        assert left.known == right.known  # commutative

        grouped = NodeLog("x")
        grouped.receive(a + b)
        grouped.receive(c)
        split = NodeLog("x")
        split.receive(a)
        split.receive(b + c)
        assert grouped.known == split.known  # associative


def test_causality_randomized_interleavings() -> None:
    # Whatever a node has seen when it appends must order before the append.
    rng = random.Random(12)
    for _ in range(200):
        logs = [NodeLog(f"n{i}") for i in range(3)]
        for _ in range(20):
            op = rng.randrange(2)
            node = logs[rng.randrange(3)]
            if op == 0:
                known_before = list(node.known)
                rec = node.append(f"e{rng.randrange(3)}", {}, "s")
                for prior in known_before:
                    assert compare(prior, rec) < 0
            else:
                src = logs[rng.randrange(3)]
                if src.known:
                    count = 1 + rng.randrange(len(src.known))
                    node.receive(rng.sample(src.known, count))


def test_convergence_byte_identical() -> None:
    rng = random.Random(13)
    for _ in range(50):
        logs = [NodeLog(f"n{i}") for i in range(3)]
        for _ in range(15):
            logs[rng.randrange(3)].append(f"e{rng.randrange(3)}", {"k": rng.randrange(9)}, "s")
        for dst in logs:
            for src in logs:
                dst.receive(src.known)
        views = {records_to_ndjson(log.known) for log in logs}
        assert len(views) == 1


def test_ndjson_roundtrip() -> None:
    rng = random.Random(14)
    records = sort_records(_random_records(rng))
    text = records_to_ndjson(records)
    assert records_from_ndjson(text) == records
    assert text.count("\n") == len(records)


def _dumps_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
_records = st.builds(
    EventRecord, st.text(), _json_values, st.integers(0, 2**70), st.text(),
    st.integers(0, 2**70), st.text(),
)


@given(st.lists(_records, max_size=5))
def test_records_to_ndjson_matches_json_dumps(records) -> None:
    # The prebuilt line encoder is the one json.dumps builds for these
    # arguments: non-ASCII text, big ints, NaN and infinities included.
    assert records_to_ndjson(records) == "".join(_dumps_line(record_to_obj(r)) for r in records)


@given(st.lists(st.dictionaries(st.text(), _json_values, max_size=6), max_size=5))
def test_trace_to_ndjson_matches_json_dumps(trace) -> None:
    assert trace_to_ndjson(trace) == "".join(map(_dumps_line, trace))


_GOOD_LINE = (
    '{"eventType":"bid","lamport":2,"nodeId":"n2","payload":{},"seq":0,"sessionId":"s"}'
)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"eventType": 1}', "records[1].lamport: missing field"),
        ("[1]", "records[1]: expected an object"),
        (
            _GOOD_LINE.replace('"lamport":2', '"lamport":"x"'),
            "records[1].lamport: expected an integer",
        ),
        (_GOOD_LINE.replace('"bid"', "1"), "records[1].eventType: expected a string"),
        ("{", "records[1]: invalid JSON"),
        ("[" * 100_000 + "]" * 100_000, "records[1]: invalid JSON: nested too deeply"),
    ],
    ids=["missing-fields", "not-an-object", "string-lamport", "int-event-type", "bad-json", "deep-nesting"],
)
def test_ndjson_parse_is_strict(line, message) -> None:
    with pytest.raises(ParseError) as err:
        records_from_ndjson(f"{_GOOD_LINE}\n\n{line}\n")
    assert str(err.value).startswith(message)
