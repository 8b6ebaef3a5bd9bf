"""Persistent event records and per-node append-only logs.

Each node owns a log it appends to; logs replicate asynchronously.  A
coordination-free total order over all records of a swarm comes from a
Lamport clock paired with the emitting node id: records are compared by
``(lamport, nodeId)`` lexicographically, which is a strict total order as
long as each node's lamport values strictly increase.

``NodeLog`` is single-writer: all mutations to one log happen on one
logical thread.  Snapshots of ``known`` are plain tuples, safe to share.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable

from .errors import ConflictError
from .model import _as_int, _as_name, _as_obj, _load_json

RecordKey = tuple[str, int]  # (nodeId, seq) — global identity of a record
OrderKey = tuple[int, str]  # (lamport, nodeId) — position in the total order


@dataclass(frozen=True, slots=True)
class EventRecord:
    """A single persisted event.

    ``payload`` is opaque structured data (anything JSON-serializable);
    ``seq`` is the per-node emission counter and ``session_id`` tags the
    workflow instance the event belongs to.

    ``key`` and ``order_key`` are computed once, on construction (also by
    ``dataclasses.replace``), so every holder of a record shares one tuple
    of each.  They take no part in ``==``, ``hash`` or ``repr``, but
    ``dataclasses.fields`` lists them after the six constructor fields.
    """

    event_type: str
    payload: Any
    lamport: int
    node_id: str
    seq: int
    session_id: str
    key: RecordKey = field(init=False, compare=False, repr=False)
    order_key: OrderKey = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.node_id, self.seq))
        object.__setattr__(self, "order_key", (self.lamport, self.node_id))


def compare(a: EventRecord, b: EventRecord) -> int:
    """Total-order comparison: negative, zero, or positive."""
    if a.order_key < b.order_key:
        return -1
    if a.order_key > b.order_key:
        return 1
    return 0


_order_key = attrgetter("order_key")


def sort_records(records: Iterable[EventRecord]) -> list[EventRecord]:
    return sorted(records, key=_order_key)


def index_of(log: list[EventRecord], rec: EventRecord) -> int:
    """Position of ``rec`` in ``log``, which is sorted by order key."""
    return log.index(rec, bisect.bisect_left(log, _order_key(rec), key=_order_key))


@dataclass
class NodeLog:
    """One node's view of the swarm: its own emissions plus received records.

    ``known`` is kept sorted by order key and deduplicated on ``(nodeId,
    seq)``; ``clock`` never falls below the largest lamport value seen.
    """

    node_id: str
    clock: int = 0
    own: list[EventRecord] = field(default_factory=list)
    known: list[EventRecord] = field(default_factory=list)
    _by_key: dict[RecordKey, EventRecord] = field(default_factory=dict, repr=False)

    def append(self, event_type: str, payload: Any, session_id: str) -> EventRecord:
        """Emit a new record: bump the clock and stamp the next sequence number."""
        self.clock += 1
        record = EventRecord(
            event_type=event_type,
            payload=payload,
            lamport=self.clock,
            node_id=self.node_id,
            seq=len(self.own),
            session_id=session_id,
        )
        self.own.append(record)
        self._by_key[record.key] = record
        self.known.append(record)  # own records always sort last: lamport is a fresh max
        return record

    def receive(self, records: Iterable[EventRecord]) -> list[EventRecord]:
        """Merge received records into ``known``; returns the genuinely new ones.

        Duplicates (same ``(nodeId, seq)`` and equal content) are dropped;
        a key collision with different content raises :class:`ConflictError`.
        The clock advances to the largest lamport seen, without +1: only
        emission increments, which is enough for the causality invariant.
        """
        return self._merge(records)

    def _merge(self, records: Iterable[EventRecord]) -> list[EventRecord]:
        """``receive`` without the trace: a runner's ``advance`` merges
        through it.  ``known`` becomes a stable sort of the old records
        followed by the new ones: a batch that sorts after the tail is
        appended, any other record placed by binary search.  On
        :class:`ConflictError` the log and the clock are left as they were."""
        by_key, fresh, clock = self._by_key, [], self.clock
        for rec in records:
            existing = by_key.get(rec.key)
            if existing is None:
                by_key[rec.key] = rec
                fresh.append(rec)
                if rec.lamport > clock:
                    clock = rec.lamport
            elif existing != rec:
                for added in fresh:
                    del by_key[added.key]
                raise ConflictError(
                    f"records with key {rec.key} differ: {existing!r} vs {rec!r}"
                )
        batch, known = sort_records(fresh), self.known
        if known and batch and batch[0].order_key < known[-1].order_key:
            for rec in batch:
                bisect.insort(known, rec, key=_order_key)
        else:
            known.extend(batch)
        self.clock = clock
        return fresh

    def _forget(self, records: Iterable[EventRecord]) -> None:
        """Take ``records``, all held, out of ``known`` and the key index again,
        in place; the clock and ``own`` stay as they are."""
        by_key = self._by_key
        for rec in records:
            del by_key[rec.key]
        self.known[:] = [r for r in self.known if r.key in by_key]

    def _fork(self) -> "NodeLog":
        """An independent copy sharing only the (immutable) records, built
        without ``__init__``, one attribute at a time in field order."""
        twin = object.__new__(NodeLog)
        twin.node_id = self.node_id
        twin.clock = self.clock
        twin.own = list(self.own)
        twin.known = list(self.known)
        twin._by_key = dict(self._by_key)
        return twin

    def undelivered_for(self, other: "NodeLog") -> list[EventRecord]:
        """Records this node knows that ``other`` does not, in order."""
        return [r for r in self.known if r.key not in other._by_key]


# --------------------------------------------------------------------------
# NDJSON serialization (one record per line)
# --------------------------------------------------------------------------


def record_to_obj(r: EventRecord) -> dict[str, Any]:
    return {
        "eventType": r.event_type,
        "payload": r.payload,
        "lamport": r.lamport,
        "nodeId": r.node_id,
        "seq": r.seq,
        "sessionId": r.session_id,
    }


# What ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` builds on
# every call, built once: the encoder of each NDJSON line, here and in
# ``sim.trace_to_ndjson``.
_ndjson_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def records_to_ndjson(records: Iterable[EventRecord]) -> str:
    return "".join(_ndjson_line(record_to_obj(r)) + "\n" for r in records)


_RECORD_FIELDS = {"eventType", "payload", "lamport", "nodeId", "seq", "sessionId"}


def records_from_ndjson(text: str) -> list[EventRecord]:
    """Parse NDJSON records strictly.  Blank lines are skipped; an error
    names the record as ``records[i]``, counting records from 0."""
    records = []
    for i, line in enumerate(filter(str.strip, text.splitlines())):
        path = f"records[{i}]"
        obj = _as_obj(_load_json(line, path), path, _RECORD_FIELDS, _RECORD_FIELDS)
        records.append(
            EventRecord(
                event_type=_as_name(obj["eventType"], f"{path}.eventType"),
                payload=obj["payload"],
                lamport=_as_int(obj["lamport"], f"{path}.lamport"),
                node_id=_as_name(obj["nodeId"], f"{path}.nodeId"),
                seq=_as_int(obj["seq"], f"{path}.seq"),
                session_id=_as_name(obj["sessionId"], f"{path}.sessionId"),
            )
        )
    return records
