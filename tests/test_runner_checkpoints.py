"""Runner checkpoints: a replay that resumes from a checkpoint of the fold
behaves exactly like a refold of the whole log from the initial payload.

The oracle is the same runner with ``_STRIDE`` set past any log length, so
it holds only checkpoint zero and every replay refolds from the start.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import pytest

from swarmproto import runner as runner_mod
from swarmproto import transport
from swarmproto.errors import CommandDisabledError, HandlerError
from swarmproto.eventlog import EventRecord, NodeLog, sort_records
from swarmproto.runner import MachineDefinition, MachineRunner, evaluate

SESSION = "4711"
NEVER = 10**9  # a stride past any log length: no checkpoint is ever taken


@contextmanager
def _stride(stride: int):
    saved = runner_mod._STRIDE
    runner_mod._STRIDE = stride
    try:
        yield
    finally:
        runner_mod._STRIDE = saved


class _Box(dict):
    """A payload marshal refuses, so checkpoints keep a deep copy of it."""


class _ObserverError(Exception):
    """Raised by the ``on_discard`` observer on a poisoned record."""


def _discard_observer(seen: list, poisoned: set):
    """An ``on_discard`` observer that keeps every report and raises on a
    report of a record whose key is in ``poisoned``, a set of its own, so
    that it takes no failure away from the handlers."""

    def observe(report) -> None:
        seen.append(report)
        if report.record.key in poisoned:
            raise _ObserverError(f"poisoned discard {report.record.key}")

    return observe


def _multi_machine(poisoned: set) -> MachineDefinition:
    """A two-event reaction, an event type subscribed in both states, a
    handler that writes its payload in place, commands in both states, and
    a reaction that raises on a record whose key is in ``poisoned``."""

    def note(p, recs):
        if recs[-1].key in poisoned:
            raise RuntimeError("poisoned record")
        p["seen"].extend(r.key for r in recs)
        return p

    d = MachineDefinition(role="r", initial="A")
    d.react("A", ["a", "b"], "B", note)
    d.react("A", ["x"], "A", note)
    d.react("B", ["c"], "A", note)
    d.react("B", ["x"], "B", note)
    d.command("A", "open", ["a", "b"], lambda p: [{}, {}])
    d.command("B", "close", ["c"], lambda p: [{"seen": len(p["seen"])}])
    return d


def _records(rng: random.Random, types: str, payload, count: int) -> list[EventRecord]:
    nodes = [NodeLog(f"n{i}") for i in range(3)]
    for _ in range(count):
        node = nodes[rng.randrange(3)]
        session = SESSION if rng.randrange(6) else "other"
        node.append(rng.choice(types), payload(rng), session)
        if rng.randrange(3) == 0:
            node.receive(nodes[rng.randrange(3)].own[-2:])
    return sort_records(r for n in nodes for r in n.own)


def _case(rng: random.Random, poisoned: set):
    kind = rng.choice(("station", "robot", "multi"))
    if kind == "station":
        bid = lambda rng: {"robot": f"agv{rng.randrange(4)}", "delay": rng.randrange(9),
                           "id": "1", "from": "A", "to": "B", "winner": "agv1"}
        types = ["requested"] + ["bid"] * 24 + ["selected", "zz", "zz"]
        return transport.STATION, {}, _records(rng, types, bid, rng.randrange(10, 80))
    if kind == "robot":
        bid = lambda rng: {"robot": f"agv{rng.randrange(4)}", "delay": rng.randrange(9),
                           "id": "1", "from": "A", "to": "B", "winner": "agv1"}
        types = ["requested", "requested"] + ["bid"] * 24 + ["selected", "zz", "zz"]
        initial = {"robot": "agv1"}
        return transport.ROBOT, initial, _records(rng, types, bid, rng.randrange(10, 80))
    initial = {"seen": []} if rng.randrange(2) else _Box(seen=[])
    records = _records(rng, "aabbccxxz", lambda rng: {}, rng.randrange(10, 80))
    candidates = [r for r in records if r.session_id == SESSION and r.event_type in "abcx"]
    if candidates and rng.randrange(2) == 0:
        poisoned.add(rng.choice(candidates).key)
    return _multi_machine(poisoned), initial, records


def _observable(runner: MachineRunner) -> tuple:
    state = runner.state
    return (
        state.state_name,
        state.payload,
        type(state.payload),
        state.enabled_commands,
        state.in_flight,
        state.processed_count,
        runner.applied_records,
        runner.current_discards,
        runner.invalidated_keys,
        runner.log,
    )


def _outcome(stride: int, call):
    with _stride(stride):
        try:
            result = call()
        except (HandlerError, CommandDisabledError, _ObserverError) as err:
            return type(err), str(err), getattr(err, "record_index", None)
    if isinstance(result, list):  # invoke: the emitted records
        return result
    return result.replayed, result.reports, result.state


def test_checkpointed_runner_matches_full_refold_oracle() -> None:
    """After every call of thousands of seeded cases, the checkpointed
    runner and the full-refold oracle agree on everything they show:
    ``replayed``, the reports with their reasons, the state snapshot, the
    applied records, the current discards, the invalidated keys, the log and
    every report handed to ``on_discard``.  A call that raises, through a
    failing handler or an ``on_discard`` observer raising on a poisoned
    record, leaves the runner as it was.  Strides 1 to 4 make checkpoints
    frequent in short logs; 32 is the runner's own."""
    rng = random.Random(1907)
    resumes = []
    original = runner_mod._Fold.resumed

    def counting(fold, before):
        resumed = original(fold, before)
        if before is not None and len(fold.marks) > 1:  # a replay, checkpointed side
            resumes.append(resumed.last is not None)  # not from checkpoint zero
        return resumed

    totals = {"calls": 0, "replays": 0, "raised": 0, "observer_raised": 0, "invokes": 0}
    runner_mod._Fold.resumed = counting
    try:
        for case in range(2000):
            poisoned: set = set()
            definition, initial, records = _case(rng, poisoned)
            # The observer's poison comes from a generator of its own: the
            # cases and the handlers' poison stay those of ``rng`` alone.
            spare = random.Random(case)
            visible = [r.key for r in records if r.session_id == SESSION and r.key not in poisoned]
            discard_poisoned = {spare.choice(visible)} if visible and spare.randrange(2) else set()
            stride = rng.choice((1, 2, 3, 4, 32))
            lateness = rng.randrange(61)
            arrival = [i + rng.randrange(lateness + 1) for i in range(len(records))]
            order = [records[i] for i in sorted(range(len(records)), key=arrival.__getitem__)]
            seen: tuple[list, list] = ([], [])
            runners = []
            for side, s in ((0, stride), (1, NEVER)):
                with _stride(s):
                    observer = _discard_observer(seen[side], discard_poisoned)
                    runners.append(MachineRunner(definition, initial, SESSION,
                                                 on_discard=observer))
            nodes = (NodeLog("me"), NodeLog("me"))
            emitted: list[EventRecord] = []
            while order or emitted:
                if rng.randrange(8) == 0:  # invoke a command, enabled or not
                    enabled = sorted(runners[1].state.enabled_commands)
                    cmd = rng.choice(enabled) if enabled else "bid"
                    args = {"bid": [rng.randrange(9)], "request": ["1", "A", "B"]}.get(cmd, [])
                    calls = [lambda r=r, n=n: r.invoke(cmd, args, n)
                             for r, n in zip(runners, nodes)]
                    batch = None
                    totals["invokes"] += 1
                else:
                    take = 1 + rng.randrange(6)
                    batch, order = order[:take], order[take:]
                    if emitted and rng.randrange(2):
                        batch.append(emitted.pop(rng.randrange(len(emitted))))
                    if runners[1].log and rng.randrange(8) == 0:  # a duplicate
                        batch.append(rng.choice(runners[1].log))
                    calls = [lambda r=r: r.advance(batch) for r in runners]
                before = _observable(runners[0])
                first = _outcome(stride, calls[0])
                assert first == _outcome(NEVER, calls[1])
                if isinstance(first, list):
                    emitted.extend(first)
                elif isinstance(first[0], type):  # raised: rolled back
                    assert _observable(runners[0]) == before
                    if batch is not None:
                        if first[0] is _ObserverError:
                            totals["observer_raised"] += 1
                            discard_poisoned.clear()
                        else:
                            totals["raised"] += 1
                            poisoned.clear()
                        order = batch + order  # deliver it again, now without the fault
                else:
                    totals["replays"] += first[0]
                assert _observable(runners[0]) == _observable(runners[1])
                assert seen[0] == seen[1]
                totals["calls"] += 1
    finally:
        runner_mod._Fold.resumed = original
    assert totals["replays"] > 15_000 and totals["raised"] > 100 and totals["invokes"] > 3_000
    assert totals["observer_raised"] > 100, totals
    # Replays on the checkpointed side: resumed after a record, or from
    # checkpoint zero because no other checkpoint lay before the late record.
    assert sum(resumes) > 7_000 and len(resumes) - sum(resumes) > 1_500, totals


def _station_bids(n: int, lateness: int) -> tuple[list[EventRecord], list[EventRecord]]:
    """A ``requested`` record and ``n`` bids of one session, sorted, and
    their delivery order: bid i arrives in the order of i + d, d uniform
    on 0..lateness, so no bid arrives more than ``lateness`` positions late."""
    rng = random.Random(8)
    records = [EventRecord("requested", {"id": "1", "from": "A", "to": "B"}, 1, "n0", 0, SESSION)]
    for i in range(n):
        node = f"n{1 + i % 8}"
        payload = {"robot": node, "delay": rng.randrange(10)}
        records.append(EventRecord("bid", payload, i + 2, node, i // 8, SESSION))
    late = [rng.randrange(lateness + 1) for _ in range(n)]
    order = sorted(range(n), key=lambda i: (i + late[i], i))
    return records, [records[0]] + [records[1 + i] for i in order]


def _counting_station() -> tuple[MachineDefinition, list[int]]:
    calls = [0]

    def bid(p, recs):
        calls[0] += 1
        return {**p, "scores": p["scores"] + [recs[0].payload]}

    d = MachineDefinition(role="machine", initial="Initial")
    d.react("Initial", ["requested"], "Auction", lambda p, recs: {**recs[0].payload, "scores": []})
    d.react("Auction", ["bid"], "Auction", bid)
    return d, calls


def test_late_bids_cost_handler_calls_in_their_lateness_not_in_the_log_length() -> None:
    n, lateness = 1_000, 16
    records, order = _station_bids(n, lateness)
    counts = {}
    for stride in (runner_mod._STRIDE, NEVER):
        with _stride(stride):
            d, calls = _counting_station()
            runner = MachineRunner(d, {}, SESSION)
            replays = sum(runner.advance([r]).replayed for r in order)
            expected, _ = evaluate(d, {}, records, SESSION)
            assert runner.state.payload == expected.payload
            counts[stride] = (calls[0] - n, replays)  # handler calls beyond the first fold
    (resumed, replays), (full, same_replays) = counts[runner_mod._STRIDE], counts[NEVER]
    assert replays == same_replays > n // 2
    assert resumed <= n * (lateness + runner_mod._STRIDE)
    assert full > 20 * resumed, counts


def test_checkpoints_number_logarithmic_in_the_log_length() -> None:
    d = MachineDefinition(role="r", initial="s")
    d.react("s", ["e"], "s", lambda p, recs: p + 1)
    runner = MachineRunner(d, 0, SESSION)
    node = NodeLog("n1")
    for _ in range(4_000):
        runner.advance([node.append("e", {}, SESSION)])
    marks = runner._fold.marks
    assert 3 <= len(marks) <= 2 * math.log2(4_000 / runner_mod._STRIDE) + 2
    counts = [m.consumed for m in marks]
    assert counts == sorted(set(counts)) and counts[-1] > 4_000 - 2 * runner_mod._STRIDE
    # Every record but the first stride has a checkpoint before it no
    # farther back than its distance from the newest checkpoint, or one gap.
    for position in range(runner_mod._STRIDE, counts[-1]):
        before = max(c for c in counts if c <= position)
        assert position - before <= max(counts[-1] - position, runner_mod._STRIDE)


def test_observer_sees_every_state_again_on_a_replay() -> None:
    _, order = _station_bids(100, 16)
    sequences = []
    for stride in (runner_mod._STRIDE, NEVER):
        with _stride(stride):
            seen: list = []
            runner = MachineRunner(transport.STATION, {}, SESSION,
                                   on_state=lambda s: seen.append((s.state_name, s.payload)))
            for r in order[:1] + order[2:]:
                runner.advance([r])
            before = len(seen)
            assert runner.advance(order[1:2]).replayed  # the earliest bid, last
            sequences.append(seen)
    assert sequences[0] == sequences[1]
    assert len(sequences[0]) - before == 101  # requested and every bid again


def _appending_machine() -> MachineDefinition:
    def note(p, recs):
        p["seen"].append(recs[0].node_id)
        return p

    d = MachineDefinition(role="r", initial="s")
    d.react("s", ["e"], "s", note)
    return d


@pytest.mark.parametrize("initial", [{"seen": []}, _Box(seen=[])], ids=["marshal", "deepcopy"])
def test_no_write_after_a_checkpoint_reaches_it(initial) -> None:
    """A handler writing its payload in place after a checkpoint, and a
    write to a snapshot's payload made after one, leave the checkpoint as
    it was; two replays from one checkpoint each start from a fresh payload."""
    log = [EventRecord("e", {}, 2 * i + 2, f"n{i}", 0, SESSION) for i in range(12)]
    late = lambda lamport, node: [EventRecord("e", {}, lamport, node, 0, SESSION)]
    with _stride(4):
        runner = MachineRunner(_appending_machine(), initial, SESSION)
        # One call: a checkpoint after n3, then n4 and n5 written in place.
        runner.advance(log[:6])
        assert runner.advance(late(9, "late1")).replayed  # resumes after n3
        assert runner.state.payload["seen"] == ["n0", "n1", "n2", "n3", "late1", "n4", "n5"]
        runner.advance(log[6:7])  # a checkpoint after n6, handed out by this snapshot
        runner.state.payload["seen"].append("forged")  # breaks the read-only contract
        runner.advance(log[7:9])
        assert runner.advance(late(15, "late2")).replayed  # resumes after n6
        assert runner.advance(late(15, "late3")).replayed  # from the same checkpoint
        runner.advance(log[9:])
    merged = sort_records(list(runner.log))
    expected, _ = evaluate(_appending_machine(), initial, merged, SESSION)
    assert runner.state.payload == expected.payload
    assert type(runner.state.payload) is type(initial)
    assert runner.state.payload["seen"][7:11] == ["n6", "late2", "late3", "n7"]
    assert initial == {"seen": []}


def test_a_refold_from_checkpoint_zero_keeps_the_command_lock() -> None:
    """A replay that resumes from checkpoint zero and passes no transition
    leaves an invoke's command lock held, with or without an observer."""
    d = MachineDefinition(role="r", initial="A")
    d.react("A", ["r"], "B", lambda p, recs: p)
    d.react("B", ["s"], "A", lambda p, recs: p)
    d.command("A", "go", ["t"], lambda p: [{}])  # t is unsubscribed: only a transition unlocks
    for on_state in (None, lambda state: None):
        runner = MachineRunner(d, 0, SESSION, on_state=on_state)
        runner.advance([EventRecord("s", {}, 2, "n1", 0, SESSION)])  # discarded in A
        runner.invoke("go", [], NodeLog("me"))
        assert runner.state.enabled_commands == frozenset()
        assert runner.advance([EventRecord("s", {}, 1, "n2", 0, SESSION)]).replayed
        assert runner._fold.last is not None and len(runner._fold.marks) == 1
        assert runner.state.enabled_commands == frozenset()
