"""Machine runtime: shape extraction, evaluation, replay, command gating."""

from __future__ import annotations

import random

import pytest

from swarmproto import transport
from swarmproto.errors import CommandDisabledError, DefinitionError, HandlerError
from swarmproto.eventlog import EventRecord, NodeLog, sort_records
from swarmproto.model import Input, walk_shape
from swarmproto.runner import (
    INVALIDATED,
    UNEXPECTED,
    Command,
    MachineDefinition,
    MachineRunner,
    evaluate,
    extract_shape,
)

SESSION = "4711"


def _rec(event_type, payload, lamport, node="n1", seq=0, session=SESSION):
    return EventRecord(event_type, payload, lamport, node, seq, session)


def _paper_log() -> list[EventRecord]:
    return [
        _rec("requested", {"id": "4711", "from": "A", "to": "B"}, 1, "n1", 0),
        _rec("bid", {"robot": "agv2", "delay": 3}, 2, "n2", 0),
        _rec("selected", {"winner": "agv2"}, 3, "n1", 1),
    ]


# --------------------------------------------------------------------------
# Shape extraction
# --------------------------------------------------------------------------


def test_extract_robot_shape() -> None:
    shape = extract_shape(transport.ROBOT)
    assert shape.initial == "Initial"
    assert shape.subscriptions == frozenset({"requested", "bid", "selected"})
    assert shape.input_edges("Initial") == {"requested": "Auction"}
    assert shape.input_edges("Auction") == {"bid": "Auction", "selected": "DoIt"}
    assert shape.commands("Auction") == frozenset({("bid", ("bid",))})


def test_extract_trivial_machine() -> None:
    d = MachineDefinition(role="r", initial="Only")
    shape = extract_shape(d)
    assert shape.transitions == ()
    assert shape.subscriptions == frozenset()


def test_extract_expands_multi_event_reaction() -> None:
    d = MachineDefinition(role="r", initial="A")
    d.state("B")
    d.react("A", ["a", "b"], "B", lambda p, recs: p)
    shape = extract_shape(d)
    inputs = [t for t in shape.transitions if isinstance(t.label, Input)]
    assert len(inputs) == 2
    assert inputs[0].source == "A" and inputs[0].target == "A|1"
    assert inputs[1].source == "A|1" and inputs[1].target == "B"


def test_extract_chain_states_skip_a_state_of_the_same_name() -> None:
    d = MachineDefinition(role="r", initial="a")
    d.react("a", ["e1", "e2"], "b", lambda p, recs: p)
    d.react("b", ["e3"], "a|1", lambda p, recs: p)
    d.react("a|1", ["e4"], "z", lambda p, recs: p)
    shape = extract_shape(d)
    assert [(t.source, t.target) for t in shape.transitions] == [
        ("a", "a|2"),
        ("a|2", "b"),
        ("b", "a|1"),
        ("a|1", "z"),
    ]
    # mid-reaction, the runner discards e4, and so does the shape
    assert walk_shape(shape, ["e1", "e4"]).applied == ("e1",)
    state, reports = evaluate(d, {}, [_rec("e1", {}, 1, seq=0), _rec("e4", {}, 2, seq=1)], SESSION)
    assert state.state_name == "a" and [r.record.event_type for r in reports] == ["e4"]


def test_duplicate_first_event_types_rejected() -> None:
    d = MachineDefinition(role="r", initial="A")
    d.react("A", ["a", "b"], "A", lambda p, recs: p)
    with pytest.raises(DefinitionError):
        d.react("A", ["a", "c"], "A", lambda p, recs: p)
    assert [r.event_types for r in d.reactions("A")] == [("a", "b")]


def test_command_table_is_read_only() -> None:
    # Only ``command`` adds a command, so its duplicate-name check cannot be bypassed.
    d = MachineDefinition(role="r", initial="A")
    d.command("A", "go", ["x"], lambda p: [{}])
    with pytest.raises(TypeError):
        d.commands("A")["stop"] = Command("go", ("y",), lambda p: [{}])
    assert list(d.commands("A")) == ["go"]
    assert MachineRunner(d, {}, SESSION).state.enabled_commands == frozenset({"go"})


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def test_evaluate_paper_auction_log() -> None:
    state, reports = evaluate(transport.ROBOT, {"robot": "agv1"}, _paper_log(), SESSION)
    assert state.state_name == "DoIt"
    assert state.payload == {"robot": "agv1", "winner": "agv2"}
    assert reports == []
    assert state.processed_count == 3


def test_evaluate_empty_log() -> None:
    state, reports = evaluate(transport.ROBOT, {"robot": "agv1"}, [], SESSION)
    assert state.state_name == "Initial"
    assert state.payload == {"robot": "agv1"}
    assert reports == []


def test_evaluate_discards_unexpected() -> None:
    log = [_rec("selected", {"winner": "x"}, 1)]
    state, reports = evaluate(transport.ROBOT, {"robot": "agv1"}, log, SESSION)
    assert state.state_name == "Initial"
    assert [(r.record.event_type, r.reason) for r in reports] == [("selected", UNEXPECTED)]


def test_evaluate_ignores_foreign_sessions_and_types() -> None:
    log = [
        _rec("requested", {"id": "1", "from": "A", "to": "B"}, 1, session="other"),
        _rec("unrelated", {}, 2, "n2", 0),
    ]
    state, reports = evaluate(transport.ROBOT, {"robot": "agv1"}, log, SESSION)
    assert state.state_name == "Initial"
    assert reports == []
    assert state.processed_count == 0


def _chain_machine() -> MachineDefinition:
    d = MachineDefinition(role="r", initial="A")
    d.state("B")
    d.react("A", ["a", "b"], "B", lambda p, recs: p + [r.event_type for r in recs])
    d.react("A", ["x"], "A", lambda p, recs: p + ["x"])
    return d


def test_multi_event_reaction_skips_interleaved_events() -> None:
    # While [a, b] is open, a subscribed 'x' is discarded without closing it.
    log = [
        _rec("a", {}, 1, "n1", 0),
        _rec("x", {}, 2, "n2", 0),
        _rec("b", {}, 3, "n1", 1),
    ]
    state, reports = evaluate(_chain_machine(), [], log, SESSION)
    assert state.state_name == "B"
    assert state.payload == ["a", "b"]
    assert [(r.record.event_type, r.reason) for r in reports] == [("x", UNEXPECTED)]


def test_open_reaction_disables_commands_and_shows_in_flight() -> None:
    d = _chain_machine()
    d.command("A", "go", ["a"], lambda p: [{}])
    state, _ = evaluate(d, [], [_rec("a", {}, 1)], SESSION)
    assert state.state_name == "A"
    assert state.in_flight is not None
    assert state.in_flight.event_types == ("a", "b")
    assert len(state.in_flight.matched) == 1
    assert state.enabled_commands == frozenset()


def test_handler_error_is_fatal_and_indexed() -> None:
    d = MachineDefinition(role="r", initial="A")
    d.react("A", ["a"], "A", lambda p, recs: 1 / 0)
    with pytest.raises(HandlerError) as err:
        evaluate(d, {}, [_rec("x", {}, 1, session="other"), _rec("a", {}, 2, "n2", 0)], SESSION)
    assert err.value.record_index == 1


# --------------------------------------------------------------------------
# Incremental advance and retroactive replay
# --------------------------------------------------------------------------


def test_advance_append_only_is_incremental() -> None:
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    log = _paper_log()
    first = runner.advance(log[:1])
    assert not first.replayed
    assert first.state.state_name == "Auction"
    second = runner.advance(log[1:])
    assert not second.replayed
    assert second.state.state_name == "DoIt"
    assert second.state.payload == {"robot": "agv1", "winner": "agv2"}


def test_advance_retroactive_insertion_replays_and_invalidates() -> None:
    requested = _rec("requested", {"id": "1", "from": "A", "to": "B"}, 1, "n1", 0)
    bid = _rec("bid", {"robot": "agv1", "delay": 1}, 3, "n2", 0)
    selected = _rec("selected", {"winner": "agv2"}, 2, "n1", 1)

    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    runner.advance([requested, bid])
    assert runner.state.state_name == "Auction"

    result = runner.advance([selected])
    assert result.replayed
    assert result.state.state_name == "DoIt"
    assert [(r.record.event_type, r.reason) for r in result.reports] == [("bid", INVALIDATED)]
    assert runner.invalidated_keys == frozenset({bid.key})
    # the replayed outcome equals a from-scratch evaluation of the merged log
    oracle, _ = evaluate(
        transport.ROBOT, {"robot": "agv1"}, sort_records([requested, bid, selected]), SESSION
    )
    assert result.state.state_name == oracle.state_name
    assert result.state.payload == oracle.payload


def test_advance_duplicate_delivery_is_noop() -> None:
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    log = _paper_log()
    runner.advance(log)
    before = runner.state
    result = runner.advance(log)
    assert not result.replayed
    assert result.reports == ()
    assert result.state == before


# --------------------------------------------------------------------------
# Command invocation
# --------------------------------------------------------------------------


def _robot_in_auction() -> tuple[MachineRunner, NodeLog]:
    node = NodeLog("n2")
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    requested = _rec("requested", {"id": "1", "from": "A", "to": "B"}, 1, "n1", 0)
    node.receive([requested])
    runner.advance([requested])
    return runner, node


def test_invoke_bid_emits_record_from_payload_and_argument() -> None:
    runner, node = _robot_in_auction()
    records = runner.invoke("bid", [1], node)
    assert len(records) == 1
    assert records[0].event_type == "bid"
    assert records[0].payload == {"robot": "agv1", "delay": 1}
    assert node.own == records


def test_invoke_disabled_command_raises() -> None:
    node = NodeLog("n2")
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    with pytest.raises(CommandDisabledError):
        runner.invoke("bid", [1], node)


def test_invoke_twice_without_settlement_raises() -> None:
    runner, node = _robot_in_auction()
    runner.invoke("bid", [1], node)
    with pytest.raises(CommandDisabledError):
        runner.invoke("bid", [2], node)
    # consuming the emission settles the state and re-enables commands
    runner.advance(node.own)
    assert "bid" in runner.state.enabled_commands
    runner.invoke("bid", [2], node)


def test_discarded_own_emission_releases_the_lock() -> None:
    # `go` emits `ping`, which the machine subscribes to but never reacts to
    d = MachineDefinition(role="r", initial="A")
    d.command("A", "go", ["ping"], lambda p: [{}])
    node = NodeLog("n1")
    runner = MachineRunner(d, {}, SESSION, subscription=frozenset({"ping"}))
    records = runner.invoke("go", [], node)
    assert runner.state.enabled_commands == frozenset()
    assert [r.reason for r in runner.advance(records).reports] == [UNEXPECTED]
    assert runner.state.enabled_commands == frozenset({"go"})
    runner.invoke("go", [], node)
    # an own emission the machine cannot see holds the lock until a transition
    blind = MachineRunner(d, {}, SESSION, subscription=frozenset())
    blind.invoke("go", [], node)
    blind.advance(node.own)
    assert blind.state.enabled_commands == frozenset()


def test_command_emitting_nothing_keeps_commands_enabled() -> None:
    d = MachineDefinition(role="r", initial="S")
    d.command("S", "noop", [], lambda p: [])
    node = NodeLog("n1")
    runner = MachineRunner(d, {}, SESSION)
    assert runner.invoke("noop", [], node) == []
    runner.advance([])
    assert runner.state.enabled_commands == frozenset({"noop"})
    runner.invoke("noop", [], node)
    assert node.own == []


def test_command_handler_errors_wrap() -> None:
    d = MachineDefinition(role="r", initial="A")
    d.command("A", "boom", ["e"], lambda p: 1 / 0)
    runner = MachineRunner(d, {}, SESSION)
    with pytest.raises(HandlerError):
        runner.invoke("boom", [], NodeLog("n1"))
    d2 = MachineDefinition(role="r", initial="A")
    d2.command("A", "short", ["e1", "e2"], lambda p: [{}])
    runner2 = MachineRunner(d2, {}, SESSION)
    with pytest.raises(HandlerError):
        runner2.invoke("short", [], NodeLog("n1"))


# --------------------------------------------------------------------------
# Observer contract and shape faithfulness
# --------------------------------------------------------------------------


def test_observer_sees_each_settled_state_once_in_order() -> None:
    seen: list[str] = []
    runner = MachineRunner(
        transport.ROBOT,
        {"robot": "agv1"},
        SESSION,
        on_state=lambda s: seen.append(s.state_name),
    )
    assert seen == ["Initial"]  # initial snapshot on construction
    runner.advance(_paper_log())
    assert seen == ["Initial", "Auction", "Auction", "DoIt"]


def test_discard_hook_receives_reports() -> None:
    seen: list[tuple[str, str]] = []
    runner = MachineRunner(
        transport.ROBOT,
        {"robot": "agv1"},
        SESSION,
        on_discard=lambda rep: seen.append((rep.record.event_type, rep.reason)),
    )
    runner.advance([_rec("selected", {"winner": "x"}, 1)])
    assert seen == [("selected", UNEXPECTED)]


def test_settled_states_follow_extracted_shape() -> None:
    rng = random.Random(21)
    shape = extract_shape(transport.ROBOT)
    types = ["requested", "bid", "selected"]
    for _ in range(100):
        node = NodeLog("n1")
        for _ in range(rng.randrange(12)):
            payload = {"robot": f"agv{rng.randrange(3)}", "delay": rng.randrange(5),
                       "id": "1", "from": "A", "to": "B", "winner": "agv1"}
            node.append(types[rng.randrange(3)], payload, SESSION)
        state, _ = evaluate(transport.ROBOT, {"robot": "agv1"}, node.known, SESSION)
        applied_types = [r.event_type for r in _applied(node.known)]
        assert state.state_name == walk_shape(shape, applied_types).final_state


def _applied(log):
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    runner.advance(log)
    return runner.applied_records


def test_discard_accounting_random_logs() -> None:
    # Every consumed record is applied to exactly one position or reported once.
    rng = random.Random(22)
    d = _chain_machine()
    for _ in range(100):
        node = NodeLog("n1")
        for _ in range(rng.randrange(15)):
            node.append(rng.choice(["a", "b", "x", "zz"]), {}, rng.choice([SESSION, "other"]))
        state, reports = evaluate(d, [], node.known, SESSION)
        consumed = [
            r for r in node.known
            if r.session_id == SESSION and r.event_type in d.subscriptions
        ]
        applied_keys = set()
        runner = MachineRunner(d, [], SESSION)
        runner.advance(node.known)
        applied_keys = {r.key for r in runner.applied_records}
        reported_keys = {r.record.key for r in reports}
        assert applied_keys | reported_keys == {r.key for r in consumed}
        assert applied_keys & reported_keys == set()
        assert len(reports) == len(reported_keys)
        assert state.processed_count == len(consumed)


def test_replay_determinism_random_batches() -> None:
    # Any partition of a log into arrival batches, in any order, settles in
    # the same state as one batch evaluation of the sorted whole.
    rng = random.Random(23)
    for _ in range(100):
        nodes = [NodeLog(f"n{i}") for i in range(3)]
        types = ["requested", "bid", "selected"]
        for _ in range(rng.randrange(15)):
            node = nodes[rng.randrange(3)]
            payload = {"robot": f"agv{rng.randrange(3)}", "delay": rng.randrange(3),
                       "id": "1", "from": "A", "to": "B", "winner": "agv2"}
            node.append(types[rng.randrange(3)], payload, SESSION)
            if rng.randrange(2):
                dst = nodes[rng.randrange(3)]
                dst.receive(node.known)
        all_records = sort_records({r.key: r for n in nodes for r in n.known}.values())
        expected, expected_reports = evaluate(
            transport.ROBOT, {"robot": "agv1"}, all_records, SESSION
        )

        shuffled = list(all_records)
        rng.shuffle(shuffled)
        runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
        while shuffled:
            take = 1 + rng.randrange(len(shuffled))
            runner.advance(shuffled[:take])
            shuffled = shuffled[take:]
        assert runner.state.state_name == expected.state_name
        assert runner.state.payload == expected.payload
        assert sorted(r.record.key for r in runner.current_discards) == sorted(
            r.record.key for r in expected_reports
        )


# --------------------------------------------------------------------------
# Late invisible records, shared snapshots, atomic advance
# --------------------------------------------------------------------------


def test_invisible_late_records_do_not_replay() -> None:
    seen: list[tuple[str, str]] = []
    runner = MachineRunner(
        transport.ROBOT,
        {"robot": "agv1"},
        SESSION,
        on_discard=lambda rep: seen.append((rep.record.event_type, rep.reason)),
    )
    runner.advance([
        _rec("selected", {"winner": "x"}, 2, "n1", 0),  # discarded: nothing requested yet
        _rec("requested", {"id": "1", "from": "A", "to": "B"}, 5, "n1", 1),
    ])
    assert seen == [("selected", UNEXPECTED)]
    late = [
        _rec("requested", {"id": "2", "from": "A", "to": "B"}, 1, "n2", 0, session="other"),
        _rec("unrelated", {}, 3, "n2", 1),
    ]
    result = runner.advance(late)
    assert not result.replayed
    assert result.reports == ()
    assert seen == [("selected", UNEXPECTED)]  # old discards are not reported again
    assert [r.key for r in runner.log] == [("n2", 0), ("n1", 0), ("n2", 1), ("n1", 1)]

    # with a fresh visible record after the last consumed one, only its discard is new
    result = runner.advance([
        _rec("unrelated", {}, 4, "n3", 0),
        _rec("requested", {"id": "3", "from": "A", "to": "B"}, 6, "n3", 1),
    ])
    assert not result.replayed
    assert [(r.record.key, r.reason) for r in result.reports] == [(("n3", 1), UNEXPECTED)]
    assert seen == [("selected", UNEXPECTED), ("requested", UNEXPECTED)]
    assert runner.state.processed_count == 3


def test_state_reads_share_one_payload_until_the_fold_changes() -> None:
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION)
    log = _paper_log()
    result = runner.advance(log[:1])
    assert runner.state.payload is runner.state.payload
    assert result.state.payload is runner.state.payload
    # a record the machine cannot see changes nothing, so the copy stays shared
    runner.advance([_rec("bid", {"robot": "agv3", "delay": 1}, 2, "n3", 0, session="other")])
    assert runner.state.payload is result.state.payload
    runner.advance(log[1:2])
    assert runner.state.payload is not result.state.payload
    assert result.state.payload == {"robot": "agv1", "id": "4711", "from": "A", "to": "B",
                                    "scores": []}


def test_robot_handlers_rebuild_a_payload_mutated_through_a_snapshot() -> None:
    """The fold ends equal to the reference only because the robot's
    handlers rebuild the payload: the forged ``scores`` entry does reach the
    fold, and the ``selected`` reaction, which keeps only ``robot`` and the
    winner, drops it and the forged ``id``.  The runner gives no such
    guarantee: a snapshot's payload is the fold's own object until the next
    handler runs, so it is read-only (see ``RunnerState``).  What the runner
    does guarantee about payloads written in place is pinned by
    ``test_in_place_handler_writes_reach_no_fork_snapshot_or_caller_payload``."""
    states = []
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION, on_state=states.append)
    log = _paper_log()
    runner.advance(log[:1])
    runner.state.payload["scores"].append({"robot": "forged", "delay": 0})
    states[-1].payload["id"] = "forged"
    runner.advance(log[1:2]).state.payload["scores"].append({"robot": "forged", "delay": 0})
    runner.advance(log[2:])
    expected, _ = evaluate(transport.ROBOT, {"robot": "agv1"}, log, SESSION)
    assert runner.state.payload == expected.payload
    assert states[-1].payload == expected.payload


def _appending_machine() -> MachineDefinition:
    """One state whose reaction appends the record's node id to its payload
    in place, and raises after the append when the record's payload asks."""

    def note(p, recs):
        p["seen"].append(recs[0].node_id)
        if recs[0].payload.get("fail"):
            raise RuntimeError("asked to fail")
        return p

    d = MachineDefinition(role="r", initial="s")
    d.react("s", ["e"], "s", note)
    return d


def test_in_place_handler_writes_reach_no_fork_snapshot_or_caller_payload() -> None:
    initial = {"seen": []}
    runner = MachineRunner(_appending_machine(), initial, SESSION)
    runner.advance([_rec("e", {}, 1, "n1", 0)])  # nothing held the payload: no copy
    assert initial == {"seen": []}
    evaluate(_appending_machine(), initial, [_rec("e", {}, 1, "n1", 0)], SESSION)
    assert initial == {"seen": []}
    for side in (0, 1):  # forks of a runner no snapshot has read yet
        pair = [MachineRunner(_appending_machine(), initial, SESSION)]
        pair.append(pair[0]._fork())
        pair[side].advance([_rec("e", {}, 1, "n9", 0)])
        assert pair[1 - side].state.payload == {"seen": []}

    early = runner.state
    twin = runner._fork()
    twin.advance([_rec("e", {}, 2, "n2", 0)])
    assert twin.state.payload == {"seen": ["n1", "n2"]}
    assert runner.state.payload == {"seen": ["n1"]}
    assert early.payload == {"seen": ["n1"]}
    runner.advance([_rec("e", {}, 2, "n3", 0)])
    assert runner.state.payload == {"seen": ["n1", "n3"]}
    assert twin.state.payload == {"seen": ["n1", "n2"]}
    assert early.payload == {"seen": ["n1"]}
    assert initial == {"seen": []}

    # A handler that writes in place and then raises, in either fork.
    for failing, sibling in ((twin, runner), (runner, twin)):
        snapshots = [failing.state, sibling.state]
        expected = [s.payload["seen"][:] for s in snapshots]
        with pytest.raises(HandlerError):
            failing.advance([_rec("e", {"fail": True}, 3, "n4", 0)])
        assert [s.payload["seen"] for s in snapshots] == expected
        assert [failing.state.payload["seen"], sibling.state.payload["seen"]] == expected
    assert early.payload == {"seen": ["n1"]} and initial == {"seen": []}


def test_a_fork_copies_every_attribute_in_construction_order() -> None:
    """``_fork`` sets attributes one by one: it must miss none and keep the
    order the constructor sets them in."""
    runner = MachineRunner(transport.ROBOT, {"robot": "agv1"}, SESSION, on_discard=print)
    log = _paper_log()
    runner.advance([log[0], log[2]])
    runner.advance([log[1]])  # late: a replay that invalidates nothing
    # The twin's own containers; the rest, the payload included, is shared.
    private = {"_node", "_invalidated_keys", "_fold", "matched", "applied", "reports"}
    for original, twin in ((runner, runner._fork()), (runner._fold, runner._fold._fork())):
        assert list(vars(twin)) == list(vars(original))
        for name, value in vars(original).items():
            copied = getattr(twin, name)
            assert (copied is not value) == (name in private), name
            assert name == "_fold" or copied == value, name
    assert runner._fork()._fold.shared and runner._fold.shared


def test_in_place_command_handler_writes_reach_no_state_snapshot_or_fork() -> None:
    def score(p, delay):
        p["scores"].append(delay)  # written in place, then dropped
        return [{"delay": delay}]

    d = MachineDefinition(role="r", initial="s")
    d.command("s", "score", ["scored"], score)
    runner = MachineRunner(d, {"scores": [1]}, SESSION)
    early = runner.state
    twin = runner._fork()
    records = runner.invoke("score", [2], NodeLog("n1"))
    assert [r.payload for r in records] == [{"delay": 2}]
    assert runner.state.payload == {"scores": [1]}
    assert early.payload == {"scores": [1]}
    assert twin.state.payload == {"scores": [1]}


def _observable(runner: MachineRunner) -> tuple:
    state = runner.state
    return (
        state.state_name,
        state.payload,
        state.enabled_commands,
        state.in_flight,
        state.processed_count,
        [r.key for r in runner.applied_records],
        [(r.record.key, r.reason) for r in runner.current_discards],
        runner.invalidated_keys,
        [r.key for r in runner.log],
    )


def test_handler_error_leaves_runner_unchanged_and_redelivery_applies() -> None:
    failures = [RuntimeError("transient")]

    def close(p, recs):
        if failures:
            raise failures.pop()
        return p + [r.event_type for r in recs]

    d = MachineDefinition(role="r", initial="A")
    d.state("B")
    d.react("A", ["a", "b"], "B", close)
    runner = MachineRunner(d, [], SESSION)
    a, b = _rec("a", {}, 1, "n1", 0), _rec("b", {}, 2, "n1", 1)
    runner.advance([a])
    before = _observable(runner)
    with pytest.raises(HandlerError):
        runner.advance([b])
    assert _observable(runner) == before
    result = runner.advance([b])  # the redelivery is not swallowed
    assert result.state.state_name == "B"
    assert result.state.payload == ["a", "b"]
    assert [r.key for r in runner.applied_records] == [a.key, b.key]


def test_handler_error_restores_lock_and_invalidation_reasons() -> None:
    d = MachineDefinition(role="r", initial="A")
    d.state("D")
    d.command("B", "go", ["t"], lambda p: [{}])
    d.react("A", ["r"], "B", lambda p, recs: p + ["r"])
    d.react("B", ["t"], "B", lambda p, recs: p + ["t"])
    d.react("B", ["s"], "C", lambda p, recs: p + ["s"])
    d.react("C", ["boom"], "D", lambda p, recs: 1 / 0)
    node = NodeLog("n1")
    runner = MachineRunner(d, [], SESSION)
    r, t = _rec("r", {}, 1, "n1", 0), _rec("t", {}, 3, "n2", 0)
    runner.advance([r, t])
    runner.advance([_rec("s", {}, 2, "n1", 1)])  # replay: t falls off the path
    runner.advance([_rec("t", {}, 9, "n7", 0, session="other")])
    assert runner.current_discards[0].reason == INVALIDATED
    before = _observable(runner)

    # incremental path; the index is the failing record's position in the log
    with pytest.raises(HandlerError) as err:
        runner.advance([_rec("boom", {}, 4, "n3", 0)])
    assert err.value.record_index == 3
    assert _observable(runner) == before
    # replay path: a late record refolds the log and fails on the way
    with pytest.raises(HandlerError) as err:
        runner.advance([_rec("boom", {}, 2, "n9", 0), _rec("r", {}, 1, "n8", 0)])
    assert err.value.record_index == 3
    assert _observable(runner) == before

    # a held command lock survives a failed call that passed a settled state
    runner2 = MachineRunner(d, [], SESSION)
    runner2.advance([r])
    runner2.invoke("go", [], node)
    locked = _observable(runner2)
    assert locked[2] == frozenset()
    with pytest.raises(HandlerError):
        runner2.advance([_rec("s", {}, 5, "n2", 1), _rec("boom", {}, 6, "n2", 2)])
    assert _observable(runner2) == locked


def test_state_observer_error_rolls_back_and_redelivery_applies() -> None:
    """An ``on_state`` observer raising mid-fold, on the incremental and the
    replay path, leaves the runner as it was; no record it interrupted is
    skipped when the next records arrive or it is delivered again."""
    failing = {1}

    def observe(state) -> None:
        if state.payload and state.payload[-1] in failing:
            failing.discard(state.payload[-1])
            raise RuntimeError("observer failed")

    d = MachineDefinition(role="r", initial="s")
    d.react("s", ["e"], "s", lambda p, recs: p + [recs[0].seq])
    runner = MachineRunner(d, [], SESSION, on_state=observe)
    records = [_rec("e", {}, i + 1, "n1", i) for i in range(5)]
    before = _observable(runner)
    with pytest.raises(RuntimeError):
        runner.advance(records[:3])  # incremental: raises at seq 1
    assert _observable(runner) == before
    runner.advance(records[3:4])
    expected, _ = evaluate(d, [], list(runner.log), SESSION)
    assert runner.state.payload == expected.payload == [3]
    failing.add(2)
    before = _observable(runner)
    with pytest.raises(RuntimeError):
        runner.advance(records[:3])  # a replay: raises at seq 2
    assert _observable(runner) == before
    assert runner.advance(records[:3]).replayed
    runner.advance(records[4:])
    assert runner.state.payload == [0, 1, 2, 3, 4]


def test_discard_observer_error_rolls_back_a_replay_and_its_invalidations() -> None:
    """An ``on_discard`` observer raising on a replay's first invalidated
    record leaves the runner as it was, ``invalidated_keys`` included; the
    redelivery hands it every discard.  ``invalidated_keys`` changes only
    once the call has succeeded, so the observer never sees it change."""
    seen: list = []

    def observe(report) -> None:
        seen.append((report.record.key, report.reason, runner.invalidated_keys))
        if len(seen) == 1:
            raise RuntimeError("observer failed")

    d = MachineDefinition(role="r", initial="A")
    d.react("A", ["r"], "B", lambda p, recs: p + ["r"])
    d.react("B", ["t"], "B", lambda p, recs: p + ["t"])
    d.react("B", ["s"], "C", lambda p, recs: p + ["s"])
    runner = MachineRunner(d, [], SESSION, on_discard=observe)
    r, s = _rec("r", {}, 1, "n1", 0), _rec("s", {}, 2, "n1", 1)
    t1, t2 = _rec("t", {}, 3, "n2", 0), _rec("t", {}, 4, "n2", 1)
    runner.advance([r, t1, t2])
    before = _observable(runner)
    with pytest.raises(RuntimeError):
        runner.advance([s])  # replay: t1 and t2 fall off the path
    assert _observable(runner) == before
    assert runner.invalidated_keys == frozenset()
    result = runner.advance([s])
    assert result.replayed
    none = frozenset()
    assert seen == [(t1.key, INVALIDATED, none), (t1.key, INVALIDATED, none),
                    (t2.key, INVALIDATED, none)]
    assert runner.invalidated_keys == {t1.key, t2.key}
    assert runner.state.payload == ["r", "s"]


def _mixing_machine(poisoned: frozenset | set = frozenset()) -> MachineDefinition:
    """Order-sensitive integer payload; a two-event reaction and an event type
    subscribed in both states keep discards and open reactions frequent.  A
    reaction completed by a record whose key is in ``poisoned`` raises."""

    def mix(p, recs):
        if recs[-1].key in poisoned:
            raise RuntimeError("poisoned record")
        for r in recs:
            p = (p * 1_000_003 + r.lamport * 31 + r.seq) % 2_147_483_647
        return p

    d = MachineDefinition(role="r", initial="A")
    d.state("B")
    d.react("A", ["a", "b"], "B", mix)
    d.react("A", ["x"], "A", mix)
    d.react("B", ["c"], "A", mix)
    d.react("B", ["x"], "B", mix)
    return d


def test_advance_matches_evaluate_on_2000_record_logs() -> None:
    rng = random.Random(24)
    d = _mixing_machine()
    subscription = d.subscriptions
    visible = lambda r: r.session_id == SESSION and r.event_type in subscription
    totals = {"replayed": 0, "late_not_replayed": 0}
    for case in range(3):
        nodes = [NodeLog(f"n{i}") for i in range(4)]
        for _ in range(2000):
            node = nodes[rng.randrange(4)]
            node.append(rng.choice("aabbcxxz"), {}, SESSION if rng.randrange(5) else "other")
            if rng.randrange(3) == 0:
                node.receive(nodes[rng.randrange(4)].own[-3:])
        records = sort_records(r for n in nodes for r in n.own)

        # deliveries: a full shuffle, or the sorted log with one record in
        # ten held back by up to 60 positions; one batch in ten re-sends
        if case == 0:
            order = rng.sample(range(len(records)), len(records))
        else:
            delay = lambda i: i + (rng.randrange(60) if rng.randrange(10) == 0 else 0)
            order = sorted(range(len(records)), key=delay)
        runner = MachineRunner(d, 0, SESSION)
        held: set = set()
        last_visible = None  # order key of the last record the fold consumed
        while order:
            take = 1 + rng.randrange(16 if case else 64)
            batch = [records[i] for i in order[:take]]
            order = order[take:]
            if held and rng.randrange(10) == 0:
                batch.append(runner.log[rng.randrange(len(held))])
            fresh = [r for r in batch if r.key not in held]
            late = [r for r in fresh if visible(r) and last_visible and r.order_key < last_visible]
            result = runner.advance(batch)
            assert result.replayed == bool(late)
            if not result.replayed:
                assert {r.record.key for r in result.reports} <= {r.key for r in fresh}
                if last_visible and any(r.order_key < last_visible for r in fresh):
                    totals["late_not_replayed"] += 1
            totals["replayed"] += result.replayed
            held.update(r.key for r in fresh)
            last_visible = max([r.order_key for r in fresh if visible(r)] + [last_visible or (0, "")])

        expected, reports = evaluate(d, 0, records, SESSION)
        discarded = {r.record.key for r in reports}
        assert runner.state.state_name == expected.state_name
        assert runner.state.payload == expected.payload
        assert [r.key for r in runner.applied_records] == [
            r.key for r in records if visible(r) and r.key not in discarded
        ]
        assert sorted(r.record.key for r in runner.current_discards) == sorted(discarded)
    assert totals["replayed"] > 100 and totals["late_not_replayed"] > 50


def test_failed_advance_rolls_back_on_both_paths_random_logs() -> None:
    """A handler fails on one random visible record of each log, delivered in
    random batches: the failure lands on the incremental and the replay path.
    A failed call leaves the runner as it was and indexes the failing record
    in the merged log; redelivery with the failure off matches ``evaluate``."""
    rng = random.Random(13)
    poisoned: set = set()
    d = _mixing_machine(poisoned)
    subscription = d.subscriptions
    visible = lambda r: r.session_id == SESSION and r.event_type in subscription
    failures = {"incremental": 0, "replay": 0}
    for _ in range(300):
        nodes = [NodeLog(f"n{i}") for i in range(3)]
        for _ in range(rng.randrange(5, 40)):
            node = nodes[rng.randrange(3)]
            node.append(rng.choice("aabbcxxz"), {}, SESSION if rng.randrange(5) else "other")
            if rng.randrange(3) == 0:
                node.receive(nodes[rng.randrange(3)].own[-2:])
        records = sort_records(r for n in nodes for r in n.own)
        candidates = [r for r in records if visible(r)]
        poisoned.clear()
        if candidates:
            poisoned.add(rng.choice(candidates).key)
        spread = rng.choice((2, len(records)))  # nearly in order, or shuffled
        order = sorted(records, key=lambda r: records.index(r) + rng.uniform(0, spread))
        runner = MachineRunner(d, 0, SESSION)
        while order:
            take = 1 + rng.randrange(6)
            batch, order = order[:take], order[take:]
            held = {r.key for r in runner.log}
            fresh = [r for r in batch if r.key not in held]
            last = max((r.order_key for r in runner.log if visible(r)), default=None)
            late = last is not None and any(visible(r) and r.order_key < last for r in fresh)
            before = _observable(runner)
            try:
                result = runner.advance(batch)
            except HandlerError as err:
                assert _observable(runner) == before
                merged = sort_records(list(runner.log) + fresh)
                (failing,) = [r for r in merged if r.key in poisoned]
                assert err.record_index == merged.index(failing)
                failures["replay" if late else "incremental"] += 1
                poisoned.clear()
                result = runner.advance(batch)
            assert result.replayed == late

        expected, reports = evaluate(d, 0, records, SESSION)
        discarded = {r.record.key for r in reports}
        assert runner.state.state_name == expected.state_name
        assert runner.state.payload == expected.payload
        assert [r.key for r in runner.applied_records] == [
            r.key for r in records if visible(r) and r.key not in discarded
        ]
        assert sorted(r.record.key for r in runner.current_discards) == sorted(discarded)
    assert failures["incremental"] > 0 and failures["replay"] > 0, failures
