"""The protocol's memo of derived views: a subscription's state classes and
the input edges every role with that subscription shares are computed once
per protocol object, nothing is kept per role, and every answer equals the
one a freshly parsed copy gives."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from collections import Counter
from typing import Any

import pytest

from swarmproto import projection
from swarmproto.errors import PreconditionError, ProjectionAmbiguity
from swarmproto.model import (
    Input,
    MachineShape,
    SwarmProtocol,
    parse_machine_shape,
    protocol_from_obj,
    protocol_to_obj,
    serialize_machine_shape,
    subscriptions_from_obj,
    unobserved_classes,
)
from swarmproto.projection import check_projection, project
from swarmproto.wellformed import check_swarm_protocol

from conftest import closure_subs, load_fixture, random_protocol
from test_differential_checks import random_subs, rough_protocol

Subs = dict[str, frozenset[str]]


def fresh(p: SwarmProtocol) -> SwarmProtocol:
    """An equal protocol object that has computed nothing yet."""
    return protocol_from_obj(protocol_to_obj(p))


def projected(p: SwarmProtocol, subs: Subs, role: str) -> Any:
    try:
        result = project(p, subs, role)
    except ProjectionAmbiguity as exc:
        return ("ambiguous", str(exc))
    return (result.shape, result.provenance)


def cases(seed: int, count: int) -> list[tuple[SwarmProtocol, Subs, str]]:
    """Random protocols, each with closure, full and cut-down subscriptions;
    rough protocols, whose reused event types make some projections
    ambiguous; and the transport fixture."""
    rng = random.Random(seed)
    transport = protocol_from_obj(load_fixture("transport_protocol"))
    full = subscriptions_from_obj(load_fixture("transport_subs"))
    out = [
        (transport, full, "full"),
        (transport, dict(full, robot=frozenset({"bid", "selected"})), "cut"),
    ]
    for _ in range(count):
        p = random_protocol(rng)
        closure = closure_subs(p)
        everything = frozenset(e for t in p.transitions for e in t.log_type)
        out.append((p, closure, "closure"))
        out.append((p, {role: everything for role in closure}, "full"))
        out.append(
            (p, {r: frozenset(e for e in sorted(ts) if rng.randrange(2)) for r, ts in closure.items()}, "cut")
        )
        shared = frozenset(e for e in sorted(everything) if rng.randrange(2))
        out.append((p, {role: shared for role in closure}, "shared"))
        rough = rough_protocol(rng)
        out.append((rough, random_subs(rng, rough), "rough"))
    return out


def assert_equal_subscriptions_share_inputs(p: SwarmProtocol, subs: Subs) -> None:
    """Roles with equal subscriptions hold the same input edge objects."""
    by_subscription: dict[frozenset[str], list] = {}
    for role in sorted(subs):
        try:
            shape = project(p, subs, role).shape
        except ProjectionAmbiguity:
            continue
        inputs = [t for t in shape.transitions if isinstance(t.label, Input)]
        by_subscription.setdefault(subs[role], []).append(inputs)
    for shapes in by_subscription.values():
        for inputs in shapes[1:]:
            assert len(inputs) == len(shapes[0])
            assert all(a is b for a, b in zip(inputs, shapes[0]))


def test_memo_answers_match_a_fresh_parse() -> None:
    seen: Counter = Counter()
    for p, subs, kind in cases(1801, 150):
        roles = sorted(subs)
        check_swarm_protocol(p, subs)
        # each role after the checker, then again after every other role
        for order in (roles, roles[::-1], roles):
            for role in order:
                assert projected(p, subs, role) == projected(fresh(p), subs, role)
                assert unobserved_classes(p, subs[role]) == unobserved_classes(fresh(p), subs[role])
        # the same role under another role's subscription reads another entry
        for role, other in zip(roles, roles[1:]):
            swapped = dict(subs, **{role: subs[other]})
            assert projected(p, swapped, role) == projected(fresh(p), swapped, role)
        assert_equal_subscriptions_share_inputs(p, subs)
        for role in roles:
            classes = unobserved_classes(p, subs[role])
            seen[kind] += 1
            if len(set(classes.values())) < len(classes):
                seen[f"{kind} merged"] += 1
            if projected(p, subs, role)[0] == "ambiguous":
                seen["ambiguous"] += 1
    # cut-down views merge states, and some of them are ambiguous
    assert seen["cut merged"] >= 100 and seen["closure merged"] >= 20 and seen["ambiguous"] >= 5, seen
    assert seen["shared merged"] >= 100, seen


def test_returned_dicts_are_the_callers_own(protocol, full_subs) -> None:
    cut = dict(full_subs, robot=frozenset({"bid", "selected"}))
    for subs in (full_subs, cut):
        first = project(protocol, subs, "robot")
        expected = dict(first.provenance)
        first.provenance.clear()
        first.provenance[99] = 99
        again = project(protocol, subs, "robot")
        assert again.provenance == expected and again.provenance is not first.provenance
        assert again.shape == first.shape

        classes = unobserved_classes(protocol, subs["robot"])
        expected_classes = dict(classes)
        classes["auction"] = "elsewhere"
        assert unobserved_classes(protocol, subs["robot"]) == expected_classes
    assert unobserved_classes(protocol, {"bid", "selected"})["auction"] == "auction"
    assert unobserved_classes(protocol, {"bid", "selected"})["initial"] == "auction"


def test_failures_raise_again_and_store_nothing() -> None:
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
    for _ in range(3):
        with pytest.raises(ProjectionAmbiguity):
            project(p, subs, "r")
        with pytest.raises(ProjectionAmbiguity):
            check_projection(p, subs, "r", project(p, {"r": frozenset({"a", "b"})}, "r").shape)
    # a role missing from the mapping is rejected before the memo is read,
    # even when that role was projected from another mapping
    project(p, {"r": frozenset({"a"})}, "r")
    for _ in range(2):
        with pytest.raises(PreconditionError):
            project(p, {"other": frozenset({"a"})}, "r")
        with pytest.raises(PreconditionError):
            check_projection(p, {}, "r", project(p, {"r": frozenset({"a"})}, "r").shape)


def test_memo_takes_no_part_in_equality_hash_or_repr(protocol, full_subs) -> None:
    untouched = fresh(protocol)
    check_swarm_protocol(protocol, full_subs)
    for role in sorted(full_subs):
        project(protocol, full_subs, role)
    assert protocol == untouched and hash(protocol) == hash(untouched)
    assert repr(protocol) == repr(untouched) and "memo" not in repr(protocol)
    assert "_memo" not in {f.name for f in dataclasses.fields(SwarmProtocol)}
    assert dataclasses.asdict(protocol) == dataclasses.asdict(untouched)
    assert {protocol: 1}[untouched] == 1


def test_check_projection_reuses_the_projection(monkeypatch, protocol, full_subs) -> None:
    """``project`` and ``check_projection`` read one local view per distinct
    subscription, whatever the role, and the walk builds no machine shape."""
    derived: Counter = Counter()
    built: list[MachineShape] = []
    real_view = projection._derive_local_view
    real_init = MachineShape.__init__

    def counted(p: SwarmProtocol, retained: frozenset[str]) -> Any:
        derived[retained] += 1
        return real_view(p, retained)

    def counted_init(self: MachineShape, *args: Any, **kwargs: Any) -> None:
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(projection, "_derive_local_view", counted)
    monkeypatch.setattr(MachineShape, "__init__", counted_init)
    rng = random.Random(1802)
    cut = dict(full_subs, robot=frozenset({"bid", "selected"}))
    pairs = [(protocol, full_subs), (fresh(protocol), cut)]
    pairs += [(p, closure_subs(p)) for p in (random_protocol(rng) for _ in range(30))]
    for p, subs in pairs:
        derived.clear()
        built.clear()
        shapes = {role: project(p, subs, role).shape for role in sorted(subs)}
        assert len(built) == len(subs)
        built.clear()
        for role, shape in shapes.items():
            assert check_projection(p, subs, role, shape).ok
            assert check_projection(p, subs, role, shape).ok
        assert built == []
        assert derived == Counter(set(subs.values()))


def test_threads_first_using_one_protocol_get_the_same_answers() -> None:
    """Threads that first use a protocol object at once may each compute a
    view, but every answer equals the one a fresh parse gives."""
    rng = random.Random(1803)
    pairs = [(p, closure_subs(p)) for p in (random_protocol(rng, max_states=30, max_transitions=60) for _ in range(20))]
    expected = [
        ({role: projected(fresh(p), subs, role) for role in subs},
         {role: unobserved_classes(fresh(p), subs[role]) for role in subs})
        for p, subs in pairs
    ]
    got: list[list] = [[] for _ in range(8)]

    def work(out: list) -> None:
        for p, subs in pairs:
            out.append(
                ({role: projected(p, subs, role) for role in sorted(subs)},
                 {role: unobserved_classes(p, subs[role]) for role in sorted(subs)})
            )

    threads = [threading.Thread(target=work, args=(out,)) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == expected for out in got)


def five_role_protocol() -> SwarmProtocol:
    """A chain of two-event steps, acted in turn by five roles."""
    roles = [f"r{i}" for i in range(5)]
    return protocol_from_obj(
        {
            "initial": "s0",
            "transitions": [
                {
                    "source": f"s{i}",
                    "target": f"s{i + 1}",
                    "label": {"cmd": f"c{i}", "logType": [f"g{i}", f"d{i}"], "role": roles[i % 5]},
                }
                for i in range(12)
            ],
        }
    )


def test_equal_subscriptions_derive_one_local_view(monkeypatch) -> None:
    derived: list[frozenset[str]] = []
    real = projection._derive_local_view

    def counted(p: SwarmProtocol, retained: frozenset[str]) -> Any:
        derived.append(retained)
        return real(p, retained)

    monkeypatch.setattr(projection, "_derive_local_view", counted)
    p = five_role_protocol()
    everything = frozenset(e for t in p.transitions for e in t.log_type)
    full = {f"r{i}": everything for i in range(5)}
    assert check_swarm_protocol(p, full).ok
    shapes = {role: project(p, full, role).shape for role in sorted(full)}
    for role, shape in shapes.items():
        assert check_projection(p, full, role, shape).ok
    assert derived == [everything]
    # every role holds the same input edges and its own commands
    inputs = {role: shape.transitions[:12 * 2] for role, shape in shapes.items()}
    assert all(t is u for role in shapes for t, u in zip(inputs[role], inputs["r0"]))
    assert all(isinstance(t.label, Input) for t in inputs["r0"])
    for role, shape in shapes.items():
        commands = shape.transitions[12 * 2:]
        assert {t.label.cmd for t in commands} == {f"c{i}" for i in range(12) if f"r{i % 5}" == role}

    # a role with a cut-down subscription derives its own view, once
    cut = dict(full, r3=frozenset(e for e in everything if not e.startswith("d")))
    for _ in range(2):
        project(p, cut, "r3")
        project(p, cut, "r0")
    assert derived == [everything, cut["r3"]]
    assert project(p, cut, "r3").shape == project(fresh(p), cut, "r3").shape


def test_equal_subscriptions_walk_one_input_map() -> None:
    """``check_projection`` reads the local view's input map for every role
    that shares the subscription, and builds no index for the projected
    shapes; a caller's copy of their input edges changes no verdict."""
    p = five_role_protocol()
    everything = frozenset(e for t in p.transitions for e in t.log_type)
    full = {f"r{i}": everything for i in range(5)}
    shapes = {role: project(p, full, role).shape for role in sorted(full)}
    impls = {role: parse_machine_shape(serialize_machine_shape(shape)) for role, shape in shapes.items()}
    view = p._memo[(projection._LocalView, everything)]
    for role in full:
        assert projection._local_view(p, full, role) is view
        assert check_projection(p, full, role, impls[role]).ok
        assert "_index" not in vars(shapes[role])
    # another role's commands still fail
    assert not check_projection(p, full, "r1", impls["r0"]).ok

    edges = shapes["r0"].input_edges("s0")
    edges["g0"] = "elsewhere"
    edges["zz"] = "s1"
    shapes["r1"].input_edges("s1").clear()
    for role in ("r0", "r1"):
        assert check_projection(p, full, role, impls[role]).ok
        assert check_projection(p, full, role, impls["r2"]).to_obj() == check_projection(
            fresh(p), full, role, impls["r2"]
        ).to_obj()
        assert project(p, full, role).shape == project(fresh(p), full, role).shape
    q = fresh(p)
    project(q, full, "r0")
    assert view.targets == q._memo[(projection._LocalView, everything)].targets


def test_a_role_named_like_the_view_tag_projects_correctly(protocol, full_subs) -> None:
    """The local view's memo key is tagged with a class; a role may carry its
    name, or any name, without reading another entry."""
    tag = projection._LocalView.__name__
    renamed = protocol_from_obj(
        {
            "initial": protocol.initial,
            "transitions": [
                dict(t, label=dict(t["label"], role=tag if t["label"]["role"] == "robot" else t["label"]["role"]))
                for t in protocol_to_obj(protocol)["transitions"]
            ],
        }
    )
    subs = {tag: full_subs["robot"], "machine": full_subs["machine"]}
    robot = project(protocol, full_subs, "robot")
    for _ in range(2):
        for role in (tag, "machine"):
            got = project(renamed, subs, role)
            assert (got.shape, got.provenance) == projected(fresh(renamed), subs, role)
        assert (project(renamed, subs, tag).shape, project(renamed, subs, tag).provenance) == (
            robot.shape,
            robot.provenance,
        )
        assert check_projection(renamed, subs, tag, robot.shape).ok
        assert not check_projection(renamed, subs, "machine", robot.shape).ok
    # one class map and one view, under keys that differ, and nothing per role
    assert len(renamed._memo) == 2


def test_subscriptions_given_as_sets_read_the_same_entries(protocol) -> None:
    """A mapping to plain sets is frozen before any memo lookup, so it gives
    the answers, and fills the entries, that frozen sets do."""
    doc = load_fixture("subs_branch_blind")
    as_sets = {role: set(types) for role, types in doc.items()}
    frozen = subscriptions_from_obj(doc)
    p, q = fresh(protocol), fresh(protocol)
    for subs, proto in ((as_sets, p), (frozen, q)):
        assert check_swarm_protocol(proto, subs) == check_swarm_protocol(fresh(protocol), frozen)
        for role in sorted(subs):
            assert projected(proto, subs, role) == projected(fresh(protocol), frozen, role)
    assert p._memo.keys() == q._memo.keys()


def test_the_memo_holds_one_class_map_and_one_view_per_subscription() -> None:
    """Five roles with one subscription leave one entry of each kind; a role
    with a second subscription adds one more of each."""
    p = five_role_protocol()
    everything = frozenset(e for t in p.transitions for e in t.log_type)
    full = {f"r{i}": everything for i in range(5)}
    cut = dict(full, r3=frozenset(e for e in everything if not e.startswith("d")))
    for subs in (full, cut):
        check_swarm_protocol(p, subs)
        for role in sorted(subs):
            shape = project(p, subs, role).shape
            assert check_projection(p, subs, role, shape).ok
        if subs is full:
            assert p._memo.keys() == {everything, (projection._LocalView, everything)}
    assert p._memo.keys() == {
        everything,
        (projection._LocalView, everything),
        cut["r3"],
        (projection._LocalView, cut["r3"]),
    }
