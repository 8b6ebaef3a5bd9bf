"""Data model and interchange formats for swarm protocols.

A swarm protocol is a global workflow graph: a finite state machine whose
transitions are labeled with a command, the role allowed to invoke it, and
the ordered log of event types the command emits.  Machine shapes are the
local per-role counterpart: input transitions selected by event type plus
command annotations.  This module owns the value types, their strict JSON
parsers and serializers, graph utilities, and DOT export.

A machine shape is written in one fixed layout, the text
``json.dumps(obj, indent=2, sort_keys=True)`` gives: top-level keys
``initial``, ``subscriptions`` (sorted), ``transitions``; transition keys
``label``, ``source``, ``target``; label keys ``eventType``, ``tag`` or
``cmd``, ``logType``, ``tag``; every non-ASCII character escaped.
``serialize_machine_shape`` builds that text itself, and the tests compare
it with ``json.dumps`` byte for byte.

All values here are immutable after construction and safe to share between
threads.  A ``SwarmProtocol`` also carries a private memo of views derived
from it, of two kinds: the state classes of an observed set, and the local
view of a subscription (those classes plus the input edges every role with
that subscription shares).  Each view is computed on first use and never
changed afterwards.  Two threads that first ask for the same view at once
may both compute it; the results are equal.  The memo keeps one entry of
each kind per distinct subscription it is asked about, and nothing per
role, for the protocol object's lifetime, with no bound.  Apart from the
memo, a protocol keeps its state set and each role's transition indices,
also computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import json
from json.encoder import encode_basestring_ascii
from typing import AbstractSet, Any, Collection, Iterable, Mapping

from .errors import ParseError

Subscriptions = dict[str, frozenset[str]]


@dataclass(frozen=True)
class ProtocolTransition:
    """One arrow of the global workflow graph.

    ``log_type`` is the ordered list of event types emitted when ``role``
    invokes ``cmd`` in ``source``; its first element is the guard event that
    selects this branch.
    """

    source: str
    target: str
    cmd: str
    role: str
    log_type: tuple[str, ...]

    @property
    def guard(self) -> str | None:
        """First emitted event type; None for an (ill-formed) empty log."""
        return self.log_type[0] if self.log_type else None


@dataclass(frozen=True)
class SwarmProtocol:
    """Global workflow graph: an initial state plus labeled transitions.

    The state set is implicit: the initial state plus every transition
    source and target.
    """

    initial: str
    transitions: tuple[ProtocolTransition, ...]

    @cached_property
    def _memo(self) -> dict[Any, Any]:
        """Views derived from this protocol, each computed on first use,
        under keys of two kinds that never compare equal:

        * ``unobserved_classes`` keyed by the frozen observed set;
        * a subscription's local view (``projection._LocalView``), keyed by
          ``(_LocalView, subscription)``: the class itself is the tag.

        Entries are never evicted: one of each kind per distinct
        subscription asked about, for the object's lifetime.  Not a field,
        so it takes no part in ``==``, ``hash`` or ``repr``; callers hand
        out copies of the mutable values it holds, never the stored ones."""
        return {}

    @cached_property
    def _index(self) -> tuple[set[str], dict[str, list[int]]]:
        """The state set, and each role's transition indices in index order,
        computed on first use; not to be mutated.  Not a field, like
        ``_memo``."""
        by_role: dict[str, list[int]] = {}
        for i, t in enumerate(self.transitions):
            by_role.setdefault(t.role, []).append(i)
        return _states(self.initial, self.transitions), by_role

    def states(self) -> set[str]:
        return set(self._index[0])

    def outgoing(self, state: str) -> list[tuple[int, ProtocolTransition]]:
        return [(i, t) for i, t in enumerate(self.transitions) if t.source == state]


@dataclass(frozen=True)
class Input:
    """Machine transition consuming one event type."""

    event_type: str


@dataclass(frozen=True)
class Execute:
    """Command annotation: invoking ``cmd`` emits ``log_type``.

    Commands do not move the machine, so Execute transitions are self-loops.
    """

    cmd: str
    log_type: tuple[str, ...]


MachineLabel = Input | Execute


@dataclass(frozen=True)
class MachineTransition:
    source: str
    target: str
    label: MachineLabel


@dataclass(frozen=True)
class MachineShape:
    """One role's local state machine in interchange form.

    Multi-event reactions appear expanded as chains of Input edges through
    synthetic intermediate states, which makes equivalence checking a plain
    labeled-graph comparison.

    The per-state queries read one index of the transitions, built on first
    use in a single pass; ``input_edges`` returns a fresh dict each call, so
    a caller may mutate it.  ``projection.check_projection`` reads the index
    of the machine it checks; it builds no projected shape, so a projected
    shape builds its index only when a caller asks for it.
    """

    initial: str
    subscriptions: frozenset[str]
    transitions: tuple[MachineTransition, ...]

    @cached_property
    def _index(
        self,
    ) -> tuple[
        dict[str, dict[str, str]],
        dict[str, frozenset[tuple[str, tuple[str, ...]]]],
        dict[str, tuple[str, ...]],
    ]:
        """Three maps keyed by source state, each holding only the states
        that have such edges: event type -> target of the first Input edge
        of that type; the (cmd, logType) pairs; the event types of later
        same-typed inputs to another target."""
        inputs: dict[str, dict[str, str]] = {}
        commands: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
        clashes: dict[str, list[str]] = {}
        for t in self.transitions:
            label = t.label
            if type(label) is Input or isinstance(label, Input):
                ev, target = label.event_type, t.target
                out = inputs.get(t.source)
                if out is None:
                    inputs[t.source] = {ev: target}
                elif out.setdefault(ev, target) != target:
                    clashes.setdefault(t.source, []).append(ev)
            else:
                commands.setdefault(t.source, set()).add((label.cmd, label.log_type))
        return (
            inputs,
            {s: frozenset(pairs) for s, pairs in commands.items()},
            {s: tuple(evs) for s, evs in clashes.items()},
        )

    def input_edges(self, state: str) -> dict[str, str]:
        """Map event type -> target for Input edges leaving ``state``; the
        first edge of each event type wins."""
        return dict(self._index[0].get(state, ()))

    def commands(self, state: str) -> frozenset[tuple[str, tuple[str, ...]]]:
        """Set of (cmd, logType) pairs attached to ``state``."""
        return self._index[1].get(state, frozenset())

    def input_clashes(self, state: str) -> tuple[str, ...]:
        """Event type of every Input edge leaving ``state`` whose target
        differs from that of the first edge of its type, in transition order."""
        return self._index[2].get(state, ())


@dataclass(frozen=True)
class Diagnostic:
    """Structured check finding.

    ``code`` is drawn from the closed sets defined by the well-formedness
    and projection checkers; the locus fields are filled where meaningful.
    """

    code: str
    message: str
    state: str | None = None
    transition: int | None = None
    role: str | None = None
    event_type: str | None = None
    path: tuple[str, ...] | None = None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.state is not None:
            obj["state"] = self.state
        if self.transition is not None:
            obj["transition"] = self.transition
        if self.role is not None:
            obj["role"] = self.role
        if self.event_type is not None:
            obj["eventType"] = self.event_type
        if self.path is not None:
            obj["path"] = list(self.path)
        return obj


@dataclass(frozen=True)
class CheckResult:
    """OK, or ERROR with a non-empty list of diagnostics."""

    errors: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_obj(self) -> dict[str, Any]:
        if self.ok:
            return {"type": "OK"}
        return {"type": "ERROR", "errors": [d.to_obj() for d in self.errors]}

    @staticmethod
    def passed() -> "CheckResult":
        return CheckResult()

    @staticmethod
    def failed(errors: Iterable[Diagnostic]) -> "CheckResult":
        errs = tuple(errors)
        if not errs:
            raise ValueError("ERROR result requires at least one diagnostic")
        return CheckResult(errs)


# --------------------------------------------------------------------------
# Strict JSON parsing
# --------------------------------------------------------------------------


# The parsers build a valid transition past its dataclass ``__init__``:
# ``object.__new__`` plus one ``object.__setattr__`` per field gives the value
# the class call gives, without the call.
_new = object.__new__
_set = object.__setattr__

_PROTOCOL_FIELDS = frozenset({"initial", "transitions"})
_PROTOCOL_LABEL_FIELDS = frozenset({"cmd", "logType", "role"})
_MACHINE_FIELDS = frozenset({"initial", "subscriptions", "transitions"})
_TRANSITION_FIELDS = frozenset({"source", "target", "label"})
_INPUT_FIELDS = frozenset({"tag", "eventType"})
_EXECUTE_FIELDS = frozenset({"tag", "cmd", "logType"})


def _as_obj(value: Any, path: str, allowed: AbstractSet[str], required: AbstractSet[str]) -> dict:
    """``value`` if it is an object whose fields lie within ``allowed`` and
    include ``required``; otherwise name the first unknown field in sorted
    order, else the first missing one."""
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
    """``value`` if it is an array of names.  Each value is tested inline
    first, and an element's path is formatted only for the first element
    that fails; ``_as_name`` then raises, or accepts a ``str`` subclass."""
    names = value if type(value) is list else _as_list(value, path)
    for j, e in enumerate(names):
        if not (type(e) is str and e):
            _as_name(e, f"{path}[{j}]")
    return names


def _nested(prefix: str, exc: ParseError) -> ParseError:
    """``exc`` with its path, relative to ``prefix``, made absolute.  The
    per-transition parsers work on relative paths, so a valid document
    formats no path at all."""
    return ParseError(prefix + exc.path, exc.message)


def _as_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, "expected an integer")
    return value


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(what, f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ParseError(what, "invalid JSON: nested too deeply") from None


def parse_protocol(text: str) -> SwarmProtocol:
    """Parse a swarm protocol JSON document.

    Unknown fields are rejected: a typo like ``logtype`` would otherwise
    silently weaken every downstream check.
    """
    return protocol_from_obj(_load_json(text, "protocol"), "protocol")


def protocol_from_obj(obj: Any, path: str = "protocol") -> SwarmProtocol:
    top = _as_obj(obj, path, _PROTOCOL_FIELDS, _PROTOCOL_FIELDS)
    initial = _as_name(top["initial"], f"{path}.initial")
    transitions = []
    for i, tr in enumerate(_as_list(top["transitions"], f"{path}.transitions")):
        try:
            # a transition whose values pass the inline tests is built
            # without the class call; any other goes to the helper, which
            # raises its error or accepts it.  ``_as_names`` may raise here:
            # every field the helper checks before logType has passed.
            if type(tr) is dict and tr.keys() == _TRANSITION_FIELDS:
                label = tr["label"]
                if type(label) is dict and label.keys() == _PROTOCOL_LABEL_FIELDS:
                    source, target, cmd, role = tr["source"], tr["target"], label["cmd"], label["role"]
                    if (
                        type(source) is str and source and type(target) is str and target
                        and type(cmd) is str and cmd and type(role) is str and role
                    ):
                        t = _new(ProtocolTransition)
                        _set(t, "source", source)
                        _set(t, "target", target)
                        _set(t, "cmd", cmd)
                        _set(t, "role", role)
                        _set(t, "log_type", tuple(_as_names(label["logType"], ".label.logType")))
                        transitions.append(t)
                        continue
            transitions.append(_protocol_transition(tr))
        except ParseError as exc:
            raise _nested(f"{path}.transitions[{i}]", exc) from None
    return SwarmProtocol(initial=initial, transitions=tuple(transitions))


def _protocol_transition(item: Any) -> ProtocolTransition:
    """One protocol transition that failed ``protocol_from_obj``'s inline
    tests: raise its error, with a path relative to it, or accept it (it
    holds a subclass value)."""
    tr = _as_obj(item, "", _TRANSITION_FIELDS, _TRANSITION_FIELDS)
    label = _as_obj(tr["label"], ".label", _PROTOCOL_LABEL_FIELDS, _PROTOCOL_LABEL_FIELDS)
    return ProtocolTransition(
        source=_as_name(tr["source"], ".source"),
        target=_as_name(tr["target"], ".target"),
        cmd=_as_name(label["cmd"], ".label.cmd"),
        role=_as_name(label["role"], ".label.role"),
        log_type=tuple(_as_names(label["logType"], ".label.logType")),
    )


def protocol_to_obj(p: SwarmProtocol) -> dict[str, Any]:
    return {
        "initial": p.initial,
        "transitions": [
            {
                "source": t.source,
                "target": t.target,
                "label": {"cmd": t.cmd, "logType": list(t.log_type), "role": t.role},
            }
            for t in p.transitions
        ],
    }


def serialize_protocol(p: SwarmProtocol) -> str:
    return json.dumps(protocol_to_obj(p), indent=2, sort_keys=True)


def parse_subscriptions(text: str) -> Subscriptions:
    """Parse a subscriptions JSON object: role -> array of event type names."""
    return subscriptions_from_obj(_load_json(text, "subscriptions"), "subscriptions")


def subscriptions_from_obj(obj: Any, path: str = "subscriptions") -> Subscriptions:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    subs: Subscriptions = {}
    for role, types in obj.items():
        _as_name(role, f"{path}.{role!r}")
        subs[role] = frozenset(_as_names(types, f"{path}.{role}"))
    return subs


def subscriptions_to_obj(subs: Mapping[str, frozenset[str]]) -> dict[str, list[str]]:
    return {role: sorted(types) for role, types in sorted(subs.items())}


def serialize_subscriptions(subs: Mapping[str, frozenset[str]]) -> str:
    return json.dumps(subscriptions_to_obj(subs), indent=2, sort_keys=True)


def parse_machine_shape(text: str) -> MachineShape:
    """Parse a machine shape JSON document."""
    return machine_shape_from_obj(_load_json(text, "machine"), "machine")


def machine_shape_from_obj(obj: Any, path: str = "machine") -> MachineShape:
    top = _as_obj(obj, path, _MACHINE_FIELDS, _MACHINE_FIELDS)
    initial = _as_name(top["initial"], f"{path}.initial")
    subscriptions = frozenset(_as_names(top["subscriptions"], f"{path}.subscriptions"))
    transitions = []
    for i, tr in enumerate(_as_list(top["transitions"], f"{path}.transitions")):
        try:
            # tested and built as in ``protocol_from_obj``; an Execute label's
            # logType is checked after its cmd, before source and target
            if type(tr) is dict and tr.keys() == _TRANSITION_FIELDS:
                raw, source, target = tr["label"], tr["source"], tr["target"]
                if type(raw) is dict and type(source) is str and source and type(target) is str and target:
                    keys, label = raw.keys(), None
                    if keys == _INPUT_FIELDS and raw["tag"] == "Input" and type(ev := raw["eventType"]) is str and ev:
                        label = _new(Input)
                        _set(label, "event_type", ev)
                    elif (
                        keys == _EXECUTE_FIELDS and raw["tag"] == "Execute" and source == target
                        and type(cmd := raw["cmd"]) is str and cmd
                    ):
                        label = _new(Execute)
                        _set(label, "cmd", cmd)
                        _set(label, "log_type", tuple(_as_names(raw["logType"], ".label.logType")))
                    if label is not None:
                        t = _new(MachineTransition)
                        _set(t, "source", source)
                        _set(t, "target", target)
                        _set(t, "label", label)
                        transitions.append(t)
                        continue
            transitions.append(_machine_transition(tr))
        except ParseError as exc:
            raise _nested(f"{path}.transitions[{i}]", exc) from None
    return MachineShape(initial=initial, subscriptions=subscriptions, transitions=tuple(transitions))


def _machine_transition(item: Any) -> MachineTransition:
    """One machine transition that failed ``machine_shape_from_obj``'s
    inline tests, handled as in ``_protocol_transition``."""
    tr = _as_obj(item, "", _TRANSITION_FIELDS, _TRANSITION_FIELDS)
    raw = tr["label"]
    if not isinstance(raw, dict) or "tag" not in raw:
        raise ParseError(".label", "expected an object with a tag")
    tag = raw["tag"]
    label: MachineLabel
    if tag == "Input":
        lab = _as_obj(raw, ".label", _INPUT_FIELDS, _INPUT_FIELDS)
        label = Input(_as_name(lab["eventType"], ".label.eventType"))
    elif tag == "Execute":
        lab = _as_obj(raw, ".label", _EXECUTE_FIELDS, _EXECUTE_FIELDS)
        label = Execute(
            cmd=_as_name(lab["cmd"], ".label.cmd"),
            log_type=tuple(_as_names(lab["logType"], ".label.logType")),
        )
    else:
        raise ParseError(".label.tag", "expected 'Input' or 'Execute'")
    source = _as_name(tr["source"], ".source")
    target = _as_name(tr["target"], ".target")
    if isinstance(label, Execute) and source != target:
        raise ParseError("", "Execute labels must be self-loops")
    return MachineTransition(source, target, label)


def _json_array(items: Iterable[str], indent: str) -> str:
    """A JSON array of already encoded ``items`` laid out as by
    ``json.dumps(..., indent=2)`` at ``indent``."""
    inner = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {inner}\n{indent}]" if inner else "[]"


def serialize_machine_shape(m: MachineShape) -> str:
    """The shape as ``json.dumps(..., indent=2, sort_keys=True)`` would
    write it, byte for byte, built directly.

    Every name must be a ``str``; anything else raises ``TypeError`` (the
    parser would reject it anyway).
    """
    q = encode_basestring_ascii
    transitions = []
    for t in m.transitions:
        label = t.label
        if isinstance(label, Input):
            fields = f'"eventType": {q(label.event_type)},\n        "tag": "Input"'
        else:
            logs = _json_array(map(q, label.log_type), "        ")
            fields = f'"cmd": {q(label.cmd)},\n        "logType": {logs},\n        "tag": "Execute"'
        transitions.append(
            f'{{\n      "label": {{\n        {fields}\n      }},\n'
            f'      "source": {q(t.source)},\n      "target": {q(t.target)}\n    }}'
        )
    subscriptions = _json_array(map(q, sorted(m.subscriptions)), "  ")
    return (
        f'{{\n  "initial": {q(m.initial)},\n  "subscriptions": {subscriptions},\n'
        f'  "transitions": {_json_array(transitions, "  ")}\n}}'
    )


# --------------------------------------------------------------------------
# Graph utilities
# --------------------------------------------------------------------------


def successors(p: SwarmProtocol) -> dict[str, list[str]]:
    """Map each state with outgoing transitions to their targets."""
    edges: dict[str, list[str]] = {}
    for t in p.transitions:
        edges.setdefault(t.source, []).append(t.target)
    return edges


def reachable_from(edges: Mapping[str, Iterable[str]], *starts: str) -> set[str]:
    """States reachable from any of ``starts`` over ``edges``; always
    contains them."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reachable_states(p: SwarmProtocol) -> set[str]:
    """States reachable from the initial state; always contains it."""
    return reachable_from(successors(p), p.initial)


def unobserved_classes(p: SwarmProtocol, observed: Collection[str]) -> dict[str, str]:
    """A role's local view of ``p``: map each state to its class, named by
    the smallest member, under the quotient that identifies the endpoints
    of every transition emitting no ``observed`` event type.  A role cannot
    tell those endpoints apart, as it sees nothing happen in between.

    The classes are computed once per protocol and observed set; each call
    returns a fresh dict, so a caller may mutate it."""
    return dict(_unobserved_classes(p, frozenset(observed)))


def _unobserved_classes(p: SwarmProtocol, observed: frozenset[str]) -> dict[str, str]:
    """``unobserved_classes`` as kept in ``p``'s memo; not to be mutated."""
    classes = p._memo.get(observed)
    if classes is None:
        classes = {s: s for s in p._index[0]}
        adjacent: dict[str, list[str]] = {}
        for t in p.transitions:
            if observed.isdisjoint(t.log_type):
                adjacent.setdefault(t.source, []).append(t.target)
                adjacent.setdefault(t.target, []).append(t.source)
        # a state touching no unobserved transition is its own class; any
        # other is renamed when the walk from its class's smallest member
        # reaches it
        for state in sorted(adjacent):
            if classes[state] == state:
                for member in reachable_from(adjacent, state):
                    classes[member] = state
        p._memo[observed] = classes
    return classes


def roles_of(p: SwarmProtocol) -> set[str]:
    return {t.role for t in p.transitions}


def event_types_of(p: SwarmProtocol) -> set[str]:
    return {e for t in p.transitions for e in t.log_type}


def _states(initial: str, transitions: Iterable[Any]) -> set[str]:
    return {initial} | {s for t in transitions for s in (t.source, t.target)}


def machine_states(m: MachineShape) -> set[str]:
    return _states(m.initial, m.transitions)


# --------------------------------------------------------------------------
# Shape semantics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeRun:
    """Result of walking a shape over a sequence of event types."""

    final_state: str
    applied: tuple[str, ...]
    visited: tuple[str, ...]
    command_trace: tuple[frozenset[tuple[str, tuple[str, ...]]], ...]


def walk_shape(m: MachineShape, events: Iterable[str]) -> ShapeRun:
    """Run ``m`` over ``events`` with machine-runner discard semantics.

    Event types with no Input edge at the current state are discarded and
    the state stays put.  ``command_trace`` records the enabled command set
    at the initial state and after every consumed event; synthetic chain
    states carry no commands, so command sets are empty mid-reaction.
    """
    state = m.initial
    applied: list[str] = []
    visited: list[str] = [state]
    trace = [m.commands(state)]
    for ev in events:
        target = m.input_edges(state).get(ev)
        if target is None:
            trace.append(m.commands(state))
            continue
        state = target
        applied.append(ev)
        visited.append(state)
        trace.append(m.commands(state))
    return ShapeRun(
        final_state=state,
        applied=tuple(applied),
        visited=tuple(visited),
        command_trace=tuple(trace),
    )


# --------------------------------------------------------------------------
# DOT export
# --------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"{}"'.format(s.replace("\\", "\\\\").replace('"', '\\"'))


def _digraph(name: str, initial: str, states: set[str], edges: list[tuple]) -> str:
    """A Graphviz digraph: the initial state double-circled, the other states
    sorted, then one edge per (source, target, label, extra attributes)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines.append(f"  {_dot_quote(initial)} [shape=doublecircle];")
    lines += [f"  {_dot_quote(s)} [shape=circle];" for s in sorted(states - {initial})]
    for src, dst, label, more in edges:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}{more}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(p: SwarmProtocol) -> str:
    """Render the protocol as a Graphviz digraph.

    One node per state, one edge per transition labeled ``cmd@role / logType``.
    """
    edges = [
        (t.source, t.target, f"{t.cmd}@{t.role} / {','.join(t.log_type)}", "")
        for t in p.transitions
    ]
    return _digraph("swarm_protocol", p.initial, p.states(), edges)


def machine_to_dot(m: MachineShape) -> str:
    """Render a machine shape as a Graphviz digraph; command edges are dashed."""
    edges = []
    for t in m.transitions:
        if isinstance(t.label, Input):
            edges.append((t.source, t.target, t.label.event_type, ""))
        else:
            label = f"{t.label.cmd}! / {','.join(t.label.log_type)}"
            edges.append((t.source, t.target, label, " style=dashed"))
    return _digraph("machine", m.initial, machine_states(m), edges)
