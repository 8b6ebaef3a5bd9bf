"""Role projection of swarm protocols and machine conformance checking.

``project`` derives the local machine a role should run: protocol transition
logs are filtered by the role's subscription, surviving event sequences
become chains of input edges, and transitions rendered invisible by the
filter merge their endpoint states (an unobserved hop is indistinguishable
locally).  ``check_projection`` compares an implemented machine shape
against the projection by a synchronized walk: equivalence is bisimulation
on deterministic machines, so state names and redundant states are
irrelevant.

A projection is the protocol filtered by the role's subscription plus that
role's own commands.  The first part, the local view (state classes and
input edges), depends only on the subscription, so it is derived once per
subscription, kept in the protocol's memo and shared by every role that
has it, in ``project`` and ``check_projection`` alike.  The second part is
one pass over the protocol's transitions per call, and nothing of it is
kept.  ``check_projection`` builds no projected shape: its walk reads the
local view's state -> event type -> target map and the role's commands
grouped by state, so a state pair that conforms costs O(1) beyond
following its inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import PreconditionError, ProjectionAmbiguity
from .model import (
    CheckResult,
    Diagnostic,
    Execute,
    Input,
    MachineShape,
    MachineTransition,
    SwarmProtocol,
    _new,
    _set,
    _unobserved_classes,
)

PROJ_MISSING_REACTION = "PROJ_MISSING_REACTION"
PROJ_EXTRA_REACTION = "PROJ_EXTRA_REACTION"
PROJ_CMD_SET_MISMATCH = "PROJ_CMD_SET_MISMATCH"
PROJ_TARGET_MISMATCH = "PROJ_TARGET_MISMATCH"
PROJ_SUBSCRIPTION_MISMATCH = "PROJ_SUBSCRIPTION_MISMATCH"


@dataclass(frozen=True)
class ProjectedMachine:
    """A projected machine shape plus provenance back to the protocol.

    ``provenance`` maps indices of ``shape.transitions`` to the protocol
    transition index each edge was derived from.
    """

    shape: MachineShape
    provenance: dict[int, int]


def project(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]], role: str
) -> ProjectedMachine:
    """Project ``p`` onto ``role`` under the role's subscription.

    For each protocol transition, the retained subsequence of its log
    becomes a chain of input edges through synthetic states; a fully
    filtered transition identifies its endpoints instead.  Commands of the
    acting role attach to (the class of) the transition's source and carry
    the full emitted log, even where the subscription drops part of it.

    Raises :class:`ProjectionAmbiguity` when the quotient would give one
    state two same-typed inputs with different targets; that cannot happen
    for protocols passing the determinacy conditions.
    """
    view = _local_view(p, subs, role)
    commands = _commands(p, view.classes, role)
    executes = []
    # built as the parsers build transitions, past the dataclass ``__init__``
    for state, cmd, log in commands:
        label = _new(Execute)
        _set(label, "cmd", cmd)
        _set(label, "log_type", log)
        t = _new(MachineTransition)
        _set(t, "source", state)
        _set(t, "target", state)
        _set(t, "label", label)
        executes.append(t)
    transitions = view.inputs + tuple(executes)
    return ProjectedMachine(
        shape=MachineShape(view.classes[p.initial], view.retained, transitions),
        provenance=dict(enumerate(view.origins + tuple(commands.values()))),
    )


class _LocalView(NamedTuple):
    """What every role subscribed to ``retained`` sees of a protocol: the
    class of each state (the memo's own dict, not a copy), the input edges
    with the protocol index each was derived from, in the order they are
    first derived, and the same edges as state -> event type -> target."""

    retained: frozenset[str]
    classes: dict[str, str]
    inputs: tuple[MachineTransition, ...]
    origins: tuple[int, ...]
    targets: dict[str, dict[str, str]]


def _local_view(p: SwarmProtocol, subs: Mapping[str, frozenset[str]], role: str) -> _LocalView:
    """The local view of ``role``'s subscription, derived on first use and
    then read from ``p``'s memo, where every role with that subscription
    finds it.  A failed derivation stores nothing, so it raises again next
    time."""
    if role not in subs:
        raise PreconditionError(f"role '{role}' has no subscription entry")
    # tagged with the class itself, which no observed set equals
    key = (_LocalView, frozenset(subs[role]))
    view = p._memo.get(key)
    if view is None:
        view = p._memo[key] = _derive_local_view(p, key[1])
    return view


def _derive_local_view(p: SwarmProtocol, retained: frozenset[str]) -> _LocalView:
    """The role-independent part of a projection; see ``project``."""
    cls = _unobserved_classes(p, retained)
    states = set(cls.values())
    targets: dict[str, dict[str, str]] = {}
    edges: list[MachineTransition] = []
    origins: list[int] = []
    synth_count: dict[str, int] = {}

    def add_input(src: str, ev: str, dst: str, origin: int) -> None:
        out = targets.setdefault(src, {})
        known = out.get(ev)
        if known is None:
            out[ev] = dst
            label = _new(Input)
            _set(label, "event_type", ev)
            edge = _new(MachineTransition)
            _set(edge, "source", src)
            _set(edge, "target", dst)
            _set(edge, "label", label)
            edges.append(edge)
            origins.append(origin)
        elif known != dst:
            raise ProjectionAmbiguity(
                f"state '{src}' would have input '{ev}' leading to both "
                f"'{known}' and '{dst}' (protocol transition {origin})"
            )

    for i, t in enumerate(p.transitions):
        filtered = [e for e in t.log_type if e in retained]
        if not filtered:
            continue
        source = current = cls[t.source]
        for ev in filtered[:-1]:
            # the next name '<source>|<k>' that is not a state's own
            synth = source
            while synth in states:
                synth_count[source] = synth_count.get(source, 0) + 1
                synth = f"{source}|{synth_count[source]}"
            add_input(current, ev, synth, i)
            current = synth
        add_input(current, filtered[-1], cls[t.target], i)

    return _LocalView(retained, cls, tuple(edges), tuple(origins), targets)


def _commands(
    p: SwarmProtocol, cls: Mapping[str, str], role: str
) -> dict[tuple[str, str, tuple[str, ...]], int]:
    """``role``'s commands as (state class, cmd, logType) -> protocol index,
    in the order first derived."""
    commands: dict[tuple[str, str, tuple[str, ...]], int] = {}
    transitions = p.transitions
    for i in p._index[1].get(role, ()):
        t = transitions[i]
        commands.setdefault((cls[t.source], t.cmd, t.log_type), i)
    return commands


def check_projection(
    p: SwarmProtocol,
    subs: Mapping[str, frozenset[str]],
    role: str,
    impl: MachineShape,
) -> CheckResult:
    """Check that ``impl`` is equivalent to the projection of ``p`` for ``role``.

    Equivalence is a synchronized walk from both initial states: input edges
    are matched by event type and each visited state pair must enable the
    same commands (command name plus emitted log, order-sensitive).  Each
    diagnostic carries the shortest event-type path to the discrepancy.
    """
    view = _local_view(p, subs, role)
    e_inputs = view.targets
    e_commands: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for state, cmd, log in _commands(p, view.classes, role):
        e_commands.setdefault(state, set()).add((cmd, log))
    # the walk reads the view's and the machine's own maps; ``input_edges``
    # would copy
    i_inputs, i_commands, i_clashes = impl._index
    no_inputs: dict[str, str] = {}
    no_commands: frozenset[tuple[str, tuple[str, ...]]] = frozenset()
    diags: list[Diagnostic] = []

    if impl.subscriptions != view.retained:
        extra = sorted(impl.subscriptions - view.retained)
        missing = sorted(view.retained - impl.subscriptions)
        diags.append(
            Diagnostic(
                code=PROJ_SUBSCRIPTION_MISMATCH,
                message=f"machine subscriptions differ from the role's: "
                f"missing {missing}, extra {extra}",
                role=role,
            )
        )

    start = (view.classes[p.initial], impl.initial)
    # BFS tree: each visited pair maps to the pair and event type it was
    # first reached through; paths are rebuilt only for diagnostics
    parent: dict[tuple[str, str], tuple[tuple[str, str], str] | None] = {start: None}
    queue = deque([start])
    flagged_nondet: set[str] = set()

    while queue:
        pair = queue.popleft()
        e_state, i_state = pair
        e_cmds = e_commands.get(e_state, no_commands)
        i_cmds = i_commands.get(i_state, no_commands)
        e_edges = e_inputs.get(e_state, no_inputs)
        i_edges = i_inputs.get(i_state, no_inputs)
        if e_cmds == i_cmds and i_state not in i_clashes and e_edges.keys() == i_edges.keys():
            # a conforming pair: nothing to report, every key is shared
            successors = sorted(e_edges) if len(e_edges) > 1 else e_edges
        else:
            successors = sorted(e_edges.keys() & i_edges.keys())
            clashes = () if i_state in flagged_nondet else i_clashes.get(i_state, ())
            keys_differ = e_edges.keys() != i_edges.keys()
            path = ()
            if e_cmds != i_cmds or clashes or keys_differ:
                path = _path_to(parent, pair)

            if e_cmds != i_cmds:
                fmt = lambda cs: sorted(f"{c}/{','.join(log)}" for c, log in cs)
                diags.append(
                    Diagnostic(
                        code=PROJ_CMD_SET_MISMATCH,
                        message=f"state '{i_state}': commands {fmt(i_cmds)} do not match "
                        f"projected commands {fmt(e_cmds)}",
                        state=i_state,
                        path=path,
                    )
                )

            if clashes:
                flagged_nondet.add(i_state)
            for ev in clashes:
                diags.append(
                    Diagnostic(
                        code=PROJ_TARGET_MISMATCH,
                        message=f"state '{i_state}' has two inputs for '{ev}' with different targets",
                        state=i_state,
                        event_type=ev,
                        path=path,
                    )
                )

            if keys_differ:
                for ev in sorted(e_edges.keys() - i_edges.keys()):
                    diags.append(
                        Diagnostic(
                            code=PROJ_MISSING_REACTION,
                            message=f"state '{i_state}' lacks a reaction to '{ev}'",
                            state=i_state,
                            event_type=ev,
                            path=path,
                        )
                    )
                for ev in sorted(i_edges.keys() - e_edges.keys()):
                    diags.append(
                        Diagnostic(
                            code=PROJ_EXTRA_REACTION,
                            message=f"state '{i_state}' reacts to '{ev}' but the projection does not",
                            state=i_state,
                            event_type=ev,
                            path=path,
                        )
                    )
        for ev in successors:
            nxt = (e_edges[ev], i_edges[ev])
            if nxt not in parent:
                parent[nxt] = (pair, ev)
                queue.append(nxt)

    if diags:
        return CheckResult.failed(diags)
    return CheckResult.passed()


def _path_to(
    parent: Mapping[tuple[str, str], tuple[tuple[str, str], str] | None], pair: tuple[str, str]
) -> tuple[str, ...]:
    """Event types along the BFS tree from the initial pair to ``pair``."""
    path: list[str] = []
    while (link := parent[pair]) is not None:
        pair, ev = link
        path.append(ev)
    return tuple(reversed(path))
