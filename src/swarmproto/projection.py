"""Role projection of swarm protocols and machine conformance checking.

``project`` derives the local machine a role should run: protocol transition
logs are filtered by the role's subscription, surviving event sequences
become chains of input edges, and transitions rendered invisible by the
filter merge their endpoint states (an unobserved hop is indistinguishable
locally).  ``check_projection`` compares an implemented machine shape
against the projection by a synchronized walk: equivalence is bisimulation
on deterministic machines, so state names and redundant states are
irrelevant.

A projection depends only on the protocol, the role and the role's
subscription, so its shape and provenance are derived once and kept in the
protocol's memo; ``check_projection`` reuses what an earlier ``project`` of
the same protocol object derived.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .errors import PreconditionError, ProjectionAmbiguity
from .model import (
    CheckResult,
    Diagnostic,
    Execute,
    Input,
    MachineShape,
    MachineTransition,
    SwarmProtocol,
    unobserved_classes,
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
    shape, origins = _project(p, subs, role)
    return ProjectedMachine(shape=shape, provenance=dict(enumerate(origins)))


def _project(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]], role: str
) -> tuple[MachineShape, tuple[int, ...]]:
    """``project``'s shape and the protocol index of each of its
    transitions, derived on first use and then read from ``p``'s memo.  A
    failed derivation stores nothing, so it raises again next time."""
    if role not in subs:
        raise PreconditionError(f"role '{role}' has no subscription entry")
    key = (role, frozenset(subs[role]))
    core = p._memo.get(key)
    if core is None:
        core = p._memo[key] = _derive_projection(p, role, key[1])
    return core


def _derive_projection(
    p: SwarmProtocol, role: str, retained: frozenset[str]
) -> tuple[MachineShape, tuple[int, ...]]:
    """The projection itself; see ``project``."""
    cls = unobserved_classes(p, retained)
    # (source, event type) -> (target, protocol index) and (state, cmd, log)
    # -> protocol index, in the order the edges are first derived
    inputs: dict[tuple[str, str], tuple[str, int]] = {}
    commands: dict[tuple[str, str, tuple[str, ...]], int] = {}
    synth_count: dict[str, int] = {}

    def add_input(src: str, ev: str, dst: str, origin: int) -> None:
        known = inputs.setdefault((src, ev), (dst, origin))[0]
        if known != dst:
            raise ProjectionAmbiguity(
                f"state '{src}' would have input '{ev}' leading to both "
                f"'{known}' and '{dst}' (protocol transition {origin})"
            )

    for i, t in enumerate(p.transitions):
        source = cls[t.source]
        if t.role == role:
            commands.setdefault((source, t.cmd, t.log_type), i)
        filtered = [e for e in t.log_type if e in retained]
        if not filtered:
            continue
        current = source
        for ev in filtered[:-1]:
            synth_count[source] = synth_count.get(source, 0) + 1
            synth = f"{source}|{synth_count[source]}"
            add_input(current, ev, synth, i)
            current = synth
        add_input(current, filtered[-1], cls[t.target], i)

    transitions = [
        MachineTransition(source=src, target=dst, label=Input(ev))
        for (src, ev), (dst, _) in inputs.items()
    ] + [
        MachineTransition(source=state, target=state, label=Execute(cmd=cmd, log_type=log))
        for state, cmd, log in commands
    ]
    origins = tuple(origin for _, origin in inputs.values()) + tuple(commands.values())

    shape = MachineShape(initial=cls[p.initial], subscriptions=retained, transitions=tuple(transitions))
    return shape, origins


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
    expected = _project(p, subs, role)[0]
    # the walk reads both shapes' input indexes; ``input_edges`` would copy
    e_inputs, i_inputs = expected._index[0], impl._index[0]
    no_inputs: dict[str, str] = {}
    diags: list[Diagnostic] = []

    if impl.subscriptions != expected.subscriptions:
        extra = sorted(impl.subscriptions - expected.subscriptions)
        missing = sorted(expected.subscriptions - impl.subscriptions)
        diags.append(
            Diagnostic(
                code=PROJ_SUBSCRIPTION_MISMATCH,
                message=f"machine subscriptions differ from the role's: "
                f"missing {missing}, extra {extra}",
                role=role,
            )
        )

    start = (expected.initial, impl.initial)
    # BFS tree: each visited pair maps to the pair and event type it was
    # first reached through; paths are rebuilt only for diagnostics
    parent: dict[tuple[str, str], tuple[tuple[str, str], str] | None] = {start: None}
    queue = deque([start])
    flagged_nondet: set[str] = set()

    while queue:
        pair = queue.popleft()
        e_state, i_state = pair
        e_cmds = expected.commands(e_state)
        i_cmds = impl.commands(i_state)
        clashes = () if i_state in flagged_nondet else impl.input_clashes(i_state)
        e_edges = e_inputs.get(e_state, no_inputs)
        i_edges = i_inputs.get(i_state, no_inputs)
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
        for ev in sorted(e_edges.keys() & i_edges.keys()):
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
