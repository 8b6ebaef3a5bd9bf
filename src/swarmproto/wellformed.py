"""Well-formedness checking for swarm protocols.

Decides whether a protocol, under a given subscription, guarantees eventual
consensus without coordination.  The checker is exhaustive (it reports every
violation, not just the first) and deterministic: diagnostics are sorted by
transition index, then code.  Each condition is checked where its locus is
visited: one pass over the transitions, one over the branching states, and
the branch-cone walk.

Conditions, all evaluated on the subgraph reachable from the initial state:

* shape: every transition emits at least one event type, and every
  transition is reachable (``WF_EMPTY_LOG``, ``WF_UNREACHABLE``);
* determinacy: guard events are distinct per state and no event type is
  emitted by two different transitions (``WF_GUARD_CLASH``,
  ``WF_EVENT_REUSE``);
* actor causality: the acting role observes its own emissions, and every
  role that can act in the target state observes the guard
  (``WF_ACTOR_BLIND``, ``WF_LATER_ACTOR_BLIND``);
* choice awareness: at a state with several outgoing transitions, every
  role still involved downstream observes every branch guard, and any role
  able to witness one of the guards sees enough of the surrounding
  transitions that its local view never conflates the branching state with
  a state inside one of its branch cones (``WF_BRANCH_BLIND``);
* log closure: a role that observes any part of a transition's log also
  observes its guard, and a role that observes the guard also observes the
  log's last element (``WF_LOG_GAP``).

The second closure direction is what makes multi-event logs safe: the guard
announces that a transition started, the last element that it completed.
A role acting on the guard alone can emit before the predecessor's log has
fully replicated; its record then sorts into the middle of that log, where
every machine (and the reference run) discards it, and consensus is lost.
Simulation of randomly generated protocols finds such divergences reliably
when this direction is dropped.

A role is involved after a state when some transition reachable from it is
acted by the role or emits a type the role subscribes to.  ``WfContext``
computes this for all states at once: per role, one backward search over
the predecessor map from the sources of those transitions, so the cost is
O(roles * (states + transitions)).  Branch cones are computed once per
branching state and only for roles whose local view merges that state with
another.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import PreconditionError
from .model import (
    CheckResult,
    Diagnostic,
    SwarmProtocol,
    reachable_from,
    roles_of,
    successors,
    _unobserved_classes,
)

WF_EMPTY_LOG = "WF_EMPTY_LOG"
WF_UNREACHABLE = "WF_UNREACHABLE"
WF_GUARD_CLASH = "WF_GUARD_CLASH"
WF_EVENT_REUSE = "WF_EVENT_REUSE"
WF_ACTOR_BLIND = "WF_ACTOR_BLIND"
WF_LATER_ACTOR_BLIND = "WF_LATER_ACTOR_BLIND"
WF_BRANCH_BLIND = "WF_BRANCH_BLIND"
WF_LOG_GAP = "WF_LOG_GAP"

ALL_CODES = frozenset(
    {
        WF_EMPTY_LOG,
        WF_UNREACHABLE,
        WF_GUARD_CLASH,
        WF_EVENT_REUSE,
        WF_ACTOR_BLIND,
        WF_LATER_ACTOR_BLIND,
        WF_BRANCH_BLIND,
        WF_LOG_GAP,
    }
)


@dataclass
class WfContext:
    """Derived indices shared by the condition checks."""

    protocol: SwarmProtocol
    subs: Mapping[str, frozenset[str]]
    successors: dict[str, list[str]] = field(init=False)
    reachable: set[str] = field(init=False)
    outgoing: dict[str, list[int]] = field(init=False)
    active_roles: dict[str, set[str]] = field(init=False)
    involved_after: dict[str, set[str]] = field(init=False)

    def __post_init__(self) -> None:
        p = self.protocol
        self.successors = successors(p)
        self.reachable = reachable_from(self.successors, p.initial)
        self.outgoing = {s: [] for s in p.states()}
        predecessors: dict[str, list[str]] = {}
        # role -> sources of the transitions it acts in or sees an emission of
        sources: dict[str, set[str]] = {}
        for i, t in enumerate(p.transitions):
            self.outgoing[t.source].append(i)
            predecessors.setdefault(t.target, []).append(t.source)
            sources.setdefault(t.role, set()).add(t.source)
            for role, types in self.subs.items():
                if not types.isdisjoint(t.log_type):
                    sources.setdefault(role, set()).add(t.source)
        self.active_roles = {
            s: {p.transitions[i].role for i in idxs} for s, idxs in self.outgoing.items()
        }
        self.involved_after = {s: set() for s in self.outgoing}
        for role, starts in sources.items():
            for s in reachable_from(predecessors, *starts):
                self.involved_after[s].add(role)

    @cached_property
    def branching(self) -> list[str]:
        """The reachable states with two or more outgoing transitions, sorted."""
        return [s for s in sorted(self.reachable) if len(self.outgoing[s]) >= 2]


def check_swarm_protocol(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]]
) -> CheckResult:
    """Check protocol well-formedness under ``subs``.

    Every role appearing in ``p`` must have a subscription entry (possibly
    empty); otherwise a :class:`PreconditionError` is raised.
    """
    missing = sorted(roles_of(p) - set(subs))
    if missing:
        raise PreconditionError(f"roles without a subscription entry: {missing}")

    ctx = WfContext(p, subs)
    diags = _check_transitions(ctx) + _check_branching(ctx) + _check_cone_separation(ctx)
    diags.sort(key=lambda d: (d.transition, d.code, d.role or "", d.event_type or ""))
    if diags:
        return CheckResult.failed(diags)
    return CheckResult.passed()


def _check_transitions(ctx: WfContext) -> list[Diagnostic]:
    """Every condition whose locus is one transition, in index order: shape,
    event reuse, actor causality and log closure.  An unreachable transition
    or one with an empty log gets only that diagnostic."""
    out = []
    p = ctx.protocol
    first_use: dict[str, int] = {}  # event type -> first reachable emitter
    subs = sorted(ctx.subs.items())
    for i, t in enumerate(p.transitions):
        if t.source not in ctx.reachable:
            out.append(
                Diagnostic(
                    code=WF_UNREACHABLE,
                    message=f"transition {i} ({t.cmd}@{t.role}) is unreachable from "
                    f"'{p.initial}'",
                    state=t.source,
                    transition=i,
                )
            )
            continue
        if not t.log_type:
            out.append(
                Diagnostic(
                    code=WF_EMPTY_LOG,
                    message=f"transition {i} ({t.cmd}@{t.role}) emits no events",
                    state=t.source,
                    transition=i,
                )
            )
            continue
        for ev in dict.fromkeys(t.log_type):
            first = first_use.setdefault(ev, i)
            if first != i:
                out.append(
                    Diagnostic(
                        code=WF_EVENT_REUSE,
                        message=f"event type '{ev}' emitted by transitions {first} and {i}",
                        transition=i,
                        event_type=ev,
                    )
                )
            if ev not in ctx.subs[t.role]:
                out.append(
                    Diagnostic(
                        code=WF_ACTOR_BLIND,
                        message=f"role '{t.role}' emits '{ev}' in transition {i} "
                        f"but does not subscribe to it",
                        transition=i,
                        role=t.role,
                        event_type=ev,
                    )
                )
        guard = t.guard
        for role in sorted(ctx.active_roles[t.target]):
            if guard not in ctx.subs[role]:
                out.append(
                    Diagnostic(
                        code=WF_LATER_ACTOR_BLIND,
                        message=f"role '{role}' can act in state '{t.target}' but does not "
                        f"subscribe to guard '{guard}' of transition {i}",
                        state=t.target,
                        transition=i,
                        role=role,
                        event_type=guard,
                    )
                )
        last = t.log_type[-1]
        for role, types in subs:
            if not types.isdisjoint(t.log_type) and guard not in types:
                out.append(
                    Diagnostic(
                        code=WF_LOG_GAP,
                        message=f"role '{role}' subscribes to part of transition {i}'s log "
                        f"but not to its guard '{guard}'",
                        transition=i,
                        role=role,
                        event_type=guard,
                    )
                )
            elif guard in types and last not in types:
                out.append(
                    Diagnostic(
                        code=WF_LOG_GAP,
                        message=f"role '{role}' subscribes to the guard of transition {i} "
                        f"but not to its closing event '{last}'",
                        transition=i,
                        role=role,
                        event_type=last,
                    )
                )
    return out


def _check_branching(ctx: WfContext) -> list[Diagnostic]:
    """At each branching state: distinct guards, and every role involved
    downstream observes every branch guard."""
    out = []
    p = ctx.protocol
    for state in ctx.branching:
        idxs = ctx.outgoing[state]
        seen_guards: dict[str, int] = {}
        for i in idxs:
            guard = p.transitions[i].guard
            if guard is None:
                continue
            first = seen_guards.setdefault(guard, i)
            if first != i:
                out.append(
                    Diagnostic(
                        code=WF_GUARD_CLASH,
                        message=f"state '{state}': transitions {first} and {i} "
                        f"share guard event '{guard}'",
                        state=state,
                        transition=i,
                        event_type=guard,
                    )
                )
        for role in sorted(ctx.involved_after[state]):
            for i in idxs:
                guard = p.transitions[i].guard
                if guard is not None and guard not in ctx.subs[role]:
                    out.append(
                        Diagnostic(
                            code=WF_BRANCH_BLIND,
                            message=f"role '{role}' is involved after state '{state}' but does "
                            f"not subscribe to branch guard '{guard}'",
                            state=state,
                            transition=i,
                            role=role,
                            event_type=guard,
                        )
                    )
    return out


def _check_cone_separation(ctx: WfContext) -> list[Diagnostic]:
    """A role that can witness a choice must not conflate the branching
    state with states inside its branch cones.

    A role's local view identifies the endpoints of transitions it cannot
    observe at all.  If that quotient folds a state reachable through one
    of the branches back onto the branching state itself, the role cannot
    tell "the choice is still open" apart from "a branch already won": a
    record carrying a losing branch's guard then looks applicable locally
    although the reference run discards it.
    """
    out = []
    p = ctx.protocol
    cones: dict[str, set[str]] = {}  # a branch cone does not depend on the role
    for role in sorted(ctx.subs):
        types = ctx.subs[role]
        cls = _unobserved_classes(p, frozenset(types))
        class_size = Counter(cls.values())
        first_hidden: dict[str, int] | None = None
        for state in ctx.branching:
            idxs = ctx.outgoing[state]
            if class_size[cls[state]] == 1:
                continue  # nothing to conflate the state with
            if not any(p.transitions[i].guard in types for i in idxs):
                continue  # the role cannot misread a guard it never sees
            cone = cones.get(state)
            if cone is None:
                cone = cones[state] = reachable_from(
                    ctx.successors, *(p.transitions[i].target for i in idxs)
                )
            conflated = sorted(q for q in cone if q != state and cls[q] == cls[state])
            if not conflated:
                continue
            if first_hidden is None:
                # class -> first transition, in index order, that starts in
                # the class and emits nothing the role observes; a class with
                # two members has one, as hidden transitions make the classes
                first_hidden = {}
                for i, t in enumerate(p.transitions):
                    if types.isdisjoint(t.log_type):
                        first_hidden.setdefault(cls[t.source], i)
            locus = first_hidden[cls[state]]
            out.append(
                Diagnostic(
                    code=WF_BRANCH_BLIND,
                    message=f"role '{role}' cannot distinguish branching state '{state}' "
                    f"from {conflated} reached through its own branches",
                    state=state,
                    transition=locus,
                    role=role,
                    event_type=p.transitions[locus].guard,
                )
            )
    return out
