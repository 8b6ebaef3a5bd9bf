"""The linear-time checker and conformance walk against their quadratic
predecessors, and the generators' closure subscription against the fixpoint
it replaced.

The oracles below are the earlier algorithms, kept verbatim in spirit: one
BFS from every state for ``involved_after``, every branch cone recomputed
for every role, one function per well-formedness condition, each walking
the protocol on its own, and a conformance walk that scans the
implementation's transitions for each visited state pair and copies a path
tuple for each enqueued pair.  Both sides must give the same ``to_obj()`` on
random protocols with cycles, unreachable transitions, empty logs, guard
clashes, reused event types and cut-down subscriptions, and on
implementation shapes perturbed away from the projection.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Any, Callable, Iterator, Mapping

import pytest

from conftest import closure_subs, random_protocol, random_scenarios
from swarmproto import projection, wellformed
from swarmproto.model import (
    CheckResult,
    Diagnostic,
    Execute,
    Input,
    MachineShape,
    MachineTransition,
    ProtocolTransition,
    Subscriptions,
    SwarmProtocol,
    event_types_of,
    reachable_from,
    roles_of,
    successors,
    unobserved_classes,
)
from swarmproto.projection import check_projection, project
from swarmproto.wellformed import (
    WF_ACTOR_BLIND,
    WF_BRANCH_BLIND,
    WF_EMPTY_LOG,
    WF_EVENT_REUSE,
    WF_GUARD_CLASH,
    WF_LATER_ACTOR_BLIND,
    WF_LOG_GAP,
    WF_UNREACHABLE,
    WfContext,
    check_swarm_protocol,
)


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def scan_input_edges(m: MachineShape, state: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for t in m.transitions:
        if t.source == state and isinstance(t.label, Input):
            out.setdefault(t.label.event_type, t.target)
    return out


def scan_commands(m: MachineShape, state: str) -> frozenset[tuple[str, tuple[str, ...]]]:
    return frozenset(
        (t.label.cmd, t.label.log_type)
        for t in m.transitions
        if t.source == state and isinstance(t.label, Execute)
    )


def oracle_involved_after(ctx: WfContext, state: str) -> set[str]:
    """Roles active in, or subscribed to an emission of, any transition on
    a path from ``state``: one forward BFS per state."""
    involved: set[str] = set()
    for s in reachable_from(ctx.successors, state):
        for i in ctx.outgoing.get(s, ()):
            t = ctx.protocol.transitions[i]
            involved.add(t.role)
            emitted = set(t.log_type)
            for role, types in ctx.subs.items():
                if types & emitted:
                    involved.add(role)
    return involved


def oracle_post_init(ctx: WfContext) -> None:
    p = ctx.protocol
    ctx.successors = successors(p)
    ctx.reachable = reachable_from(ctx.successors, p.initial)
    ctx.outgoing = {s: [] for s in p.states()}
    for i, t in enumerate(p.transitions):
        ctx.outgoing[t.source].append(i)
    ctx.active_roles = {
        s: {p.transitions[i].role for i in idxs} for s, idxs in ctx.outgoing.items()
    }
    ctx.involved_after = {s: oracle_involved_after(ctx, s) for s in p.states()}


def oracle_cone_separation(ctx: WfContext) -> list[Diagnostic]:
    """Every branch cone recomputed for every role, culprit by linear scan."""
    out = []
    p = ctx.protocol
    for role in sorted(ctx.subs):
        types = ctx.subs[role]
        cls = unobserved_classes(p, types)
        for state in sorted(ctx.reachable):
            idxs = ctx.outgoing.get(state, [])
            if len(idxs) < 2:
                continue
            if not any(p.transitions[i].guard in types for i in idxs):
                continue
            cone: set[str] = set()
            for i in idxs:
                cone |= reachable_from(ctx.successors, p.transitions[i].target)
            conflated = sorted(q for q in cone if q != state and cls[q] == cls[state])
            if not conflated:
                continue
            culprit = next(
                (
                    (i, t)
                    for i, t in enumerate(p.transitions)
                    if not (set(t.log_type) & types) and cls[t.source] == cls[state]
                ),
                None,
            )
            locus_idx, locus_event = min(idxs), None
            if culprit is not None:
                locus_idx = culprit[0]
                locus_event = culprit[1].guard
            out.append(
                Diagnostic(
                    code=WF_BRANCH_BLIND,
                    message=f"role '{role}' cannot distinguish branching state '{state}' "
                    f"from {conflated} reached through its own branches",
                    state=state,
                    transition=locus_idx,
                    role=role,
                    event_type=locus_event,
                )
            )
    return out


def oracle_shape(ctx: WfContext) -> list[Diagnostic]:
    out = []
    for i, t in enumerate(ctx.protocol.transitions):
        if t.source not in ctx.reachable:
            out.append(
                Diagnostic(
                    code=WF_UNREACHABLE,
                    message=f"transition {i} ({t.cmd}@{t.role}) is unreachable from "
                    f"'{ctx.protocol.initial}'",
                    state=t.source,
                    transition=i,
                )
            )
        elif not t.log_type:
            out.append(
                Diagnostic(
                    code=WF_EMPTY_LOG,
                    message=f"transition {i} ({t.cmd}@{t.role}) emits no events",
                    state=t.source,
                    transition=i,
                )
            )
    return out


def oracle_determinacy(ctx: WfContext, reachable_idx: list[int]) -> list[Diagnostic]:
    out = []
    p = ctx.protocol
    # (a) per state, guard events of outgoing transitions are pairwise distinct
    for state in sorted(ctx.reachable):
        seen_guards: dict[str, int] = {}
        for i in ctx.outgoing.get(state, ()):
            guard = p.transitions[i].guard
            if guard is None:
                continue
            if guard in seen_guards:
                out.append(
                    Diagnostic(
                        code=WF_GUARD_CLASH,
                        message=f"state '{state}': transitions {seen_guards[guard]} and {i} "
                        f"share guard event '{guard}'",
                        state=state,
                        transition=i,
                        event_type=guard,
                    )
                )
            else:
                seen_guards[guard] = i
    # (b) each event type is emitted by at most one transition
    first_use: dict[str, int] = {}
    for i in reachable_idx:
        for ev in dict.fromkeys(p.transitions[i].log_type):
            if ev in first_use and first_use[ev] != i:
                out.append(
                    Diagnostic(
                        code=WF_EVENT_REUSE,
                        message=f"event type '{ev}' emitted by transitions {first_use[ev]} and {i}",
                        transition=i,
                        event_type=ev,
                    )
                )
            else:
                first_use.setdefault(ev, i)
    return out


def oracle_actor_causality(ctx: WfContext, reachable_idx: list[int]) -> list[Diagnostic]:
    out = []
    p = ctx.protocol
    for i in reachable_idx:
        t = p.transitions[i]
        if not t.log_type:
            continue
        for ev in dict.fromkeys(t.log_type):
            if ev not in ctx.subs.get(t.role, frozenset()):
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
        for role in sorted(ctx.active_roles.get(t.target, ())):
            if guard not in ctx.subs.get(role, frozenset()):
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
    return out


def oracle_choice_awareness(ctx: WfContext) -> list[Diagnostic]:
    """Branch guards only; cone separation is ``oracle_cone_separation``."""
    out = []
    p = ctx.protocol
    for state in sorted(ctx.reachable):
        idxs = ctx.outgoing.get(state, [])
        if len(idxs) < 2:
            continue
        for role in sorted(ctx.involved_after[state]):
            for i in idxs:
                guard = p.transitions[i].guard
                if guard is None:
                    continue
                if guard not in ctx.subs.get(role, frozenset()):
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


def oracle_log_closure(ctx: WfContext, reachable_idx: list[int]) -> list[Diagnostic]:
    out = []
    p = ctx.protocol
    for i in reachable_idx:
        t = p.transitions[i]
        if not t.log_type:
            continue
        guard = t.guard
        last = t.log_type[-1]
        for role in sorted(ctx.subs):
            types = ctx.subs[role]
            if types & set(t.log_type) and guard not in types:
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


def oracle_per_condition_check(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]]
) -> CheckResult:
    """Each condition in its own walk over the oracle indices; shares no
    condition code with the checker under test."""
    ctx = WfContext(p, subs)
    oracle_post_init(ctx)
    reachable_idx = [i for i, t in enumerate(p.transitions) if t.source in ctx.reachable]
    diags = (
        oracle_shape(ctx)
        + oracle_determinacy(ctx, reachable_idx)
        + oracle_actor_causality(ctx, reachable_idx)
        + oracle_choice_awareness(ctx)
        + oracle_cone_separation(ctx)
        + oracle_log_closure(ctx, reachable_idx)
    )
    diags.sort(key=lambda d: (d.transition, d.code, d.role or "", d.event_type or ""))
    if diags:
        return CheckResult.failed(diags)
    return CheckResult.passed()


def oracle_check_swarm_protocol(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]], monkeypatch: Any
) -> CheckResult:
    """The checker with the oracle involvement and cone separation swapped in;
    every other condition is shared with the checker under test."""
    with monkeypatch.context() as m:
        m.setattr(WfContext, "__post_init__", oracle_post_init)
        m.setattr(wellformed, "_check_cone_separation", oracle_cone_separation)
        return check_swarm_protocol(p, subs)


def oracle_check_projection(
    p: SwarmProtocol, subs: Mapping[str, frozenset[str]], role: str, impl: MachineShape
) -> CheckResult:
    """Scan-based synchronized walk carrying a path tuple per queued pair."""
    expected = project(p, subs, role).shape
    diags: list[Diagnostic] = []
    if impl.subscriptions != expected.subscriptions:
        extra = sorted(impl.subscriptions - expected.subscriptions)
        missing = sorted(expected.subscriptions - impl.subscriptions)
        diags.append(
            Diagnostic(
                code=projection.PROJ_SUBSCRIPTION_MISMATCH,
                message=f"machine subscriptions differ from the role's: "
                f"missing {missing}, extra {extra}",
                role=role,
            )
        )
    queue: deque[tuple[str, str, tuple[str, ...]]] = deque()
    queue.append((expected.initial, impl.initial, ()))
    visited = {(expected.initial, impl.initial)}
    flagged_nondet: set[str] = set()
    while queue:
        e_state, i_state, path = queue.popleft()
        e_cmds = scan_commands(expected, e_state)
        i_cmds = scan_commands(impl, i_state)
        if e_cmds != i_cmds:
            fmt = lambda cs: sorted(f"{c}/{','.join(log)}" for c, log in cs)
            diags.append(
                Diagnostic(
                    code=projection.PROJ_CMD_SET_MISMATCH,
                    message=f"state '{i_state}': commands {fmt(i_cmds)} do not match "
                    f"projected commands {fmt(e_cmds)}",
                    state=i_state,
                    path=path,
                )
            )
        if i_state not in flagged_nondet:
            targets_seen: dict[str, str] = {}
            for t in impl.transitions:
                if t.source == i_state and isinstance(t.label, Input):
                    prev = targets_seen.setdefault(t.label.event_type, t.target)
                    if prev != t.target:
                        flagged_nondet.add(i_state)
                        diags.append(
                            Diagnostic(
                                code=projection.PROJ_TARGET_MISMATCH,
                                message=f"state '{i_state}' has two inputs for "
                                f"'{t.label.event_type}' with different targets",
                                state=i_state,
                                event_type=t.label.event_type,
                                path=path,
                            )
                        )
        e_edges = scan_input_edges(expected, e_state)
        i_edges = scan_input_edges(impl, i_state)
        for ev in sorted(set(e_edges) - set(i_edges)):
            diags.append(
                Diagnostic(
                    code=projection.PROJ_MISSING_REACTION,
                    message=f"state '{i_state}' lacks a reaction to '{ev}'",
                    state=i_state,
                    event_type=ev,
                    path=path,
                )
            )
        for ev in sorted(set(i_edges) - set(e_edges)):
            diags.append(
                Diagnostic(
                    code=projection.PROJ_EXTRA_REACTION,
                    message=f"state '{i_state}' reacts to '{ev}' but the projection does not",
                    state=i_state,
                    event_type=ev,
                    path=path,
                )
            )
        for ev in sorted(set(e_edges) & set(i_edges)):
            pair = (e_edges[ev], i_edges[ev])
            if pair not in visited:
                visited.add(pair)
                queue.append((pair[0], pair[1], path + (ev,)))
    if diags:
        return CheckResult.failed(diags)
    return CheckResult.passed()


def oracle_closure_subs(p: SwarmProtocol) -> Subscriptions:
    """Smallest subscription satisfying the visibility conditions, by
    fixpoint iteration: each condition written out a second time, apart from
    the checker.  It encodes no condition the checker lacks, so it must equal
    ``closure_subs``; once the checker gains a visibility condition, the two
    differ by design and this oracle goes."""
    subs: dict[str, set[str]] = {t.role: set() for t in p.transitions}
    outgoing: dict[str, list[ProtocolTransition]] = {}
    for t in p.transitions:
        outgoing.setdefault(t.source, []).append(t)
    edges = successors(p)

    changed = True
    while changed:
        changed = False

        def add(role: str, ev: str) -> None:
            nonlocal changed
            if ev not in subs[role]:
                subs[role].add(ev)
                changed = True

        for t in p.transitions:
            for ev in t.log_type:
                add(t.role, ev)
            for later in outgoing.get(t.target, ()):
                add(later.role, t.log_type[0])
        for state, outs in outgoing.items():
            if len(outs) < 2:
                continue
            involved = set()
            for s in reachable_from(edges, state):
                for t in outgoing.get(s, ()):
                    involved.add(t.role)
                    emitted = set(t.log_type)
                    for role, types in subs.items():
                        if types & emitted:
                            involved.add(role)
            for role in involved:
                for t in outs:
                    add(role, t.log_type[0])
        for t in p.transitions:
            for role, types in subs.items():
                if types & set(t.log_type):
                    add(role, t.log_type[0])
                if t.log_type[0] in types:
                    add(role, t.log_type[-1])

        # branch-cone separation: a role seeing a guard of a choice must not
        # conflate the branching state with states inside the branch cones
        for role, types in subs.items():
            cls = unobserved_classes(p, types)
            for state, outs in outgoing.items():
                if len(outs) < 2 or not any(t.log_type[0] in types for t in outs):
                    continue
                cone: set[str] = set()
                for t in outs:
                    cone |= reachable_from(edges, t.target)
                if any(q != state and cls[q] == cls[state] for q in cone):
                    for t in p.transitions:
                        if not (set(t.log_type) & types) and cls[t.source] == cls[state]:
                            add(role, t.log_type[0])
                            break

    return {role: frozenset(types) for role, types in subs.items()}


# --------------------------------------------------------------------------
# Random inputs
# --------------------------------------------------------------------------


def rough_protocol(rng: random.Random) -> SwarmProtocol:
    """A random protocol that may break every shape rule: sources anywhere
    (so some transitions are unreachable), targets anywhere (cycles), empty
    logs, and event types drawn from a pool (guard clashes, reuse)."""
    n_states = rng.randrange(1, 16)
    states = [f"s{i}" for i in range(n_states)]
    roles = [f"r{i}" for i in range(rng.randrange(1, 5))]
    # a small pool gives guard clashes and reuse; a pool as large as the
    # number of emissions mostly gives fresh types, so projection succeeds
    pool = [f"e{i}" for i in range(rng.choice([rng.randrange(2, 30), 200]))]
    reached = [states[0]]
    transitions = []
    for i in range(rng.randrange(0, 2 * n_states + 4)):
        if rng.random() < 0.85:
            source = reached[rng.randrange(len(reached))]
        else:
            source = states[rng.randrange(n_states)]
        target = states[rng.randrange(n_states)]
        if rng.random() < 0.05:
            log: tuple[str, ...] = ()
        else:
            log = tuple(rng.choice(pool) for _ in range(1 + rng.randrange(3)))
        transitions.append(
            ProtocolTransition(source, target, f"c{i % 5}", rng.choice(roles), log)
        )
        if source in reached and target not in reached:
            reached.append(target)
    return SwarmProtocol(initial=states[0], transitions=tuple(transitions))


def random_subs(rng: random.Random, p: SwarmProtocol) -> dict[str, frozenset[str]]:
    """Every role's full view, a random cut-down view, or nothing; sometimes
    a role the protocol does not mention."""
    types = sorted(event_types_of(p))
    roles = sorted(roles_of(p)) + (["observer"] if rng.random() < 0.2 else [])
    subs = {}
    for role in roles:
        keep = rng.choice([1.0, 1.0, 0.8, 0.5, 0.0])
        subs[role] = frozenset(e for e in types if rng.random() < keep)
    return subs


def per_condition_inputs() -> Iterator[tuple[SwarmProtocol, dict[str, frozenset[str]]]]:
    """Rough protocols under random subscriptions (seed 404), then
    well-formed pairs cut by one event type from one role (seed 406)."""
    rng = random.Random(404)
    for _ in range(1_200):
        p = rough_protocol(rng)
        yield p, random_subs(rng, p)
    rng = random.Random(406)
    for _ in range(1_000):
        p = random_protocol(rng)
        subs = dict(closure_subs(p))
        cuttable = sorted(role for role, types in subs.items() if types)
        if cuttable:
            role = rng.choice(cuttable)
            subs[role] = subs[role] - {rng.choice(sorted(subs[role]))}
        yield p, subs


PERTURBATIONS = (
    "rename",
    "drop-input",
    "extra-input",
    "drop-command",
    "duplicate-input",
    "subscriptions",
)


def perturbed(rng: random.Random, shape: MachineShape) -> tuple[str, MachineShape]:
    """The projection with one or two random edits: renamed states, a
    dropped or extra input, a dropped command, a duplicated input with
    another target, or changed subscriptions."""
    transitions = list(shape.transitions)
    initial, subscriptions = shape.initial, shape.subscriptions
    kinds = []
    for _ in range(1 + rng.randrange(2)):
        kind = rng.choice(PERTURBATIONS)
        states = sorted({initial, *(t.source for t in transitions), *(t.target for t in transitions)})
        inputs = [i for i, t in enumerate(transitions) if isinstance(t.label, Input)]
        commands = [i for i, t in enumerate(transitions) if isinstance(t.label, Execute)]
        if kind == "rename":
            names = {s: f"m{j}" for j, s in enumerate(rng.sample(states, len(states)))}
            transitions = [
                MachineTransition(names[t.source], names[t.target], t.label) for t in transitions
            ]
            initial = names[initial]
        elif kind == "drop-input" and inputs:
            del transitions[rng.choice(inputs)]
        elif kind == "extra-input":
            ev = rng.choice(sorted(subscriptions | {"zz"}))
            target = rng.choice(states + ["fresh"])
            transitions.append(MachineTransition(rng.choice(states), target, Input(ev)))
        elif kind == "drop-command" and commands:
            del transitions[rng.choice(commands)]
        elif kind == "duplicate-input" and inputs:
            t = transitions[rng.choice(inputs)]
            target = rng.choice([s for s in states + ["fresh"] if s != t.target])
            at = rng.randrange(len(transitions) + 1)
            transitions.insert(at, MachineTransition(t.source, target, t.label))
        elif kind == "subscriptions":
            subscriptions = subscriptions ^ {"zz"}
        else:
            continue
        kinds.append(kind)
    return "+".join(kinds), MachineShape(initial, subscriptions, tuple(transitions))


def outcome(fn: Callable[[], CheckResult]) -> tuple:
    try:
        return ("result", fn().to_obj())
    except Exception as exc:  # both sides must raise the same way
        return ("raised", type(exc).__name__, str(exc))


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


def test_checker_matches_quadratic_oracle(monkeypatch) -> None:
    rng = random.Random(404)
    seen: Counter = Counter()
    for _ in range(1_200):
        p = rough_protocol(rng)
        subs = random_subs(rng, p)
        ctx = WfContext(p, subs)
        assert ctx.involved_after == {s: oracle_involved_after(ctx, s) for s in p.states()}
        assert [d.to_obj() for d in wellformed._check_cone_separation(ctx)] == [
            d.to_obj() for d in oracle_cone_separation(ctx)
        ]
        got = check_swarm_protocol(p, subs).to_obj()
        assert got == oracle_check_swarm_protocol(p, subs, monkeypatch).to_obj()
        seen.update(d["code"] for d in got.get("errors", ()))
        seen["ok" if got["type"] == "OK" else "ill-formed"] += 1
        if any("cannot distinguish" in d["message"] for d in got.get("errors", ())):
            seen["cone"] += 1
    # the sample reaches every condition, cone separation included
    assert set(wellformed.ALL_CODES) <= set(seen), seen
    assert seen["ok"] >= 50 and seen["ill-formed"] >= 500 and seen["cone"] >= 20, seen


def test_checker_matches_per_condition_oracle() -> None:
    seen: Counter = Counter()

    def compare(p: SwarmProtocol, subs: Mapping[str, frozenset[str]]) -> None:
        got = check_swarm_protocol(p, subs).to_obj()
        assert got == oracle_per_condition_check(p, subs).to_obj()
        seen.update(d["code"] for d in got.get("errors", ()))
        seen["ok" if got["type"] == "OK" else "ill-formed"] += 1

    for p, subs in per_condition_inputs():
        compare(p, subs)
    assert set(wellformed.ALL_CODES) <= set(seen), seen
    assert seen["ok"] >= 50 and seen["ill-formed"] >= 1_000, seen


def test_every_role_diagnostic_names_an_event_type_the_role_lacks() -> None:
    # closure_subs stops at the first repair round that adds nothing; were a
    # diagnostic to name a type its role already has, it would stop early,
    # at a subscription the checker rejects
    seen: Counter = Counter()
    for p, subs in per_condition_inputs():
        for d in check_swarm_protocol(p, subs).errors:
            if d.role is not None and d.event_type is not None:
                assert d.event_type not in subs[d.role], d
                seen[d.code] += 1
                seen["cone"] += "cannot distinguish" in d.message
    for code in (WF_ACTOR_BLIND, WF_LATER_ACTOR_BLIND, WF_LOG_GAP):
        assert seen[code] >= 50, seen
    # both sources of WF_BRANCH_BLIND: unseen branch guards and the cone walk
    assert seen[WF_BRANCH_BLIND] - seen["cone"] >= 50 and seen["cone"] >= 20, seen


@pytest.mark.parametrize(
    "seed, states, roles, transitions",
    [(9191, 6, 3, 6), (5151, 4, 3, 4), (108, 8, 4, 12), (9090, 8, 4, 12)],
)
def test_closure_matches_fixpoint_oracle(seed: int, states: int, roles: int, transitions: int) -> None:
    rng = random.Random(seed)
    compared = 0
    while compared < 1_000:
        p = random_protocol(rng, states, roles, transitions)
        if not p.transitions:
            continue
        closure = closure_subs(p)
        # in order too: the generators draw from the roles in this order
        assert list(closure.items()) == list(oracle_closure_subs(p).items())
        assert check_swarm_protocol(p, closure).ok
        compared += 1


def test_closure_matches_fixpoint_oracle_on_random_scenarios() -> None:
    for p, *_ in random_scenarios(5151, 150):
        assert list(closure_subs(p).items()) == list(oracle_closure_subs(p).items())


def test_conformance_matches_scan_oracle() -> None:
    rng = random.Random(405)
    seen: Counter = Counter()
    for _ in range(1_000):
        p = rough_protocol(rng)
        subs = random_subs(rng, p)
        for role in sorted(subs):
            try:
                shape = project(p, subs, role).shape
            except Exception:
                shape = MachineShape("s0", subs[role], ())
            kind, impl = perturbed(rng, shape)
            for candidate in (shape, impl):
                got = outcome(lambda: check_projection(p, subs, role, candidate))
                want = outcome(lambda: oracle_check_projection(p, subs, role, candidate))
                assert got == want, kind
                seen[got[0]] += 1
                if got[0] == "result":
                    for d in got[1].get("errors", ()):
                        seen[d["code"]] += 1
                        seen["deep path"] += len(d.get("path", ())) >= 2
    assert seen[projection.PROJ_TARGET_MISMATCH] >= 50, seen
    for code in (
        projection.PROJ_MISSING_REACTION,
        projection.PROJ_EXTRA_REACTION,
        projection.PROJ_CMD_SET_MISMATCH,
        projection.PROJ_SUBSCRIPTION_MISMATCH,
    ):
        assert seen[code] >= 50, seen
    assert seen["result"] >= 2_000 and seen["raised"] >= 10 and seen["deep path"] >= 100, seen
