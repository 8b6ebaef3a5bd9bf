"""Shared fixtures: the transport-order example and random-instance generators."""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

import pytest

from swarmproto.errors import DefinitionError, ProjectionAmbiguity
from swarmproto.model import (
    Input,
    ProtocolTransition,
    Subscriptions,
    SwarmProtocol,
    protocol_from_obj,
    subscriptions_from_obj,
)
from swarmproto.projection import ProjectedMachine
from swarmproto.runner import MachineDefinition
from swarmproto.sim import MachineEntry, scenario_from_obj
from swarmproto.wellformed import check_swarm_protocol

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> dict:
    """A fresh parse of ``tests/fixtures/<name>.json``; callers may mutate it."""
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def protocol() -> SwarmProtocol:
    return protocol_from_obj(load_fixture("transport_protocol"))


@pytest.fixture
def full_subs() -> Subscriptions:
    return subscriptions_from_obj(load_fixture("transport_subs"))


# --------------------------------------------------------------------------
# Random instance generators (seeded; used by property-style tests)
# --------------------------------------------------------------------------


def random_protocol(
    rng: random.Random,
    max_states: int = 8,
    max_roles: int = 4,
    max_transitions: int = 12,
) -> SwarmProtocol:
    """A structurally sane random protocol: connected from the initial state,
    non-empty logs of globally fresh event types (so guards never clash and
    no event type is reused)."""
    states = [f"s{i}" for i in range(rng.randrange(1, max_states + 1))]
    roles = [f"r{i}" for i in range(rng.randrange(1, max_roles + 1))]
    transitions: list[ProtocolTransition] = []
    reached = [states[0]]
    next_event = 0
    for i in range(rng.randrange(0, max_transitions + 1)):
        source = reached[rng.randrange(len(reached))]
        target = states[rng.randrange(len(states))]
        log_len = 1 + rng.randrange(3)
        log = tuple(f"e{next_event + j}" for j in range(log_len))
        next_event += log_len
        transitions.append(
            ProtocolTransition(
                source=source,
                target=target,
                cmd=f"c{i}",
                role=roles[rng.randrange(len(roles))],
                log_type=log,
            )
        )
        if target not in reached:
            reached.append(target)
    return SwarmProtocol(initial=states[0], transitions=tuple(transitions))


def repair_round(p: SwarmProtocol, subs: Subscriptions) -> Subscriptions:
    """``subs`` with every diagnostic's event type added to its role."""
    grown = dict(subs)
    for d in check_swarm_protocol(p, subs).errors:
        if d.role is not None and d.event_type is not None:
            grown[d.role] |= {d.event_type}
    return grown


def closure_subs(p: SwarmProtocol) -> Subscriptions:
    """Empty subscriptions, repaired by the checker's diagnostics until a
    round adds nothing; used to seed generated well-formed pairs.  Each
    diagnostic names an event type its role lacks, so the loop stops only
    when the checker accepts, or reports nothing but shape or determinacy
    faults, which no subscription repairs."""
    subs = {t.role: frozenset() for t in p.transitions}
    while (grown := repair_round(p, subs)) != subs:
        subs = grown
    return subs


def generic_definition(projected: ProjectedMachine, role: str) -> MachineDefinition:
    """A runnable machine for a projected shape: the payload collects applied
    event types, commands emit empty payloads.  Chains are rebuilt from the
    provenance map (edges of one protocol transition share an origin)."""
    shape = projected.shape
    by_origin: dict[int, list] = {}
    for idx in sorted(projected.provenance):
        by_origin.setdefault(projected.provenance[idx], []).append(shape.transitions[idx])
    d = MachineDefinition(role=role, initial=shape.initial)
    for origin in sorted(by_origin):
        ts = by_origin[origin]
        inputs = [t for t in ts if isinstance(t.label, Input)]
        if inputs:
            types = [t.label.event_type for t in inputs]
            d.state(inputs[0].source).state(inputs[-1].target)
            d.react(
                inputs[0].source,
                types,
                inputs[-1].target,
                lambda p, recs: p + [r.event_type for r in recs],
            )
        for t in ts:
            if not isinstance(t.label, Input):
                emission_count = len(t.label.log_type)
                d.state(t.source)
                d.command(
                    t.source,
                    t.label.cmd,
                    list(t.label.log_type),
                    (lambda k: (lambda p: [{} for _ in range(k)]))(emission_count),
                )
    return d


def generic_scenario_obj(
    p: SwarmProtocol, subs: Subscriptions, max_steps: int = 150
) -> tuple[dict, dict[str, MachineEntry]]:
    """Scenario running one agent per role, each firing every command of its
    role at most once, and the table of generic machines its agents name
    (pass it to ``scenario_from_obj``)."""
    from swarmproto.model import protocol_to_obj, subscriptions_to_obj
    from swarmproto.projection import project

    agents = []
    machines = {}
    for i, role in enumerate(sorted(subs)):
        name = f"generic/{role}"
        machines[name] = MachineEntry(generic_definition(project(p, subs, role), role), lambda a: [])
        cmds = []
        for t in p.transitions:
            if t.role == role and t.cmd not in cmds:
                cmds.append(t.cmd)
        agents.append(
            {
                "agentId": f"a{i}",
                "role": role,
                "machine": name,
                "nodeId": f"n{i}",
                "strategy": [{"name": "once", "cmd": c, "args": []} for c in cmds]
                or {"name": "idle"},
            }
        )
    obj = {
        "protocol": protocol_to_obj(p),
        "subs": subscriptions_to_obj(subs),
        "agents": agents,
        "sessionId": "t",
        "seed": 1,
        "maxSteps": max_steps,
    }
    return obj, machines


def random_wellformed_pair(rng: random.Random) -> tuple[SwarmProtocol, Subscriptions] | None:
    """One random protocol plus a subscription that passes the checker, or
    None when the sampled variant fails (callers filter)."""
    p = random_protocol(rng)
    base = closure_subs(p)
    variant = rng.randrange(3)
    if variant == 0:
        subs = base
    elif variant == 1:
        all_types = frozenset(e for t in p.transitions for e in t.log_type)
        subs = {role: all_types for role in base}
    else:
        all_types = sorted({e for t in p.transitions for e in t.log_type})
        subs = {
            role: frozenset(
                set(types) | {e for e in all_types if rng.randrange(4) == 0}
            )
            for role, types in base.items()
        }
    if not check_swarm_protocol(p, subs).ok:
        return None
    return p, subs


def random_scenarios(seed: int, count: int) -> Iterator[tuple]:
    """``count`` seeded random small scenarios with two or three agents, each
    firing each of its role's commands at most once, and about half of them
    with randomly cut-down subscriptions.  Yields ``(protocol, subs,
    cut_down, scenario)``."""
    rng = random.Random(seed)
    cases = 0
    while cases < count:
        p = random_protocol(rng, max_states=4, max_roles=3, max_transitions=4)
        # At least two agents interleave; a cap on emitted events keeps each
        # enumeration below about a thousand states.
        roles = len({t.role for t in p.transitions})
        if roles < 2 or sum(len(t.log_type) for t in set(p.transitions)) > (7 if roles == 2 else 4):
            continue
        subs = closure_subs(p)
        cut_down = rng.randrange(2) == 0
        if cut_down:
            subs = {r: frozenset(e for e in sorted(ts) if rng.randrange(2)) for r, ts in subs.items()}
        try:
            obj, machines = generic_scenario_obj(p, subs)
        except (DefinitionError, ProjectionAmbiguity):
            continue  # no runnable machine for this cut
        cases += 1
        yield p, subs, cut_down, scenario_from_obj(obj, machines=machines)
