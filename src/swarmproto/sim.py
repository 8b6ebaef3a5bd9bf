"""Deterministic multi-node swarm simulation.

Each scenario step, a seeded RNG picks one enabled action: an agent's
strategy invokes a command, a random subset of one node's records is
delivered to another node in the same partition group, or nothing happens.
After the step budget, partitions heal, delivery drains to quiescence, and
the consensus predicate is evaluated: the run converged when every agent's
applied-record sequence and settled state match the projection of the
canonical protocol run onto its role.

The scheduler keeps what each agent could do next in an action table: its
proposal, and the pending records of each node pair it is part of, as a
bitmask over the records the table has numbered, with sorted lists of the
agents that can invoke and the pairs that can deliver.  A step changes one
agent, so it updates that agent's entries only: one proposal and 2(n-1)
integer operations for n agents, with no log scan, instead of the n
proposals and n(n-1) scans of a full rebuild.  The step draws an index into the
enabled actions without listing them, and only a delivered pair's mask is
decoded into records.  The RNG stops at quiescence (no proposal, nothing
pending anywhere); the trace still gets its noop lines, and a run that
keeps only the report builds no trace.

The whole simulation is single-threaded and integer-seeded: identical
scenarios yield byte-identical traces.  ``enumerate_schedules`` replaces
the RNG with a search over every schedule at single-record delivery
granularity, any pending record in any order, for bounded model checking
of small fixtures.  A delivery changes only its destination and enables no
other agent's action, so the search postpones it until the destination
next invokes: a search state is each agent's interned state right after
its last invoke.  Each distinct invoke runs once per call, and a delivery
only when it may reach an agent state not interned yet: a delivery into an
agent with no command lock leaves it unlocked and adds one known record, so
when that state is interned the step is skipped.  Each agent's local search
runs once per (interned state, emitted records) pair.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from itertools import chain, compress
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from . import transport
from .errors import ParseError, PreconditionError, ScenarioError
from .eventlog import (
    EventRecord,
    NodeLog,
    _ndjson_line,
    _order_key,
    record_to_obj,
    records_to_ndjson,
)
from .model import (
    Subscriptions,
    SwarmProtocol,
    _as_int,
    _as_list,
    _as_name,
    _as_names,
    _as_obj,
    _load_json,
    protocol_from_obj,
    roles_of,
    subscriptions_from_obj,
)
from .runner import MachineDefinition, MachineRunner, evaluate

# --------------------------------------------------------------------------
# Strategies: the closed set of named decision rules agents run
# --------------------------------------------------------------------------


class Strategy:
    """Decision rule mapping an agent's runner to an optional command call.

    ``propose`` gets the enabled commands, keyed by name, and the fold's own
    payload, not a copy.  It must only read the payload and keep no part of
    it past the call, in the proposed args or elsewhere: a later reaction
    may write it in place.  It is a pure function of the two, so the bounded
    model checker can enumerate every choice.  The one rule with a past,
    ``Once``, is remembered by the scheduler: an agent's spent set holds the
    ``Once`` rules it has fired, and those propose nothing again.
    """

    def propose(self, enabled: Mapping[str, Any], payload: Any) -> tuple[str, list] | None:
        raise NotImplementedError


@dataclass(frozen=True)
class Once(Strategy):
    """Invoke ``cmd`` with fixed arguments the first time it is enabled."""

    cmd: str
    args: tuple

    def propose(self, enabled, payload):
        if self.cmd not in enabled:
            return None
        return (self.cmd, list(self.args))


@dataclass(frozen=True)
class BidOnce(Strategy):
    """Bid with a fixed delay while the agent's own id is absent from the
    observed scores (the bid has not come back yet)."""

    delay: int

    def propose(self, enabled, payload):
        if "bid" not in enabled:
            return None
        if not isinstance(payload, dict) or "scores" not in payload:
            return None
        own = payload.get("robot")
        if any(s.get("robot") == own for s in payload["scores"]):
            return None
        return ("bid", [self.delay])


@dataclass(frozen=True)
class SelectAfter(Strategy):
    """Select a winner once at least ``k`` bids have been observed."""

    k: int

    def propose(self, enabled, payload):
        if "select" not in enabled:
            return None
        if not isinstance(payload, dict) or len(payload.get("scores", ())) < self.k:
            return None
        return ("select", [])


@dataclass(frozen=True)
class Idle(Strategy):
    """Never invoke anything (pure observer)."""

    def propose(self, enabled, payload):
        return None


# Fields each strategy object carries besides its name.
_STRATEGY_FIELDS = {
    "once": {"cmd", "args"},
    "bid-once": {"delay"},
    "select-after": {"k"},
    "idle": set(),
}


def strategy_from_obj(obj: Any, path: str) -> Strategy:
    if not isinstance(obj, dict) or "name" not in obj:
        raise ParseError(path, "expected a strategy object with a name")
    name = _as_name(obj["name"], f"{path}.name")
    if name not in _STRATEGY_FIELDS:
        raise ParseError(f"{path}.name", f"unknown strategy '{name}'")
    fields = _STRATEGY_FIELDS[name] | {"name"}
    _as_obj(obj, path, fields, fields)
    if name == "once":
        cmd = _as_name(obj["cmd"], f"{path}.cmd")
        return Once(cmd=cmd, args=tuple(_as_list(obj["args"], f"{path}.args")))
    if name == "bid-once":
        return BidOnce(delay=_as_int(obj["delay"], f"{path}.delay"))
    if name == "select-after":
        if _as_int(obj["k"], f"{path}.k") < 1:
            raise ParseError(f"{path}.k", "expected an integer >= 1")
        return SelectAfter(k=obj["k"])
    return Idle()


# --------------------------------------------------------------------------
# Machine tables: the named definitions a scenario's agents can run
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineEntry:
    definition: MachineDefinition
    payload_factory: Callable[[str], Any]  # agent id -> initial payload


STOCK_MACHINES: Mapping[str, MachineEntry] = MappingProxyType({
    "transport-order/robot": MachineEntry(transport.ROBOT, lambda agent_id: {"robot": agent_id}),
    "transport-order/machine": MachineEntry(transport.STATION, lambda agent_id: {}),
})


# --------------------------------------------------------------------------
# Scenario model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentSpec:
    """One participant: its role, machine, node, and decision rules.

    ``strategies`` is an ordered list; each step the first rule that
    proposes a command wins.  The initial payload is the payload factory of
    ``machine``'s entry in the scenario's table, applied to ``agent_id``.
    """

    agent_id: str
    role: str
    machine: str
    node_id: str
    strategies: tuple[Strategy, ...]


@dataclass(frozen=True)
class PartitionWindow:
    """During steps ``from_step <= step < to_step`` delivery is only
    possible inside each group."""

    from_step: int
    to_step: int
    groups: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class Scenario:
    """A simulation setup, checked once, when constructed.  ``machines`` is a
    read-only copy of the table the agents' machine names resolve against."""

    protocol: SwarmProtocol
    subs: Subscriptions
    agents: tuple[AgentSpec, ...]
    session_id: str
    seed: int
    max_steps: int
    partition_schedule: tuple[PartitionWindow, ...] = ()
    machines: Mapping[str, MachineEntry] = field(default_factory=STOCK_MACHINES.copy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", MappingProxyType(dict(self.machines)))
        self.validate()

    def validate(self) -> None:
        node_ids = [a.node_id for a in self.agents]
        if len(set(node_ids)) != len(node_ids):
            raise ScenarioError("node ids must be unique")
        agent_ids = [a.agent_id for a in self.agents]
        if len(set(agent_ids)) != len(agent_ids):
            raise ScenarioError("agent ids must be unique")
        roles = roles_of(self.protocol)
        for a in self.agents:
            if a.role not in roles:
                raise ScenarioError(f"agent '{a.agent_id}': role '{a.role}' not in protocol")
            if a.role not in self.subs:
                raise ScenarioError(f"agent '{a.agent_id}': role '{a.role}' has no subscription")
            if a.machine not in self.machines:
                raise ScenarioError(f"agent '{a.agent_id}': unknown machine '{a.machine}'")
        if self.max_steps < 0:
            raise ScenarioError("maxSteps must be >= 0")
        nodes = set(node_ids)
        for w in self.partition_schedule:
            if w.from_step >= w.to_step:
                raise ScenarioError("partition window must have fromStep < toStep")
            listed = [n for g in w.groups for n in g]
            if sorted(listed) != sorted(nodes):
                raise ScenarioError("partition groups must partition the node ids")
        windows = sorted((w.from_step, w.to_step) for w in self.partition_schedule)
        for (_, end), (start, _) in zip(windows, windows[1:]):
            if start < end:
                raise ScenarioError("partition windows must not overlap")


def parse_scenario(text: str) -> Scenario:
    return scenario_from_obj(_load_json(text, "scenario"))


def scenario_from_obj(
    obj: Any, path: str = "scenario", machines: Mapping[str, MachineEntry] = STOCK_MACHINES
) -> Scenario:
    """Build a scenario from its JSON object, resolving the agents' machine
    names against ``machines``."""
    allowed = {"protocol", "subs", "agents", "sessionId", "seed", "maxSteps", "partitionSchedule"}
    top = _as_obj(obj, path, allowed, allowed - {"partitionSchedule"})
    protocol = protocol_from_obj(top["protocol"], f"{path}.protocol")
    subs = subscriptions_from_obj(top["subs"], f"{path}.subs")

    agents = []
    afields = {"agentId", "role", "machine", "nodeId", "strategy"}
    for i, item in enumerate(_as_list(top["agents"], f"{path}.agents")):
        apath = f"{path}.agents[{i}]"
        agent = _as_obj(item, apath, afields, afields)
        raw_strategy = agent["strategy"]
        if isinstance(raw_strategy, list):
            strategies = tuple(
                strategy_from_obj(s, f"{apath}.strategy[{j}]") for j, s in enumerate(raw_strategy)
            )
        else:
            strategies = (strategy_from_obj(raw_strategy, f"{apath}.strategy"),)
        agents.append(
            AgentSpec(
                agent_id=_as_name(agent["agentId"], f"{apath}.agentId"),
                role=_as_name(agent["role"], f"{apath}.role"),
                machine=_as_name(agent["machine"], f"{apath}.machine"),
                node_id=_as_name(agent["nodeId"], f"{apath}.nodeId"),
                strategies=strategies,
            )
        )

    windows = []
    wfields = {"fromStep", "toStep", "groups"}
    raw_windows = top.get("partitionSchedule", [])
    for i, item in enumerate(_as_list(raw_windows, f"{path}.partitionSchedule")):
        wpath = f"{path}.partitionSchedule[{i}]"
        window = _as_obj(item, wpath, wfields, wfields)
        groups = tuple(
            frozenset(_as_names(g, f"{wpath}.groups[{j}]"))
            for j, g in enumerate(_as_list(window["groups"], f"{wpath}.groups"))
        )
        windows.append(
            PartitionWindow(
                _as_int(window["fromStep"], f"{wpath}.fromStep"),
                _as_int(window["toStep"], f"{wpath}.toStep"),
                groups,
            )
        )

    return Scenario(
        protocol=protocol,
        subs=subs,
        agents=tuple(agents),
        session_id=_as_name(top["sessionId"], f"{path}.sessionId"),
        seed=_as_int(top["seed"], f"{path}.seed"),
        max_steps=_as_int(top["maxSteps"], f"{path}.maxSteps"),
        partition_schedule=tuple(windows),
        machines=machines,
    )


# --------------------------------------------------------------------------
# Canonical protocol run: the omniscient reference semantics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalRun:
    """Result of folding a merged log through the protocol graph itself.

    ``path`` lists the indices of the protocol transitions taken, in order
    (including a trailing transition whose multi-event log is still open at
    the end of the log).  Records matching no open position are discarded.
    """

    path: tuple[int, ...]
    final_state: str
    applied: tuple[EventRecord, ...]
    discarded: tuple[EventRecord, ...]


def canonical_run(
    p: SwarmProtocol, merged_log: Iterable[EventRecord], session_id: str
) -> CanonicalRun:
    """Reference run: the protocol executed synchronously over the total order."""
    # (state, guard) -> the transition it selects: reversed, so the first one
    # wins a clash; an empty log's guard is None, which no record matches
    guards = {(t.source, t.guard): i for i, t in reversed(list(enumerate(p.transitions)))}
    state = p.initial
    path: list[int] = []
    applied: list[EventRecord] = []
    discarded: list[EventRecord] = []
    open_idx: int | None = None
    pos = 0
    for rec in merged_log:
        if rec.session_id != session_id:
            continue
        if open_idx is not None:
            t = p.transitions[open_idx]
            if rec.event_type == t.log_type[pos]:
                applied.append(rec)
                pos += 1
                if pos == len(t.log_type):
                    state = t.target
                    open_idx = None
            else:
                discarded.append(rec)
            continue
        chosen = guards.get((state, rec.event_type))
        if chosen is None:
            discarded.append(rec)
            continue
        path.append(chosen)
        applied.append(rec)
        t = p.transitions[chosen]
        if len(t.log_type) == 1:
            state = t.target
        else:
            open_idx = chosen
            pos = 1
    return CanonicalRun(
        path=tuple(path),
        final_state=state,
        applied=tuple(applied),
        discarded=tuple(discarded),
    )


# --------------------------------------------------------------------------
# Consensus predicate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentOutcome:
    final_state: str
    expected_state: str
    matches: bool
    discards: tuple[str, ...]
    invalidations: tuple[str, ...]


@dataclass(frozen=True)
class ConsensusReport:
    converged: bool
    canonical_path: tuple[int, ...]
    per_agent: dict[str, AgentOutcome]
    divergences: tuple[str, ...]

    def to_obj(self) -> dict[str, Any]:
        return {
            "converged": self.converged,
            "canonicalPath": list(self.canonical_path),
            "perAgent": {
                aid: {
                    "finalState": o.final_state,
                    "expectedState": o.expected_state,
                    "matches": o.matches,
                    "discards": list(o.discards),
                    "invalidations": list(o.invalidations),
                }
                for aid, o in sorted(self.per_agent.items())
            },
            "divergences": list(self.divergences),
        }


def _key_str(key: tuple[str, int]) -> str:
    return f"{key[0]}/{key[1]}"


@dataclass
class AgentRuntime:
    """Live state of one agent during a simulation.  ``spent`` holds the
    indices of the agent's ``Once`` rules that have fired.

    Construction binds the runner to the node: the runner keeps its records
    in the node, so the agent keeps one log, and the simulator folds what
    the node appended or received with no second merge.  A runner whose log
    differs from the node's known log raises :class:`PreconditionError`."""

    spec: AgentSpec
    initial_payload: Any
    node: NodeLog
    runner: MachineRunner
    spent: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.runner._node.known != self.node.known:
            raise PreconditionError(
                f"agent '{self.spec.agent_id}': the runner's log differs from its node's known log"
            )
        self.runner._node = self.node

    def _fork(self) -> "AgentRuntime":
        """An independent copy: a fork of the runner and the fork of the node
        it is bound to, sharing the spec, the records and the (immutable)
        spent set.  Built without ``__init__``, one attribute at a time in
        field order."""
        runner = self.runner._fork()
        twin = object.__new__(AgentRuntime)
        twin.spec = self.spec
        twin.initial_payload = self.initial_payload
        twin.node = runner._node
        twin.runner = runner
        twin.spent = self.spent
        return twin


def consensus_check(
    p: SwarmProtocol,
    subs: Mapping[str, frozenset[str]],
    agents: list[AgentRuntime],
    session_id: str,
) -> ConsensusReport:
    """Evaluate eventual consensus at quiescence.

    Precondition: replication has completed (all known logs are identical).
    The canonical run is projected onto each agent by filtering its applied
    records through the agent's role subscription; the agent matches when it
    applied exactly that record sequence and settled in the state its own
    machine reaches on it.

    The verdicts come from :func:`_verdicts`; the report adds each agent's
    current discard keys and sorted invalidated keys, which ``_verdicts``
    does not read.
    """
    canonical, verdicts = _verdicts(p, subs, agents, session_id)
    per_agent = {
        agent.spec.agent_id: AgentOutcome(
            final_state=final_state,
            expected_state=expected_state,
            matches=divergence is None,
            discards=tuple(_key_str(rep.record.key) for rep in agent.runner.current_discards),
            invalidations=tuple(_key_str(k) for k in sorted(agent.runner.invalidated_keys)),
        )
        for agent, (final_state, expected_state, divergence) in zip(agents, verdicts)
    }
    return ConsensusReport(
        converged=all(o.matches for o in per_agent.values()),
        canonical_path=canonical.path,
        per_agent=per_agent,
        divergences=tuple(d for _, _, d in verdicts if d is not None),
    )


def _verdicts(
    p: SwarmProtocol,
    subs: Mapping[str, frozenset[str]],
    agents: list[AgentRuntime],
    session_id: str,
) -> tuple[CanonicalRun, list[tuple[str, str, str | None]]]:
    """The canonical run of the agents' common log, and for each agent its
    ``(final state, expected state, divergence)``, where the divergence is
    ``None`` when the agent matches.  Raises :class:`PreconditionError` when
    the agents' known logs differ.

    Both states are read from the runner's fold.  ``evaluate`` runs only for
    an agent whose applied keys differ from the expected ones: a fold's state
    and open reaction change only when it applies a record, and how it
    applies one depends only on them, the matched count and the event type,
    so equal applied keys mean an equal state name.  Handlers change only
    the payload, which consensus does not compare.
    """
    if any(a.node.known != agents[0].node.known for a in agents[1:]):
        raise PreconditionError("node logs differ; heal and drain delivery first")

    common = agents[0].node.known if agents else []
    canonical = canonical_run(p, common, session_id)

    verdicts: list[tuple[str, str, str | None]] = []
    for agent in agents:
        role_types = subs[agent.spec.role]
        expected_records = [r for r in canonical.applied if r.event_type in role_types]
        fold = agent.runner._fold
        actual = [r.key for r in fold.applied]
        expected = [r.key for r in expected_records]
        final_state = fold.state
        if actual == expected:
            verdicts.append((final_state, final_state, None))
            continue
        expected_state = evaluate(
            agent.runner.definition,
            agent.initial_payload,
            expected_records,
            session_id,
            subscription=frozenset(role_types),
        )[0].state_name
        expected_keys, actual_keys = set(expected), set(actual)
        extra = [k for k in actual if k not in expected_keys]
        missing = [k for k in expected if k not in actual_keys]
        detail = []
        if extra:
            detail.append(f"applied off-path records {[_key_str(k) for k in extra]}")
        if missing:
            detail.append(f"missed canonical records {[_key_str(k) for k in missing]}")
        if final_state != expected_state:
            detail.append(f"settled in '{final_state}' instead of '{expected_state}'")
        verdicts.append((
            final_state,
            expected_state,
            f"agent '{agent.spec.agent_id}' (role '{agent.spec.role}'): " + "; ".join(detail),
        ))
    return canonical, verdicts


# --------------------------------------------------------------------------
# The seeded scheduler
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    trace: tuple[dict, ...]
    report: ConsensusReport


def trace_to_ndjson(trace: Iterable[dict]) -> str:
    return "".join(_ndjson_line(line) + "\n" for line in trace)


def _build_agents(scenario: Scenario) -> list[AgentRuntime]:
    agents: list[AgentRuntime] = []
    for spec in scenario.agents:
        entry = scenario.machines[spec.machine]
        payload = entry.payload_factory(spec.agent_id)
        subscription = frozenset(scenario.subs[spec.role])
        runner = MachineRunner(entry.definition, payload, scenario.session_id, subscription)
        agents.append(AgentRuntime(spec, payload, NodeLog(spec.node_id), runner))
    return agents


def _group_of(scenario: Scenario, step: int, node_id: str) -> int:
    for w in scenario.partition_schedule:
        if w.from_step <= step < w.to_step:
            for gi, group in enumerate(w.groups):
                if node_id in group:
                    return gi
    return 0


class _ActionTable:
    """What each agent of a list could do next: its proposal, and for each
    ordered node pair the records the source knows and the destination does
    not.  Two sorted index lists say which actions are enabled:
    ``invokers``, the agents with a proposal, and ``enabled``, the non-empty
    pair slots whose two agents share a partition group (``groups``, set by
    ``regroup``).  ``action`` is the one place that spells the action order.

    Records are bits.  The table numbers each record key the first time it
    sees it (``bits``, and ``keys`` back), keeps each agent's known log as
    an ``int`` mask in ``known``, and each pair's ``known[s] & ~known[d]``
    in ``pending``.  Built from the agents' ``known`` lists, it costs n
    proposals and one pass over each log, with no pair scan.
    After an action, ``refresh`` updates it from the records the action made
    new at the agent it changed: one proposal and 2(n-1) integer
    operations on that agent's row and column.  That keeps the table equal
    to a full rebuild, because:

    - an action writes exactly one agent (an invoke its invoker's node and
      runner, a delivery its destination's), and only adds records to its
      known log, so only that agent's row gains records and only its
      column loses them;
    - a proposal is a pure function of the agent's runner, filtered only by
      its spent set, which only its own invoke changes.

    ``records`` decodes one pair's mask, for the pair a step delivers and in
    the drain: the source's own records under the mask's bits, sorted by
    order key.  That equals ``NodeLog.undelivered_for``, in the source's
    ``known`` order, because ``NodeLog.append`` gives every simulated record
    a distinct order key (a node's lamport clock strictly increases, and
    node ids are unique).
    """

    def __init__(self, agents: list[AgentRuntime]) -> None:
        self.agents = agents
        self.proposals = [_propose(agent) for agent in agents]
        self.invokers = [ai for ai, proposal in enumerate(self.proposals) if proposal is not None]
        self.bits, self.keys = {}, []  # record key -> bit, and bit -> record key
        self.known = [self._mask(agent.node.known) for agent in agents]
        # Pair (si, di) at si * n + di; a node's pair with itself stays empty.
        self.pending = [
            0 if si == di else src & ~dst
            for si, src in enumerate(self.known)
            for di, dst in enumerate(self.known)
        ]
        self.regroup([0] * len(agents))

    def _mask(self, records: Iterable[EventRecord]) -> int:
        """The mask of ``records``, numbering the keys not seen before."""
        bits, keys, mask = self.bits, self.keys, 0
        for r in records:
            bit = bits.setdefault(r.key, len(keys))
            if bit == len(keys):
                keys.append(r.key)
            mask |= 1 << bit
        return mask

    def records(self, k: int) -> list[EventRecord]:
        """Pair slot ``k``'s pending records, in the source's ``known`` order, as a new list."""
        mask, keys, out = self.pending[k], self.keys, []
        by_key = self.agents[k // len(self.agents)].node._by_key
        while mask:
            low = mask & -mask
            out.append(by_key[keys[low.bit_length() - 1]])
            mask ^= low
        return sorted(out, key=_order_key)

    def regroup(self, groups: list[int]) -> None:
        """Set each agent's partition group and rebuild ``enabled``."""
        n, pending = len(self.agents), self.pending
        self.groups = groups
        self.enabled = [
            k
            for k in compress(range(len(pending)), pending)  # the non-empty pairs, in order
            if groups[k // n] == groups[k % n]
        ]

    def refresh(self, changed: int, fresh: list[EventRecord]) -> None:
        """Update the table after an action wrote agent ``changed``, whose
        node found the records ``fresh`` new."""
        agent, n, pending = self.agents[changed], len(self.agents), self.pending
        proposal, invokers = _propose(agent), self.invokers
        had, has = self.proposals[changed] is not None, proposal is not None
        self.proposals[changed] = proposal
        if has and not had:
            bisect.insort(invokers, changed)
        elif had and not has:
            del invokers[bisect.bisect_left(invokers, changed)]
        if not fresh:
            return
        known, groups, enabled = self.known, self.groups, self.enabled
        known[changed] = mine = known[changed] | self._mask(fresh)
        group = groups[changed]
        for j, theirs in enumerate(known):
            if j == changed:
                continue
            together = groups[j] == group
            k = changed * n + j  # the row slot can only gain records
            was, pending[k] = pending[k], mine & ~theirs
            if together and pending[k] and not was:
                bisect.insort(enabled, k)
            k = j * n + changed  # the column slot can only lose them
            was, pending[k] = pending[k], theirs & ~mine
            if together and was and not pending[k]:
                del enabled[bisect.bisect_left(enabled, k)]

    def action(self, index: int) -> tuple:
        """Enabled action ``index``: each agent's first willing strategy
        invokes (by agent index), then each enabled pair delivers its
        pending records (by source, then destination index), then a noop at
        ``len(invokers) + len(enabled)``."""
        invokers, enabled = self.invokers, self.enabled
        if index < len(invokers):
            ai = invokers[index]
            return ("invoke", ai, self.proposals[ai])
        index -= len(invokers)
        if index < len(enabled):
            k = enabled[index]
            return ("deliver", *divmod(k, len(self.agents)), self.records(k))
        return ("noop",)


def _propose(agent: AgentRuntime) -> tuple[int, str, list] | None:
    enabled, payload = agent.runner._enabled()
    for si, strategy in enumerate(agent.spec.strategies):
        if si in agent.spent:
            continue
        decision = strategy.propose(enabled, payload)
        if decision is not None:
            return (si, decision[0], decision[1])
    return None


def _invoke(agent: AgentRuntime, proposal: tuple[int, str, list]) -> list[EventRecord]:
    """Invoke a strategy's proposed command and fold the emission into the
    agent's own runner; returns the emitted records."""
    si, cmd, args = proposal
    records = agent.runner.invoke(cmd, args, agent.node)
    if isinstance(agent.spec.strategies[si], Once):
        agent.spent |= {si}
    # The node's append put them in the runner's log too: fold them.
    agent.runner._fold_fresh(records)
    return records


def _deliver(dst: AgentRuntime, batch: list[EventRecord]) -> list[EventRecord]:
    """Deliver ``batch`` to ``dst``; returns the records its node found fresh."""
    # The runner's log is its node's known log: the node merges the batch
    # once, and the runner folds only what the node found fresh.
    fresh = dst.node.receive(batch)
    dst.runner._fold_fresh(fresh)
    return fresh


def _apply(table: _ActionTable, action: tuple, trace: list[dict] | None, step: int) -> None:
    """Apply ``action``, an ``_ActionTable.action`` tuple or a ``"drain"`` delivery, to the
    agents and the table, and append its trace line for ``step`` unless ``trace`` is ``None``."""
    kind, agents = action[0], table.agents
    if kind == "noop":
        if trace is not None:
            trace.append({"step": step, "kind": "noop"})
        return
    if kind == "invoke":
        _, changed, proposal = action
        fresh = _invoke(agents[changed], proposal)
        if trace is not None:
            trace.append(
                {
                    "step": step,
                    "kind": "invoke",
                    "agent": agents[changed].spec.agent_id,
                    "cmd": proposal[1],
                    "args": proposal[2],
                    "records": [record_to_obj(r) for r in fresh],
                }
            )
    else:
        _, si, changed, batch = action
        fresh = _deliver(agents[changed], batch)
        if trace is not None:
            trace.append(
                {
                    "step": step,
                    "kind": kind,
                    "from": agents[si].spec.node_id,
                    "to": agents[changed].spec.node_id,
                    "records": [_key_str(r.key) for r in batch],
                }
            )
    table.refresh(changed, fresh)


def run_scenario(scenario: Scenario, seed: int | None = None, *, _trace: bool = True) -> RunResult:
    """Run one seeded simulation to quiescence and evaluate consensus.

    ``seed`` overrides the scenario's own seed (for sweeps).  The trace has
    one line per scheduler action; every emitted record appears exactly once
    in an ``invoke`` line.  With ``_trace=False``, for callers that read only
    the report, no trace line is built and ``trace`` is empty.

    The RNG stops at the first step where no agent proposes and no node
    pair, in any partition group, has pending records: from there on no
    action can change an agent, so every later step is a noop and the drain
    delivers nothing.  The RNG is the run's own, so the draws it skips
    cannot be observed, and the trace gets a noop line for each remaining
    step, as if they had been drawn.
    """
    rng = random.Random(scenario.seed if seed is None else seed)
    agents = _build_agents(scenario)
    table = _ActionTable(agents)
    trace: list[dict] | None = [] if _trace else None
    # Groups change only where a step enters or leaves a partition window.
    edges = {0}.union(*((w.from_step, w.to_step) for w in scenario.partition_schedule))

    step = 0
    while step < scenario.max_steps and (table.invokers or table.enabled or any(table.pending)):
        rng.randrange(2**32)  # unused draw, kept so each seed's RNG stream and trace stay stable
        if step in edges:
            table.regroup([_group_of(scenario, step, a.spec.node_id) for a in agents])
        # The enabled actions and the noop, drawn without listing them.
        action = table.action(rng.randrange(len(table.invokers) + len(table.enabled) + 1))
        if action[0] == "deliver":  # narrow its batch, a new list, to a random subset
            batch = action[3]
            count = 1 + rng.randrange(len(batch))
            # subset selection via randrange only, for cross-platform streams
            pool = list(range(len(batch)))
            picked = [pool.pop(rng.randrange(len(pool))) for _ in range(count)]
            batch[:] = [batch[i] for i in sorted(picked)]
        _apply(table, action, trace, step)
        step += 1
    if trace is not None:
        trace.extend({"step": s, "kind": "noop"} for s in range(step, scenario.max_steps))

    _drain(table, trace, scenario.max_steps)
    report = consensus_check(scenario.protocol, scenario.subs, agents, scenario.session_id)
    return RunResult(trace=() if trace is None else tuple(trace), report=report)


def _drain(table: _ActionTable, trace: list[dict] | None, step0: int) -> None:
    """Heal all partitions and run full pairwise delivery to quiescence."""
    n, step = len(table.agents), step0
    while any(table.pending):  # a sweep delivers at least the first pair it finds pending
        for k in compress(range(n * n), table.pending):  # reads each pair after earlier refreshes
            _apply(table, ("drain", *divmod(k, n), table.records(k)), trace, step)
            step += 1


# --------------------------------------------------------------------------
# Exhaustive schedule enumeration (bounded model check)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """What ``enumerate_schedules`` found: ``states_explored`` counts search
    states, ``terminal_runs`` the distinct terminal logs, and ``diverged``
    holds each terminal log's consensus divergences, log after log, in the
    order each log is first reached."""

    states_explored: int
    terminal_runs: int
    diverged: tuple[str, ...]

    @property
    def all_converged(self) -> bool:
        return not self.diverged


def enumerate_schedules(scenario: Scenario, max_emitted: int = 8) -> EnumerationResult:
    """Explore every schedule of the scenario and check consensus at each
    terminal log.

    A schedule is any sequence of the simulator's steps: an agent's first
    willing strategy invokes, or any one record a node knows is delivered to
    another node.  The partition schedule is ignored — arbitrary delivery
    delay is already part of the explored space.  Raises
    :class:`ScenarioError` when a run would emit more than ``max_emitted``
    events, as a guard for the bounded-model-check scope.

    The search rests on four premises (the tests check the last one, and
    the search against a walk over every world):

    - an action writes exactly one agent, the invoker or the destination;
    - any emitted record can be delivered to any agent at any time (its
      emitter always knows it);
    - so a delivery into one agent enables no action of another, and can be
      postponed until its destination next invokes (Lipton's reduction);
    - the consensus verdict is a function of the terminal log.

    A search state is the tuple of each agent's component (see
    :class:`_WorldKeys`) right after its last invoke; the emitted records E
    are the union of the components' own records.  From a state, each agent
    runs a local search over the components it reaches by delivering E's
    missing records one at a time, in any order, and may invoke from any of
    them; the search's outcome (:meth:`_WorldKeys.moves`) depends only on
    the component and E, so it runs once per pair.  E is a terminal log when
    every agent reaches a component that knows all of E and proposes
    nothing; each distinct terminal log gets one divergence check
    (:func:`_verdicts`, the per-agent part of :func:`consensus_check`), with
    those components' representatives as the agents, and builds no
    :class:`ConsensusReport`.  A representative may carry the runner history
    (its discard reasons and invalidated keys) of another path to the same
    component; the check does not read that history.
    """
    keys = _WorldKeys()
    # Fresh agents know no record, so their masks are empty.
    root = tuple(keys.agent(ai, a, 0, 0) for ai, a in enumerate(_build_agents(scenario)))
    seen, stack, terminal = {root}, [root], {}  # terminal log -> its divergences
    while stack:
        state = stack.pop()
        # Different agents' own records are different lines, so the sum is the union.
        emitted = sum(map(keys.own.__getitem__, state))
        settled = []
        for ai, c in enumerate(state):
            invokes, quiet = keys.moves(ai, c, emitted, max_emitted)
            for nxt in invokes:
                branch = state[:ai] + (nxt,) + state[ai + 1:]
                if branch not in seen:
                    seen.add(branch)
                    stack.append(branch)
            settled.append(quiet)
        if None not in settled and emitted not in terminal:
            world = [keys.agents[x] for x in settled]
            _, verdicts = _verdicts(scenario.protocol, scenario.subs, world, scenario.session_id)
            terminal[emitted] = [d for _, _, d in verdicts if d is not None]
    return EnumerationResult(len(seen), len(terminal), tuple(chain(*terminal.values())))


class _WorldKeys:
    """Interned agent states: the components of the search.

    An agent's component is its agent index, its known log, its command
    lock and its spent ``Once`` rules.  ``agent`` gives each distinct
    component a small integer id, in order of first sight, and keeps the
    first agent seen with it in ``agents`` (its representative, never
    mutated afterwards: ``step`` works on a fork), and its known and own
    records as masks in ``known`` and ``own``.

    Records are bits.  A record's bit stands for its NDJSON line, so two
    logs get equal masks exactly when their NDJSON is equal (a record key
    ``(nodeId, seq)`` would not do: branches give one key different
    content), and ``records`` holds a record for each bit.  Each record
    object is encoded once; the cache keeps it alive, so the ``id`` it is
    cached under is never reused.  A step's masks are its parent's plus the
    records the step made new.

    Equal component ids mean the same agent spec and equal known records,
    hence equal clock, own records and runner fold; and a proposal depends
    only on the runner state, the lock that gates its enabled commands, and
    the spent set.  So a component's invoke runs once per search, on a fork
    of the representative, and so does its delivery of a given bit
    (``reach``) when the component is locked.  An unlocked component's
    delivery stays unlocked and adds the bit, so it runs only when that
    successor is not interned yet.  The one lock input outside the
    component, the record an invoke awaits, is none or already in the log
    once the invoker has folded its own records, where it can only keep a
    released lock released.  A fork shares the fold payload with its
    representative until a handler runs (see :class:`RunnerState`).

    ``moves`` keeps, per (component, emitted) pair, only what the search
    loop reads: the invoke successors in depth-first order and the quiet
    component, not the components ``reach`` found.
    """

    def __init__(self) -> None:
        self._lines: dict[str, int] = {}
        self._by_id: dict[int, tuple[EventRecord, int]] = {}
        self._ids: dict[tuple, int] = {}
        self._invoked: dict[int, int | None] = {}
        self._delivered: dict[tuple[int, int], int] = {}  # (locked component, bit) -> successor
        self._moves: dict[tuple[int, int], tuple[tuple[int, ...], int | None]] = {}
        self.records: dict[int, EventRecord] = {}
        self.agents: list[AgentRuntime] = []
        self.known: list[int] = []
        self.own: list[int] = []

    def agent(self, index: int, a: AgentRuntime, known: int, own: int) -> int:
        """The component id of agent ``a`` at agent index ``index``, whose
        known and own records are the masks ``known`` and ``own``."""
        cid = self._ids.setdefault((index, known, a.runner._locked, a.spent), len(self._ids))
        if cid == len(self.agents):
            self.agents.append(a)
            self.known.append(known)
            self.own.append(own)
        return cid

    def step(self, index: int, c: int, act: Callable, arg: Any) -> int:
        """Run ``act`` (``_invoke`` or ``_deliver``) with ``arg`` on a fork of
        component ``c``'s representative, agent ``index``, and return the
        component the fork reaches."""
        agent = self.agents[c]._fork()
        new = self.mask(act(agent, arg))
        own = self.own[c] | new if act is _invoke else self.own[c]
        return self.agent(index, agent, self.known[c] | new, own)

    def invoked(self, index: int, c: int) -> int | None:
        """The component agent ``index`` reaches from component ``c`` by its
        invoke, or ``None`` when no strategy proposes; computed once."""
        if c not in self._invoked:
            proposal = _propose(self.agents[c])
            self._invoked[c] = None if proposal is None else self.step(index, c, _invoke, proposal)
        return self._invoked[c]

    def moves(
        self, index: int, c: int, emitted: int, max_emitted: int
    ) -> tuple[tuple[int, ...], int | None]:
        """What agent ``index`` can do from component ``c`` while the records
        of mask ``emitted`` are out: the components its invokes reach from
        the components of ``reach``, in that order, and the last of those
        components that knows all of ``emitted`` and proposes nothing, or
        ``None``.  Computed once per (component, emitted) pair, where the
        first computation raises :class:`ScenarioError` at an invoke that
        would take the emitted records past ``max_emitted``."""
        move = self._moves.get((c, emitted))
        if move is None:
            invokes, quiet = [], None
            for x in self.reach(index, c, emitted):
                nxt = self.invoked(index, x)
                if nxt is None:
                    quiet = x if self.known[x] == emitted else quiet
                elif (emitted | self.own[nxt]).bit_count() > max_emitted:
                    raise ScenarioError(
                        f"enumeration bound exceeded: more than {max_emitted} emitted events"
                    )
                else:
                    invokes.append(nxt)
            move = self._moves[c, emitted] = (tuple(invokes), quiet)
        return move

    def reach(self, index: int, c: int, emitted: int) -> dict[int, None]:
        """Every component agent ``index`` reaches from component ``c`` by
        delivering the records of mask ``emitted`` that it lacks, one at a
        time and in any order, depth first.

        A delivery into an unlocked component runs only when its successor
        is not interned yet.  A delivery never sets the lock and leaves the
        spent set as it is, and the node finds the record fresh (its known
        records are emitted ones, and those have distinct keys), so the
        successor's key is the component's with the record's bit added, and
        the fold of that known log is the interned component's.  Whether a
        record releases a lock depends on the path, so a locked component's
        delivery of a bit runs, once."""
        found, stack = {c: None}, [c]
        while stack:
            x = stack.pop()
            known, a = self.known[x], self.agents[x]
            locked = a.runner._locked
            missing = emitted & ~known
            while missing:
                bit = missing.bit_length() - 1
                missing ^= 1 << bit
                if locked:
                    y = self._delivered.get((x, bit))
                    if y is None:
                        y = self.step(index, x, _deliver, [self.records[bit]])
                        self._delivered[x, bit] = y
                else:
                    y = self._ids.get((index, known | 1 << bit, False, a.spent))
                    if y is None:
                        y = self.step(index, x, _deliver, [self.records[bit]])
                if y not in found:
                    found[y] = None
                    stack.append(y)
        return found

    def mask(self, records: Iterable[EventRecord]) -> int:
        """The mask of ``records``, numbering the lines not seen before."""
        mask = 0
        for record in records:
            hit = self._by_id.get(id(record))
            if hit is None:
                bit = self._lines.setdefault(records_to_ndjson([record]), len(self._lines))
                self.records.setdefault(bit, record)
                hit = self._by_id[id(record)] = (record, bit)
            mask |= 1 << hit[1]
        return mask
