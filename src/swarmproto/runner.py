"""Event-sourced machine runtime.

A machine definition gives one role's local behavior: states with payload,
reactions consuming ordered event-type sequences, and commands that emit
events when invoked.  The runner folds a totally ordered event log through
the definition.  Records that match no reaction at the current position are
discarded and surfaced through a hook; when a record the machine can see
arrives that sorts before the last record it consumed, the merged log is
refolded from the newest checkpoint of the fold that lies before that
record, checkpoint zero (the fold before any record) at the latest — the
settled state is always a pure function of the merged log — and previously
applied records that fall off the path are reported as invalidated so the
application can compensate.  A checkpoint holds the fold's state name, a
serialized payload and its place in the log; a runner keeps O(log n) of them.
"""

from __future__ import annotations

import copy
import marshal
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import CommandDisabledError, DefinitionError, HandlerError
from .eventlog import EventRecord, NodeLog, RecordKey, index_of, insert_ordered, merge_records
from .model import Execute, Input, MachineShape, MachineTransition

ReactionHandler = Callable[[Any, Sequence[EventRecord]], Any]
CommandHandler = Callable[..., list[Any]]

UNEXPECTED = "unexpected"
INVALIDATED = "invalidated"

# Records a fold consumes between two checkpoints, at least.
_STRIDE = 32


def _freeze(payload: Any) -> Any:
    """``payload`` as a checkpoint keeps it: marshal bytes, or a deep copy
    in a list when marshal refuses it.  Nothing else holds the result."""
    try:
        return marshal.dumps(payload)
    except ValueError:
        return [copy.deepcopy(payload)]


def _thaw(frozen: Any) -> Any:
    """A fresh payload from a :func:`_freeze` result, which stays unchanged."""
    if type(frozen) is bytes:
        return marshal.loads(frozen)
    return copy.deepcopy(frozen[0])


def _copy(payload: Any) -> Any:
    """A deep copy of ``payload``.  Exact built-in types (dict, list, tuple,
    set, str, int, float, bool, None, bytes) take a marshal round trip, which
    keeps key order, container types, shared sub-objects and cycles.  Marshal
    refuses anything else (a subclass, a custom object, nesting deeper than
    about 2,000), so ``__deepcopy__`` semantics hold for such payloads."""
    frozen = _freeze(payload)
    return marshal.loads(frozen) if type(frozen) is bytes else frozen[0]


@dataclass(frozen=True)
class Reaction:
    """Consume ``event_types`` in order, then move to ``target``.

    The handler maps (current payload, matched records) to the new payload.
    The first event type selects the reaction, so first types must be unique
    within a state.
    """

    event_types: tuple[str, ...]
    target: str
    handler: ReactionHandler


@dataclass(frozen=True)
class Command:
    """State-local action emitting ``emitted_types`` when invoked.

    The handler maps (current payload, *invocation args) to a list of event
    payloads, one per emitted type.
    """

    name: str
    emitted_types: tuple[str, ...]
    handler: CommandHandler


@dataclass
class _StateDef:
    reactions: dict[str, Reaction] = field(default_factory=dict)  # keyed by first event type
    commands: dict[str, Command] = field(default_factory=dict)


class MachineDefinition:
    """Builder for one role's machine: states, reactions, commands.  Each
    call checks what it adds (distinct first event types and command names
    per state) and changes nothing if it raises, so no later check is needed."""

    def __init__(self, role: str, initial: str) -> None:
        self.role = role
        self.initial = initial
        self._states: dict[str, _StateDef] = {initial: _StateDef()}

    def state(self, name: str) -> "MachineDefinition":
        self._states.setdefault(name, _StateDef())
        return self

    def react(
        self,
        source: str,
        event_types: Sequence[str],
        target: str,
        handler: ReactionHandler,
    ) -> "MachineDefinition":
        if not event_types:
            raise DefinitionError(f"reaction in '{source}' consumes no events")
        first = event_types[0]
        st = self.state(source)._states[source]
        if first in st.reactions:
            raise DefinitionError(f"state '{source}' has two reactions selected by '{first}'")
        self.state(target)
        st.reactions[first] = Reaction(tuple(event_types), target, handler)
        return self

    def command(
        self,
        state: str,
        name: str,
        emitted_types: Sequence[str],
        handler: CommandHandler,
    ) -> "MachineDefinition":
        self.state(state)
        if name in self._states[state].commands:
            raise DefinitionError(f"state '{state}' already has command '{name}'")
        self._states[state].commands[name] = Command(name, tuple(emitted_types), handler)
        return self

    def states(self) -> list[str]:
        return list(self._states)

    def reactions(self, state: str) -> tuple[Reaction, ...]:
        return tuple(self._states[state].reactions.values())

    def commands(self, state: str) -> Mapping[str, Command]:
        return MappingProxyType(self._states[state].commands)

    @property
    def subscriptions(self) -> frozenset[str]:
        """All event types referenced by reactions."""
        return frozenset(
            e for st in self._states.values() for r in st.reactions.values() for e in r.event_types
        )


def extract_shape(definition: MachineDefinition) -> MachineShape:
    """Interchange shape of a definition, for conformance checking.

    Multi-event reactions expand into chains of Input edges through
    synthetic intermediate states; commands become Execute self-loops.
    """
    transitions: list[MachineTransition] = []
    synth_count: dict[str, int] = {}
    for state in definition.states():
        for r in definition.reactions(state):
            current = state
            for ev in r.event_types[:-1]:
                synth_count[state] = synth_count.get(state, 0) + 1
                synth = f"{state}|{synth_count[state]}"
                transitions.append(MachineTransition(current, synth, Input(ev)))
                current = synth
            transitions.append(MachineTransition(current, r.target, Input(r.event_types[-1])))
    for state in definition.states():
        for cmd in definition.commands(state).values():
            transitions.append(
                MachineTransition(state, state, Execute(cmd.name, cmd.emitted_types))
            )
    return MachineShape(
        initial=definition.initial,
        subscriptions=definition.subscriptions,
        transitions=tuple(transitions),
    )


@dataclass(frozen=True)
class InFlightReaction:
    """A multi-event reaction that has matched a prefix of its event types."""

    event_types: tuple[str, ...]
    target: str
    matched: tuple[EventRecord, ...]


@dataclass(frozen=True)
class RunnerState:
    """Immutable snapshot of a runner.

    ``payload`` is the fold's own object until the next handler runs, and
    every snapshot taken before then shares it, so treat it as read-only.
    The fold copies it before that handler, so a snapshot never sees a
    later change.  A copy of exact built-in types (dict, list, tuple, set,
    str, int, float, bool, None, bytes) is a marshal round trip, any other
    payload a ``copy.deepcopy``.  Unlike ``deepcopy``, marshal makes new
    immutable leaves too, such as ``str`` and ``float``, so a payload
    holding a NaN does not compare equal to its copy: list and dict
    equality finds an equal NaN only through its identity shortcut.  A
    write into the payload breaks this contract, and it can outlive a
    replay: the next handler runs on a copy of the written payload, a later
    checkpoint serializes what the fold holds then, and a replay that
    resumes from that checkpoint keeps the write, where one that resumes
    from checkpoint zero drops it.
    ``enabled_commands`` is empty while a multi-event reaction is open or a
    locally invoked command awaits its settling transition (or the fold of
    its last emitted record; see :meth:`MachineRunner.invoke`).
    ``processed_count`` counts records consumed by this evaluation (matching
    session and subscription), applied or discarded.
    """

    state_name: str
    payload: Any
    enabled_commands: frozenset[str]
    in_flight: InFlightReaction | None
    processed_count: int


@dataclass(frozen=True)
class DiscardReport:
    """A consumed record that is not part of the current run.

    ``reason`` is ``unexpected`` (matched no reaction position) or
    ``invalidated`` (applied by a previous evaluation, removed by
    retroactive replay).
    """

    record: EventRecord
    reason: str


@dataclass(slots=True)
class _Checkpoint:
    """A fold just after a reaction completed.  ``last`` is the record that
    completed it, ``payload`` the :func:`_freeze` of its payload, ``applied``
    the length of its applied list then and ``consumed`` that plus the
    length of its reports.  Checkpoint zero, before any record, has ``last``
    None and counts 0.  Forks share checkpoints, so none is changed once
    built.  Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, about twice the cost, and every fold builds one."""

    last: EventRecord | None
    state: str
    payload: Any
    applied: int
    consumed: int


def _thinned(marks: tuple[_Checkpoint, ...]) -> tuple[_Checkpoint, ...]:
    """``marks``, oldest first, without each checkpoint whose two neighbours
    lie no farther apart than the newer neighbour lies from the newest
    checkpoint.  Gaps then at least double every two checkpoints back, so
    O(log n) stay, and the newest one before a record that lies d consumed
    records behind the newest lies at most max(d, one gap) before it.
    Index 0, checkpoint zero, is never dropped: the loop drops ``kept[i + 1]``."""
    kept = list(marks)
    tip = kept[-1].consumed
    for i in range(len(kept) - 3, -1, -1):
        newer = kept[i + 2].consumed
        if newer - kept[i].consumed <= tip - newer:
            del kept[i + 1]
    return tuple(kept)


class _Fold:
    """Mutable fold of ordered records through a definition.

    ``marks``, a tuple forks share and never change in place, starts with
    checkpoint zero, the fold before any record.  After a reaction completes,
    once ``_STRIDE`` records have been consumed since the newest checkpoint,
    the fold takes another (thinned by :func:`_thinned`); every refold
    resumes from one (see :meth:`resumed`).
    """

    def __init__(self, definition: MachineDefinition, initial_payload: Any, session_id: str,
                 subscription: frozenset[str]) -> None:
        zero = _Checkpoint(None, definition.initial, _freeze(initial_payload), 0, 0)
        self._fill(definition, session_id, subscription, (zero,), [], [])

    def _fill(self, definition: MachineDefinition, session_id: str, subscription: frozenset[str],
              marks: tuple[_Checkpoint, ...], applied: list[EventRecord],
              reports: list[DiscardReport]) -> None:
        """Set every attribute as the fold stood at ``marks[-1]``, one by one:
        a bulk ``__dict__`` fill costs CPython's compact attribute layout."""
        mark = marks[-1]
        self.defn = definition
        self.session_id = session_id
        self.subscription = subscription
        self.state = mark.state
        self.payload = _thaw(mark.payload)
        self.open: Reaction | None = None
        self.matched: list[EventRecord] = []
        self.applied = applied
        self.reports = reports
        self.last = mark.last  # last consumed record
        self.shared = False  # a snapshot or a fork holds self.payload
        self.marks = marks

    def _fork(self) -> "_Fold":
        """An independent copy.  It shares the definition, the records, the
        checkpoints and the payload, which both sides then mark shared:
        handlers may mutate a payload in place, so whichever side runs one
        first copies it."""
        self.shared = True
        twin = object.__new__(_Fold)
        twin.__dict__.update(self.__dict__)
        twin.matched = list(self.matched)
        twin.applied = list(self.applied)
        twin.reports = list(self.reports)
        return twin

    def feed(
        self,
        log: Sequence[EventRecord],
        start: int = 0,
        invalidated_keys: frozenset = frozenset(),
        on_transition: Callable[[], None] | None = None,
    ) -> None:
        """Fold ``log[start:]`` on from the fold's current position.  Records
        it cannot see are skipped; a failing handler raises
        :class:`HandlerError` with the record's position in ``log``.  Discards
        of ``invalidated_keys`` are reported as invalidated."""
        for idx in range(start, len(log)):
            rec = log[idx]
            if not self.sees(rec):
                continue
            self.last = rec
            if self.open is not None:
                expected = self.open.event_types[len(self.matched)]
                if rec.event_type == expected:
                    self.matched.append(rec)
                    self.applied.append(rec)
                    if len(self.matched) == len(self.open.event_types):
                        self._complete(idx, on_transition)
                else:
                    # A foreign subscribed event does not abort the open
                    # reaction; it is discarded and matching continues.
                    self._discard(rec, invalidated_keys)
                continue
            reaction = self.defn._states[self.state].reactions.get(rec.event_type)
            if reaction is None:
                self._discard(rec, invalidated_keys)
                continue
            self.open = reaction
            self.matched = [rec]
            self.applied.append(rec)
            if len(reaction.event_types) == 1:
                self._complete(idx, on_transition)

    def sees(self, rec: EventRecord) -> bool:
        """Whether ``feed`` consumes ``rec``: same session, subscribed type."""
        return rec.session_id == self.session_id and rec.event_type in self.subscription

    def _complete(self, idx: int, on_transition: Callable[[], None] | None) -> None:
        """Run the open reaction's handler and move to its target.  A shared
        payload is copied first (``_copy``: marshal for exact built-in types,
        ``deepcopy`` otherwise), so the handler may write it in place."""
        assert self.open is not None
        if self.shared:
            self.payload = _copy(self.payload)
            self.shared = False
        try:
            self.payload = self.open.handler(self.payload, tuple(self.matched))
        except Exception as exc:
            raise HandlerError(
                f"reaction handler failed in state '{self.state}': {exc}", record_index=idx
            ) from exc
        self.state = self.open.target
        self.open = None
        self.matched = []
        consumed = len(self.applied) + len(self.reports)
        if consumed - self.marks[-1].consumed >= _STRIDE:
            frozen = _freeze(self.payload)
            mark = _Checkpoint(self.last, self.state, frozen, len(self.applied), consumed)
            self.marks = _thinned(self.marks + (mark,))
        if on_transition is not None:
            on_transition()

    def resumed(self, before: EventRecord | None) -> "_Fold":
        """A new fold restored from this fold's newest checkpoint whose last
        record sorts before ``before``, keeping the checkpoints up to it:
        checkpoint zero if ``before`` is None or no other one qualifies.
        This fold is left as it is.  The restored discards are reported as
        unexpected, as a refold from checkpoint zero would report them: they
        were discards of this fold too, so none is a record it applied,
        while its own reports may call some invalidated."""
        marks = self.marks
        i = len(marks) - 1 if before is not None else 0
        while i and not marks[i].last.order_key < before.order_key:
            i -= 1
        mark = marks[i]
        reports = [
            DiscardReport(r.record, UNEXPECTED) if r.reason == INVALIDATED else r
            for r in self.reports[: mark.consumed - mark.applied]
        ]
        fold = object.__new__(_Fold)
        fold._fill(self.defn, self.session_id, self.subscription, marks[: i + 1],
                   self.applied[: mark.applied], reports)
        return fold

    def _discard(self, rec: EventRecord, invalidated_keys: frozenset) -> None:
        reason = INVALIDATED if rec.key in invalidated_keys else UNEXPECTED
        self.reports.append(DiscardReport(rec, reason))

    def snapshot(self, enabled: bool = True) -> RunnerState:
        """The fold as a :class:`RunnerState`.  It hands out the fold's own
        payload and marks it shared, so reading ``.state`` costs no copy; the
        next handler runs on a copy (see ``_complete``)."""
        in_flight = None
        if self.open is not None:
            in_flight = InFlightReaction(
                event_types=self.open.event_types,
                target=self.open.target,
                matched=tuple(self.matched),
            )
        commands: frozenset[str] = frozenset()
        if enabled and in_flight is None:
            # The dict itself, not the read-only view: every ``.state`` read comes here.
            commands = frozenset(self.defn._states[self.state].commands)
        self.shared = True
        return RunnerState(
            state_name=self.state,
            payload=self.payload,
            enabled_commands=commands,
            in_flight=in_flight,
            processed_count=len(self.applied) + len(self.reports),
        )


def evaluate(
    definition: MachineDefinition,
    initial_payload: Any,
    ordered_log: Sequence[EventRecord],
    session_id: str,
    subscription: frozenset[str] | None = None,
) -> tuple[RunnerState, list[DiscardReport]]:
    """Fold ``ordered_log`` (sorted by order key) through the definition.

    Records with a foreign session or unsubscribed event type are invisible;
    every other record is either applied to exactly one reaction position or
    reported exactly once.  ``subscription`` defaults to the definition's own.
    """
    if subscription is None:
        subscription = definition.subscriptions
    fold = _Fold(definition, initial_payload, session_id, subscription)
    fold.feed(ordered_log)
    return fold.snapshot(), fold.reports


@dataclass(frozen=True)
class AdvanceResult:
    state: RunnerState
    reports: tuple[DiscardReport, ...]
    replayed: bool


class MachineRunner:
    """Executes one role's machine against a replicated log.

    The runner holds the log it has evaluated so far.  ``advance`` merges
    newly received records.  Only a *visible* record (this session, a
    subscribed event type) that sorts before the last record the fold
    consumed triggers a replay (``replayed=True``): the log is refolded
    from the newest checkpoint of the fold that lies before that record,
    checkpoint zero at the latest, with previously applied, now off-path
    records reported as invalidated.  The result is the same as a refold
    from checkpoint zero.  Every other arrival, including late records the
    machine cannot see, continues the fold incrementally.

    ``on_state`` receives one immutable snapshot per settled state, in
    processing order, and every settled state again on a replay, which for
    such a runner always refolds from checkpoint zero; ``on_discard``
    receives every discard report.  If either observer raises, the call is
    rolled back as for a failing handler (see :meth:`advance`).

    A runner is bound to one logical thread (it is the single consumer of
    its log); the snapshots it hands out are safe to share.  A snapshot's
    payload is the fold's own object until the next handler runs, so treat
    it as read-only: the fold copies it before that handler, and never
    changes it after handing it out.
    """

    def __init__(
        self,
        definition: MachineDefinition,
        initial_payload: Any,
        session_id: str,
        subscription: frozenset[str] | None = None,
        on_state: Callable[[RunnerState], None] | None = None,
        on_discard: Callable[[DiscardReport], None] | None = None,
    ) -> None:
        self.definition = definition
        self.session_id = session_id
        self.subscription = (
            frozenset(subscription) if subscription is not None else definition.subscriptions
        )
        self._on_state = on_state
        self._on_discard = on_discard
        self._log: list[EventRecord] = []
        self._by_key: dict = {}
        self._invalidated_keys: set = set()
        self._fold = _Fold(definition, initial_payload, session_id, self.subscription)
        self._locked = False
        self._awaited: RecordKey | None = None  # visible last record of the latest invoke
        if on_state is not None:
            on_state(self.state)

    def _fork(self) -> "MachineRunner":
        """An independent copy with the same log, fold, lock and invalidation
        history, sharing the definition, the observers and the records."""
        twin = object.__new__(MachineRunner)
        twin.__dict__.update(self.__dict__)
        twin._log = list(self._log)
        twin._by_key = dict(self._by_key)
        twin._invalidated_keys = set(self._invalidated_keys)
        twin._fold = self._fold._fork()
        return twin

    @property
    def state(self) -> RunnerState:
        return self._fold.snapshot(enabled=not self._locked)

    @property
    def log(self) -> tuple[EventRecord, ...]:
        return tuple(self._log)

    @property
    def applied_records(self) -> tuple[EventRecord, ...]:
        """Records applied by the current evaluation, in order."""
        return tuple(self._fold.applied)

    @property
    def current_discards(self) -> tuple[DiscardReport, ...]:
        """Discard reports of the current evaluation."""
        return tuple(self._fold.reports)

    @property
    def invalidated_keys(self) -> frozenset:
        """Keys of records ever reported invalidated by this runner."""
        return frozenset(self._invalidated_keys)

    def advance(self, records: Iterable[EventRecord]) -> AdvanceResult:
        """Merge ``records`` into the log and fold what they change.

        One decision per call: if the first fresh record the fold can see
        sorts before the last record it consumed, the whole log is refolded
        (``replayed=True``), from the newest checkpoint before that record
        or, with an ``on_state`` observer, from checkpoint zero; the reports
        are those of the whole refold either way.  Otherwise the fold
        continues from that record's position, and a call that brings no
        visible record folds nothing.

        If a handler or an observer raises, the fresh records are dropped and
        the prior log is refolded from checkpoint zero with callbacks off, so
        the runner is left as it was, ``invalidated_keys`` included (observers
        may have seen the failed fold), and the exception propagates.
        ``invalidated_keys`` changes only once a replay call has succeeded:
        ``on_discard`` does not yet find an invalidated report's key in it.
        """
        fresh = merge_records(self._by_key, records)
        if not fresh:
            return AdvanceResult(self.state, (), False)
        fold, locked = self._fold, self._locked
        fresh = insert_ordered(self._log, fresh)
        first = next(filter(fold.sees, fresh), None)
        replayed = (
            first is not None and fold.last is not None and first.order_key < fold.last.order_key
        )
        try:
            if replayed:
                # An observer must see every settled state again.
                resumed = fold.resumed(first if self._on_state is None else None)
                invalidated = frozenset(r.key for r in fold.applied[len(resumed.applied):])
                reports = self._refold(resumed, invalidated, self._settled)
            else:
                before = len(fold.reports)
                if first is not None:
                    fold.feed(self._log, index_of(self._log, first), on_transition=self._settled)
                reports = fold.reports[before:]
            if self._on_discard is not None:
                for rep in reports:
                    self._on_discard(rep)
        except Exception:
            for rec in fresh:
                del self._by_key[rec.key]
            self._log = [r for r in self._log if r.key in self._by_key]
            # Discards the pre-call fold reported as invalidated keep that reason.
            invalidated = frozenset(r.record.key for r in fold.reports if r.reason == INVALIDATED)
            self._refold(fold.resumed(None), invalidated)
            self._locked = locked
            raise
        if replayed:  # only a replay reports a record invalidated
            self._invalidated_keys.update(r.record.key for r in reports if r.reason == INVALIDATED)
        if self._awaited in self._by_key:  # the fold consumed it, applied or discarded
            self._locked = False
        return AdvanceResult(self.state, tuple(reports), replayed)

    def _refold(self, fold: _Fold, invalidated: frozenset,
                on_transition: Callable[[], None] | None = None) -> list[DiscardReport]:
        """Replace the fold with ``fold``, restored by :meth:`_Fold.resumed`,
        fed from just after its checkpoint's last record (from the start for
        checkpoint zero), and return its reports, where discards of
        ``invalidated`` keys are invalidated."""
        start = 0
        if fold.last is not None:
            start = index_of(self._log, fold.last) + 1
            # A checkpoint follows a transition, which a refold from checkpoint zero settles.
            self._locked = False
        self._fold = fold  # before the feed: _settled snapshots self._fold
        fold.feed(self._log, start, invalidated, on_transition)
        return fold.reports

    def invoke(self, cmd: str, args: Sequence[Any], node_log: NodeLog) -> list[EventRecord]:
        """Invoke an enabled command: emit its events to the local node log.

        The command set is disabled until the runner reaches its next
        settled state or its fold consumes (applies or discards) the last
        emitted record, whichever comes first.  An emission ending in a
        record the runner cannot see keeps the commands disabled until the
        next settled state; a command that emits no record disables nothing.
        """
        snapshot = self.state
        if cmd not in snapshot.enabled_commands:
            raise CommandDisabledError(
                f"command '{cmd}' is not enabled in state '{snapshot.state_name}'"
            )
        command = self.definition.commands(snapshot.state_name)[cmd]
        try:
            payloads = command.handler(_copy(self._fold.payload), *args)
        except Exception as exc:
            raise HandlerError(f"command handler '{cmd}' failed: {exc}") from exc
        if not isinstance(payloads, list) or len(payloads) != len(command.emitted_types):
            raise HandlerError(
                f"command '{cmd}' must return one payload per emitted type "
                f"({len(command.emitted_types)} expected)"
            )
        records = [
            node_log.append(etype, payload, self.session_id)
            for etype, payload in zip(command.emitted_types, payloads)
        ]
        self._locked = bool(records)
        self._awaited = records[-1].key if records and self._fold.sees(records[-1]) else None
        return records

    def _settled(self) -> None:
        self._locked = False
        if self._on_state is not None:
            self._on_state(self._fold.snapshot(enabled=True))
