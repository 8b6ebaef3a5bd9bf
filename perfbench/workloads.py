"""The four workloads: set-up, one op at a time, and output checks.

A workload imports the package it measures when it is built, so building
one after ``swarmproto`` was dropped from ``sys.modules`` is a full cold
set-up.  ``prepare(i)`` makes op ``i``'s input (untimed) and returns the op
as a callable; ``check(i, output, raised)`` and ``finish()`` return how many
ops failed.  Program functions are looked up on their modules at call time,
so a traced run sees the wrappers ``tracing`` installs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path
from typing import Any, Callable

import checks
import generators

DATA = Path(__file__).resolve().parent / "data"


class SetupError(RuntimeError):
    """The program failed during set-up, so no op can be measured."""


def _module(name: str) -> Any:
    return importlib.import_module(f"swarmproto.{name}")


class DesignCheck:
    """Designer CI loop: parse, check, then project, serialize, parse and
    check conformance for every role."""

    name = "design-check"
    trace_ops_per_s = 3.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.model = _module("model")
        self.wellformed = _module("wellformed")
        self.projection = _module("projection")
        self.current = generators.design_input(seed, 0)

    def warm_up(self) -> None:
        d = generators.design_input(self.seed, 0, states=generators.MIN_STATES)
        if not checks.design_ok(d.expected, *self._run(d)):
            raise SetupError("design-check warm-up op gave a wrong verdict")

    def prepare(self, i: int) -> Callable[[], Any]:
        if i:
            self.current = generators.design_input(self.seed, i)
        d = self.current
        return lambda: self._run(d)

    def _run(self, d: generators.DesignInput) -> tuple[Any, list[Any]]:
        model, projection = self.model, self.projection
        protocol = model.parse_protocol(d.protocol_json)
        subs = model.parse_subscriptions(d.subs_json)
        verdict = self.wellformed.check_swarm_protocol(protocol, subs)
        conformance = []
        for role in generators.ROLES:
            shape = projection.project(protocol, subs, role).shape
            impl = model.parse_machine_shape(model.serialize_machine_shape(shape))
            conformance.append(projection.check_projection(protocol, subs, role, impl))
        return verdict, conformance

    def check(self, i: int, output: Any, raised: bool) -> int:
        d = self.current
        return int(raised or not checks.design_ok(d.expected, *output))

    def finish(self) -> int:
        return 0


STATION_SUBSCRIPTION = frozenset({"requested", "bid", "selected"})


class ReplicaFold:
    """One delivery into a replica running four transport-order sessions.

    Episodes run back to back; each gets a fresh ``NodeLog`` and fresh
    runners, built outside the timed op.  The state of every runner is
    checked against the reference fold when an episode ends, and at the end
    of the run over the records delivered so far.
    """

    name = "replica-fold"
    trace_ops_per_s = 100.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.eventlog = _module("eventlog")
        self.runner = _module("runner")
        self.station = _module("transport").STATION
        self.episode = -1
        self._next_episode()

    def _next_episode(self) -> None:
        self.episode += 1
        ep = generators.replica_episode(self.seed, self.episode)
        make = self.eventlog.EventRecord
        self.plain = ep.records
        self.records = [
            make(r.event_type, r.payload, r.lamport, r.node_id, r.seq, r.session_id)
            for r in ep.records
        ]
        self.batches = ep.batches
        self.pos = 0
        self.delivered: set[int] = set()
        self.ops = self.raised = 0
        self.node = self.eventlog.NodeLog(node_id="replica")
        self.runners = [
            self.runner.MachineRunner(self.station, {}, s, subscription=STATION_SUBSCRIPTION)
            for s in generators.SESSIONS
        ]

    def warm_up(self) -> None:
        for i in range(10):
            self.prepare(i)()
        if self._episode_failures():
            raise SetupError("replica-fold warm-up diverged from the reference fold")
        self.episode = -1
        self._next_episode()

    def prepare(self, i: int) -> Callable[[], Any]:
        if self.pos == len(self.batches):
            self._next_episode()
        indices = self.batches[self.pos]
        self.pos += 1
        self.delivered.update(indices)
        batch = [self.records[k] for k in indices]
        node, runners = self.node, self.runners

        def deliver() -> list[Any]:
            fresh = node.receive(batch)
            for runner in runners:
                runner.advance(fresh)
            return [runner.state for runner in runners]

        return deliver

    def _episode_failures(self) -> int:
        delivered = [self.plain[k] for k in sorted(self.delivered)]
        if all(checks.replica_ok(r, s, delivered) for r, s in zip(self.runners, generators.SESSIONS)):
            return 0
        return self.ops - self.raised

    def check(self, i: int, output: Any, raised: bool) -> int:
        self.ops += 1
        self.raised += raised
        failed = int(raised)
        if self.pos == len(self.batches):
            failed += self._episode_failures()
            self.ops = self.raised = 0
        return failed

    def finish(self) -> int:
        return self._episode_failures() if self.ops else 0


def simulate(cli: Any, scenario: Path, sim_seed: int) -> tuple[int, str]:
    """Exit code and captured stdout of ``simulate <scenario> --seed s --json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", str(scenario), "--seed", str(sim_seed), "--json"])
    return code, out.getvalue()


class SwarmSim:
    """``swarmproto simulate <scenario> --seed s --json`` through ``cli.main``."""

    name = "swarm-sim"
    trace_ops_per_s = 4.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.cli = _module("cli")
        text = generators.sim_scenario_json()
        reference = json.loads((DATA / "sim_reference.json").read_text(encoding="utf-8"))
        if reference["scenario_sha256"] != checks.output_digest(text):
            raise SetupError("sim_reference.json was recorded for another scenario")
        self.digests = reference["digests"]
        self.path = work / "swarm-sim-scenario.json"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(text, encoding="utf-8")
        self.sim_seed = 0

    def warm_up(self) -> None:
        if not checks.sim_ok(*simulate(self.cli, self.path, 1), self.digests["1"]):
            raise SetupError("swarm-sim warm-up run differs from the recorded output")

    def prepare(self, i: int) -> Callable[[], Any]:
        self.sim_seed = s = generators.sim_seed(self.seed, i)
        return lambda: simulate(self.cli, self.path, s)

    def check(self, i: int, output: Any, raised: bool) -> int:
        return int(raised or not checks.sim_ok(*output, self.digests[str(self.sim_seed)]))

    def finish(self) -> int:
        return 0


class ModelCheck:
    """``enumerate_schedules(scenario, max_emitted=8)`` on the three stock
    scenarios in rotation."""

    name = "model-check"
    trace_ops_per_s = 4.5

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.sim = _module("sim")
        self.scenarios = {
            name: self.sim.parse_scenario((DATA / f"model_{name}.json").read_text(encoding="utf-8"))
            for name in generators.MODEL_SCENARIOS
        }
        self.answers = json.loads((DATA / "model_answers.json").read_text(encoding="utf-8"))
        self.current = generators.MODEL_SCENARIOS[0]

    def warm_up(self) -> None:
        result = self.sim.enumerate_schedules(self.scenarios["actor_blind"], max_emitted=8)
        if not checks.model_ok(result, self.answers["actor_blind"]):
            raise SetupError("model-check warm-up gave a wrong verdict")

    def prepare(self, i: int) -> Callable[[], Any]:
        self.current = name = generators.model_scenario(self.seed, i)
        scenario = self.scenarios[name]
        return lambda: self.sim.enumerate_schedules(scenario, max_emitted=8)

    def check(self, i: int, output: Any, raised: bool) -> int:
        return int(raised or not checks.model_ok(output, self.answers[self.current]))

    def finish(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (DesignCheck, ReplicaFold, SwarmSim, ModelCheck)}
