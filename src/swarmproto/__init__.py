"""Swarm protocols: declarative peer-to-peer workflow graphs, role
projection, well-formedness checking, and an event-sourced machine runtime
over Lamport-ordered replicated logs, with a deterministic swarm simulator.

``import swarmproto`` loads no submodule: each public name imports the
submodule that defines it on first use (PEP 562), so a design check never
loads the simulator, the runner or the event log.
"""

import importlib

# Each submodule, with the public names it defines.
_EXPORTS = {
    "errors": (
        "CommandDisabledError", "ConflictError", "DefinitionError", "HandlerError", "ParseError",
        "PreconditionError", "ProjectionAmbiguity", "ScenarioError", "SwarmProtoError",
    ),
    "eventlog": ("EventRecord", "NodeLog", "compare", "records_from_ndjson", "records_to_ndjson"),
    "model": (
        "CheckResult", "Diagnostic", "Execute", "Input", "MachineShape", "MachineTransition",
        "ProtocolTransition", "SwarmProtocol", "event_types_of", "machine_to_dot",
        "parse_machine_shape", "parse_protocol", "parse_subscriptions", "reachable_states",
        "roles_of", "serialize_machine_shape", "serialize_protocol", "serialize_subscriptions",
        "to_dot", "walk_shape",
    ),
    "projection": ("ProjectedMachine", "check_projection", "project"),
    "runner": (
        "AdvanceResult", "DiscardReport", "MachineDefinition", "MachineRunner", "RunnerState",
        "evaluate", "extract_shape",
    ),
    "sim": (
        "ConsensusReport", "Scenario", "canonical_run", "consensus_check", "enumerate_schedules",
        "parse_scenario", "run_scenario", "trace_to_ndjson",
    ),
    "wellformed": ("check_swarm_protocol",),
    "cli": (),
    "transport": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
