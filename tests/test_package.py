"""The package surface: which submodules each entry point loads, and the
export table against the submodules that define its names."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import swarmproto

SRC = Path(swarmproto.__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
DESIGN_MODULES = {"errors", "model", "projection", "wellformed"}


def _loaded_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter (this one has imported every
    submodule already); return the swarmproto submodules it loaded."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('swarmproto.')))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=FIXTURES,
        check=True,
    )
    return {name.removeprefix("swarmproto.") for name in proc.stdout.splitlines()[-1].split()}


def test_bare_import_loads_no_submodule() -> None:
    assert _loaded_after("import swarmproto") == set()


def test_design_check_through_the_package_loads_only_its_layers() -> None:
    code = """
import swarmproto
protocol = swarmproto.parse_protocol(open("transport_protocol.json").read())
subs = swarmproto.parse_subscriptions(open("transport_subs.json").read())
assert swarmproto.check_swarm_protocol(protocol, subs).ok
projected = swarmproto.project(protocol, subs, "robot")
assert swarmproto.check_projection(protocol, subs, "robot", projected.shape).ok
"""
    assert _loaded_after(code) == DESIGN_MODULES


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "transport_protocol.json", "transport_subs.json"],
        ["project", "transport_protocol.json", "transport_subs.json", "--role", "robot"],
        ["check-machine", "transport_protocol.json", "transport_subs.json", "robot_machine.json",
         "--role", "robot"],
        ["dot", "transport_protocol.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_design_commands_never_load_the_simulator(argv) -> None:
    code = f"from swarmproto import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_after(code) == DESIGN_MODULES | {"cli"}


def test_simulate_loads_no_checker() -> None:
    code = 'from swarmproto import cli\nassert cli.main(["simulate", "scenario_ok.json", "--seed", "7"]) == 0'
    assert _loaded_after(code) == {"cli", "errors", "model", "sim", "runner", "eventlog", "transport"}


def test_submodule_resolves_after_bare_import() -> None:
    assert "sim" in _loaded_after("import swarmproto\nswarmproto.sim.run_scenario")


def test_exports_are_the_defining_modules_objects() -> None:
    assert set(swarmproto._EXPORTS) == {m.name for m in pkgutil.iter_modules(swarmproto.__path__)}
    for module_name, names in swarmproto._EXPORTS.items():
        module = importlib.import_module(f"swarmproto.{module_name}")
        assert getattr(swarmproto, module_name) is module
        for name in names:
            value = getattr(swarmproto, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_all_is_sorted_and_matches_star_import_and_dir() -> None:
    assert len(swarmproto.__all__) == 53
    assert swarmproto.__all__ == sorted(set(swarmproto.__all__))
    namespace: dict = {}
    exec("from swarmproto import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == swarmproto.__all__
    assert set(swarmproto.__all__) <= set(dir(swarmproto))


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        swarmproto.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from swarmproto import no_such_name  # noqa: F401
