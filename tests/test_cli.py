"""CLI subcommands: verdicts, exit codes, stable JSON output."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from swarmproto.cli import main


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_ok(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"type": "OK"}


def test_check_ok_text(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
    )
    assert (code, out) == (0, "OK\n")


def test_check_branch_blind_subs(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "subs_branch_blind.json"),
    )
    assert code == 1
    assert "WF_BRANCH_BLIND" in out


def test_check_missing_file(capsys, fixtures_dir) -> None:
    code = main(["check", str(fixtures_dir / "nope.json"), str(fixtures_dir / "transport_subs.json")])
    assert code == 2


def test_check_json_error_shape(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "subs_branch_blind.json"),
        "--json",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["type"] == "ERROR"
    assert obj["errors"][0]["code"] == "WF_BRANCH_BLIND"


def test_project_role_robot(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "project",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        "--role",
        "robot",
    )
    assert code == 0
    shape = json.loads(out)
    assert shape["initial"] == "initial"
    assert sorted(shape["subscriptions"]) == ["bid", "requested", "selected"]
    assert len(shape["transitions"]) == 4


def test_project_stdout_pinned(capsys, fixtures_dir) -> None:
    # sha256 of the stdout written by the json.dumps(indent=2, sort_keys=True)
    # writer that the hand-built machine-shape text replaced
    code, out = _run(
        capsys,
        "project",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        "--role",
        "robot",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "740df8e9d0b3e4ae8262a227fa8ce015880845766a7ac605dc4a80b3fb06bfd1"


def test_project_unknown_role(capsys, fixtures_dir) -> None:
    code = main(
        [
            "project",
            str(fixtures_dir / "transport_protocol.json"),
            str(fixtures_dir / "transport_subs.json"),
            "--role",
            "nosuch",
        ]
    )
    assert code == 2


def test_project_ambiguity_exits_1(capsys, fixtures_dir) -> None:
    # `select` emits `bid` too, so the robot's auction state gets two `bid` inputs
    code = main(
        [
            "project",
            str(fixtures_dir / "protocol_guard_clash.json"),
            str(fixtures_dir / "transport_subs.json"),
            "--role",
            "robot",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: state 'auction' would have input 'bid' leading to both "
        "'auction' and 'doIt' (protocol transition 2)\n"
    )


def test_project_dot(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "project",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        "--role",
        "robot",
        "--dot",
    )
    assert code == 0
    assert out.startswith("digraph")


def test_check_machine_ok(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check-machine",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        str(fixtures_dir / "robot_machine.json"),
        "--role",
        "robot",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"type": "OK"}


def test_check_machine_missing_bid(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "check-machine",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        str(fixtures_dir / "robot_machine_missing_bid.json"),
        "--role",
        "robot",
    )
    assert code == 1
    assert "PROJ_MISSING_REACTION" in out
    assert "path=['requested']" in out


def test_check_machine_unknown_role(capsys, fixtures_dir) -> None:
    code = main(
        [
            "check-machine",
            str(fixtures_dir / "transport_protocol.json"),
            str(fixtures_dir / "transport_subs.json"),
            str(fixtures_dir / "robot_machine.json"),
            "--role",
            "nobody",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --role: ")


def test_check_machine_malformed_json(capsys, fixtures_dir, tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        [
            "check-machine",
            str(fixtures_dir / "transport_protocol.json"),
            str(fixtures_dir / "transport_subs.json"),
            str(bad),
            "--role",
            "robot",
        ]
    )
    assert code == 2


def test_simulate_seed_42(capsys, fixtures_dir) -> None:
    code, out = _run(capsys, "simulate", str(fixtures_dir / "scenario_ok.json"), "--seed", "42")
    assert code == 0
    assert "seed 42: converged" in out


def test_simulate_json_report(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys, "simulate", str(fixtures_dir / "scenario_ok.json"), "--seed", "42", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["canonicalPath"] == [0, 1, 1, 2]


def test_simulate_sweep_detects_divergence(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys,
        "simulate",
        str(fixtures_dir / "scenario_branch_blind.json"),
        "--seeds",
        "1..20",
    )
    assert code == 1
    assert "DIVERGED" in out


def test_simulate_sweep_json_lists_runs_in_seed_order(capsys, fixtures_dir) -> None:
    code, out = _run(
        capsys, "simulate", str(fixtures_dir / "scenario_ok.json"), "--seeds", "3..6", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["allConverged"] is True
    assert [run["seed"] for run in doc["runs"]] == [3, 4, 5, 6]
    assert all(run["converged"] for run in doc["runs"])


def test_simulate_one_seed_sweep_json_keeps_the_envelope(capsys, fixtures_dir) -> None:
    scenario = str(fixtures_dir / "scenario_ok.json")
    code, out = _run(capsys, "simulate", scenario, "--seeds", "5..5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["allConverged"] is True
    assert [run["seed"] for run in doc["runs"]] == [5]
    _, single = _run(capsys, "simulate", scenario, "--seed", "5", "--json")
    assert doc["runs"][0] == dict(seed=5, **json.loads(single))


def test_simulate_sweep_rejects_trace(capsys, fixtures_dir, tmp_path) -> None:
    trace = tmp_path / "out.ndjson"
    scenario = str(fixtures_dir / "scenario_ok.json")
    assert main(["simulate", scenario, "--seeds", "1..2", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: --trace: ")
    assert not trace.exists()


def test_simulate_bad_seed_range(fixtures_dir) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fixtures_dir / "scenario_ok.json"), "--seeds", "five..six"])
    assert exc.value.code == 2


def test_simulate_seed_and_seeds_are_exclusive(capsys, fixtures_dir) -> None:
    # --seed used to be ignored silently when --seeds was given too
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fixtures_dir / "scenario_ok.json"), "--seed", "7", "--seeds", "1..2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_simulate_malformed_scenario_exits_2(capsys, fixtures_dir, tmp_path) -> None:
    obj = json.loads((fixtures_dir / "scenario_ok.json").read_text())
    obj["partitionSchedule"][0]["fromStep"] = "40"
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(obj))
    assert main(["simulate", str(bad), "--seeds", "1..3"]) == 2
    assert "scenario.partitionSchedule[0].fromStep" in capsys.readouterr().err


def test_simulate_unknown_machine_exits_2(capsys, fixtures_dir, tmp_path) -> None:
    obj = json.loads((fixtures_dir / "scenario_ok.json").read_text())
    obj["agents"][1]["machine"] = "nope"
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(obj))
    assert main(["simulate", str(bad)]) == 2
    assert capsys.readouterr().err == "error: agent 'agv1': unknown machine 'nope'\n"


def test_simulate_writes_trace(capsys, fixtures_dir, tmp_path) -> None:
    trace = tmp_path / "out.ndjson"
    code, _ = _run(
        capsys,
        "simulate",
        str(fixtures_dir / "scenario_ok.json"),
        "--seed",
        "42",
        "--trace",
        str(trace),
    )
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert all("step" in l and "kind" in l for l in lines)
    assert any(l["kind"] == "invoke" for l in lines)


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_input_that_is_not_utf8_exits_2(capsys, fixtures_dir, tmp_path, command) -> None:
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    subs = str(fixtures_dir / "transport_subs.json")
    argv = ["check", str(bad), subs] if command == "check" else ["simulate", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "UTF-8" in err


def test_simulate_trace_to_missing_directory_exits_2(capsys, fixtures_dir, tmp_path) -> None:
    trace = tmp_path / "no" / "such" / "t.ndjson"
    scenario = str(fixtures_dir / "scenario_ok.json")
    assert main(["simulate", scenario, "--seed", "1", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: --trace: cannot write file: ")
    assert not trace.exists()


def test_dot_outputs_digraph(capsys, fixtures_dir) -> None:
    code, out = _run(capsys, "dot", str(fixtures_dir / "transport_protocol.json"))
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 3


def test_dot_bad_file(fixtures_dir) -> None:
    assert main(["dot", str(fixtures_dir / "nope.json")]) == 2


def test_json_output_byte_stable(capsys, fixtures_dir) -> None:
    args = [
        "check",
        str(fixtures_dir / "transport_protocol.json"),
        str(fixtures_dir / "transport_subs.json"),
        "--json",
    ]
    _, first = _run(capsys, *args)
    _, second = _run(capsys, *args)
    assert first == second


def test_console_entry_point(fixtures_dir) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "swarmproto.cli",
            "check",
            str(fixtures_dir / "transport_protocol.json"),
            str(fixtures_dir / "transport_subs.json"),
            "--json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"type": "OK"}
