"""Command-line surface: check, project, check-machine, simulate, dot.

Exit codes: 0 for OK / converged verdicts, 1 for failed checks or
non-converged runs, 2 for usage, parse, or I/O problems.  ``--json`` output
is canonical (sorted keys, no timestamps) and byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path
from types import ModuleType

from .errors import ParseError, PreconditionError, ScenarioError, SwarmProtoError
from .model import (
    CheckResult,
    machine_to_dot,
    parse_machine_shape,
    parse_protocol,
    parse_subscriptions,
    serialize_machine_shape,
    to_dot,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


_LOCUS_NAMES = {"eventType": "event"}  # text-output name of a Diagnostic.to_obj() field


def _emit_result(result: CheckResult, as_json: bool) -> int:
    if as_json:
        print(json.dumps(result.to_obj(), sort_keys=True))
    elif result.ok:
        print("OK")
    else:
        print(f"ERROR: {len(result.errors)} violation(s)")
        for d in result.errors:
            fields = d.to_obj()
            del fields["code"], fields["message"]
            locus = [f"{_LOCUS_NAMES.get(k, k)}={v}" for k, v in fields.items()]
            where = f" [{' '.join(locus)}]" if locus else ""
            print(f"  {d.code}{where}: {d.message}")
    return 0 if result.ok else 1


def _design_layers() -> tuple[ModuleType, ModuleType]:
    """The projection and checker modules, imported when a design command
    runs, so simulate loads neither.  Every design command loads both, so
    all four load the same modules."""
    from . import projection, wellformed

    return projection, wellformed


def _cmd_check(args: argparse.Namespace) -> int:
    _, wellformed = _design_layers()
    protocol = parse_protocol(_read(args.protocol))
    subs = parse_subscriptions(_read(args.subs))
    return _emit_result(wellformed.check_swarm_protocol(protocol, subs), args.json)


def _cmd_project(args: argparse.Namespace) -> int:
    projection, _ = _design_layers()
    protocol = parse_protocol(_read(args.protocol))
    subs = parse_subscriptions(_read(args.subs))
    if args.role not in subs:
        raise ParseError("--role", f"role '{args.role}' has no subscription entry")
    shape = projection.project(protocol, subs, args.role).shape
    if args.dot:
        print(machine_to_dot(shape), end="")
    else:
        print(serialize_machine_shape(shape))
    return 0


def _cmd_check_machine(args: argparse.Namespace) -> int:
    projection, _ = _design_layers()
    protocol = parse_protocol(_read(args.protocol))
    subs = parse_subscriptions(_read(args.subs))
    machine = parse_machine_shape(_read(args.machine))
    if args.role not in subs:
        raise ParseError("--role", f"role '{args.role}' has no subscription entry")
    return _emit_result(projection.check_projection(protocol, subs, args.role, machine), args.json)


def _parse_seed_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m or int(m.group(1)) > int(m.group(2)):
        raise argparse.ArgumentTypeError(f"invalid seed range '{text}', expected A..B")
    return (int(m.group(1)), int(m.group(2)))


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Imported here so the design commands never load the simulator, runner and event log.
    from .sim import parse_scenario, run_scenario, trace_to_ndjson

    scenario = parse_scenario(_read(args.scenario))
    if args.seeds is not None:
        if args.trace:
            raise ParseError("--trace", "trace output requires a single-seed run")
        lo, hi = args.seeds
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [args.seed if args.seed is not None else scenario.seed]

    if args.trace:  # a single seed, checked above
        result = run_scenario(scenario, seed=seeds[0])
        try:
            Path(args.trace).write_text(trace_to_ndjson(result.trace), encoding="utf-8")
        except OSError as exc:
            raise ParseError("--trace", f"cannot write file: {exc.strerror or exc}") from None
        runs = [(seeds[0], result.report)]
    else:
        # No trace is written, so none is built.
        runs = [(seed, run_scenario(scenario, seed=seed, _trace=False).report) for seed in seeds]

    all_converged = all(report.converged for _, report in runs)
    if args.json:
        if args.seeds is None:
            print(json.dumps(runs[0][1].to_obj(), sort_keys=True))
        else:
            obj = {
                "allConverged": all_converged,
                "runs": [dict(seed=s, **report.to_obj()) for s, report in runs],
            }
            print(json.dumps(obj, sort_keys=True))
    else:
        for seed, report in runs:
            verdict = "converged" if report.converged else "DIVERGED"
            print(f"seed {seed}: {verdict}")
            for line in report.divergences:
                print(f"  {line}")
    return 0 if all_converged else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    _design_layers()
    protocol = parse_protocol(_read(args.protocol))
    print(to_dot(protocol), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmproto",
        description="Swarm protocol checking, projection, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check protocol well-formedness under a subscription")
    p.add_argument("protocol")
    p.add_argument("subs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("project", help="project a protocol onto one role")
    p.add_argument("protocol")
    p.add_argument("subs")
    p.add_argument("--role", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("check-machine", help="check a machine shape against its projection")
    p.add_argument("protocol")
    p.add_argument("subs")
    p.add_argument("machine")
    p.add_argument("--role", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_machine)

    p = sub.add_parser("simulate", help="run a scenario and check eventual consensus")
    p.add_argument("scenario")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int)
    seed.add_argument("--seeds", type=_parse_seed_range, help="seed sweep A..B")
    p.add_argument("--trace", help="write the NDJSON trace to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dot", help="render a protocol as a Graphviz digraph")
    p.add_argument("protocol")
    p.set_defaults(func=_cmd_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then kept for the
    process, since ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away: an I/O error, reported by the exit
        # code alone.  What is still buffered goes to the null device, so the
        # flush at interpreter exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ParseError, ScenarioError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SwarmProtoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
