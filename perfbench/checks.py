"""Output checks that decide whether an op failed.

Each check compares the program's output with an answer that does not come
from the code under test: the generator's known verdict, a reference fold
written here, or output recorded in ``data/``.  They read only public
attributes, so a corrupted output built from plain objects fails them too.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

import generators


def design_ok(expected: str, verdict: Any, conformance: Iterable[Any]) -> bool:
    """The checker's verdict is the known answer (``OK``, or exactly the one
    mutated code) and every role's projection round-trips to OK."""
    codes = {d.code for d in verdict.errors}
    if expected == generators.OK:
        verdict_ok = not codes
    else:
        verdict_ok = codes == {expected}
    results = list(conformance)
    return (
        verdict_ok
        and len(results) == len(generators.ROLES)
        and all(not r.errors for r in results)
    )


def replica_ok(runner: Any, session: str, delivered: list[generators.Rec]) -> bool:
    """The runner's state name, payload and applied record keys equal the
    reference station fold over the session's delivered records."""
    state_name, payload, applied = generators.station_fold(delivered, session)
    state = runner.state
    return (
        state.state_name == state_name
        and state.payload == payload
        and [r.key for r in runner.applied_records] == applied
    )


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sim_ok(exit_code: int, stdout: str, digest: str) -> bool:
    """Exit code 0, ``converged: true`` and byte-identical JSON output."""
    if exit_code != 0:
        return False
    try:
        converged = json.loads(stdout).get("converged") is True
    except (ValueError, AttributeError):
        return False
    return converged and output_digest(stdout) == digest


def model_ok(result: Any, answer: dict) -> bool:
    """Verdict and divergence set equal the recorded answer; explored-state
    counts are not checked, so a reduction that visits fewer states passes."""
    diverged = set(result.diverged)
    return (not diverged) == answer["all_converged"] and diverged == set(answer["diverged"])
