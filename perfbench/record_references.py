"""Record the reference outputs the swarm-sim and model-check checks compare with.

    python3 perfbench/record_references.py

Run from the root of a checkout whose outputs are trusted.  Writes
``data/sim_reference.json`` (a digest of the ``simulate --json`` output of
every simulator seed the benchmark can use) and ``data/model_answers.json``
(verdict and divergence set of each stock scenario).  Refuses to record a
simulator seed that does not converge, since the workload must not fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import generators
from checks import output_digest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cli = workloads._module("cli")
    text = generators.sim_scenario_json()
    path = ROOT / ".perfbench-work" / "swarm-sim-scenario.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    digests = {}
    for seed in range(1, generators.SIM_SEED_POOL + 1):
        code, out = workloads.simulate(cli, path, seed)
        if code != 0 or json.loads(out)["converged"] is not True:
            print(f"simulator seed {seed} does not converge", file=sys.stderr)
            return 1
        digests[str(seed)] = output_digest(out)
    reference = {"scenario_sha256": output_digest(text), "digests": digests}
    (DATA / "sim_reference.json").write_text(json.dumps(reference, indent=0) + "\n")

    model = workloads._module("sim")
    answers = {}
    for name in generators.MODEL_SCENARIOS:
        scenario = model.parse_scenario((DATA / f"model_{name}.json").read_text(encoding="utf-8"))
        result = model.enumerate_schedules(scenario, max_emitted=8)
        answers[name] = {
            "all_converged": result.all_converged,
            "diverged": sorted(set(result.diverged)),
        }
    (DATA / "model_answers.json").write_text(json.dumps(answers, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
