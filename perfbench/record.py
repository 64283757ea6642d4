"""Write ``reference.json``: the recorded answers the benchmark checks against.

Run from the root of a checkout whose answers are trusted:

    python3 perfbench/record.py

For every tabular and PIN pool model it stores the capacity, the
minimizing partitions, the overall omnivocality verdict and the
leave-one-out restricted capacities, as the CLI prints them with
``--json``.  For the hunt it stores the classification counts of the
seed-0 block (the ROADMAP baseline).  It also prints each model's wall
times, which show how much one unit varies within a pool.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS, run_cli


def main() -> int:
    run.import_program()
    cli = sys.modules["skomni.cli"]
    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"recorded_at": run.provenance(), "tie_band": 1e-9}
    try:
        for name in ("tabular_m10", "pin_m8"):
            workload = WORKLOADS[name](0, workdir, {name: {}, "tie_band": 1e-9})
            answers = reference[name] = {}
            for key in workload.order:
                path = str(workload.paths[key])
                outputs = []
                for command in ("capacity", "omnivocality"):
                    code, out, seconds, _ = run_cli(cli, [command, path, "--json"])
                    if code != 0:
                        raise SystemExit(f"{name} {key} {command}: {code}")
                    outputs.append(json.loads(out))
                    print(f"{name} {key} {command} {seconds:.3f}s", flush=True)
                cap, omni = outputs
                lp = next(m for m in omni["methods"] if m["method"] == "lp")
                answers[str(key)] = {
                    "capacity": cap["capacity"],
                    "argmin": cap["argmin"],
                    "verdict": omni["verdict"],
                    "restricted": [row["silent_capacity"] for row in lp["evidence"]],
                }
        hunt = WORKLOADS["hunt_m4"](0, workdir, {"tie_band": 1e-9, "hunt_m4": {}})
        unit = hunt.run_unit(cli, 0)
        if unit.failures:
            raise SystemExit(f"hunt block 0: {unit.failures}")
        reference["hunt_m4"] = {"seed0_counts": unit.counts}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
