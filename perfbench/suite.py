"""Run the benchmark over several seeds, tabulate it, and compare two result files.

From the root of a checkout:

    python3 perfbench/suite.py run --seeds 0 --out perfbench/out/a.json
    python3 perfbench/suite.py run --seeds 1-10 --workloads pin_m8 --out perfbench/out/b.json
    python3 perfbench/suite.py run --seeds 0 --trace 1 --out perfbench/out/t.json
    python3 perfbench/suite.py compare perfbench/out/a.json perfbench/out/b.json

``run`` starts ``perfbench/run.py`` once per workload and seed, one at a
time, with the settings of ``BENCHMARK.json``.  It prints every metric by
name and unit per workload (median and quartiles over the runs, the
run-to-run spread as (q3 - q1) / median against the metric's bound, and
the sample count), whether every answer was correct and how many
operations failed, and saves all runs with their detail lines.

``compare BASE NEW`` prints one row per workload and metric: each side's
median and quartiles and the ratio NEW / BASE.  A row is ``unresolved``
when either side's spread exceeds the bound, unless every run of NEW is
better than every run of BASE; it is ``worse`` when NEW's median is worse
by more than the bound, and ``ok`` otherwise.  Per-layer metrics have no
bound and are shown with their ratio only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, quartiles

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def metric_specs(trace: int) -> dict:
    return {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": done.stderr.strip()[-2000:]}
    detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def table(runs: list, trace: int) -> None:
    specs = metric_specs(trace)
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        good = [r for r in mine if "result" in r]
        attempted = sum(r["result"]["attempted"] for r in good)
        failed = sum(r["result"]["failed"] for r in good)
        correct = all(r["result"]["correct"] for r in good) and len(good) == len(mine)
        print(f"{workload}: {len(good)}/{len(mine)} runs, correct={correct}, "
              f"failed {failed} of {attempted} operations")
        for r in mine:
            if "error" in r:
                print(f"  seed {r['seed']} error: {r['error'].splitlines()[-1] if r['error'] else '?'}")
        for name, spec in specs.items():
            values = [r["result"]["metrics"][name]["value"] for r in good
                      if name in r["result"]["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            bound = spec.get("bound")
            flag = ""
            if bound is not None:
                s = spread(values)
                flag = f"spread {s:.3f} / bound {bound}" + (" OVER" if s > bound / 3 else "")
            n = [r["detail"].get("samples", {}).get(name, {}).get("n") for r in good]
            n = f" n/run {min(n)}-{max(n)}" if all(n) and n else ""
            print(f"  {name:45s} {median:12.6g} {spec['unit']:8s} [{q1:.6g}, {q3:.6g}] {flag}{n}")


def better(spec: dict, a: float, b: float) -> bool:
    return a < b if spec["better"] == "lower" else a > b


def compare(base: list, new: list, trace: int) -> None:
    specs = metric_specs(trace)
    print(f"{'workload':12s} {'metric':42s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'new/base':>8s}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in base + new):
        for name, spec in specs.items():
            sides = []
            for runs in (base, new):
                sides.append([r["result"]["metrics"][name]["value"] for r in runs
                              if r["workload"] == workload and "result" in r
                              and name in r["result"]["metrics"]])
            if not all(sides):
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(sides[0]), quartiles(sides[1])
            ratio = nm / bm if bm else float("nan")
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                worse_by = (nm - bm) / bm if spec["better"] == "lower" else (bm - nm) / bm
                all_better = all(better(spec, x, y) for x in sides[1] for y in sides[0])
                if max(spread(sides[0]), spread(sides[1])) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worse_by > bound else "ok"
            print(f"{workload:12s} {name:42s} {bm:10.6g} [{b1:.6g}, {b3:.6g}]".ljust(90)
                  + f"{nm:10.6g} [{n1:.6g}, {n3:.6g}]".ljust(34) + f" {ratio:8.4f}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,3,5")
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="save the runs here as JSON")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()

    if args.mode == "compare":
        base = json.loads(Path(args.base).read_text())
        new = json.loads(Path(args.new).read_text())
        if base["trace"] != new["trace"]:
            raise SystemExit("cannot compare a traced result file with an untraced one")
        compare(base["runs"], new["runs"], base["trace"])
        return 0

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.trace))
            r = runs[-1]
            status = r["result"]["correct"] if "result" in r else "error"
            print(f"# {workload} seed {seed}: correct={status}", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": runs}, indent=1))
    table(runs, args.trace)
    return 0 if all("result" in r and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
