"""Tabulate complete-graph PIN sources: capacity, minimizer, verdicts.

For K_m every pair of terminals shares an independent uniform bit, the
capacity works out to m/2 exactly, and the singleton partition is the
unique minimizer, so both decision routes must report Necessary.  The
verdicts come from ``run_routes``, which exits the script with 4 and one
line on stderr if its routes disagree.  The script checks every row
against the closed form (C = m * mult / 2, the singleton argmin,
Necessary from both routes) and exits 1 with one line on stderr at the
first row that differs, so it doubles as a smoke check that the exact
arithmetic path stays exact as m grows.

Usage: python scripts/complete_graph_table.py [--max-m 8] [--mult 1]
"""

import argparse
import sys
import time
from fractions import Fraction

from skomni.errors import InternalInconsistencyError
from skomni.omnivocality import run_routes
from skomni.partitions import format_partition, singleton_partition
from skomni.pin import complete_graph, pin_capacity
from skomni.subsets import MAX_TABLE_M


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=8, help="largest clique size")
    parser.add_argument("--mult", type=int, default=1, help="edge multiplicity")
    args = parser.parse_args()
    if args.max_m < 3:
        parser.error(f"--max-m must be at least 3, got {args.max_m}")
    if args.max_m > MAX_TABLE_M:
        parser.error(f"--max-m must be at most {MAX_TABLE_M}, the entropy-table cap")
    if args.mult < 1:
        parser.error(f"--mult must be at least 1, got {args.mult}")

    # A partition of {1..m} prints as its m members with one separator
    # between each two, so the widest argmin of the run is at m = max_m.
    width = max(len("argmin"), len(format_partition(singleton_partition(args.max_m))))
    print(f"{'m':>2}  {'capacity':>9}  {'argmin':<{width}} {'condition':<10} {'lp':<10} "
          f"{'partitions':>10}  {'seconds':>7}")
    for m in range(3, args.max_m + 1):
        graph = complete_graph(m, args.mult)
        start = time.monotonic()
        report = pin_capacity(graph)
        try:
            verdicts = run_routes(graph)[1]
        except InternalInconsistencyError as exc:
            print(f"m={m}: internal inconsistency: {exc}", file=sys.stderr)
            return 4
        condition, lp = (v.status.value for v in verdicts[:2])
        elapsed = time.monotonic() - start
        argmin = format_partition(report.argmin)
        print(f"{m:>2}  {str(report.value):>9}  {argmin:<{width}} {condition:<10} {lp:<10} "
              f"{report.partitions_examined:>10}  {elapsed:>7.2f}")
        expected = (Fraction(m * args.mult, 2), singleton_partition(m), "Necessary", "Necessary")
        if (report.value, report.argmin, condition, lp) != expected:
            print(f"m={m}: got C = {report.value}, argmin {argmin}, {condition}/{lp}; expected "
                  f"C = {expected[0]}, argmin {format_partition(expected[1])}, Necessary/Necessary",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
