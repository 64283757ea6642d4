"""Tabulate closed-form PIN families: capacity, minimizer, verdicts.

Each family is one multigraph per m whose answers are known in closed
form (C for unit edges; ``--mult`` scales every edge, and C with it):

    family    edges                                  C            argmin     condition / lp
    complete  every pair                             m/2          singletons UniqueMinimizer / Necessary
    cycle     1-2-...-m-1                            m/(m-1)      singletons UniqueMinimizer / Necessary
    cycle+    the cycle with {1, m} doubled, m >= 4  (m-1)/(m-2)  1,m merged NotMinimizer / Necessary
              at m = 3                               2            singletons NonUniqueMinimizer / NotNecessary
    path      1-2-...-m                              1            singletons NonUniqueMinimizer / NotNecessary
    star      1 joined to each of 2..m               1            singletons NonUniqueMinimizer / NotNecessary
    wheel     the star plus the cycle 2-...-m-2      2            singletons UniqueMinimizer / Necessary

The wheel starts at m = 4, where it is K_4.  From m = 4, cycle+ is a
counterexample to the converse of the uniqueness condition: the
singletons lose to 1,m merged, yet every terminal must talk.

The verdicts come from ``run_routes``, which exits the script with 4 and
one line on stderr if its routes disagree.  The script checks every row
against the closed form and exits 1 with one line on stderr at the first
row that differs, so it doubles as a smoke check that the exact
arithmetic path stays exact as m grows.

Usage: python scripts/complete_graph_table.py [--family complete] [--max-m 8] [--mult 1]
"""

import argparse
import sys
import time
from fractions import Fraction

from skomni.errors import InternalInconsistencyError
from skomni.omnivocality import run_routes
from skomni.partitions import Partition, format_partition, singleton_partition
from skomni.pin import PinGraph, complete_graph, pin_capacity
from skomni.subsets import MAX_TABLE_M


def _path(first: int, last: int) -> list[tuple[int, int, int]]:
    return [(t, t + 1, 1) for t in range(first, last)]


#: Each family's unit-multiplicity edges on terminals 1..m.
FAMILIES = {
    "complete": lambda m: complete_graph(m).edges,
    "cycle": lambda m: _path(1, m) + [(1, m, 1)],
    "cycle+": lambda m: _path(1, m) + [(1, m, 2)],
    "path": lambda m: _path(1, m),
    "star": lambda m: [(1, t, 1) for t in range(2, m + 1)],
    "wheel": lambda m: [(1, t, 1) for t in range(2, m + 1)] + _path(2, m) + [(2, m, 1)],
}


def closed_form(family: str, m: int) -> tuple[Fraction, Partition, str, str]:
    """C for unit edges, the finest argmin, and the condition and lp verdicts."""
    singletons = singleton_partition(m)
    if family == "cycle+" and m > 3:
        merged = Partition.from_cells([1 | 1 << (m - 1)] + [1 << t for t in range(1, m - 1)], m)
        return Fraction(m - 1, m - 2), merged, "NotMinimizer", "Necessary"
    if family in ("complete", "cycle", "wheel"):
        capacity = {"complete": Fraction(m, 2), "cycle": Fraction(m, m - 1), "wheel": Fraction(2)}
        return capacity[family], singletons, "UniqueMinimizer", "Necessary"
    # path, star, and cycle+ at m = 3: the singletons tie, and a terminal may stay silent.
    return Fraction(2 if family == "cycle+" else 1), singletons, "NonUniqueMinimizer", "NotNecessary"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILIES, default="complete", help="graph family")
    parser.add_argument("--max-m", type=int, default=8, help="largest number of terminals")
    parser.add_argument("--mult", type=int, default=1, help="multiplier of every edge")
    args = parser.parse_args()
    first = 4 if args.family == "wheel" else 3
    if args.max_m < first:
        parser.error(f"--max-m must be at least {first}, got {args.max_m}")
    if args.max_m > MAX_TABLE_M:
        parser.error(f"--max-m must be at most {MAX_TABLE_M}, the entropy-table cap")
    if args.mult < 1:
        parser.error(f"--mult must be at least 1, got {args.mult}")

    rows = {m: closed_form(args.family, m) for m in range(first, args.max_m + 1)}
    width = [max(len(head), *(len(cell) for cell in cells)) for head, cells in [
        ("argmin", [format_partition(row[1]) for row in rows.values()]),
        ("condition", [row[2] for row in rows.values()]),
        ("lp", [row[3] for row in rows.values()]),
    ]]
    print(f"{'m':>2}  {'capacity':>9}  {'argmin':<{width[0]}} {'condition':<{width[1]}} "
          f"{'lp':<{width[2]}} {'partitions':>10}  {'seconds':>7}")
    for m, (unit_capacity, *rest) in rows.items():
        graph = PinGraph(m, tuple((u, v, w * args.mult) for u, v, w in FAMILIES[args.family](m)))
        start = time.monotonic()
        report = pin_capacity(graph)
        try:
            condition, lp = run_routes(graph)[1][:2]
        except InternalInconsistencyError as exc:
            print(f"m={m}: internal inconsistency: {exc}", file=sys.stderr)
            return 4
        got = (report.value, report.argmin, condition.minimizer.status.value, lp.status.value)
        elapsed = time.monotonic() - start
        argmin = format_partition(report.argmin)
        print(f"{m:>2}  {str(report.value):>9}  {argmin:<{width[0]}} {got[2]:<{width[1]}} "
              f"{got[3]:<{width[2]}} {report.partitions_examined:>10}  {elapsed:>7.2f}")
        expected = (unit_capacity * args.mult, *rest)
        if got != expected:
            print(f"m={m}: got C = {got[0]}, argmin {argmin}, {got[2]}/{got[3]}; expected "
                  f"C = {expected[0]}, argmin {format_partition(expected[1])}, "
                  f"{expected[2]}/{expected[3]}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
