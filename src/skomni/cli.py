"""Command-line interface.

Subcommands mirror the library: capacity, singleton, silent, omnivocality,
hunt.  Model files are JSON and auto-detected: an object with "atoms" is a
joint pmf, one with "edges" is a PIN multigraph (analyzed in exact
rational arithmetic), and one with both is refused.  Only ``_load_model``
tells the two apart: each command asks the model for its ``oracle()`` or
its ``capacity(tol)``.  Text output prints floats with six decimals and
rationals as p/q; --json emits a single JSON object instead.

Only ``hunt --jobs N`` with N > 1 imports the process pool
(``_process_pool``), so importing this module and every other call leave
``concurrent.futures`` and ``multiprocessing`` unloaded.  The pool runs
the trials in chunks of 8 and holds at most 2N of them; the log is the
same for any N.

``omnivocality`` formats what ``omnivocality.run_routes`` returns; that
runner chooses the routes from the model, does the ``--dps`` re-run and
the disagreement check, and the hunt's candidate re-check is the same
call at 60 digits.

The argument parser is built on the first ``main`` call and reused by
every later call in the process; each call looks up its ``cmd_<command>``
function afresh.

Exit codes: 0 success, 2 malformed input (argparse errors included),
3 domain/size errors, 4 internal inconsistency (two routes to the same
quantity disagreed).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import subsets
from .capacity import DEFAULT_TIE_TOL, MinimizerStatus, singleton_minimizer_check
from .errors import InputError, InternalInconsistencyError, SizeLimitError
from .omnivocality import FLOAT_DPS, OmniStatus, hunt_record, run_routes
from .partitions import format_partition
from .pin import PinGraph
from .silent_rate import silent_capacity
from .sources import JointSource, read_json

if TYPE_CHECKING:
    from concurrent.futures import Executor


def _load_model(path: str, renormalize: bool) -> JointSource | PinGraph:
    data = read_json(path)
    # A file with both keys goes to the graph loader, which names its stray key.
    if isinstance(data, dict) and "edges" in data:
        return PinGraph.from_json_dict(data)
    if isinstance(data, dict) and "atoms" in data:
        return JointSource.from_json_dict(data, renormalize=renormalize)
    raise InputError(f"{path} has neither 'atoms' (source) nor 'edges' (PIN graph)")


#: Narrowest ``--tol``.  Float entropies of a few bits round a few ulps
#: (about 1e-15) apart, so a narrower band reads the rounding of a real
#: tie as a strict gap, and two routes can then disagree (exit 4).
MIN_TOL = 1e-12


def tolerance(text: str) -> float:
    """``--tol`` value: a finite float of at least ``MIN_TOL``."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {value}")
    if value < MIN_TOL:
        raise argparse.ArgumentTypeError(
            f"tolerance must be at least {MIN_TOL:g}, got {value}: "
            "a narrower band reads float rounding as a gap"
        )
    return value


def _fmt(value: Any) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.6f}"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return float(value)


def _emit(
    args: argparse.Namespace,
    payload: Callable[[], dict[str, Any]],
    text_lines: Callable[[], list[str]],
) -> int:
    """Print ``payload()`` as JSON under --json, else the ``text_lines()``;
    only the form printed is built."""
    if args.json:
        print(json.dumps(payload(), indent=2))
    else:
        for line in text_lines():
            print(line)
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    model = _load_model(args.model, args.renormalize)
    report = model.capacity(args.tol)
    argmin = format_partition(report.argmin)
    return _emit(
        args,
        lambda: {
            "m": model.m,
            "exact": report.exact,
            "capacity": _jsonable(report.value),
            "argmin": [argmin],
            "partitions_examined": report.partitions_examined,
        },
        lambda: [
            f"C = {_fmt(report.value)} bits; argmin: {argmin}",
            f"partitions examined: {report.partitions_examined}",
        ],
    )


def cmd_singleton(args: argparse.Namespace) -> int:
    model = _load_model(args.model, args.renormalize)
    verdict = singleton_minimizer_check(model.oracle(), args.tol)
    w = verdict.witness
    literal = None if w is None else format_partition(w.partition)

    def payload() -> dict[str, Any]:
        return {
            "status": verdict.status.value,
            "comparisons": verdict.comparisons,
            "witness": None
            if w is None
            else {
                "partition": literal,
                "surplus": _jsonable(w.surplus),
                "singleton_surplus": _jsonable(w.singleton_surplus),
            },
        }

    def lines() -> list[str]:
        head = f"{verdict.status.value} ({verdict.comparisons} comparisons)"
        if w is None:
            return [head]
        label = {
            MinimizerStatus.NON_UNIQUE: "tie at",
            MinimizerStatus.NOT_MINIMIZER: "beaten at",
            MinimizerStatus.AMBIGUOUS: "undecided at",
        }[verdict.status]
        return [
            f"{head}; {label} {literal}",
            f"surplus({literal}) = {_fmt(w.surplus)}; "
            f"surplus(singletons) = {_fmt(w.singleton_surplus)}",
        ]

    return _emit(args, payload, lines)


def cmd_silent(args: argparse.Namespace) -> int:
    model = _load_model(args.model, args.renormalize)
    oracle = model.oracle()
    speakers = subsets.parse_subset(args.speakers, oracle.m)
    report = silent_capacity(oracle, speakers, args.tol)

    def payload() -> dict[str, Any]:
        return {
            "speakers": subsets.format_subset(speakers),
            "speakers_entropy": _jsonable(report.speakers_entropy),
            "min_sum_rate": _jsonable(report.min_sum_rate),
            "capacity": _jsonable(report.capacity),
            "rates": {str(t): _jsonable(r) for t, r in report.rates.items()},
            "binding": [
                {
                    "subset": subsets.format_subset(c.speakers_subset),
                    "bound": _jsonable(c.lower_bound),
                }
                for c in report.binding
            ],
        }

    def lines() -> list[str]:
        rates = ", ".join(f"R{t} = {_fmt(r)}" for t, r in sorted(report.rates.items()))
        binding = "; ".join(subsets.format_subset(c.speakers_subset) for c in report.binding)
        return [
            f"speakers: {subsets.format_subset(speakers)}",
            f"H(speakers) = {_fmt(report.speakers_entropy)}",
            f"R_min = {_fmt(report.min_sum_rate)}",
            f"C_restricted = {_fmt(report.capacity)}",
            f"rates: {rates}",
            f"binding: {binding}",
        ]

    return _emit(args, payload, lines)


def _omnivocality_lines(verdict) -> list[str]:
    lines = [f"{verdict.method}: {verdict.status.value}"]
    if verdict.status is OmniStatus.UNKNOWN:
        lines[0] += " (condition is only sufficient; no verdict without it)"
    if verdict.silent_witness is not None:
        w = verdict.silent_witness
        lines[0] += (
            f"; construction: {w.construction.value}"
            f"; silent {{{subsets.format_subset(w.silent)}}}"
        )
    if verdict.w_set:
        lines.append(f"  cut-surplus witnesses W = {{{subsets.format_subset(verdict.w_set)}}}")
    for row in verdict.evidence:
        lines.append(
            f"  speakers {subsets.format_subset(row.speakers)}: "
            f"C_restricted = {_fmt(row.silent_capacity)}, "
            f"C = {_fmt(row.capacity)}, gap = {_fmt(row.gap)}"
        )
    return lines


def _omnivocality_payload(verdict) -> dict[str, Any]:
    return {
        "method": verdict.method,
        "status": verdict.status.value,
        "silent_witness": None
        if verdict.silent_witness is None
        else {
            "silent": subsets.format_subset(verdict.silent_witness.silent),
            "construction": verdict.silent_witness.construction.value,
        },
        "w_set": subsets.format_subset(verdict.w_set) if verdict.w_set else None,
        "evidence": [
            {
                "speakers": subsets.format_subset(row.speakers),
                "silent_capacity": _jsonable(row.silent_capacity),
                "capacity": _jsonable(row.capacity),
                "gap": _jsonable(row.gap),
            }
            for row in verdict.evidence
        ],
    }


def cmd_omnivocality(args: argparse.Namespace) -> int:
    model = _load_model(args.model, args.renormalize)
    status, verdicts = run_routes(model, args.tol, args.dps)
    return _emit(
        args,
        lambda: {
            "verdict": status.value,
            "methods": [_omnivocality_payload(v) for v in verdicts],
        },
        lambda: [
            *itertools.chain.from_iterable(map(_omnivocality_lines, verdicts)),
            f"verdict: {status.value} (methods agree)",
        ],
    )


def _run_chunk(worker: Any, jobs: list) -> list:
    return [worker(job) for job in jobs]


def _process_pool(workers: int) -> Executor:
    """A pool of ``workers`` processes.

    Imported here, not at the top, because only ``hunt --jobs N`` with
    N > 1 starts one: every other call leaves ``concurrent.futures`` and
    ``multiprocessing`` unloaded.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def _windowed_map(pool: Executor, worker: Any, jobs: Any, chunksize: int, window: int):
    """``pool.map(worker, jobs, chunksize=chunksize)`` holding at most ``window`` chunks.

    ``Executor.map`` submits every chunk before it yields the first result;
    this submits the next chunk only once the oldest of ``window`` has been
    read, so memory stays bounded for any job count.  Results come in job
    order.
    """
    pending: collections.deque = collections.deque()
    try:
        while chunk := list(itertools.islice(jobs, chunksize)):
            pending.append(pool.submit(_run_chunk, worker, chunk))
            if len(pending) == window:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _parse_alphabet(text: str, m: int) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"bad alphabet spec {text!r}") from None
    if len(parts) == 1:
        parts = parts * m
    if len(parts) != m or any(s < 2 for s in parts):
        raise InputError(f"alphabet spec {text!r} does not fit m={m} (sizes >= 2)")
    cells = math.prod(parts)
    if cells > subsets.MAX_GRID_CELLS:
        raise SizeLimitError(
            f"alphabet grid has {cells} cells; hunt supports at most {subsets.MAX_GRID_CELLS}"
        )
    return tuple(parts)


def cmd_hunt(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise InputError(f"trial count must be >= 1, got {args.trials}")
    if args.seed < 0:
        # random.Random seeds an int by its absolute value, so -s and s
        # would draw the same sources.
        raise InputError(f"seed must be >= 0, got {args.seed}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputError(f"jobs must be between 1 and the CPU count {cpus}, got {args.jobs}")
    if args.m < 4:
        raise SizeLimitError("hunt targets m >= 4 (smaller m is decided exactly)")
    subsets.check_table_m(args.m)  # before the log is created
    alphabet = _parse_alphabet(args.alphabet, args.m)
    worker = functools.partial(hunt_record, args.m, alphabet, args.seed)
    try:
        # Line buffered, so the log holds every trial finished so far.
        fh = open(args.out, "w", buffering=1)
    except OSError as exc:
        raise InputError(f"cannot open log {args.out}: {exc.strerror}") from None
    counts: dict[str, int] = {}
    with fh, _process_pool(args.jobs) if args.jobs > 1 else contextlib.nullcontext() as pool:
        if pool:
            records = _windowed_map(pool, worker, iter(range(args.trials)), 8, 2 * args.jobs)
        else:
            records = map(worker, range(args.trials))
        for record in records:
            try:
                fh.write(json.dumps(record) + "\n")
            except OSError as exc:
                with contextlib.suppress(OSError):
                    fh.close()  # its flush fails the same way
                raise InputError(f"cannot write log {args.out}: {exc.strerror}") from None
            counts[record["classification"]] = counts.get(record["classification"], 0) + 1
    return _emit(
        args,
        lambda: {
            "m": args.m,
            "trials": args.trials,
            "seed": args.seed,
            "alphabet_sizes": list(alphabet),
            "out": args.out,
            "counts": counts,
        },
        lambda: [
            *(f"{k}: {v}" for k, v in sorted(counts.items())),
            f"log written to {args.out}",
        ],
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skomni",
        description="Secret-key capacity and omnivocality analysis of "
        "multiterminal sources (joint pmfs or PIN multigraphs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="JSON file: joint pmf ('atoms') or PIN graph ('edges')")
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale atom probabilities to sum to 1 before validating",
        )
        p.add_argument("--json", action="store_true", help="emit a single JSON object")
        p.add_argument(
            "--tol", type=tolerance, default=DEFAULT_TIE_TOL, help="comparison tolerance band"
        )

    p = sub.add_parser("capacity", help="secret-key capacity and finest minimizing partition")
    common(p)

    p = sub.add_parser("singleton", help="is the all-singletons partition the surplus minimizer?")
    common(p)

    p = sub.add_parser("silent", help="capacity when only the given terminals speak")
    common(p)
    p.add_argument("--speakers", required=True, help="speaker subset, e.g. 1,2")

    p = sub.add_parser("omnivocality", help="must all terminals speak to reach capacity?")
    common(p)
    p.add_argument(
        "--dps",
        type=int,
        default=0,
        help="re-run tabular sources at this many decimal digits of precision "
        f"(0 keeps floats; otherwise more than {FLOAT_DPS})",
    )

    p = sub.add_parser("hunt", help="search random sources for conjecture counterexamples")
    p.add_argument("--json", action="store_true", help="emit a single JSON object")
    p.add_argument("--m", type=int, required=True, help="number of terminals (>= 4)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="base seed (>= 0)")
    p.add_argument("--alphabet", default="2", help="alphabet sizes, single int or m comma-separated")
    p.add_argument("--out", default="hunt.jsonl", help="JSONL log path")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
