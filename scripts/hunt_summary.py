"""Summarize a counterexample-hunt log and rank the candidates.

Reads the JSONL file written by ``skomni hunt`` and prints the
classification counts, then the candidate records ordered by how close
their tightest leave-one-out gap sits to zero (the most marginal, and
therefore most suspect, candidates come first).  Candidates carry their
full source payload in the log, so ``--dump-worst`` can extract the
single most marginal one into a model file for re-runs at higher
precision, e.g. ``skomni omnivocality worst.json --dps 80``.

A log that cannot be read or is not UTF-8, holds a line that is not JSON
or holds an integer too long for Python to parse, holds a record without
``classification``, or holds a candidate without a field the listing
reads (or, with ``--dump-worst``, without its ``source``), or with such a
field of the wrong type, is a usage error: exit 2 with a one-line message.
So is a ``--dump-worst`` path that cannot be written; the dump is written
before anything is printed.

Usage: python scripts/hunt_summary.py hunt.jsonl [--top 10] [--dump-worst worst.json]
"""

import argparse
import json
from collections import Counter

CANDIDATE = "CandidateCounterexample"


def _is_number(value) -> bool:
    return type(value) in (int, float)


#: Fields of a candidate record that the listing reads, in the order it reads
#: them, with what each must hold and a check of that.
CANDIDATE_FIELDS = {
    "gaps": ("a nonempty list of numbers",
             lambda v: isinstance(v, list) and v != [] and all(map(_is_number, v))),
    "trial": ("an integer", lambda v: type(v) is int),
    "seed": ("an integer", lambda v: type(v) is int),
    "atoms_digest": ("a string", lambda v: isinstance(v, str)),
    "capacity": ("a number", _is_number),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", help="JSONL file written by the hunt subcommand")
    parser.add_argument("--top", type=int, default=10, help="candidates to list")
    parser.add_argument("--dump-worst", metavar="PATH",
                        help="write the most marginal candidate's source here")
    args = parser.parse_args()
    if args.top < 0:
        parser.error(f"--top must be at least 0, got {args.top}")
    listed = [*CANDIDATE_FIELDS, "source"] if args.dump_worst else list(CANDIDATE_FIELDS)

    try:
        with open(args.log, encoding="utf-8") as fh:
            lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        parser.error(f"cannot read {args.log}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        parser.error(f"{args.log} is not UTF-8 text ({exc.reason})")
    records = []
    for number, line in lines:
        try:
            record = json.loads(line)
        except ValueError as exc:  # not JSON, or an int past int_max_str_digits
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            parser.error(f"{args.log}: line {number} is not JSON ({reason})")
        if not isinstance(record, dict) or "classification" not in record:
            parser.error(f"{args.log}: line {number} has no 'classification'; not a hunt log")
        if record["classification"] == CANDIDATE:
            missing = [f for f in listed if f not in record]
            if missing:
                parser.error(f"{args.log}: line {number} is a candidate without {missing[0]!r}")
            for field, (kind, valid) in CANDIDATE_FIELDS.items():
                if not valid(record[field]):
                    parser.error(f"{args.log}: line {number}: {field!r} must be {kind}")
        records.append(record)
    if not records:
        print("empty log")
        return 1

    candidates = [r for r in records if r["classification"] == CANDIDATE]
    candidates.sort(key=lambda r: min(abs(g) for g in r["gaps"]))
    if args.dump_worst and candidates:
        try:
            with open(args.dump_worst, "w") as fh:
                json.dump(candidates[0]["source"], fh, indent=2)
        except OSError as exc:
            parser.error(f"cannot write {args.dump_worst}: {exc.strerror}")

    counts = Counter(r["classification"] for r in records)
    for name, count in sorted(counts.items()):
        print(f"{name}: {count}")
    if not candidates:
        print("no candidates")
        return 0

    print(f"\n{'trial':>6} {'seed':>6}  {'digest':<16} {'min |gap|':>12} {'capacity':>10}")
    for r in candidates[: args.top]:
        min_gap = min(abs(g) for g in r["gaps"])
        print(f"{r['trial']:>6} {r['seed']:>6}  {r['atoms_digest']:<16} "
              f"{min_gap:>12.3e} {r['capacity']:>10.6f}")

    if args.dump_worst:
        print(f"\nmost marginal candidate (trial {candidates[0]['trial']}) "
              f"written to {args.dump_worst}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
