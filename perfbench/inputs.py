"""Model files and hunt seeds for the benchmark workloads.

The benchmark makes its own inputs, so the program under test only ever
sees the files and CLI arguments built here.  ``tabular_model`` draws the
same pmf as ``skomni.generators.random_source`` at the commit that
recorded ``reference.json``; it is kept separate so that a change to the
program's generator cannot change the benchmark's inputs.

Tabular and PIN models come from fixed pools whose answers were recorded
in ``reference.json``; the run seed only chooses the order in which the
pool is visited, so every seed is checkable against recorded answers.
A run covers four or five of the twelve tabular models.  The PIN pool is
small enough that a run visits every graph about twice, because its
graphs differ up to fivefold in cost and a run that covered only part of
a larger pool would report whichever part it reached.
Hunt blocks are derived from the run seed directly: seed s runs blocks
with base seeds s * HUNT_SEED_STRIDE + k * HUNT_TRIALS, so seed 0 starts
with the ROADMAP baseline block (seed 0, 500 trials).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import product

TABULAR_M = 10
TABULAR_POOL = tuple(range(1, 13))

PIN_M = 8
PIN_EDGE_PROB = 0.6
PIN_MAX_MULT = 3
PIN_POOL = ("K8",) + tuple(str(s) for s in range(1, 8))

HUNT_M = 4
HUNT_TRIALS = 500
HUNT_SEED_STRIDE = 1_000_000


def tabular_model(seed: int, m: int = TABULAR_M, size: int = 2) -> dict:
    """Full-support binary pmf, as JSON, drawn like ``random_source``."""
    rng = random.Random(seed)
    cells = list(product(range(size), repeat=m))
    weights = [rng.random() for _ in cells]
    total = math.fsum(weights)
    return {
        "m": m,
        "alphabet_sizes": [size] * m,
        "atoms": [{"x": list(cell), "p": w / total} for cell, w in zip(cells, weights)],
    }


def pin_model(name: str, m: int = PIN_M) -> dict:
    """K_m for "K<m>", otherwise a seeded random multigraph on m terminals."""
    pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    if name == f"K{m}":
        edges = [(u, v, 1) for u, v in pairs]
    else:
        rng = random.Random(int(name))
        edges = []
        for u, v in pairs:
            if rng.random() < PIN_EDGE_PROB:
                edges.append((u, v, rng.randint(1, PIN_MAX_MULT)))
    return {"m": m, "edges": [{"u": u, "v": v, "mult": w} for u, v, w in edges]}


def visit_order(pool: tuple, seed: int, first=None) -> list:
    """The pool shuffled by the run seed, with ``first`` (if given) in front."""
    rest = [p for p in pool if p != first]
    random.Random(seed).shuffle(rest)
    return ([first] if first is not None else []) + rest


def hunt_base_seed(run_seed: int, block: int) -> int:
    return run_seed * HUNT_SEED_STRIDE + block * HUNT_TRIALS


def atoms_digest(model: dict) -> str:
    """Fingerprint the hunt log gives a source (sha256 of its sorted JSON)."""
    payload = json.dumps(model, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
