"""Seeded random sources for the hunt.

``random_source`` is a deterministic function of its arguments: it draws
from ``random.Random(seed)`` only, so the same call yields the same source
on any platform.  It fills the whole outcome grid with normalized uniform
weights (full support, generic position).
"""

from __future__ import annotations

import math
import random
from itertools import product
from collections.abc import Sequence

from .errors import InputError
from .sources import JointSource


def random_source(m: int, alphabet_sizes: Sequence[int], seed: int) -> JointSource:
    """Dense random pmf over the full outcome grid."""
    sizes = tuple(alphabet_sizes)
    if len(sizes) != m:
        raise InputError(f"need {m} alphabet sizes, got {len(sizes)}")
    rng = random.Random(seed)
    cells = list(product(*(range(s) for s in sizes)))
    weights = [rng.random() for _ in cells]
    total = math.fsum(weights)
    atoms = {cell: w / total for cell, w in zip(cells, weights)}
    return JointSource(m, sizes, atoms)
