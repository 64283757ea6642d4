"""Secret-key capacity via partition minimization.

The capacity of an m-terminal source with unrestricted public discussion
is the minimum, over all partitions P of the terminals with at least two
cells, of the normalized entropy surplus

    surplus(P) = (sum_{A in P} H(X_A) - H(X_{1..m})) / (|P| - 1).

This module evaluates that objective against any subset-entropy oracle,
minimizes it by full enumeration, and decides whether the all-singletons
partition is the minimizer.  Both searches read the 2^m subset entropies
into a list once and work on cell masks, summing cell entropies in cell
order like ``partition_surplus``, so their values are bitwise the ones
``partition_surplus`` gives.  The minimization walks the partitions depth
first in the lexicographic restricted-growth order of
``enumerate_partitions``, and only partitions in the tie band become
``Partition`` objects.  The minimizer check uses the reduction to
isolating partitions: the singleton partition minimizes the surplus iff

    surplus(S) <= surplus(P_B)   for every B with 1 <= |B| <= m-2,

where P_B isolates the members of B (2^m - m - 2 comparisons instead of
Bell(m)).  Uniqueness corresponds to all inequalities strict.

Exact oracles (integer entropies) make every quantity here an exact
``Fraction`` and verdicts never come back ambiguous; float oracles use a
tie tolerance band, inside which only a bitwise-zero difference counts as
a genuine tie.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import subsets
from .errors import SizeLimitError
from .partitions import Partition, isolating_partition
from .sources import EntropyOracle

#: Default half-width of the band inside which float comparisons are ties.
DEFAULT_TIE_TOL = 1e-9


def _ratio(numerator: Any, denominator: int, exact: bool) -> Any:
    if exact:
        return Fraction(numerator, denominator)
    return numerator / denominator


def partition_surplus(oracle: EntropyOracle, partition: Partition) -> Any:
    """Normalized entropy surplus of a partition with >= 2 cells."""
    if partition.m != oracle.m:
        raise SizeLimitError(f"partition is over m={partition.m}, oracle has m={oracle.m}")
    if partition.n_cells < 2:
        raise SizeLimitError("surplus needs a partition with at least 2 cells")
    total = sum(oracle.entropy(cell) for cell in partition.cells)
    num = total - oracle.entropy(subsets.full_mask(oracle.m))
    return _ratio(num, partition.n_cells - 1, oracle.exact)


@dataclass(frozen=True)
class CapacityReport:
    value: Any
    argmin: tuple[Partition, ...]
    partitions_examined: int
    exact: bool


def sk_capacity(oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL) -> CapacityReport:
    """Minimize the partition surplus by full enumeration.

    ``argmin`` collects every partition within ``tie_tol`` of the minimum
    (exactly equal for exact oracles), in canonical enumeration order.
    """
    m = oracle.m
    if m < 2:
        raise SizeLimitError("capacity needs at least 2 terminals")
    if m > subsets.MAX_ENUMERATION_M:
        raise SizeLimitError(f"partition enumeration supports m <= {subsets.MAX_ENUMERATION_M}")
    h = [oracle.entropy(subset) for subset in range(1 << m)]
    joint = h[-1]
    exact = oracle.exact
    band = 0 if exact else tie_tol
    best: Any = None
    near: list[tuple[Any, Partition]] = []
    examined = 0
    rgs = [0] * m
    cells = [1]

    def walk(i: int) -> None:
        nonlocal best, near, examined
        for c in range(len(cells) + 1):
            rgs[i] = c
            if c == len(cells):
                cells.append(0)
            cells[c] |= 1 << i
            if i + 1 < m:
                walk(i + 1)
            elif len(cells) >= 2:
                examined += 1
                value = _ratio(sum(map(h.__getitem__, cells)) - joint, len(cells) - 1, exact)
                if best is None or value < best:
                    best = value
                    near = [(v, q) for v, q in near if v <= best + band]
                if value <= best + band:
                    near.append((value, Partition(tuple(rgs), tuple(cells))))
            cells[c] ^= 1 << i
            if not cells[c]:
                cells.pop()

    walk(1)
    argmin = tuple(q for v, q in near if v <= best + band)
    return CapacityReport(best, argmin, examined, exact)


class MinimizerStatus(str, enum.Enum):
    UNIQUE = "UniqueMinimizer"
    NON_UNIQUE = "NonUniqueMinimizer"
    NOT_MINIMIZER = "NotMinimizer"
    AMBIGUOUS = "NumericallyAmbiguous"


@dataclass(frozen=True)
class MinimizerWitness:
    """The comparison that decided a non-unique/not-minimizer verdict."""

    partition: Partition
    surplus: Any
    singleton_surplus: Any


@dataclass(frozen=True)
class MinimizerVerdict:
    status: MinimizerStatus
    comparisons: int
    witness: Optional[MinimizerWitness]


def singleton_minimizer_check(
    oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL
) -> MinimizerVerdict:
    """Decide whether the singleton partition minimizes the surplus.

    Compares against the 2^m - m - 2 partitions P_B isolating a block B
    with 1 <= |B| <= m-2, scanned in increasing mask order, all of them so
    the comparison count is deterministic.  The subset entropies are read
    into a list once and each surplus sums its cells in canonical order
    (by smallest member), so it is bitwise
    ``partition_surplus(oracle, isolating_partition(m, B))``; only the
    returned witness becomes a ``Partition``.

    Float semantics: a difference below -tie_tol refutes minimizer-ness, a
    bitwise-zero difference is a genuine tie, and any other difference
    inside the band makes the verdict NumericallyAmbiguous.
    """
    m = oracle.m
    if m < 3:
        raise SizeLimitError("minimizer check needs m >= 3")
    h = [oracle.entropy(subset) for subset in range(1 << m)]
    full = len(h) - 1
    joint = h[full]
    exact = oracle.exact
    band = 0 if exact else tie_tol
    singletons = [1 << i for i in range(m)]
    s_value = _ratio(sum(map(h.__getitem__, singletons)) - joint, m - 1, exact)

    comparisons = 0
    worst: Any = None
    worst_found = zero_found = near_found = None
    for block in range(1, full):
        cells = [cell for cell in singletons if cell & block]
        if len(cells) > m - 2:
            continue
        rest = full ^ block
        # Every terminal below the least member of the rest lies in the
        # block, so that many singletons precede the rest cell.
        cells.insert((rest & -rest).bit_length() - 1, rest)
        value = _ratio(sum(map(h.__getitem__, cells)) - joint, len(cells) - 1, exact)
        comparisons += 1
        d = value - s_value
        if worst is None or d < worst:
            worst, worst_found = d, (block, value)
        if -band <= d <= band:
            if d == 0:
                if zero_found is None:
                    zero_found = (block, value)
            elif near_found is None:
                near_found = (block, value)

    if worst < -band:
        status, (block, value) = MinimizerStatus.NOT_MINIMIZER, worst_found
    elif near_found is not None:
        status, (block, value) = MinimizerStatus.AMBIGUOUS, near_found
    elif zero_found is not None:
        status, (block, value) = MinimizerStatus.NON_UNIQUE, zero_found
    else:
        return MinimizerVerdict(MinimizerStatus.UNIQUE, comparisons, None)
    witness = MinimizerWitness(isolating_partition(m, block), value, s_value)
    return MinimizerVerdict(status, comparisons, witness)
