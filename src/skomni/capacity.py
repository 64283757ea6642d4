"""Secret-key capacity via partition minimization.

The capacity of an m-terminal source with unrestricted public discussion
is the minimum, over all partitions P of the terminals with at least two
cells, of the normalized entropy surplus

    surplus(P) = (sum_{A in P} H(X_A) - H(X_{1..m})) / (|P| - 1).

This module evaluates that objective against any subset-entropy oracle,
minimizes it by full enumeration, and decides whether the all-singletons
partition is the minimizer.  The minimization reads the subset entropies
into a list once and walks the partitions depth first over cell masks, in
the lexicographic restricted-growth order of ``enumerate_partitions``;
each surplus sums cell entropies in cell order like ``partition_surplus``,
and only partitions in the tie band become ``Partition`` objects.  The
minimizer check can either brute-force every partition or use the
reduction to isolating partitions: the singleton partition minimizes the
surplus iff

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
from .partitions import (
    MAX_ENUMERATION_M,
    Partition,
    enumerate_partitions,
    isolating_partition,
    singleton_partition,
)
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
    if m > MAX_ENUMERATION_M:
        raise SizeLimitError(f"partition enumeration supports m <= {MAX_ENUMERATION_M}")
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


def restricted_singleton_surplus(oracle: EntropyOracle, speakers: int) -> Any:
    """Singleton surplus computed within a speaker set of size m-1.

    For T = {1..m} minus one terminal this is
    (sum_{i in T} H(X_i) - H(X_T)) / (m - 2); it upper-bounds the capacity
    achievable when the missing terminal stays silent.
    """
    m = oracle.m
    subsets.check_subset(speakers, m)
    if subsets.size(speakers) != m - 1 or m < 3:
        raise SizeLimitError("restricted singleton surplus needs |T| = m-1 and m >= 3")
    total = sum(oracle.entropy(1 << (t - 1)) for t in subsets.members(speakers))
    return _ratio(total - oracle.entropy(speakers), m - 2, oracle.exact)


def singleton_surplus_identity(oracle: EntropyOracle, silent: int) -> tuple[Any, Any]:
    """Both sides of the identity linking restricted and global surplus.

    With T = {1..m} minus the silent terminal u and S the singleton
    partition:

        surplus_T(S) - surplus(S)
            = (surplus(S) - surplus({{u}, T})) / (m - 2).

    Returns (lhs, rhs); these agree up to arithmetic noise, which makes the
    identity a useful cross-check of both code paths.
    """
    m = oracle.m
    if m < 3:
        raise SizeLimitError("identity needs m >= 3")
    subsets.check_subset(silent, m)
    if subsets.size(silent) != 1:
        raise SizeLimitError("silent set must be a single terminal")
    speakers = subsets.full_mask(m) & ~silent
    s = singleton_partition(m)
    lhs = restricted_singleton_surplus(oracle, speakers) - partition_surplus(oracle, s)
    two_cell = Partition.from_cells([silent, speakers], m)
    diff = partition_surplus(oracle, s) - partition_surplus(oracle, two_cell)
    rhs = _ratio(diff, m - 2, oracle.exact)
    return lhs, rhs


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
    method: str


def _candidate_partitions(m: int, method: str):
    if method == "isolating":
        full = subsets.full_mask(m)
        for block in range(1, full):
            k = subsets.size(block)
            if 1 <= k <= m - 2:
                yield isolating_partition(m, block)
    elif method == "brute":
        s = singleton_partition(m)
        for p in enumerate_partitions(m, min_cells=2):
            if p != s:
                yield p
    else:
        raise ValueError(f"unknown method {method!r}")


def singleton_minimizer_check(
    oracle: EntropyOracle,
    method: str = "isolating",
    tie_tol: float = DEFAULT_TIE_TOL,
) -> MinimizerVerdict:
    """Decide whether the singleton partition minimizes the surplus.

    method "isolating" compares against the 2^m - m - 2 isolating
    partitions; "brute" compares against every other partition (m <= 12).
    Both scan all candidates so the comparison count is deterministic.

    Float semantics: a difference below -tie_tol refutes minimizer-ness, a
    bitwise-zero difference is a genuine tie, and any other difference
    inside the band makes the verdict NumericallyAmbiguous.
    """
    m = oracle.m
    if m < 3:
        raise SizeLimitError("minimizer check needs m >= 3")
    if method == "brute" and m > MAX_ENUMERATION_M:
        raise SizeLimitError(f"brute minimizer check supports m <= {MAX_ENUMERATION_M}")
    s_value = partition_surplus(oracle, singleton_partition(m))
    band = 0 if oracle.exact else tie_tol

    comparisons = 0
    worst: Any = None
    worst_witness: Optional[MinimizerWitness] = None
    band_zero: Optional[MinimizerWitness] = None
    band_nonzero: Optional[MinimizerWitness] = None
    for p in _candidate_partitions(m, method):
        value = partition_surplus(oracle, p)
        comparisons += 1
        d = value - s_value
        if worst is None or d < worst:
            worst = d
            worst_witness = MinimizerWitness(p, value, s_value)
        if -band <= d <= band:
            if d == 0:
                if band_zero is None:
                    band_zero = MinimizerWitness(p, value, s_value)
            elif band_nonzero is None:
                band_nonzero = MinimizerWitness(p, value, s_value)

    if worst is None:
        raise SizeLimitError("no candidate partitions to compare against")
    if worst < -band:
        return MinimizerVerdict(MinimizerStatus.NOT_MINIMIZER, comparisons, worst_witness, method)
    if band_nonzero is not None:
        return MinimizerVerdict(MinimizerStatus.AMBIGUOUS, comparisons, band_nonzero, method)
    if band_zero is not None:
        return MinimizerVerdict(MinimizerStatus.NON_UNIQUE, comparisons, band_zero, method)
    return MinimizerVerdict(MinimizerStatus.UNIQUE, comparisons, None, method)
