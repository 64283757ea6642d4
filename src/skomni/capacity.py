"""Secret-key capacity via partition minimization.

The capacity of an m-terminal source with unrestricted public discussion
is the minimum, over all partitions P of the terminals with at least two
cells, of the normalized entropy surplus

    surplus(P) = (sum_{A in P} H(X_A) - H(X_{1..m})) / (|P| - 1).

This module evaluates that objective against any subset-entropy oracle,
minimizes it without enumerating partitions, also when only some
terminals talk, and decides whether the all-singletons partition is the
minimizer.  The searches work on a table of subset entropies and on cell
masks, summing cell entropies in cell order, so their values are bitwise
the ones ``partition_surplus`` gives.

The minimization is a Dinkelbach (Newton) iteration over the Dilworth
truncation of h - gamma (Narayanan, "The principal lattice of partitions
of a submodular function", Linear Algebra Appl., 1991; Chan,
Al-Bashabsheh, Ebrahimi, Kaced and Liu, "Multivariate mutual information
inspired by secret-key agreement", Proc. IEEE, 2015).  At a fixed gamma
the greedy values

    x_j = min over B with j in B, B inside {1..j}, of h(B) - gamma - x(B - j)

maximize x(1..m) subject to x(B) <= h(B) - gamma, in 2^m table reads, and
merging each j with a minimizing B (and the cells B meets) builds a
partition minimizing sum_{A in P} (h(A) - gamma).  A partition beats the
trivial one there exactly when its surplus is below gamma.  So gamma
starts at the singleton surplus and steps down to the surplus of the
partition found until that is no longer strictly below; the last gamma is
the capacity.  The cell count falls at every step, so at most m
partitions are evaluated.  Taking the minimizing B with the fewest
members gives the finest minimizing partition, the common refinement of
all of them.

When only the speakers T talk, the capacity is min(C(X_T), min over
silent d of I(X_T; X_d)), the optimum of the covering program in
``silent_rate``: its constraints on proper subsets of T are T's own
omniscience constraints (Csiszar and Narayan, IEEE Trans. IT, 2004), and
its constraint on T is max over d of H(X_T | X_d).  For one silent
terminal u, I(X_T; X_u) is the surplus of {T, {u}}, never below C, so u
may stay silent iff C(X_T) >= C.

The greedy x over T's subsets at gamma = C_T is an optimal rate vector
of that program (``speaker_rates``): x(S) <= h(S) - gamma for nonempty S
inside T, and x(T) = h(T) - gamma since gamma <= C(X_T).  So r = x has
r(B) = x(T) - x(T - B) >= H(X_B | X_{T - B}) for proper B, and
r(T) = H(X_T) - C_T >= H(X_T | X_d) since C_T <= I(X_T; X_d).

The minimizer check uses the reduction to isolating partitions: the
singleton partition minimizes the surplus iff

    surplus(S) <= surplus(P_B)   for every B with 1 <= |B| <= m-2,

where P_B isolates the members of B (2^m - m - 2 comparisons instead of
Bell(m)).  Uniqueness corresponds to all inequalities strict.

Exact oracles (integer or rational entropies) report every capacity,
surplus and rate as an exact ``Fraction`` and never give an ambiguous
verdict.  Their 2^m-step loops run on the table scaled to a common
denominator instead: the greedy pass at gamma = p/q on q h and p, the
minimizer check on every surplus times lcm(1..m-1).  For a PIN table
those loops are all ints; only the m Newton values and the returned
witness become ``Fraction``s.  Float oracles use a
tie tolerance band, inside which only a bitwise-zero difference counts as
a genuine tie.  Partitions that tie in the reals can round an ulp apart;
the greedy cannot see such a gap, so a float capacity can then read an
ulp above the least rounded surplus over all partitions.
"""

from __future__ import annotations

import enum
import math
import operator
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


def speaker_table(oracle: EntropyOracle, speakers: int) -> list:
    """Entropies of the submasks of ``speakers`` in ascending order.

    Entry s is the subset picked by the bits of s.  The list is
    ``oracle.table()`` cut down by dropping each silent terminal u, highest
    first: with w = 2^(u-1), the entries at the masks without u are the
    runs h[b : b + w], b a multiple of 2w.  The cut copies them with
    stepped slices, ``cut[r::w] = h[r::2w]`` for each offset r < w, or run
    by run, whichever takes fewer slices.  With every terminal speaking it
    is the oracle's shared list, which callers must not modify.  Refuses
    m > ``subsets.MAX_TABLE_M`` before the oracle fills.
    """
    subsets.check_table_m(oracle.m)
    h = oracle.table()
    for u in reversed(subsets.members(subsets.full_mask(oracle.m) & ~speakers)):
        w = 1 << (u - 1)
        if w <= len(h) // (2 * w):  # loop over offsets or runs, whichever is fewer
            cut = [0] * (len(h) >> 1)
            for r in range(w):
                cut[r::w] = h[r :: 2 * w]
        else:
            cut = []
            for b in range(0, len(h), 2 * w):
                cut += h[b : b + w]
        h = cut
    return h


@dataclass(frozen=True)
class CapacityReport:
    value: Any
    argmin: tuple[Partition, ...]
    partitions_examined: int
    exact: bool


def _greedy_cells(h: list, m: int, gamma: Any, band: Any) -> tuple[list[int], list]:
    """Cells of the greedy Dilworth-truncation partition of h - gamma, and the x_j.

    Terminal j takes x_j = min over B with j in B inside {1..j} of
    h(B) - gamma - x(B - j), then merges with the cells that meet the B of
    fewest members (lowest mask first) among those within ``band`` of the
    minimum.  Cells come back in canonical order, by smallest member; the
    x_j in terminal order.  At an exact gamma = p/q (a ``Fraction``) the
    pass runs on q h and p, so an integer table stays in ints, and returns
    each x_j as a ``Fraction`` over q.
    """
    exact = isinstance(gamma, Fraction)
    if exact:
        q, gamma = gamma.denominator, gamma.numerator
        if q != 1:
            h = [q * v for v in h]
    x = [0]  # x[s] = x(s) for the subsets s of the terminals placed so far
    xs = []
    cells: list[int] = []
    for j in range(m):
        bit = 1 << j
        gains = [a - b for a, b in zip(h[bit : bit << 1], x)]
        low = min(gains)
        cutoff = low + band
        if gains[0] <= cutoff:  # B = {j} has the fewest members
            chosen = bit
        else:
            chosen = bit | min((s for s, g in enumerate(gains) if g <= cutoff), key=int.bit_count)
        merged = chosen
        for cell in [c for c in cells if c & chosen]:
            cells.remove(cell)
            merged |= cell
        cells.append(merged)
        x_j = low - gamma
        xs.append(x_j)
        x += [v + x_j for v in x]
    if exact:
        xs = [Fraction(v, q) for v in xs]
    return sorted(cells, key=lambda c: c & -c), xs


def _cells_surplus(h: list, cells: list[int], exact: bool) -> Any:
    return _ratio(sum(map(h.__getitem__, cells)) - h[-1], len(cells) - 1, exact)


def _newton_search(h: list, m: int, exact: bool) -> tuple[Any, list[int], int]:
    """Least surplus over the table ``h``: (value, its cells, partitions evaluated)."""
    best = [1 << i for i in range(m)]
    value = _cells_surplus(h, best, exact)
    examined = 1
    while True:
        cells = _greedy_cells(h, m, value, 0)[0]
        if len(cells) < 2 or cells == best:
            break
        examined += 1
        candidate = _cells_surplus(h, cells, exact)
        if not candidate < value:
            break
        value, best = candidate, cells
    return value, best, examined


def sk_capacity(oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL) -> CapacityReport:
    """Minimize the partition surplus by Newton steps over the Dilworth truncation.

    ``value`` is the least surplus evaluated, bitwise as
    ``partition_surplus`` gives it; Newton steps compare strictly.
    ``argmin`` holds one partition: the finest minimizer, chosen by a last
    greedy pass at gamma = ``value`` that keeps the fewest-member set within
    ``tie_tol`` of each step minimum (exactly equal for exact oracles).  If
    that pass gives the trivial partition or one whose surplus lies outside
    the band, ``argmin`` holds the partition whose surplus set ``value``.
    ``partitions_examined`` counts the surpluses the Newton steps evaluated.
    """
    m = oracle.m
    if m < 2:
        raise SizeLimitError("capacity needs at least 2 terminals")
    h = speaker_table(oracle, subsets.full_mask(m))
    exact = oracle.exact
    band = 0 if exact else tie_tol
    value, best, examined = _newton_search(h, m, exact)
    finest = _greedy_cells(h, m, value, band)[0]
    if len(finest) >= 2 and abs(_cells_surplus(h, finest, exact) - value) <= band:
        best = finest
    return CapacityReport(value, (Partition.from_cells(best, m),), examined, exact)


def restricted_capacity(oracle: EntropyOracle, speakers: int) -> Any:
    """Capacity min(C(X_T), min over silent d of I(X_T; X_d)) when only ``speakers`` talk.

    C(X_T) is the Newton search over the entropies of T's subsets: H(X_T)
    when |T| = 1, the capacity itself when T is every terminal.  Each I
    term is h(T) + h(d) - h(T + d) read from ``oracle.table()``, in
    ``mutual_information``'s order; it sums like a 2-cell surplus, so for
    T = {1..m} minus u it is bitwise ``partition_surplus`` of {T, {u}}.
    """
    m = oracle.m
    subsets.check_subset(speakers, m)
    exact = oracle.exact
    table = speaker_table(oracle, speakers)
    k = subsets.size(speakers)
    value = _ratio(table[-1], 1, exact) if k == 1 else _newton_search(table, k, exact)[0]
    h = oracle.table()
    for d in map(subsets.bit, subsets.members(subsets.full_mask(m) & ~speakers)):
        value = min(value, _ratio(h[speakers] + h[d] - h[speakers | d], 1, exact))
    return value


def speaker_rates(oracle: EntropyOracle, speakers: int, gamma: Any) -> dict[int, Any]:
    """The greedy x_j of h - ``gamma`` over the speakers' own subsets, by terminal.

    At gamma = ``restricted_capacity`` they are an optimal rate vector of
    the covering program in ``silent_rate`` (see the module docstring).
    """
    subsets.check_subset(speakers, oracle.m)
    table = speaker_table(oracle, speakers)
    terminals = subsets.members(speakers)
    return dict(zip(terminals, _greedy_cells(table, len(terminals), gamma, 0)[1]))


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
    the comparison count is deterministic.  Each surplus reads the
    oracle's table and sums its cells in canonical order
    (by smallest member), so it is bitwise
    ``partition_surplus(oracle, isolating_partition(m, B))``; only the
    returned witness becomes a ``Partition``.  For an exact oracle the scan
    compares the surpluses times L = lcm(1..m-1), sum(h) - h(M) times
    L / (|P| - 1), and only the witness's two surpluses become ``Fraction``s.

    Float semantics: a difference below -tie_tol refutes minimizer-ness, a
    bitwise-zero difference is a genuine tie, and any other difference
    inside the band makes the verdict NumericallyAmbiguous.
    """
    m = oracle.m
    if m < 3:
        raise SizeLimitError("minimizer check needs m >= 3")
    h = speaker_table(oracle, subsets.full_mask(m))
    full = len(h) - 1
    exact = oracle.exact
    band = 0 if exact else tie_tol
    if exact:
        unit = math.lcm(*range(1, m))
        scale, factors = operator.mul, [0] + [unit // k for k in range(1, m)]
    else:
        scale, factors = operator.truediv, range(m)
    singletons = [1 << i for i in range(m)]
    s_value = scale(sum(map(h.__getitem__, singletons)) - h[-1], factors[m - 1])

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
        value = scale(sum(map(h.__getitem__, cells)) - h[-1], factors[len(cells) - 1])
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
    if exact:
        value, s_value = Fraction(value, unit), Fraction(s_value, unit)
    witness = MinimizerWitness(isolating_partition(m, block), value, s_value)
    return MinimizerVerdict(status, comparisons, witness)
