"""Secret-key capacity via partition minimization.

The capacity of an m-terminal source with unrestricted public discussion
is the minimum, over all partitions P of the terminals with at least two
cells, of the normalized entropy surplus

    surplus(P) = (sum_{A in P} H(X_A) - H(X_{1..m})) / (|P| - 1).

This module evaluates that objective against any subset-entropy oracle,
minimizes it without enumerating partitions, also when only some
terminals talk, and decides whether the all-singletons partition is the
minimizer.  The searches work on a table of subset entropies and on cell
masks.  Every surplus folds its cells' entropies left to right in
canonical cell order (by smallest member) from int 0, so a partition's
surplus has the same bits whichever search or scan evaluates it.  The
fold is ``reduce(operator.add, ..., 0)``, not ``sum``: since Python 3.12,
``sum`` compensates float rounding, and on 3.10/3.11 the two agree.

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
starts at the surplus of a start partition (``_start``) and steps down to
the surplus of the partition found until that is no longer strictly
below; the last gamma is the capacity.  The cell count falls at every
step, so at most m partitions are evaluated.  Taking the minimizing B
with the fewest members gives the finest minimizing partition, the
common refinement of all of them.  One loop, ``_dinkelbach``, takes these steps for every
search here and, with a min-cut pass, for ``pin.pin_capacity``.  A pass
that returns the current cells or the trivial partition ends it; one
that returns other cells of equal surplus ends it on those cells, so an
exact search ends on the finest minimizer.

The iteration may start at any partition with at least 2 cells: from any
start, gamma only falls, and it stops only at a gamma no partition beats,
the least surplus.  In exact arithmetic the last pass, at gamma = C,
returns the finest minimizer whatever the start, so only the count of
partitions evaluated depends on it.  An exact search starts at the least
surplus of three candidates, the earlier winning a tie: its warm cells
(when given), the singletons, and the one-terminal cut {u} | rest of
least surplus, h(u) + h(M - u) - h(M), which O(m) table reads find.  That
cut often minimizes already (on the 8 PIN multigraphs of the benchmark's
m = 8 pool, 10 partitions evaluated instead of 17).
``leave_one_out_capacities`` gives each of its m searches over the
speakers M - u of an exact oracle the warm cells of the capacity's
minimizer with u dropped, which often already minimize over M - u or lie
a step from the minimizer (on that pool, 78 greedy passes, against 102
from the warm cells alone and 147 from the singletons).  Float searches
still start at the singletons: a float value is the fold of the
partition the search ends at, and when partitions tie in the reals a
search from elsewhere can end at another of them, whose fold rounds an
ulp apart (about 1 % of pmfs whose terminals are copies and XORs of a
few biased bits, at m = 4..7).

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
Bell(m)).  Uniqueness corresponds to all inequalities strict.  With r
the least member of the rest, P_B's fold in canonical cell order is the
singletons below r, then h(rest), then B's singletons above r.  The check
builds that fold for every mask at once in whole-table passes: the
prefixes h{1} + ... + h{r-1}, laid out with one stepped slice per r, plus
h(rest), which is the table reversed; then h{i} for i = 2..m in turn,
added to the masks holding i above a clear bit by stepped slice or by
contiguous run, whichever takes fewer slices.  Only when some difference
lies inside the tie band does a Python loop look for ties.

Exact oracles (integer or rational entropies) report every capacity,
surplus and rate as an exact ``Fraction`` and never give an ambiguous
verdict.  Their 2^m-step loops run on the table scaled to a common
denominator instead: the greedy pass at gamma = p/q on q h and p, the
minimizer check on every surplus times lcm(1..m-1).  For a PIN table
those loops are all ints; only the m Newton values, the rates
``speaker_rates`` returns and the returned witness become ``Fraction``s.
Float oracles use a tie tolerance band, inside which only a bitwise-zero
difference counts as a genuine tie.  Partitions that tie in the reals can
round an ulp apart; the greedy cannot see such a gap, so a float capacity
can then read an ulp above the least rounded surplus over all partitions.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from typing import Any, NamedTuple, Optional

from . import subsets
from .errors import SizeLimitError
from .partitions import Partition, canonical_order, isolating_partition, merge_cells
from .sources import EntropyOracle

#: Default half-width of the band inside which float comparisons are ties.
DEFAULT_TIE_TOL = 1e-9


def _ratio(numerator: Any, denominator: int, exact: bool) -> Any:
    if exact:
        return Fraction(numerator, denominator)
    return numerator / denominator


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
        h = _drop_terminal(h, u)
    return h


def _drop_terminal(h: list, u: int) -> list:
    """The entries of ``h`` at the masks without terminal u, in mask order."""
    w = 1 << (u - 1)
    if w <= len(h) // (2 * w):  # loop over offsets or runs, whichever is fewer
        cut = [0] * (len(h) >> 1)
        for r in range(w):
            cut[r::w] = h[r :: 2 * w]
    else:
        cut = []
        for b in range(0, len(h), 2 * w):
            cut += h[b : b + w]
    return cut


class CapacityReport(NamedTuple):
    value: Any
    argmin: Partition
    partitions_examined: int
    exact: bool


def _greedy_cells(h: list, m: int, gamma: Any, band: Any) -> tuple[list[int], list]:
    """Cells of the greedy Dilworth-truncation partition of h - gamma, and the x_j.

    Terminal j takes x_j = min over B with j in B inside {1..j} of
    h(B) - gamma - x(B - j), then merges with the cells that meet the B of
    fewest members (lowest mask first) among those within ``band`` of the
    minimum.  Cells come back in canonical order, by smallest member; the
    x_j in terminal order.  At an exact gamma = p/q (a ``Fraction``) the
    pass runs on q h and p, so an integer table stays in ints, and the
    x_j come back as q x_j; ``speaker_rates`` divides them by q.
    """
    if isinstance(gamma, Fraction):
        q, gamma = gamma.denominator, gamma.numerator
        if q != 1:
            h = [q * v for v in h]
    x = [0]  # x[s] = x(s) for the subsets s of the terminals placed so far
    xs = []
    cells: list[int] = []
    for j in range(m):
        bit = 1 << j
        gains = list(map(operator.sub, h[bit : bit << 1], x))
        low = min(gains)
        cutoff = low + band
        if gains[0] <= cutoff:  # B = {j} has the fewest members
            chosen = bit
        else:
            near = compress(range(bit), map(operator.le, gains, repeat(cutoff)))
            chosen = bit | min(near, key=int.bit_count)
        cells = merge_cells(cells, chosen)
        x_j = low - gamma
        xs.append(x_j)
        x += [v + x_j for v in x]
    return canonical_order(cells), xs


def _cells_surplus(h: list, cells: list[int], exact: bool) -> Any:
    total = reduce(operator.add, map(h.__getitem__, cells), 0)
    return _ratio(total - h[-1], len(cells) - 1, exact)


def _start(
    m: int,
    surplus: Callable[[list[int]], Any],
    cut: Optional[Callable[[int], Any]] = None,
    warm: Optional[list[int]] = None,
) -> tuple[Any, list[int]]:
    """Where a Newton search over m terminals starts: (its surplus, its cells).

    A float search (no ``cut``) starts at the singletons.  An exact search
    starts at whichever of ``warm`` (when given), the singletons and the
    one-terminal cut {u} | rest of least ``cut(u)``, that cut's surplus,
    has the least surplus; on a tie the earlier of the three wins.
    """
    best = [1 << i for i in range(m)]
    value = surplus(best)
    if cut is None:
        return value, best
    if warm is not None and (warm_value := surplus(warm)) <= value:
        value, best = warm_value, warm
    u = min(range(m), key=cut)
    if cut(u) < value:
        value, best = Fraction(cut(u)), canonical_order([1 << u, ((1 << m) - 1) ^ (1 << u)])
    return value, best


def _dinkelbach(
    start: tuple[Any, list[int]],
    greedy: Callable[[Any], list[int]],
    surplus: Callable[[list[int]], Any],
) -> tuple[Any, list[int], int]:
    """The Newton loop of every capacity search, from ``start``, a surplus
    and its cells: (value, its cells, partitions evaluated).  See the
    module docstring."""
    (value, best), examined = start, 1
    while True:
        cells = greedy(value)
        if len(cells) < 2 or cells == best:
            return value, best, examined
        examined += 1
        candidate = surplus(cells)
        if candidate <= value:
            best = cells
        if not candidate < value:
            return value, best, examined
        value = candidate


def _newton_search(
    h: list, m: int, exact: bool, start: Optional[list[int]] = None
) -> tuple[Any, list[int], int]:
    """``_dinkelbach`` on the table ``h`` from ``_start``, with ``start`` as
    the warm cells.  An exact search reads each one-terminal cut's surplus
    h(u) + h(M - u) - h(M) off the table; a float one starts at the
    singletons."""
    full = len(h) - 1
    surplus = lambda cells: _cells_surplus(h, cells, exact)
    cut = (lambda u: h[1 << u] + h[full ^ (1 << u)] - h[full]) if exact else None
    return _dinkelbach(
        _start(m, surplus, cut, start),
        lambda gamma: _greedy_cells(h, m, gamma, 0)[0],
        surplus,
    )


def sk_capacity(oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL) -> CapacityReport:
    """Minimize the partition surplus by Newton steps over the Dilworth truncation.

    ``value`` is the least surplus evaluated, the canonical fold of its
    cells (see the module docstring); Newton steps compare strictly.
    ``argmin`` is one ``Partition``: the finest minimizer.  An exact search
    ends on it.  For a float or mpf oracle a last greedy pass at gamma =
    ``value`` keeps the fewest-member set within ``tie_tol`` of each step
    minimum; if that pass gives the trivial partition or one whose surplus
    lies outside the band, ``argmin`` holds the cells the search ended on.
    ``partitions_examined`` counts the surpluses the Newton steps evaluated.
    """
    m = oracle.m
    if m < 2:
        raise SizeLimitError("capacity needs at least 2 terminals")
    h = speaker_table(oracle, subsets.full_mask(m))
    exact = oracle.exact
    value, best, examined = _newton_search(h, m, exact)
    if not exact:
        finest = _greedy_cells(h, m, value, tie_tol)[0]
        if len(finest) >= 2 and abs(_cells_surplus(h, finest, exact) - value) <= tie_tol:
            best = finest
    return CapacityReport(value, Partition.from_cells(best, m), examined, exact)


def restricted_capacity(oracle: EntropyOracle, speakers: int) -> Any:
    """Capacity min(C(X_T), min over silent d of I(X_T; X_d)) when only ``speakers`` talk.

    C(X_T) is the Newton search over the entropies of T's subsets, started
    by ``_start``: H(X_T) when |T| = 1, the capacity itself when T is
    every terminal.  Each I term is h(T) + h(d) - h(T + d) read from
    ``oracle.table()``; it sums like a 2-cell surplus, so for T = {1..m}
    minus u it is bitwise the surplus of {T, {u}}.
    """
    subsets.check_subset(speakers, oracle.m)
    table = speaker_table(oracle, speakers)
    return _restricted(oracle.table(), table, speakers, oracle.exact)


def leave_one_out_capacities(oracle: EntropyOracle) -> tuple[Any, list]:
    """The capacity C and ``restricted_capacity`` of {1..m} minus u for u = 1..m.

    One Newton search gives C and its cells.  For an exact oracle those
    cells with u dropped (``_drop_cells``), when at least 2 of them remain,
    are the warm candidate of ``_start`` for the speakers M - u; a float
    oracle's searches start at the singletons (see the module docstring).
    Each value equals ``restricted_capacity(oracle, M - u)``.
    """
    m = oracle.m
    if m < 2:
        raise SizeLimitError("capacity needs at least 2 terminals")
    h = speaker_table(oracle, subsets.full_mask(m))
    exact = oracle.exact
    capacity, cells, _ = _newton_search(h, m, exact)
    restricted = []
    for u in range(1, m + 1):
        start = _drop_cells(cells, u) if exact else None
        speakers = subsets.full_mask(m) & ~subsets.bit(u)
        restricted.append(_restricted(h, _drop_terminal(h, u), speakers, exact, start))
    return capacity, restricted


def _drop_cells(cells: list[int], u: int) -> Optional[list[int]]:
    """``cells`` over the terminals other than u, or None if fewer than 2 remain.

    Bit u - 1 goes and the bits above it shift down one, as in the speaker
    table of the other terminals; empty cells are dropped and the rest
    come back in canonical order, by smallest member.
    """
    low = (1 << (u - 1)) - 1
    dropped = [(c & low) | ((c >> 1) & ~low) for c in cells]
    start = canonical_order(filter(None, dropped))
    return start if len(start) >= 2 else None


def _restricted(
    h: list, table: list, speakers: int, exact: bool, start: Optional[list[int]] = None
) -> Any:
    """min(C(X_T), min over silent d of I(X_T; X_d)) for T = ``speakers``.

    ``h`` is the whole table and ``table`` its cut to T's subsets; the
    Newton search over ``table`` starts at ``start``.
    """
    k = speakers.bit_count()
    value = _ratio(table[-1], 1, exact) if k == 1 else _newton_search(table, k, exact, start)[0]
    for d in map(subsets.bit, subsets.members((len(h) - 1) & ~speakers)):
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
    xs = _greedy_cells(table, len(terminals), gamma, 0)[1]
    if isinstance(gamma, Fraction):
        xs = [Fraction(v, gamma.denominator) for v in xs]
    return dict(zip(terminals, xs))


class MinimizerStatus(str, enum.Enum):
    UNIQUE = "UniqueMinimizer"
    NON_UNIQUE = "NonUniqueMinimizer"
    NOT_MINIMIZER = "NotMinimizer"
    AMBIGUOUS = "NumericallyAmbiguous"


class MinimizerWitness(NamedTuple):
    """The comparison that decided a non-unique/not-minimizer verdict."""

    partition: Partition
    surplus: Any
    singleton_surplus: Any


class MinimizerVerdict(NamedTuple):
    status: MinimizerStatus
    comparisons: int
    witness: Optional[MinimizerWitness]


def singleton_minimizer_check(
    oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL
) -> MinimizerVerdict:
    """Decide whether the singleton partition minimizes the surplus.

    Compares against the 2^m - m - 2 partitions P_B isolating a block B
    with 1 <= |B| <= m-2, in increasing mask order, all of them so the
    comparison count is deterministic; the first block in mask order
    decides among equals.  Each surplus folds its cells' table entries in
    canonical order (by smallest member), in the whole-table passes the
    module docstring describes, so it is bitwise the canonical fold of
    ``isolating_partition(m, B)``; only the returned witness becomes a
    ``Partition``.  For an exact oracle the scan
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
    n = len(h)
    exact = oracle.exact
    band = 0 if exact else tie_tol
    if exact:
        unit = math.lcm(*range(1, m))
        scale, factors = operator.mul, [0] + [unit // k for k in range(1, m)]
    else:
        scale, factors = operator.truediv, range(m)
    prefix = [0] * n  # h{1} + ... + h{r-1}, r the least terminal outside b
    total = 0
    for t in range(m):  # the masks whose lowest clear bit is bit t
        prefix[(1 << t) - 1 :: 2 << t] = repeat(total, n >> (t + 1))
        total = total + h[1 << t]
    s_value = scale(total - h[-1], factors[m - 1])
    acc = list(map(operator.add, prefix, reversed(h)))  # h(rest) = h[~b] = reversed(h)[b]
    for t in range(1, m):
        # Add h{t+1} where bit t is set above a clear bit: offsets w .. 2w - 2
        # of each run of 2w masks, by offset or by run, whichever is fewer.
        w, v = 1 << t, h[1 << t]
        if w - 1 <= n // (2 * w):
            for r in range(w, 2 * w - 1):
                acc[r :: 2 * w] = [a + v for a in acc[r :: 2 * w]]
        else:
            for b in range(w, n, 2 * w):
                acc[b : b + w - 1] = [a + v for a in acc[b : b + w - 1]]
    is_block = [False] + [True] * (m - 2) + [False, False]  # by |B|
    blocks = list(compress(range(n), map(is_block.__getitem__, map(int.bit_count, range(n)))))
    sizes = map(int.bit_count, blocks)
    ds = [scale(acc[b] - h[-1], factors[k]) - s_value for b, k in zip(blocks, sizes)]

    worst = min(ds)
    if worst < -band:
        status, i = MinimizerStatus.NOT_MINIMIZER, ds.index(worst)
    elif worst > band:
        return MinimizerVerdict(MinimizerStatus.UNIQUE, len(ds), None)
    else:  # some difference lies inside the band: the first nonzero one, else the first tie
        inside = [i for i, d in enumerate(ds) if -band <= d <= band]
        near = [i for i in inside if ds[i] != 0]
        if near:
            status, i = MinimizerStatus.AMBIGUOUS, near[0]
        else:
            status, i = MinimizerStatus.NON_UNIQUE, inside[0]
    block = blocks[i]
    value = scale(acc[block] - h[-1], factors[block.bit_count()])
    if exact:
        value, s_value = Fraction(value, unit), Fraction(s_value, unit)
    witness = MinimizerWitness(isolating_partition(m, block), value, s_value)
    return MinimizerVerdict(status, len(ds), witness)
