"""Rate regions for a speaker set, and the least total rate over them.

With speaker set T and silent set S = {1..m} minus T, the secret-key
capacity equals H(X_T) minus the least total communication rate that lets
every terminal reconstruct X_T.  That least rate is the optimum of a
covering program over rate vectors (R_i : i in T):

    sum_{i in A cap T} R_i >= H(X_{A cap T} | X_{complement of A})

for every proper subset A of {1..m} that meets T.  Constraints sharing the
same B = A cap T differ only in their right-hand side, so the region keeps
one constraint per distinct B with the maximal bound.

``build_rate_region`` writes that maximum in closed form.  The complement
of A is T minus B together with the silent terminals outside A, and
conditioning never raises entropy, so the bound is largest when the
complement holds as few silent terminals as it can:

- for proper B, none: H(X_B | X_{T minus B}) = H(X_T) - H(X_{T minus B});
- for B = T, which has a constraint only when S is nonempty (A must stay
  proper), one: the maximum over d in S of H(X_T | X_d).

So a region reads 2^|T| - 1 + 2|S| subset entropies: the speakers'
table cut from ``oracle.table()``, and the bound on T from that table
itself.  The tests compare it with the maximum over every A, which reads
all 2^m.

``silent_capacity`` solves no linear program: the optimum is H(X_T) -
C_T with C_T = ``capacity.restricted_capacity``, and
``capacity.speaker_rates`` at C_T is an optimal rate vector (the
``capacity`` module docstring says why).  Like the region, both read
only the oracle's one table, as does H(X_T).  For an exact oracle the
capacity, R_min and rates are ``Fraction``s, and the binding check sums
the rates in ints over their common denominator; float rates sum to R_min
only within rounding.  ``min_sum_rate`` solves the program by the
covering simplex, as the tests' reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, NamedTuple

from . import subsets
from .capacity import DEFAULT_TIE_TOL, restricted_capacity, speaker_rates, speaker_table
from .simplex import CoverSolution, solve_min_cover
from .sources import EntropyOracle


class RateConstraint(NamedTuple):
    """sum of rates over ``speakers_subset`` must be >= ``lower_bound``."""

    speakers_subset: int
    lower_bound: Any


class RateRegion(NamedTuple):
    """Reduced constraint family for one speaker set, sorted by subset mask."""

    m: int
    speakers: int
    constraints: tuple[RateConstraint, ...]
    exact: bool


def build_rate_region(oracle: EntropyOracle, speakers: int) -> RateRegion:
    """Constraint region for the given speaker set, in closed form."""
    m = oracle.m
    subsets.check_subset(speakers, m)
    table = speaker_table(oracle, speakers)
    full = len(table) - 1  # the compressed index of T; full ^ s is T minus the s-th B
    constraints = [
        RateConstraint(b, table[full] - table[full ^ s])
        for s, b in enumerate(subsets.iter_submasks(speakers), 1)
        if s != full
    ]
    silent = subsets.full_mask(m) & ~speakers
    if silent:
        h = oracle.table()
        bound = max(h[speakers | d] - h[d] for d in map(subsets.bit, subsets.members(silent)))
        constraints.append(RateConstraint(speakers, bound))
    return RateRegion(m, speakers, tuple(constraints), oracle.exact)


class RateSolution(NamedTuple):
    min_sum: Any
    rates: dict[int, Any]
    binding: tuple[RateConstraint, ...]
    lp: CoverSolution


def min_sum_rate(region: RateRegion) -> RateSolution:
    """Least total rate in the region by the covering simplex; also reports
    an optimal rate vector (a vertex) and which constraints it makes tight.

    No production path calls it; the tests keep it as the LP reference for
    ``silent_capacity``.
    """
    terminals = subsets.members(region.speakers)
    index = {t: i for i, t in enumerate(terminals)}
    members = [tuple(index[t] for t in subsets.members(c.speakers_subset)) for c in region.constraints]
    bounds = [c.lower_bound for c in region.constraints]
    if region.exact:
        one, eps = Fraction(1), Fraction(0)
    else:
        one = bounds[0] * 0 + 1
        eps = 1e-12 if isinstance(one, float) else one * 1e-30
    sol = solve_min_cover(len(terminals), members, bounds, one=one, eps=eps)
    rates = {t: sol.x[index[t]] for t in terminals}
    return RateSolution(sol.objective, rates, _binding(region, rates, DEFAULT_TIE_TOL), sol)


def _binding(region: RateRegion, rates: dict[int, Any], tie_tol: float) -> tuple[RateConstraint, ...]:
    """Constraints whose slack at ``rates`` is at most ``tie_tol`` (0 when exact).

    One pass sums the rates over every submask B of the speakers: B's sum is
    that of B minus its highest terminal plus that terminal's rate, the
    order in which ``sum`` would add them.  Exact rates and bounds are first
    scaled by the rates' common denominator, so the sums stay in ints.
    """
    band = 0 if region.exact else tie_tol
    bounds = [c.lower_bound for c in region.constraints]
    if region.exact:
        unit = math.lcm(*(r.denominator for r in rates.values()))
        rates = {t: r.numerator * (unit // r.denominator) for t, r in rates.items()}
        bounds = [b * unit for b in bounds]
    sums = {0: 0}
    for b in subsets.iter_submasks(region.speakers):
        top = b.bit_length()
        sums[b] = sums[b ^ (1 << (top - 1))] + rates[top]
    return tuple(
        c for c, bound in zip(region.constraints, bounds) if sums[c.speakers_subset] - bound <= band
    )


class SilentCapacityReport(NamedTuple):
    speakers_entropy: Any
    min_sum_rate: Any
    capacity: Any
    rates: dict[int, Any]
    binding: tuple[RateConstraint, ...]
    exact: bool


def silent_capacity(
    oracle: EntropyOracle,
    speakers: int,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> SilentCapacityReport:
    """``restricted_capacity`` C_T of ``speakers``, R_min = H(X_T) - C_T,
    the greedy rates at C_T, and the region's constraints they make tight.

    A float rate that rounds below 0 reads 0 (r - r, a zero of its type).
    Exact rates sum to R_min exactly, float rates only within rounding.
    """
    subsets.check_subset(speakers, oracle.m)
    capacity = restricted_capacity(oracle, speakers)
    greedy = speaker_rates(oracle, speakers, capacity)
    rates = {t: r if r >= 0 else r - r for t, r in greedy.items()}
    binding = _binding(build_rate_region(oracle, speakers), rates, tie_tol)
    h_t = oracle.table()[speakers]
    return SilentCapacityReport(
        speakers_entropy=h_t,
        min_sum_rate=h_t - capacity,
        capacity=capacity,
        rates=rates,
        binding=binding,
        exact=oracle.exact,
    )
