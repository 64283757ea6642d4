"""Capacity when only a subset of terminals may talk.

With speaker set T, the secret-key capacity equals H(X_T) minus the least
total communication rate that lets every speaker reconstruct X_T.  That
least rate is the optimum of a covering program over rate vectors
(R_i : i in T):

    sum_{i in A cap T} R_i >= H(X_{A cap T} | X_{complement of A})

for every proper subset A of {1..m} that meets T.  Constraints sharing the
same B = A cap T differ only in their right-hand side, so the region keeps
one constraint per distinct B with the maximal bound.

``build_rate_region`` constructs the region by enumerating every
admissible A.  ``reduced_rate_region`` builds the same region for the
one-silent-terminal case T = {1..m} minus u directly from the closed form
(bound H(X_B | X_{T minus B}) for proper B, and H(X_T | X_u) for B = T);
the two routes must agree constraint for constraint, which the test suite
checks.  The optimum itself comes from the in-repo covering simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import subsets
from .errors import InvalidSubsetError, SizeLimitError
from .simplex import CoverSolution, solve_min_cover
from .sources import EntropyOracle

#: build_rate_region enumerates 2^m subsets; keep that bounded.
MAX_REGION_M = 16

#: Float slack below which a constraint counts as binding at the optimum.
DEFAULT_BINDING_TOL = 1e-9


@dataclass(frozen=True)
class RateConstraint:
    """sum of rates over ``speakers_subset`` must be >= ``lower_bound``."""

    speakers_subset: int
    lower_bound: Any


@dataclass(frozen=True)
class RateRegion:
    """Reduced constraint family for one speaker set, sorted by subset mask."""

    m: int
    speakers: int
    constraints: tuple[RateConstraint, ...]
    exact: bool


def build_rate_region(oracle: EntropyOracle, speakers: int) -> RateRegion:
    """Constraint region for the given speaker set, by full enumeration."""
    m = oracle.m
    if m > MAX_REGION_M:
        raise SizeLimitError(f"rate region construction supports m <= {MAX_REGION_M}")
    subsets.check_subset(speakers, m)
    full = subsets.full_mask(m)
    best: dict[int, Any] = {}
    for a in range(1, full):
        b = a & speakers
        if b == 0:
            continue
        given = full & ~a
        bound = oracle.entropy(b | given) - oracle.entropy(given)
        if b not in best or bound > best[b]:
            best[b] = bound
    constraints = tuple(
        RateConstraint(b, best[b]) for b in sorted(best)
    )
    return RateRegion(m, speakers, constraints, oracle.exact)


def reduced_rate_region(oracle: EntropyOracle, silent_terminal: int) -> RateRegion:
    """Closed-form region for all speakers except one silent terminal.

    Dropping silent-terminal subsets from the conditioning can only raise
    the conditional entropy, so the per-B maximum is attained at
    H(X_B | X_{T minus B}) for proper B, and for B = T at the single
    admissible conditioning H(X_T | X_u).
    """
    m = oracle.m
    if m < 2:
        raise SizeLimitError("reduced region needs m >= 2")
    if m > MAX_REGION_M:
        raise SizeLimitError(f"rate region construction supports m <= {MAX_REGION_M}")
    if not isinstance(silent_terminal, int) or not 1 <= silent_terminal <= m:
        raise InvalidSubsetError(f"silent terminal {silent_terminal!r} outside 1..{m}")
    u = 1 << (silent_terminal - 1)
    speakers = subsets.full_mask(m) & ~u
    constraints = []
    for b in subsets.iter_submasks(speakers):
        given = u if b == speakers else speakers & ~b
        bound = oracle.entropy(b | given) - oracle.entropy(given)
        constraints.append(RateConstraint(b, bound))
    constraints.sort(key=lambda c: c.speakers_subset)
    return RateRegion(m, speakers, tuple(constraints), oracle.exact)


@dataclass(frozen=True)
class RateSolution:
    min_sum: Any
    rates: dict[int, Any]
    binding: tuple[RateConstraint, ...]
    lp: CoverSolution


def min_sum_rate(
    region: RateRegion,
    binding_tol: float = DEFAULT_BINDING_TOL,
) -> RateSolution:
    """Least total rate in the region; also reports an optimal rate vector
    (a vertex) and which constraints it makes tight."""
    terminals = subsets.members(region.speakers)
    index = {t: i for i, t in enumerate(terminals)}
    members = []
    bounds = []
    for c in region.constraints:
        members.append(tuple(index[t] for t in subsets.members(c.speakers_subset)))
        bounds.append(Fraction(c.lower_bound) if region.exact else c.lower_bound)
    if region.exact:
        one: Any = Fraction(1)
        eps: Any = Fraction(0)
    else:
        one = bounds[0] * 0 + 1
        eps = 1e-12 if isinstance(one, float) else one * 1e-30
    sol = solve_min_cover(len(terminals), members, bounds, one=one, eps=eps)
    rates = {t: sol.x[index[t]] for t in terminals}
    binding = []
    for c, cols, bound in zip(region.constraints, members, bounds):
        slack = sum(sol.x[i] for i in cols) - bound
        if (slack == 0) if region.exact else (slack <= one * binding_tol):
            binding.append(c)
    return RateSolution(sol.objective, rates, tuple(binding), sol)


def sum_rate_lower_bound(oracle: EntropyOracle, speakers: int) -> Any:
    """Closed-form lower bound on the least total rate for |T| = m-1:

        (1 / (m-2)) * sum_{j in T} H(X_{T minus j} | X_j).

    Valid for m >= 3; tight for some sources (e.g. independent bits).
    """
    m = oracle.m
    subsets.check_subset(speakers, m)
    if m < 3 or subsets.size(speakers) != m - 1:
        raise SizeLimitError("sum-rate bound needs m >= 3 and |T| = m-1")
    h_t = oracle.entropy(speakers)
    total = sum(h_t - oracle.entropy(1 << (j - 1)) for j in subsets.members(speakers))
    if oracle.exact:
        return Fraction(total, m - 2)
    return total / (m - 2)


@dataclass(frozen=True)
class SilentCapacityReport:
    speakers: int
    speakers_entropy: Any
    min_sum_rate: Any
    capacity: Any
    rates: dict[int, Any]
    binding: tuple[RateConstraint, ...]
    sum_rate_bound: Optional[Any]
    exact: bool


def silent_capacity(
    oracle: EntropyOracle,
    speakers: int,
    binding_tol: float = DEFAULT_BINDING_TOL,
) -> SilentCapacityReport:
    """Capacity H(X_T) - min-sum-rate when only ``speakers`` may talk.

    The closed-form sum-rate lower bound is attached whenever it applies
    (m >= 3 and exactly one silent terminal).
    """
    region = build_rate_region(oracle, speakers)
    solution = min_sum_rate(region, binding_tol)
    h_t = oracle.entropy(speakers)
    capacity = h_t - solution.min_sum
    bound = None
    if oracle.m >= 3 and subsets.size(speakers) == oracle.m - 1:
        bound = sum_rate_lower_bound(oracle, speakers)
    return SilentCapacityReport(
        speakers=speakers,
        speakers_entropy=h_t,
        min_sum_rate=solution.min_sum,
        capacity=capacity,
        rates=solution.rates,
        binding=solution.binding,
        sum_rate_bound=bound,
        exact=oracle.exact,
    )
