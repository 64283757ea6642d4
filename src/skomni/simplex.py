"""Dense simplex for minimum-sum covering programs.

Solves the one family of linear programs this package needs:

    minimize    x_1 + ... + x_n
    subject to  sum_{i in members_j} x_i >= bound_j      (j = 1..c)
                x >= 0

The primal has no obvious starting vertex, but its dual

    maximize    sum_j bound_j * y_j
    subject to  sum_{j : i in members_j} y_j <= 1        (i = 1..n)
                y >= 0

is feasible at the origin, so a single-phase primal simplex on the dual
suffices.  At dual optimality the primal optimum is read off the reduced
costs of the slack columns.

The entering column is the one with the largest positive reduced cost
(Dantzig's rule, ties to the lowest index); the leaving row is the one
with the least ratio, ties to the lowest basic index.  Dantzig's rule can
cycle on degenerate vertices, so after ``_BLAND_AFTER`` degenerate pivots
in a row (zero ratio: the dual point does not move) the entering column
becomes the lowest-index eligible one (Bland's rule), which precludes
cycling, until a nondegenerate pivot moves the point again.  Every choice
is a fixed function of the tableau, so runs are deterministic.  On the
leave-one-out programs of ``omnivocality.verdict_by_lp`` for a random
binary source at m = 10 this takes 10 pivots per program, where Bland's
rule alone took about 670.

Arithmetic is generic over the scalar type: all tableau entries are built
by multiplying with the caller-supplied ``one``, so passing
``one=Fraction(1), eps=0`` gives exact rational solves and passing an
mpmath ``mpf(1)`` keeps everything at extended precision.  ``eps`` is the
pivoting threshold below which a reduced cost or pivot element counts as
nonpositive.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from .errors import InternalInconsistencyError

_MAX_PIVOTS = 200_000

#: Degenerate pivots in a row after which the entering choice switches
#: from Dantzig's rule to Bland's rule.  0 means Bland's rule throughout.
_BLAND_AFTER = 50


@dataclass(frozen=True)
class CoverSolution:
    """Optimal point of a min-sum covering program.

    ``x`` is a vertex of the feasible region; ``duals`` are the optimal
    dual weights per constraint, a certificate in the sense that they are
    nonnegative, pack below 1 on every variable, and their weighted bound
    sum equals the objective.  ``degenerate_pivots`` counts the pivots,
    out of ``pivots``, that left the dual point where it was.
    """

    objective: Any
    x: tuple[Any, ...]
    duals: tuple[Any, ...]
    pivots: int
    degenerate_pivots: int


def solve_min_cover(
    num_vars: int,
    members: Sequence[Sequence[int]],
    bounds: Sequence[Any],
    one: Any = 1.0,
    eps: Any = 1e-12,
) -> CoverSolution:
    """Minimize sum(x) over x >= 0 with sum(x[i] for i in members_j) >= bounds_j.

    ``members`` holds 0-indexed variable positions per constraint.  The
    constraint order is preserved everywhere (entering ties break on it),
    so callers that fix it get bit-reproducible runs.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if len(members) != len(bounds):
        raise ValueError("members and bounds must be parallel")
    n_cons = len(members)
    zero = one * 0

    # Dual tableau: rows = primal variables, columns = y's, slacks, rhs.
    n_cols = n_cons + num_vars
    rows: list[list[Any]] = []
    for i in range(num_vars):
        row = [zero] * (n_cols + 1)
        row[n_cons + i] = one * 1
        row[n_cols] = one * 1
        rows.append(row)
    for j, mem in enumerate(members):
        for i in mem:
            if not 0 <= i < num_vars:
                raise ValueError(f"constraint {j} references variable {i}")
            rows[i][j] = one * 1
    obj = [zero] * (n_cols + 1)
    for j, b in enumerate(bounds):
        obj[j] = one * b

    basis = [n_cons + i for i in range(num_vars)]
    pivots = 0
    degenerate = 0
    degenerate_run = 0
    while True:
        enter = -1
        if degenerate_run < _BLAND_AFTER:
            best_cost = eps
            for col in range(n_cols):
                if obj[col] > best_cost:
                    best_cost = obj[col]
                    enter = col
        else:
            for col in range(n_cols):
                if obj[col] > eps:
                    enter = col
                    break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for r in range(num_vars):
            coeff = rows[r][enter]
            if coeff > eps:
                ratio = rows[r][n_cols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            raise InternalInconsistencyError("dual unbounded: covering program infeasible")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for r in range(num_vars):
            if r != leave:
                factor = rows[r][enter]
                if factor != zero:
                    rows[r] = [v - factor * w for v, w in zip(rows[r], rows[leave])]
        factor = obj[enter]
        if factor != zero:
            obj = [v - factor * w for v, w in zip(obj, rows[leave])]
        basis[leave] = enter
        pivots += 1
        if best_ratio <= zero:
            degenerate += 1
            degenerate_run += 1
        else:
            degenerate_run = 0
        if pivots > _MAX_PIVOTS:
            raise InternalInconsistencyError("simplex failed to terminate")

    objective = zero - obj[n_cols]
    x = []
    for i in range(num_vars):
        value = zero - obj[n_cons + i]
        x.append(zero if value < zero else value)
    duals = [zero] * n_cons
    for r, b in enumerate(basis):
        if b < n_cons:
            value = rows[r][n_cols]
            duals[b] = zero if value < zero else value
    return CoverSolution(objective, tuple(x), tuple(duals), pivots, degenerate)
