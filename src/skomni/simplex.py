"""Dense simplex for minimum-sum covering programs: the tests' LP reference.

Solves the one family of linear programs behind ``silent``:

    minimize    x_1 + ... + x_n
    subject to  sum_{i in members_j} x_i >= bound_j      (j = 1..c)
                x >= 0

No production path solves it: restricted capacities and ``silent``'s
rates have closed forms (``capacity.restricted_capacity``,
``capacity.speaker_rates``), and the tests check them against this solver
through ``silent_rate.min_sum_rate``.

The primal has no obvious starting vertex, but its dual

    maximize    sum_j bound_j * y_j
    subject to  sum_{j : i in members_j} y_j <= 1        (i = 1..n)
                y >= 0

is feasible at the origin, so a single-phase primal simplex on the dual
suffices.  At dual optimality the primal optimum is read off the reduced
costs of the slack columns.

Pivots follow Bland's rule, which precludes cycling: the entering column
is the lowest-index one with a positive reduced cost, and the leaving row
is the one with the least ratio, ties to the lowest basic index.  Every
choice is a fixed function of the tableau, so runs are deterministic.

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


@dataclass(frozen=True)
class CoverSolution:
    """Optimal point of a min-sum covering program.

    ``x`` is a vertex of the feasible region; ``duals`` are the optimal
    dual weights per constraint, a certificate in the sense that they are
    nonnegative, pack below 1 on every variable, and their weighted bound
    sum equals the objective.
    """

    objective: Any
    x: tuple[Any, ...]
    duals: tuple[Any, ...]
    pivots: int


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
    while True:
        enter = next((col for col in range(n_cols) if obj[col] > eps), -1)
        if enter < 0:
            break
        eligible = [r for r in range(num_vars) if rows[r][enter] > eps]
        if not eligible:
            raise InternalInconsistencyError("dual unbounded: covering program infeasible")
        leave = min(eligible, key=lambda r: (rows[r][n_cols] / rows[r][enter], basis[r]))
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
        if pivots > _MAX_PIVOTS:
            raise InternalInconsistencyError("simplex failed to terminate")

    def clamp(value: Any) -> Any:
        return zero if value < zero else value

    x = tuple(clamp(zero - obj[n_cons + i]) for i in range(num_vars))
    duals = [zero] * n_cons
    for r, b in enumerate(basis):
        if b < n_cons:
            duals[b] = clamp(rows[r][n_cols])
    return CoverSolution(zero - obj[n_cols], x, tuple(duals), pivots)
