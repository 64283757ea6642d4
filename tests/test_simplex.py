from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skomni.simplex import CoverSolution, solve_min_cover


def _solve_square(rows, rhs):
    """Solve a square Fraction system by elimination; None when singular."""
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_force_optimum(num_vars, members, bounds):
    """Exact covering-LP optimum by enumerating candidate vertices.

    Every vertex of {x >= 0, cover constraints} lies on num_vars linearly
    independent active hyperplanes drawn from the constraint rows and the
    nonnegativity rows; small instances allow trying them all.
    """
    rows = []
    rhs = []
    for mem, b in zip(members, bounds):
        row = [Fraction(0)] * num_vars
        for i in mem:
            row[i] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(b))
    for i in range(num_vars):
        row = [Fraction(0)] * num_vars
        row[i] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(0))
    best = None
    for active in combinations(range(len(rows)), num_vars):
        x = _solve_square([rows[k] for k in active], [rhs[k] for k in active])
        if x is None or any(v < 0 for v in x):
            continue
        if all(
            sum(row[i] * x[i] for i in range(num_vars)) >= b
            for row, b in zip(rows, rhs)
        ):
            value = sum(x)
            if best is None or value < best:
                best = value
    return best


def _check_certificate(sol: CoverSolution, num_vars, members, bounds, tol=0):
    assert all(y >= -tol for y in sol.duals)
    for i in range(num_vars):
        load = sum(y for y, mem in zip(sol.duals, members) if i in mem)
        assert load <= 1 + tol
    weighted = sum(y * b for y, b in zip(sol.duals, bounds))
    if tol == 0:
        assert weighted == sol.objective
    else:
        assert weighted == pytest.approx(sol.objective, abs=tol)
    for mem, b in zip(members, bounds):
        assert sum(sol.x[i] for i in mem) >= b - tol


def test_two_variable_cover():
    sol = solve_min_cover(2, [(0,), (1,), (0, 1)], [1.0, 1.0, 1.0])
    assert sol.objective == pytest.approx(2.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.x[1] == pytest.approx(1.0)


def test_pair_constraint_binds():
    sol = solve_min_cover(2, [(0,), (1,), (0, 1)], [1.0, 1.0, 3.0])
    assert sol.objective == pytest.approx(3.0)
    _check_certificate(sol, 2, [(0,), (1,), (0, 1)], [1.0, 1.0, 3.0], tol=1e-9)


def test_single_joint_constraint():
    sol = solve_min_cover(3, [(0, 1, 2)], [5.0])
    assert sol.objective == pytest.approx(5.0)
    assert sum(sol.x) == pytest.approx(5.0)


def test_no_constraints_gives_origin():
    sol = solve_min_cover(3, [], [])
    assert sol.objective == 0.0
    assert sol.x == (0.0, 0.0, 0.0)


def test_nonpositive_bounds_give_origin():
    sol = solve_min_cover(2, [(0,), (0, 1)], [0.0, -1.0])
    assert sol.objective == 0.0


def test_exact_fraction_arithmetic():
    bounds = [Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)]
    sol = solve_min_cover(
        2, [(0,), (1,), (0, 1)], bounds, one=Fraction(1), eps=Fraction(0)
    )
    assert sol.objective == Fraction(7, 8)
    assert all(isinstance(v, Fraction) for v in sol.x)
    _check_certificate(sol, 2, [(0,), (1,), (0, 1)], bounds)


def test_mpf_arithmetic():
    import mpmath

    with mpmath.workdps(40):
        one = mpmath.mpf(1)
        bounds = [one / 3, one / 2, one * 7 / 8]
        sol = solve_min_cover(2, [(0,), (1,), (0, 1)], bounds, one=one, eps=one * 1e-30)
        assert abs(sol.objective - one * 7 / 8) < one * 1e-30


def test_determinism():
    members = [(0,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    bounds = [1.0, 2.0, 2.5, 3.0, 4.0]
    a = solve_min_cover(3, members, bounds)
    b = solve_min_cover(3, members, bounds)
    assert a == b
    assert a.pivots == b.pivots


@st.composite
def cover_instances(draw, max_vars=4, max_cons=6):
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    n_cons = draw(st.integers(min_value=1, max_value=max_cons))
    members = []
    bounds = []
    for _ in range(n_cons):
        mem = draw(
            st.sets(
                st.integers(min_value=0, max_value=num_vars - 1),
                min_size=1,
                max_size=num_vars,
            )
        )
        members.append(tuple(sorted(mem)))
        bounds.append(
            Fraction(
                draw(st.integers(min_value=0, max_value=12)),
                draw(st.integers(min_value=1, max_value=4)),
            )
        )
    return num_vars, members, bounds


@settings(max_examples=150, deadline=None)
@given(cover_instances())
def test_exact_optimum_matches_vertex_enumeration(instance):
    num_vars, members, bounds = instance
    sol = solve_min_cover(num_vars, members, bounds, one=Fraction(1), eps=Fraction(0))
    expected = brute_force_optimum(num_vars, members, bounds)
    assert expected is not None
    assert sol.objective == expected
    _check_certificate(sol, num_vars, members, bounds)


@settings(max_examples=60, deadline=None)
@given(cover_instances())
def test_float_path_tracks_exact_path(instance):
    num_vars, members, bounds = instance
    exact = solve_min_cover(num_vars, members, bounds, one=Fraction(1), eps=Fraction(0))
    rough = solve_min_cover(num_vars, members, [float(b) for b in bounds])
    assert rough.objective == pytest.approx(float(exact.objective), abs=1e-9)


def _exact(num_vars, members, bounds):
    return solve_min_cover(num_vars, members, bounds, one=Fraction(1), eps=Fraction(0))


def test_bland_fallback_is_deterministic():
    # Bland's rule is what keeps the solver from cycling.  The first pivot
    # ties two rows at ratio 1 and leaves the row of x_3 at zero, so the
    # third pivot is degenerate: y_3 enters without moving the dual point.
    members = [(0, 2), (0, 1, 2), (1,), (0, 2), (0, 2)]
    bounds = [Fraction(b) for b in (2, 4, 4, 3, 4)]
    first = _exact(3, members, bounds)
    second = _exact(3, members, bounds)
    assert first == second
    assert first.pivots == 6
    assert first.objective == 8
    _check_certificate(first, 3, members, bounds)
