from fractions import Fraction

import pytest

from skomni import subsets
from skomni.capacity import (
    MinimizerStatus,
    restricted_singleton_surplus,
    singleton_minimizer_check,
    sk_capacity,
)
from skomni.errors import InvalidSubsetError, SizeLimitError
from skomni.pin import PinOracle, complete_graph
from skomni.silent_rate import (
    build_rate_region,
    min_sum_rate,
    reduced_rate_region,
    silent_capacity,
    sum_rate_lower_bound,
)
from skomni.generators import random_source
from skomni.sources import TabularOracle, conditional_entropy

from conftest import binary_entropy, tabular_test_sources


def _bounds(region):
    return {c.speakers_subset: c.lower_bound for c in region.constraints}


def test_region_xor_two_speakers(xor_oracle):
    region = build_rate_region(xor_oracle, 0b011)
    got = _bounds(region)
    assert set(got) == {0b001, 0b010, 0b011}
    assert got[0b001] == pytest.approx(1.0)
    assert got[0b010] == pytest.approx(1.0)
    assert got[0b011] == pytest.approx(1.0)


def test_region_identical_single_speaker(identical_oracle):
    region = build_rate_region(identical_oracle, 0b001)
    got = _bounds(region)
    assert set(got) == {0b001}
    assert got[0b001] == pytest.approx(0.0)


def test_region_full_speaker_set(xor_oracle):
    region = build_rate_region(xor_oracle, 0b111)
    assert len(region.constraints) == 6
    got = _bounds(region)
    # For every nonempty proper A the bound is H(X_A | X_{A complement}):
    # any single xor bit is determined by the other two, and any pair is one
    # bit short of the triple.
    assert got[0b001] == pytest.approx(0.0)
    assert got[0b011] == pytest.approx(1.0)


def test_region_rejects_empty_speakers(xor_oracle):
    with pytest.raises(InvalidSubsetError):
        build_rate_region(xor_oracle, 0)


def test_reduced_region_examples(identical_oracle, iid_oracle):
    got = _bounds(reduced_rate_region(identical_oracle, 1))
    assert {b: round(v, 9) for b, v in got.items()} == {0b010: 0, 0b100: 0, 0b110: 0}
    got = _bounds(reduced_rate_region(iid_oracle, 2))
    assert got[0b001] == pytest.approx(1.0)
    assert got[0b100] == pytest.approx(1.0)
    assert got[0b101] == pytest.approx(2.0)


def test_reduced_region_rejects_bad_terminal(xor_oracle):
    with pytest.raises(InvalidSubsetError):
        reduced_rate_region(xor_oracle, 0)
    with pytest.raises(InvalidSubsetError):
        reduced_rate_region(xor_oracle, 4)


def test_reduced_equals_built_everywhere():
    for source in tabular_test_sources((3, 4, 5)):
        oracle = TabularOracle(source)
        full = subsets.full_mask(oracle.m)
        for u in range(1, oracle.m + 1):
            built = build_rate_region(oracle, full & ~(1 << (u - 1)))
            reduced = reduced_rate_region(oracle, u)
            assert built.speakers == reduced.speakers
            assert len(built.constraints) == len(reduced.constraints)
            for a, b in zip(built.constraints, reduced.constraints):
                assert a.speakers_subset == b.speakers_subset
                assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-9)


def test_min_sum_rate_xor(xor_oracle):
    solution = min_sum_rate(build_rate_region(xor_oracle, 0b011))
    assert solution.min_sum == pytest.approx(2.0)
    assert solution.rates[1] == pytest.approx(1.0)
    assert solution.rates[2] == pytest.approx(1.0)
    binding = {c.speakers_subset for c in solution.binding}
    assert {0b001, 0b010} <= binding


def test_min_sum_rate_degenerate(identical_oracle):
    solution = min_sum_rate(build_rate_region(identical_oracle, 0b001))
    assert solution.min_sum == pytest.approx(0.0)


def test_silent_capacity_xor(xor_oracle):
    for t in (0b011, 0b101, 0b110):
        report = silent_capacity(xor_oracle, t)
        assert report.speakers_entropy == pytest.approx(2.0)
        assert report.min_sum_rate == pytest.approx(2.0)
        assert report.capacity == pytest.approx(0.0, abs=1e-9)
        assert report.sum_rate_bound == pytest.approx(2.0)


def test_silent_capacity_omniscience_xor(xor_oracle):
    report = silent_capacity(xor_oracle, 0b111)
    assert report.min_sum_rate == pytest.approx(1.5)
    assert report.capacity == pytest.approx(0.5)
    assert report.sum_rate_bound is None


def test_silent_capacity_identical_single_speaker(identical_oracle):
    report = silent_capacity(identical_oracle, 0b001)
    assert report.capacity == pytest.approx(1.0)


def test_silent_capacity_two_speaker(two_speaker_oracle):
    report = silent_capacity(two_speaker_oracle, 0b011)
    expected_r = binary_entropy(0.05) + binary_entropy(0.45)
    assert report.min_sum_rate == pytest.approx(expected_r)
    assert report.capacity == pytest.approx(1.0 - binary_entropy(0.45))


def test_silent_capacity_pin_exact():
    oracle = PinOracle(complete_graph(3))
    report = silent_capacity(oracle, 0b011)
    assert report.exact
    assert report.speakers_entropy == 3
    assert report.min_sum_rate == Fraction(2)
    assert report.capacity == Fraction(1)
    assert isinstance(report.rates[1], Fraction)


def test_sum_rate_lower_bound_examples(xor_oracle, identical_oracle, iid_oracle):
    assert sum_rate_lower_bound(xor_oracle, 0b011) == pytest.approx(2.0)
    assert sum_rate_lower_bound(identical_oracle, 0b011) == pytest.approx(0.0)
    assert sum_rate_lower_bound(iid_oracle, 0b110) == pytest.approx(2.0)
    with pytest.raises(SizeLimitError):
        sum_rate_lower_bound(xor_oracle, 0b111)


def test_bound_never_exceeds_optimum():
    for source in tabular_test_sources((3, 4, 5)):
        oracle = TabularOracle(source)
        full = subsets.full_mask(oracle.m)
        for u in range(1, oracle.m + 1):
            speakers = full & ~(1 << (u - 1))
            report = silent_capacity(oracle, speakers)
            assert report.sum_rate_bound <= report.min_sum_rate + 1e-8


def test_capacity_chain_against_restricted_surplus():
    # Restricting the singleton surplus to the speakers of a leave-one-out
    # set upper-bounds the restricted capacity; with a unique singleton
    # minimizer it is itself strictly below the unrestricted surplus.
    for source in tabular_test_sources((3, 4, 5)):
        oracle = TabularOracle(source)
        full = subsets.full_mask(oracle.m)
        unique = (
            singleton_minimizer_check(oracle).status
            is MinimizerStatus.UNIQUE
        )
        s_value = sk_capacity(oracle).value if unique else None
        for u in range(1, oracle.m + 1):
            speakers = full & ~(1 << (u - 1))
            restricted = restricted_singleton_surplus(oracle, speakers)
            report = silent_capacity(oracle, speakers)
            assert report.capacity <= restricted + 1e-8
            if unique:
                assert restricted < s_value


def test_omniscience_identity_on_test_sources():
    for source in tabular_test_sources((3, 4, 5)):
        oracle = TabularOracle(source)
        report = silent_capacity(oracle, subsets.full_mask(oracle.m))
        assert report.capacity == pytest.approx(sk_capacity(oracle).value, abs=1e-6)


def _solve_square_float(rows, rhs):
    """Gaussian elimination with partial pivoting; None when near-singular."""
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-9:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _vertex_enumeration_optimum(num_vars, members, bounds):
    """Float analogue of the exact oracle in test_simplex."""
    from itertools import combinations

    rows = []
    rhs = []
    for mem, b in zip(members, bounds):
        row = [0.0] * num_vars
        for i in mem:
            row[i] = 1.0
        rows.append(row)
        rhs.append(b)
    for i in range(num_vars):
        row = [0.0] * num_vars
        row[i] = 1.0
        rows.append(row)
        rhs.append(0.0)
    best = None
    for active in combinations(range(len(rows)), num_vars):
        x = _solve_square_float([rows[k] for k in active], [rhs[k] for k in active])
        if x is None or any(v < -1e-9 for v in x):
            continue
        if all(
            sum(row[i] * x[i] for i in range(num_vars)) >= b - 1e-9
            for row, b in zip(rows, rhs)
        ):
            value = sum(x)
            if best is None or value < best:
                best = value
    return best


def test_optimal_vertex_and_duals_certify_optimality():
    # Independent verification on every speaker set of size <= 4: the
    # optimum is recomputed by brute-force vertex enumeration, and the
    # returned duals must form a valid packing certificate supported on
    # binding constraints.
    for source in tabular_test_sources((3, 4)):
        oracle = TabularOracle(source)
        full = subsets.full_mask(oracle.m)
        for speakers in range(1, full + 1):
            if subsets.size(speakers) > 4:
                continue
            region = build_rate_region(oracle, speakers)
            solution = min_sum_rate(region)
            terminals = subsets.members(speakers)
            index = {t: i for i, t in enumerate(terminals)}
            members = [
                tuple(index[t] for t in subsets.members(c.speakers_subset))
                for c in region.constraints
            ]
            bounds = [c.lower_bound for c in region.constraints]
            expected = _vertex_enumeration_optimum(len(terminals), members, bounds)
            assert solution.min_sum == pytest.approx(expected, abs=1e-6)
            duals = solution.lp.duals
            assert all(y >= -1e-9 for y in duals)
            for i in range(len(terminals)):
                load = sum(y for y, mem in zip(duals, members) if i in mem)
                assert load <= 1 + 1e-9
            weighted = sum(y * b for y, b in zip(duals, bounds))
            assert weighted == pytest.approx(solution.min_sum, abs=1e-8)
            binding_subsets = {c.speakers_subset for c in solution.binding}
            for y, c in zip(duals, region.constraints):
                if y > 1e-9:
                    assert c.speakers_subset in binding_subsets


def test_region_bounds_are_conditional_entropies_without_revalidation(monkeypatch):
    m = 5
    oracle = TabularOracle(random_source(m, (2, 3, 2, 2, 3), seed=7))
    full = subsets.full_mask(m)
    silent = 0b00100
    speakers = full & ~silent
    expected = {
        b: conditional_entropy(oracle, b, speakers & ~b if b != speakers else silent)
        for b in subsets.iter_submasks(speakers)
    }

    calls = []
    check = subsets.check_subset

    def counting_check(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(subsets, "check_subset", counting_check)
    built = _bounds(build_rate_region(oracle, speakers))
    reduced = _bounds(reduced_rate_region(oracle, 3))
    # Only the caller's speaker set is validated; the bounds keep the bits
    # of conditional_entropy exactly.
    assert calls == [(speakers, m)]
    assert built == reduced == expected
