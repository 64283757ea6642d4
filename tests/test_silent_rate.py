import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skomni import subsets
from skomni.capacity import (
    DEFAULT_TIE_TOL,
    MinimizerStatus,
    partition_surplus,
    restricted_capacity,
    singleton_minimizer_check,
    sk_capacity,
    speaker_rates,
)
from skomni.errors import InvalidSubsetError
from skomni.partitions import Partition
from skomni.pin import PinGraph, PinOracle, complete_graph
from skomni.silent_rate import build_rate_region, min_sum_rate, silent_capacity
from skomni.generators import random_source
from skomni.sources import (
    ExtendedPrecisionOracle,
    JointSource,
    TabularOracle,
    conditional_entropy,
    mutual_information,
)

from conftest import (
    CountingOracle,
    binary_entropy,
    brute_rate_region,
    count_fills,
    restricted_singleton_surplus,
    tabular_test_sources,
)


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
    got = _bounds(build_rate_region(identical_oracle, 0b110))
    assert {b: round(v, 9) for b, v in got.items()} == {0b010: 0, 0b100: 0, 0b110: 0}
    got = _bounds(build_rate_region(iid_oracle, 0b101))
    assert got[0b001] == pytest.approx(1.0)
    assert got[0b100] == pytest.approx(1.0)
    assert got[0b101] == pytest.approx(2.0)


def test_reduced_equals_built_everywhere():
    # The closed form against the maximum over every set A, on every
    # speaker set: bit for bit on PIN graphs, within rounding on floats,
    # where a true tie lets the enumeration keep a higher rounding.
    oracles = [TabularOracle(s) for s in tabular_test_sources((3, 4, 5)) + _sparse_sources(30, seed=2)]
    oracles += [PinOracle(g) for m in range(2, 7) for g in _random_pin_graphs(m, 4)]
    for oracle in oracles:
        for speakers in range(1, subsets.full_mask(oracle.m) + 1):
            built = build_rate_region(oracle, speakers)
            brute = brute_rate_region(oracle, speakers)
            if oracle.exact:
                assert built == brute
                continue
            assert (built.m, built.speakers, built.exact) == (brute.m, brute.speakers, brute.exact)
            assert list(_bounds(built)) == list(_bounds(brute))
            for a, b in zip(built.constraints, brute.constraints):
                assert abs(a.lower_bound - b.lower_bound) <= 1e-12


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


def test_silent_capacity_omniscience_xor(xor_oracle):
    report = silent_capacity(xor_oracle, 0b111)
    assert report.min_sum_rate == pytest.approx(1.5)
    assert report.capacity == pytest.approx(0.5)


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


@pytest.mark.parametrize("oracle, speakers", [
    (PinOracle(complete_graph(16)), 0xFFFF),
    (PinOracle(complete_graph(8)), 0b01111111),
    (PinOracle(complete_graph(8)), 0b00101101),
    (TabularOracle(random_source(5, (2,) * 5, seed=7)), 0b10110),
])
def test_silent_reads_the_speakers_table_once(oracle, speakers, monkeypatch):
    # The restricted capacity, the rates and the region cut the speakers'
    # table from the oracle's one fill.  The point queries are H(X_T) and,
    # per silent d, 3 for the I term and 2 for the region's bound on T.
    fills = count_fills(monkeypatch, oracle)
    counting = CountingOracle(oracle)
    report = silent_capacity(counting, speakers)
    talking = subsets.size(speakers)
    assert len(fills) == 1
    assert counting.queries <= 5 * (oracle.m - talking) + 1
    assert report == silent_capacity(oracle, speakers)


def _check_silent_rates(oracle, tol):
    """On every speaker set: feasible rates summing to R_min, the LP's optimum.

    Exact oracles are held to equality.  There the LP's positive duals
    also mark constraints the rates make tight, as complementary
    slackness requires of any optimal vector.
    """
    full = subsets.full_mask(oracle.m)
    for speakers in range(1, full + 1):
        report = silent_capacity(oracle, speakers)
        region = build_rate_region(oracle, speakers)
        rates = report.rates
        assert list(rates) == subsets.members(speakers)
        for c in region.constraints:
            covered = sum(rates[t] for t in subsets.members(c.speakers_subset))
            assert covered >= c.lower_bound - tol
        total = sum(rates.values())
        lp = min_sum_rate(region)
        if oracle.exact:
            assert all(isinstance(r, Fraction) for r in rates.values())
            assert total == report.min_sum_rate == lp.min_sum
            binding = set(report.binding)
            for y, c in zip(lp.lp.duals, region.constraints):
                if y > 0:
                    assert c in binding
        else:
            assert all(r >= 0 for r in rates.values())
            assert abs(total - report.min_sum_rate) <= tol
            assert abs(total - lp.min_sum) <= tol


def _random_pin_graphs(m, count):
    rng = random.Random(m)
    pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    graphs = [complete_graph(m)]
    for _ in range(count):
        edges = [(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.5]
        graphs.append(PinGraph(m, tuple(edges or [(1, 2, 1)])))
    return graphs


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_silent_rates_are_optimal_on_pin_graphs(m):
    for graph in _random_pin_graphs(m, 4):
        _check_silent_rates(PinOracle(graph), 0)


def _sparse_sources(count, seed):
    """Sparse binary pmfs at m = 3..5; small supports tie many partitions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(3, 5)
        grid = [tuple((x >> i) & 1 for i in range(m)) for x in range(1 << m)]
        support = rng.sample(grid, rng.randint(1, 6))
        weights = [rng.randint(1, 4) for _ in support]
        total = sum(weights)
        out.append(JointSource(m, (2,) * m, {x: w / total for x, w in zip(support, weights)}))
    return out


def test_silent_rates_are_optimal_on_float_sources():
    for source in tabular_test_sources((3, 4, 5)) + _sparse_sources(30, seed=1):
        _check_silent_rates(TabularOracle(source), 1e-12)


def test_silent_clamps_a_rate_that_rounds_below_zero():
    # Terminal 4's greedy rate is 0 in the reals and rounds to -1.1e-16.
    support = [(0, 0, 0, 0, 1), (1, 0, 1, 0, 1), (0, 0, 1, 0, 0), (1, 1, 1, 1, 1), (1, 1, 0, 0, 1)]
    weights = [4, 4, 4, 1, 2]
    oracle = TabularOracle(JointSource(5, (2,) * 5, {x: w / 15 for x, w in zip(support, weights)}))
    raw = speaker_rates(oracle, 0b11111, restricted_capacity(oracle, 0b11111))
    assert -1e-15 < raw[4] < 0
    report = silent_capacity(oracle, 0b11111)
    assert report.rates == {**raw, 4: 0.0}
    assert str(report.rates[4]) == "0.0"


def test_binding_lists_match_a_per_constraint_sum():
    # The one-pass subset sums add each B's rates in ascending terminal
    # order, as a per-constraint sum does, so the binding lists are the same
    # on every speaker set, float rounding included.
    oracles = [
        TabularOracle(random_source(m, (2,) * m, seed)) for m in range(3, 7) for seed in range(8)
    ] + [PinOracle(graph) for m in range(3, 7) for graph in _random_pin_graphs(m, 6)]
    assert len(oracles) == 60
    for oracle in oracles:
        band = 0 if oracle.exact else DEFAULT_TIE_TOL
        for speakers in range(1, subsets.full_mask(oracle.m) + 1):
            report = silent_capacity(oracle, speakers)
            expected = tuple(
                c
                for c in build_rate_region(oracle, speakers).constraints
                if sum(report.rates[t] for t in subsets.members(c.speakers_subset))
                - c.lower_bound
                <= band
            )
            assert report.binding == expected


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
    # Only the caller's speaker set is validated; the bounds keep the bits
    # of conditional_entropy exactly.
    assert calls == [(speakers, m)]
    assert built == expected


class _SpeakerView:
    """The source of the speakers T alone: its terminal i is T's i-th member."""

    def __init__(self, oracle, speakers):
        self.oracle = oracle
        self.members = subsets.members(speakers)
        self.m = len(self.members)
        self.exact = oracle.exact

    def entropy(self, subset):
        mask = sum(1 << (t - 1) for i, t in enumerate(self.members) if subset >> i & 1)
        return self.oracle.entropy(mask)

    def table(self):
        return [self.entropy(s) for s in range(1 << self.m)]


@st.composite
def _restricted_cases(draw):
    """(kind, model): PIN graphs at m = 3..6, float and mpf pmfs at m = 3..5."""
    kind = draw(st.sampled_from(["pin", "float", "mpf"]))
    m = draw(st.integers(3, 6 if kind == "pin" else 5))
    if kind == "pin":
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        return kind, PinGraph(m, tuple((u, v, draw(st.integers(1, 3))) for u, v in chosen))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return kind, random_source(m, (2,) * m, seed=seed)
    # Sparse supports put exact relations between the subset entropies.
    grid = [tuple((x >> i) & 1 for i in range(m)) for x in range(1 << m)]
    support = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=6, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in support]
    total = sum(weights)
    return kind, JointSource(m, (2,) * m, {x: w / total for x, w in zip(support, weights)})


@settings(max_examples=40, deadline=None)
@given(_restricted_cases())
def test_restricted_capacity_is_the_covering_lp_on_every_speaker_set(case):
    # The LP's optimum is the independent route: H(X_T) - R_min.  The
    # closed form is min(C(X_T), min over silent d of I(X_T; X_d)), and for
    # T = {1..m} minus u its I term is the surplus of {T, {u}} bit for bit.
    kind, model = case
    with mpmath.workdps(60):
        if kind == "pin":
            oracle, band = PinOracle(model), 0
        elif kind == "mpf":
            oracle, band = ExtendedPrecisionOracle(model), mpmath.mpf(10) ** -30
        else:
            oracle, band = TabularOracle(model), 1e-12
        m = oracle.m
        full = subsets.full_mask(m)
        for speakers in range(1, full + 1):
            got = restricted_capacity(oracle, speakers)
            by_lp = oracle.entropy(speakers) - min_sum_rate(build_rate_region(oracle, speakers)).min_sum
            if oracle.exact:
                assert isinstance(got, Fraction)
                assert got == by_lp
            else:
                assert abs(got - by_lp) <= band
            view = _SpeakerView(oracle, speakers)
            want = view.entropy(1) if view.m == 1 else sk_capacity(view).value
            for d in subsets.members(full & ~speakers):
                if view.m == m - 1:
                    pair = Partition.from_cells([speakers, 1 << (d - 1)], m)
                    shared = partition_surplus(oracle, pair)
                else:
                    shared = mutual_information(oracle, speakers, 1 << (d - 1))
                want = min(want, shared)
            assert got == want
            if not oracle.exact:
                assert type(got) is type(want)
