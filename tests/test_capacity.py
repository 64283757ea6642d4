import random
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skomni import subsets
from skomni.capacity import (
    DEFAULT_TIE_TOL,
    MinimizerStatus,
    _dinkelbach,
    _drop_cells,
    _drop_terminal,
    _greedy_cells,
    _newton_search,
    leave_one_out_capacities,
    restricted_capacity,
    singleton_minimizer_check,
    sk_capacity,
    speaker_rates,
    speaker_table,
)
from skomni.errors import SizeLimitError
from skomni.generators import random_source
from skomni.omnivocality import run_routes, verdict_by_lp
from skomni.partitions import (
    Partition,
    enumerate_partitions,
    isolating_partition,
    singleton_partition,
)
from skomni.pin import PinGraph, PinOracle, complete_graph, pin_capacity
from skomni.silent_rate import build_rate_region, silent_capacity
from skomni.sources import ExtendedPrecisionOracle, JointSource, TabularOracle

from conftest import (
    OracleModel,
    ThirdsOracle,
    binary_entropy,
    brute_minimizer_check,
    exchangeable_mixture,
    gathered_table,
    hidden_bits_source,
    make_identical_bits,
    make_path3_graph,
    make_two_speaker_bsc,
    mutual_information,
    partition_surplus,
    reference_minimizer_check,
    restricted_singleton_surplus,
    singleton_surplus_identity,
)


def test_surplus_values_xor(xor_oracle):
    s = singleton_partition(3)
    assert partition_surplus(xor_oracle, s) == pytest.approx(0.5)
    for pair in (0b011, 0b101, 0b110):
        p = Partition.from_cells([pair, 0b111 & ~pair], 3)
        assert partition_surplus(xor_oracle, p) == pytest.approx(1.0)


def test_surplus_rejects_single_cell(xor_oracle):
    whole = Partition.from_cells([0b111], 3)
    with pytest.raises(SizeLimitError):
        partition_surplus(xor_oracle, whole)


def test_capacity_xor(xor_oracle):
    report = sk_capacity(xor_oracle)
    assert report.value == pytest.approx(0.5)
    # The singleton partition is the unique minimizer: the first Newton
    # step finds it again, so no other partition is evaluated.
    assert report.partitions_examined == 1
    assert report.argmin == singleton_partition(3)


def test_capacity_identical_bits_all_tie(identical_oracle):
    # All four partitions tie; the finest of them is reported.
    report = sk_capacity(identical_oracle)
    assert report.value == pytest.approx(1.0)
    assert report.argmin == singleton_partition(3)


def test_capacity_iid_bits_is_zero(iid_oracle):
    report = sk_capacity(iid_oracle)
    assert report.value == pytest.approx(0.0)
    assert report.argmin == singleton_partition(3)


def test_capacity_common_randomness(common_randomness_oracle):
    report = sk_capacity(common_randomness_oracle)
    assert report.value == pytest.approx(1.0)
    assert report.argmin == singleton_partition(3)


def test_capacity_two_speaker(two_speaker_oracle):
    report = sk_capacity(two_speaker_oracle)
    assert report.value == pytest.approx(1.0 - binary_entropy(0.45))
    assert report.argmin == Partition.from_cells([0b011, 0b100], 3)


def test_capacity_xor4(xor4_oracle):
    report = sk_capacity(xor4_oracle)
    assert report.value == pytest.approx(1.0 / 3.0)
    assert report.partitions_examined == 1
    assert report.argmin == singleton_partition(4)


def test_capacity_m2_reduces_to_mutual_information():
    oracle = TabularOracle(random_source(2, (3, 2), seed=17))
    report = sk_capacity(oracle)
    assert abs(report.value - mutual_information(oracle, 0b01, 0b10)) <= 1e-12
    assert report.partitions_examined == 1


def test_capacity_lower_bounds_every_partition(xor4_oracle):
    c = sk_capacity(xor4_oracle).value
    assert c >= -1e-9
    for p in enumerate_partitions(4, min_cells=2):
        assert c <= partition_surplus(xor4_oracle, p) + 1e-9


def test_restricted_singleton_surplus_xor(xor_oracle):
    for t in (0b011, 0b101, 0b110):
        assert restricted_singleton_surplus(xor_oracle, t) == pytest.approx(0.0)
    with pytest.raises(SizeLimitError):
        restricted_singleton_surplus(xor_oracle, 0b111)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=5))
def test_singleton_surplus_identity(seed, m):
    oracle = TabularOracle(random_source(m, (2,) * m, seed=seed))
    for u in range(1, m + 1):
        lhs, rhs = singleton_surplus_identity(oracle, 1 << (u - 1))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_minimizer_check_xor(xor_oracle):
    for check in (singleton_minimizer_check, brute_minimizer_check):
        v = check(xor_oracle)
        assert v.status is MinimizerStatus.UNIQUE
        assert v.comparisons == 3
        assert v.witness is None


def test_minimizer_comparison_counts():
    for m in (3, 4, 5):
        oracle = TabularOracle(random_source(m, (2,) * m, seed=m))
        v = singleton_minimizer_check(oracle)
        assert v.comparisons == (1 << m) - m - 2


def test_minimizer_check_identical(identical_oracle):
    for check in (singleton_minimizer_check, brute_minimizer_check):
        v = check(identical_oracle)
        assert v.status is MinimizerStatus.NON_UNIQUE
        assert v.witness is not None
        assert v.witness.surplus == pytest.approx(v.witness.singleton_surplus)


def test_minimizer_check_two_speaker(two_speaker_oracle):
    v = singleton_minimizer_check(two_speaker_oracle)
    assert v.status is MinimizerStatus.NOT_MINIMIZER
    assert v.witness is not None
    # The cut isolating terminal 3 beats the singleton partition.
    assert v.witness.partition == isolating_partition(3, 0b100)
    assert v.witness.surplus < v.witness.singleton_surplus


def test_minimizer_ambiguous_inside_wide_band(xor_oracle):
    # Every comparison differs by 0.5; a band of 1 swallows them all
    # without any being an exact tie.
    v = singleton_minimizer_check(xor_oracle, tie_tol=1.0)
    assert v.status is MinimizerStatus.AMBIGUOUS


def test_minimizer_methods_agree_on_random_sources():
    for seed in range(40):
        m = 3 + seed % 3
        oracle = TabularOracle(random_source(m, (2,) * m, seed=seed))
        a = singleton_minimizer_check(oracle)
        b = brute_minimizer_check(oracle)
        if MinimizerStatus.AMBIGUOUS in (a.status, b.status):
            continue
        assert a.status == b.status


def _isolating_reference(oracle, tie_tol):
    """The check written out over ``partition_surplus`` of each P_B."""
    m = oracle.m
    blocks = [b for b in range(1, 1 << m) if 1 <= b.bit_count() <= m - 2]
    return reference_minimizer_check(
        oracle, (isolating_partition(m, b) for b in blocks), tie_tol
    )


def _same_bits(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, mpmath.mpf):
        return a._mpf_ == b._mpf_
    return a == b


@st.composite
def _minimizer_cases(draw):
    """(kind, model, tie_tol) with m = 3..8, kind float, mpf or pin.

    Sparse supports put exact relations (ties, beaten singletons) between
    subset entropies; identical bits tie every partition bit for bit, and
    the wide bands swallow nonzero differences.
    """
    m = draw(st.integers(min_value=3, max_value=8))
    kind = draw(st.sampled_from(["float", "mpf", "pin"]))
    tie_tol = draw(st.sampled_from([1e-30, 1e-9, 0.05, 0.5, 4.0]))
    if kind == "pin":
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        edges = tuple((u, v, draw(st.integers(1, 3))) for u, v in chosen)
        return kind, PinGraph(m, edges), tie_tol
    shape = draw(st.sampled_from(["random", "sparse", "identical", "mixture"]))
    seed = draw(st.integers(0, 10_000))
    if shape == "random":
        source = random_source(m, (2,) * m, seed=seed)
    elif shape == "identical":
        source = make_identical_bits(m)
    elif shape == "mixture":
        source = exchangeable_mixture(m, 2, components=2, seed=seed)
    else:
        grid = [tuple((x >> i) & 1 for i in range(m)) for x in range(1 << m)]
        support = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=6, unique=True))
        weights = [draw(st.integers(1, 4)) for _ in support]
        total = sum(weights)
        source = JointSource(m, (2,) * m, {x: w / total for x, w in zip(support, weights)})
    return kind, source, tie_tol


@settings(max_examples=120, deadline=None)
@given(_minimizer_cases())
def test_minimizer_check_is_bitwise_the_partition_reference(case):
    kind, model, tie_tol = case
    with mpmath.workdps(60), mock.patch(
        "skomni.capacity.isolating_partition", wraps=isolating_partition
    ) as built:
        if kind == "pin":
            oracle = PinOracle(model)
        elif kind == "mpf":
            oracle, tie_tol = ExtendedPrecisionOracle(model), mpmath.mpf(tie_tol)
        else:
            oracle = TabularOracle(model)
        got = singleton_minimizer_check(oracle, tie_tol)
        want = _isolating_reference(oracle, tie_tol)
    _assert_same_verdict(got, want, oracle.m)
    # At most one Partition is built per verdict: the returned witness.
    assert built.call_count == (want.witness is not None)


def _assert_same_verdict(got, want, m):
    """Status, comparison count, witness partition and both surpluses, bit for bit."""
    assert got.status is want.status
    assert got.comparisons == want.comparisons == (1 << m) - m - 2
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.partition == want.witness.partition
        assert got.witness.partition.cells == want.witness.partition.cells
        assert _same_bits(got.witness.surplus, want.witness.surplus)
        assert _same_bits(got.witness.singleton_surplus, want.witness.singleton_surplus)


class _TableOracle:
    """Any list of 2^m numbers posing as subset entropies."""

    exact = False

    def __init__(self, m, values):
        self.m = m
        self.values = values

    def entropy(self, subset):
        return self.values[subset]

    def table(self):
        return self.values


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(0, 10_000),
    st.booleans(),
    st.data(),
)
def test_every_isolating_surplus_is_bitwise_the_reference(m, seed, mpf, data):
    # Lowering H(complement of B) pulls P_B, and no other candidate, far
    # below the singleton surplus, so any chosen block becomes the witness
    # and its surplus, summation order included, is compared bit for bit.
    block = data.draw(
        st.sampled_from([b for b in range(1, 1 << m) if 1 <= b.bit_count() <= m - 2])
    )
    rng = random.Random(seed)
    with mpmath.workdps(60):
        scalar = mpmath.mpf if mpf else float
        # Thirds fill every mantissa bit, so the summation order shows.
        table = [scalar(rng.random()) / 3 * s.bit_count() for s in range(1 << m)]
        table[subsets.full_mask(m) & ~block] -= 100 * m
        oracle = _TableOracle(m, table)
        got = singleton_minimizer_check(oracle)
        want = _isolating_reference(oracle, 1e-9)
    assert got.status is want.status is MinimizerStatus.NOT_MINIMIZER
    assert got.witness.partition == want.witness.partition == isolating_partition(m, block)
    assert _same_bits(got.witness.surplus, want.witness.surplus)
    assert _same_bits(got.witness.singleton_surplus, want.witness.singleton_surplus)


def _lowered(oracle, block, by):
    """``oracle``'s table with H(complement of ``block``) lowered by ``by``.

    That pulls P_B, and no other candidate, below the singleton surplus.
    """
    values = list(oracle.table())
    values[subsets.full_mask(oracle.m) & ~block] -= by
    lowered = _TableOracle(oracle.m, values)
    lowered.exact = oracle.exact
    return lowered


_LARGE_SCANS = {
    # name: (a builder of the oracle, the blocks to lower one at a time)
    "K16": (lambda: PinOracle(complete_graph(16)), [0b1011_0000_0000_0001]),
    "float-m12": (
        lambda: TabularOracle(random_source(12, (2,) * 12, seed=12)),
        [0b1, 0b1000_0000_0000, 0b0110_1001_0110, 0b1111_1111_1100],
    ),
    "m3": (lambda: TabularOracle(random_source(3, (2, 3, 2), seed=3)), [0b001, 0b010, 0b100]),
}


@pytest.mark.parametrize("name", _LARGE_SCANS)
def test_isolating_scan_is_bitwise_the_reference_at_the_size_extremes(name):
    # The scan against the check written out over every isolating
    # partition, on the table as it is and with one chosen block forced to
    # be the witness: first, last and middle blocks in mask order, the
    # singletons and the largest blocks (|B| = m - 2).
    make, blocks = _LARGE_SCANS[name]
    oracle = make()
    for case in [oracle] + [_lowered(oracle, b, 100 * oracle.m) for b in blocks]:
        got = singleton_minimizer_check(case)
        want = _isolating_reference(case, DEFAULT_TIE_TOL)
        _assert_same_verdict(got, want, oracle.m)
    assert got.witness.partition == isolating_partition(oracle.m, blocks[-1])


def test_isolating_partition_identity():
    # For any partition P, summing |complement of A| times the surplus of
    # the partition isolating A's complement over the cells A of P equals
    # (|P| - 1) * (surplus(P) + (m - 1) * surplus(S)).
    for seed in (1, 2):
        for m in (3, 4, 5):
            oracle = TabularOracle(random_source(m, (2,) * m, seed=seed))
            s_value = partition_surplus(oracle, singleton_partition(m))
            full = subsets.full_mask(m)
            for p in enumerate_partitions(m, min_cells=2):
                lhs = 0.0
                for cell in p.cells:
                    comp = full & ~cell
                    lhs += comp.bit_count() * partition_surplus(
                        oracle, isolating_partition(m, comp)
                    )
                rhs = (len(p.cells) - 1) * (
                    partition_surplus(oracle, p) + (m - 1) * s_value
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_cell_complement_counting_identity():
    for m in (3, 4, 5):
        for p in enumerate_partitions(m, min_cells=2):
            total = sum(m - cell.bit_count() for cell in p.cells)
            assert total == m * (len(p.cells) - 1)


def test_exact_oracle_yields_fractions(k4_oracle):
    from fractions import Fraction

    report = sk_capacity(k4_oracle)
    assert isinstance(report.value, Fraction)
    assert report.exact
    v = singleton_minimizer_check(k4_oracle)
    assert v.status is MinimizerStatus.UNIQUE
    assert v.comparisons == 10


def _brute_capacity(oracle, tie_tol=1e-9):
    """The minimization written out over ``enumerate_partitions``."""
    band = 0 if oracle.exact else tie_tol
    best, near = None, []
    for p in enumerate_partitions(oracle.m, min_cells=2):
        value = partition_surplus(oracle, p)
        if best is None or value < best:
            best = value
            near = [(v, q) for v, q in near if v <= best + band]
        if value <= best + band:
            near.append((value, p))
    return best, tuple(q for v, q in near if v <= best + band)


def _common_refinement(partitions, m):
    cells = [subsets.full_mask(m)]
    for p in partitions:
        cells = [a & b for a in cells for b in p.cells if a & b]
    return Partition.from_cells(cells, m)


def _check_capacity_search(oracle, bitwise=True):
    report = sk_capacity(oracle)
    value, ties = _brute_capacity(oracle)
    if bitwise:
        assert _same_bits(report.value, value)
    else:
        assert value <= report.value <= value + 1e-9
    chosen = report.argmin
    assert isinstance(chosen, Partition)
    # The reported finest partition comes from a last pass inside the band,
    # so only exact oracles promise its surplus bit for bit.
    surplus = partition_surplus(oracle, chosen)
    if oracle.exact:
        assert _same_bits(surplus, report.value)
        finest = _common_refinement(ties, oracle.m)
        assert chosen == finest
        assert chosen.cells == finest.cells
    else:
        assert abs(surplus - report.value) <= DEFAULT_TIE_TOL
        assert chosen in ties
    assert 1 <= report.partitions_examined <= oracle.m


def _capacity_oracles():
    # The path ties 1,2|3, 1|2,3 and 1|2|3; the finest of them is 1|2|3.
    out = [pytest.param(PinOracle(make_path3_graph()), id="path3")]
    for m in range(2, 8):
        rng = random.Random(m)
        edges = [
            (u, v, rng.randint(1, 3))
            for u in range(1, m + 1)
            for v in range(u + 1, m + 1)
            if rng.random() < 0.6
        ] or [(1, 2, 1)]
        out += [
            pytest.param(TabularOracle(random_source(m, (2,) * m, seed=40 + m)), id=f"random-m{m}"),
            pytest.param(TabularOracle(make_identical_bits(m)), id=f"identical-m{m}"),
            pytest.param(
                TabularOracle(exchangeable_mixture(m, 2, components=2, seed=m)), id=f"mixture-m{m}"
            ),
            pytest.param(PinOracle(complete_graph(m)), id=f"K{m}"),
            pytest.param(PinOracle(PinGraph(m, tuple(edges))), id=f"pin-m{m}"),
        ]
    return out


@pytest.mark.parametrize("oracle", _capacity_oracles())
def test_capacity_search_matches_brute_force(oracle):
    _check_capacity_search(oracle)


def test_capacity_reports_the_finest_partition_inside_the_band():
    # surplus(1,2|3) = 0.5 - 1e-12 sets C; surplus(1|2|3) = 0.5 lies inside
    # the default band, so the finer singleton partition is reported, and
    # outside a band of 1e-15, where 1,2|3 is the only minimizer.
    oracle = _TableOracle(3, [0, 1, 1, 1.5 - 1e-12, 1, 2, 2, 2])
    wide, narrow = sk_capacity(oracle), sk_capacity(oracle, tie_tol=1e-15)
    assert wide.value == narrow.value == 1.5 - 1e-12 + 1 - 2
    assert wide.argmin == singleton_partition(3)
    assert narrow.argmin == Partition.from_cells([0b011, 0b100], 3)


def test_capacity_search_reports_a_finest_partition_off_value_by_rounding():
    # At 60 digits the last pass picks 1|2|3|4, whose surplus reads about
    # 1e-62 above the least surplus the Newton steps evaluated.
    source = JointSource(
        4, (1, 1, 2, 1), {(0, 0, 0, 0): 0.6666666666666666, (0, 0, 1, 0): 0.3333333333333333}
    )
    with mpmath.workdps(60):
        oracle = ExtendedPrecisionOracle(source)
        report = sk_capacity(oracle)
        assert report.argmin == singleton_partition(4)
        assert partition_surplus(oracle, report.argmin) != report.value
        _check_capacity_search(oracle, bitwise=False)


def test_newton_loop_ends_on_a_finer_tied_partition():
    # On the path 1=2-3-4 with (1, 2) doubled, C = 1 at every split of the
    # unit edges, and 1,2|3|4 is the finest minimizer.  Started at the tied
    # 1,2,3|4, the confirming pass returns 1,2|3|4 at the same surplus, and
    # the loop ends on it, having examined 2 partitions.
    graph = PinGraph(4, ((1, 2, 2), (2, 3, 1), (3, 4, 1)))
    h = PinOracle(graph).table()
    value, cells, examined = _newton_search(h, 4, True, [0b0111, 0b1000])
    assert (value, cells, examined) == (1, [0b0011, 0b0100, 0b1000], 2)
    finest = Partition.from_cells(cells, 4)
    assert finest == pin_capacity(graph).argmin == sk_capacity(PinOracle(graph)).argmin


@pytest.mark.parametrize("passes, surpluses, expected", [
    ([[3, 12], [3, 12]], {(3, 12): 2}, (2, [3, 12], 2)),
    ([[3, 4, 8], [15]], {(3, 4, 8): 2}, (2, [3, 4, 8], 2)),
    ([[3, 12], [3, 4, 8]], {(3, 12): 2, (3, 4, 8): 2}, (2, [3, 4, 8], 3)),
    ([[3, 12], [3, 4, 8]], {(3, 12): 2, (3, 4, 8): 2.5}, (2, [3, 12], 3)),
    ([[3, 12], [1, 14], [1, 14]], {(3, 12): 2, (1, 14): 1}, (1, [1, 14], 3)),
], ids=["same-cells", "trivial", "finer-tie", "above", "two-steps"])
def test_newton_loop_stopping_and_tie_rule(passes, surpluses, expected):
    # Scripted greedy passes from the singletons of 4 terminals (surplus
    # 3).  The loop ends when a pass returns the current cells or the
    # trivial partition, or cells whose surplus is not below gamma; it
    # takes those cells only when their surplus equals gamma.
    surpluses = {(1, 2, 4, 8): 3, **surpluses}
    script = iter(passes)
    gammas = []

    def greedy(gamma):
        gammas.append(gamma)
        return next(script)

    assert _dinkelbach((3, [1, 2, 4, 8]), greedy, lambda c: surpluses[tuple(c)]) == expected
    assert gammas[0] == 3 and gammas[-1] == expected[0]
    assert next(script, None) is None


@settings(max_examples=60, deadline=None)
@given(_minimizer_cases())
def test_capacity_search_matches_brute_force_on_drawn_sources(case):
    # Exact PIN values are bitwise.  A sparse float source can tie several
    # partitions in the reals, and rounding then lets one of them read an
    # ulp below the others; the greedy cannot see that gap, so float and
    # mpf values are only held to the band.
    kind, model, _ = case
    with mpmath.workdps(60):
        if kind == "pin":
            oracle = PinOracle(model)
        elif kind == "mpf":
            oracle = ExtendedPrecisionOracle(model)
        else:
            oracle = TabularOracle(model)
        _check_capacity_search(oracle, bitwise=kind == "pin")



class _Untouchable:
    m = subsets.MAX_TABLE_M + 1
    exact = False

    def entropy(self, subset):
        raise AssertionError("entropy queried before the size check")

    def table(self):
        raise AssertionError("table read before the size check")


_TABLE_CAP = r"^entropy-table analyses support m <= 16$"


class _OneTerminal(_Untouchable):
    m = 1


def test_capacity_size_limit_precedes_entropy_queries():
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        sk_capacity(_Untouchable())
    for search in (sk_capacity, leave_one_out_capacities):
        with pytest.raises(SizeLimitError, match="^capacity needs at least 2 terminals$"):
            search(_OneTerminal())
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        singleton_minimizer_check(_Untouchable())
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        restricted_capacity(_Untouchable(), 1)
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        speaker_rates(_Untouchable(), 1, 0)
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        build_rate_region(_Untouchable(), 1)


def test_enumeration_caps_share_one_limit():
    with pytest.raises(SizeLimitError, match=_TABLE_CAP):
        verdict_by_lp(_Untouchable())


_TABLE_KINDS = ("float-grid", "float-sparse", "mpf-grid", "mpf-sparse", "pin", "thirds")


def _table_oracle(kind, m):
    """A fresh oracle of the given kind at m terminals, the same on every call.

    The singleton partition is the unique minimizer of some and not of others.
    """
    rng = random.Random(1500 + m)
    if kind in ("pin", "thirds"):
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        edges = [(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.8]
        graph = PinGraph(m, tuple(edges or [(1, 2, 1)]))
        return PinOracle(graph) if kind == "pin" else ThirdsOracle(graph)
    if kind.endswith("grid"):
        source = random_source(m, (2, 3, 2, 2, 2, 2)[:m], seed=m)
    else:
        grid = [tuple((x >> i) & 1 for i in range(m)) for x in range(1 << m)]
        support = rng.sample(grid, min(5, len(grid)))
        weights = [rng.randint(1, 4) for _ in support]
        source = JointSource(m, (2,) * m, {x: w / sum(weights) for x, w in zip(support, weights)})
    return ExtendedPrecisionOracle(source) if kind.startswith("mpf") else TabularOracle(source)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("kind", _TABLE_KINDS)
def test_speaker_table_cut_is_the_gathered_table(kind, m):
    # The cut from table() against the same entries read one query at a
    # time, bit for bit, on every speaker set.
    with mpmath.workdps(60):
        oracle = _table_oracle(kind, m)
        full = subsets.full_mask(m)
        for speakers in range(1, full + 1):
            got = speaker_table(oracle, speakers)
            want = gathered_table(oracle, speakers)
            assert len(got) == len(want) == 1 << speakers.bit_count()
            assert all(_same_bits(a, b) for a, b in zip(got, want)), speakers
        assert speaker_table(oracle, full) is oracle.table()


@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("kind", _TABLE_KINDS)
def test_analyses_leave_the_shared_table_unchanged(kind, m):
    with mpmath.workdps(60):
        oracle = _table_oracle(kind, m)
        table = oracle.table()
        sk_capacity(oracle)
        singleton_minimizer_check(oracle)
        run_routes(OracleModel(oracle))
        for speakers in range(1, subsets.full_mask(m) + 1):
            silent_capacity(oracle, speakers)
        fresh = _table_oracle(kind, m).table()
    assert oracle.table() is table
    assert all(_same_bits(a, b) for a, b in zip(table, fresh))
    assert len(table) == len(fresh) == 1 << m


def test_drop_cells_renumbers_and_falls_back():
    # u leaves its cell and the bits above u shift down one.
    assert _drop_cells([0b0011, 0b1100], 2) == [0b001, 0b110]
    # A cell that held only u is gone.
    assert _drop_cells([0b0001, 0b0010, 0b1100], 1) == [0b001, 0b110]
    # {1,3}|{2,4} without 1 is {2}|{1,3} renumbered: the order is canonical again.
    assert _drop_cells([0b0101, 0b1010], 1) == [0b101, 0b010]
    # Fewer than 2 cells left: the search starts at the singletons.
    assert _drop_cells([0b0111, 0b1000], 4) is None
    assert _drop_cells([0b0001, 0b1110], 1) is None


def test_drop_cells_agrees_with_the_speaker_table_cut():
    # Position s of the cut for M - u holds the mask s stands for, so on an
    # identity table the dropped cells must read back as the cells minus u,
    # re-sorted: a cell whose least member was u may now come later.
    m = 5
    identity = list(range(1 << m))
    for p in enumerate_partitions(m):
        cells = sorted(p.cells, key=lambda c: c & -c)
        for u in range(1, m + 1):
            cut = _drop_terminal(identity, u)
            left = [c & ~subsets.bit(u) for c in cells if c & ~subsets.bit(u)]
            start = _drop_cells(cells, u)
            if len(left) < 2:
                assert start is None
            else:
                assert [cut[c] for c in start] == sorted(left, key=lambda c: c & -c)


@st.composite
def _leave_one_out_cases(draw):
    """(kind, model): PIN or thirds multigraphs at m = 3..9, or hidden-bit pmfs
    at m = 4..7 read in floats or at 60 digits."""
    kind = draw(st.sampled_from(["pin", "thirds", "float", "mpf"]))
    if kind in ("pin", "thirds"):
        m = draw(st.integers(min_value=3, max_value=9))
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        return kind, PinGraph(m, tuple((u, v, draw(st.integers(1, 3))) for u, v in chosen))
    m = draw(st.integers(min_value=4, max_value=7))
    k = draw(st.integers(min_value=1, max_value=3))
    bias = st.sampled_from([0.5, 0.3, 0.25, 0.1]) | st.floats(0.05, 0.95)
    biases = draw(st.lists(bias, min_size=k, max_size=k))
    views = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=m, max_size=m))
    return kind, hidden_bits_source(biases, views)


_ORACLES = {
    "pin": PinOracle,
    "thirds": ThirdsOracle,
    "float": TabularOracle,
    "mpf": ExtendedPrecisionOracle,
}


@settings(max_examples=150, deadline=None)
@given(_leave_one_out_cases())
# Two constants, A, B and A xor B: every restricted capacity is 0 in the
# reals, and a search for M - 5 started at the capacity's cells would end
# at another tying partition, whose float fold rounds apart.
@example(("float", hidden_bits_source((0.3, 0.3), (0, 0, 1, 2, 3))))
def test_lp_rows_are_the_cold_restricted_capacities(case):
    kind, model = case
    with mpmath.workdps(60):
        oracle = _ORACLES[kind](model)
        v = verdict_by_lp(oracle)
        full = subsets.full_mask(oracle.m)
        c, restricted = leave_one_out_capacities(oracle)
        assert _same_bits(c, restricted_capacity(oracle, full))
        assert [row.silent_capacity for row in v.evidence] == restricted
        for row in v.evidence:
            assert _same_bits(row.capacity, c)
            assert _same_bits(row.silent_capacity, restricted_capacity(oracle, row.speakers))


def test_leave_one_out_searches_start_at_the_capacity_minimizer(monkeypatch):
    # The README graph: C = 5/2 at 1,4|2|3, found in 2 greedy passes.
    # Started at that partition with u dropped, or at a one-terminal cut
    # of lower surplus, the four leave-one-out searches take 1 pass each:
    # 6 in all, as the five cold searches take.  From the warm cells alone
    # the passes were 7, and cold from the singletons 9.
    oracle = PinOracle(PinGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 3), (2, 3, 2), (3, 4, 1))))
    calls = []

    def counted(*args):
        calls.append(args)
        return _greedy_cells(*args)

    monkeypatch.setattr("skomni.capacity._greedy_cells", counted)
    rows = verdict_by_lp(oracle).evidence
    assert len(calls) == 6
    calls.clear()
    cold = [restricted_capacity(oracle, s) for s in (0b1111, 0b1110, 0b1101, 0b1011, 0b0111)]
    assert len(calls) == 6
    assert [row.silent_capacity for row in rows] == cold[1:] == [1, 2, 1, 2]
