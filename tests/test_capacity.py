import random
from unittest import mock

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
)
from skomni.errors import SizeLimitError
from skomni.generators import random_source
from skomni.omnivocality import verdict_by_lp
from skomni.partitions import (
    Partition,
    enumerate_partitions,
    isolating_partition,
    singleton_partition,
)
from skomni.pin import PinGraph, PinOracle, complete_graph
from skomni.sources import ExtendedPrecisionOracle, JointSource, TabularOracle, mutual_information

from conftest import (
    binary_entropy,
    brute_minimizer_check,
    exchangeable_mixture,
    make_identical_bits,
    make_path3_graph,
    make_two_speaker_bsc,
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
    assert report.argmin == (singleton_partition(3),)


def test_capacity_identical_bits_all_tie(identical_oracle):
    # All four partitions tie; the finest of them is reported.
    report = sk_capacity(identical_oracle)
    assert report.value == pytest.approx(1.0)
    assert report.argmin == (singleton_partition(3),)


def test_capacity_iid_bits_is_zero(iid_oracle):
    report = sk_capacity(iid_oracle)
    assert report.value == pytest.approx(0.0)
    assert report.argmin == (singleton_partition(3),)


def test_capacity_common_randomness(common_randomness_oracle):
    report = sk_capacity(common_randomness_oracle)
    assert report.value == pytest.approx(1.0)
    assert report.argmin == (singleton_partition(3),)


def test_capacity_two_speaker(two_speaker_oracle):
    report = sk_capacity(two_speaker_oracle)
    assert report.value == pytest.approx(1.0 - binary_entropy(0.45))
    assert report.argmin == (Partition.from_rgs((0, 0, 1)),)


def test_capacity_xor4(xor4_oracle):
    report = sk_capacity(xor4_oracle)
    assert report.value == pytest.approx(1.0 / 3.0)
    assert report.partitions_examined == 1
    assert report.argmin == (singleton_partition(4),)


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
    blocks = [b for b in range(1, 1 << m) if 1 <= subsets.size(b) <= m - 2]
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
    assert got.status is want.status
    assert got.comparisons == want.comparisons == (1 << oracle.m) - oracle.m - 2
    # At most one Partition is built per verdict: the returned witness.
    assert built.call_count == (want.witness is not None)
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

    def __init__(self, m, table):
        self.m = m
        self.table = table

    def entropy(self, subset):
        return self.table[subset]


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
        st.sampled_from([b for b in range(1, 1 << m) if 1 <= subsets.size(b) <= m - 2])
    )
    rng = random.Random(seed)
    with mpmath.workdps(60):
        scalar = mpmath.mpf if mpf else float
        # Thirds fill every mantissa bit, so the summation order shows.
        table = [scalar(rng.random()) / 3 * subsets.size(s) for s in range(1 << m)]
        table[subsets.full_mask(m) & ~block] -= 100 * m
        oracle = _TableOracle(m, table)
        got = singleton_minimizer_check(oracle)
        want = _isolating_reference(oracle, 1e-9)
    assert got.status is want.status is MinimizerStatus.NOT_MINIMIZER
    assert got.witness.partition == want.witness.partition == isolating_partition(m, block)
    assert _same_bits(got.witness.surplus, want.witness.surplus)
    assert _same_bits(got.witness.singleton_surplus, want.witness.singleton_surplus)


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
                    lhs += subsets.size(comp) * partition_surplus(
                        oracle, isolating_partition(m, comp)
                    )
                rhs = (p.n_cells - 1) * (
                    partition_surplus(oracle, p) + (m - 1) * s_value
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_cell_complement_counting_identity():
    for m in (3, 4, 5):
        for p in enumerate_partitions(m, min_cells=2):
            total = sum(m - subsets.size(cell) for cell in p.cells)
            assert total == m * (p.n_cells - 1)


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
    assert len(report.argmin) == 1
    (chosen,) = report.argmin
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
    assert wide.argmin == (singleton_partition(3),)
    assert narrow.argmin == (Partition.from_rgs((0, 0, 1)),)


def test_capacity_search_reports_a_finest_partition_off_value_by_rounding():
    # At 60 digits the last pass picks 1|2|3|4, whose surplus reads about
    # 1e-62 above the least surplus the Newton steps evaluated.
    source = JointSource(
        4, (1, 1, 2, 1), {(0, 0, 0, 0): 0.6666666666666666, (0, 0, 1, 0): 0.3333333333333333}
    )
    with mpmath.workdps(60):
        oracle = ExtendedPrecisionOracle(source)
        report = sk_capacity(oracle)
        assert report.argmin == (singleton_partition(4),)
        assert partition_surplus(oracle, report.argmin[0]) != report.value
        _check_capacity_search(oracle, bitwise=False)


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
    m = subsets.MAX_ENUMERATION_M + 1
    exact = False

    def entropy(self, subset):
        raise AssertionError("entropy queried before the size check")


def test_capacity_size_limit_precedes_entropy_queries():
    with pytest.raises(SizeLimitError, match="m <= 12"):
        sk_capacity(_Untouchable())
    with pytest.raises(SizeLimitError, match=r"^minimizer check supports m <= 12$"):
        singleton_minimizer_check(_Untouchable())
    beyond_regions = _Untouchable()
    beyond_regions.m = subsets.MAX_REGION_M + 1
    with pytest.raises(SizeLimitError, match=r"^restricted capacity supports m <= 16$"):
        restricted_capacity(beyond_regions, 1)


def test_enumeration_caps_share_one_limit():
    with pytest.raises(SizeLimitError, match=r"^LP comparison supports m <= 12$"):
        verdict_by_lp(_Untouchable())
