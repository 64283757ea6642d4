import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skomni.errors import InvalidPartitionError
from skomni.partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    isolating_partition,
    singleton_partition,
)
from skomni.subsets import parse_subset

# Number of partitions of an n-set, n = 1..8.
BELL = [1, 2, 5, 15, 52, 203, 877, 4140]


def test_from_rgs_builds_cells():
    p = Partition.from_rgs([0, 0, 1])
    assert p.m == 3
    assert p.n_cells == 2
    assert p.cells == (0b011, 0b100)


def test_from_rgs_rejects_non_canonical():
    with pytest.raises(InvalidPartitionError):
        Partition.from_rgs([1, 0])
    with pytest.raises(InvalidPartitionError):
        Partition.from_rgs([0, 2])
    with pytest.raises(InvalidPartitionError):
        Partition.from_rgs([])


def test_from_cells_canonicalizes():
    p = Partition.from_cells([0b100, 0b011], 3)
    q = Partition.from_cells([0b011, 0b100], 3)
    assert p == q
    assert p.rgs == (0, 0, 1)


def test_from_cells_rejects_overlap_and_gaps():
    with pytest.raises(InvalidPartitionError):
        Partition.from_cells([0b011, 0b110], 3)
    with pytest.raises(InvalidPartitionError):
        Partition.from_cells([0b001], 3)
    with pytest.raises(InvalidPartitionError):
        Partition.from_cells([], 3)


def test_singleton_partition():
    s = singleton_partition(4)
    assert s.n_cells == 4
    assert s.rgs == (0, 1, 2, 3)


def test_isolating_partition_examples():
    p = isolating_partition(4, 0b0011)
    assert set(p.cells) == {0b1100, 0b0001, 0b0010}
    assert isolating_partition(3, 0b110) == singleton_partition(3)
    assert isolating_partition(5, 0b10000).cells == (0b01111, 0b10000)


def test_isolating_partition_cell_count():
    for m in (3, 4, 5):
        for block in range(1, (1 << m) - 1):
            p = isolating_partition(m, block)
            assert p.n_cells == bin(block).count("1") + 1


def test_enumeration_counts_match_bell_numbers():
    for m, bell in enumerate(BELL, start=1):
        assert sum(1 for _ in enumerate_partitions(m, min_cells=1)) == bell
    for m, bell in enumerate(BELL, start=1):
        assert sum(1 for _ in enumerate_partitions(m, min_cells=2)) == bell - 1


def test_enumeration_is_lexicographic_and_duplicate_free():
    seen = [p.rgs for p in enumerate_partitions(4, min_cells=1)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    assert seen[0] == (0, 0, 0, 0)
    assert seen[-1] == (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=202),
    st.randoms(use_true_random=False),
)
def test_round_trip_through_rgs(m, index, rng):
    all_parts = list(enumerate_partitions(m, min_cells=1))
    p = all_parts[index % len(all_parts)]
    assert Partition.from_rgs(p.rgs) == p
    assert Partition.from_cells(p.cells, m) == p
    shuffled = list(p.cells)
    rng.shuffle(shuffled)
    q = Partition.from_cells(shuffled, m)
    assert q == Partition.from_rgs(p.rgs) and hash(q) == hash(p)
    assert (q.rgs, q.m, q.n_cells) == (p.rgs, m, len(set(p.rgs)))


def test_format_partition_round_trip():
    for p in enumerate_partitions(4, min_cells=1):
        cells = [parse_subset(text, 4) for text in format_partition(p).split("|")]
        assert Partition.from_cells(cells, 4) == p
    assert format_partition(Partition.from_rgs((0, 0, 1))) == "1,2|3"
    assert format_partition(Partition.from_rgs((0, 1, 0, 2))) == "1,3|2|4"
    assert str(singleton_partition(3)) == "1|2|3"
