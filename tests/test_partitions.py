from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skomni.errors import InputError, SizeLimitError, SkomniError
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


def test_from_cells_canonicalizes():
    p = Partition.from_cells([0b100, 0b011], 3)
    q = Partition.from_cells([0b011, 0b100], 3)
    assert p == q
    assert p.cells == (0b011, 0b100)
    # A one-shot iterable is read once, for the checks and the cells alike.
    assert Partition.from_cells((c for c in [0b100, 0b011]), 3) == p


def test_from_cells_rejects_overlap_and_gaps():
    with pytest.raises(InputError):
        Partition.from_cells([0b011, 0b110], 3)
    with pytest.raises(InputError):
        Partition.from_cells([0b001], 3)
    with pytest.raises(InputError):
        Partition.from_cells([], 3)
    with pytest.raises(SkomniError):
        Partition.from_cells([], 0)
    with pytest.raises(SizeLimitError, match="m=25 outside 1..24"):
        Partition.from_cells([1], 25)


def test_singleton_partition():
    s = singleton_partition(4)
    assert len(s.cells) == 4
    assert s.cells == (0b0001, 0b0010, 0b0100, 0b1000)


def test_isolating_partition_examples():
    p = isolating_partition(4, 0b0011)
    assert set(p.cells) == {0b1100, 0b0001, 0b0010}
    assert isolating_partition(3, 0b110) == singleton_partition(3)
    assert isolating_partition(5, 0b10000).cells == (0b01111, 0b10000)
    for m in (0, 25):
        with pytest.raises(SizeLimitError, match=f"m={m} outside 1..24"):
            isolating_partition(m, 1)


def test_isolating_partition_cell_count():
    for m in (3, 4, 5):
        for block in range(1, (1 << m) - 1):
            p = isolating_partition(m, block)
            assert len(p.cells) == block.bit_count() + 1


def test_enumeration_counts_match_bell_numbers():
    for m, bell in enumerate(BELL, start=1):
        assert sum(1 for _ in enumerate_partitions(m, min_cells=1)) == bell
    for m, bell in enumerate(BELL, start=1):
        assert sum(1 for _ in enumerate_partitions(m, min_cells=2)) == bell - 1
    with pytest.raises(SizeLimitError, match="m=0 outside 1..24"):
        next(enumerate_partitions(0))
    with pytest.raises(SizeLimitError, match="m=25 outside 1..24"):
        next(enumerate_partitions(25))


def _cell_indices(p):
    """The index of the cell holding each terminal, terminal 1 first."""
    return tuple(next(i for i, c in enumerate(p.cells) if c >> t & 1) for t in range(max(p.cells).bit_length()))


def test_enumeration_is_lexicographic_and_duplicate_free():
    # The order is that of the cell-index strings, listed here as every
    # string in which each index is at most one above the ones before it.
    for m in range(1, 7):
        strings = [
            s for s in product(range(m), repeat=m)
            if all(c <= max(s[:i], default=-1) + 1 for i, c in enumerate(s))
        ]
        for min_cells in (1, 2, 3):
            expected = [s for s in strings if max(s) + 1 >= min_cells]
            seen = [_cell_indices(p) for p in enumerate_partitions(m, min_cells)]
            assert seen == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=202),
    st.randoms(use_true_random=False),
)
def test_round_trip_through_cells(m, index, rng):
    all_parts = list(enumerate_partitions(m, min_cells=1))
    p = all_parts[index % len(all_parts)]
    assert Partition.from_cells(p.cells, m) == p
    shuffled = list(p.cells)
    rng.shuffle(shuffled)
    q = Partition.from_cells(shuffled, m)
    assert q == p and hash(q) == hash(p)


def test_format_partition_round_trip():
    for p in enumerate_partitions(4, min_cells=1):
        cells = [parse_subset(text, 4) for text in format_partition(p).split("|")]
        assert Partition.from_cells(cells, 4) == p
    assert format_partition(Partition.from_cells([0b100, 0b011], 3)) == "1,2|3"
    assert format_partition(Partition.from_cells([0b1000, 0b0101, 0b0010], 4)) == "1,3|2|4"
    assert str(singleton_partition(3)) == "1|2|3"
