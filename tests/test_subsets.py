import pytest
from hypothesis import given
from hypothesis import strategies as st

from skomni import subsets
from skomni.errors import InputError, InvalidSubsetError


def test_full_mask_and_bit():
    assert subsets.full_mask(3) == 0b111
    assert subsets.full_mask(1) == 0b1
    assert subsets.bit(1) == 0b001
    assert subsets.bit(3) == 0b100


def test_mask_of_and_members_round_trip():
    assert subsets.mask_of([1, 3], 3) == 0b101
    assert subsets.members(0b101) == [1, 3]
    assert subsets.members(0) == []


def test_size_counts_bits():
    assert subsets.size(0) == 0
    assert subsets.size(0b1011) == 3


def test_check_subset_rejects_out_of_range():
    subsets.check_subset(0b11, 2)
    with pytest.raises(InvalidSubsetError):
        subsets.check_subset(0b100, 2)
    with pytest.raises(InvalidSubsetError):
        subsets.check_subset(0, 2)
    subsets.check_subset(0, 2, allow_empty=True)
    with pytest.raises(InvalidSubsetError):
        subsets.check_subset(-1, 2, allow_empty=True)
    for mask in (1.0, "1", None, True):
        with pytest.raises(InvalidSubsetError, match="not an int"):
            subsets.check_subset(mask, 2)
    for m in (0, subsets.MAX_TERMINALS + 1):
        with pytest.raises(InvalidSubsetError, match=f"m={m} outside 1..24"):
            subsets.check_subset(1, m)


@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_iter_submasks_is_complete_and_ascending(mask):
    seen = list(subsets.iter_submasks(mask))
    assert seen == sorted(seen)
    assert len(seen) == (1 << subsets.size(mask)) - 1
    assert all(sub and (sub & mask) == sub for sub in seen)


def test_parse_subset():
    assert subsets.parse_subset("1,3", 3) == 0b101
    assert subsets.parse_subset(" 2 , 1 ", 3) == 0b011


@pytest.mark.parametrize("text", ["", "1,,2", "0", "4", "1,1", "a,b"])
def test_parse_subset_rejects_bad_literals(text):
    with pytest.raises(InputError):
        subsets.parse_subset(text, 3)


def test_format_subset_round_trip():
    assert subsets.format_subset(0b101) == "1,3"
    assert subsets.parse_subset(subsets.format_subset(0b0110), 4) == 0b0110


@given(st.integers(min_value=1, max_value=(1 << 8) - 1))
def test_format_parse_round_trip_any_mask(mask):
    assert subsets.parse_subset(subsets.format_subset(mask), 8) == mask
