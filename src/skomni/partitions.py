"""Partitions of the terminal set {1..m} in restricted-growth form.

A partition is stored canonically as its restricted growth string (RGS):
``rgs[i]`` is the cell index of terminal i+1, cells are numbered by first
appearance, so ``rgs[0] == 0`` and each entry exceeds the running maximum
by at most one.  Two equal partitions therefore have equal RGS tuples, and
enumerating RGS tuples in lexicographic order enumerates set partitions
without repetition.

Cells are exposed as subset bitmasks (see ``subsets``), ordered by cell
index, i.e. by their smallest member.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from . import subsets
from .errors import InputError, InvalidPartitionError, SizeLimitError


def _cells_from_rgs(rgs: tuple[int, ...]) -> tuple[int, ...]:
    n_cells = max(rgs) + 1
    cells = [0] * n_cells
    for i, c in enumerate(rgs):
        cells[c] |= 1 << i
    return tuple(cells)


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..m}; equality and hashing use the RGS only."""

    rgs: tuple[int, ...]
    cells: tuple[int, ...] = field(compare=False)

    @classmethod
    def from_rgs(cls, rgs: Iterable[int]) -> "Partition":
        rgs = tuple(rgs)
        if not rgs:
            raise InvalidPartitionError("empty RGS")
        running_max = -1
        for c in rgs:
            if not isinstance(c, int) or c < 0 or c > running_max + 1:
                raise InvalidPartitionError(f"{rgs!r} is not a restricted growth string")
            running_max = max(running_max, c)
        return cls(rgs, _cells_from_rgs(rgs))

    @classmethod
    def from_cells(cls, cells: Iterable[int], m: int) -> "Partition":
        """Canonicalize an arbitrary family of disjoint cell masks covering 1..m."""
        cover = 0
        for cell in cells:
            subsets.check_subset(cell, m)
            if cover & cell:
                raise InvalidPartitionError("cells overlap")
            cover |= cell
        if cover != subsets.full_mask(m):
            raise InvalidPartitionError(
                f"cells cover {subsets.members(cover)}, not all of 1..{m}"
            )
        label: dict[int, int] = {}
        rgs = []
        cell_of = {}
        for cell in cells:
            for t in subsets.members(cell):
                cell_of[t] = cell
        for t in range(1, m + 1):
            cell = cell_of[t]
            if cell not in label:
                label[cell] = len(label)
            rgs.append(label[cell])
        return cls(tuple(rgs), _cells_from_rgs(tuple(rgs)))

    @property
    def m(self) -> int:
        return len(self.rgs)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def __str__(self) -> str:
        return format_partition(self)


def singleton_partition(m: int) -> Partition:
    """The all-singletons partition {{1},...,{m}}."""
    if m < 1 or m > subsets.MAX_TERMINALS:
        raise SizeLimitError(f"m={m} outside 1..{subsets.MAX_TERMINALS}")
    return Partition.from_rgs(range(m))


def isolating_partition(m: int, block: int) -> Partition:
    """Partition that isolates each member of ``block`` as a singleton.

    The cells are the complement of ``block`` plus one singleton per member
    of ``block``; for ``|block| >= m-1`` this degenerates to the singleton
    partition.
    """
    subsets.check_subset(block, m)
    cells = [subsets.full_mask(m) & ~block] + [1 << (t - 1) for t in subsets.members(block)]
    cells = [c for c in cells if c]
    return Partition.from_cells(cells, m)


def enumerate_partitions(m: int, min_cells: int = 2) -> Iterator[Partition]:
    """Yield every partition of {1..m} with at least ``min_cells`` cells.

    Lazy, in lexicographic RGS order.  The count over all min_cells=1
    partitions is the Bell number B(m).
    """
    if not isinstance(m, int) or m < 1:
        raise SizeLimitError(f"m={m!r} is not a positive integer")
    if m > subsets.MAX_ENUMERATION_M:
        raise SizeLimitError(f"partition enumeration supports m <= {subsets.MAX_ENUMERATION_M}")
    if min_cells > m:
        return
    rgs = [0] * m

    def rec(i: int, running_max: int) -> Iterator[Partition]:
        if i == m:
            if running_max + 1 >= min_cells:
                t = tuple(rgs)
                yield Partition(t, _cells_from_rgs(t))
            return
        for c in range(running_max + 2):
            rgs[i] = c
            yield from rec(i + 1, max(running_max, c))

    yield from rec(1, 0)


def parse_partition(text: str, m: int) -> Partition:
    """Parse a partition literal such as "1,2|3" for the given m.

    Every terminal 1..m must appear exactly once; cells are separated by
    '|' and members by ','.
    """
    cell_texts = text.split("|")
    cells = []
    seen = 0
    for cell_text in cell_texts:
        try:
            cell = subsets.parse_subset(cell_text.strip(), m)
        except InputError as exc:
            raise InputError(f"bad partition literal {text!r}: {exc}") from None
        if cell & seen:
            raise InputError(f"bad partition literal {text!r}: terminal repeated across cells")
        seen |= cell
        cells.append(cell)
    if seen != subsets.full_mask(m):
        missing = subsets.members(subsets.full_mask(m) & ~seen)
        raise InputError(f"bad partition literal {text!r}: missing terminals {missing}")
    return Partition.from_cells(cells, m)


def format_partition(partition: Partition) -> str:
    """Inverse of parse_partition, cells in canonical order: "1,2|3"."""
    return "|".join(subsets.format_subset(cell) for cell in partition.cells)
