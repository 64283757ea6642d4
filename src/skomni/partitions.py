"""Partitions of the terminal set {1..m} as canonical cell tuples.

A partition is stored as its cells, subset bitmasks (see ``subsets``)
ordered by their smallest member.  That order is canonical, so two equal
partitions have equal cell tuples, and the tuple is the partition's
identity for equality and hashing.

The restricted growth string (RGS) is a derived view: ``rgs[i]`` is the
index of the cell holding terminal i+1, so ``rgs[0] == 0`` and each entry
exceeds the running maximum by at most one.  Enumerating RGS tuples in
lexicographic order enumerates set partitions without repetition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import subsets
from .errors import InvalidPartitionError, SizeLimitError


def _cells_from_rgs(rgs: Sequence[int]) -> tuple[int, ...]:
    n_cells = max(rgs) + 1
    cells = [0] * n_cells
    for i, c in enumerate(rgs):
        cells[c] |= 1 << i
    return tuple(cells)


class Partition(NamedTuple):
    """A set partition of {1..m}: its cells in canonical order."""

    cells: tuple[int, ...]

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
        return cls(_cells_from_rgs(rgs))

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
        return cls(tuple(sorted(cells, key=lambda c: c & -c)))

    @property
    def m(self) -> int:
        return max(self.cells).bit_length()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def rgs(self) -> tuple[int, ...]:
        rgs = [0] * self.m
        for index, cell in enumerate(self.cells):
            for t in subsets.members(cell):
                rgs[t - 1] = index
        return tuple(rgs)

    def __str__(self) -> str:
        return format_partition(self)


def singleton_partition(m: int) -> Partition:
    """The all-singletons partition {{1},...,{m}}."""
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
    if min_cells > m:
        return
    rgs = [0] * m

    def rec(i: int, running_max: int) -> Iterator[Partition]:
        if i == m:
            if running_max + 1 >= min_cells:
                yield Partition(_cells_from_rgs(rgs))
            return
        for c in range(running_max + 2):
            rgs[i] = c
            yield from rec(i + 1, max(running_max, c))

    yield from rec(1, 0)


def format_partition(partition: Partition) -> str:
    """Cells in canonical order, '|' between cells and ',' between members: "1,2|3"."""
    return "|".join(subsets.format_subset(cell) for cell in partition.cells)
