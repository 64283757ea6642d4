"""Partitions of the terminal set {1..m} as canonical cell tuples.

A partition is stored as its cells, subset bitmasks (see ``subsets``)
ordered by their smallest member.  That order is canonical, so two equal
partitions have equal cell tuples, and the tuple is the partition's
identity for equality and hashing.  The searches in ``capacity`` and
``pin`` work on plain lists of cell masks in the same order and build a
``Partition`` only for what they return; ``canonical_order`` and
``merge_cells`` are the cell rules they share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import subsets
from .errors import InputError


def canonical_order(cells: Iterable[int]) -> list[int]:
    """Cell masks sorted by their smallest member."""
    return sorted(cells, key=lambda c: c & -c)


def merge_cells(cells: list[int], chosen: int) -> list[int]:
    """The cells that miss ``chosen``, in order, then ``chosen`` joined with
    every cell it meets."""
    kept = []
    for cell in cells:
        if cell & chosen:
            chosen |= cell
        else:
            kept.append(cell)
    kept.append(chosen)
    return kept


class Partition(NamedTuple):
    """A set partition of {1..m}: its cells in canonical order."""

    cells: tuple[int, ...]

    @classmethod
    def from_cells(cls, cells: Iterable[int], m: int) -> "Partition":
        """Canonicalize an arbitrary family of disjoint cell masks covering 1..m."""
        subsets.check_mask_m(m)
        cells = tuple(cells)  # a one-shot iterable is read once
        cover = 0
        for cell in cells:
            subsets.check_subset(cell, m)
            if cover & cell:
                raise InputError("cells overlap")
            cover |= cell
        if cover != subsets.full_mask(m):
            raise InputError(
                f"cells cover {subsets.members(cover)}, not all of 1..{m}"
            )
        return cls(tuple(canonical_order(cells)))

    def __str__(self) -> str:
        return format_partition(self)


def singleton_partition(m: int) -> Partition:
    """The all-singletons partition {{1},...,{m}}."""
    return isolating_partition(m, subsets.full_mask(m))


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

    Lazy.  Terminal t joins each cell of the terminals below it in turn,
    in canonical order, and then opens a cell of its own, so every
    partition comes once.  The count over all min_cells=1 partitions is
    the Bell number B(m).
    """
    subsets.check_mask_m(m)
    if min_cells > m:
        return
    cells: list[int] = []

    def rec(t: int) -> Iterator[Partition]:
        if t == m:
            if len(cells) >= min_cells:
                yield Partition(tuple(cells))
            return
        bit = 1 << t
        for i in range(len(cells)):
            cells[i] |= bit
            yield from rec(t + 1)
            cells[i] ^= bit
        cells.append(bit)
        yield from rec(t + 1)
        cells.pop()

    yield from rec(0)


def format_partition(partition: Partition) -> str:
    """Cells in canonical order, '|' between cells and ',' between members: "1,2|3"."""
    return "|".join(subsets.format_subset(cell) for cell in partition.cells)
