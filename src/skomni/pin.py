"""Pairwise independent network (PIN) sources on multigraphs.

In a PIN source each edge of a multigraph on terminals 1..m carries its
own iid uniform bit (per observation); a terminal sees exactly the bits of
the edges incident on it.  A subset A of terminals therefore observes the
independent uniform bits of every edge meeting A, so its entropy is the
multiplicity-weighted count of incident edges: an exact integer, which
makes the whole capacity analysis of these models exact rational
arithmetic.

The partition surplus has a purely graph-theoretic form here: every edge
inside a cell cancels and every crossing edge contributes once, so

    surplus(P) = crossing(P) / (|P| - 1),

the quotient familiar from graph strength.  ``pin_capacity`` minimizes
that quotient directly over crossing counts; ``PinOracle`` exposes the
same model through the generic entropy interface so that every
entropy-based analysis can be cross-checked against the combinatorial
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from . import subsets
from .capacity import CapacityReport
from .errors import InputError, SizeLimitError
from .partitions import Partition, enumerate_partitions
from .sources import read_json


@dataclass(frozen=True)
class PinGraph:
    """Multigraph on terminals 1..m as (u, v, multiplicity) triples.

    Edges are normalized to u < v and sorted; self-loops and duplicate
    pairs are rejected (bundle parallel edges into the multiplicity).
    """

    m: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        subsets.check_terminal_count(self.m)
        seen = set()
        normalized = []
        for edge in self.edges:
            try:
                u, v, mult = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a (u, v, mult) triple") from None
            if not all(type(x) is int for x in (u, v, mult)):
                raise InputError(f"edge {edge!r} has non-integer fields")
            if u == v:
                raise InputError(f"self-loop at terminal {u}")
            if not (1 <= u <= self.m and 1 <= v <= self.m):
                raise InputError(f"edge {edge!r} outside terminals 1..{self.m}")
            if mult < 1:
                raise InputError(f"edge {edge!r} has multiplicity < 1")
            u, v = min(u, v), max(u, v)
            if (u, v) in seen:
                raise InputError(f"edge {{{u},{v}}} listed twice")
            seen.add((u, v))
            normalized.append((u, v, mult))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def from_json_dict(cls, data: Any) -> "PinGraph":
        if not isinstance(data, dict):
            raise InputError("graph JSON must be an object")
        if "m" not in data or "edges" not in data:
            raise InputError("graph JSON needs 'm' and 'edges'")
        if not isinstance(data["edges"], list):
            raise InputError("graph JSON field 'edges' must be a list")
        edges = []
        for entry in data["edges"]:
            if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
                raise InputError(f"edge entry {entry!r} must have 'u' and 'v'")
            edges.append((entry["u"], entry["v"], entry.get("mult", 1)))
        return cls(data["m"], tuple(edges))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "edges": [{"u": u, "v": v, "mult": w} for u, v, w in self.edges],
        }


def load_pin_graph(path: str | Path) -> PinGraph:
    return PinGraph.from_json_dict(read_json(path))


def complete_graph(m: int, mult: int = 1) -> PinGraph:
    edges = tuple(
        (u, v, mult) for u in range(1, m + 1) for v in range(u + 1, m + 1)
    )
    return PinGraph(m, edges)


def incident_weight(graph: PinGraph, subset: int) -> int:
    """Total multiplicity of edges with at least one endpoint in subset.

    This is exactly the subset entropy of the PIN source in bits.
    """
    subsets.check_subset(subset, graph.m, allow_empty=True)
    total = 0
    for u, v, mult in graph.edges:
        if subset & ((1 << (u - 1)) | (1 << (v - 1))):
            total += mult
    return total


class PinOracle:
    """Exact integer subset-entropy oracle for a PIN source, table-backed."""

    exact = True

    def __init__(self, graph: PinGraph):
        self.graph = graph
        self.m = graph.m
        self._full = subsets.full_mask(graph.m)
        self._cache: Optional[list[int]] = None

    def entropy(self, subset: int) -> int:
        if type(subset) is not int or not 0 <= subset <= self._full:
            subsets.check_subset(subset, self.m, allow_empty=True)
        return (self._cache or self._fill())[subset]

    def _fill(self) -> list[int]:
        self._cache = [incident_weight(self.graph, s) for s in range(self._full + 1)]
        return self._cache


def partition_crossing(graph: PinGraph, partition: Partition) -> int:
    """Multiplicity-weighted number of edges whose endpoints lie in
    different cells."""
    if partition.m != graph.m:
        raise SizeLimitError(f"partition is over m={partition.m}, graph has m={graph.m}")
    rgs = partition.rgs
    return sum(mult for u, v, mult in graph.edges if rgs[u - 1] != rgs[v - 1])


def strength_quotient(graph: PinGraph, partition: Partition) -> Fraction:
    """crossing(P) / (|P| - 1), the exact partition surplus of the PIN source."""
    if partition.n_cells < 2:
        raise SizeLimitError("quotient needs a partition with at least 2 cells")
    return Fraction(partition_crossing(graph, partition), partition.n_cells - 1)


def pin_capacity(graph: PinGraph) -> CapacityReport:
    """Exact secret-key capacity of a PIN source (equals the strength of
    the multigraph): minimize the crossing quotient over all partitions.

    Works purely on crossing counts, never on entropies, so it serves as
    an independent route against ``sk_capacity`` over a ``PinOracle``.
    """
    best: Fraction | None = None
    ties: list[Partition] = []
    examined = 0
    for p in enumerate_partitions(graph.m, min_cells=2):
        examined += 1
        value = strength_quotient(graph, p)
        if best is None or value < best:
            best = value
            ties = [p]
        elif value == best:
            ties.append(p)
    if best is None:
        raise SizeLimitError("capacity needs at least 2 terminals")
    return CapacityReport(best, tuple(ties), examined, True)
