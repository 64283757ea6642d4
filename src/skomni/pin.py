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
that quotient in the Newton loop of ``sk_capacity``, with its one start
and tie rule, but each step is at most m integer minimum cuts, after
Cunningham ("Optimal attack and reinforcement of a network", J. ACM,
1985), and no entropy is read.  The loop starts at the singletons or at
the one-terminal cut {u} | rest of least degree, whichever quotient is
lower; a tie keeps the singletons.  A terminal whose edge weight toward
the terminals before it is at most the step's lambda needs no cut: it
starts a cell of its own (the degree bound of ``_greedy_cells``).  Every
cut that is left saturates its two-hop paths, source to i to sink, before
it searches for augmenting paths.  ``PinOracle`` exposes the same model
through the generic entropy interface, so every entropy-based analysis
can be cross-checked against the graph route.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import subsets
from .capacity import CapacityReport, _dinkelbach, _start
from .errors import InputError
from .partitions import Partition, canonical_order, merge_cells
from .sources import TableOracle, check_keys, read_json


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
            if type(u) is not int or type(v) is not int or type(mult) is not int:
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
        check_keys(data, "graph JSON", ("m", "edges"))
        if not isinstance(data["edges"], list):
            raise InputError("graph JSON field 'edges' must be a list")
        edges = []
        for entry in data["edges"]:
            check_keys(entry, "edge entry {!r}", ("u", "v"), ("mult",))  # mult defaults to 1
            edges.append((entry["u"], entry["v"], entry.get("mult", 1)))
        return cls(data["m"], tuple(edges))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "edges": [{"u": u, "v": v, "mult": w} for u, v, w in self.edges],
        }

    def oracle(self, dps: int = 0) -> PinOracle:
        """The exact oracle, whatever ``dps``: exact entropies need no digits."""
        return PinOracle(self)

    def capacity(self, tie_tol: float) -> CapacityReport:
        """``pin_capacity``: exact, so ``tie_tol`` decides nothing."""
        return pin_capacity(self)


def load_pin_graph(path: str | Path) -> PinGraph:
    return PinGraph.from_json_dict(read_json(path))


def complete_graph(m: int) -> PinGraph:
    edges = tuple(
        (u, v, 1) for u in range(1, m + 1) for v in range(u + 1, m + 1)
    )
    return PinGraph(m, edges)


def _adjacency(graph: PinGraph) -> list[list[int]]:
    """Edge multiplicities as a symmetric m x m matrix over 0-indexed terminals."""
    adj = [[0] * graph.m for _ in range(graph.m)]
    for u, v, mult in graph.edges:
        adj[u - 1][v - 1] = adj[v - 1][u - 1] = mult
    return adj


class PinOracle(TableOracle):
    """Exact integer subset-entropy oracle for a PIN source, table-backed."""

    exact = True
    entropy = TableOracle.entropy

    def __init__(self, graph: PinGraph):
        super().__init__(graph.m)
        self.graph = graph

    def _fill(self) -> list[int]:
        # Terminal t joins each subset s of the terminals below it with the
        # edges at t that s does not meet: deg(t) - w(t, s) more bits.
        table = [0]
        for t, row in enumerate(_adjacency(self.graph)):
            toward = [0]  # toward[s] = w(t, s)
            for mult in row[:t]:
                toward += [w + mult for w in toward]
            degree = sum(row)
            table += [h + degree - w for h, w in zip(table, toward)]
        return table


def _crossing(graph: PinGraph, cells: Iterable[int]) -> int:
    """Multiplicity-weighted number of edges whose endpoints lie in
    different cells."""
    cell_of = [0] * graph.m  # the cell holding each terminal
    for cell in cells:
        for t in subsets.members(cell):
            cell_of[t - 1] = cell
    return sum(mult for u, v, mult in graph.edges if not cell_of[u - 1] >> (v - 1) & 1)


def _max_flow(cap: list[list[int]], source: int, sink: int) -> tuple[int, list[int]]:
    """Maximum source-sink flow by shortest augmenting paths on the capacity
    matrix ``cap``, which is left as the residual graph.

    Every two-hop path source -> i -> sink is saturated first, in one
    pass; the augmenting paths then finish the flow.  Any maximum flow
    leaves the same nodes reachable, so what comes back does not depend
    on that head start: the flow value and the nodes still reachable from
    the source, the source side of the minimum cut with the fewest nodes.
    """
    n = len(cap)
    flow = 0
    for i in range(n):
        if i == source or i == sink:
            continue
        push = min(cap[source][i], cap[i][sink])
        if push > 0:
            cap[source][i] -= push
            cap[i][source] += push
            cap[i][sink] -= push
            cap[sink][i] += push
            flow += push
    while True:
        parent = [-1] * n
        parent[source] = source
        reached = [source]
        for u in reached:
            row = cap[u]
            for v in range(n):
                if row[v] > 0 and parent[v] < 0:
                    parent[v] = u
                    reached.append(v)
            if parent[sink] >= 0:
                break
        else:
            return flow, reached
        push = None
        v = sink
        while v != source:
            u = parent[v]
            if push is None or cap[u][v] < push:
                push = cap[u][v]
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= push
            cap[v][u] += push
            v = u
        flow += push


def _greedy_cells(adj: list[list[int]], p: int, q: int) -> list[int]:
    """Cells of the greedy Dilworth-truncation partition of
    f(A) = q w(delta(A)) - 2p, for lambda = p/q.

    w(delta(A)) is the weight of the edges with one end in A, and
    sum over cells of f is 2q (crossing(P) - lambda |P|).  Terminal j
    takes x_j = min over B with j in B inside {1..j} of f(B) - x(B - j),
    one minimum cut: j is the source, the sink stands for the terminals
    above j, each i < j has a sink arc of q w(i, above j) - x_i (a source
    arc of its absolute value, plus a constant, when that is negative) and
    each edge inside {1..j} is an arc of q w both ways.  j then merges
    with every cell that meets the minimal B, the source side of that cut,
    so the cells form the finest minimizing partition.  They come back in
    canonical order, by smallest member.

    Degree bound: when q w(j, terminals before j) <= p, B = {j} is the
    least minimizer and j takes no cut, just x_j = f({j}).  For a nonempty
    B' before j, the pass has kept x(B') <= f(B'), and
    f(B' + j) = f(B') + f({j}) + 2p - 2q w(B', j), so
    f(B' + j) - x(B') >= f({j}) whenever q w(B', j) <= p, ties included.
    """
    m = len(adj)
    qadj = [[q * w for w in row] for row in adj]
    above = [sum(row) for row in qadj]  # q w(i, terminals above j)
    x: list[int] = []
    cells: list[int] = []
    for j in range(m):
        for i, w in enumerate(qadj[j]):
            above[i] -= w
        below = sum(qadj[j][:j])
        if below <= p:  # {j} is the least minimizer: x_j = f({j})
            x.append(above[j] + below - 2 * p)
            cells = merge_cells(cells, 1 << j)
            continue
        sink = j + 1
        cap = [row[: j + 1] + [0] for row in qadj[: j + 1]]
        cap.append([0] * (j + 2))
        constant = above[j] - 2 * p
        for i in range(j):
            arc = above[i] - x[i]
            if arc >= 0:
                cap[i][sink] = arc
            else:
                cap[j][i] -= arc
                constant += arc
        flow, reached = _max_flow(cap, j, sink)
        x.append(constant + flow)
        cells = merge_cells(cells, sum(1 << i for i in reached))
    return canonical_order(cells)


def pin_capacity(graph: PinGraph) -> CapacityReport:
    """Exact secret-key capacity of a PIN source: the strength of the
    multigraph, the least crossing(P) / (|P| - 1).

    ``capacity``'s Newton loop runs from the lower of the singleton
    quotient W / (m - 1) and the least degree, the quotient of the
    one-terminal cut {u} | rest (``capacity._start``), with this module's
    greedy pass (``_greedy_cells``, at most m minimum cuts at lambda), and
    ends on the finest minimizer, ``argmin``, one ``Partition``.  All
    flows are in ints and no entropy is read, so this route is independent
    of ``sk_capacity`` over a ``PinOracle``.
    """
    adj = _adjacency(graph)
    surplus = lambda cells: Fraction(_crossing(graph, cells), len(cells) - 1)
    degrees = [sum(row) for row in adj]
    value, best, examined = _dinkelbach(
        _start(graph.m, surplus, degrees.__getitem__),
        lambda gamma: _greedy_cells(adj, gamma.numerator, gamma.denominator),
        surplus,
    )
    return CapacityReport(value, Partition.from_cells(best, graph.m), examined, True)
