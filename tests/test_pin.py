import json
import random
from fractions import Fraction

import pytest

from skomni import subsets
from skomni.capacity import (
    MinimizerStatus,
    singleton_minimizer_check,
    sk_capacity,
)
from skomni.errors import InputError, SizeLimitError
from skomni.partitions import (
    Partition,
    enumerate_partitions,
    isolating_partition,
    singleton_partition,
)
from skomni.pin import (
    PinGraph,
    PinOracle,
    complete_graph,
    load_pin_graph,
    pin_capacity,
)

from conftest import (
    crossing_count,
    incident_weight,
    make_path3_graph,
    partition_surplus,
    strength_quotient,
)


def random_graph(m, seed):
    rng = random.Random(seed)
    edges = []
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            if rng.random() < 0.6:
                edges.append((u, v, rng.randint(1, 3)))
    if not edges:
        edges.append((1, 2, 1))
    return PinGraph(m, tuple(edges))


def test_edge_normalization_and_sorting():
    g = PinGraph(3, ((3, 1, 2), (2, 1, 1)))
    assert g.edges == ((1, 2, 1), (1, 3, 2))


@pytest.mark.parametrize(
    "edges, message",
    [
        (((1, 1, 1),), "self-loop"),
        (((1, 2, 1), (2, 1, 1)), "listed twice"),
        (((1, 2, 0),), "multiplicity"),
        (((1, 4, 1),), "outside terminals"),
        (((True, 2, 1),), "non-integer"),
        (((1, True, 1),), "non-integer"),
        (((1, 2, True),), "non-integer"),
        (((1, 2),), r"\(1, 2\) is not a \(u, v, mult\) triple"),
    ],
)
def test_graph_rejects_bad_edges(edges, message):
    with pytest.raises(InputError, match=message):
        PinGraph(3, edges)


def test_complete_graph_edge_count():
    for m in (3, 4, 8):
        g = complete_graph(m)
        assert len(g.edges) == m * (m - 1) // 2
        assert all(w == 1 for _, _, w in g.edges)


def test_json_round_trip_and_default_multiplicity(tmp_path):
    g = PinGraph(3, ((1, 2, 2), (2, 3, 1)))
    again = PinGraph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert again == g
    bare = PinGraph.from_json_dict(
        {"m": 2, "edges": [{"u": 1, "v": 2}]}
    )
    assert bare.edges == ((1, 2, 1),)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json_dict()))
    assert load_pin_graph(path) == g


def test_incident_weight_k3():
    k3 = complete_graph(3)
    assert incident_weight(k3, 0b001) == 2
    assert incident_weight(k3, 0b011) == 3
    assert incident_weight(k3, 0b111) == 3
    assert incident_weight(k3, 0) == 0


def test_incident_weight_path():
    path = make_path3_graph()
    assert incident_weight(path, 0b001) == 1
    assert incident_weight(path, 0b010) == 2
    assert incident_weight(path, 0b101) == 2


def test_pin_oracle_is_exact_integer_valued():
    oracle = PinOracle(complete_graph(4))
    assert oracle.exact
    assert oracle.entropy(0) == 0
    assert oracle.entropy(0b0011) == 5
    assert isinstance(oracle.entropy(0b1111), int)


def test_crossing_and_strength_k3():
    k3 = complete_graph(3)
    s = singleton_partition(3)
    assert crossing_count(k3, s) == 3
    assert strength_quotient(k3, s) == Fraction(3, 2)
    split = Partition.from_cells([0b011, 0b100], 3)
    assert crossing_count(k3, split) == 2
    assert strength_quotient(k3, split) == Fraction(2)


def test_strength_k4_isolating_values():
    k4 = complete_graph(4)
    assert strength_quotient(k4, isolating_partition(4, 0b0001)) == Fraction(3)
    assert strength_quotient(k4, isolating_partition(4, 0b0011)) == Fraction(5, 2)


def test_strength_path_both_edges_cross():
    path = make_path3_graph()
    p = Partition.from_cells([0b101, 0b010], 3)
    assert strength_quotient(path, p) == Fraction(2)


def test_closed_form_isolating_surplus_on_complete_graphs():
    # For K_m and any block of size b <= m-1, the isolating partition has
    # crossing count C(m,2) - C(m-b,2) over b cells beyond the complement,
    # which simplifies to (2m - b - 1)/2; equality with m/2 holds only at
    # b = m-1.
    for m in range(3, 9):
        km = complete_graph(m)
        for block in range(1, (1 << m) - 1):
            b = block.bit_count()
            if b > m - 1:
                continue
            q = strength_quotient(km, isolating_partition(m, block))
            assert q == Fraction(2 * m - b - 1, 2)
            if b < m - 1:
                assert q > Fraction(m, 2)


def test_pin_capacity_complete_graphs():
    for m in range(3, 9):
        report = pin_capacity(complete_graph(m))
        assert report.value == Fraction(m, 2)
        assert report.argmin == singleton_partition(m)
        assert report.exact


def test_pin_capacity_single_edge():
    report = pin_capacity(PinGraph(2, ((1, 2, 1),)))
    assert report.value == Fraction(1)
    assert report.partitions_examined == 1


def test_pin_capacity_path_tie():
    # 1,2|3, 1|2,3 and 1|2|3 all reach C = 1; the argmin is the finest.
    report = pin_capacity(make_path3_graph())
    assert report.value == Fraction(1)
    assert report.argmin == singleton_partition(3)


def test_pin_capacity_size_limit():
    # Polynomial in m, so the capacity answers past the entropy-table cap;
    # the only limit left is the one every model has.
    m = subsets.MAX_TABLE_M + 1
    assert m <= subsets.MAX_TERMINALS
    assert pin_capacity(complete_graph(m)).value == Fraction(m, 2)
    with pytest.raises(SizeLimitError, match="m=25"):
        complete_graph(subsets.MAX_TERMINALS + 1)


def _drawn_graphs():
    # Sparse graphs are often disconnected (capacity 0) and dense ones have
    # many ties, so both sides of the Newton steps get exercised.
    out = []
    for m in range(2, 9):
        for k, density in enumerate((0.25, 0.5, 0.9)):
            rng = random.Random(100 * m + k)
            edges = [
                (u, v, rng.randint(1, 4))
                for u in range(1, m + 1)
                for v in range(u + 1, m + 1)
                if rng.random() < density
            ]
            out.append(pytest.param(PinGraph(m, tuple(edges)), id=f"m{m}-d{density}"))
    return out


@pytest.mark.parametrize("graph", _drawn_graphs())
def test_pin_capacity_matches_brute_force(graph):
    report = pin_capacity(graph)
    quotients = {p: strength_quotient(graph, p) for p in enumerate_partitions(graph.m)}
    value = min(quotients.values())
    assert report.value == value
    cells = [subsets.full_mask(graph.m)]
    for p, q in quotients.items():
        if q == value:
            cells = [a & b for a in cells for b in p.cells if a & b]
    assert report.argmin == Partition.from_cells(cells, graph.m)
    assert 1 <= report.partitions_examined <= graph.m


@pytest.mark.parametrize("graph", _drawn_graphs())
def test_pin_capacity_matches_the_entropy_route(graph):
    report = pin_capacity(graph)
    by_entropy = sk_capacity(PinOracle(graph))
    assert report.value == by_entropy.value
    assert report.argmin == by_entropy.argmin
    assert report.partitions_examined == by_entropy.partitions_examined


@pytest.mark.parametrize("graph, components", [
    (PinGraph(4, ()), "1|2|3|4"),
    (PinGraph(5, ((1, 2, 2), (2, 3, 1), (4, 5, 3))), "1,2,3|4,5"),
], ids=["edgeless", "disconnected"])
def test_pin_capacity_is_zero_without_connectivity(graph, components):
    report = pin_capacity(graph)
    assert report.value == 0
    assert str(report.argmin) == components


def test_pin_capacity_complete_graphs_past_the_enumeration_cap():
    for m in range(13, subsets.MAX_TERMINALS + 1):
        report = pin_capacity(complete_graph(m))
        assert report.value == Fraction(m, 2)
        assert report.argmin == singleton_partition(m)
        assert report.partitions_examined == 1


def test_oracle_table_equals_incident_weights():
    for g in [complete_graph(5), make_path3_graph(), PinGraph(4, ())] + [
        random_graph(m, seed) for m, seed in ((2, 1), (6, 7), (8, 3))
    ]:
        oracle = PinOracle(g)
        assert [oracle.entropy(s) for s in range(1 << g.m)] == [
            incident_weight(g, s) for s in range(1 << g.m)
        ]


def test_multiplicity_scales_everything():
    base = pin_capacity(complete_graph(3))
    doubled = pin_capacity(PinGraph(3, ((1, 2, 2), (1, 3, 2), (2, 3, 2))))
    assert doubled.value == 2 * base.value


def test_oracle_route_equals_crossing_route():
    graphs = [complete_graph(m) for m in (3, 4, 5, 6)] + [
        make_path3_graph(),
        random_graph(5, seed=11),
    ]
    for g in graphs:
        oracle = PinOracle(g)
        for p in enumerate_partitions(g.m, min_cells=2):
            assert partition_surplus(oracle, p) == strength_quotient(g, p)


def test_singleton_uniqueness_on_complete_graphs():
    for m in range(3, 9):
        v = singleton_minimizer_check(PinOracle(complete_graph(m)))
        assert v.status is MinimizerStatus.UNIQUE
        assert v.comparisons == (1 << m) - m - 2


def test_edge_count_identity_random_graphs():
    # Subset entropies are incident-edge weights, so the unnormalized
    # surplus of any partition telescopes to its crossing count.
    for seed in range(50):
        m = 3 + seed % 3
        g = random_graph(m, seed)
        oracle = PinOracle(g)
        full_h = oracle.entropy(subsets.full_mask(m))
        for p in enumerate_partitions(m, min_cells=2):
            unnormalized = sum(oracle.entropy(cell) for cell in p.cells) - full_h
            assert unnormalized == crossing_count(g, p)


def test_graph_json_rejects_bool_multiplicity():
    with pytest.raises(InputError, match="non-integer"):
        PinGraph.from_json_dict({"m": 3, "edges": [{"u": 1, "v": 2, "mult": True}]})


@pytest.mark.parametrize("bad", [-1, 1 << 4, 1.0, "3", None, True])
def test_oracle_rejects_non_subsets(bad):
    oracle = PinOracle(complete_graph(4))
    oracle.entropy(0b1111)
    with pytest.raises(InputError):
        oracle.entropy(bad)
