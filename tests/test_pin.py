import json
import random
from fractions import Fraction

import pytest

from skomni import capacity, pin, subsets
from skomni.capacity import (
    MinimizerStatus,
    singleton_minimizer_check,
    sk_capacity,
)
from skomni.errors import InputError, SizeLimitError
from skomni.partitions import (
    Partition,
    canonical_order,
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
    make_cycle_plus_graph,
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


@pytest.mark.parametrize("graph", _drawn_graphs() + [
    pytest.param(complete_graph(m), id=f"K{m}") for m in range(2, 11)
] + [
    pytest.param(make_cycle_plus_graph(m), id=f"C{m}+") for m in range(3, 11)
])
def test_greedy_pass_matches_the_table_pass(graph):
    # At gamma = k/2, the strength and the singleton surplus many terminals
    # meet q w(j, terminals before j) == p, where the degree bound skips
    # the cut; both passes must still return the same cells.
    adj = pin._adjacency(graph)
    table = PinOracle(graph).table()
    total = sum(mult for _u, _v, mult in graph.edges)
    gammas = {Fraction(k, 2) for k in range(13)}
    gammas |= {pin_capacity(graph).value, Fraction(total, graph.m - 1)}
    for gamma in sorted(gammas):
        cells = pin._greedy_cells(adj, gamma.numerator, gamma.denominator)
        assert cells == capacity._greedy_cells(table, graph.m, gamma, 0)[0], gamma


def _brute_min_cut(cap, source, sink):
    """The least cut and the intersection of every source side that reaches it."""
    n = len(cap)
    others = [v for v in range(n) if v not in (source, sink)]
    best, common = None, None
    for mask in range(1 << len(others)):
        side = {source} | {v for k, v in enumerate(others) if mask >> k & 1}
        cut = sum(cap[u][v] for u in side for v in range(n) if v not in side)
        if best is None or cut < best:
            best, common = cut, side
        elif cut == best:
            common = common & side
    return best, common


def test_max_flow_matches_brute_force_cuts():
    # Sparse small capacities give many tied minimum cuts; the reached nodes
    # must be the smallest source side however the flow got there.
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 7)
        cap = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        source, sink = rng.sample(range(n), 2)
        value, side = _brute_min_cut(cap, source, sink)
        residual = [row[:] for row in cap]
        flow, reached = pin._max_flow(residual, source, sink)
        assert flow == value
        assert set(reached) == side
        for u in range(n):  # each pair of arcs keeps its total, none below 0
            for v in range(n):
                assert residual[u][v] >= 0
                assert residual[u][v] + residual[v][u] == cap[u][v] + cap[v][u]


@pytest.mark.parametrize("graph, cuts, examined", [
    (complete_graph(8), 3, 1),
    (make_cycle_plus_graph(8), 2, 2),
    (complete_graph(16), 7, 1),
], ids=["K8", "C8+", "K16"])
def test_degree_bound_skips_most_cuts(monkeypatch, graph, cuts, examined):
    # Without the degree bound each Newton step takes m cuts: 8, 16 and 16.
    calls = []
    real = pin._max_flow

    def counted(cap, source, sink):
        calls.append(source)
        return real(cap, source, sink)

    monkeypatch.setattr(pin, "_max_flow", counted)
    report = pin_capacity(graph)
    assert len(calls) == cuts
    assert report.partitions_examined == examined


def test_benchmark_pool_work_counts(monkeypatch):
    # The benchmark's pin_m8 pool: K_8 and random_graph(8, s) for s = 1..7.
    # Started at the singletons, these took 3, 8, 11, 9, 6, 4, 8, 4 = 53
    # minimum cuts and 17 Newton steps, and the leave-one-out searches 102
    # greedy passes.  Six of the eight start at a one-terminal cut.
    graphs = [complete_graph(8)] + [random_graph(8, s) for s in range(1, 8)]
    cuts = []
    real_cut = pin._max_flow
    monkeypatch.setattr(pin, "_max_flow", lambda *a: cuts.append(a[1]) or real_cut(*a))
    counts, examined = [], []
    for graph in graphs:
        cuts.clear()
        examined.append(pin_capacity(graph).partitions_examined)
        counts.append(len(cuts))
    assert counts == [3, 4, 5, 3, 6, 2, 3, 4]
    assert examined == [1, 1, 1, 1, 2, 2, 1, 1]
    passes = []
    real_pass = capacity._greedy_cells
    monkeypatch.setattr(capacity, "_greedy_cells", lambda *a: passes.append(a[2]) or real_pass(*a))
    for graph in graphs:
        capacity.leave_one_out_capacities(PinOracle(graph))
    assert len(passes) == 78


def _windmill(k):
    """F_k: k triangles 1-t-(t+1)-1 sharing the hub 1, t = 2, 4, ..., 2k."""
    edges = []
    for t in range(2, 2 * k + 1, 2):
        edges += [(1, t, 1), (1, t + 1, 1), (t, t + 1, 1)]
    return PinGraph(2 * k + 1, tuple(edges))


def _one_terminal_cut(m, u):
    full = subsets.full_mask(m)
    return canonical_order([1 << u, full ^ (1 << u)])


@pytest.mark.parametrize("graph", _drawn_graphs() + [
    pytest.param(complete_graph(m), id=f"K{m}") for m in range(2, 11)
] + [
    pytest.param(make_cycle_plus_graph(m), id=f"C{m}+") for m in range(3, 11)
] + [
    pytest.param(_windmill(k), id=f"F{k}") for k in (2, 3)
])
def test_exact_searches_end_alike_from_every_start(monkeypatch, graph):
    # From the singletons, from every one-terminal cut and from the default
    # start, the table search and pin_capacity end on the same value and
    # the same finest argmin; the default never examines more partitions
    # than the singletons.
    m = graph.m
    h = PinOracle(graph).table()
    value, cells, examined = capacity._newton_search(h, m, True)
    report = pin_capacity(graph)
    assert (report.value, report.argmin) == (value, Partition.from_cells(cells, m))
    assert report.partitions_examined == examined
    starts = [[1 << i for i in range(m)]] + [_one_terminal_cut(m, u) for u in range(m)]
    for start in starts:
        with monkeypatch.context() as patch:
            forced = lambda m, surplus, cut=None, warm=None: (surplus(start), start)
            patch.setattr(capacity, "_start", forced)
            patch.setattr(pin, "_start", forced)
            from_start = capacity._newton_search(h, m, True)
            by_graph = pin_capacity(graph)
        assert from_start[:2] == (value, cells), start
        assert (by_graph.value, by_graph.argmin) == (report.value, report.argmin), start
        if start is starts[0]:
            assert examined <= from_start[2] == by_graph.partitions_examined


@pytest.mark.parametrize("graph", [
    make_path3_graph(), PinGraph(3, ((1, 2, 1), (1, 3, 1)))
], ids=["path", "star"])
def test_a_tied_one_terminal_cut_keeps_the_singletons(graph):
    # deg(1) = 1 ties the singleton surplus 2 / 2.  Started at the cut, the
    # confirming pass would return the finer singletons: 2 examined.
    report = pin_capacity(graph)
    assert report.partitions_examined == 1
    assert capacity._newton_search(PinOracle(graph).table(), 3, True)[2] == 1


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
