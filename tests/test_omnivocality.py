import hashlib
from fractions import Fraction

import pytest

from skomni import subsets
from skomni.capacity import MinimizerStatus, restricted_capacity, sk_capacity
from skomni.errors import InternalInconsistencyError, SizeLimitError
from skomni.generators import random_source
from skomni.omnivocality import (
    Classification,
    Construction,
    OmniStatus,
    OmnivocalityVerdict,
    _classify,
    atoms_digest,
    hunt_record,
    probe_conjecture,
    run_routes,
    verdict_by_condition,
    verdict_by_lp,
    verdict_for_three_terminals,
)
from skomni.partitions import Partition
from skomni.pin import PinGraph, PinOracle, complete_graph, pin_capacity
from skomni.silent_rate import build_rate_region, min_sum_rate, silent_capacity
from skomni.sources import JointSource, TabularOracle

from conftest import (
    CountingOracle,
    OracleModel,
    binary_entropy,
    count_fills,
    make_broadcast_pair,
    make_cycle_plus_graph,
    make_iid_bits,
    make_path3_graph,
    make_two_speaker_bsc,
    make_xor4_source,
    make_xor_source,
    mutual_information,
)


def test_condition_xor(xor_oracle):
    v = verdict_by_condition(xor_oracle)
    assert v.status is OmniStatus.NECESSARY
    assert v.minimizer.status is MinimizerStatus.UNIQUE


def test_condition_identical_is_only_sufficient(identical_oracle):
    v = verdict_by_condition(identical_oracle)
    assert v.status is OmniStatus.UNKNOWN


def test_condition_complete_graphs():
    for m in range(3, 9):
        v = verdict_by_condition(PinOracle(complete_graph(m)))
        assert v.status is OmniStatus.NECESSARY


def test_condition_rejects_two_terminals():
    oracle = TabularOracle(random_source(2, (2, 2), seed=0))
    with pytest.raises(SizeLimitError, match="never necessary for m = 2"):
        verdict_by_condition(oracle)


def test_three_terminal_xor(xor_oracle):
    v = verdict_for_three_terminals(xor_oracle)
    assert v.status is OmniStatus.NECESSARY
    assert v.silent_witness is None


def test_three_terminal_identical(identical_oracle):
    v = verdict_for_three_terminals(identical_oracle)
    assert v.status is OmniStatus.NOT_NECESSARY
    assert v.w_set == 0b111
    assert v.silent_witness.construction is Construction.SINGLE_SPEAKER
    assert v.silent_witness.silent == 0b110


def test_three_terminal_iid(iid_oracle):
    v = verdict_for_three_terminals(iid_oracle)
    assert v.status is OmniStatus.NOT_NECESSARY
    assert v.w_set == 0b111
    assert v.silent_witness.construction is Construction.SINGLE_SPEAKER


def test_three_terminal_common_randomness(common_randomness_oracle):
    v = verdict_for_three_terminals(common_randomness_oracle)
    assert v.status is OmniStatus.NOT_NECESSARY
    assert v.w_set == 0b111


def test_three_terminal_two_speaker(two_speaker_oracle):
    v = verdict_for_three_terminals(two_speaker_oracle)
    assert v.status is OmniStatus.NOT_NECESSARY
    assert v.w_set == 0b100
    assert v.silent_witness.construction is Construction.SINGLE_SILENT
    assert v.silent_witness.silent == 0b100


def test_three_terminal_rejects_other_m(xor4_oracle):
    with pytest.raises(SizeLimitError):
        verdict_for_three_terminals(xor4_oracle)


def test_three_terminal_witness_achieves_capacity():
    sources = [
        make_xor_source(),
        make_iid_bits(3),
        make_two_speaker_bsc(),
    ]
    sources += [random_source(3, (2, 2, 2), seed=s) for s in range(30)]
    for source in sources:
        oracle = TabularOracle(source)
        v = verdict_for_three_terminals(oracle)
        if v.status is not OmniStatus.NOT_NECESSARY:
            continue
        speakers = subsets.full_mask(3) & ~v.silent_witness.silent
        achieved = silent_capacity(oracle, speakers).capacity
        assert achieved == pytest.approx(sk_capacity(oracle).value, abs=1e-6)


def test_forced_equalities_inside_w():
    # Whenever two terminals share the witness set, their cut surpluses are
    # forced onto the singleton surplus exactly; with all three in it, all
    # four quantities coincide.
    sources = [make_iid_bits(3)] + [
        random_source(3, (2, 2, 2), seed=s) for s in range(60)
    ]
    for source in sources:
        oracle = TabularOracle(source)
        v = verdict_for_three_terminals(oracle)
        if v.status is not OmniStatus.NOT_NECESSARY or v.w_set.bit_count() < 2:
            continue
        s_value = sk_capacity(oracle).value
        full = subsets.full_mask(3)
        for k in subsets.members(v.w_set):
            cut = mutual_information(oracle, full & ~(1 << (k - 1)), 1 << (k - 1))
            assert cut == pytest.approx(s_value, abs=1e-6)


def test_case_two_rate_inequality():
    # A single silent terminal k achieves capacity exactly when the two
    # speakers' one-sided conditional entropies fit under the pair bound.
    sources = [make_two_speaker_bsc()] + [
        random_source(3, (2, 2, 2), seed=s) for s in range(60)
    ]
    hits = 0
    for source in sources:
        oracle = TabularOracle(source)
        v = verdict_for_three_terminals(oracle)
        if (
            v.status is not OmniStatus.NOT_NECESSARY
            or v.silent_witness.construction is not Construction.SINGLE_SILENT
        ):
            continue
        hits += 1
        k = v.silent_witness.silent
        a, b = [1 << (t - 1) for t in subsets.members(subsets.full_mask(3) & ~k)]
        lhs = (
            oracle.entropy(a | b)
            - oracle.entropy(b)
            + oracle.entropy(a | b)
            - oracle.entropy(a)
        )
        rhs = oracle.entropy(subsets.full_mask(3)) - oracle.entropy(k)
        assert lhs <= rhs + 1e-8
    assert hits >= 1


def test_lp_xor(xor_oracle):
    v = verdict_by_lp(xor_oracle)
    assert v.status is OmniStatus.NECESSARY
    assert len(v.evidence) == 3
    for row in v.evidence:
        assert row.silent_capacity == pytest.approx(0.0, abs=1e-9)
        assert row.capacity == pytest.approx(0.5)
        assert row.gap == pytest.approx(0.5)


def test_lp_identical(identical_oracle):
    v = verdict_by_lp(identical_oracle)
    assert v.status is OmniStatus.NOT_NECESSARY
    assert v.silent_witness.construction is Construction.LP_EQUALITY
    assert v.silent_witness.silent == 0b001


def test_lp_k3():
    v = verdict_by_lp(PinOracle(complete_graph(3)))
    assert v.status is OmniStatus.NECESSARY
    for row in v.evidence:
        assert row.capacity == Fraction(3, 2)
        assert row.silent_capacity == Fraction(1)
        assert row.gap == Fraction(1, 2)


def test_lp_necessary_where_the_singleton_partition_is_beaten():
    # An exact source where every terminal must talk although the
    # singleton partition is not the unique minimizer: C = 5/2 is reached
    # at 1,4|2|3, yet each leave-one-out capacity falls short of it.
    oracle = PinOracle(PinGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 3), (2, 3, 2), (3, 4, 1))))
    report = sk_capacity(oracle)
    assert report.value == Fraction(5, 2)
    assert report.argmin == Partition.from_cells([0b1001, 0b0010, 0b0100], 4)
    condition = verdict_by_condition(oracle)
    assert condition.status is OmniStatus.UNKNOWN
    assert condition.minimizer.status is MinimizerStatus.NOT_MINIMIZER
    lp = verdict_by_lp(oracle)
    assert lp.status is OmniStatus.NECESSARY
    assert [row.silent_capacity for row in lp.evidence] == [1, 2, 1, 2]
    for row in lp.evidence:
        assert isinstance(row.silent_capacity, Fraction)
        by_lp = min_sum_rate(build_rate_region(oracle, row.speakers)).min_sum
        assert row.silent_capacity == oracle.entropy(row.speakers) - by_lp


def test_lp_necessary_on_the_weight_5_counterexample():
    # The lightest m = 4 candidate: the 4-cycle 1-3-2-4-1 with (2, 4)
    # doubled, C = 3/2 at 1|2,4|3.  The singletons (surplus 5/3) lose, yet
    # each leave-one-out capacity is 1.
    graph = PinGraph(4, ((1, 3, 1), (2, 3, 1), (2, 4, 2), (1, 4, 1)))
    report = pin_capacity(graph)
    assert report.value == sk_capacity(PinOracle(graph)).value == Fraction(3, 2)
    assert report.argmin == Partition.from_cells([0b0001, 0b1010, 0b0100], 4)
    _, (condition, lp) = run_routes(graph)
    assert (condition.status, lp.status) == (OmniStatus.UNKNOWN, OmniStatus.NECESSARY)
    probe = probe_conjecture(graph)
    assert probe.condition is MinimizerStatus.NOT_MINIMIZER
    assert probe.classification is Classification.CANDIDATE
    assert not probe.reverified
    assert probe.capacity == Fraction(3, 2)


@pytest.mark.parametrize("m", range(3, 9))
def test_cycle_plus_closed_form(m):
    # Merging 1 and m leaves m - 1 cells crossed by m - 1 unit edges, so
    # C = (m - 1)/(m - 2), below the singleton surplus (m + 1)/(m - 1) for
    # m >= 4; each G - u is a path, of strength 1 < C.  At m = 3 the two
    # tie at 2, and a terminal may stay silent.
    graph = make_cycle_plus_graph(m)
    report = pin_capacity(graph)
    by_entropy = sk_capacity(PinOracle(graph))
    assert report.value == by_entropy.value == Fraction(m - 1, m - 2)
    assert report.argmin == by_entropy.argmin
    status, verdicts = run_routes(graph)
    condition, lp = verdicts[:2]
    if m == 3:
        assert report.argmin == Partition.from_cells([1, 2, 4], 3)
        assert condition.minimizer.status is MinimizerStatus.NON_UNIQUE
        assert status is lp.status is OmniStatus.NOT_NECESSARY
    else:
        merged = [1 | 1 << (m - 1)] + [1 << t for t in range(1, m - 1)]
        assert report.argmin == Partition.from_cells(merged, m)
        assert condition.minimizer.status is MinimizerStatus.NOT_MINIMIZER
        assert status is lp.status is OmniStatus.NECESSARY
        assert probe_conjecture(graph).classification is Classification.CANDIDATE


def _family(name, m):
    """The complete graph, cycle, path, star (hub 1) or wheel (hub 1, rim
    2-...-m-2) on m terminals, with unit edges."""
    rim = [(t, (t - 1) % (m - 1) + 2) for t in range(2, m + 1)]
    pairs = {
        "complete": [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)],
        "cycle": [(t, t % m + 1) for t in range(1, m + 1)],
        "path": [(t, t + 1) for t in range(1, m)],
        "star": [(1, t) for t in range(2, m + 1)],
        "wheel": [(1, t) for t in range(2, m + 1)] + rim,
    }[name]
    return PinGraph(m, tuple((u, v, 1) for u, v in pairs))


@pytest.mark.parametrize("name, m", [
    (name, m) for name in ("complete", "cycle", "path", "star", "wheel")
    for m in range(4 if name == "wheel" else 3, 9)
])
def test_pin_family_closed_forms(name, m):
    # K_m: C = m/2; C_m: C = m/(m - 1); the wheel: C = 2.  Each has the
    # singletons as its unique minimizer, so every terminal must talk.
    # A tree (path or star) has C = 1, reached by every partition into
    # connected parts, so the singletons tie and a leaf may stay silent.
    graph = _family(name, m)
    report = pin_capacity(graph)
    by_entropy = sk_capacity(PinOracle(graph))
    expected = {"complete": Fraction(m, 2), "cycle": Fraction(m, m - 1), "wheel": Fraction(2)}
    assert report.value == by_entropy.value == expected.get(name, 1)
    assert report.argmin == by_entropy.argmin == Partition.from_cells([1 << t for t in range(m)], m)
    status, verdicts = run_routes(graph)
    condition, lp = verdicts[:2]
    if name in expected:
        assert condition.minimizer.status is MinimizerStatus.UNIQUE
        assert status is lp.status is OmniStatus.NECESSARY
    else:
        assert condition.minimizer.status is MinimizerStatus.NON_UNIQUE
        assert status is lp.status is OmniStatus.NOT_NECESSARY


@pytest.mark.parametrize("oracle", [
    PinOracle(complete_graph(16)),
    PinOracle(PinGraph(6, ((1, 2, 2), (2, 3, 1), (3, 4, 3), (4, 5, 1), (5, 6, 2), (1, 6, 1)))),
    TabularOracle(random_source(6, (2, 3, 2, 2, 1, 2), seed=4)),
])
def test_lp_reads_the_table_once(oracle, monkeypatch):
    # The capacity and every leave-one-out restricted capacity, I terms
    # included, read the oracle's one fill and make no point query.
    fills = count_fills(monkeypatch, oracle)
    counting = CountingOracle(oracle)
    v = verdict_by_lp(counting)
    m = oracle.m
    assert len(fills) == 1
    assert counting.queries == 0
    if m <= 8:  # each row is the restricted capacity read on its own
        c = sk_capacity(oracle).value
        for row in v.evidence:
            assert row.capacity == c
            assert row.silent_capacity == restricted_capacity(oracle, row.speakers)


@pytest.mark.parametrize("model, routes", [
    (make_xor_source(), ["condition", "lp", "three-terminal"]),
    (make_xor4_source(), ["condition", "lp"]),
    (complete_graph(16), ["condition", "lp"]),
])
def test_run_routes_picks_the_routes_from_the_model(model, routes):
    # Condition and lp always run; the exact three-terminal route joins
    # them at m = 3 only.
    assert [v.method for v in run_routes(model)[1]] == routes


def test_condition_and_lp_share_one_fill(monkeypatch):
    # Every route reads the graph's one table and makes no point query:
    # condition and lp on K_16, all three routes on K_3 and on the path
    # 1-2-3, where the check finds a tie, so the three-terminal route reads
    # its W set.
    cases = [
        (complete_graph(16), OmniStatus.NECESSARY),
        (complete_graph(3), OmniStatus.NECESSARY),
        (make_path3_graph(), OmniStatus.NOT_NECESSARY),
    ]
    for graph, expected in cases:
        oracle = PinOracle(graph)
        fills = count_fills(monkeypatch, oracle)
        counting = CountingOracle(oracle)
        status, verdicts = run_routes(OracleModel(counting))
        assert status is expected
        assert verdicts[-1].status is expected
        assert len(fills) == 1
        assert counting.queries == 0


def test_lp_two_speaker_equality_is_on_the_right_rows(two_speaker_oracle):
    # Two different terminals can stay silent here.  Silencing 3 keeps
    # C because C = I_3 already; silencing 2 also keeps it because the
    # speakers' region is pinned by the two singleton bounds h(0.45), so
    # C restricted to {1,3} is again 1 - h(0.45).  Only terminal 1, the
    # common bit itself, is indispensable.
    v = verdict_by_lp(two_speaker_oracle)
    gaps = {subsets.full_mask(3) & ~row.speakers: row.gap for row in v.evidence}
    assert abs(gaps[0b100]) <= 1e-9
    assert abs(gaps[0b010]) <= 1e-9
    assert gaps[0b001] > 1e-6
    assert v.status in (OmniStatus.NOT_NECESSARY, OmniStatus.AMBIGUOUS)
    if v.status is OmniStatus.NOT_NECESSARY:
        assert v.silent_witness.silent in (0b010, 0b100)


def test_broadcast_pair_sits_on_the_band():
    # Real-valued ties that floats render as one-ulp differences must come
    # back NumericallyAmbiguous from every route, never a guessed verdict.
    oracle = TabularOracle(make_broadcast_pair(0.1))
    assert verdict_by_condition(oracle).status is OmniStatus.AMBIGUOUS
    assert verdict_for_three_terminals(oracle).status is OmniStatus.AMBIGUOUS
    assert verdict_by_lp(oracle).status is OmniStatus.AMBIGUOUS
    # Ground truth, asserted directly: both receiver silencings achieve
    # capacity, the sender silencing strictly does not.
    c = sk_capacity(oracle).value
    assert c == pytest.approx(1 - binary_entropy(0.1), abs=1e-12)
    assert silent_capacity(oracle, 0b110).capacity == pytest.approx(c, abs=1e-9)
    assert silent_capacity(oracle, 0b011).capacity == pytest.approx(
        1 - binary_entropy(0.18), abs=1e-9
    )


def test_three_and_lp_agree_when_conclusive():
    conclusive = {OmniStatus.NECESSARY, OmniStatus.NOT_NECESSARY}
    for seed in range(60):
        oracle = TabularOracle(random_source(3, (2, 2, 2), seed=seed))
        a = verdict_for_three_terminals(oracle)
        b = verdict_by_lp(oracle)
        if a.status in conclusive and b.status in conclusive:
            assert a.status == b.status


def test_lp_never_beats_condition():
    # Hard direction: a unique singleton minimizer forces the LP route to
    # agree on Necessary whenever it is conclusive.
    for seed in range(60):
        m = 3 + seed % 2
        oracle = TabularOracle(random_source(m, (2,) * m, seed=seed))
        cond = verdict_by_condition(oracle)
        lp = verdict_by_lp(oracle)
        if (
            cond.status is OmniStatus.NECESSARY
            and lp.status is not OmniStatus.AMBIGUOUS
        ):
            assert lp.status is OmniStatus.NECESSARY


def test_classify_matrix():
    assert (
        _classify(MinimizerStatus.UNIQUE, OmniStatus.NECESSARY)
        is Classification.CONSISTENT_PROVEN
    )
    assert (
        _classify(MinimizerStatus.NON_UNIQUE, OmniStatus.NOT_NECESSARY)
        is Classification.CONSISTENT_CONVERSE
    )
    assert (
        _classify(MinimizerStatus.NOT_MINIMIZER, OmniStatus.NECESSARY)
        is Classification.CANDIDATE
    )
    assert (
        _classify(MinimizerStatus.AMBIGUOUS, OmniStatus.NECESSARY)
        is Classification.INCONCLUSIVE
    )


def test_probe_raises_when_routes_disagree(monkeypatch):
    # A unique singleton minimizer (condition: Necessary) with a silent
    # terminal achieving capacity is a contradiction, not a classification.
    def fake_lp(oracle, band):
        return OmnivocalityVerdict(OmniStatus.NOT_NECESSARY, "lp", None, (), None)

    monkeypatch.setattr("skomni.omnivocality.verdict_by_lp", fake_lp)
    with pytest.raises(InternalInconsistencyError, match="methods disagree"):
        probe_conjecture(make_xor4_source())


def test_probe_k4_consistent_proven(k4_oracle):
    probe = probe_conjecture(OracleModel(k4_oracle))
    assert probe.classification is Classification.CONSISTENT_PROVEN
    assert probe.condition is MinimizerStatus.UNIQUE
    assert probe.lp is OmniStatus.NECESSARY
    assert not probe.reverified


def test_probe_iid_consistent_converse():
    probe = probe_conjecture(make_iid_bits(4))
    assert probe.classification is Classification.CONSISTENT_CONVERSE


def test_probe_xor4():
    probe = probe_conjecture(make_xor4_source())
    assert probe.classification is Classification.CONSISTENT_PROVEN
    assert probe.capacity == pytest.approx(1.0 / 3.0)
    assert len(probe.gaps) == 4
    for gap in probe.gaps:
        assert gap == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_probe_rejects_small_m(xor_oracle):
    with pytest.raises(SizeLimitError):
        probe_conjecture(xor_oracle)


def test_probe_candidate_survives_reverification():
    # Seed chosen because its margins (minimum gap about 1.4e-3, minimizer
    # deficit well above the band) are orders of magnitude beyond float
    # noise, so the classification is stable across platforms.
    source = random_source(4, (2, 2, 2, 2), seed=12)
    probe = probe_conjecture(source)
    assert probe.classification is Classification.CANDIDATE
    assert probe.reverified
    assert probe.condition is MinimizerStatus.NOT_MINIMIZER
    assert probe.lp is OmniStatus.NECESSARY
    assert min(abs(float(g)) for g in probe.gaps) > 1e-4


def test_seed0_recheck_keeps_the_bits_of_its_60_digit_values():
    # The hunt log stores the re-checked capacity and gaps as floats, so a
    # 60-digit value off by a few ulps leaves every log byte the same; this
    # digest covers their mpf bits.  Seeds 0-499 are the m = 4 seed-0 hunt.
    digest = hashlib.sha256()
    rechecked = 0
    for seed in range(500):
        probe = probe_conjecture(random_source(4, (2,) * 4, seed))
        if probe.reverified:
            rechecked += 1
            bits = (probe.capacity._mpf_, [g._mpf_ for g in probe.gaps])
            digest.update(repr((seed, probe.classification.value, bits)).encode())
    assert rechecked == 92
    assert digest.hexdigest()[:16] == "00d771769b7bf29a"


def test_atoms_digest_stability():
    a = make_xor_source()
    b = make_xor_source()
    assert atoms_digest(a) == atoms_digest(b)
    assert len(atoms_digest(a)) == 16
    assert atoms_digest(a) != atoms_digest(make_iid_bits(3))


def test_hunt_record_is_pure_and_embeds_candidates():
    rec1 = hunt_record(4, (2, 2, 2, 2), base_seed=7, trial=5)
    rec2 = hunt_record(4, (2, 2, 2, 2), base_seed=7, trial=5)
    assert rec1 == rec2
    assert rec1["seed"] == 12
    assert rec1["classification"] == "CandidateCounterexample"
    assert "source" in rec1
    assert len(rec1["gaps"]) == 4
    proven = hunt_record(4, (2, 2, 2, 2), base_seed=7, trial=0)
    assert proven["classification"] == "ConsistentProven"
    assert "source" not in proven


def test_a_band_below_the_rounding_reads_a_tie_as_an_inconsistency():
    # The README's exit-4 example: float entropies round a real tie a few
    # ulps apart, so at tie_tol = 1e-16 the restricted capacity with
    # terminal 3 silent lands one ulp above C, and run_routes refuses to
    # report rather than guess.  The default band reads it as a tie.
    source = JointSource(
        3, (2, 2, 2), {(0, 0, 0): 1 / 11, (1, 1, 1): 4 / 11, (1, 1, 0): 2 / 11, (1, 0, 0): 4 / 11}
    )
    assert run_routes(source)[0] is OmniStatus.NOT_NECESSARY
    message = "restricted capacity exceeds capacity by 2.220446049250313e-16 with terminal 3 silent"
    with pytest.raises(InternalInconsistencyError) as exc_info:
        run_routes(source, tie_tol=1e-16)
    assert str(exc_info.value) == message
