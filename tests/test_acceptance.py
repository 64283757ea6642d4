"""Acceptance sweep: one test per item of the release checklist.

Each test exercises one end-to-end claim at its stated tolerance and
prints a single "criterion NN: PASS (...)" line with the measured
numbers, so a ``pytest -s`` run reads as a checklist.  Budgets are wall
clock and deliberately loose; they guard against accidental blowups in
the enumeration sizes, not against machine noise.
"""

import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from skomni import subsets
from skomni.capacity import (
    MinimizerStatus,
    singleton_minimizer_check,
    sk_capacity,
)
from skomni.cli import main
from skomni.generators import random_source
from skomni.omnivocality import (
    Construction,
    OmniStatus,
    verdict_by_condition,
    verdict_by_lp,
    verdict_for_three_terminals,
)
from skomni.partitions import isolating_partition, singleton_partition
from skomni.pin import PinOracle, complete_graph, pin_capacity
from skomni.silent_rate import build_rate_region, silent_capacity
from skomni.sources import TabularOracle

from conftest import (
    brute_minimizer_check,
    brute_rate_region,
    exchangeable_mixture,
    make_identical_bits,
    make_xor_source,
    partition_surplus,
    restricted_singleton_surplus,
    tabular_test_sources,
)

CONCLUSIVE = (OmniStatus.NECESSARY, OmniStatus.NOT_NECESSARY)


def _ok(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS ({detail})")


def test_criterion_01_complete_graph_pin():
    start = time.monotonic()
    for m in range(3, 9):
        oracle = PinOracle(complete_graph(m))
        report = pin_capacity(oracle.graph)
        assert report.exact
        assert report.value == Fraction(m, 2)
        assert report.argmin == singleton_partition(m)
        assert verdict_by_condition(oracle).status is OmniStatus.NECESSARY
        assert verdict_by_lp(oracle).status is OmniStatus.NECESSARY
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(1, f"K_3..K_8 capacity m/2 exact, both verdicts Necessary, {elapsed:.2f}s")


def test_criterion_02_brute_and_isolating_checks_agree():
    start = time.monotonic()
    conclusive = 0
    for m, seed0 in ((3, 2000), (4, 2100)):
        expected = 2**m - m - 2
        for i in range(100):
            oracle = TabularOracle(random_source(m, (2,) * m, seed=seed0 + i))
            fast = singleton_minimizer_check(oracle)
            slow = brute_minimizer_check(oracle)
            assert fast.comparisons == expected
            if MinimizerStatus.AMBIGUOUS not in (fast.status, slow.status):
                assert fast.status is slow.status
                conclusive += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(2, f"200 sources, {conclusive} conclusive agreements, {elapsed:.2f}s")


def test_criterion_03_xor_end_to_end():
    oracle = TabularOracle(make_xor_source())
    assert sk_capacity(oracle).value == pytest.approx(0.5, abs=1e-9)
    full = subsets.full_mask(3)
    for u in range(1, 4):
        speakers = full & ~subsets.bit(u)
        report = silent_capacity(oracle, speakers)
        assert report.capacity == pytest.approx(0.0, abs=1e-9)
        assert report.min_sum_rate == pytest.approx(2.0, abs=1e-9)
    for verdict in (
        verdict_by_condition(oracle),
        verdict_by_lp(oracle),
        verdict_for_three_terminals(oracle),
    ):
        assert verdict.status is OmniStatus.NECESSARY
    _ok(3, "C = 0.5, every 2-speaker capacity 0, R_min = 2, 3x Necessary")


def test_criterion_04_identical_bits_witness():
    oracle = TabularOracle(make_identical_bits(3))
    assert sk_capacity(oracle).value == 1.0
    verdict = verdict_for_three_terminals(oracle)
    assert verdict.status is OmniStatus.NOT_NECESSARY
    assert verdict.silent_witness.construction is Construction.SINGLE_SPEAKER
    speakers = subsets.full_mask(3) & ~verdict.silent_witness.silent
    assert subsets.size(speakers) == 1
    report = silent_capacity(oracle, speakers)
    assert report.capacity == pytest.approx(1.0, abs=1e-9)
    _ok(4, f"C = 1 kept by lone speaker {subsets.format_subset(speakers)}")


def test_criterion_05_three_terminal_decision_matches_lp():
    start = time.monotonic()
    alphabets = [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)]
    both = 0
    for i in range(200):
        oracle = TabularOracle(random_source(3, alphabets[i % 4], seed=5000 + i))
        three = verdict_for_three_terminals(oracle)
        lp = verdict_by_lp(oracle)
        if three.status in CONCLUSIVE and lp.status in CONCLUSIVE:
            assert three.status is lp.status
            both += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(5, f"200 sources, {both} doubly conclusive, no disagreement, {elapsed:.2f}s")


def test_criterion_06_capacity_chain_ordering():
    checked = unique = 0
    for source in tabular_test_sources((3, 4, 5)):
        oracle = TabularOracle(source)
        m = oracle.m
        full = subsets.full_mask(m)
        s_surplus = partition_surplus(oracle, singleton_partition(m))
        status = singleton_minimizer_check(oracle).status
        for u in range(1, m + 1):
            speakers = full & ~subsets.bit(u)
            report = silent_capacity(oracle, speakers)
            restricted = restricted_singleton_surplus(oracle, speakers)
            assert report.capacity <= restricted + 1e-8
            if status is MinimizerStatus.UNIQUE:
                assert restricted < s_surplus
                unique += 1
            checked += 1
    _ok(6, f"{checked} speaker sets ordered, {unique} strict under a unique minimizer")


def test_criterion_07_omniscience_identity():
    worst = 0.0
    for m, seed0 in ((3, 7000), (4, 7100)):
        for i in range(50):
            oracle = TabularOracle(random_source(m, (2,) * m, seed=seed0 + i))
            direct = sk_capacity(oracle).value
            indirect = silent_capacity(oracle, subsets.full_mask(m)).capacity
            worst = max(worst, abs(direct - indirect))
            assert indirect == pytest.approx(direct, abs=1e-6)
    _ok(7, f"100 sources, worst |direct - via omniscience| = {worst:.2e}")


def test_criterion_08_reduced_region_is_the_built_region():
    # The closed-form region against the maximum over every set A, on
    # every speaker set: bit for bit on complete graphs, on the same
    # subsets within 1e-12 on floats.
    compared = moved = 0
    worst = 0.0
    oracles = [TabularOracle(s) for s in tabular_test_sources((3, 4, 5))]
    oracles += [PinOracle(complete_graph(m)) for m in range(2, 7)]
    for oracle in oracles:
        for speakers in range(1, subsets.full_mask(oracle.m) + 1):
            built = build_rate_region(oracle, speakers)
            brute = brute_rate_region(oracle, speakers)
            assert built.speakers == brute.speakers
            assert len(built.constraints) == len(brute.constraints)
            for a, b in zip(built.constraints, brute.constraints):
                assert a.speakers_subset == b.speakers_subset
                if oracle.exact:
                    assert a.lower_bound == b.lower_bound
                gap = abs(a.lower_bound - b.lower_bound)
                assert gap <= 1e-12
                worst = max(worst, gap)
                moved += a.lower_bound != b.lower_bound
                compared += 1
    _ok(8, f"{compared} constraints on every speaker set, {moved} float bounds off by at most {worst:.1e}")


def test_criterion_09_isentropic_suite():
    # Exchangeable mixtures and complete graphs have subset entropies that
    # depend only on the subset's size; the singleton partition must
    # minimize the surplus for every one of them.
    oracles = [PinOracle(complete_graph(m)) for m in range(3, 9)]
    counts = {3: 34, 4: 33, 5: 33}
    i = 0
    for m, n in counts.items():
        for _ in range(n):
            oracles.append(
                TabularOracle(exchangeable_mixture(m, 2, components=2 + i % 2, seed=9000 + i))
            )
            i += 1
    for oracle in oracles:
        m = oracle.m
        s_surplus = partition_surplus(oracle, singleton_partition(m))
        for block in range(1, subsets.full_mask(m)):
            if not 1 <= subsets.size(block) <= m - 2:
                continue
            cut = partition_surplus(oracle, isolating_partition(m, block))
            assert s_surplus <= cut + 1e-8
    _ok(9, f"{i} mixtures + K_3..K_8 all singleton-minimal")


def test_criterion_10_hunt_is_deterministic_and_consistent(tmp_path):
    start = time.monotonic()
    first = tmp_path / "hunt_a.jsonl"
    second = tmp_path / "hunt_b.jsonl"
    args = ["hunt", "--m", "4", "--trials", "500", "--seed", "0"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    records = [json.loads(line) for line in first.read_text().splitlines()]
    assert len(records) == 500
    # The seed-0 counts.  A change that moves a bit of a float entropy
    # table can move a trial between classes; it must show up here.
    assert Counter(r["classification"] for r in records) == {
        "ConsistentProven": 303,
        "CandidateCounterexample": 92,
        "ConsistentConverse": 105,
    }
    candidates = 0
    for record in records:
        if record["condition"] == "UniqueMinimizer":
            assert record["lp"] == "Necessary"
        if record["classification"] == "CandidateCounterexample":
            assert record["source"]["atoms"]
            candidates += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _ok(10, f"500 trials twice, byte-identical, {candidates} candidates kept, {elapsed:.1f}s")
