"""Exact oracles run their table loops in ints and still report ``Fraction``s.

The greedy pass, the isolating-partition scan and the binding check scale
an exact table to a common denominator instead of summing ``Fraction``s.
These tests hold the scaled paths to ``Fraction`` references written out
over ``partition_surplus`` and the covering simplex, on integer (PIN) and
on rational exact oracles, and guard against ``Fraction`` arithmetic
coming back into the loops.
"""

import itertools
import random
from fractions import Fraction

import pytest

from skomni import subsets
from skomni.capacity import (
    restricted_capacity,
    singleton_minimizer_check,
    sk_capacity,
    speaker_rates,
)
from skomni.omnivocality import verdict_by_lp
from skomni.partitions import enumerate_partitions, singleton_partition
from skomni.pin import PinGraph, PinOracle, complete_graph, pin_capacity
from skomni.silent_rate import build_rate_region, min_sum_rate, silent_capacity

from conftest import ThirdsOracle, brute_minimizer_check, partition_surplus


def _drawn_graphs():
    graphs = [complete_graph(4)]  # C = 2, an integral gamma
    for m in range(3, 8):
        rng = random.Random(1300 + m)
        for _ in range(3 if m < 7 else 2):
            edges = [
                (u, v, rng.randint(1, 3))
                for u in range(1, m + 1)
                for v in range(u + 1, m + 1)
                if rng.random() < 0.6
            ]
            graphs.append(PinGraph(m, tuple(edges or [(1, 2, 1)])))
    return graphs


GRAPHS = _drawn_graphs()


def _is_fraction(*values):
    return all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("scale", [1, 3], ids=["pin", "pin-thirds"])
@pytest.mark.parametrize("graph", GRAPHS, ids=[f"m{g.m}-{i}" for i, g in enumerate(GRAPHS)])
def test_scaled_paths_match_fraction_references(graph, scale):
    oracle = PinOracle(graph) if scale == 1 else ThirdsOracle(graph)
    m = graph.m

    capacity = sk_capacity(oracle)
    brute = min(partition_surplus(oracle, p) for p in enumerate_partitions(m, min_cells=2))
    assert _is_fraction(capacity.value)
    assert capacity.value == brute == pin_capacity(graph).value / scale
    assert partition_surplus(oracle, capacity.argmin[0]) == capacity.value

    fast = singleton_minimizer_check(oracle)
    assert fast.status is brute_minimizer_check(oracle).status
    if fast.witness is not None:
        w = fast.witness
        assert _is_fraction(w.surplus, w.singleton_surplus)
        assert w.surplus == partition_surplus(oracle, w.partition)
        assert w.singleton_surplus == partition_surplus(oracle, singleton_partition(m))

    full = subsets.full_mask(m)
    for speakers in (full, full & ~subsets.bit(1), full & ~subsets.bit(m)):
        region = build_rate_region(oracle, speakers)
        by_lp = min_sum_rate(region)
        restricted = restricted_capacity(oracle, speakers)
        assert _is_fraction(restricted)
        assert restricted == oracle.entropy(speakers) - by_lp.min_sum

        report = silent_capacity(oracle, speakers)
        rates = report.rates
        assert _is_fraction(report.capacity, report.min_sum_rate, *rates.values())
        assert rates == speaker_rates(oracle, speakers, restricted)
        assert sum(rates.values()) == report.min_sum_rate == by_lp.min_sum
        slack = {
            c: sum(rates[t] for t in subsets.members(c.speakers_subset)) - c.lower_bound
            for c in region.constraints
        }
        assert min(slack.values()) >= 0
        assert report.binding == tuple(c for c, s in slack.items() if s == 0)


def _greedy_rates_reference(oracle, speakers, gamma):
    """x_j = min over B with j in B, B inside the speakers up to j, of
    h(B) - gamma - x(B - j), written out over ``Fraction``s."""
    x = {}
    for t in subsets.members(speakers):
        below = list(x)
        x[t] = min(
            Fraction(oracle.entropy(subsets.bit(t) | sum(map(subsets.bit, others))))
            - gamma
            - sum(x[u] for u in others)
            for k in range(len(below) + 1)
            for others in itertools.combinations(below, k)
        )
    return x


@pytest.mark.parametrize("scale", [1, 3], ids=["pin", "pin-thirds"])
@pytest.mark.parametrize("graph", GRAPHS, ids=[f"m{g.m}-{i}" for i, g in enumerate(GRAPHS)])
def test_speaker_rates_are_the_greedy_fractions(graph, scale):
    oracle = PinOracle(graph) if scale == 1 else ThirdsOracle(graph)
    full = subsets.full_mask(graph.m)
    for speakers in (full, full & ~subsets.bit(1), full & ~subsets.bit(graph.m), 0b11):
        gamma = restricted_capacity(oracle, speakers)
        for at in (gamma, gamma - Fraction(1, 7)):  # also off the capacity
            rates = speaker_rates(oracle, speakers, at)
            assert list(rates) == subsets.members(speakers)
            assert _is_fraction(*rates.values())
            assert rates == _greedy_rates_reference(oracle, speakers, at)


def test_exact_analyses_add_no_fractions_in_their_loops(monkeypatch):
    # The table loops are int-only; what is left is a handful of Fraction
    # steps per call (Newton values, gaps, R_min), a few per terminal.
    oracle = PinOracle(complete_graph(8))
    calls = {"n": 0}

    def counted(method):
        def wrapper(*args):
            calls["n"] += 1
            return method(*args)

        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    sk_capacity(oracle)
    singleton_minimizer_check(oracle)
    verdict_by_lp(oracle)
    silent_capacity(oracle, 0b01111111)
    assert 0 < calls["n"] <= 2 * oracle.m
