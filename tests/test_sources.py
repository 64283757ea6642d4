import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skomni import subsets
from skomni.errors import InputError, InvalidSubsetError
from skomni.generators import random_source
from skomni.pin import PinGraph
from skomni.sources import (
    ExtendedPrecisionOracle,
    JointSource,
    TabularOracle,
    load_source,
    marginal,
)

from conftest import (
    conditional_entropy,
    make_identical_bits,
    make_iid_bits,
    make_xor_source,
    mpf_operator_table,
    mutual_information,
    reference_json_atoms,
    reference_source_atoms,
)


def test_atoms_are_canonicalized():
    a = JointSource(2, (2, 2), {(1, 1): 0.5, (0, 0): 0.5})
    b = JointSource(2, (2, 2), {(0, 0): 0.5, (1, 1): 0.5})
    assert a == b
    assert list(a.atoms) == [(0, 0), (1, 1)]


def test_validation_errors():
    with pytest.raises(InputError, match="atoms sum to 0.900000"):
        JointSource(2, (2, 2), {(0, 0): 0.5, (1, 1): 0.4})
    with pytest.raises(InputError, match="outside the alphabet grid"):
        JointSource(2, (2, 2), {(0, 2): 1.0})
    with pytest.raises(InputError, match="probability"):
        JointSource(2, (2, 2), {(0, 0): -0.5, (1, 1): 1.5})
    with pytest.raises(InputError):
        JointSource(1, (2,), {(0,): 1.0})
    with pytest.raises(InputError, match="no atoms"):
        JointSource(2, (2, 2), {})
    with pytest.raises(InputError, match="outside the alphabet grid"):
        JointSource(2, (2, 2), {(True, 0): 0.5, (0, 1): 0.5})
    with pytest.raises(InputError, match="alphabet_sizes"):
        JointSource(2, (True, 2), {(0, 0): 0.5, (0, 1): 0.5})
    with pytest.raises(InputError, match="need 3 alphabet sizes, got 2"):
        random_source(3, (2, 2), seed=0)


# Probabilities and symbols that spoil an atom, or are odd but valid.
_ODD_PROBABILITIES = [
    -0.0, 0.0, -1e-3, math.inf, -math.inf, math.nan, 0, 1, True, 10**400, "0.5", None,
    Fraction(1, 4), Decimal("0.25"), Decimal("-0.25"), Decimal("NaN"), False, [0.5],
]
_ODD_SYMBOLS = [True, False, 1.0, None, "0", -1]


@st.composite
def _atom_pairs(draw):
    """(m, sizes, [[x, p], ...]) for a valid source with up to three atoms
    spoiled: odd symbols (some unsortable against ints), keys of the wrong
    length, out-of-range symbols and odd probabilities, in any order."""
    m = draw(st.integers(min_value=2, max_value=4))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    grid = list(itertools.product(*(range(size) for size in sizes)))
    if draw(st.booleans()):
        keys = grid
    else:
        keys = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique=True))
    weights = [draw(st.floats(0.01, 1.0)) for _ in keys]
    total = math.fsum(weights)
    pairs = [[list(x), w / total] for x, w in zip(keys, weights)]
    for _ in range(draw(st.integers(0, 3))):
        pair = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(["symbol", "length", "probability"]))
        if kind == "symbol" and pair[0]:
            i = draw(st.integers(0, min(len(pair[0]), m) - 1))
            pair[0][i] = draw(st.sampled_from(_ODD_SYMBOLS + [sizes[i], sizes[i] + 1]))
        elif kind == "length" and pair[0]:
            pair[0] = pair[0][:-1] if draw(st.booleans()) else pair[0] + [0]
        elif kind == "probability":
            pair[1] = draw(st.sampled_from(_ODD_PROBABILITIES))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    return m, sizes, pairs


def _outcome(build):
    """The exception type and message of ``build()``, or the atoms it
    returns with each coordinate's type and each probability's bits."""
    try:
        atoms = build()
    except Exception as exc:
        return type(exc), str(exc)
    return [(x, tuple(map(type, x)), type(p), p.hex()) for x, p in atoms.items()]


_NAN_CASES = [
    (2, (2, 2), [[[0, 0], 0.5], [[0, 1], math.nan], [[1, 1], 0.5]]),
    (2, (2, 2), [[[0, 0], 0.5], [[1, 1], 0.5], [[0, 1], math.nan]]),
    (2, (2, 2), [[[1, 1], 0.5], [[0, 1], math.inf], [[0, 0], 0.5]]),
]


@settings(max_examples=300, deadline=None)
@given(_atom_pairs())
@example(_NAN_CASES[0])
@example(_NAN_CASES[1])
@example(_NAN_CASES[2])
def test_constructor_agrees_with_the_per_atom_reference(case):
    m, sizes, pairs = case
    atoms = {tuple(x): p for x, p in pairs}
    assert _outcome(lambda: JointSource(m, sizes, atoms).atoms) == _outcome(
        lambda: reference_source_atoms(m, sizes, atoms)
    )


@settings(max_examples=300, deadline=None)
@given(_atom_pairs(), st.data())
@example(_NAN_CASES[0], None)
@example(_NAN_CASES[2], None)
def test_from_json_dict_agrees_with_the_per_entry_reference(case, data):
    m, sizes, pairs = case
    entries = [{"x": x, "p": p} for x, p in pairs]
    renormalize = False
    if data is not None:
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(entries) - 1))
            x, p = pairs[i]
            entries[i] = data.draw(st.sampled_from([
                [], "x", None, {"x": x}, {"p": p},
                {"x": x, "p": True}, {"x": x, "p": "0.5"}, {"x": x, "p": None},
                {"x": 3, "p": p}, {"x": "01", "p": p}, {"x": tuple(x), "p": p},
                {"x": [[0]] + x[1:], "p": p}, {"x": [{}] + x[1:], "p": p},
                {"x": pairs[0][0], "p": p}, {"x": x, "p": p, "note": 1},
            ]))
        renormalize = data.draw(st.booleans())
    doc = {"m": m, "alphabet_sizes": list(sizes), "atoms": entries}
    assert _outcome(lambda: JointSource.from_json_dict(doc, renormalize=renormalize).atoms) == (
        _outcome(lambda: reference_source_atoms(m, sizes, reference_json_atoms(doc, renormalize)))
    )


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, -1e-300,
    "0.25", True, None, [0.25], Decimal("sNaN"), Fraction(-1, 4),
])
@pytest.mark.parametrize("position", [0, 1, 3])
def test_a_bad_probability_is_caught_in_any_position(bad, position):
    # min() skips a NaN that is not the first item, so only a check that
    # sees every item catches NaN in positions 1 and 3.  A str, a bool or a
    # non-number is named as given; a negative real number as its float.
    atoms = dict.fromkeys(itertools.product(range(2), repeat=2), 0.25)
    key = list(atoms)[position]
    atoms[key] = bad
    shown = float(bad) if isinstance(bad, Fraction) else bad
    message = f"^atom {re.escape(repr(key))} has probability {re.escape(repr(shown))}$"
    with pytest.raises(InputError, match=message):
        JointSource(2, (2, 2), atoms)


@pytest.mark.parametrize("quarter", [Fraction(1, 4), Decimal("0.25"), 0.25])
def test_a_real_probability_of_any_type_is_kept_as_its_float(quarter):
    atoms = {(0, 0): quarter, (0, 1): quarter, (1, 0): quarter, (1, 1): 1 - 3 * quarter}
    source = JointSource(2, (2, 2), atoms)
    assert source == JointSource(2, (2, 2), dict.fromkeys(atoms, 0.25))
    assert {type(p) for p in source.atoms.values()} == {float}


def test_a_str_probability_is_refused_as_the_json_loader_refuses_it():
    with pytest.raises(InputError, match=r"^atom \(0, 0\) has probability '0.5'$"):
        JointSource(2, (2, 2), {(0, 0): "0.5", (1, 1): 0.5})
    doc = {"m": 2, "alphabet_sizes": [2, 2], "atoms": [{"x": [0, 0], "p": "0.5"}]}
    with pytest.raises(InputError, match="'p' must be a number"):
        JointSource.from_json_dict(doc)


def test_an_int_probability_past_the_float_range_is_named():
    atoms = {(0, 0): 0.5, (1, 1): 10**400}
    with pytest.raises(InputError, match=r"^atom \(1, 1\) has a probability too large for a float$"):
        JointSource(2, (2, 2), atoms)


def test_json_round_trip():
    src = make_xor_source()
    again = JointSource.from_json_dict(json.loads(json.dumps(src.to_json_dict())))
    assert again == src


@pytest.mark.parametrize("cls, kind", [(JointSource, "source"), (PinGraph, "graph")])
def test_from_json_rejects_a_non_object(cls, kind):
    with pytest.raises(InputError, match=f"^{kind} JSON must be an object$"):
        cls.from_json_dict([])


def test_from_json_rejects_duplicate_atoms():
    data = {
        "m": 2,
        "alphabet_sizes": [2, 2],
        "atoms": [{"x": [0, 0], "p": 0.5}, {"x": [0, 0], "p": 0.5}],
    }
    with pytest.raises(InputError, match="listed twice"):
        JointSource.from_json_dict(data)


def test_renormalize_option():
    data = {
        "m": 2,
        "alphabet_sizes": [2, 2],
        "atoms": [{"x": [0, 0], "p": 2.0}, {"x": [1, 1], "p": 2.0}],
    }
    with pytest.raises(InputError):
        JointSource.from_json_dict(data)
    src = JointSource.from_json_dict(data, renormalize=True)
    assert src.atoms[(0, 0)] == pytest.approx(0.5)


def test_load_source_diagnostics(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError, match="cannot read"):
        load_source(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_source(bad)


def test_marginal_projects_and_sums():
    src = make_xor_source()
    m1 = marginal(src, 0b001)
    assert m1 == {(0,): pytest.approx(0.5), (1,): pytest.approx(0.5)}
    m12 = marginal(src, 0b011)
    assert len(m12) == 4
    assert math.fsum(m12.values()) == pytest.approx(1.0)
    full = marginal(src, 0b111)
    assert full == src.atoms


def test_entropy_xor_values():
    oracle = TabularOracle(make_xor_source())
    assert oracle.entropy(0) == 0.0
    for t in (1, 2, 3):
        assert oracle.entropy(subsets.bit(t)) == pytest.approx(1.0)
    for pair in (0b011, 0b101, 0b110):
        assert oracle.entropy(pair) == pytest.approx(2.0)
    assert oracle.entropy(0b111) == pytest.approx(2.0)


def test_entropy_identical_and_iid():
    ident = TabularOracle(make_identical_bits(3))
    for mask in range(1, 8):
        assert ident.entropy(mask) == pytest.approx(1.0)
    iid = TabularOracle(make_iid_bits(3))
    for mask in range(1, 8):
        assert iid.entropy(mask) == pytest.approx(subsets.size(mask))


def test_entropy_is_order_independent():
    atoms = {(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.4, (1, 1): 0.1}
    forward = TabularOracle(JointSource(2, (2, 2), atoms))
    reversed_ = TabularOracle(JointSource(2, (2, 2), dict(reversed(atoms.items()))))
    for mask in (1, 2, 3):
        assert forward.entropy(mask) == reversed_.entropy(mask)


def test_conditional_entropy_identity_is_bitwise():
    # H(A|B) is defined as the chain-rule difference, and the returned float
    # is exactly that difference of oracle values, with no extra arithmetic
    # in between.
    oracle = TabularOracle(random_source(4, (2, 3, 2, 2), seed=5))
    for a in range(1, 16):
        for b in range(16):
            if a & b:
                continue
            lhs = conditional_entropy(oracle, a, b)
            assert lhs == oracle.entropy(a | b) - oracle.entropy(b)


def test_conditional_entropy_rejects_overlap():
    oracle = TabularOracle(make_xor_source())
    with pytest.raises(InvalidSubsetError):
        conditional_entropy(oracle, 0b011, 0b001)
    with pytest.raises(InvalidSubsetError):
        mutual_information(oracle, 0b011, 0b110)


def test_conditional_entropy_examples():
    xor = TabularOracle(make_xor_source())
    assert conditional_entropy(xor, 0b001, 0b110) == pytest.approx(0.0)
    assert conditional_entropy(xor, 0b011, 0b100) == pytest.approx(1.0)
    iid = TabularOracle(make_iid_bits(3))
    assert mutual_information(iid, 0b001, 0b010) == pytest.approx(0.0)
    ident = TabularOracle(make_identical_bits(3))
    assert mutual_information(ident, 0b001, 0b010) == pytest.approx(1.0)


def test_mutual_information_symmetry():
    oracle = TabularOracle(random_source(4, (2, 2, 2, 2), seed=9))
    for a in range(1, 16):
        for b in range(1, 16):
            if a & b:
                continue
            assert abs(
                mutual_information(oracle, a, b) - mutual_information(oracle, b, a)
            ) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=5))
def test_monotone_and_submodular(seed, m):
    oracle = TabularOracle(random_source(m, (2,) * m, seed=seed))
    full = subsets.full_mask(m)
    for a in range(full + 1):
        for b in range(full + 1):
            ha, hb = oracle.entropy(a), oracle.entropy(b)
            if (a & b) == a:
                assert ha <= hb + 1e-9
            hu = oracle.entropy(a | b)
            hi = oracle.entropy(a & b)
            assert ha + hb >= hu + hi - 1e-9


def test_extended_precision_matches_float():
    import mpmath

    src = random_source(3, (2, 2, 2), seed=3)
    coarse = TabularOracle(src)
    with mpmath.workdps(40):
        fine = ExtendedPrecisionOracle(src)
        for mask in range(1, 8):
            assert abs(float(fine.entropy(mask)) - coarse.entropy(mask)) < 1e-12


def test_dense_cache_serves_repeat_queries():
    oracle = TabularOracle(make_xor_source())
    first = oracle.entropy(0b011)
    assert oracle.entropy(0b011) is first or oracle.entropy(0b011) == first
    assert oracle._cache[0b011] == first


@pytest.mark.parametrize("make", [TabularOracle, ExtendedPrecisionOracle])
@pytest.mark.parametrize("bad", [-1, 1 << 3, 1 << 40, 1.0, 2.5, "3", None, True])
def test_pmf_oracles_reject_non_subsets(make, bad):
    oracle = make(make_xor_source())
    oracle.entropy(0b111)  # a filled table must not answer either
    with pytest.raises(InvalidSubsetError):
        oracle.entropy(bad)


def _fsum_entropy(source, subset):
    """Entropy of one subset straight from its ``marginal``; +0.0, not
    -0.0, for a subset with a single cell."""
    masses = marginal(source, subset).values()
    return 0.0 - math.fsum(p * math.log2(p) for p in masses if p > 0.0)


@st.composite
def _awkward_sources(draw):
    """Sparse supports, zero-mass atoms, 1e-12 atoms and mixed alphabets."""
    m = draw(st.integers(min_value=2, max_value=4))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    grid = [()]
    for size in sizes:
        grid = [x + (c,) for x in grid for c in range(size)]
    support = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique=True))
    weights = [
        draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-3, 1.0)))
        for _ in support
    ]
    weights[0] = draw(st.floats(0.1, 1.0))
    total = math.fsum(weights)
    return JointSource(m, sizes, {x: w / total for x, w in zip(support, weights)})


def _full_grid(sizes, weights):
    """The source with one atom per grid cell, in grid order, of the normalized weights."""
    grid = itertools.product(*(range(size) for size in sizes))
    total = math.fsum(weights)
    return JointSource(len(sizes), sizes, {x: w / total for x, w in zip(grid, weights)})


@st.composite
def _full_grid_sources(draw):
    """Every cell of the grid an atom, some of zero or 1e-12 mass; some alphabets of size 1."""
    m = draw(st.integers(min_value=2, max_value=6))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    cells = math.prod(sizes)
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-3, 1.0)),
        min_size=cells, max_size=cells,
    ))
    weights[draw(st.integers(0, cells - 1))] = draw(st.floats(0.1, 1.0))
    return _full_grid(sizes, weights)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_awkward_sources(), _full_grid_sources()))
def test_float_table_is_bitwise_the_fsum_over_marginals(source):
    oracle = TabularOracle(source)
    assert oracle.entropy(0).hex() == (0.0).hex()
    for subset in range(1, 1 << source.m):
        assert oracle.entropy(subset).hex() == _fsum_entropy(source, subset).hex()


def _ternary_grid_with_zero_atoms():
    """m = 7 over (3,)*7, every seventh atom (from the fourth) of zero mass."""
    rng = random.Random(7)
    return _full_grid((3,) * 7, [0.0 if i % 7 == 3 else rng.random() for i in range(3**7)])


@pytest.mark.parametrize("make, digest", [
    (lambda: random_source(10, (2,) * 10, 1),
     "41dac22d3036a9a9ec65354353afa32b0f1c2f29ec2f31446ce9238c218d5d56"),
    (lambda: random_source(10, (2,) * 10, 2),
     "eae17b6678f4e22dcdfd651e713dfdcdd3b5f60644e90c1423d072111a4df548"),
    (lambda: random_source(10, (2,) * 10, 3),
     "7085fc75564ba81236d8844521f7e48c680ce47b14bf2ca5a639af313c0962ca"),
    (_ternary_grid_with_zero_atoms,
     "5e133d04fab3b18d709868dd039aec2536973940ab406320e650346968e70ce6"),
], ids=["binary-m10-seed1", "binary-m10-seed2", "binary-m10-seed3", "ternary-m7-zeros"])
def test_dense_float_tables_keep_their_bits_past_m6(make, digest):
    # The fsum reference above stops at m = 6; these digests of every
    # entry's hex were recorded from the slice-by-slice fill.
    table = TabularOracle(make()).table()
    assert hashlib.sha256(" ".join(h.hex() for h in table).encode()).hexdigest() == digest


def test_dense_fill_memory_stays_bounded():
    # Depth first, the fill holds one cell list per level of the walk:
    # under 1 MB at m = 12.  A batched or breadth-first fill must stay
    # below 4 MB.
    oracle = TabularOracle(random_source(12, (2,) * 12, 1))
    tracemalloc.start()
    try:
        oracle.table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def _tiny_atom_source(grid, full):
    """Three atoms 2^-1060, 1/4 and 3/4 - 2^-1060 on a 3-terminal grid,
    with the rest of the grid as zero-mass atoms if ``full``."""
    tiny = 2.0**-1060
    cells = list(itertools.product(*(range(size) for size in grid)))
    atoms = dict.fromkeys(cells if full else cells[:3], 0.0)
    atoms[cells[0]], atoms[cells[1]], atoms[cells[2]] = tiny, 0.25, 0.75 - tiny
    return JointSource(3, grid, atoms)


@pytest.mark.parametrize("grid", [(2, 1, 2), (2, 2, 1)])
@pytest.mark.parametrize("full", [True, False])
def test_masses_below_the_normal_range_divide_exactly(grid, full):
    # An atom of 2^-1060 puts the masses in units of 2^-1061, beyond the
    # exponent range in which scaling by a float power of two is exact.
    source = _tiny_atom_source(grid, full)
    oracle = TabularOracle(source)
    for subset in range(1, 8):
        assert oracle.entropy(subset).hex() == _fsum_entropy(source, subset).hex()


def _mpf_entropy(source, subset):
    """Per-subset mpmath entropy, summing atoms one by one in mpmath."""
    import mpmath as mp

    keep = [t - 1 for t in subsets.members(subset)]
    buckets = {}
    for x, p in source.atoms.items():
        key = tuple(x[i] for i in keep)
        buckets[key] = buckets.get(key, mp.mpf(0)) + mp.mpf(p)
    ln2 = mp.log(2)
    acc = mp.mpf(0)
    for mass in buckets.values():
        if mass > 0:
            acc -= mass * mp.log(mass) / ln2
    return acc


def _mpf_bits(table):
    return [value._mpf_ for value in table]


@pytest.mark.parametrize(
    "source",
    [
        random_source(4, (2, 3, 2, 2), seed=11),
        JointSource(
            3,
            (2, 2, 3),
            {(0, 0, 0): 0.5 - 1e-12, (1, 1, 2): 0.5, (0, 1, 1): 1e-12, (1, 0, 0): 0.0},
        ),
        _full_grid((2, 1, 3, 2), [0.3, 0.1, 0.0, 0.7, 0.2, 1e-12, 0.4, 0.9, 0.05, 0.6, 0.8, 0.15]),
    ],
)
def test_mpf_table_matches_per_subset_sums_at_60_digits(source):
    import mpmath

    with mpmath.workdps(60):
        oracle = ExtendedPrecisionOracle(source)
        assert oracle.entropy(0) == 0
        for subset in range(1, 1 << source.m):
            assert oracle.entropy(subset) == _mpf_entropy(source, subset)
        assert _mpf_bits(oracle.table()) == _mpf_bits(mpf_operator_table(source))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_awkward_sources(), _full_grid_sources()))
@example(_tiny_atom_source((2, 1, 2), True))
@example(_tiny_atom_source((2, 1, 2), False))
@example(_tiny_atom_source((2, 2, 1), True))
@example(_tiny_atom_source((2, 2, 1), False))
def test_mpf_table_is_bitwise_the_operator_fill(source):
    # The fill runs mpmath.libmp on raw tuples; every entry must carry the
    # bits that mpmath's own operators give, at any precision.
    import mpmath

    for dps in (16, 30, 60, 100):
        with mpmath.workdps(dps):
            table = ExtendedPrecisionOracle(source).table()
            assert all(type(value) is mpmath.mpf for value in table)
            assert _mpf_bits(table) == _mpf_bits(mpf_operator_table(source)), dps
