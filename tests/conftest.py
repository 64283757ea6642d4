"""Shared fixture sources.

Expected numbers quoted in the test modules were computed by hand from the
defining pmfs (small joint entropies, binary entropy values) before being
frozen here; tests compare library output against these constants, not
against other library output.
"""

import math
import numbers
import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from skomni.capacity import (
    DEFAULT_TIE_TOL,
    MinimizerStatus,
    MinimizerVerdict,
    MinimizerWitness,
)
from skomni import subsets
from skomni.errors import InputError, SizeLimitError
from skomni.generators import random_source
from skomni.partitions import Partition, enumerate_partitions, singleton_partition
from skomni.pin import PinGraph, PinOracle, complete_graph
from skomni.silent_rate import RateConstraint, RateRegion
from skomni.sources import PMF_TOLERANCE, JointSource, TabularOracle, _entropy_table


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def partition_surplus(oracle, partition: Partition):
    """Normalized entropy surplus of a partition with >= 2 cells.

    The reference for every surplus the library computes: the cells'
    entropies fold left to right in canonical cell order from int 0, as the
    library's searches and scans fold them, so values compare bitwise.
    """
    m = max(partition.cells).bit_length()
    if m != oracle.m:
        raise SizeLimitError(f"partition is over m={m}, oracle has m={oracle.m}")
    n_cells = len(partition.cells)
    if n_cells < 2:
        raise SizeLimitError("surplus needs a partition with at least 2 cells")
    total = reduce(operator.add, map(oracle.entropy, partition.cells), 0)
    num = total - oracle.entropy(subsets.full_mask(oracle.m))
    if oracle.exact:
        return Fraction(num, n_cells - 1)
    return num / (n_cells - 1)


def _check_disjoint(a: int, b: int) -> None:
    if a & b:
        raise InputError(
            f"subsets {subsets.members(a)} and {subsets.members(b)} overlap"
        )


def conditional_entropy(oracle, a: int, b: int):
    """H(X_A | X_B) = H(X_{A|B joint}) - H(X_B).  B may be empty."""
    subsets.check_subset(a, oracle.m)
    if b:
        subsets.check_subset(b, oracle.m)
    _check_disjoint(a, b)
    return oracle.entropy(a | b) - oracle.entropy(b)


def mutual_information(oracle, a: int, b: int):
    """I(X_A ; X_B) for disjoint nonempty subsets."""
    subsets.check_subset(a, oracle.m)
    subsets.check_subset(b, oracle.m)
    _check_disjoint(a, b)
    return oracle.entropy(a) + oracle.entropy(b) - oracle.entropy(a | b)


def incident_weight(graph: PinGraph, subset: int) -> int:
    """Total multiplicity of edges with at least one endpoint in subset.

    This is exactly the subset entropy of the PIN source in bits.
    """
    if subset:
        subsets.check_subset(subset, graph.m)
    total = 0
    for u, v, mult in graph.edges:
        if subset & ((1 << (u - 1)) | (1 << (v - 1))):
            total += mult
    return total


def crossing_count(graph: PinGraph, partition: Partition) -> int:
    """Total multiplicity of edges whose endpoints lie in different cells."""
    return sum(
        mult for u, v, mult in graph.edges
        if not any(cell >> (u - 1) & cell >> (v - 1) & 1 for cell in partition.cells)
    )


def strength_quotient(graph: PinGraph, partition: Partition) -> Fraction:
    """crossing(P) / (|P| - 1), the exact partition surplus of the PIN source."""
    return Fraction(crossing_count(graph, partition), len(partition.cells) - 1)


def mpf_operator_table(source: JointSource) -> list:
    """The subset-entropy table of ``source`` at the current mpmath
    precision, built with mpmath's high-level operators: the reference
    for ``ExtendedPrecisionOracle``, which runs the same ``mpmath.libmp``
    calls on raw mpf tuples."""
    import mpmath as mp

    ln2 = mp.log(2)

    def kernel(k):
        def entropy(masses):
            acc = mp.mpf(0)
            for mass in masses:
                if mass:
                    p = mp.ldexp(mp.mpf(mass), -k)
                    acc -= p * mp.log(p) / ln2
            return acc

        return entropy

    return _entropy_table(source, mp.mpf(0), kernel)


def reference_json_atoms(data: dict, renormalize: bool = False) -> dict:
    """The atoms ``JointSource.from_json_dict`` hands its constructor, by a
    check of one entry at a time: the reference for its whole-column
    checks.  ``data`` is an object with ``m``, ``alphabet_sizes`` and a list
    ``atoms``."""
    atoms = {}
    for entry in data["atoms"]:
        if not isinstance(entry, dict):
            raise InputError(f"atom entry {entry!r} must be an object")
        for key in ("x", "p"):
            if key not in entry:
                raise InputError(f"atom entry {entry!r} missing {key!r}")
        if entry.keys() != {"x", "p"}:
            stray = next(key for key in entry if key not in ("x", "p"))
            raise InputError(f"atom entry {entry!r} has key {stray!r}; it takes only 'x' and 'p'")
        x, p = entry["x"], entry["p"]
        if type(p) not in (int, float):
            raise InputError(f"atom entry {entry!r}: 'p' must be a number")
        try:
            x = tuple(x)
            repeated = x in atoms
        except TypeError:
            raise InputError(f"atom entry {entry!r}: 'x' must be a list of integers") from None
        if repeated:
            raise InputError(f"atom {list(x)!r} listed twice")
        atoms[x] = p
    if renormalize:
        atoms = {x: _reference_probability(x, p) for x, p in atoms.items()}
        total = _reference_total(atoms.values())
        if total <= 0.0 or not math.isfinite(total):
            raise InputError(f"cannot renormalize: atoms sum to {total!r}")
        atoms = {x: p / total for x, p in atoms.items()}
    return atoms


def reference_source_atoms(m: int, sizes: tuple, atoms) -> dict:
    """The atoms ``JointSource(m, sizes, atoms)`` keeps, by a check of one
    atom at a time in sorted order: the reference for its whole-column
    checks.  ``m`` and ``sizes`` must be valid."""
    try:
        items = sorted(atoms.items())
    except TypeError:
        items = atoms.items()
    clean = {}
    for x, p in items:
        x = tuple(x)
        if len(x) != m or any(
            type(c) is not int or not 0 <= c < sizes[i] for i, c in enumerate(x)
        ):
            raise InputError(f"atom {x!r} outside the alphabet grid")
        p = _reference_probability(x, p)
        if p < 0.0 or not math.isfinite(p):
            raise InputError(f"atom {x!r} has probability {p!r}")
        clean[x] = p
    total = _reference_total(clean.values())
    if abs(total - 1.0) > PMF_TOLERANCE:
        raise InputError(f"atoms sum to {total:.6f}, not 1")
    return clean


def _reference_probability(x, p) -> float:
    # Any real number but a bool: int, float, Fraction, Decimal.
    if type(p) is bool or not isinstance(p, (numbers.Real, Decimal)):
        raise InputError(f"atom {x!r} has probability {p!r}")
    try:
        return float(p)
    except OverflowError:
        raise InputError(f"atom {x!r} has a probability too large for a float") from None
    except ValueError:
        raise InputError(f"atom {x!r} has probability {p!r}") from None


def _reference_total(probabilities) -> float:
    try:
        return math.fsum(probabilities)
    except OverflowError:
        return math.inf


def make_xor_source() -> JointSource:
    """X1, X2 fair independent bits, X3 = X1 xor X2."""
    atoms = {
        (0, 0, 0): 0.25,
        (0, 1, 1): 0.25,
        (1, 0, 1): 0.25,
        (1, 1, 0): 0.25,
    }
    return JointSource(3, (2, 2, 2), atoms)


def make_identical_bits(m: int = 3) -> JointSource:
    """One fair bit copied to every terminal."""
    atoms = {(0,) * m: 0.5, (1,) * m: 0.5}
    return JointSource(m, (2,) * m, atoms)


def make_iid_bits(m: int = 3) -> JointSource:
    """m independent fair bits."""
    atoms = {}
    for cell in range(1 << m):
        x = tuple((cell >> i) & 1 for i in range(m))
        atoms[x] = 1.0 / (1 << m)
    return JointSource(m, (2,) * m, atoms)


def make_common_randomness() -> JointSource:
    """X_i = 2Y + Z_i with Y, Z_1..Z_3 independent fair bits.

    Every subset entropy is an integer (H_i = 2, H_ij = 3, H_123 = 4), so
    all four partition surpluses equal exactly 1 and every terminal's cut
    surplus ties the singleton surplus.
    """
    atoms = {}
    for y in (0, 1):
        for z1 in (0, 1):
            for z2 in (0, 1):
                for z3 in (0, 1):
                    atoms[(2 * y + z1, 2 * y + z2, 2 * y + z3)] = 1.0 / 16
    return JointSource(3, (4, 4, 4), atoms)


def make_two_speaker_bsc() -> JointSource:
    """X1 fair bit; X2 = X1 xor Bern(0.05); X3 = X1 xor Bern(0.45).

    The noisy third terminal is the only one whose cut surplus falls below
    the singleton surplus, so exactly one terminal can stay silent and the
    capacity equals 1 - h(0.45).
    """
    q1 = (0.95, 0.05)
    q2 = (0.55, 0.45)
    atoms = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            for x3 in (0, 1):
                atoms[(x1, x2, x3)] = 0.5 * q1[x1 ^ x2] * q2[x1 ^ x3]
    return JointSource(3, (2, 2, 2), atoms)


def make_broadcast_pair(eps: float = 0.1) -> JointSource:
    """X3 fair bit; X1 and X2 are X3 through equally noisy flips.

    The two receiver cut surpluses tie the singleton surplus exactly (in
    the reals), while the sender cut stays strictly above; the float
    differences land inside the tie band as nonzero noise, which makes
    this the canonical NumericallyAmbiguous boundary case.
    """
    atoms = {}
    for x3 in (0, 1):
        for n1 in (0, 1):
            for n2 in (0, 1):
                p = 0.5 * (eps if n1 else 1 - eps) * (eps if n2 else 1 - eps)
                key = (x3 ^ n1, x3 ^ n2, x3)
                atoms[key] = atoms.get(key, 0.0) + p
    return JointSource(3, (2, 2, 2), atoms)


def make_xor4_source() -> JointSource:
    """X1..X3 fair independent bits, X4 their xor; capacity 1/3."""
    atoms = {}
    for cell in range(8):
        x1, x2, x3 = cell & 1, (cell >> 1) & 1, (cell >> 2) & 1
        atoms[(x1, x2, x3, x1 ^ x2 ^ x3)] = 0.125
    return JointSource(4, (2, 2, 2, 2), atoms)


def make_path3_graph() -> PinGraph:
    """Path 1 - 2 - 3; strength 1 with a three-way argmin tie."""
    return PinGraph(3, ((1, 2, 1), (2, 3, 1)))


def make_cycle_plus_graph(m: int) -> PinGraph:
    """C_m^+: the cycle 1-2-...-m-1 with edge {1, m} doubled, weight m + 1."""
    return PinGraph(m, tuple((t, t + 1, 1) for t in range(1, m)) + ((1, m, 2),))


def exchangeable_mixture(m: int, alphabet_size: int, components: int, seed: int) -> JointSource:
    """Seeded mixture of iid sources: p(x) = sum_c w_c * prod_i q_c(x_i).

    Every terminal uses the same per-component symbol pmf q_c, so the
    joint law is invariant under permuting terminals and every subset
    entropy depends only on the subset's size.
    """
    rng = random.Random(seed)
    raw_w = [rng.random() for _ in range(components)]
    w_total = math.fsum(raw_w)
    weights = [w / w_total for w in raw_w]
    pmfs = []
    for _ in range(components):
        raw = [rng.random() for _ in range(alphabet_size)]
        total = math.fsum(raw)
        pmfs.append([p / total for p in raw])
    atoms = {}
    for cell in product(range(alphabet_size), repeat=m):
        atoms[cell] = math.fsum(
            w * math.prod(q[sym] for sym in cell) for w, q in zip(weights, pmfs)
        )
    total = math.fsum(atoms.values())
    atoms = {cell: p / total for cell, p in atoms.items()}
    return JointSource(m, (alphabet_size,) * m, atoms)


def hidden_bits_source(biases, views) -> JointSource:
    """Terminal i sees the XOR of the hidden bits in the mask views[i].

    Hidden bit j is 1 with probability biases[j], independently.  A view
    of 0 is a constant terminal and a one-bit view a copy, so subset
    entropies tie in the reals in many ways, and with biased bits the ties
    round differently in different sums.
    """
    atoms = {}
    for z in range(1 << len(biases)):
        p = math.prod(b if (z >> j) & 1 else 1 - b for j, b in enumerate(biases))
        x = tuple((z & v).bit_count() & 1 for v in views)
        atoms[x] = atoms.get(x, 0.0) + p
    return JointSource(len(views), (2,) * len(views), atoms)


class CountingOracle:
    """Wraps an oracle and counts the point queries made through ``entropy``.

    ``table()`` passes the wrapped oracle's table through uncounted.
    """

    def __init__(self, oracle):
        self.m, self.exact, self._oracle, self.queries = oracle.m, oracle.exact, oracle, 0

    def entropy(self, subset):
        self.queries += 1
        return self._oracle.entropy(subset)

    def table(self):
        return self._oracle.table()


class OracleModel:
    """A model that gives one fixed oracle at any dps, so ``run_routes`` and
    ``probe_conjecture`` can be run on a hand-made or wrapped oracle."""

    def __init__(self, oracle):
        self.m, self._oracle = oracle.m, oracle

    def oracle(self, dps=0):
        return self._oracle


def count_fills(monkeypatch, oracle):
    """A list that grows by one each time the unfilled pmf or PIN ``oracle``
    fills its table."""
    assert oracle._cache is None
    fills = []
    fill = oracle._fill
    monkeypatch.setattr(oracle, "_fill", lambda: fills.append(1) or fill())
    return fills


class ThirdsOracle:
    """Exact oracle whose entropies are a PIN graph's divided by 3: rational, not integral."""

    exact = True

    def __init__(self, graph):
        self.m = graph.m
        self._table = [Fraction(h, 3) for h in PinOracle(graph).table()]

    def entropy(self, subset):
        return self._table[subset]

    def table(self):
        return self._table


def gathered_table(oracle, speakers):
    """The speakers' table read one ``entropy`` query at a time: the
    reference for ``capacity.speaker_table``, which cuts it from ``table()``."""
    return [oracle.entropy(b) for b in (0, *subsets.iter_submasks(speakers))]


def restricted_singleton_surplus(oracle, speakers):
    """Singleton surplus within a speaker set T of size m-1.

    (sum_{i in T} H(X_i) - H(X_T)) / (m - 2) upper-bounds the capacity
    achievable when the missing terminal stays silent.
    """
    m = oracle.m
    subsets.check_subset(speakers, m)
    if speakers.bit_count() != m - 1 or m < 3:
        raise SizeLimitError("restricted singleton surplus needs |T| = m-1 and m >= 3")
    total = sum(oracle.entropy(1 << (t - 1)) for t in subsets.members(speakers))
    num = total - oracle.entropy(speakers)
    return Fraction(num, m - 2) if oracle.exact else num / (m - 2)


def singleton_surplus_identity(oracle, silent):
    """Both sides of the identity linking restricted and global surplus.

    With T = {1..m} minus the silent terminal u and S the singleton
    partition:

        surplus_T(S) - surplus(S) = (surplus(S) - surplus({{u}, T})) / (m - 2).

    Returns (lhs, rhs), which agree up to arithmetic noise.
    """
    m = oracle.m
    speakers = subsets.full_mask(m) & ~silent
    s_value = partition_surplus(oracle, singleton_partition(m))
    lhs = restricted_singleton_surplus(oracle, speakers) - s_value
    diff = s_value - partition_surplus(oracle, Partition.from_cells([silent, speakers], m))
    rhs = Fraction(diff, m - 2) if oracle.exact else diff / (m - 2)
    return lhs, rhs


def reference_minimizer_check(oracle, candidates, tie_tol=DEFAULT_TIE_TOL):
    """The singleton-minimizer decision written out over ``partition_surplus``.

    Compares the singleton partition against each partition of
    ``candidates`` in the given order, with the tie-band rules of
    ``skomni.capacity.singleton_minimizer_check``.
    """
    s_value = partition_surplus(oracle, singleton_partition(oracle.m))
    band = 0 if oracle.exact else tie_tol
    comparisons = 0
    worst = worst_witness = zero = near = None
    for p in candidates:
        value = partition_surplus(oracle, p)
        comparisons += 1
        d = value - s_value
        if worst is None or d < worst:
            worst, worst_witness = d, MinimizerWitness(p, value, s_value)
        if -band <= d <= band:
            if d == 0:
                zero = zero or MinimizerWitness(p, value, s_value)
            else:
                near = near or MinimizerWitness(p, value, s_value)
    if worst < -band:
        return MinimizerVerdict(MinimizerStatus.NOT_MINIMIZER, comparisons, worst_witness)
    if near is not None:
        return MinimizerVerdict(MinimizerStatus.AMBIGUOUS, comparisons, near)
    if zero is not None:
        return MinimizerVerdict(MinimizerStatus.NON_UNIQUE, comparisons, zero)
    return MinimizerVerdict(MinimizerStatus.UNIQUE, comparisons, None)


def brute_minimizer_check(oracle, tie_tol=DEFAULT_TIE_TOL):
    """Brute-force oracle: the singleton partition against every other one."""
    s = singleton_partition(oracle.m)
    others = (p for p in enumerate_partitions(oracle.m, min_cells=2) if p != s)
    return reference_minimizer_check(oracle, others, tie_tol)


def brute_rate_region(oracle, speakers):
    """Brute-force oracle for ``build_rate_region``: per B, the largest
    H(X_B | X_{complement of A}) over every proper A with A cap T = B."""
    m = oracle.m
    full = subsets.full_mask(m)
    best = {}
    for a in range(1, full):
        b = a & speakers
        if b == 0:
            continue
        given = full & ~a
        bound = oracle.entropy(b | given) - oracle.entropy(given)
        if b not in best or bound > best[b]:
            best[b] = bound
    constraints = tuple(RateConstraint(b, best[b]) for b in sorted(best))
    return RateRegion(m, speakers, constraints, oracle.exact)


@pytest.fixture
def xor_source():
    return make_xor_source()


@pytest.fixture
def xor_oracle():
    return TabularOracle(make_xor_source())


@pytest.fixture
def identical_oracle():
    return TabularOracle(make_identical_bits(3))


@pytest.fixture
def iid_oracle():
    return TabularOracle(make_iid_bits(3))


@pytest.fixture
def common_randomness_oracle():
    return TabularOracle(make_common_randomness())


@pytest.fixture
def two_speaker_oracle():
    return TabularOracle(make_two_speaker_bsc())


@pytest.fixture
def xor4_oracle():
    return TabularOracle(make_xor4_source())


@pytest.fixture
def k3_oracle():
    return PinOracle(complete_graph(3))


@pytest.fixture
def k4_oracle():
    return PinOracle(complete_graph(4))


def tabular_test_sources(m_values=(3, 4, 5)):
    """The tabular sources the cross-source invariant tests sweep over.

    Fixed constructions at every requested m plus a few seeded random
    sources; deterministic, so failures reproduce.
    """
    out = []
    for m in m_values:
        if m == 3:
            out += [
                make_xor_source(),
                make_common_randomness(),
                make_two_speaker_bsc(),
            ]
        if m == 4:
            out.append(make_xor4_source())
        out += [
            make_identical_bits(m),
            make_iid_bits(m),
            random_source(m, (2,) * m, seed=100 + m),
            exchangeable_mixture(m, 2, components=2, seed=200 + m),
        ]
    return out
