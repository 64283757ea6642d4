"""Finite multiterminal sources and subset-entropy oracles.

What this module provides
-------------------------
* ``JointSource``: an immutable joint pmf over m terminal alphabets, given
  as explicit atoms (probability mass points).  Cells not listed carry zero
  mass, so sparse supports stay sparse.
* ``marginal``: projection of the pmf onto a subset of terminals.
* ``TableOracle``: the base of every table-backed oracle; a subclass
  supplies only the fill.
* ``TabularOracle``: the standard float-valued subset-entropy oracle.
* ``ExtendedPrecisionOracle``: the same entropies in mpmath arithmetic;
  the caller controls precision with ``mpmath.workdps``.
* ``conditional_entropy`` / ``mutual_information`` over any oracle.

Entropies are in bits.  A pmf oracle fills a table of all 2^m subset
entropies on its first query, summing each marginal from its parent's
(the subset plus one terminal) in exact integers over a power-of-two
denominator.  One correctly rounded conversion then gives each cell mass
bitwise as the ``math.fsum`` of its atoms, and the entropy is an ``fsum``
over the cells, so equal sources built in different atom orders produce
bitwise-identical entropy values.  A source whose atoms fill the whole
alphabet grid (every hunt source does) keeps its marginals as dense lists
and sums them slice by slice; any other source keeps only its nonempty
cells, in a dict.  Both list the cells in the order they first appear in
canonical atom order, so the mpmath sums, which depend on that order, are
the same whichever kernel ran.

Every analysis in the package consumes an object with the ``EntropyOracle``
shape rather than a pmf, so exact integer-valued oracles (see ``pin``) and
high-precision oracles plug into the same code paths.  The analyses read
only ``table()``, the list of all 2^m entropies by mask, filled once and
shared, so callers must not modify it.  ``entropy(subset)`` is for point
reads: it indexes the table, answering the empty subset with zero and
rejecting anything else that is not a subset of 1..m.  Oracles are safe
to share between threads: a table is stored only once complete, and
racing fills store equal tables.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any, Optional, Protocol

from . import subsets
from .errors import InputError, InvalidSubsetError

#: Relative slack allowed between the atom mass total and 1.
PMF_TOLERANCE = 1e-9


class EntropyOracle(Protocol):
    """Anything that can answer subset-entropy queries for m terminals.

    Analyses read only ``table()``; ``entropy(subset)`` is for point
    reads.  ``exact`` declares whether returned values support exact
    comparison (integer or rational arithmetic); float- and mpf-valued
    oracles set it to False and downstream verdicts use tolerance bands
    instead.
    """

    m: int
    exact: bool

    def entropy(self, subset: int) -> Any: ...

    def table(self) -> list[Any]: ...


@dataclass(frozen=True)
class JointSource:
    """Joint pmf of m terminals over finite alphabets.

    Atoms map outcome tuples (0-indexed symbols, one per terminal) to
    probabilities.  Validation happens on construction; afterwards the
    object is immutable.  Atom order is canonicalized (sorted by outcome)
    so that equal sources are equal objects and entropy accumulation is
    deterministic.
    """

    m: int
    alphabet_sizes: tuple[int, ...]
    atoms: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        subsets.check_terminal_count(self.m)
        sizes = tuple(self.alphabet_sizes)
        if len(sizes) != self.m or any(type(s) is not int or s < 1 for s in sizes):
            raise InputError(f"alphabet_sizes {self.alphabet_sizes!r} invalid for m={self.m}")
        if not self.atoms:
            raise InputError("source has no atoms")
        try:
            items = sorted(self.atoms.items())
        except TypeError:  # a non-int coordinate; the loop below names its atom
            items = self.atoms.items()
        clean: dict[tuple[int, ...], float] = {}
        for x, p in items:
            x = tuple(x)
            if len(x) != self.m or any(
                type(c) is not int or not 0 <= c < sizes[i] for i, c in enumerate(x)
            ):
                raise InputError(f"atom {x!r} outside the alphabet grid")
            p = _probability(x, p)
            if p < 0.0 or not math.isfinite(p):
                raise InputError(f"atom {x!r} has probability {p!r}")
            clean[x] = p
        total = math.fsum(clean.values())
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise InputError(f"atoms sum to {total:.6f}, not 1")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "atoms", clean)

    @classmethod
    def from_json_dict(cls, data: Any, *, renormalize: bool = False) -> "JointSource":
        if not isinstance(data, dict):
            raise InputError("source JSON must be an object")
        for key in ("m", "alphabet_sizes", "atoms"):
            if key not in data:
                raise InputError(f"source JSON missing {key!r}")
        raw_atoms = data["atoms"]
        if not isinstance(raw_atoms, list):
            raise InputError("source JSON field 'atoms' must be a list")
        atoms: dict[tuple[int, ...], float] = {}
        for entry in raw_atoms:
            if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
                raise InputError(f"atom entry {entry!r} must have 'x' and 'p'")
            x, p = entry["x"], entry["p"]
            if type(p) not in (int, float):
                raise InputError(f"atom entry {entry!r}: 'p' must be a number")
            try:
                x = tuple(x)
                repeated = x in atoms
            except TypeError:  # x is not iterable, or holds lists or objects
                raise InputError(f"atom entry {entry!r}: 'x' must be a list of integers") from None
            if repeated:
                raise InputError(f"atom {list(x)!r} listed twice")
            atoms[x] = p
        if renormalize:
            atoms = {x: _probability(x, p) for x, p in atoms.items()}
            total = math.fsum(atoms.values())
            if total <= 0.0 or not math.isfinite(total):
                raise InputError(f"cannot renormalize: atoms sum to {total!r}")
            atoms = {x: p / total for x, p in atoms.items()}
        try:
            sizes = tuple(data["alphabet_sizes"])
        except TypeError:
            raise InputError("source JSON field 'alphabet_sizes' must be a list") from None
        return cls(data["m"], sizes, atoms)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "alphabet_sizes": list(self.alphabet_sizes),
            "atoms": [{"x": list(x), "p": p} for x, p in self.atoms.items()],
        }


def _probability(x: Any, p: Any) -> float:
    """``float(p)`` of atom ``x``; an int past the float range is bad input."""
    try:
        return float(p)
    except OverflowError:
        raise InputError(f"atom {x!r} has a probability too large for a float") from None


def read_json(path: str | Path) -> Any:
    """Parse a UTF-8 model file.  Raises InputError with a diagnostic on failure."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or an int past int_max_str_digits
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def load_source(path: str | Path, *, renormalize: bool = False) -> JointSource:
    """Read a source JSON file.  Raises InputError with a diagnostic on failure."""
    return JointSource.from_json_dict(read_json(path), renormalize=renormalize)


def marginal(source: JointSource, subset: int) -> dict[tuple[int, ...], float]:
    """Project the pmf onto the terminals of ``subset`` (nonempty).

    Returns a dict keyed by the projected outcome tuple, in the order the
    projected cells first appear in canonical atom order.  Each projected
    mass is an fsum over its contributing atoms.
    """
    subsets.check_subset(subset, source.m)
    keep = [t - 1 for t in subsets.members(subset)]
    buckets: dict[tuple[int, ...], list[float]] = {}
    for x, p in source.atoms.items():
        key = tuple(x[i] for i in keep)
        buckets.setdefault(key, []).append(p)
    return {key: math.fsum(ps) for key, ps in buckets.items()}


def _entropy_table(
    source: JointSource, zero: Any, entropy: Callable[[Iterable[int], int], Any]
) -> list[Any]:
    """All 2^m subset entropies, ``entropy(cell masses, k)`` for each nonempty one.

    Masses are exact integers in units of 2**-k, cells in order of first
    appearance in canonical atom order.  Depth first, each subset's cells
    merge from its parent's: the subset plus the largest terminal it lacks,
    so every terminal after the one dropped is present.  Two kernels merge:

    * A source whose atoms fill the whole alphabet grid keeps each subset's
      cells as a dense list in mixed radix, terminal 1 the most significant
      digit.  Canonical atom order is that order, and dropping a digit
      keeps it, so the list order is the first-appearance order.  Dropping
      terminal j sums its |X_j| slices at the stride of the terminals after
      j, the same for every subset.
    * Any other source keeps a dict keyed by the mixed-radix code of the
      outcome with dropped digits zeroed, so it never holds an empty cell;
      a dense grid for a 2-atom source would cost 3^m.

    Both hand ``entropy`` the same masses in the same order.
    """
    ratios = [p.as_integer_ratio() for p in source.atoms.values()]
    k = max(d.bit_length() for _, d in ratios) - 1
    masses = [n << (k + 1 - d.bit_length()) for n, d in ratios]
    sizes = source.alphabet_sizes
    table = [zero] * (1 << source.m)

    dense = len(masses) == math.prod(sizes)
    if dense:
        strides = [math.prod(sizes[j + 1 :]) for j in range(source.m)]

        def merge(cells: list[int], j: int) -> list[int]:
            a, s = sizes[j], strides[j]
            step = a * s
            if s <= len(cells) // step:  # loop over offsets or blocks, whichever is fewer
                merged = [0] * (len(cells) // a)
                for t in range(s):
                    acc: Any = cells[t::step]
                    for r in range(t + s, step, s):
                        acc = map(operator.add, acc, cells[r::step])
                    merged[t::s] = acc
            else:
                merged = []
                for b in range(0, len(cells), step):
                    acc = cells[b : b + s]
                    for r in range(b + s, b + step, s):
                        acc = map(operator.add, acc, cells[r : r + s])
                    merged += acc
            return merged

        root: Any = masses
    else:
        radix = [math.prod(sizes[:i]) for i in range(source.m + 1)]

        def merge(cells: dict[int, int], j: int) -> dict[int, int]:
            low, high = radix[j], radix[j + 1]
            merged: dict[int, int] = {}
            for code, mass in cells.items():
                code -= code % high - code % low
                merged[code] = merged.get(code, 0) + mass
            return merged

        root = {sum(c * r for c, r in zip(x, radix)): n for x, n in zip(source.atoms, masses)}

    def walk(subset: int, start: int, cells: Any) -> None:
        table[subset] = entropy(cells if dense else cells.values(), k)
        for j in range(start, source.m):
            if subset != 1 << j:
                walk(subset & ~(1 << j), j + 1, merge(cells, j))

    walk(subsets.full_mask(source.m), 0, root)
    return table


def _float_entropy(masses: Iterable[int], k: int) -> float:
    if k <= 1022:  # every p is normal, so scaling rounds as the division does
        scale = 2.0**-k
        probs = [float(mass) * scale for mass in masses if mass]
    else:
        probs = [mass / (1 << k) for mass in masses if mass]
    return 0.0 - math.fsum(map(operator.mul, probs, map(math.log2, probs)))


class TableOracle:
    """Base of the table-backed oracles: a subclass supplies ``_fill()``,
    the list of all 2^m subset entropies by mask, which ``table()`` stores
    on the first call.  Each subclass binds ``entropy = TableOracle.entropy``
    in its own namespace, so every oracle class can be wrapped on its own.
    """

    def __init__(self, m: int):
        self.m = m
        self._full = subsets.full_mask(m)
        self._cache: Optional[list[Any]] = None

    def entropy(self, subset: int) -> Any:
        if type(subset) is not int or not 0 <= subset <= self._full:
            subsets.check_subset(subset, self.m, allow_empty=True)
        return self.table()[subset]

    def table(self) -> list[Any]:
        """The 2^m subset entropies by mask, filled on the first call; do not modify."""
        if self._cache is None:
            self._cache = self._fill()
        return self._cache

    def _fill(self) -> list[Any]:
        raise NotImplementedError


class TabularOracle(TableOracle):
    """Subset-entropy oracle backed by an explicit joint pmf (float bits)."""

    exact = False
    entropy = TableOracle.entropy

    def __init__(self, source: JointSource):
        super().__init__(source.m)
        self.source = source

    def _fill(self) -> list[Any]:
        return _entropy_table(self.source, 0.0, _float_entropy)


class ExtendedPrecisionOracle(TabularOracle):
    """The same table, evaluated in mpmath arithmetic.

    The table is filled at the ``mpmath.mp`` precision of the first read,
    so wrap the whole computation that consumes this oracle in
    ``mpmath.workdps``.  Exact cell masses are rounded once to it; that
    equals summing the atoms in mpmath whenever it holds the sums exactly.
    """

    entropy = TableOracle.entropy

    def _fill(self) -> list[Any]:
        import mpmath as mp

        ln2 = mp.log(2)

        def entropy(masses: Iterable[int], k: int) -> Any:
            acc = mp.mpf(0)
            for mass in masses:
                if mass:
                    p = mp.ldexp(mp.mpf(mass), -k)
                    acc -= p * mp.log(p) / ln2
            return acc

        return _entropy_table(self.source, mp.mpf(0), entropy)


def conditional_entropy(oracle: EntropyOracle, a: int, b: int) -> Any:
    """H(X_A | X_B) = H(X_{A|B joint}) - H(X_B).  B may be empty."""
    subsets.check_subset(a, oracle.m)
    subsets.check_subset(b, oracle.m, allow_empty=True)
    if a & b:
        raise InvalidSubsetError(
            f"subsets {subsets.members(a)} and {subsets.members(b)} overlap"
        )
    return oracle.entropy(a | b) - oracle.entropy(b)


def mutual_information(oracle: EntropyOracle, a: int, b: int) -> Any:
    """I(X_A ; X_B) for disjoint nonempty subsets."""
    subsets.check_subset(a, oracle.m)
    subsets.check_subset(b, oracle.m)
    if a & b:
        raise InvalidSubsetError(
            f"subsets {subsets.members(a)} and {subsets.members(b)} overlap"
        )
    return oracle.entropy(a) + oracle.entropy(b) - oracle.entropy(a | b)
