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

Conditional entropies and mutual informations are differences of table
entries, which each analysis reads from ``table()`` where it needs them.

A source is validated by whole columns: one pass each for the types of
entries and coordinates, the key lengths, duplicates, each terminal's
smallest and largest symbol against its alphabet, and the probabilities
(floats, at least 0, with a finite sum).  Keys already in canonical order
are not sorted again.  Only when a column check fails does the per-atom
pass run; it decides, and an error names the first bad atom in its
order.  A source passes the column checks only if the per-atom pass
would accept it with the same atoms, in the same order, with the same
bits, so the two passes never disagree.

Entropies are in bits.  A pmf oracle fills a table of all 2^m subset
entropies on its first query, summing each marginal from its parent's
(the subset plus one terminal) in exact integers over a power-of-two
denominator.  One correctly rounded conversion then gives each cell mass
bitwise as the ``math.fsum`` of its atoms, and the entropy is an ``fsum``
over the cells, so equal sources built in different atom orders produce
bitwise-identical entropy values.  A source whose atoms fill the whole
alphabet grid (every hunt source does) keeps its marginals as dense lists
and sums them slice by slice; any other source keeps only its nonempty
cells, in a dict.  The walk reaches three subsets in four by dropping the
first or the last terminal, which for a dense list is one slice per
symbol.  Both kernels list the cells in the order they first appear in
canonical atom order, so the mpmath sums, which depend on that order, are
the same whichever kernel ran.  The entropy functions get their per-fill
constants once, and the float one evaluates a subset's terms in three
C-level passes (scale, log2, fsum).

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
import numbers
import operator
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from collections.abc import Callable, Iterable
from itertools import chain, repeat
from typing import Any, Optional, Protocol

from . import subsets
from .errors import InputError

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
        clean = _atoms_by_columns(self.atoms, self.m, sizes)
        if clean is None:  # not settled by columns: check atom by atom, naming the first bad one
            clean = _atoms_one_by_one(self.atoms, self.m, sizes)
        total = _total(clean.values())
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise InputError(f"atoms sum to {total:.6f}, not 1")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "atoms", clean)

    @classmethod
    def from_json_dict(cls, data: Any, *, renormalize: bool = False) -> "JointSource":
        check_keys(data, "source JSON", ("m", "alphabet_sizes", "atoms"))
        raw_atoms = data["atoms"]
        if not isinstance(raw_atoms, list):
            raise InputError("source JSON field 'atoms' must be a list")
        atoms = _entries_by_columns(raw_atoms)
        if atoms is None:  # not settled by columns: check entry by entry, naming the first bad one
            atoms = _entries_one_by_one(raw_atoms)
        if renormalize:
            atoms = {x: _probability(x, p) for x, p in atoms.items()}
            total = _total(atoms.values())
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


def _entries_by_columns(entries: list[Any]) -> Optional[dict[tuple[Any, ...], Any]]:
    """The atoms of the JSON ``entries``, checked by whole columns, or None
    unless every entry is a dict with only a list ``x`` of hashable items and
    an int or float ``p``, and no ``x`` repeats."""
    if {*map(type, entries)} != {dict}:
        return None
    try:
        xs = list(map(operator.itemgetter("x"), entries))
        ps = list(map(operator.itemgetter("p"), entries))
    except KeyError:
        return None
    if (
        {*map(len, entries)} != {2}  # x and p are present, so 2 keys means no other
        or {*map(type, xs)} != {list}
        or not {*map(type, ps)} <= {int, float}
    ):
        return None
    try:
        atoms = dict(zip(map(tuple, xs), ps))
    except TypeError:  # a coordinate is a list or an object
        return None
    return atoms if len(atoms) == len(entries) else None


def _entries_one_by_one(entries: list[Any]) -> dict[tuple[Any, ...], Any]:
    """The atoms of the JSON ``entries``, checked entry by entry; raises
    InputError naming the first bad entry."""
    atoms: dict[tuple[Any, ...], Any] = {}
    for entry in entries:
        check_keys(entry, "atom entry {!r}", ("x", "p"))
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
    return atoms


def _atoms_by_columns(
    atoms: Any, m: int, sizes: tuple[int, ...]
) -> Optional[dict[tuple[int, ...], float]]:
    """``atoms`` in canonical order, checked by whole columns, or None unless
    every key is a tuple of m ints inside the grid and every probability a
    finite float >= 0.  ``min`` skips a NaN that is not first, so NaN and inf
    are caught by their sum instead."""
    if type(atoms) is not dict:
        return None
    keys, probs = list(atoms), list(atoms.values())
    if (
        {*map(type, keys)} != {tuple}
        or {*map(len, keys)} != {m}
        or {*map(type, chain.from_iterable(keys))} != {int}
        or not all(min(col) >= 0 and max(col) < a for col, a in zip(zip(*keys), sizes))
        or {*map(type, probs)} != {float}
        or not min(probs) >= 0.0
        or not math.isfinite(sum(probs))
    ):
        return None
    if any(map(operator.ge, keys, keys[1:])):  # keys are distinct, so probabilities never compare
        return dict(sorted(atoms.items()))
    return atoms.copy()


def _atoms_one_by_one(atoms: Any, m: int, sizes: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """``atoms`` in canonical order, checked atom by atom; raises InputError
    naming the first bad atom in that order."""
    try:
        items = sorted(atoms.items())
    except TypeError:  # a non-int coordinate; the loop below names its atom
        items = atoms.items()
    clean: dict[tuple[int, ...], float] = {}
    for x, p in items:
        x = tuple(x)
        if len(x) != m or any(
            type(c) is not int or not 0 <= c < sizes[i] for i, c in enumerate(x)
        ):
            raise InputError(f"atom {x!r} outside the alphabet grid")
        p = _probability(x, p)
        if p < 0.0 or not math.isfinite(p):
            raise InputError(f"atom {x!r} has probability {p!r}")
        clean[x] = p
    return clean


def _probability(x: Any, p: Any) -> float:
    """``float(p)`` of atom ``x``, for a real number p (int, float, Fraction,
    Decimal, ...) other than a bool; an int past the float range is bad input."""
    if isinstance(p, bool) or not isinstance(p, (numbers.Real, Decimal)):
        raise InputError(f"atom {x!r} has probability {p!r}")
    try:
        return float(p)
    except OverflowError:
        raise InputError(f"atom {x!r} has a probability too large for a float") from None
    except ValueError:  # a signalling NaN Decimal
        raise InputError(f"atom {x!r} has probability {p!r}") from None


def _total(probabilities: Iterable[float]) -> float:
    """``math.fsum`` of the probabilities, or inf where its partial sums
    overflow, so that a total past the float range reads as bad input."""
    try:
        return math.fsum(probabilities)
    except OverflowError:
        return math.inf


def check_keys(
    data: Any, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Raise InputError unless ``data`` is a JSON object with every
    ``required`` key and no key outside ``required`` and ``optional``.

    The error names the object by ``what``, in which ``{!r}`` stands for
    the object itself, and the first missing key in ``required`` order or
    else the first stray key in the object's own order.
    """
    if not isinstance(data, dict):
        raise InputError(f"{what.format(data)} must be an object")
    for key in required:
        if key not in data:
            raise InputError(f"{what.format(data)} missing {key!r}")
    allowed = required + optional
    for key in data:
        if key not in allowed:
            *head, last = map(repr, allowed)
            raise InputError(
                f"{what.format(data)} has key {key!r}; it takes only {', '.join(head)} and {last}"
            )


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
    source: JointSource, zero: Any, kernel: Callable[[int], Callable[[Iterable[int]], Any]]
) -> list[Any]:
    """All 2^m subset entropies: ``kernel(k)`` gives the function that maps
    one subset's nonzero cell masses to its entropy.

    Masses are exact integers in units of 2**-k, cells in order of first
    appearance in canonical atom order.  Depth first, each subset's cells
    merge from its parent's, which adds to the subset its last terminal if
    it lacks that, else its first terminal if it lacks that, else the
    largest terminal it lacks.  So a subset holding the first and the last
    terminal also holds every terminal after the one dropped to reach it.
    Two kernels merge:

    * A source whose atoms fill the whole alphabet grid keeps each subset's
      cells as a dense list in mixed radix, terminal 1 the most significant
      digit.  Canonical atom order is that order, and dropping a digit
      keeps it, so the list order is the first-appearance order.  Dropping
      terminal j sums its |X_j| slices at the stride of the terminals after
      j: 1 for the last terminal (one stepped slice per symbol), the rest
      of the list for the first (one contiguous slice per symbol), and for
      any other the same for every subset, so the fill computes it once.
      Only a source with a zero atom has zero cells to filter out.
    * Any other source keeps a dict keyed by the mixed-radix code of the
      outcome with dropped digits zeroed, so it never holds an empty cell;
      a dense grid for a 2-atom source would cost 3^m.

    Both hand the entropy function the same masses in the same order.
    """
    ratios = [p.as_integer_ratio() for p in source.atoms.values()]
    k = max(d.bit_length() for _, d in ratios) - 1
    masses = [n << (k + 1 - d.bit_length()) for n, d in ratios]
    sizes = source.alphabet_sizes
    m = source.m
    table = [zero] * (1 << m)
    entropy = kernel(k)
    add = operator.add

    nonzero: Callable[[Any], Iterable[int]]
    if len(masses) == math.prod(sizes):
        strides = [math.prod(sizes[j + 1 :]) for j in range(m)]

        def merge(cells: list[int], j: int) -> list[int]:
            a = sizes[j]
            s = strides[j] if j else len(cells) // a  # terminal 1 is the most significant digit
            if s == 1:
                acc: Any = cells[::a]
                for r in range(1, a):
                    acc = map(add, acc, cells[r::a])
                return list(acc)
            step = a * s
            if s <= len(cells) // step:  # loop over offsets or blocks, whichever is fewer
                merged = [0] * (len(cells) // a)
                for t in range(s):
                    acc = cells[t::step]
                    for r in range(t + s, step, s):
                        acc = map(add, acc, cells[r::step])
                    merged[t::s] = acc
            else:
                merged = []
                for b in range(0, len(cells), step):
                    acc = cells[b : b + s]
                    for r in range(b + s, b + step, s):
                        acc = map(add, acc, cells[r : r + s])
                    merged += acc
            return merged

        root: Any = masses
        nonzero = (lambda cells: cells) if all(masses) else (lambda cells: filter(None, cells))
    else:
        radix = [math.prod(sizes[:i]) for i in range(m + 1)]

        def merge(cells: dict[int, int], j: int) -> dict[int, int]:
            low, high = radix[j], radix[j + 1]
            merged: dict[int, int] = {}
            for code, mass in cells.items():
                code -= code % high - code % low
                merged[code] = merged.get(code, 0) + mass
            return merged

        root = {sum(c * r for c, r in zip(x, radix)): n for x, n in zip(source.atoms, masses)}
        nonzero = lambda cells: filter(None, cells.values())

    first, last = 1, 1 << (m - 1)

    def walk(subset: int, start: int, cells: Any) -> None:
        # subset holds the first and the last terminal and every one from start on
        table[subset] = entropy(nonzero(cells))
        table[subset & ~last] = entropy(nonzero(merge(cells, m - 1)))
        without_first(subset & ~first, merge(cells, 0))
        for j in range(start, m - 1):
            walk(subset & ~(1 << j), j + 1, merge(cells, j))

    def without_first(subset: int, cells: Any) -> None:
        # subset holds the last terminal; its cells are freed before the walk goes deeper
        table[subset] = entropy(nonzero(cells))
        if subset != last:
            table[subset & ~last] = entropy(nonzero(merge(cells, m - 1)))

    walk(subsets.full_mask(m), 1, root)
    return table


def _float_entropy(k: int) -> Callable[[Iterable[int]], float]:
    """Entropy in bits of nonzero masses in units of 2**-k: each p rounded
    once from its mass, then ``0.0 - fsum(p * log2(p))``."""
    if k <= 1022:  # every p is normal, so scaling rounds as the division does
        to_p, unit = operator.mul, repeat(2.0**-k)  # int * float converts the int as float() does
    else:
        to_p, unit = operator.truediv, repeat(1 << k)
    mul, log2, fsum = operator.mul, math.log2, math.fsum

    def entropy(masses: Iterable[int]) -> float:
        probs = list(map(to_p, masses, unit))
        return 0.0 - fsum(map(mul, probs, map(log2, probs)))

    return entropy


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

    Each entry is bitwise what mpmath's own operators give at the context
    precision: ``acc -= p * mp.log(p) / mp.log(2)`` over the cells, from
    ``mpf(0)``, with ``p = mp.ldexp(mp.mpf(mass), -k)``.  The fill runs
    the same ``mpmath.libmp`` calls, with the same rounding, on raw mpf
    tuples, and builds one ``mpf`` per subset.
    """

    entropy = TableOracle.entropy

    def _fill(self) -> list[Any]:
        from mpmath import mp
        from mpmath.libmp import (
            from_man_exp, fzero, mpf_div, mpf_log, mpf_mul, mpf_sub, round_nearest as rnd,
        )

        prec = mp.prec
        ln2 = mp.log(2)._mpf_
        make_mpf = mp.make_mpf

        def kernel(k: int) -> Callable[[Iterable[int]], Any]:
            def entropy(masses: Iterable[int]) -> Any:
                acc = fzero
                for mass in masses:
                    p = from_man_exp(mass, -k, prec, rnd)
                    term = mpf_div(mpf_mul(p, mpf_log(p, prec, rnd), prec, rnd), ln2, prec, rnd)
                    acc = mpf_sub(acc, term, prec, rnd)
                return make_mpf(acc)

            return entropy

        return _entropy_table(self.source, mp.mpf(0), kernel)
