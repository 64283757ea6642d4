"""Terminal subsets as integer bitmasks.

Terminals are numbered 1..m.  A subset is an int whose bit i-1 is set when
terminal i belongs to it, so subset algebra is plain bit twiddling and
dictionaries/caches can be indexed by the mask directly.  All parsing and
validation of user-facing subset literals ("1,3") lives here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import InputError, SizeLimitError

# The package's size caps.  The PIN capacity reads no table and is bound by
# MAX_TERMINALS only; every other analysis reads the table of subset
# entropies through ``capacity.speaker_table``, which checks MAX_TABLE_M.

#: Terminals any mask-based structure may use: the entropy table holds
#: 2^m entries, 16.8 million at m = 24.
MAX_TERMINALS = 24

#: Terminals for every analysis that reads the entropy table: capacity,
#: the minimizer check, the restricted capacity, the rate region and the
#: hunt.  A dense source fills its table at 3^m cell sums, close to 3x the
#: time per added terminal: ``capacity`` on a full-support binary source
#: takes 0.29 s at m = 12, 1.9 s at 14 and 16 s at 16.  At m = 16,
#: ``omnivocality`` takes 0.22-0.41 s on a 2-atom source and 0.08-0.13 s
#: on K_16 (Python 3.11.7, 2-core x86-64, in process).
MAX_TABLE_M = 16

#: Outcomes in a hunt source's alphabet grid: ``random_source`` builds
#: every cell.  At 32^4 = 2^20 cells one m = 4 trial peaks about 560 MB
#: above the interpreter and takes about 16 s (Python 3.11, x86-64).
MAX_GRID_CELLS = 1 << 20


def check_terminal_count(m: object) -> None:
    """Check a model's m: non-int or below 2 is bad input, above MAX_TERMINALS a size limit."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m={m!r} outside 2..{MAX_TERMINALS}")
    if m > MAX_TERMINALS:
        raise SizeLimitError(f"m={m} outside 2..{MAX_TERMINALS}")


def check_table_m(m: int) -> None:
    """Raise SizeLimitError unless an entropy table over m terminals is within MAX_TABLE_M."""
    if m > MAX_TABLE_M:
        raise SizeLimitError(f"entropy-table analyses support m <= {MAX_TABLE_M}")


def full_mask(m: int) -> int:
    return (1 << m) - 1


def bit(terminal: int) -> int:
    return 1 << (terminal - 1)


def mask_of(terminals: Iterable[int], m: int) -> int:
    """Bitmask of the given 1-indexed terminals, validated against 1..m."""
    mask = 0
    for t in terminals:
        if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= m:
            raise InputError(f"terminal {t!r} outside 1..{m}")
        mask |= bit(t)
    return mask


def members(mask: int) -> list[int]:
    """1-indexed terminals of the mask, ascending."""
    out = []
    t = 1
    while mask:
        if mask & 1:
            out.append(t)
        mask >>= 1
        t += 1
    return out


def check_mask_m(m: int) -> None:
    """Raise SizeLimitError unless the m of a mask or partition is an int in 1..MAX_TERMINALS."""
    if not isinstance(m, int) or not 1 <= m <= MAX_TERMINALS:
        raise SizeLimitError(f"m={m!r} outside 1..{MAX_TERMINALS}")


def check_subset(mask: int, m: int) -> None:
    """Raise unless mask is a nonempty subset of {1..m}."""
    check_mask_m(m)
    if type(mask) is not int:
        raise InputError(f"subset mask {mask!r} is not an int")
    if mask < 0:
        raise InputError("subset mask must be nonnegative")
    if mask & ~full_mask(m):
        raise InputError(f"subset {members(mask)} has terminals beyond m={m}")
    if mask == 0:
        raise InputError("empty terminal subset not allowed here")


def iter_submasks(mask: int) -> Iterator[int]:
    """All nonempty submasks of mask in ascending numeric order."""
    sub = (-mask) & mask
    while sub:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def parse_subset(text: str, m: int) -> int:
    """Parse a comma-separated subset literal such as "1,3"."""
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise InputError(f"bad subset literal {text!r}")
    seen: set[int] = set()
    for p in parts:
        try:
            t = int(p)
        except ValueError:
            raise InputError(f"bad subset literal {text!r}: {p!r} is not an integer") from None
        if t in seen:
            raise InputError(f"bad subset literal {text!r}: terminal {t} repeated")
        seen.add(t)
    return mask_of(seen, m)


def format_subset(mask: int) -> str:
    return ",".join(str(t) for t in members(mask))
