"""When must every terminal talk to reach secret-key capacity?

A terminal subset D can stay silent without loss iff the restricted
capacity with speakers T = {1..m} minus D equals the unrestricted
capacity.  Omnivocality (all m terminals talking) is *necessary* iff no
nonempty D works.  Three decision routes are provided:

* ``verdict_by_condition``: if the singleton partition is the unique
  surplus minimizer, omnivocality is necessary.  The converse fails for
  m >= 4, so failure of the condition returns Unknown.
* ``verdict_for_three_terminals``: for m = 3 the condition is an exact
  characterization; when it fails, an explicit silent set is constructed
  from the witness set W = {k : surplus(S) >= surplus of the partition
  cutting k off}.  |W| >= 2 lets a single speaker carry the protocol (two
  silent terminals from W); |W| = 1 silences exactly that terminal.
* ``verdict_by_lp``: ``restricted_capacity`` of each leave-one-out speaker
  set is compared against the unrestricted capacity.  A scheme for speaker
  set T is also a scheme for any larger speaker set, so restricted capacity
  is monotone in T; if any proper silent set achieves capacity then so
  does some single silent terminal, and checking the m leave-one-out sets
  is exhaustive.  The verdict is exact whenever the oracle is.

``run_routes`` is the one place that chooses the routes: from the model
alone, it runs every route that applies, at float or extended precision,
and two routes that reach different conclusive statuses are an internal
inconsistency.  Both the CLI and ``probe_conjecture`` go through it.  The
probe combines the condition with the LP route and classifies the
outcome; a candidate counterexample (condition fails but the LP route
still says necessary) is re-checked at ``REVERIFY_DPS`` digits before
being reported, so float artifacts do not survive into hunt logs.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, NamedTuple, Optional, Union

from . import subsets
from .capacity import (
    DEFAULT_TIE_TOL,
    MinimizerStatus,
    MinimizerVerdict,
    leave_one_out_capacities,
    singleton_minimizer_check,
)
from .errors import InputError, InternalInconsistencyError, SizeLimitError
from .generators import random_source
from .pin import PinGraph, PinOracle
from .sources import EntropyOracle, ExtendedPrecisionOracle, JointSource, TabularOracle

#: Digits of the hunt's re-check of a tabular candidate.
REVERIFY_DPS = 60

#: mpmath's default 15 digits are a float's 53 bits, so a smaller ``dps``
#: would re-check a float run at no more precision than it had.
FLOAT_DPS = 15


class OmniStatus(str, enum.Enum):
    NECESSARY = "Necessary"
    NOT_NECESSARY = "NotNecessary"
    UNKNOWN = "Unknown"
    AMBIGUOUS = "NumericallyAmbiguous"


class Construction(str, enum.Enum):
    """How a NotNecessary verdict silences terminals."""

    SINGLE_SPEAKER = "single-speaker"  # one terminal talks, two stay silent
    SINGLE_SILENT = "single-silent"  # one terminal stays silent
    LP_EQUALITY = "lp-equality"  # a leave-one-out LP matched the capacity


class SilentWitness(NamedTuple):
    silent: int
    construction: Construction


class EvidenceRow(NamedTuple):
    speakers: int
    silent_capacity: Any
    capacity: Any
    gap: Any


class OmnivocalityVerdict(NamedTuple):
    status: OmniStatus
    method: str
    silent_witness: Optional[SilentWitness]
    evidence: tuple[EvidenceRow, ...]
    minimizer: Optional[MinimizerVerdict]
    #: For the three-terminal route: mask of terminals whose cut surplus
    #: does not exceed the singleton surplus (any two of them may be the
    #: silent pair when there are at least two).
    w_set: Optional[int] = None


def _require_m(oracle: EntropyOracle, method: str) -> int:
    m = oracle.m
    if m == 2:
        raise SizeLimitError("omnivocality is never necessary for m = 2")
    if m < 2:
        raise SizeLimitError(f"{method} needs m >= 3")
    return m


def verdict_by_condition(
    oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL
) -> OmnivocalityVerdict:
    """Sufficient condition: unique singleton minimizer forces omnivocality."""
    _require_m(oracle, "condition")
    mv = singleton_minimizer_check(oracle, tie_tol)
    if mv.status is MinimizerStatus.UNIQUE:
        status = OmniStatus.NECESSARY
    elif mv.status is MinimizerStatus.AMBIGUOUS:
        status = OmniStatus.AMBIGUOUS
    else:
        status = OmniStatus.UNKNOWN
    return OmnivocalityVerdict(status, "condition", None, (), mv)


def verdict_for_three_terminals(
    oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL
) -> OmnivocalityVerdict:
    """Exact decision for m = 3, with an explicit silent set when possible."""
    m = _require_m(oracle, "three-terminal decision")
    if m != 3:
        raise SizeLimitError("three-terminal decision needs m = 3")
    mv = singleton_minimizer_check(oracle, tie_tol)
    if mv.status is MinimizerStatus.UNIQUE:
        return OmnivocalityVerdict(OmniStatus.NECESSARY, "three-terminal", None, (), mv)
    if mv.status is MinimizerStatus.AMBIGUOUS:
        return OmnivocalityVerdict(OmniStatus.AMBIGUOUS, "three-terminal", None, (), mv)

    # The check has a witness here.  The surplus of cutting k off is
    # h(k) + h(M - k) - h(M), bitwise the 2-cell surplus of that cut.
    band = 0 if oracle.exact else tie_tol
    h = oracle.table()
    s = mv.witness.singleton_surplus
    w_mask = 0
    for k in (1, 2, 4):
        if h[k] + h[7 ^ k] - h[7] - s <= band:
            w_mask |= k
    w_members = subsets.members(w_mask)
    if len(w_members) >= 2:
        silent = (1 << (w_members[-1] - 1)) | (1 << (w_members[-2] - 1))
        witness = SilentWitness(silent, Construction.SINGLE_SPEAKER)
    elif len(w_members) == 1:
        witness = SilentWitness(w_mask, Construction.SINGLE_SILENT)
    else:
        raise InternalInconsistencyError(
            "singleton partition is not the unique minimizer, "
            "but no cut surplus falls below the singleton surplus"
        )
    return OmnivocalityVerdict(
        OmniStatus.NOT_NECESSARY, "three-terminal", witness, (), mv, w_set=w_mask
    )


def verdict_by_lp(
    oracle: EntropyOracle, tie_tol: float = DEFAULT_TIE_TOL
) -> OmnivocalityVerdict:
    """Compare capacity against every leave-one-out ``restricted_capacity``.

    The values come from ``leave_one_out_capacities``: for an exact oracle
    its search for the speakers M - u starts at the capacity's minimizing
    cells with u dropped, and every value equals ``restricted_capacity``.
    """
    m = _require_m(oracle, "LP comparison")
    full = subsets.full_mask(m)
    c, restricted_values = leave_one_out_capacities(oracle)
    band = 0 if oracle.exact else tie_tol
    rows = []
    equality: Optional[int] = None
    ambiguous = False
    for u, restricted in enumerate(restricted_values, 1):
        speakers = full & ~(1 << (u - 1))
        gap = c - restricted
        rows.append(EvidenceRow(speakers, restricted, c, gap))
        if gap < -band:
            raise InternalInconsistencyError(
                f"restricted capacity exceeds capacity by {-gap} "
                f"with terminal {u} silent"
            )
        if gap == 0:
            if equality is None:
                equality = u
        elif gap <= band:
            ambiguous = True
    evidence = tuple(rows)
    if equality is not None:
        witness = SilentWitness(1 << (equality - 1), Construction.LP_EQUALITY)
        return OmnivocalityVerdict(OmniStatus.NOT_NECESSARY, "lp", witness, evidence, None)
    if ambiguous:
        return OmnivocalityVerdict(OmniStatus.AMBIGUOUS, "lp", None, evidence, None)
    return OmnivocalityVerdict(OmniStatus.NECESSARY, "lp", None, evidence, None)


class Classification(str, enum.Enum):
    CONSISTENT_PROVEN = "ConsistentProven"
    CONSISTENT_CONVERSE = "ConsistentConverse"
    CANDIDATE = "CandidateCounterexample"
    INCONCLUSIVE = "Inconclusive"


class ConjectureProbe(NamedTuple):
    condition: MinimizerStatus
    lp: OmniStatus
    classification: Classification
    capacity: Any
    gaps: tuple[Any, ...]
    reverified: bool


def _classify(condition: MinimizerStatus, lp: OmniStatus) -> Classification:
    if condition is MinimizerStatus.AMBIGUOUS or lp is OmniStatus.AMBIGUOUS:
        return Classification.INCONCLUSIVE
    if condition is MinimizerStatus.UNIQUE:
        return Classification.CONSISTENT_PROVEN
    if lp is OmniStatus.NOT_NECESSARY:
        return Classification.CONSISTENT_CONVERSE
    return Classification.CANDIDATE


def as_oracle(model: Union[JointSource, PinGraph, EntropyOracle]) -> EntropyOracle:
    """The float oracle of a pmf, the exact oracle of a PIN graph; oracles pass through."""
    if isinstance(model, JointSource):
        return TabularOracle(model)
    if isinstance(model, PinGraph):
        return PinOracle(model)
    return model


def run_routes(
    model: Union[JointSource, PinGraph, EntropyOracle],
    tie_tol: float = DEFAULT_TIE_TOL,
    dps: int = 0,
) -> tuple[OmniStatus, list[OmnivocalityVerdict]]:
    """Run every route that applies to one model and check that they agree.

    The condition and the LP route always run, in that order, and the
    three-terminal route follows when m = 3.  With ``dps`` > 0 a pmf is
    analyzed on an ``ExtendedPrecisionOracle`` at an mpmath working
    precision of ``dps`` decimal digits, with the band 10^-(dps // 2) in
    place of ``tie_tol``; PIN graphs and given oracles ignore ``dps``.
    Returns the overall status and the verdicts in route order.  The
    overall status is the conclusive status the routes reached, else
    NumericallyAmbiguous, which is then the LP route's status; two routes
    with different conclusive statuses raise ``InternalInconsistencyError``.
    """
    if dps < 0 or 0 < dps <= FLOAT_DPS:
        raise InputError(
            f"dps must be >= 0, and 0 (float arithmetic) or more than "
            f"a float's {FLOAT_DPS} digits, got {dps}"
        )
    # Looked up per call, so that a patched module attribute takes effect.
    routes = [verdict_by_condition, verdict_by_lp]
    if model.m == 3:
        routes.append(verdict_for_three_terminals)
    if dps and isinstance(model, JointSource):
        import mpmath

        with mpmath.workdps(dps):
            oracle = ExtendedPrecisionOracle(model)
            band = mpmath.mpf(10) ** -(dps // 2)
            verdicts = [route(oracle, band) for route in routes]
    else:
        oracle = as_oracle(model)
        verdicts = [route(oracle, tie_tol) for route in routes]
    conclusive = {v.status for v in verdicts} & {OmniStatus.NECESSARY, OmniStatus.NOT_NECESSARY}
    if len(conclusive) > 1:
        raise InternalInconsistencyError(
            "methods disagree: " + ", ".join(f"{v.method}={v.status.value}" for v in verdicts)
        )
    if conclusive:
        return conclusive.pop(), verdicts
    return OmniStatus.AMBIGUOUS, verdicts


def probe_conjecture(
    model: Union[JointSource, PinGraph, EntropyOracle],
    tie_tol: float = DEFAULT_TIE_TOL,
) -> ConjectureProbe:
    """Run ``run_routes`` on one source (condition and LP at m >= 4) and classify.

    For m >= 4 the condition is not necessary: a source whose singleton
    partition is *not* the unique minimizer, yet where every leave-one-out
    restricted capacity still falls short of capacity, is a counterexample
    to its converse, reported as a candidate.  A tabular candidate is
    re-checked by ``run_routes`` at ``REVERIFY_DPS`` digits, the same run as
    ``skomni omnivocality --dps 60``; the re-checked statuses replace the
    float ones, so a candidate that was a rounding artifact is demoted
    (usually to Inconclusive, since extended precision cannot confirm an
    exact tie either).  A unique
    singleton minimizer with a silent terminal achieving capacity raises
    ``InternalInconsistencyError``.
    """
    if model.m < 4:
        raise SizeLimitError("conjecture probe targets m >= 4")
    _, (condition, lp) = run_routes(model, tie_tol)
    classification = _classify(condition.minimizer.status, lp.status)
    reverified = classification is Classification.CANDIDATE and isinstance(model, JointSource)
    if reverified:
        _, (condition, lp) = run_routes(model, tie_tol, REVERIFY_DPS)
        classification = _classify(condition.minimizer.status, lp.status)
    return ConjectureProbe(
        condition=condition.minimizer.status,
        lp=lp.status,
        classification=classification,
        capacity=lp.evidence[0].capacity,
        gaps=tuple(row.gap for row in lp.evidence),
        reverified=reverified,
    )


def atoms_digest(source: JointSource) -> str:
    """Short stable fingerprint of a source's pmf."""
    payload = json.dumps(source.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def hunt_record(
    m: int,
    alphabet_sizes: tuple[int, ...],
    base_seed: int,
    trial: int,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> dict[str, Any]:
    """One self-contained hunt trial: generate, probe, serialize.

    Pure function of its arguments, so trials can run in any process pool
    and still produce identical records.  Candidate records embed the full
    source so they can be re-examined without the original seed.
    """
    seed = base_seed + trial
    source = random_source(m, alphabet_sizes, seed)
    probe = probe_conjecture(source, tie_tol)
    record: dict[str, Any] = {
        "trial": trial,
        "seed": seed,
        "m": m,
        "alphabet_sizes": list(alphabet_sizes),
        "atoms_digest": atoms_digest(source),
        "condition": probe.condition.value,
        "lp": probe.lp.value,
        "classification": probe.classification.value,
        "capacity": float(probe.capacity),
        "gaps": [float(g) for g in probe.gaps],
    }
    if probe.classification is Classification.CANDIDATE:
        record["source"] = source.to_json_dict()
    return record
