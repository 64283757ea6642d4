"""The result records and ``Partition`` are immutable NamedTuples.

A frozen dataclass costs its generated methods' ``exec`` on every import,
many times a NamedTuple's cost, so each result record must stay a
``tuple`` subclass with the dataclass behaviour callers rely on.
"""

import pytest

from skomni.capacity import CapacityReport, MinimizerVerdict, MinimizerWitness
from skomni.omnivocality import ConjectureProbe, EvidenceRow, OmnivocalityVerdict, SilentWitness
from skomni.partitions import Partition
from skomni.silent_rate import RateConstraint, RateRegion, RateSolution, SilentCapacityReport
from skomni.simplex import CoverSolution

RECORDS = [
    CapacityReport, MinimizerWitness, MinimizerVerdict,
    SilentWitness, EvidenceRow, OmnivocalityVerdict, ConjectureProbe,
    RateConstraint, RateRegion, RateSolution, SilentCapacityReport,
    CoverSolution, Partition,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_result_record_is_an_immutable_named_tuple(cls):
    fields = {name: i for i, name in enumerate(cls.__annotations__)}
    record = cls(**fields)
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, -1)
    assert getattr(record, first) == 0
    assert repr(record).startswith(f"{cls.__name__}({first}=0")
    twin = cls(**fields)
    assert twin == record and hash(twin) == hash(record)
    assert cls(**{**fields, first: -1}) != record
