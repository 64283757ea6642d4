"""Secret-key capacity and omnivocality analysis for multiterminal sources."""

from .capacity import (
    CapacityReport,
    MinimizerStatus,
    MinimizerVerdict,
    restricted_capacity,
    singleton_minimizer_check,
    sk_capacity,
)
from .errors import (
    InputError,
    InternalInconsistencyError,
    InvalidPartitionError,
    InvalidSubsetError,
    SizeLimitError,
    SkomniError,
)
from .generators import random_source
from .omnivocality import (
    Classification,
    ConjectureProbe,
    Construction,
    OmniStatus,
    OmnivocalityVerdict,
    probe_conjecture,
    verdict_by_condition,
    verdict_by_lp,
    verdict_for_three_terminals,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    isolating_partition,
    singleton_partition,
)
from .pin import (
    PinGraph,
    PinOracle,
    complete_graph,
    load_pin_graph,
    partition_crossing,
    pin_capacity,
    strength_quotient,
)
from .silent_rate import (
    RateConstraint,
    RateRegion,
    SilentCapacityReport,
    build_rate_region,
    min_sum_rate,
    silent_capacity,
)
from .sources import (
    ExtendedPrecisionOracle,
    JointSource,
    TabularOracle,
    load_source,
    marginal,
)

__version__ = "0.1.0"
