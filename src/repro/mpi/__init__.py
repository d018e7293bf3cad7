"""Simulated MPI (the MVAPICH2-like baseline library)."""

from .algorithms import (
    SCHEDULES,
    AlgorithmSelector,
    CollectiveTuning,
    SEED_TUNING,
    autotune_tuning,
    derive_tuning,
)
from .communicator import (
    COMM_TYPE_LOCALITY,
    COMM_TYPE_NODE,
    HEADER_BYTES,
    Communicator,
    MpiContext,
    Request,
)
from .datatypes import ReduceOp, payload_array, snapshot
from .errors import MpiError, RankError, RmaError, TagError, TruncationError
from .group import GROUP_EMPTY, UNDEFINED, Group
from .rma import Window, WinContext
from .job import (
    MpiJob,
    block_placement,
    pod_cyclic_placement,
    round_robin_placement,
)
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = [
    "SCHEDULES",
    "AlgorithmSelector",
    "CollectiveTuning",
    "SEED_TUNING",
    "autotune_tuning",
    "derive_tuning",
    "Communicator",
    "MpiContext",
    "Request",
    "HEADER_BYTES",
    "Group",
    "GROUP_EMPTY",
    "UNDEFINED",
    "COMM_TYPE_NODE",
    "COMM_TYPE_LOCALITY",
    "ReduceOp",
    "payload_array",
    "snapshot",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiJob",
    "block_placement",
    "round_robin_placement",
    "pod_cyclic_placement",
    "MpiError",
    "RankError",
    "RmaError",
    "TagError",
    "TruncationError",
    "Window",
    "WinContext",
]
