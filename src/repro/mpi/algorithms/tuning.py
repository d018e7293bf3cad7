"""Size/rank-count thresholds steering collective algorithm selection.

The crossover structure mirrors MPICH/MVAPICH2-style selection logic:
latency-bound (small message, many short rounds are fine as long as there
are few of them) versus bandwidth-bound (large message, total bytes on
the critical path dominate).  The class defaults below are the flat-IB
constants PR 1 calibrated; since the topology subsystem landed they are
*fallbacks only* — a :class:`~repro.mpi.communicator.Communicator`
built without an explicit tuning derives one from the cluster's actual
topology and :class:`~repro.hw.params.IbParams` via
:mod:`repro.mpi.algorithms.autotune`, so a fat tree, multi-rail fabric
or torus each get their own crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["CollectiveTuning"]

_KB = 1024


@dataclass(frozen=True)
class CollectiveTuning:
    """Thresholds and overrides for the collective algorithm selector.

    All sizes are in bytes of one rank's contribution.  ``force_*``
    fields pin a specific algorithm by name regardless of size (used by
    benchmarks to hold the seed baseline fixed, and available to users
    who have measured their own workload).
    """

    #: Allreduce payloads at or above this use the ring
    #: (reduce-scatter + allgather) schedule — bandwidth-optimal:
    #: 2·(P−1)/P message volumes versus recursive doubling's ⌈log2 P⌉
    #: full volumes.  Below it, recursive doubling's ⌈log2 P⌉ rounds win
    #: on latency.
    allreduce_ring_min_bytes: int = 64 * _KB

    #: Allgather blocks at or below this (per rank, equal-size,
    #: power-of-two communicators only) use recursive doubling —
    #: ⌈log2 P⌉ rounds instead of the ring's P−1, same total bytes.
    #: Above it (or whenever blocks are unequal / P is not a power of
    #: two) the bandwidth-optimal ring is kept.
    allgather_rd_max_bytes: int = 256 * _KB

    #: Recursive-doubling allgather needs enough ranks to amortize its
    #: packed rounds crossing the eager threshold: below this many ranks
    #: it only runs for blocks small enough that every packed exchange
    #: stays eager (``allgather_rd_small_max_bytes``).
    allgather_rd_min_ranks: int = 8

    #: Small-block exception to ``allgather_rd_min_ranks`` (see above).
    #: Autotune derives this as half the eager threshold — the largest
    #: block whose packed doubling rounds all stay eager — instead of
    #: the constant the flat-IB calibration baked in.
    allgather_rd_small_max_bytes: int = 8 * _KB

    #: Allgather blocks at or below this on *non-power-of-two*
    #: communicators use the Bruck algorithm (⌈log2 P⌉ rounds for any
    #: P) instead of falling back to the P−1-step ring.
    allgather_bruck_max_bytes: int = 8 * _KB

    #: Use the pairwise (XOR-partner) exchange for alltoall on
    #: power-of-two communicators; non-power-of-two always uses the
    #: shift schedule.
    alltoall_pairwise: bool = True

    #: Alltoall blocks at or below this use the Bruck packed schedule —
    #: ⌈log2 P⌉ rounds moving (P/2)·log2 P blocks instead of P−1 rounds
    #: of one block: the winning trade when per-round latency dominates,
    #: and the only sub-linear schedule on non-power-of-two
    #: communicators.  0 disables it (the flat-IB constants predate the
    #: schedule; autotune derives a real crossover per fabric).
    alltoall_bruck_max_bytes: int = 0

    #: Broadcast payloads at or above this stream through the pipelined
    #: (segmented chain) schedule instead of the binomial tree — the
    #: chain approaches one nβ instead of ⌈log2 P⌉·nβ once segments
    #: amortize their fixed costs.  ``None`` disables pipelining (the
    #: pre-engine behaviour, kept as the constants' default).
    bcast_pipeline_min_bytes: Optional[int] = None

    #: Reduce payloads at or above this use the Rabenseifner
    #: reduce-scatter + gather schedule — ≈2·nβ on the critical path
    #: versus the binomial tree's ⌈log2 P⌉·nβ.  Any communicator size:
    #: non-powers of two fold the excess ranks into the nearest
    #: power-of-two participant set first (one extra full-size round,
    #: which the autotuned crossover accounts for).  ``None`` keeps the
    #: seed binomial tree everywhere.
    reduce_raben_min_bytes: Optional[int] = None

    #: Allreduce payloads at or above this decompose hierarchically
    #: (intra-domain reduce-scatter, inter-domain ring, intra-domain
    #: allgather) when the communicator's placement is fragmented
    #: across an oversubscribed topology.  ``None`` disables the
    #: hierarchical path (always, on flat fabrics).
    allreduce_hier_min_bytes: Optional[int] = None

    #: Same gate for the hierarchical (domain-leader) broadcast.
    bcast_hier_min_bytes: Optional[int] = None

    #: Allgather blocks at or above this decompose hierarchically
    #: (gather to domain leaders → leader ring of domain blocks →
    #: intra-domain broadcast) on fragmented oversubscribed placements.
    #: ``None`` disables (always, on flat fabrics).
    allgather_hier_min_bytes: Optional[int] = None

    #: Same gate for the hierarchical alltoall (domain super-bucket
    #: exchange between leaders); uniform block sizes only.
    alltoall_hier_min_bytes: Optional[int] = None

    #: One-sided (RMA) puts/accumulates at or below this ride the eager
    #: protocol: one wire transfer with the payload inlined behind the
    #: header, landed through a bounce copy on the target host.  Above
    #: it the origin pays an rkey/rendezvous header round-trip and the
    #: payload is written **directly** into the registered window memory
    #: (zero-copy RDMA).  Autotune derives the crossover — where the
    #: target-side bounce copy starts costing more than the extra
    #: round-trip — from the fabric's α/β, so a high-latency fabric
    #: keeps eager puts longer.
    rma_eager_max_bytes: int = 8 * _KB

    #: Pin an algorithm by name (see ``SCHEDULES`` in
    #: :mod:`repro.mpi.algorithms.selector`); ``None`` = size-adaptive.
    force_allreduce: Optional[str] = None
    force_allgather: Optional[str] = None
    force_alltoall: Optional[str] = None
    force_bcast: Optional[str] = None
    force_reduce: Optional[str] = None

    def __post_init__(self) -> None:
        for name in (
            "allreduce_ring_min_bytes",
            "allgather_rd_max_bytes",
            "allgather_rd_min_ranks",
            "allgather_rd_small_max_bytes",
            "allgather_bruck_max_bytes",
            "alltoall_bruck_max_bytes",
            "rma_eager_max_bytes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in (
            "allreduce_hier_min_bytes",
            "bcast_hier_min_bytes",
            "bcast_pipeline_min_bytes",
            "reduce_raben_min_bytes",
            "allgather_hier_min_bytes",
            "alltoall_hier_min_bytes",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 or None")

    def with_(self, **kwargs) -> "CollectiveTuning":
        """Functional update helper (mirrors ``HWParams.with_``)."""
        return replace(self, **kwargs)


#: Tuning that pins every collective to the pre-engine (seed) algorithm:
#: allreduce = binomial reduce + binomial bcast, allgather = ring,
#: alltoall = shift, bcast = binomial, reduce = binomial.  Benchmarks
#: use this as the fixed baseline.
SEED_TUNING = CollectiveTuning(
    force_allreduce="reduce_bcast",
    force_allgather="ring",
    force_alltoall="shift",
    force_bcast="binomial",
    force_reduce="binomial",
)

__all__.append("SEED_TUNING")
