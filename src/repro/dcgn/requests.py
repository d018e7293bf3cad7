"""Communication-request descriptors flowing through DCGN's queues.

With a span recorder attached (``sim.spans``), each request's trip
through the runtime is recorded as ``dcgn.req`` instants named after
the stage it reached, on the track of its virtual rank
(``dcgn.v<vrank>``):

* CPU kernels: ``issued`` → ``enqueued`` → ``picked`` (by the comm
  thread) → ``completed`` → ``returned`` (the kernel noticed);
* GPU kernels: ``posted`` (mailbox write) → ``harvested`` (host read it
  over PCIe) → ``enqueued`` → ``picked`` → ``completed`` →
  ``written_back`` (completion flag written to the device).

These are the stages of the paper's §5.2 overhead breakdown
(:mod:`repro.bench.breakdown`) and Figure 2 dataflow;
:func:`request_stages` reads them back per request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..sim.core import Event

__all__ = [
    "CommRequest", "CommStatus", "P2P_OPS", "COLLECTIVE_OPS", "RMA_OPS",
    "record_stage", "request_stages",
]

P2P_OPS = frozenset({"send", "recv"})
COLLECTIVE_OPS = frozenset(
    {"barrier", "bcast", "scatter", "gather", "allreduce", "reduce",
     "split"}
)
#: One-sided window operations: handled entirely by the *origin* comm
#: thread (no staging, no matching, no target-side request).
RMA_OPS = frozenset({"rma_put", "rma_get", "rma_accumulate"})

_req_ids = itertools.count()


@dataclass(frozen=True)
class CommStatus:
    """Completion record handed back to kernels (dcgn::CommStatus)."""

    source: int
    nbytes: int


@dataclass
class CommRequest:
    """One communication request from a kernel to the comm thread.

    ``data`` carries a snapshot of the payload for sends (taken at request
    creation for CPU kernels, at mailbox harvest — after the PCIe read —
    for GPU kernels).  For receives, ``deliver`` is invoked by the
    machinery that lands the payload in the requester's buffer.  Its
    lifecycle stages are recorded with :func:`record_stage`.
    """

    op: str
    src_vrank: int
    #: Destination (sends) or source (recvs; ANY = -1).  Root for rooted
    #: collectives.
    peer: int = -1
    nbytes: int = 0
    data: Optional[np.ndarray] = None
    #: Callable(data: ndarray) that writes into the requester's buffer.
    #: For CPU ranks this copies into host memory; for GPU slots the GPU
    #: thread performs the PCIe write instead and this stays None.
    deliver: Optional[Callable[[np.ndarray], None]] = None
    #: Completion event fired by the comm thread (or GPU thread).
    done: Optional[Event] = None
    #: Status/result for the requester (set at completion).
    status: Optional[CommStatus] = None
    #: Collective op this request participates in (kind consistency check).
    root: int = -1
    #: Free-form extras (e.g. reduce op name).
    extra: Dict[str, Any] = field(default_factory=dict)
    req_id: int = field(default_factory=lambda: next(_req_ids))

    def complete(self, status: Optional[CommStatus] = None) -> None:
        """Mark the request done (idempotence is an error by design)."""
        self.status = status
        if self.done is not None:
            sim = self.done.sim
            spans = sim.spans
            if spans is not None:
                record_stage(spans, sim.now, "completed", self)
            self.done.succeed(status)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CommRequest #{self.req_id} {self.op} src={self.src_vrank} "
            f"peer={self.peer} n={self.nbytes}>"
        )


def record_stage(spans: Any, t: float, stage: str, req: CommRequest) -> None:
    """Record ``req`` reaching lifecycle ``stage`` at ``t``.

    Callers check ``sim.spans is not None`` first, so an untraced run
    pays one attribute load per stage.  The instant is recorded with a
    positional ``complete`` (this runs several times per request).
    """
    spans.complete(
        t, t, stage, "dcgn.req", f"dcgn.v{req.src_vrank}", None, None,
        {"req": req.req_id, "op": req.op},
    )


def request_stages(recorder: Any) -> Dict[int, Tuple[str, Dict[str, float]]]:
    """``{req_id: (op, {stage: t})}`` from a run's ``dcgn.req`` instants.

    Instants are in record order, not time order (a GPU request's
    ``posted`` stage is recorded when the host harvests it); the first
    instant recorded for a stage wins.
    """
    out: Dict[int, Tuple[str, Dict[str, float]]] = {}
    for s in recorder.select(category="dcgn.req"):
        _op, stages = out.setdefault(s.attrs["req"], (s.attrs["op"], {}))
        stages.setdefault(s.name, s.t0)
    return out
