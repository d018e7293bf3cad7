"""Mandelbrot tile service: a request-serving job for the scheduler.

The batch apps render one image and exit; a *serving* workload answers
an endless stream of small requests.  This service turns the paper's
Mandelbrot strips (§4) into that shape: each request names one tile (a
strip of the image), the job's rank 0 dispatches it to the whole worker
group, every rank computes its share of the escape-time iterations, and
the pixels gather back to rank 0 — a fan-out/fan-in with a
bandwidth-dominated collective, i.e. the batch-inference request shape.
Requests are served **serially** per job (one dispatcher), so a job is
an M/D/1-ish server: offered load beyond ``1/service_time`` builds a
queue and the tail latency takes off — the knee the serving benchmark
sweeps across.

The interesting part is what the service *exposes*: its per-request
collective runs on whatever sub-communicator the scheduler placed the
job on, so service time directly reflects placement quality (a packed
pod vs. nodes scattered across an oversubscribed fat tree).

Wiring: build a :class:`TileService`, submit its
:meth:`~TileService.job_spec` to a
:class:`~repro.serve.scheduler.ClusterScheduler`, and drive
:meth:`~TileService.submit`/:meth:`~TileService.close` — usually via
:class:`~repro.serve.workload.OpenLoopDriver`.  Latencies land in
``service.log``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from ..serve.scheduler import JobSpec
from ..serve.workload import RequestLog
from ..sim.core import Event, Simulator
from .mandelbrot import (
    STOP,
    MandelbrotConfig,
    mandelbrot_reference,
    strip_iteration_counts,
)

__all__ = ["TileServiceConfig", "TileService"]


@dataclass(frozen=True)
class TileServiceConfig:
    """Shape of the tile-rendering requests.

    ``gflops`` is each rank's escape-time throughput (the compute side
    of a request; the strip's iteration count divides evenly across the
    job).  ``max_queue`` bounds the dispatcher's backlog — arrivals
    beyond it are dropped and counted, the load-shedding a production
    front door would do (``None`` = unbounded, the pure open-loop
    measurement).
    """

    tile: MandelbrotConfig = field(
        default_factory=lambda: MandelbrotConfig(
            width=512, height=512, strip_height=32, max_iter=128
        )
    )
    gflops: float = 500.0
    max_queue: Optional[int] = None


class TileService:
    """One tile-rendering job's front door + rank programs."""

    def __init__(
        self,
        sim: Simulator,
        cfg: Optional[TileServiceConfig] = None,
        name: str = "tiles",
    ) -> None:
        self.sim = sim
        self.cfg = cfg or TileServiceConfig()
        self.name = name
        self.log = RequestLog(sim)
        #: Last-rendered pixels per strip id (rank 0's assembly).
        self.rendered: Dict[int, np.ndarray] = {}
        self._queue: List[Any] = []
        self._closed = False
        self._wake: Event = sim.event(name=f"tiles.{name}.wake")
        self._iters = strip_iteration_counts(self.cfg.tile)

    # -- front door (driver side) ------------------------------------------
    def submit(self, req_id: int) -> None:
        """Offer a request (tile = ``req_id mod n_strips``)."""
        cfg = self.cfg
        strip = req_id % cfg.tile.n_strips
        req = self.log.arrived(req_id, payload=strip)
        if (
            cfg.max_queue is not None
            and len(self._queue) >= cfg.max_queue
        ):
            self.log.dropped(req)
            return
        self._queue.append(req)
        self._kick()

    def close(self) -> None:
        """No more arrivals; the dispatcher drains the queue and stops."""
        self._closed = True
        self._kick()

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    # -- job wiring ---------------------------------------------------------
    def job_spec(self, n_nodes: int) -> JobSpec:
        """A scheduler-ready spec running this service on ``n_nodes``."""
        return JobSpec(
            name=self.name, n_nodes=n_nodes, program=self.rank_program
        )

    def rank_program(
        self, ctx
    ) -> Generator[Event, Any, None]:
        """Per-rank program: rank 0 dispatches, everyone renders."""
        if ctx.comm.backend == "pricing":
            raise ValueError(
                "TileService needs real data on the wire (the STOP "
                "sentinel rides the descriptor bcast); use the "
                "'exact' or 'analytic' backend"
            )
        if ctx.rank == 0:
            yield from self._dispatch(ctx)
        else:
            yield from self._serve_loop(ctx)

    # -- rank programs -------------------------------------------------------
    def _dispatch(self, ctx) -> Generator[Event, Any, None]:
        desc = np.zeros(2, dtype=np.int64)
        while True:
            while not self._queue and not self._closed:
                self._wake = self.sim.event(
                    name=f"tiles.{self.name}.wake"
                )
                yield self._wake
            if not self._queue:
                # Closed and drained: broadcast the stop sentinel.
                desc[:] = (STOP, STOP)
                yield from ctx.bcast(desc, root=0)
                return
            req = self._queue.pop(0)
            self.log.started(req)
            desc[:] = (req.req_id, req.payload)
            yield from ctx.bcast(desc, root=0)
            pixels = yield from self._render(ctx, int(req.payload))
            self.rendered[int(req.payload)] = pixels
            self.log.completed(req)

    def _serve_loop(self, ctx) -> Generator[Event, Any, None]:
        desc = np.zeros(2, dtype=np.int64)
        while True:
            yield from ctx.bcast(desc, root=0)
            strip = int(desc[1])
            if strip == STOP:
                return
            yield from self._render(ctx, strip)

    def _render(
        self, ctx, strip_id: int
    ) -> Generator[Event, Any, Optional[np.ndarray]]:
        """One request's compute + gather (every rank).

        Returns the assembled strip pixels on rank 0, ``None`` on the
        others.
        """
        cfg = self.cfg
        tile = cfg.tile
        P = ctx.size
        words = tile.width * tile.strip_height
        share = math.ceil(words / P)
        # Evenly split escape-time iterations; the simulated compute.
        secs = (
            float(self._iters[strip_id])
            * tile.flops_per_iter
            / (cfg.gflops * 1e9)
            / P
        )
        if secs > 0.0:
            yield self.sim.timeout(secs, name=f"tiles.strip{strip_id}")
        send = np.zeros(share, dtype=np.int32)
        ref = mandelbrot_reference(tile)
        r0 = strip_id * tile.strip_height
        flat = ref[r0 : r0 + tile.strip_height, :].reshape(-1)
        lo = ctx.rank * share
        chunk = flat[lo : lo + share]
        send[: len(chunk)] = chunk
        recv = np.zeros((P, share), dtype=np.int32)
        yield from ctx.allgather(send, recv)
        if ctx.rank != 0:
            return None
        return recv.reshape(-1)[:words].reshape(
            tile.strip_height, tile.width
        )

    # -- verification --------------------------------------------------------
    def verify(self) -> None:
        """Every rendered strip must match the escape-time reference."""
        ref = mandelbrot_reference(self.cfg.tile)
        h = self.cfg.tile.strip_height
        for strip_id, pixels in self.rendered.items():
            want = ref[strip_id * h : (strip_id + 1) * h, :]
            if not np.array_equal(pixels, want):
                raise AssertionError(
                    f"strip {strip_id} does not match the reference"
                )
