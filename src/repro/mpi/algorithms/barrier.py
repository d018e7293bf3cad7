"""Dissemination barrier as a round-based schedule.

⌈log2 P⌉ rounds of 0-byte messages: in round k every rank signals
``rank+2^k`` while awaiting ``rank−2^k``.  The schedule form exists so
``ibarrier`` can progress in the background (MPI-3 nonblocking barrier)
while the blocking ``barrier`` executes the identical DAG inline.
"""

from __future__ import annotations

from typing import List

from .schedule import Schedule

__all__ = ["build_barrier_dissemination"]


def build_barrier_dissemination(ctx, *, tag: int) -> Schedule:
    """Dissemination barrier schedule for this rank."""
    sched = Schedule()
    size, rank = ctx.size, ctx.rank
    if size == 1:
        sched.overhead()
        return sched
    deps: List[int] = []
    k = 1
    rnd = 0
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        s = sched.send(None, dst, tag, after=deps, round=rnd)
        r = sched.recv(None, src, tag, after=deps, round=rnd)
        deps = [s, r]
        k <<= 1
        rnd += 1
    return sched

