"""Golden fast-path collective timings: every dispatched op, pinned.

Each case runs one collective three times in a row on a one-rank-per-
node ``paper_cluster`` and records, per rank, the simulated time each
call returned (``float.hex``).  The grid covers both communicator
parities the selector cares about (P = 6 and P = 8), an eager and a
rendezvous payload, and aligned or skewed arrivals (rank ``r`` sleeps
``(5r mod P) x 0.7 us`` before every call).

The ``analytic`` and ``pricing`` backends share one critical-path
model, so both must reproduce the same table with ``==``.  The one
exception is a *repeat* data-free barrier: its times may differ from
the table in the last bits (``rel=1e-12``), because the table was
taken when repeat barriers were served from arrival-skew-keyed offsets
whose base shift rounds differently from a full pass.
"""

import numpy as np
import pytest

from repro.hw import build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.sim import Simulator

#: Payload bytes per buffer: below and above the 16 KB eager threshold.
SIZES = {"eager": 512, "rndv": 32 * 1024}
OPS = ("barrier", "ibarrier", "bcast", "reduce", "allreduce",
       "allgather", "iallgather", "alltoall")
DATA_FREE = ("barrier", "ibarrier")
ROOT = 1
REPEATS = 3


def _call(ctx, op, nbytes):
    """Issue one ``op`` on ``ctx`` (a generator to ``yield from``)."""
    P, r = ctx.size, ctx.rank
    n = nbytes // 8
    if op == "barrier":
        yield from ctx.barrier()
    elif op == "ibarrier":
        yield from ctx.ibarrier().wait()
    elif op == "bcast":
        buf = np.full(n, 3.0) if r == ROOT else np.zeros(n)
        yield from ctx.bcast(buf, root=ROOT)
    elif op == "reduce":
        out = np.zeros(n) if r == ROOT else None
        yield from ctx.reduce(np.full(n, r + 1.0), out, root=ROOT)
    elif op == "allreduce":
        yield from ctx.allreduce(np.full(n, r + 1.0), np.zeros(n))
    elif op in ("allgather", "iallgather"):
        recv = [np.zeros(n) for _ in range(P)]
        if op == "allgather":
            yield from ctx.allgather(np.full(n, float(r)), recv)
        else:
            yield from ctx.iallgather(np.full(n, float(r)), recv).wait()
    elif op == "alltoall":
        send = [np.full(n, float(r * P + j)) for j in range(P)]
        yield from ctx.alltoall(send, [np.zeros(n) for _ in range(P)])
    else:  # pragma: no cover - table typo
        raise AssertionError(op)


def run_case(op, P, size, arrival, backend):
    """Per-repeat lists of per-rank completion times (``float.hex``)."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=P, gpus_per_node=0))
    job = MpiJob(cluster, block_placement(P, P), backend=backend)
    times = {}

    def prog(ctx):
        r = ctx.rank
        for _ in range(REPEATS):
            if arrival == "skewed":
                yield ctx.sim.timeout(((5 * r) % P) * 0.7e-6)
            yield from _call(ctx, op, SIZES[size])
            times.setdefault(r, []).append(ctx.sim.now)

    job.start(prog)
    job.run()
    return [" ".join(times[r][k].hex() for r in range(P))
            for k in range(REPEATS)]


CASES = [
    (op, P, size, arrival)
    for op in OPS
    for P in (6, 8)
    for size in (("eager",) if op in DATA_FREE else tuple(SIZES))
    for arrival in ("aligned", "skewed")
]


def _key(op, P, size, arrival):
    return f"{op}/{P}/{size}/{arrival}"


#: Generated on the analytic backend; see the module docstring.
GOLDEN = {
    'barrier/6/eager/aligned': [
        ('0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18'),
        ('0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17'),
        ('0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16'),
    ],
    'barrier/6/eager/skewed': [
        ('0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 '
         '0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17'),
        ('0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 '
         '0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16'),
        ('0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 '
         '0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16'),
    ],
    'barrier/8/eager/aligned': [
        ('0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18'),
        ('0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17'),
        ('0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16'),
    ],
    'barrier/8/eager/skewed': [
        ('0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 '
         '0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 '
         '0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17'),
        ('0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 '
         '0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 '
         '0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16'),
        ('0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 '
         '0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 '
         '0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15'),
    ],
    'ibarrier/6/eager/aligned': [
        ('0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18'),
        ('0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17'),
        ('0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16'),
    ],
    'ibarrier/6/eager/skewed': [
        ('0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 '
         '0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17 0x1.2b3412c292aa2p-17'),
        ('0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 '
         '0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16 0x1.2b3412c292aa1p-16'),
        ('0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 '
         '0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16 0x1.c0ce1c23dbff1p-16'),
    ],
    'ibarrier/8/eager/aligned': [
        ('0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 0x1.6b869abb32567p-18 '
         '0x1.6b869abb32567p-18 0x1.6b869abb32567p-18'),
        ('0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 0x1.6b869abb32567p-17 '
         '0x1.6b869abb32567p-17 0x1.6b869abb32567p-17'),
        ('0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16 '
         '0x1.10a4f40c65c0dp-16 0x1.10a4f40c65c0dp-16'),
    ],
    'ibarrier/8/eager/skewed': [
        ('0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 '
         '0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17 '
         '0x1.5a2dfb515cdcdp-17 0x1.5a2dfb515cdcdp-17'),
        ('0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 '
         '0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16 '
         '0x1.5a2dfb515cdccp-16 0x1.5a2dfb515cdccp-16'),
        ('0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 '
         '0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15 '
         '0x1.03a27c7d05a59p-15 0x1.03a27c7d05a59p-15'),
    ],
    'bcast/6/eager/aligned': [
        ('0x1.2e1b4a139618ep-18 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 '
         '0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 0x1.2e1b4a139618ep-18'),
        ('0x1.79a21c987b9f1p-17 0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 '
         '0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 0x1.79a21c987b9f1p-17'),
        ('0x1.2e1b4a139618ep-16 0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 '
         '0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 0x1.2e1b4a139618ep-16'),
    ],
    'bcast/6/eager/skewed': [
        ('0x1.0c7e6a6ec48b4p-17 0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 '
         '0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 0x1.0c7e6a6ec48b4p-17'),
        ('0x1.3241d3b1374e6p-16 0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 '
         '0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 0x1.3241d3b1374e6p-16'),
        ('0x1.de44722b0c572p-16 0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 '
         '0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 0x1.de44722b0c572p-16'),
    ],
    'bcast/6/rndv/aligned': [
        ('0x1.17cdc8af32b8ap-14 0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 '
         '0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 0x1.17cdc8af32b8ap-14'),
        ('0x1.5dc13adaff66ep-13 0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 '
         '0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 0x1.5dc13adaff66ep-13'),
        ('0x1.17cdc8af32b8dp-12 0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 '
         '0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 0x1.17cdc8af32b8dp-12'),
    ],
    'bcast/6/rndv/skewed': [
        ('0x1.267be15bd1e88p-14 0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 '
         '0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 0x1.267be15bd1e88p-14'),
        ('0x1.6c6f53879e96cp-13 0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 '
         '0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 0x1.6c6f53879e96cp-13'),
        ('0x1.22d05b30aa1cap-12 0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 '
         '0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 0x1.22d05b30aa1cap-12'),
    ],
    'bcast/8/eager/aligned': [
        ('0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 '
         '0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 '
         '0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18'),
        ('0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 '
         '0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 '
         '0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17'),
        ('0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 '
         '0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 '
         '0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16'),
    ],
    'bcast/8/eager/skewed': [
        ('0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 '
         '0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17 '
         '0x1.58053cf3aa117p-17 0x1.58053cf3aa117p-17'),
        ('0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 '
         '0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16 '
         '0x1.58053cf3aa118p-16 0x1.58053cf3aa118p-16'),
        ('0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 '
         '0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15 '
         '0x1.0203edb6bf8d2p-15 0x1.0203edb6bf8d2p-15'),
    ],
    'bcast/8/rndv/aligned': [
        ('0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 '
         '0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14 '
         '0x1.a3b4ad06cc14fp-14 0x1.a3b4ad06cc14fp-14'),
        ('0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 '
         '0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13 '
         '0x1.a3b4ad06cc152p-13 0x1.a3b4ad06cc152p-13'),
        ('0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 '
         '0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12 '
         '0x1.3ac781c5190fep-12 0x1.3ac781c5190fep-12'),
    ],
    'bcast/8/rndv/skewed': [
        ('0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 '
         '0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14 '
         '0x1.b262c5b36b44dp-14 0x1.b262c5b36b44dp-14'),
        ('0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 '
         '0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13 '
         '0x1.b262c5b36b450p-13 0x1.b262c5b36b450p-13'),
        ('0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 '
         '0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 0x1.45ca14469073bp-12 '
         '0x1.45ca14469073bp-12 0x1.45ca14469073bp-12'),
    ],
    'reduce/6/eager/aligned': [
        ('0x1.2e1b4a139618ep-19 0x1.3ee241b44c067p-18 0x1.2e1b4a139618ep-19 '
         '0x1.2e1b4a139618ep-18 0x1.2e1b4a139618ep-19 0x1.2e1b4a139618ep-18'),
        ('0x1.3ee241b44c067p-18 0x1.e6b6de5ecd007p-18 0x1.3ee241b44c067p-18 '
         '0x1.d5efe6be1712ep-18 0x1.3ee241b44c067p-18 0x1.d5efe6be1712ep-18'),
        ('0x1.e6b6de5ecd007p-18 0x1.4745bd84a6fd3p-17 0x1.e6b6de5ecd007p-18 '
         '0x1.3ee241b44c067p-17 0x1.e6b6de5ecd007p-18 0x1.3ee241b44c067p-17'),
    ],
    'reduce/6/eager/skewed': [
        ('0x1.d5c31593e5fb7p-19 0x1.9cd612d1e06bep-18 0x1.52f54744f3d76p-18 '
         '0x1.8c0f1b312a7e5p-18 0x1.ea02ec4ebee3dp-19 0x1.2e1b4a139618ep-18'),
        ('0x1.43dbcecde9b4dp-17 0x1.68cc34945ffefp-17 0x1.52f54744f3d76p-17 '
         '0x1.6068b8c405083p-17 0x1.43dbcecde9b4dp-17 0x1.43dbcecde9b4dp-17'),
        ('0x1.de3cf9f9597ddp-17 0x1.09236c1b6cf56p-16 0x1.fc6feae76dc31p-17 '
         '0x1.04f1ae333f7a0p-16 0x1.de3cf9f9597ddp-17 0x1.de3cf9f9597ddp-17'),
    ],
    'reduce/6/rndv/aligned': [
        ('0x1.17cdc8af32b8ap-15 0x1.5d76c4ab90814p-14 0x1.1a226930e0403p-14 '
         '0x1.5d76c4ab90814p-14 0x1.1a226930e0403p-14 0x1.17cdc8af32b8ap-15'),
        ('0x1.9f82ef1e9e999p-14 0x1.5a339576a2ffep-13 0x1.388967b94adf6p-13 '
         '0x1.5a339576a2ffep-13 0x1.388967b94adf6p-13 0x1.e2d74a994edaap-14'),
        ('0x1.7b39aab02a0c2p-13 0x1.02d5e44bbedf9p-12 0x1.e4019ada259eap-13 '
         '0x1.02d5e44bbedf9p-12 0x1.e4019ada259eap-13 0x1.9ce3d86d822cap-13'),
    ],
    'reduce/6/rndv/skewed': [
        ('0x1.223e0022e1cc2p-15 0x1.659e7eee54ae2p-14 0x1.224a2373a46d1p-14 '
         '0x1.659e7eee54ae2p-14 0x1.224a2373a46d1p-14 0x1.281d3d34bb127p-15'),
        ('0x1.b369238515532p-14 0x1.659e7eee54ae4p-13 0x1.43f45130fc8dcp-13 '
         '0x1.659e7eee54ae4p-13 0x1.43f45130fc8dcp-13 0x1.f9ad1d88b2376p-14'),
        ('0x1.8c83d139b500cp-13 0x1.0c36df32bf82bp-12 0x1.f6c390a826e4ep-13 '
         '0x1.0c36df32bf82bp-12 0x1.f6c390a826e4ep-13 0x1.afa5ce3b8372ep-13'),
    ],
    'reduce/8/eager/aligned': [
        ('0x1.2e1b4a139618ep-19 0x1.c528ef1d61255p-18 0x1.2e1b4a139618ep-19 '
         '0x1.2e1b4a139618ep-18 0x1.2e1b4a139618ep-19 0x1.c528ef1d61255p-18 '
         '0x1.2e1b4a139618ep-19 0x1.2e1b4a139618ep-18'),
        ('0x1.c528ef1d61255p-18 0x1.3ee241b44c067p-17 0x1.c528ef1d61255p-18 '
         '0x1.d5efe6be1712ep-18 0x1.c528ef1d61255p-18 0x1.3ee241b44c067p-17 '
         '0x1.c528ef1d61255p-18 0x1.d5efe6be1712ep-18'),
        ('0x1.3ee241b44c067p-17 0x1.c528ef1d61254p-17 0x1.3ee241b44c067p-17 '
         '0x1.79a21c987b9f1p-17 0x1.3ee241b44c067p-17 0x1.c528ef1d61254p-17 '
         '0x1.3ee241b44c067p-17 0x1.79a21c987b9f1p-17'),
    ],
    'reduce/8/eager/skewed': [
        ('0x1.48d55be787633p-18 0x1.2c5eda86849b7p-17 0x1.48d55be787633p-18 '
         '0x1.f0a9f892085d3p-18 0x1.52f54744f3d76p-18 0x1.2c5eda86849b7p-17 '
         '0x1.b0e91862883cep-18 0x1.48d55be787633p-18'),
        ('0x1.a1cf9feb7e1a5p-17 0x1.0269b35be45cep-16 0x1.a1cf9feb7e1a5p-17 '
         '0x1.f0a9f892085d2p-17 0x1.a1cf9feb7e1a5p-17 0x1.0269b35be45cep-16 '
         '0x1.b0e91862883cdp-17 0x1.a1cf9feb7e1a5p-17'),
        ('0x1.4a8a5342e6076p-16 0x1.78b13855b3c14p-16 0x1.4a8a5342e6076p-16 '
         '0x1.747f7a6d8645ep-16 0x1.4a8a5342e6076p-16 0x1.6ea3f974866c2p-16 '
         '0x1.4a8a5342e6076p-16 0x1.4a8a5342e6076p-16'),
    ],
    'reduce/8/rndv/aligned': [
        ('0x1.2b9ca57a5a8b6p-15 0x1.fd2c85ce51b04p-15 0x1.2b9ca57a5a8b6p-15 '
         '0x1.7683ced8f12e3p-15 0x1.2b9ca57a5a8b6p-15 0x1.fd2c85ce51b04p-15 '
         '0x1.2b9ca57a5a8b6p-15 0x1.7683ced8f12e3p-15'),
        ('0x1.946495a4561ddp-14 0x1.fd2c85ce51b05p-14 0x1.946495a4561ddp-14 '
         '0x1.b9d82a53a16f4p-14 0x1.946495a4561ddp-14 0x1.fd2c85ce51b05p-14 '
         '0x1.946495a4561ddp-14 0x1.b9d82a53a16f4p-14'),
        ('0x1.497d6c45bf7b1p-13 0x1.7de1645abd446p-13 0x1.497d6c45bf7b1p-13 '
         '0x1.5c37369d6523dp-13 0x1.497d6c45bf7b1p-13 0x1.7de1645abd446p-13 '
         '0x1.497d6c45bf7b1p-13 0x1.5c37369d6523dp-13'),
    ],
    'reduce/8/rndv/skewed': [
        ('0x1.54b750f74b77cp-15 0x1.132398a5a14e5p-14 0x1.54b750f74b77cp-15 '
         '0x1.9f9e7a55e21a9p-15 0x1.54b750f74b77cp-15 0x1.132398a5a14e5p-14 '
         '0x1.54b750f74b77cp-15 0x1.9f9e7a55e21a9p-15'),
        ('0x1.b7a0040f6dc3fp-14 0x1.1033fa1cb4ab4p-13 0x1.b7a0040f6dc3fp-14 '
         '0x1.dd1398beb9156p-14 0x1.b7a0040f6dc3fp-14 0x1.1033fa1cb4ab4p-13 '
         '0x1.b7a0040f6dc3fp-14 0x1.dd1398beb9156p-14'),
        ('0x1.62722fd19ae62p-13 0x1.96d627e698af6p-13 0x1.62722fd19ae62p-13 '
         '0x1.752bfa29408eep-13 0x1.62722fd19ae62p-13 0x1.96d627e698af6p-13 '
         '0x1.62722fd19ae62p-13 0x1.752bfa29408eep-13'),
    ],
    'allreduce/6/eager/aligned': [
        ('0x1.2e1b4a139618ep-17 0x1.2e1b4a139618ep-17 0x1.2e1b4a139618ep-17 '
         '0x1.2e1b4a139618ep-17 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18'),
        ('0x1.2e1b4a139618ep-16 0x1.2e1b4a139618ep-16 0x1.2e1b4a139618ep-16 '
         '0x1.2e1b4a139618ep-16 0x1.0857e0d12355cp-16 0x1.0857e0d12355cp-16'),
        ('0x1.c528ef1d61256p-16 0x1.c528ef1d61256p-16 0x1.c528ef1d61256p-16 '
         '0x1.c528ef1d61256p-16 0x1.9f6585daee624p-16 0x1.9f6585daee624p-16'),
    ],
    'allreduce/6/eager/skewed': [
        ('0x1.8c0f1b312a7e5p-17 0x1.8c0f1b312a7e5p-17 0x1.8c0f1b312a7e5p-17 '
         '0x1.8c0f1b312a7e5p-17 0x1.408848ac44f82p-17 0x1.408848ac44f82p-17'),
        ('0x1.8c0f1b312a7e6p-16 0x1.8c0f1b312a7e6p-16 0x1.8c0f1b312a7e6p-16 '
         '0x1.8c0f1b312a7e6p-16 0x1.664bb1eeb7bb4p-16 0x1.664bb1eeb7bb4p-16'),
        ('0x1.290b5464dfdedp-15 0x1.290b5464dfdedp-15 0x1.290b5464dfdedp-15 '
         '0x1.290b5464dfdedp-15 0x1.16299fc3a67d4p-15 0x1.16299fc3a67d4p-15'),
    ],
    'allreduce/6/rndv/aligned': [
        ('0x1.1304c8d89f8e3p-14 0x1.1304c8d89f8e3p-14 0x1.1304c8d89f8e3p-14 '
         '0x1.1304c8d89f8e3p-14 0x1.1304c8d89f8e3p-14 0x1.1304c8d89f8e3p-14'),
        ('0x1.1304c8d89f8e4p-13 0x1.1304c8d89f8e4p-13 0x1.1304c8d89f8e4p-13 '
         '0x1.1304c8d89f8e4p-13 0x1.1304c8d89f8e4p-13 0x1.1304c8d89f8e4p-13'),
        ('0x1.9c872d44ef556p-13 0x1.9c872d44ef556p-13 0x1.9c872d44ef556p-13 '
         '0x1.9c872d44ef556p-13 0x1.9c872d44ef556p-13 0x1.9c872d44ef556p-13'),
    ],
    'allreduce/6/rndv/skewed': [
        ('0x1.21a3f121d90bap-14 0x1.21ab69538be4dp-14 0x1.21ab69538be4ep-14 '
         '0x1.21ab69538be4ep-14 0x1.21b2e1853ebe1p-14 0x1.21b2e1853ebe1p-14'),
        ('0x1.21a7ad3ab2785p-13 0x1.21ab69538be4ep-13 0x1.21ab69538be4ep-13 '
         '0x1.21ab69538be4ep-13 0x1.21af256c65518p-13 0x1.21af256c65518p-13'),
        ('0x1.b27d61e4786abp-13 0x1.b2811dfd51d75p-13 0x1.b2811dfd51d75p-13 '
         '0x1.b2811dfd51d75p-13 0x1.b284da162b43fp-13 0x1.b284da162b43fp-13'),
    ],
    'allreduce/8/eager/aligned': [
        ('0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 '
         '0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18 '
         '0x1.c528ef1d61255p-18 0x1.c528ef1d61255p-18'),
        ('0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 '
         '0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17 '
         '0x1.c528ef1d61254p-17 0x1.c528ef1d61254p-17'),
        ('0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 '
         '0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16 '
         '0x1.53deb35608dc0p-16 0x1.53deb35608dc0p-16'),
    ],
    'allreduce/8/eager/skewed': [
        ('0x1.86ff258274443p-17 0x1.86ff258274443p-17 0x1.86ff258274443p-17 '
         '0x1.86ff258274443p-17 0x1.86ff258274443p-17 0x1.86ff258274443p-17 '
         '0x1.86ff258274443p-17 0x1.86ff258274443p-17'),
        ('0x1.86ff258274444p-16 0x1.86ff258274444p-16 0x1.86ff258274444p-16 '
         '0x1.86ff258274444p-16 0x1.86ff258274444p-16 0x1.86ff258274444p-16 '
         '0x1.86ff258274444p-16 0x1.86ff258274444p-16'),
        ('0x1.253f5c21d7333p-15 0x1.253f5c21d7333p-15 0x1.253f5c21d7333p-15 '
         '0x1.253f5c21d7333p-15 0x1.253f5c21d7333p-15 0x1.253f5c21d7333p-15 '
         '0x1.253f5c21d7333p-15 0x1.253f5c21d7333p-15'),
    ],
    'allreduce/8/rndv/aligned': [
        ('0x1.3b2cb2065be6bp-14 0x1.3b2cb2065be6bp-14 0x1.3b2cb2065be6bp-14 '
         '0x1.3b2cb2065be6bp-14 0x1.3b2cb2065be6bp-14 0x1.3b2cb2065be6bp-14 '
         '0x1.3b2cb2065be6bp-14 0x1.3b2cb2065be6bp-14'),
        ('0x1.3b2cb2065be6cp-13 0x1.3b2cb2065be6cp-13 0x1.3b2cb2065be6cp-13 '
         '0x1.3b2cb2065be6cp-13 0x1.3b2cb2065be6cp-13 0x1.3b2cb2065be6cp-13 '
         '0x1.3b2cb2065be6cp-13 0x1.3b2cb2065be6cp-13'),
        ('0x1.d8c30b0989da2p-13 0x1.d8c30b0989da2p-13 0x1.d8c30b0989da2p-13 '
         '0x1.d8c30b0989da2p-13 0x1.d8c30b0989da2p-13 0x1.d8c30b0989da2p-13 '
         '0x1.d8c30b0989da2p-13 0x1.d8c30b0989da2p-13'),
    ],
    'allreduce/8/rndv/skewed': [
        ('0x1.4fba07c4d45cep-14 0x1.4fba07c4d45cep-14 0x1.4fba07c4d45cep-14 '
         '0x1.4fba07c4d45cep-14 0x1.4fba07c4d45cep-14 0x1.4fba07c4d45cep-14 '
         '0x1.4fba07c4d45cep-14 0x1.4fba07c4d45cep-14'),
        ('0x1.4fba07c4d45cfp-13 0x1.4fba07c4d45cfp-13 0x1.4fba07c4d45cfp-13 '
         '0x1.4fba07c4d45cfp-13 0x1.4fba07c4d45cfp-13 0x1.4fba07c4d45cfp-13 '
         '0x1.4fba07c4d45cfp-13 0x1.4fba07c4d45cfp-13'),
        ('0x1.f7970ba73e8b7p-13 0x1.f7970ba73e8b7p-13 0x1.f7970ba73e8b7p-13 '
         '0x1.f7970ba73e8b7p-13 0x1.f7970ba73e8b7p-13 0x1.f7970ba73e8b7p-13 '
         '0x1.f7970ba73e8b7p-13 0x1.f7970ba73e8b7p-13'),
    ],
    'allgather/6/eager/aligned': [
        ('0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 '
         '0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 0x1.00753e5a15824p-17'),
        ('0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 '
         '0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 0x1.00753e5a15824p-16'),
        ('0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 '
         '0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 0x1.80afdd8720436p-16'),
    ],
    'allgather/6/eager/skewed': [
        ('0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 '
         '0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17'),
        ('0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 '
         '0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16'),
        ('0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 '
         '0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15'),
    ],
    'allgather/6/rndv/aligned': [
        ('0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 '
         '0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13'),
        ('0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 '
         '0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12'),
        ('0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 '
         '0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11'),
    ],
    'allgather/6/rndv/skewed': [
        ('0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13 '
         '0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13'),
        ('0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12 '
         '0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12'),
        ('0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 '
         '0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11'),
    ],
    'allgather/8/eager/aligned': [
        ('0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 '
         '0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 '
         '0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17'),
        ('0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 '
         '0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 '
         '0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16'),
        ('0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 '
         '0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 '
         '0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16'),
    ],
    'allgather/8/eager/skewed': [
        ('0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 '
         '0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 '
         '0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17'),
        ('0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 '
         '0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 '
         '0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16'),
        ('0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 '
         '0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 '
         '0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15'),
    ],
    'allgather/8/rndv/aligned': [
        ('0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 '
         '0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 '
         '0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13'),
        ('0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 '
         '0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 '
         '0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12'),
        ('0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 '
         '0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 '
         '0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11'),
    ],
    'allgather/8/rndv/skewed': [
        ('0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 '
         '0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 '
         '0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13'),
        ('0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 '
         '0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 '
         '0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12'),
        ('0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 '
         '0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 '
         '0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11'),
    ],
    'iallgather/6/eager/aligned': [
        ('0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 '
         '0x1.00753e5a15824p-17 0x1.00753e5a15824p-17 0x1.00753e5a15824p-17'),
        ('0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 '
         '0x1.00753e5a15824p-16 0x1.00753e5a15824p-16 0x1.00753e5a15824p-16'),
        ('0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 '
         '0x1.80afdd8720436p-16 0x1.80afdd8720436p-16 0x1.80afdd8720436p-16'),
    ],
    'iallgather/6/eager/skewed': [
        ('0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 '
         '0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17 0x1.75e603bf0f012p-17'),
        ('0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 '
         '0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16 0x1.75e603bf0f012p-16'),
        ('0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 '
         '0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15 0x1.186c82cf4b40dp-15'),
    ],
    'iallgather/6/rndv/aligned': [
        ('0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 '
         '0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13'),
        ('0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 '
         '0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12'),
        ('0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 '
         '0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11'),
    ],
    'iallgather/6/rndv/skewed': [
        ('0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13 '
         '0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13'),
        ('0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12 '
         '0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12'),
        ('0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 '
         '0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11'),
    ],
    'iallgather/8/eager/aligned': [
        ('0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 '
         '0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 '
         '0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17'),
        ('0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 '
         '0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16 '
         '0x1.1e5605257a71dp-16 0x1.1e5605257a71dp-16'),
        ('0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 '
         '0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16 '
         '0x1.ad8107b837aabp-16 0x1.ad8107b837aabp-16'),
    ],
    'iallgather/8/eager/skewed': [
        ('0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 '
         '0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17 '
         '0x1.c2c0b3193e238p-17 0x1.c2c0b3193e238p-17'),
        ('0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 '
         '0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16 '
         '0x1.c2c0b3193e237p-16 0x1.c2c0b3193e237p-16'),
        ('0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 '
         '0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15 '
         '0x1.52108652ee9a9p-15 0x1.52108652ee9a9p-15'),
    ],
    'iallgather/8/rndv/aligned': [
        ('0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 '
         '0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13 '
         '0x1.c0e08cde8d877p-13 0x1.c0e08cde8d877p-13'),
        ('0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 '
         '0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12 '
         '0x1.c0e08cde8d877p-12 0x1.c0e08cde8d877p-12'),
        ('0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 '
         '0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11 '
         '0x1.50a869a6ea25ap-11 0x1.50a869a6ea25ap-11'),
    ],
    'iallgather/8/rndv/skewed': [
        ('0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 '
         '0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13 '
         '0x1.cb2737bdc9c28p-13 0x1.cb2737bdc9c28p-13'),
        ('0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 '
         '0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12 '
         '0x1.cb2737bdc9c29p-12 0x1.cb2737bdc9c29p-12'),
        ('0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 '
         '0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11 '
         '0x1.585d69ce5751fp-11 0x1.585d69ce5751fp-11'),
    ],
    'alltoall/6/eager/aligned': [
        ('0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 '
         '0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17 0x1.1e5605257a71ep-17'),
        ('0x1.1e5605257a71ep-16 0x1.1e5605257a71ep-16 0x1.1e5605257a71ep-16 '
         '0x1.1e5605257a71ep-16 0x1.1e5605257a71ep-16 0x1.1e5605257a71ep-16'),
        ('0x1.ad8107b837aacp-16 0x1.ad8107b837aacp-16 0x1.ad8107b837aacp-16 '
         '0x1.ad8107b837aacp-16 0x1.ad8107b837aacp-16 0x1.ad8107b837aacp-16'),
    ],
    'alltoall/6/eager/skewed': [
        ('0x1.93c6ca8a73f0cp-17 0x1.93c6ca8a73f0cp-17 0x1.93c6ca8a73f0cp-17 '
         '0x1.93c6ca8a73f0cp-17 0x1.93c6ca8a73f0cp-17 0x1.93c6ca8a73f0cp-17'),
        ('0x1.93c6ca8a73f0cp-16 0x1.93c6ca8a73f0cp-16 0x1.93c6ca8a73f0cp-16 '
         '0x1.93c6ca8a73f0cp-16 0x1.93c6ca8a73f0cp-16 0x1.93c6ca8a73f0cp-16'),
        ('0x1.2ed517e7d6f49p-15 0x1.2ed517e7d6f49p-15 0x1.2ed517e7d6f49p-15 '
         '0x1.2ed517e7d6f49p-15 0x1.2ed517e7d6f49p-15 0x1.2ed517e7d6f49p-15'),
    ],
    'alltoall/6/rndv/aligned': [
        ('0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 '
         '0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13 0x1.5dc13adaff66ep-13'),
        ('0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 '
         '0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12 0x1.5dc13adaff66fp-12'),
        ('0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 '
         '0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11 0x1.0650ec243f8d2p-11'),
    ],
    'alltoall/6/rndv/skewed': [
        ('0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13 '
         '0x1.651847314efecp-13 0x1.651847314efecp-13 0x1.651847314efecp-13'),
        ('0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12 '
         '0x1.651847314efedp-12 0x1.651847314efedp-12 0x1.651847314efedp-12'),
        ('0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 '
         '0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11 0x1.0bd23564fb3f1p-11'),
    ],
    'alltoall/8/eager/aligned': [
        ('0x1.6907f621f6c8ep-17 0x1.6907f621f6c8ep-17 0x1.6907f621f6c8ep-17 '
         '0x1.6907f621f6c8ep-17 0x1.6907f621f6c8ep-17 0x1.6907f621f6c8ep-17 '
         '0x1.6907f621f6c8ep-17 0x1.6907f621f6c8ep-17'),
        ('0x1.6907f621f6c8ep-16 0x1.6907f621f6c8ep-16 0x1.6907f621f6c8ep-16 '
         '0x1.6907f621f6c8ep-16 0x1.6907f621f6c8ep-16 0x1.6907f621f6c8ep-16 '
         '0x1.6907f621f6c8ep-16 0x1.6907f621f6c8ep-16'),
        ('0x1.0ec5f8997916ap-15 0x1.0ec5f8997916ap-15 0x1.0ec5f8997916ap-15 '
         '0x1.0ec5f8997916ap-15 0x1.0ec5f8997916ap-15 0x1.0ec5f8997916ap-15 '
         '0x1.0ec5f8997916ap-15 0x1.0ec5f8997916ap-15'),
    ],
    'alltoall/8/eager/skewed': [
        ('0x1.06b9520add3d4p-16 0x1.06b9520add3d4p-16 0x1.06b9520add3d4p-16 '
         '0x1.06b9520add3d4p-16 0x1.06b9520add3d4p-16 0x1.06b9520add3d4p-16 '
         '0x1.06b9520add3d4p-16 0x1.06b9520add3d4p-16'),
        ('0x1.06b9520add3d4p-15 0x1.06b9520add3d4p-15 0x1.06b9520add3d4p-15 '
         '0x1.06b9520add3d4p-15 0x1.06b9520add3d4p-15 0x1.06b9520add3d4p-15 '
         '0x1.06b9520add3d4p-15 0x1.06b9520add3d4p-15'),
        ('0x1.8a15fb104bdbcp-15 0x1.8a15fb104bdbcp-15 0x1.8a15fb104bdbcp-15 '
         '0x1.8a15fb104bdbcp-15 0x1.8a15fb104bdbcp-15 0x1.8a15fb104bdbcp-15 '
         '0x1.8a15fb104bdbcp-15 0x1.8a15fb104bdbcp-15'),
    ],
    'alltoall/8/rndv/aligned': [
        ('0x1.e9a81f3298c36p-13 0x1.e9a81f3298c36p-13 0x1.e9a81f3298c36p-13 '
         '0x1.e9a81f3298c36p-13 0x1.e9a81f3298c36p-13 0x1.e9a81f3298c36p-13 '
         '0x1.e9a81f3298c36p-13 0x1.e9a81f3298c36p-13'),
        ('0x1.e9a81f3298c33p-12 0x1.e9a81f3298c33p-12 0x1.e9a81f3298c33p-12 '
         '0x1.e9a81f3298c33p-12 0x1.e9a81f3298c33p-12 0x1.e9a81f3298c33p-12 '
         '0x1.e9a81f3298c33p-12 0x1.e9a81f3298c33p-12'),
        ('0x1.6f3e1765f2928p-11 0x1.6f3e1765f2928p-11 0x1.6f3e1765f2928p-11 '
         '0x1.6f3e1765f2928p-11 0x1.6f3e1765f2928p-11 0x1.6f3e1765f2928p-11 '
         '0x1.6f3e1765f2928p-11 0x1.6f3e1765f2928p-11'),
    ],
    'alltoall/8/rndv/skewed': [
        ('0x1.f3eeca11d4fe8p-13 0x1.f3eeca11d4fe8p-13 0x1.f3eeca11d4fe8p-13 '
         '0x1.f3eeca11d4fe8p-13 0x1.f3eeca11d4fe8p-13 0x1.f3eeca11d4fe8p-13 '
         '0x1.f3eeca11d4fe8p-13 0x1.f3eeca11d4fe8p-13'),
        ('0x1.f3eeca11d4fe4p-12 0x1.f3eeca11d4fe4p-12 0x1.f3eeca11d4fe4p-12 '
         '0x1.f3eeca11d4fe4p-12 0x1.f3eeca11d4fe4p-12 0x1.f3eeca11d4fe4p-12 '
         '0x1.f3eeca11d4fe4p-12 0x1.f3eeca11d4fe4p-12'),
        ('0x1.76f3178d5fbedp-11 0x1.76f3178d5fbedp-11 0x1.76f3178d5fbedp-11 '
         '0x1.76f3178d5fbedp-11 0x1.76f3178d5fbedp-11 0x1.76f3178d5fbedp-11 '
         '0x1.76f3178d5fbedp-11 0x1.76f3178d5fbedp-11'),
    ],
}


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
@pytest.mark.parametrize(
    "op,P,size,arrival", CASES, ids=[_key(*c) for c in CASES]
)
def test_completion_times_pinned(op, P, size, arrival, backend):
    got = run_case(op, P, size, arrival, backend)
    want = GOLDEN[_key(op, P, size, arrival)]
    for k in range(REPEATS):
        if op in DATA_FREE and k > 0:
            g = [float.fromhex(h) for h in got[k].split()]
            w = [float.fromhex(h) for h in want[k].split()]
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), k
        else:
            assert got[k] == want[k], k
