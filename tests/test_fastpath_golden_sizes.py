"""Golden fast-path timings at odd, degenerate and larger sizes.

``test_fastpath_golden`` pins every dispatched op at P = 6 and 8.  This
table widens the grid to P in {1, 2, 3, 5, 7, 12, 16, 32}, where
non-power-of-two folds, single-rank degenerate schedules and deeper
dependency chains make the order a compiler visits steps in matter
most.  Each case runs one collective twice in a row (a cold compile,
then a plan hit) and records, per rank, the simulated time each call
returned (``float.hex``):

* every op of ``test_fastpath_golden`` under the default selection;
* forced ``bruck`` (allgather, alltoall), ``ring`` (allreduce,
  allgather), ``pipelined`` (bcast) and ``rabenseifner`` (reduce);
* the ``hierarchical`` variants (allreduce, allgather, alltoall,
  bcast) on a 4:1 fat tree of 4-node pods, ranks scattered across the
  pods so the placement is fragmented (P >= 2: they need two locality
  groups);
* an eager and a rendezvous payload, aligned or skewed arrivals (rank
  ``r`` sleeps ``(5r mod P) x 0.7 us`` before every call).

The ``analytic`` and ``pricing`` backends share one critical-path
model, so both must reproduce the table with ``==``.  The table lives
in ``golden/fastpath_sizes.json``; ``python
tests/test_fastpath_golden_sizes.py --write`` regenerates it (only
ever on purpose: a changed time is a changed model).
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.hw import TopologySpec, build_cluster, paper_cluster
from repro.mpi import CollectiveTuning, MpiJob
from repro.sim import Simulator

TABLE = pathlib.Path(__file__).parent / "golden" / "fastpath_sizes.json"

#: Payload bytes per buffer: below and above the 16 KB eager threshold.
SIZES = {"eager": 512, "rndv": 32 * 1024}
PS = (1, 2, 3, 5, 7, 12, 16, 32)
DEFAULT_OPS = ("barrier", "ibarrier", "bcast", "reduce", "allreduce",
               "allgather", "iallgather", "alltoall")
FORCED = (("allgather", "bruck"), ("alltoall", "bruck"),
          ("allreduce", "ring"), ("allgather", "ring"),
          ("bcast", "pipelined"), ("reduce", "rabenseifner"))
HIER = ("allreduce", "allgather", "alltoall", "bcast")
DATA_FREE = ("barrier", "ibarrier")
ROOT = 1
REPEATS = 2
POD = 4


def _call(ctx, op, nbytes):
    """Issue one ``op`` on ``ctx`` (a generator to ``yield from``)."""
    P, r = ctx.size, ctx.rank
    n = nbytes // 8
    root = ROOT % P
    if op == "barrier":
        yield from ctx.barrier()
    elif op == "ibarrier":
        yield from ctx.ibarrier().wait()
    elif op == "bcast":
        buf = np.full(n, 3.0) if r == root else np.zeros(n)
        yield from ctx.bcast(buf, root=root)
    elif op == "reduce":
        out = np.zeros(n) if r == root else None
        yield from ctx.reduce(np.full(n, r + 1.0), out, root=root)
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


def _job(op, algo, P, backend):
    sim = Simulator()
    if algo == "hierarchical":
        # Rank r on node (r mod pods) * POD + r // pods: consecutive
        # ranks land in different pods, so the placement is fragmented.
        pods = max(2, -(-P // POD))
        spec = paper_cluster(
            nodes=pods * POD, gpus_per_node=0,
            topology=TopologySpec(kind="fattree", pod_size=POD,
                                  oversubscription=4.0),
        )
        placement = [(r % pods) * POD + r // pods for r in range(P)]
    else:
        spec = paper_cluster(nodes=P, gpus_per_node=0)
        placement = list(range(P))
    tuning = None
    if algo is not None:
        coll = "allgather" if op == "iallgather" else op
        tuning = CollectiveTuning(**{f"force_{coll}": algo})
    cluster = build_cluster(sim, spec)
    return sim, MpiJob(cluster, placement, tuning=tuning, backend=backend)


def run_case(op, algo, P, size, arrival, backend):
    """Per-repeat strings of per-rank completion times (``float.hex``)."""
    sim, job = _job(op, algo, P, backend)
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
    if algo is not None:
        assert job.comm.stats.get(f"{op}[{algo}]") == P * REPEATS
    return [" ".join(times[r][k].hex() for r in range(P))
            for k in range(REPEATS)]


CASES = [
    (op, algo, P, size, arrival)
    for op, algo in (
        [(op, None) for op in DEFAULT_OPS] + list(FORCED)
        + [(op, "hierarchical") for op in HIER]
    )
    for P in PS
    # Hierarchical schedules need >= 2 locality groups.
    if P > 1 or algo != "hierarchical"
    for size in (("eager",) if op in DATA_FREE else tuple(SIZES))
    for arrival in ("aligned", "skewed")
]


def _key(op, algo, P, size, arrival):
    name = op if algo is None else f"{op}[{algo}]"
    return f"{name}/{P}/{size}/{arrival}"


@pytest.fixture(scope="module")
def golden():
    with TABLE.open() as f:
        return json.load(f)


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
@pytest.mark.parametrize(
    "op,algo,P,size,arrival", CASES, ids=[_key(*c) for c in CASES]
)
def test_completion_times_pinned(golden, op, algo, P, size, arrival,
                                 backend):
    got = run_case(op, algo, P, size, arrival, backend)
    assert got == golden[_key(op, algo, P, size, arrival)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    TABLE.parent.mkdir(exist_ok=True)
    table = {_key(*c): run_case(*c, "analytic") for c in CASES}
    with TABLE.open("w") as f:
        json.dump(table, f, indent=0, sort_keys=True)
        f.write("\n")
