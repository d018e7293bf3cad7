#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every output
checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` replays the workload's seeded inputs for ``--seconds``
with tracing off and prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs a separate traced + profiled pass and prints the
per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any output failed its check.  ``--workload all`` runs
every workload in turn.  README.md documents the workloads, the metrics
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fastpath_fidelity": "ratio",
    "ok_frac": "ratio",
}

_HOST_LAYERS = (
    "sim", "mpi.p2p", "mpi.coll", "mpi.fastpath", "mpi.rma", "dcgn",
    "gpusim", "hw", "serve", "apps", "obs", "bench",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in _HOST_LAYERS:
    PER_LAYER[f"{_layer}.host_s"] = "s"
    PER_LAYER[f"{_layer}.host_share"] = "ratio"
PER_LAYER.update({
    "host.profiled_s": "s",
    "host.unattributed_s": "s",
    "sim.events": "count",
    "sim.heap_pushes": "count",
    "sim.us_per_event": "us",
    "sim.batch_events": "count",
    "sim.merge_batch": "count",
    "mpi.p2p.copy_frac": "ratio",
    "mpi.coll.autotune_s": "s",
    "mpi.fastpath.us_per_round": "us",
    "mpi.fastpath.rounds": "count",
    "mpi.fastpath.cache_hit_frac": "ratio",
    "mpi.fastpath.wire_cost_hit_frac": "ratio",
    "mpi.rma.priced_ops": "count",
    "mpi.rma.coalesced_puts": "count",
    "dcgn.polls": "count",
    "dcgn.reqs_per_poll": "ratio",
    "hw.build_s": "s",
    "hw.chan_bytes": "B",
    "serve.place_s": "s",
    "serve.backfills": "count",
    "apps.verify_s": "s",
    "model.elapsed_us": "us",
    "model.p50_us": "us",
    "model.p99_us": "us",
    "model.cp.wire_frac": "ratio",
    "model.cp.overhead_frac": "ratio",
    "model.cp.compute_frac": "ratio",
    "model.cp.queueing_frac": "ratio",
    "model.cp.idle_frac": "ratio",
    "obs.spans": "count",
    "obs.span_overhead": "ratio",
})


class Tally:
    """Ops attempted / failed across every episode of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, n_ops: int, why: str) -> None:
        self.failed += n_ops
        self.problems.append(why)


@contextmanager
def _fresh_heap():
    """Collect, then freeze what survives: the collector still runs on
    the episode's own allocations, but never rescans the objects of the
    interpreter, numpy or earlier episodes, whose number varies with
    how far the run has got."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _episode(wl, fn, inp, backend, tally, traced=False, host=None,
             origin=0.0, profile=None):
    """Run one episode (under ``profile`` if given); an exception fails
    all of its ops."""
    from layers import Phases

    ph = Phases(host=host, origin=origin)
    try:
        with _fresh_heap():
            if profile is None:
                ep = fn(inp, backend, ph, traced)
            else:
                ep = profile.runcall(fn, inp, backend, ph, traced)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.attempted += wl.ops
        tally.fail(wl.ops, f"{wl.name}/{backend}: episode raised")
        return ph, None
    tally.attempted += ep.ops
    if ep.failed:
        tally.fail(ep.failed, f"{wl.name}/{backend}: {ep.failed} ops "
                              "failed verification")
    return ph, ep


def _same(tally, ep, first, what: str) -> None:
    if ep is not None and first is not None and ep.result != first.result:
        tally.fail(ep.ops, f"{what}: simulated outputs differ")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def _fidelity(wl, inputs, primary, tally) -> float:
    """Replay each input on the other backend (untimed) and compare."""
    from workloads import fidelity

    def replay(fn, backend):
        return {k: _episode(wl, fn, inputs[k], backend, tally)[1]
                for k in primary}

    if wl.ref_episode is not None:
        analytic = replay(wl.ref_episode, "analytic")
        exact = replay(wl.ref_episode, "exact")
    else:
        ref = replay(wl.episode, wl.ref_backend)
        analytic, exact = (
            (primary, ref) if wl.backend == "analytic" else (ref, primary)
        )
    both = [k for k in primary
            if analytic.get(k) is not None and exact.get(k) is not None]
    if not both:
        return 0.0
    compared = wl.compared(
        inputs,
        {k: analytic[k] for k in both},
        {k: exact[k] for k in both},
    )
    fid, worst = fidelity(compared)
    shown = compared if len(compared) <= 8 else [worst]
    for label, a, e in shown:
        print(f"fidelity {label}: analytic {a * 1e6:.3f} us, "
              f"exact {e * 1e6:.3f} us")
    print(f"fastpath_fidelity = {fid:.6f} (worst: {worst[0]}, over "
          f"{len(compared)} compared quantities)")
    return fid


def timed_run(wl, inputs, seconds: float) -> Tuple[Tally, Dict[str, float]]:
    """Replay the inputs round-robin for ``seconds`` of wall time, at
    least once each after a warm-up episode whose times are not used.

    Each episode's run seconds are rescaled by the mean of the
    calibration loops run just before and just after it (see
    :func:`layers.calibrate`): the machine's speed can change within one
    episode, and the mean of both sides tracks it better than either
    one.  Set-up comes first in an episode and is rescaled by the loop
    just before it.  The raw rate is printed alongside.
    """
    from layers import CAL_REF_S, calibrate

    tally = Tally()
    primary: Dict[int, Any] = {}
    rates: List[float] = []
    raw_rates: List[float] = []
    setups: List[float] = []
    t_stop = time.perf_counter() + seconds
    i = 0
    cal = calibrate()
    while i <= len(inputs) or time.perf_counter() < t_stop:
        k = i % len(inputs)
        ph, ep = _episode(wl, wl.episode, inputs[k], wl.backend, tally)
        before, cal = cal, calibrate()
        if i > 0 and ep is not None:
            raw_rates.append(ep.ops / ph.totals["run"])
            rates.append(raw_rates[-1] * (before + cal) / (2.0 * CAL_REF_S))
            setups.append(ph.totals["setup"] * CAL_REF_S / before)
        if ep is not None:
            _same(tally, ep, primary.get(k), f"replay of input {k}")
            primary.setdefault(k, ep)
        i += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = statistics.median(raw_rates) if raw_rates else 0.0
    print(f"{wl.name}: {i} episodes ({i - 1} timed) over "
          f"{len(inputs)} inputs, {tally.attempted} ops ({wl.op_unit}); "
          f"{wl.loop}; raw median {raw:.2f} ops per host CPU second")
    fid = _fidelity(wl, inputs, primary, tally)
    metrics = {
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak_mb,
        "fastpath_fidelity": fid,
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _profile(wl, inp, tally, first):
    """One untraced episode under cProfile; returns the stats table."""
    prof = cProfile.Profile()
    _, ep = _episode(wl, wl.episode, inp, wl.backend, tally, profile=prof)
    _same(tally, ep, first, "profiled pass")
    return pstats.Stats(prof).stats


def traced_run(wl, inputs, seconds: float, out_dir: str):
    """Overhead pairs, one traced pass with host spans, one profiled
    pass — all on the run's first input."""
    from layers import LAYERS, cumulative_s, layer_self_times
    from repro.obs import SpanRecorder, critical_path, write_chrome_trace
    from repro.obs.critical import CLASSES
    from repro.serve import percentile

    tally = Tally()
    inp = inputs[0]
    _, first = _episode(wl, wl.episode, inp, wl.backend, tally)  # warm-up
    # Alternate untraced/traced (ABBA) so a slow phase of the machine
    # lands on both sides; the overhead is the ratio of the minima.
    cost: Dict[bool, List[float]] = {False: [], True: []}
    verify_s: List[float] = []
    build_s: List[float] = []
    traced_ep = host = None
    origin = time.perf_counter()
    t_stop = origin + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < t_stop:
        rounds += 1
        for traced in (False, True, True, False):
            rec = SpanRecorder() if traced else None
            ph, ep = _episode(wl, wl.episode, inp, wl.backend, tally,
                              traced=traced, host=rec, origin=origin)
            if ep is None:
                continue
            _same(tally, ep, first,
                  "traced pass" if traced else "untraced pass")
            cost[traced].append(ph.totals["setup"] + ph.totals["run"])
            if traced:
                traced_ep, host = ep, rec
            else:
                verify_s.append(ph.totals["verify"])
                build_s.append(ph.named.get("hw.build_cluster", 0.0))
    stats = _profile(wl, inp, tally, first)
    by_layer, unattributed, total = layer_self_times(stats)
    if abs(sum(by_layer.values()) + unattributed - total) > 1e-9 * max(
        total, 1.0
    ):
        tally.fail(0, "layer self times do not sum to the profile")

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.host_s"] = by_layer[layer]
        m[f"{layer}.host_share"] = _ratio(by_layer[layer], total)
    m["host.profiled_s"] = total
    m["host.unattributed_s"] = unattributed
    m["mpi.coll.autotune_s"] = cumulative_s(
        stats, "mpi/algorithms/autotune.py", "autotune_tuning")
    m["serve.place_s"] = cumulative_s(
        stats, "serve/placement.py", "select_nodes")
    m["apps.verify_s"] = statistics.median(verify_s) if verify_s else 0.0
    m["hw.build_s"] = statistics.median(build_s) if build_s else 0.0

    if traced_ep is None or first is None or not cost[False]:
        tally.fail(0, "no traced pass completed")
        return tally, {name: m.get(name, 0.0) for name in PER_LAYER}
    st = traced_ep.stats
    m.update({
        "sim.events": st.events_popped,
        "sim.heap_pushes": st.heap_pushes,
        "sim.us_per_event": _ratio(by_layer["sim"], st.events_popped) * 1e6,
        "sim.batch_events": st.batch_events,
        "sim.merge_batch": _ratio(st.heap_merged_events, st.heap_merges),
        "mpi.p2p.copy_frac": _ratio(
            st.payload_copies,
            st.payload_copies + st.payload_views + st.payload_adopted),
        "mpi.fastpath.rounds": st.fastpath_rounds,
        "mpi.fastpath.us_per_round": _ratio(
            by_layer["mpi.fastpath"], st.fastpath_rounds) * 1e6,
        "mpi.fastpath.cache_hit_frac": _ratio(
            st.fastpath_sched_cache_hits, st.fastpath_collectives),
        "mpi.fastpath.wire_cost_hit_frac": _ratio(
            st.wire_cost_hits, st.wire_cost_hits + st.wire_cost_misses),
        "mpi.rma.priced_ops": st.fastpath_rma_ops,
        "mpi.rma.coalesced_puts": st.rma_coalesced_puts,
        "hw.chan_bytes": st.chan_bytes,
        "serve.backfills": st.serve_backfills,
        "obs.spans": st.spans,
        "obs.span_overhead": min(cost[True]) / min(cost[False]) - 1.0,
    })

    spans = traced_ep.spans
    # The DCGN watchdog horizon leaves teardown poll ticks long after
    # the app ends; keep the trace to the last real activity.
    app_end = max((s.t1 for s in spans.spans if s.category != "dcgn.poll"),
                  default=0.0)
    spans.trim(app_end)
    polls = spans.count("dcgn.poll")
    m["dcgn.polls"] = polls
    m["dcgn.reqs_per_poll"] = _ratio(spans.count("dcgn.slot"), polls)
    cp = critical_path(spans)
    wall = cp["wall_s"]
    for cls in CLASSES:
        m[f"model.cp.{cls}_frac"] = _ratio(cp["by_class"][cls], wall)
    if wall > 0 and abs(sum(cp["by_class"].values()) / wall - 1.0) > 1e-6:
        tally.fail(0, "critical-path classes do not sum to the wall")

    lats = first.latencies
    m["model.elapsed_us"] = first.elapsed * 1e6
    m["model.p50_us"] = percentile(lats, 50) * 1e6
    m["model.p99_us"] = percentile(lats, 99) * 1e6

    os.makedirs(out_dir, exist_ok=True)
    for kind, recorder in (("sim", spans), ("host", host)):
        path = os.path.join(out_dir, f"{wl.name}.{kind}.perfetto.json")
        write_chrome_trace(recorder, path)
        print(f"wrote {os.path.relpath(path)}")
    print(f"profile: {total:.3f} s profiled, {unattributed:.4f} s "
          "unattributed; " + ", ".join(
              f"{layer} {by_layer[layer] / total:.1%}"
              for layer in LAYERS if by_layer[layer] > 0.005 * total))
    return tally, m


# ---------------------------------------------------------------------------


def _run_all(names: List[str], args: argparse.Namespace) -> int:
    """``--workload all``: each workload in its own process, one after
    the other (``peak_rss_mb`` is a per-process high-water mark), then
    one combined result line with the metrics named
    ``<workload>/<metric>``."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in names:
        child = [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        proc = subprocess.run(child, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"FAILED: {name} printed no result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources ({SRC}/repro) are not "
              "here; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(list(WORKLOADS), args)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(WORKLOADS) + ", all")
    inputs = wl.make_inputs(random.Random(args.seed), wl.n_inputs)
    if args.trace:
        tally, values = traced_run(wl, inputs, args.seconds,
                                   os.path.join(HERE, "out"))
        units = PER_LAYER
    else:
        tally, values = timed_run(wl, inputs, args.seconds)
        units = END_TO_END
    for why in tally.problems:
        print(f"FAILED: {why}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
