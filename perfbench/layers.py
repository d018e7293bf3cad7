"""Host-time accounting and per-layer attribution, kept outside ``src/``.

The benchmark measures the program from the outside: it times the calls
it makes into each layer's public functions (:class:`Phases`), wraps the
two public classes an app builds internally so their construction is
charged to set-up (:func:`timed_app_calls`), and buckets a ``cProfile``
pass by ``src/repro`` module (:func:`layer_self_times`).  Nothing here
adds instrumentation to the program itself.
"""

from __future__ import annotations

import heapq
import os
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Root of the package under test; profile entries below it belong to a
#: layer, everything else is charged to whoever called it.
REPRO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro",
) + os.sep
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Layer of each ``src/repro`` module, most specific prefix first.  The
#: names are the ``<layer>`` part of the ``<layer>.<metric>`` per-layer
#: metrics in BENCHMARK.json.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("mpi/algorithms/fastpath.py", "mpi.fastpath"),
    ("mpi/algorithms/", "mpi.coll"),
    ("mpi/collectives.py", "mpi.coll"),
    ("mpi/rma.py", "mpi.rma"),
    ("mpi/", "mpi.p2p"),
    ("sim/", "sim"),
    ("hw/", "hw"),
    ("dcgn/", "dcgn"),
    ("gpusim/", "gpusim"),
    ("serve/", "serve"),
    ("apps/", "apps"),
    ("obs/", "obs"),
)

#: Every layer a host self time is reported for, in report order.
#: ``bench`` is this benchmark's own code (input generation, the
#: collective workload's rank programs, output checks).
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in _LAYER_PREFIXES)
) + ("bench",)


def layer_of(filename: str) -> Optional[str]:
    """Layer owning a source file, or ``None`` for code outside both
    ``src/repro`` and the benchmark (numpy, stdlib, C builtins)."""
    if filename.startswith(BENCH_DIR):
        return "bench"
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):].replace(os.sep, "/")
    for prefix, layer in _LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return None  # a repro package no workload runs (gas, check, ...)


class Phases:
    """Exclusive host CPU seconds per phase of one episode.

    ``charge(phase, name)`` brackets one call into the program.  Time
    inside a nested charge counts only for the inner one, so the phase
    totals partition the bracketed time exactly: the timed region of a
    workload is ``totals["run"]``, with the set-up and verification
    calls made from inside an app's driver (see
    :func:`timed_app_calls`) and the benchmark's own input building
    taken out of it.  ``named`` keeps the same
    exclusive seconds per call name.  When ``host`` is a
    :class:`~repro.obs.SpanRecorder`, every charge is also recorded as
    a host-time span (seconds since the recorder's ``origin``) for the
    Perfetto export.
    """

    def __init__(self, host: Any = None, origin: float = 0.0) -> None:
        self.totals: Dict[str, float] = {"setup": 0.0, "inputs": 0.0,
                                         "run": 0.0, "verify": 0.0}
        self.named: Dict[str, float] = {}
        self.host = host
        self.origin = origin
        self._stack: List[List[Any]] = []

    @contextmanager
    def charge(self, phase: str, name: str) -> Iterator[None]:
        # [CPU seconds of charges nested inside this one, host span sid]
        frame: List[Any] = [0.0, None]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        span = None
        if self.host is not None:
            span = self.host.begin(
                time.perf_counter() - self.origin, name, phase, "bench",
                parent=parent[1] if parent is not None else None,
            )
            frame[1] = span.sid if span is not None else None
        t0 = time.process_time()
        try:
            yield
        finally:
            dt = time.process_time() - t0
            self._stack.pop()
            own = dt - frame[0]
            self.totals[phase] = self.totals.get(phase, 0.0) + own
            self.named[name] = self.named.get(name, 0.0) + own
            if parent is not None:
                parent[0] += dt
            if span is not None:
                self.host.end(time.perf_counter() - self.origin, span)


#: Host CPU seconds :func:`calibrate` takes on the reference machine
#: (a 2 GHz vCPU).  Time metrics are reported in reference seconds.
CAL_REF_S = 0.025


class _Proc:
    __slots__ = ("now", "count", "seen")

    def __init__(self) -> None:
        self.now = 0.0
        self.count = 0
        self.seen: Dict[int, float] = {}


def _ticker(proc: _Proc, n: int) -> Iterator[float]:
    for i in range(n):
        proc.count += 1
        proc.seen[i & 63] = proc.now
        yield proc.now + (i * 7919 % 13) * 1e-6


def calibrate() -> float:
    """Host CPU seconds of a fixed pure-Python discrete-event loop.

    The loop does what the simulator's core does — a heap of
    ``(time, seq, process)`` entries, generator resumes, small
    attribute and dict writes — and nothing of the program under test,
    so no change to the program moves it.  A shared machine's speed
    drifts (the loop itself took 17-38 ms within seconds on a
    contended 2-vCPU 2 GHz VM), and the simulator drifts with it,
    though less than proportionally.  Dividing an episode's host time
    by the mean of the loop's times just before and just after it cut
    the run-to-run CV of 10-second runs from 10-15% raw to 3-7%.
    """
    t0 = time.process_time()
    heap: List[Any] = []
    for seq in range(200):
        proc = _Proc()
        heapq.heappush(heap, (0.0, seq, _ticker(proc, 100), proc))
    seq = len(heap)
    while heap:
        now, _, gen, proc = heapq.heappop(heap)
        proc.now = now
        try:
            nxt = next(gen)
        except StopIteration:
            continue
        heapq.heappush(heap, (nxt, seq, gen, proc))
        seq += 1
    return time.process_time() - t0


@contextmanager
def _patched(owner: Any, attr: str, value: Any) -> Iterator[None]:
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


@contextmanager
def timed_app_calls(ph: Phases) -> Iterator[None]:
    """Charge the calls ``repro.apps.jacobi`` makes on the caller's
    behalf to the right phase.

    ``run_mpi`` and ``run_dcgn`` build their ``MpiJob`` /
    ``DcgnRuntime`` and check their field against
    :func:`repro.apps.jacobi.reference` internally.  For the duration
    of the ``with`` block, the public names they look up are replaced
    by subclasses / wrappers that charge construction to ``setup``,
    ``run()`` to ``run`` and the reference solve to ``verify`` — the
    library code itself is unchanged.
    """
    import repro.dcgn
    from repro.apps import jacobi

    def timed_class(cls: type, label: str) -> type:
        class Timed(cls):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                with ph.charge("setup", f"{label}.init"):
                    super().__init__(*args, **kwargs)

            def run(self, *args: Any, **kwargs: Any) -> Any:
                with ph.charge("run", f"{label}.run"):
                    return super().run(*args, **kwargs)

        return Timed

    reference = jacobi.reference

    def timed_reference(cfg: Any) -> Any:
        with ph.charge("verify", "apps.jacobi.reference"):
            return reference(cfg)

    with ExitStack() as stack:
        stack.enter_context(_patched(
            jacobi, "MpiJob", timed_class(jacobi.MpiJob, "mpi.MpiJob")))
        stack.enter_context(_patched(
            repro.dcgn, "DcgnRuntime",
            timed_class(repro.dcgn.DcgnRuntime, "dcgn.DcgnRuntime")))
        stack.enter_context(_patched(jacobi, "reference", timed_reference))
        yield


# ---------------------------------------------------------------------------
# Profiled pass: self time per layer
# ---------------------------------------------------------------------------

Func = Tuple[str, int, str]


def layer_self_times(
    stats: Dict[Func, Tuple[Any, ...]],
) -> Tuple[Dict[str, float], float, float]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    Returns ``(seconds per layer, unattributed seconds, profiled
    total)``; the first two always sum to the third.  A function in a
    layer keeps its own ``tottime``.  A function outside every layer (C
    builtins, numpy, the stdlib) is charged to its callers: its own
    time split by the per-caller ``tottime`` the profiler recorded, and
    time it inherited split further up by per-caller ``cumtime``.  What
    reaches no layer — the interpreter's top frame, the profiler, call
    cycles among outside functions — is the unattributed remainder.
    """
    by_layer = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    total = 0.0
    memo: Dict[Func, Dict[Optional[str], float]] = {}
    busy = set()

    def shares(func: Func, weight_col: int) -> Dict[Optional[str], float]:
        """Fraction of ``func``'s (outside) time each layer is charged
        when it is spread over its callers by ``weight_col``."""
        callers = stats[func][4]
        weights = {c: w[weight_col] for c, w in callers.items()}
        norm = sum(weights.values())
        if norm <= 0.0:
            weights = {c: w[1] for c, w in callers.items()}  # call counts
            norm = sum(weights.values())
        out: Dict[Optional[str], float] = {}
        if norm <= 0.0:
            return {None: 1.0}
        for caller, w in weights.items():
            for layer, f in inherited(caller).items():
                out[layer] = out.get(layer, 0.0) + f * w / norm
        return out

    def inherited(func: Func) -> Dict[Optional[str], float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in busy or func not in stats:
            return {None: 1.0}
        busy.add(func)
        memo[func] = shares(func, 3)
        busy.discard(func)
        return memo[func]

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0.0:
            continue
        total += tt
        layer = layer_of(func[0])
        split = {layer: 1.0} if layer is not None else shares(func, 2)
        for owner, f in split.items():
            if owner is None:
                unattributed += tt * f
            else:
                by_layer[owner] += tt * f
    return by_layer, unattributed, total


def cumulative_s(
    stats: Dict[Func, Tuple[Any, ...]], module_suffix: str, funcname: str
) -> float:
    """Profiled cumulative seconds of one public function."""
    suffix = module_suffix.replace("/", os.sep)
    return sum(
        row[3] for (fn, _line, name), row in stats.items()
        if name == funcname and fn.endswith(suffix)
    )
