"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload runs in-process on one input with a sub-second budget:
it must give every metric BENCHMARK.json names, with its unit, and no
op may fail at this commit.  The command line itself is run for
``--workload all`` (the full configuration) and for its refusal to run
without the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import Phases, layer_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _cli(workload, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _in_process(workload, seed, trace, out_dir):
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(random.Random(seed), 1)
    if trace:
        return run.traced_run(wl, inputs, 0.5, str(out_dir))
    return run.timed_run(wl, inputs, 0.5)


def _units(spec_metrics):
    return {m["name"]: m["unit"] for m in spec_metrics}


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_tables_match_the_spec():
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_gives_every_metric_and_fails_nothing(workload, trace, tmp_path):
    tally, values = _in_process(workload, 1, trace, tmp_path)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(values) == {m["name"] for m in want}
    assert tally.problems == []
    assert tally.attempted > 0 and tally.failed == 0
    if not trace:
        assert values["ok_frac"] == 1.0


def test_all_runs_every_workload_in_turn():
    out = _result(_cli("all"))
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        f"{w}/{name}": unit
        for w in WORKLOADS for name, unit in _units(SPEC["end_to_end"]).items()
    }
    assert out["correct"] is True and out["failed"] == 0


def test_seed_changes_arrivals_not_metric_set(tmp_path):
    wl = WORKLOADS["serve-analytic"]
    a = wl.make_inputs(random.Random(1), 1)
    b = wl.make_inputs(random.Random(2), 1)
    assert a != b
    assert wl.make_inputs(random.Random(1), 1) == a
    sets = [
        set(_in_process("serve-analytic", seed, 0, tmp_path)[1])
        for seed in (1, 2)
    ]
    assert sets[0] == sets[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("dcgn-gpu", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_phases_partition_nested_charges():
    ph = Phases()
    with ph.charge("run", "outer"):
        sum(range(200000))
        with ph.charge("setup", "inner"):
            sum(range(200000))
    assert ph.totals["setup"] > 0 and ph.totals["run"] > 0
    assert ph.named == {"outer": ph.totals["run"],
                        "inner": ph.totals["setup"]}


def test_layer_self_times_charge_outside_code_to_callers():
    sim = (os.path.join(ROOT, "src", "repro", "sim", "core.py"), 1, "run")
    coll = (os.path.join(ROOT, "src", "repro", "mpi", "collectives.py"),
            1, "bcast")
    builtin = ("~", 0, "<built-in method numpy.copy>")
    top = ("~", 0, "<built-in method builtins.exec>")
    stats = {
        top: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 9.0, {top: (1, 1, 2.0, 9.0)}),
        coll: (1, 1, 1.0, 4.0, {sim: (1, 1, 1.0, 4.0)}),
        builtin: (4, 4, 4.0, 4.0, {sim: (1, 1, 1.0, 1.0),
                                   coll: (3, 3, 3.0, 3.0)}),
    }
    by_layer, unattributed, total = layer_self_times(stats)
    assert total == pytest.approx(7.5)
    assert by_layer["sim"] == pytest.approx(3.0)
    assert by_layer["mpi.coll"] == pytest.approx(4.0)
    assert unattributed == pytest.approx(0.5)
    assert sum(by_layer.values()) + unattributed == pytest.approx(total)
