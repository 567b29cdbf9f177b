"""The benchmark's own tests.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Spans nest inside the root span, which opens and closes next to the
# worker's own clock reads; only that gap and float rounding separate the
# sum of self times from the traced wall time.
SELF_TIME_SLACK = 0.01


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads_tiny(trace):
    """Every workload runs and is gated; the test checks the benchmark, not the
    program, so a gate may fail here when the program is wrong."""
    proc, lines = _bench("--workload", "all", "--size", "tiny", "--seed", "7",
                         "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    # the least number of rounds, each over the workloads in the reverse order of the last
    order = next(line for line in lines if line.startswith("run order: ")).split()[2:]
    modes = ("run", "traced") if trace == "1" else ("run",)
    forward = list(workloads.WORKLOADS)
    rounds = run.MIN_TRACED if trace == "1" else run.MIN_RUNS
    expected = [f"{w}/{m}" for i in range(rounds)
                for w in (forward if i % 2 == 0 else forward[::-1]) for m in modes]
    assert order[:len(expected)] == expected
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [n for n, _, _ in layers.PER_LAYER] if trace == "1" \
        else [n for n, _ in run.END_TO_END]
    expected = {f"{w}.{n}" for w in workloads.WORKLOADS for n in names}
    assert set(result["metrics"]) == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert not [line for line in lines
                if "process failed" in line or " error: " in line or "/check: FAIL" in line]
    for name in workloads.WORKLOADS:
        assert any(line.startswith(f"[{name}] gate ") for line in lines)
        if trace == "0":  # two probes per round, one at the end
            probes = next(line for line in lines if line.startswith(f"[{name}] probe: "))
            assert f" of {2 * run.MIN_RUNS + 1} (" in probes
    assert result["attempted"] >= 6 and result["correct"] == (result["failed"] == 0)
    if result["failed"]:
        assert any(": FAIL" in line for line in lines)


def _traced(name, tmp_path):
    job = {"root": ROOT, "workload": name, "seed": 7, "size": "tiny", "mode": "traced",
           "run_id": 1, "outdir": str(tmp_path / "out"),
           "spans": str(tmp_path / f"spans-{name}.npz")}
    return worker.main(job), np.load(job["spans"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_account_for_traced_wall(name, tmp_path):
    result, spans = _traced(name, tmp_path)
    assert all(c["exit"] == 0 for c in result["commands"])
    wall, self_sum = result["wall_s"], result["span_self_sum_s"]
    assert wall * (1 - SELF_TIME_SLACK) <= self_sum <= wall

    # recompute self times from the written spans: duration minus children
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    covered = np.zeros_like(duration)
    np.add.at(covered, parent[parent >= 0], duration[parent >= 0])
    own = duration - covered
    assert (own >= -1e-9).all()
    roots = parent < 0
    assert roots.sum() == 1 and spans["names"][spans["name"][roots][0]] == layers.ROOT_SPAN
    assert own.sum() == pytest.approx(duration[roots].sum(), rel=1e-9)
    assert own.sum() == pytest.approx(self_sum, rel=1e-9)


def test_wrappers_are_gone_after_traced_run(tmp_path):
    tracer = Tracer(0)
    layers.install(tracer)
    installed = list(tracer._installed)
    tracer.uninstall()
    assert not tracer.missing, f"layer boundaries not found: {tracer.missing}"
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in installed]
    assert all(vars(owner)[attr] is original for owner, attr, original in installed)

    _traced("torus-fields-classical", tmp_path)
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)

    # untraced calls reach the originals: the old tracer records nothing more
    before = tracer.span_count()
    commands = workloads.WORKLOADS["torus-fields-classical"].commands(
        7, "tiny", str(tmp_path), ROOT)
    codes, _, _ = worker.run_commands(commands)
    assert codes == [0, 0] and tracer.span_count() == before


@pytest.mark.xfail(reason="oplab's _judge applies its monotonicity test to residuals "
                   "at the roundoff floor, so verify --surface circle judges EQ3_MAIN "
                   "inconclusive on most seeds; verify-spheroid runs the torus only "
                   "until this is fixed")
def test_verify_circle_meets_its_gates(tmp_path):
    command = workloads.verify_command("circle", 2, "full", str(tmp_path))
    codes, errors, _ = worker.run_commands([command])
    records, _ = worker.check([command], codes, errors)
    assert records[0]["ok"], [g for g in records[0]["gates"] if not g[1]]


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "torus-fields-classical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and "is missing" in proc.stderr
    assert proc.stdout.strip() == ""
