"""geomforce benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-spheroid --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Each measurement is a fresh Python process (perfbench/worker.py) that sets
up -- imports geomforce.cli and builds the lazy tables the workload uses --
and then runs the workload's CLI commands once through geomforce.cli.main.
One process at a time runs, with every BLAS thread variable set to 1: a
closed loop with one client.  A measurement makes rounds until --seconds per
workload are used, and at least MIN_RUNS rounds, so that a median can reject
one stalled run.  A round of a workload is: a host-speed probe
(perfbench/probe.py), a set-up-only process, a probe and a workload run; a
last probe follows the last round.  With --workload all each round runs every
workload once, in the reverse order of the round before.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one workload run (commands only)
  setup_s      median set-up time, over every process the workload started
  peak_rss_mb  median peak RSS of a fresh process that ran the workload once
Both times are scaled by probe.REFERENCE_S / (mean probe time of the
workload's probes): the shared host this runs on changes its speed from one
half-minute to the next, and the scaled times read in seconds of a host at
the reference speed.  A run spans several such changes and so does the mean
over the probes around it; a median of probes jumps between a fast and a
slow speed.  The unscaled medians are printed beside the scaled ones.
fail_frac (commands that raised, exited with an unexpected code or failed a
gate, over commands attempted) is printed by name and is exactly
failed / attempted in the JSON result, not a metric there: it is 0 on a
clean run, and the result format carries only metrics that are never 0.
--trace 1 makes each round an untraced and a traced run, and nothing else,
for at least MIN_TRACED rounds; it reports the per-layer metrics of
perfbench/layers.py plus trace.overhead_frac, the median over rounds of
(traced - untraced) / untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it state the
environment, every run, the gates of the first run and of any run that failed
one, the numeric-health values (recorded, never gated) and each metric with
its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_RUNS = 3       # rounds per measurement, even when --seconds is shorter
MIN_TRACED = 2     # the same with --trace 1, where a round holds two runs
RUN_LIMIT_S = 170  # a whole invocation of one workload stays under this
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")


class Session:
    """Starts worker processes for one workload and keeps what they return."""

    def __init__(self, workload, seed, size, tmp, deadline, order):
        self.workload, self.seed, self.size = workload, seed, size
        self.tmp, self.deadline = tmp, deadline
        self.order = order  # (workload, mode) of every run, shared across sessions
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
        self.count = 0
        self.probes, self.setups, self.runs, self.traced = [], [], [], []
        self.machine = None

    def probe(self):
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")],
                              capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=timeout, check=True)
        self.probes.append(float(proc.stdout))

    def start(self, mode):
        self.count += 1
        job = {"root": ROOT, "workload": self.workload, "seed": self.seed,
               "size": self.size, "mode": mode, "run_id": self.count,
               "outdir": os.path.join(self.tmp, f"{self.workload}-{self.count}"),
               "spans": os.path.join(SPANS_DIR, f"spans-{self.workload}.npz")}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                   json.dumps(job)], capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=timeout)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else None
            problem = proc.stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            result, problem = None, f"worker timed out after {timeout:.0f} s"
        if result is None:
            result = {"failed_process": problem or "worker exited without a result",
                      "commands": [{"label": "worker", "ok": False, "gates": []}]}
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        self.machine = self.machine or result.get("env")
        if mode != "setup":
            self.order.append((self.workload, mode))
            (self.traced if mode == "traced" else self.runs).append(result)

    def all_results(self):
        return self.runs + self.traced

    def counts(self):
        commands = [c for r in self.all_results() for c in r["commands"]]
        return len(commands), sum(1 for c in commands if not c["ok"])

    def speed(self):
        """Host speed over the measurement, relative to the reference host."""
        return probe.REFERENCE_S / statistics.fmean(self.probes)

    def end_to_end(self):
        ok = [r for r in self.runs if "wall_s" in r]
        return {
            "wall_s": median([r["wall_s"] for r in ok]) * self.speed(),
            "setup_s": median(self.setups) * self.speed(),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        }

    def overheads(self):
        """(traced - untraced) / untraced wall time of each round's pair of runs."""
        return [(t["wall_s"] - u["wall_s"]) / u["wall_s"]
                for u, t in zip(self.runs, self.traced) if "wall_s" in u and "layers" in t]

    def per_layer(self):
        traced = [r for r in self.traced if "layers" in r]
        out = {name: median([r["layers"][name] for r in traced])
               for name, _, _ in layers.PER_LAYER if name != "trace.overhead_frac"}
        out["trace.overhead_frac"] = median(self.overheads())
        return out


def measure(sessions, seconds, trace):
    """Rounds until `seconds` per workload are used.  A round runs each
    workload once, in the reverse order of the round before: a probe, a
    set-up-only process, a probe and the run, and a probe of each workload
    closes the measurement.  With `trace` a round of a workload is an
    untraced and a traced run."""
    modes = ("run", "traced") if trace else ("run",)
    least = MIN_TRACED if trace else MIN_RUNS
    deadline = min(session.deadline for session in sessions)
    budget = seconds * len(sessions)
    begin = time.monotonic()
    order, rounds = list(sessions), 0
    while True:
        for session in order:
            if not trace:
                session.probe()
                session.start("setup")
                session.probe()
            for mode in modes:
                session.start(mode)
        order.reverse()
        rounds += 1
        spent = time.monotonic() - begin
        if rounds >= least and (spent + spent / rounds > budget
                                or time.monotonic() + spent / rounds > deadline):
            break
    for session in sessions if not trace else ():
        session.probe()


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """'p<q> = v' for the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail percentile needs >= 11 samples, have {n}"
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s"


def report_runs(session):
    name = session.workload
    for result in session.all_results():
        kind = "traced" if "layers" in result else "run"
        if "failed_process" in result:
            print(f"[{name}] {kind}: process failed: {result['failed_process']}")
            continue
        gates = [g for c in result["commands"] for g in c["gates"]]
        passed = sum(1 for g in gates if g[1])
        parts = " ".join(f"{c['label']} {s:.3f} s"
                         for c, s in zip(result["commands"], result["command_s"]))
        spans = f", {result['spans']} spans" if "spans" in result else ""
        print(f"[{name}] {kind}: wall {result['wall_s']:.4f} s ({parts}), "
              f"cpu {result['cpu_s']:.4f} s, "
              f"setup {result['setup_s']:.4f} s, peak RSS {result['peak_rss_mb']:.1f} MB, "
              f"gates {passed}/{len(gates)} pass{spans}")
    # every gate of the first run, and of any later run that failed one
    for i, result in enumerate(session.all_results()):
        if i and all(c["ok"] for c in result["commands"]):
            continue
        for command in result["commands"]:
            for gate, ok, detail in command["gates"]:
                print(f"[{name}] gate {command['label']}/{gate}: "
                      f"{'PASS' if ok else 'FAIL'} ({detail})")
            if command.get("error") and not command["ok"]:
                print(f"[{name}] {command['label']} error: {command['error']}")
    health = {}
    for result in session.all_results():
        health.update(result.get("health", {}))
    for key, value in sorted(health.items()):
        print(f"[{name}] health {key} = {value:.6g} (recorded, not gated)")


def report_metrics(name, values, units, samples=None):
    for metric, value in values.items():
        note = f"  [{samples[metric]}]" if samples and metric in samples else ""
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}{note}")


def report_workload(session, trace):
    name = session.workload
    if session.machine:
        print(f"[{name}] env: {json.dumps(session.machine, sort_keys=True)}")
    report_runs(session)
    attempted, failed = session.counts()
    if trace:
        values = session.per_layer()
        report_metrics(name, values, {n: u for n, u, _ in layers.PER_LAYER})
        pairs = session.overheads()
        if pairs:
            print(f"[{name}] trace overhead per round: "
                  + ", ".join(f"{v:+.3f}" for v in pairs)
                  + f" (median of {len(pairs)}; single runs vary by more than the "
                  f"overhead, so read it as unresolved when the rounds disagree in sign)")
        ranking = sorted(((values[f"self_s.{layer}"], layer) for layer in layers.LAYERS),
                         reverse=True)
        print(f"[{name}] self time by layer: "
              + ", ".join(f"{layer} {v:.3f} s" for v, layer in ranking))
        missing = {m for r in session.traced for m in r.get("missing_wrappers", [])}
        if missing:
            print(f"[{name}] wrappers not installed (names not found): {sorted(missing)}")
    else:
        values = session.end_to_end()
        walls = [r["wall_s"] for r in session.runs if "wall_s" in r]
        speed = session.speed()
        print(f"[{name}] probe: mean {statistics.fmean(session.probes):.4f} s of "
              f"{len(session.probes)} (" + ", ".join(f"{v:.3f}" for v in session.probes)
              + f"); times below are scaled by {probe.REFERENCE_S} s / mean = {speed:.4f}")
        samples = {
            "wall_s": f"median of {len(walls)}, unscaled {median(walls):.4f} s; {tail(walls)}",
            "setup_s": f"median of {len(session.setups)}, "
                       f"unscaled {median(session.setups):.4f} s",
            "peak_rss_mb": f"median of {len(walls)}",
        }
        report_metrics(name, values, dict(END_TO_END), samples)
    print(f"[{name}] fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} commands)")
    return values, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same commands and gates at smoke-test size")
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "geomforce", "cli.py"),
                   os.path.join("tests", "closed_forms.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2

    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        deadline = time.monotonic() + RUN_LIMIT_S * len(names)
        order = []
        sessions = [Session(name, args.seed, args.size, tmp, deadline, order)
                    for name in names]
        measure(sessions, args.seconds, args.trace)
        if len(names) > 1:
            print("run order: " + " ".join(f"{w}/{mode}" for w, mode in order))
        metrics, attempted, failed = {}, 0, 0
        units = {n: u for n, u, _ in layers.PER_LAYER} if args.trace else dict(END_TO_END)
        for session in sessions:
            values, a, f = report_workload(session, args.trace)
            attempted, failed = attempted + a, failed + f
            for metric, value in values.items():
                key = metric if len(names) == 1 else f"{session.workload}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)
    unmeasured = sorted(key for key, m in metrics.items() if math.isnan(m["value"]))
    if unmeasured:
        print(f"perfbench: no run produced {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
