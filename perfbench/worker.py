"""One fresh benchmark process: set up, run one workload once, check it.

run.py starts this script once per measurement, so every sample pays the
interpreter's own set-up, as a CLI user does:

    python3 perfbench/worker.py '<job as JSON>'

Job keys: root (checkout root), workload, seed, size, mode ("setup" only
sets up; "run" also runs the workload; "traced" runs it with the layer
wrappers installed), outdir (for the workload's outputs), spans (where a
traced run writes its spans) and run_id.  The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import layers
import workloads
from spans import Tracer

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(root, workload):
    """Import the CLI and build the lazy tables the workload uses; seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    from geomforce import cli, jets, surfaces  # noqa: F401

    for nvars, degree in workload.jet_spaces:
        jets.jet_space(nvars, degree)
    for name, params in workload.surfaces:
        spec = surfaces.builtin_surface(name, params)
        point = [params.get("R", 0.0) + params.get("r", 0.0), 0.0, 0.0] \
            if name == "torus" else [params["a"], 0.0, 0.0]
        spec.f(point)
        spec.grad_f(point)
    elapsed = time.perf_counter() - t0
    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise RuntimeError(f"geomforce imported from {source}, not from {root}/src")
    return elapsed


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_commands(commands):
    """Run each command through geomforce.cli.main; (exit codes, errors, seconds)."""
    from geomforce import cli

    codes, errors, seconds = [], [], []
    for command in commands:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(command.argv))
            error = sink.getvalue().strip() or None
        except Exception:  # an internal bug: record it and go on to the next command
            code, error = None, traceback.format_exc(limit=4)
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(error)
    return codes, errors, seconds


def check(commands, codes, errors):
    """Gate every command's outputs; (per-command records, health values)."""
    records, health = [], {}
    for command, code, error in zip(commands, codes, errors):
        try:
            gates, values = command.check(code)
        except Exception:
            gates, values = [("check", False, traceback.format_exc(limit=4))], {}
        for key, value in values.items():
            health[key] = max(value, health.get(key, value))
        for path in command.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        records.append({"label": command.label, "exit": code, "error": error,
                        "ok": bool(gates) and all(ok for _, ok, _ in gates),
                        "gates": gates})
    return records, health


def main(job):
    workload = workloads.WORKLOADS[job["workload"]]
    result = {"setup_s": set_up(job["root"], workload), "env": environment()}
    if job["mode"] == "setup":
        return result

    os.makedirs(job["outdir"], exist_ok=True)
    commands = workload.commands(job["seed"], job["size"], job["outdir"], job["root"])
    execute = run_commands
    tracer = None
    if job["mode"] == "traced":
        tracer = Tracer(job["run_id"])
        layers.install(tracer)
        execute = tracer.wrap(run_commands, layers.ROOT_SPAN)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        codes, errors, seconds = execute(commands)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["command_s"] = seconds
    result["commands"], health = check(commands, codes, errors)
    result["health"] = health
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, health)
        result["spans"] = tracer.span_count()
        result["span_self_sum_s"] = sum(tracer.self_time.values())
        result["missing_wrappers"] = tracer.missing
        if job.get("spans"):
            os.makedirs(os.path.dirname(job["spans"]), exist_ok=True)
            tracer.write(job["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
