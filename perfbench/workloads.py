"""The benchmark workloads: CLI argv built from a seed, and output gates.

A workload is a short sequence of real `geomforce` CLI commands, made of
two parts from the four command sequences below.  Its argv is a pure
function of (seed, size, output directory); "full" is the size the
benchmark measures and "tiny" the size of the smoke test, which runs the
same commands and gates.  The program sees only the argv.

Each command carries a check that reads its outputs and returns gate
results (name, passed, detail) plus numeric-health values, which are
recorded but never gated.  Closed forms come from tests/closed_forms.py.

This module imports only the standard library at load time, so a worker
can import it before it starts the set-up clock.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

SIZES = ("full", "tiny")


@dataclass
class Command:
    """One CLI invocation and the check of its outputs."""

    label: str
    argv: list
    check: Callable  # (exit_code) -> (gates, health)
    outputs: tuple   # files the command writes; removed after the check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple         # command builders (seed, size, outdir, root) -> list[Command]
    jet_spaces: tuple    # (nvars, degree) tables the commands build lazily
    surfaces: tuple      # (catalog name, params) whose f/grad_f get compiled

    def commands(self, seed, size, outdir, root):
        """The argv of every part, in order, with their checks."""
        return [command for part in self.parts for command in part(seed, size, outdir, root)]


def _closed_forms(root):
    path = os.path.join(root, "tests", "closed_forms.py")
    spec = importlib.util.spec_from_file_location("geomforce_closed_forms", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate(gates, name, ok, detail):
    gates.append((name, bool(ok), detail))


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _exit_gate(gates, code, expected=0):
    _gate(gates, "exit_code", code == expected, f"exit {code}, expected {expected}")
    return code == expected


# fields-torus --------------------------------------------------------------

TORUS = {"R": 2.0, "r": 1.0}


def _fields_torus(seed, size, outdir, root):
    count = {"full": 65536, "tiny": 512}[size]
    out = os.path.join(outdir, "fields-torus.json")
    argv = ["fields", "--surface", "torus", "--R", "2", "--r", "1",
            "--sampling", "random", "--count", str(count), "--seed", str(seed),
            "--out", out]

    def check(code):
        import numpy as np

        gates = []
        if not _exit_gate(gates, code):
            return gates, {}
        cf = _closed_forms(root)
        payload = _load(out)
        samples = payload["samples"]
        _gate(gates, "sample_count", len(samples) == count,
              f"{len(samples)} samples, expected {count}")
        _gate(gates, "seed_echo", payload["seed"] == seed, f"seed {payload['seed']}")
        R, r = TORUS["R"], TORUS["r"]
        x = np.array([s["x"] for s in samples]).T
        # torus parametrisation: rho = R + r sin(theta), z = r cos(theta)
        theta = np.arctan2(np.hypot(x[0], x[1]) - R, x[2])
        h1, h2 = cf.torus_curvatures(R, r, theta)
        expected = {
            "M": -(h1 + h2),
            "lapM": cf.torus_lap_sd(R, r, theta),
            "lapLB_M": cf.torus_lap_lb(R, r, theta),
        }
        # relative to |reference| floored at the curvature scale 1/r^k, since
        # lapLB_M crosses zero on the torus
        floors = {"M": 1.0 / r, "lapM": 1.0 / r ** 3, "lapLB_M": 1.0 / r ** 3}
        for key, ref in expected.items():
            got = np.array([s[key] for s in samples], dtype=float)
            rel = np.abs(got - ref) / np.maximum(np.abs(ref), floors[key])
            worst = float(np.max(rel)) if rel.size else 0.0
            _gate(gates, f"{key}_closed_form", np.all(np.isfinite(got)) and worst <= 1e-9,
                  f"worst relative error {worst:.3g} (limit 1e-9)")
        return gates, {}

    return [Command("fields", argv, check, (out,))]


# verify-suite --------------------------------------------------------------

EXPECTED_VERDICTS = {
    "torus": {"EQ3_MAIN": "confirmed", "EQ8_PP": "confirmed", "H_FORMS": "confirmed",
              "HERMITICITY": "confirmed", "EQ10_SCALAR": "refuted",
              "EQ11_F_SIMPL": "refuted", "EQ13_G_SIMPL": "refuted"},
}
EXPECTED_VERDICTS["circle"] = dict(EXPECTED_VERDICTS["torus"], EQ10_SCALAR="confirmed")


GRIDS = {"full": "32,64,128", "tiny": "16,32,64"}
VERIFY_SURFACES = {"torus": ["--R", "2", "--r", "1"], "circle": ["--a", "1"]}


def verify_command(surface, seed, size, outdir):
    """`verify` on one catalog surface, gated on its expected verdicts."""
    out = os.path.join(outdir, f"verify-{surface}.json")
    argv = (["verify", "--surface", surface] + VERIFY_SURFACES[surface]
            + ["--grids", GRIDS[size], "--seed", str(seed), "--out", out])

    def check(code):
        gates = []
        if not _exit_gate(gates, code):
            return gates, {}
        report = _load(out)
        _gate(gates, "hard_failures", report["hard_failures"] == [],
              f"hard failures {report['hard_failures']}")
        verdicts = {v["identity"]: v for v in report["identities"]}
        health = {}
        for ident, want in EXPECTED_VERDICTS[surface].items():
            verdict = verdicts.get(ident, {})
            residuals = verdict.get("residuals", [])
            _gate(gates, f"{ident}_{want}", verdict.get("verdict") == want,
                  f"verdict {verdict.get('verdict')}, residuals "
                  + ", ".join(f"{r:.3g}" for r in residuals))
            if residuals:
                health[f"oplab.residual.{surface}.{ident}"] = float(residuals[-1])
        health["oplab.hermiticity_defect"] = health.get(
            f"oplab.residual.{surface}.HERMITICITY", 0.0)
        return gates, health

    return Command(f"verify-{surface}", argv, check, (out,))


def _verify_suite(seed, size, outdir, root):
    # The torus only: `verify --surface circle` judges EQ3_MAIN (sometimes
    # EQ8_PP) "inconclusive" on most seeds, because the monotonicity test in
    # oplab's _judge reads residuals at the roundoff floor.  A workload must
    # not fail on a defect, so the circle runs in test_perfbench.py instead,
    # as an expected failure, until the program is fixed.
    return [verify_command("torus", seed, size, outdir)]


# spheroid-search -----------------------------------------------------------

SPHEROID = {"a": 1.0, "b": 2.0}


def _spheroid_search(seed, size, outdir, root):
    a, b = SPHEROID["a"], SPHEROID["b"]
    starts = {"full": 24, "tiny": 8}[size]
    nt, nph = {"full": (15, 16), "tiny": (3, 4)}[size]
    ext_out = os.path.join(outdir, "extrema.json")
    sd_out = os.path.join(outdir, "spheroid-sd.json")
    ext_argv = ["extrema", "--surface", "spheroid", "--a", "1", "--b", "2",
                "--field", "lapM", "--policy", "gn", "--starts", str(starts),
                "--seed", str(seed), "--out", ext_out]
    # an odd latitude count puts one ring of nph samples on the equator
    sd_argv = ["fields", "--surface", "spheroid", "--a", "1", "--b", "2",
               "--policy", "sd", "--resolution", f"{nt}x{nph}", "--out", sd_out]

    def check_extrema(code):
        gates = []
        if not _exit_gate(gates, code):
            return gates, {}
        ref = _closed_forms(root).SPHEROID_LAP[(a, b)]
        points = _load(ext_out)["critical_points"]

        def near(value, target):
            return abs(value - target) <= 1e-9 * abs(target)

        poles = [p for p in points if near(p["value"], ref["pole"]["gn"])
                 and abs(abs(p["location"][2]) - b) < 1e-6
                 and math.hypot(*p["location"][:2]) < 1e-6]
        _gate(gates, "pole_max", poles and all(p["class"] == "max" for p in poles),
              f"{len(poles)} pole record(s) at lapM={ref['pole']['gn']}, "
              f"classes {[p['class'] for p in poles]}")
        rings = [p for p in points if near(p["value"], ref["equator"]["gn"])
                 and abs(p["location"][2]) < 1e-6
                 and abs(math.hypot(*p["location"][:2]) - a) < 1e-6]
        _gate(gates, "equator_orbit",
              len(rings) == 1 and rings[0]["class"] == "degenerate-orbit",
              f"{len(rings)} equator record(s) at lapM={ref['equator']['gn']}, "
              f"classes {[p['class'] for p in rings]}")
        return gates, {}

    def check_sd(code):
        import numpy as np

        gates = []
        if not _exit_gate(gates, code):
            return gates, {}
        cf = _closed_forms(root)
        samples = _load(sd_out)["samples"]
        _gate(gates, "sample_count", len(samples) == nt * nph,
              f"{len(samples)} samples, expected {nt * nph}")
        x = np.array([s["x"] for s in samples]).T
        equator = np.abs(x[2]) < 1e-9
        _gate(gates, "equator_samples", int(equator.sum()) == nph,
              f"{int(equator.sum())} equator samples, expected {nph}")
        # The CLI does not print error_bound; the bound the program computes for
        # the equator batch is at most the one it computes for the whole batch,
        # so gating against it is the stricter test.
        from geomforce import geometry as geo
        from geomforce.surfaces import builtin_surface

        spec = builtin_surface("spheroid", SPHEROID)
        fields = geo.curvature_fields(spec, x[:, equator],
                                      geo.ExtensionPolicy.SIGNED_DISTANCE)
        bound = fields["error_bound"]
        t = np.arctan2(x[2] / b, np.hypot(x[0], x[1]) / a)
        k1, k2 = cf.spheroid_curvatures(a, b, t)
        m = np.array([s["M"] for s in samples])
        worst = float(np.max(np.abs(m + (k1 + k2))))
        limit = bound if bound is not None else 1e-9  # exact jets report no bound
        _gate(gates, "M_within_error_bound", worst <= limit,
              f"worst |M - M_ref| {worst:.3g}, error_bound {limit:.3g}")
        # recorded, not gated: the numeric signed-distance lapM misses its
        # closed form by more than its own error bound
        lap = np.array([s["lapM"] for s in samples])[equator]
        ref = cf.SPHEROID_LAP[(a, b)]["equator"]["sd"]
        return gates, {"geometry.sd_equator_lap_err": float(np.max(np.abs(lap - ref)))}

    return [Command("extrema", ext_argv, check_extrema, (ext_out,)),
            Command("fields-sd", sd_argv, check_sd, (sd_out,))]


# classical-torus -----------------------------------------------------------


def _classical_torus(seed, size, outdir, root):
    steps = {"full": 30000, "tiny": 300}[size]
    dt = 1e-3
    # direction of the initial momentum in the (y, z) tangent plane at (3, 0, 0)
    alpha = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    out = os.path.join(outdir, "classical.json")
    csv = os.path.join(outdir, "trajectory.csv")
    argv = ["classical", "--surface", "torus", "--R", "2", "--r", "1",
            "--x0", "3,0,0", "--p0", f"0,{math.cos(alpha)!r},{math.sin(alpha)!r}",
            "--dt", repr(dt), "--steps", str(steps), "--trajectory", csv,
            "--out", out]

    def check(code):
        from geomforce.dynamics import IntegratorConfig

        gates = []
        if not _exit_gate(gates, code):
            return gates, {}
        report = _load(out)
        tol = IntegratorConfig(dt=dt, steps=steps).constraint_tol
        _gate(gates, "constraint", report["constraint_max"] <= tol,
              f"max |f| {report['constraint_max']:.3g} <= constraint_tol {tol:g}")
        # The momentum is projected onto the tangent plane in closed form each
        # step, so only roundoff on |p| = 1 remains.
        _gate(gates, "tangency", report["tangency_max"] <= 1e-12,
              f"max |n.p| {report['tangency_max']:.3g} <= 1e-12 (roundoff)")
        # With |p| = mu = 1 and curvatures <= 1/r = 1, the integrator's energy
        # error and the central-difference error of dp/dt are both O(dt^2)
        # with constants below 1; dt^2 = 1e-6.
        limit = dt ** 2
        for key, value in (("energy_drift", report["energy_drift"]),
                           ("force_law", report["force_law"]["max"]),
                           ("geodesic_form", report["geodesic_form"]["max"])):
            _gate(gates, key, value <= limit, f"{value:.3g} <= dt^2 = {limit:g}")
        with open(csv) as handle:
            rows = sum(1 for _ in handle) - 1
        _gate(gates, "trajectory_rows", rows == steps + 1,
              f"{rows} rows, expected {steps + 1}")
        return gates, {}

    return [Command("classical", argv, check, (out, csv))]


# Two workloads, each two of the four command sequences the benchmark was
# designed around, so that a run is long enough for its median to stand above
# this host's minute-to-minute speed changes.  The split keeps a workload that
# runs each of FFT, the optimizer, the RATTLE loop and large JSON output, and
# one that bypasses it.
WORKLOADS = {
    w.name: w for w in (
        Workload("torus-fields-classical",
                 "fields over 65,536 random torus samples (wide degree-4 jets, 34 MB "
                 "JSON), then a 30,000-step RATTLE run (scalar f/grad_f, 6 MB CSV); "
                 "no FFT, no optimizer.",
                 (_fields_torus, _classical_torus), ((3, 4), (3, 2)),
                 (("torus", TORUS),)),
        Workload("verify-spheroid",
                 "Torus operator identities on 32/64/128 grids (FFT passes), then the "
                 "spheroid extrema search (B=1 jets, optimizer) and numeric "
                 "signed-distance fields; small outputs.",
                 (_verify_suite, _spheroid_search),
                 ((2, 4),) + tuple((3, d) for d in range(1, 6)),
                 (("torus", TORUS), ("spheroid", SPHEROID))),
    )
}
