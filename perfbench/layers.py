"""Per-layer wrappers for the traced run, and the per-layer metrics.

Spans are installed where the caller looks a name up.  Modules that bind a
name at import (cli.canonical_json, cli.atomic_write, cli.run_identity_suite,
identities.build_grid) are patched in the importing module.
reports.canonical_json recurses through its own module global, so only the
top-level name in cli is wrapped.  numpy.fft is patched on the numpy.fft
module because oplab looks fft/ifft/ifftn up through np.fft at call time.
"""

from __future__ import annotations

import importlib

LAYERS = ("expr", "surfaces", "jets", "geometry", "optim", "dynamics", "oplab",
          "reports", "cli")
IDENTITY_IDS = ("EQ3_MAIN", "EQ8_PP", "EQ10_SCALAR", "EQ11_F_SIMPL",
                "EQ13_G_SIMPL", "H_FORMS", "HERMITICITY")
COMMANDS = ("fields", "extrema", "classical", "verify")
ROOT_SPAN = "bench.workload"


def _cols(array):
    """Batch columns of an (N,) or (N, B) array."""
    shape = getattr(array, "shape", ())
    return 1 if len(shape) < 2 else shape[-1]


def _count_cols(key, arg_index):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += _cols(args[arg_index])
    return after


def _surface_eval(kind):
    def after(tracer, args, kwargs, result):
        cols = _cols(args[1])
        tracer.counters["surfaces.eval_cols"] += cols
        if kind == "grad_f" and tracer.is_active("geometry.project"):
            tracer.counters["geometry.project_grad_f"] += 1
        if tracer.is_active("dynamics.step"):
            tracer.counters["dynamics.step_evals"] += 1
    return after


def _field_eval(tracer, args, kwargs, result):
    tracer.counters["geometry.field_evals"] += 1
    if tracer.is_active("optim.walk"):
        tracer.counters["optim.walk_evals"] += 1


def _field_value(tracer, args, kwargs, result):
    # field_value_and_gradient calls field_value on its numeric path; count
    # each evaluation once
    if not tracer.is_active("geometry.field_eval"):
        _field_eval(tracer, args, kwargs, result)


def _walk(tracer, args, kwargs, result):
    tracer.counters["optim.walks"] += 1
    tracer.counters["optim.converged"] += bool(result[3])


def _fields(tracer, args, kwargs, result):
    bound = result.get("error_bound")
    if bound is not None:
        key = "geometry.error_bound"
        tracer.counters[key] = max(tracer.counters[key], float(bound))


def _text_bytes(key):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += len(result)
    return after


def _fft(tracer, args, kwargs, result):
    tracer.counters["oplab.fft_points"] += getattr(args[0], "size", 0)


def _identity_name(args, kwargs):
    ident = args[1] if len(args) > 1 else kwargs["identity_id"]
    return f"oplab.identity.{ident}"


def install(tracer):
    """Wrap every layer boundary; tracer.uninstall() restores the originals."""
    import numpy

    mod = importlib.import_module
    cli = mod("geomforce.cli")
    expr = mod("geomforce.expr")
    surfaces = mod("geomforce.surfaces")
    jets = mod("geomforce.jets")
    geometry = mod("geomforce.geometry")
    optim = mod("geomforce.optim")
    dynamics = mod("geomforce.dynamics")
    identities = mod("geomforce.oplab.identities")
    linops = mod("geomforce.oplab.linops")
    t = tracer.install

    t(cli, "main", "cli.main")
    for command in COMMANDS:
        t(cli, f"_cmd_{command}", f"cli.{command}")
    t(cli, "canonical_json", "reports.canonical_json", _text_bytes("reports.json_bytes"))
    t(cli, "atomic_write", "reports.atomic_write")
    t(cli, "run_identity_suite", "oplab.suite")

    t(expr, "parse_expression", "expr.parse")
    t(expr, "to_callable", "expr.to_callable")
    t(expr, "differentiate", "expr.differentiate", outermost=True)

    spec = surfaces.SurfaceSpec
    t(spec, "f", "surfaces.f", _surface_eval("f"))
    t(spec, "grad_f", "surfaces.grad_f", _surface_eval("grad_f"))
    t(spec, "jet", "surfaces.jet", _count_cols("surfaces.jet_cols", 1))

    t(jets, "evaluate_jet", "jets.evaluate_jet")
    t(jets.JetSpace, "multiply_normalized", "jets.product",
      _count_cols("jets.product_cols", 1))
    t(jets, "apply_function", "jets.function")

    t(geometry, "project_to_surface", "geometry.project",
      _count_cols("geometry.project_cols", 1))
    t(geometry, "_numeric_distance_tables", "geometry.sd_point")
    t(geometry, "curvature_fields", "geometry.fields", _fields)
    t(geometry, "curvature_samples", "geometry.samples")
    t(geometry.CurvatureSample, "to_dict", "geometry.to_dict")
    t(geometry, "field_value_and_gradient", "geometry.field_eval", _field_eval)
    t(geometry, "field_value", "geometry.field_value", _field_value)

    t(optim, "find_critical_points", "optim.search")
    t(optim, "_ascend", "optim.walk", _walk)
    t(optim, "classify_critical_point", "optim.classify")

    t(dynamics, "integrate", "dynamics.integrate")
    t(dynamics, "_rattle_step", "dynamics.step")
    t(dynamics, "force_residual", "dynamics.residual")
    t(dynamics, "geodesic_form_residual", "dynamics.residual")
    t(dynamics.Trajectory, "to_csv", "dynamics.csv", _text_bytes("dynamics.csv_bytes"))

    t(identities, "build_grid", "oplab.build_grid")
    t(identities, "check_identity", _identity_name)
    t(linops.LinOp, "__call__", "oplab.op")
    for name in ("fft", "ifft", "ifftn"):
        t(numpy.fft, name, "oplab.fft", _fft)


# (name, unit, better).  Where each layer should move wall_s, written down
# before measuring (the layer has about no share on the parts not named);
# torus-fields-classical runs the fields and classical parts, verify-spheroid
# the verify and spheroid parts:
#   expr      setup_s; classical (compiled f/grad_f)
#   surfaces  classical, spheroid (scalar f/grad_f)
#   jets      fields (65,536-column products), spheroid (B=1),
#             verify (build_grid); not classical
#   geometry  fields (fields, samples, to_dict); spheroid
#             (projection, numeric signed distance, field evaluations)
#   optim     spheroid
#   dynamics  classical
#   oplab     verify (FFT passes, operator applications)
#   reports   fields (34 MB of JSON); not verify
#   cli       argparse and payload assembly on every workload
PER_LAYER = (
    [("expr.parse_calls", "count", "lower"),
     ("expr.compile_calls", "count", "lower"),
     ("expr.compile_s", "s", "lower"),
     ("surfaces.f_calls", "count", "lower"),
     ("surfaces.grad_f_calls", "count", "lower"),
     ("surfaces.eval_cols", "count", "lower"),
     ("surfaces.eval_s", "s", "lower"),
     ("surfaces.jet_calls", "count", "lower"),
     ("surfaces.jet_cols", "count", "lower"),
     ("jets.evaluate_s", "s", "lower"),
     ("jets.product_calls", "count", "lower"),
     ("jets.product_cols", "count", "lower"),
     ("jets.cols_per_product", "cols/call", "higher"),
     ("jets.product_s", "s", "lower"),
     ("jets.function_calls", "count", "lower"),
     ("geometry.project_calls", "count", "lower"),
     ("geometry.project_cols", "count", "lower"),
     ("geometry.project_iters", "count", "lower"),
     ("geometry.project_s", "s", "lower"),
     ("geometry.sd_points", "count", "lower"),
     ("geometry.fields_s", "s", "lower"),
     ("geometry.samples_s", "s", "lower"),
     ("geometry.to_dict_s", "s", "lower"),
     ("geometry.field_evals", "count", "lower"),
     ("geometry.sd_err_over_bound", "ratio", "lower"),
     ("optim.search_s", "s", "lower"),
     ("optim.walks", "count", "lower"),
     ("optim.converged_ratio", "ratio", "higher"),
     ("optim.evals_per_walk", "evals/walk", "lower"),
     ("optim.classify_calls", "count", "lower"),
     ("optim.classify_s", "s", "lower"),
     ("dynamics.steps", "count", "lower"),
     ("dynamics.step_us", "us", "lower"),
     ("dynamics.evals_per_step", "evals/step", "lower"),
     ("dynamics.residual_s", "s", "lower"),
     ("dynamics.csv_s", "s", "lower"),
     ("dynamics.csv_bytes", "bytes", "lower"),
     ("oplab.build_grid_s", "s", "lower"),
     ("oplab.fft_calls", "count", "lower"),
     ("oplab.fft_points", "count", "lower"),
     ("oplab.fft_s", "s", "lower"),
     ("oplab.op_applications", "count", "lower"),
     ("oplab.ffts_per_application", "ffts/app", "lower")]
    + [(f"oplab.identity_s.{ident}", "s", "lower") for ident in IDENTITY_IDS]
    + [("oplab.hermiticity_defect", "ratio", "lower")]
    + [(f"oplab.residual.torus.{ident}", "ratio", "lower") for ident in IDENTITY_IDS]
    + [("reports.json_s", "s", "lower"),
       ("reports.json_bytes", "bytes", "lower"),
       ("reports.write_s", "s", "lower")]
    + [(f"cli.{command}_s", "s", "lower") for command in COMMANDS]
    + [("cli.self_s", "s", "lower")]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio", "lower")]
)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, health):
    """Every PER_LAYER value but trace.overhead_frac, from one traced run.

    health holds the numeric-health values the workload gates recorded;
    the ones a workload does not produce read 0.
    """
    calls = lambda name: tracer.by_name(tracer.calls, name)
    total = lambda name: tracer.by_name(tracer.total, name)
    own = lambda name: tracer.by_name(tracer.self_time, name)
    c = tracer.counters
    steps = calls("dynamics.step")
    walks = c["optim.walks"]
    products = calls("jets.product")
    ffts = calls("oplab.fft")
    ops = calls("oplab.op")
    out = {
        "expr.parse_calls": calls("expr.parse"),
        "expr.compile_calls": calls("expr.to_callable") + calls("expr.differentiate"),
        "expr.compile_s": total("expr.to_callable") + total("expr.differentiate"),
        "surfaces.f_calls": calls("surfaces.f"),
        "surfaces.grad_f_calls": calls("surfaces.grad_f"),
        "surfaces.eval_cols": c["surfaces.eval_cols"],
        "surfaces.eval_s": own("surfaces.f") + own("surfaces.grad_f"),
        "surfaces.jet_calls": calls("surfaces.jet"),
        "surfaces.jet_cols": c["surfaces.jet_cols"],
        "jets.evaluate_s": own("jets.evaluate_jet"),
        "jets.product_calls": products,
        "jets.product_cols": c["jets.product_cols"],
        "jets.cols_per_product": _ratio(c["jets.product_cols"], products),
        "jets.product_s": total("jets.product"),
        "jets.function_calls": calls("jets.function"),
        "geometry.project_calls": calls("geometry.project"),
        "geometry.project_cols": c["geometry.project_cols"],
        "geometry.project_iters": c["geometry.project_grad_f"] / 2.0,
        "geometry.project_s": total("geometry.project"),
        "geometry.sd_points": calls("geometry.sd_point"),
        "geometry.fields_s": own("geometry.fields"),
        "geometry.samples_s": own("geometry.samples"),
        "geometry.to_dict_s": total("geometry.to_dict"),
        "geometry.field_evals": c["geometry.field_evals"],
        "geometry.sd_err_over_bound": _ratio(health.get("geometry.sd_equator_lap_err", 0.0),
                                             c["geometry.error_bound"]),
        "optim.search_s": own("optim.search"),
        "optim.walks": walks,
        "optim.converged_ratio": _ratio(c["optim.converged"], walks),
        "optim.evals_per_walk": _ratio(c["optim.walk_evals"], walks),
        "optim.classify_calls": calls("optim.classify"),
        "optim.classify_s": total("optim.classify"),
        "dynamics.steps": steps,
        "dynamics.step_us": _ratio(total("dynamics.step"), steps) * 1e6,
        "dynamics.evals_per_step": _ratio(c["dynamics.step_evals"], steps),
        "dynamics.residual_s": total("dynamics.residual"),
        "dynamics.csv_s": total("dynamics.csv"),
        "dynamics.csv_bytes": c["dynamics.csv_bytes"],
        "oplab.build_grid_s": own("oplab.build_grid"),
        "oplab.fft_calls": ffts,
        "oplab.fft_points": c["oplab.fft_points"],
        "oplab.fft_s": total("oplab.fft"),
        "oplab.op_applications": ops,
        "oplab.ffts_per_application": _ratio(ffts, ops),
        "reports.json_s": total("reports.canonical_json"),
        "reports.json_bytes": c["reports.json_bytes"],
        "reports.write_s": total("reports.atomic_write"),
        "cli.self_s": own("cli.main") + sum(own(f"cli.{cmd}") for cmd in COMMANDS),
    }
    for ident in IDENTITY_IDS:
        out[f"oplab.identity_s.{ident}"] = total(f"oplab.identity.{ident}")
    for command in COMMANDS:
        out[f"cli.{command}_s"] = total(f"cli.{command}")
    for layer in LAYERS:
        out[f"self_s.{layer}"] = layer_self_time(tracer, layer)
    for name, _, _ in PER_LAYER:
        if name.startswith("oplab.residual.") or name == "oplab.hermiticity_defect":
            out[name] = health.get(name, 0.0)
    return {name: float(value) for name, value in out.items()}


def layer_self_time(tracer, layer):
    """Sum of self times of every span whose name starts with layer + '.'."""
    prefix = layer + "."
    return sum(tracer.self_time[nid] for nid, name in enumerate(tracer.names)
               if name.startswith(prefix))
