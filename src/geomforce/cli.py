"""Command-line front door.

Subcommands: parse, fields, extrema, classical, verify, force, report.
Exit codes: 0 success, 1 input error, 2 numerical non-convergence,
3 refuted hard invariant, 70 internal bug (EX_SOFTWARE), 141 (128 +
SIGPIPE) when the reader of standard output stops early, as `| head`
does.  Errors go to stderr as one JSON object, after the traceback for
an internal bug; a closed pipe prints nothing.

A config file of `key = value` lines (long option names without the
leading dashes) can seed any flag; explicit flags take precedence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import traceback

import numpy as np

from . import dynamics as dyn
from . import expr as ex
from . import geometry as geo
from . import jets
from . import optim
from .oplab import RepeatedIdentityError, UnknownIdentityError, run_identity_suite
from .reports import atomic_file, atomic_write, canonical_json, csv_rows, json_records, json_rows
from .surfaces import (
    CATALOG,
    InvalidParametersError,
    UnknownSurfaceError,
    builtin_surface,
    from_expression,
)


EXIT_SIGPIPE = 141  # 128 + SIGPIPE (13), the status a shell gives a process the signal ended


class CliInputError(ValueError):
    pass


# Typed errors only: a bare ValueError or KeyError is a bug and exits 70.
_INPUT_ERRORS = (
    CliInputError,
    ex.ParseError,
    ex.UnknownIdentifierError,
    UnknownSurfaceError,
    InvalidParametersError,
    geo.OffSurfaceError,
    dyn.IntegratorInputError,
    jets.DomainError,
    jets.DivisionByZeroLeadingTerm,
    UnknownIdentityError,
    RepeatedIdentityError,
    FileNotFoundError,
    json.JSONDecodeError,
)

_NUMERIC_ERRORS = (
    geo.NoConvergenceError,
    dyn.ProjectionFailureError,
    dyn.StepTooLargeError,
    optim.NoCriticalPointFoundError,
)

_LENGTH_SUFFIXES = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}  # "m" last: the others end in it


def _suffixed(text, suffixes):
    """A number with an optional unit suffix, times the suffix's factor."""
    text = str(text).strip()
    suffix = next((s for s in suffixes if text.endswith(s)), "")
    try:
        return float(text[: len(text) - len(suffix)]) * suffixes.get(suffix, 1.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number with an optional "
                                         f"{', '.join(suffixes)} suffix, got {text!r}") from None


def parse_length(text):
    """Length literal with optional suffix (m, mm, um, nm); meters out."""
    return _suffixed(text, _LENGTH_SUFFIXES)


def parse_mass(text):
    """Mass literal with optional kg suffix; kilograms out."""
    return _suffixed(text, {"kg": 1.0})


def parse_tolerance(text):
    """Tolerance literal; a finite positive float out."""
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan  # refused below, with the same message
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def parse_seed(text):
    """Seed literal; a non-negative int out, as numpy's generators take it."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1  # refused below, with the same message
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _read(flag, path):
    """The text of the file at path, given by flag: bad input, naming both, if unreadable."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise CliInputError(f"cannot read {flag} {path!r}: {reason}") from None


def _refuse_output_paths(args):
    """Bad input, naming the flag and the path, for an output path that
    atomic_file could not write: a directory, or a path whose directory does
    not exist or is not a directory.  Refused before any work."""
    for flag in ("--out", "--trajectory"):
        path = getattr(args, flag[2:], None)
        if not path:
            continue
        if os.path.isdir(path):
            raise CliInputError(f"cannot write {flag} {path!r}: it is a directory")
        directory = os.path.dirname(path) or "."  # "missing/" names a missing directory
        if not os.path.isdir(directory):
            problem = "is not a directory" if os.path.exists(directory) else "does not exist"
            raise CliInputError(f"cannot write {flag} {path!r}: {directory!r} {problem}")


def _require_positive_finite(flag, value):
    if not 0 < value < np.inf:
        raise CliInputError(f"{flag} must be positive and finite, got {value}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _numbers(text, flag, cast=float, count=None):
    """Comma-separated numbers of one flag, `count` of them when given."""
    try:
        values = [cast(v) for v in str(text).split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise CliInputError(f"bad {flag} '{text}', expected {count or 'some'} "
                            f"comma-separated numbers")
    return values


def _surface_from_args(args):
    if getattr(args, "expr", None):
        if args.surface:
            raise CliInputError("give either --surface or --expr, not both")
        params = {}
        for item in args.param or []:
            key, _, value = item.partition("=")
            if not _:
                raise CliInputError(f"bad --param '{item}', expected name=value")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise CliInputError(f"bad --param '{item}', value is not a "
                                    f"number") from None
        return from_expression(args.expr, args.dim, params,
                               is_signed_distance=args.signed_distance)
    if not args.surface:
        raise CliInputError("a surface is required (--surface or --expr)")
    if args.surface not in CATALOG:
        raise UnknownSurfaceError(f"unknown surface '{args.surface}'")
    params = {}
    for name in CATALOG[args.surface][2]:
        value = getattr(args, name if name != "R" else "big_r", None)
        if value is None:
            raise CliInputError(f"surface '{args.surface}' needs --{name}")
        params[name] = value
    return builtin_surface(args.surface, params)


def _add_surface_flags(parser, lengths=False):
    cast = parse_length if lengths else float
    parser.add_argument("--surface", help="catalog surface name")
    parser.add_argument("--a", type=cast, help="radius / equatorial semi-axis")
    parser.add_argument("--b", type=cast, help="polar semi-axis (spheroid)")
    parser.add_argument("--R", dest="big_r", type=cast, help="torus ring radius")
    parser.add_argument("--r", type=cast, help="torus tube radius")
    parser.add_argument("--expr", help="implicit surface expression f(x) = 0")
    parser.add_argument("--dim", type=int, default=3, choices=(2, 3, 4),
                        help="ambient dimension for --expr")
    parser.add_argument("--param", action="append",
                        help="name=value binding for --expr (repeatable)")
    parser.add_argument("--signed-distance", action="store_true",
                        help="declare that --expr is a signed distance")


def _emit(args, payload):
    _write(getattr(args, "out", None), [canonical_json(payload) + "\n"])


def _write(out, chunks):  # text chunks to the file out, or, once all are made, to stdout
    if out:
        atomic_write(out, chunks)
    else:
        sys.stdout.writelines(list(chunks))  # a command that fails prints no part of it


def _cmd_parse(args):
    tree = ex.parse_expression(args.expr_text)
    payload = {
        "expression": args.expr_text,
        "unparsed": ex.unparse(tree),
        "identifiers": sorted(ex.identifiers(tree)),
        "nodes": len(tree.postfix),
    }
    _emit(args, payload)
    return 0


def _cmd_fields(args):
    spec = _surface_from_args(args)
    policy = geo.ExtensionPolicy.parse(args.policy)
    resolution = None
    if args.resolution:
        parts = _numbers(args.resolution.lower().replace("x", ","),
                         "--resolution", int)
        if len(parts) > spec.dimension - 1 or min(parts) < 0:
            raise CliInputError(f"bad --resolution '{args.resolution}' for a "
                                f"{spec.dimension}-D surface")
        resolution = parts[0] if len(parts) == 1 else tuple(parts)
    if args.count is not None and args.count < 0:
        raise CliInputError("--count must be >= 0")
    points = geo.sample_points(spec, args.sampling, resolution, args.count, args.seed)
    layout = geo.sample_layout(spec.dimension)
    rows = csv_rows if args.format == "csv" else json_rows(layout)
    # each worker computes and formats whole blocks; this process joins the texts
    texts = geo.sample_blocks(spec, points, policy,
                              lambda columns: rows(geo.sample_table(columns)))
    if args.format == "csv":
        header = [",".join(geo.sample_header(spec.dimension)) + "\n"] if points.shape[1] else []
        _write(args.out, itertools.chain(header, texts))
        return 0
    payload = {
        "surface": spec.name,
        "params": {k: float(v) for k, v in spec.params.items()},
        "policy": policy.value,
        "sampling": args.sampling,
        "seed": args.seed,
    }
    _write(args.out, json_records(payload, "samples", layout, texts))
    return 0


def _cmd_extrema(args):
    spec = _surface_from_args(args)
    policy = geo.ExtensionPolicy.parse(args.policy)
    if args.starts < 1:
        raise CliInputError("--starts must be >= 1")
    # checked and echoed, but the meridian search reads neither --starts nor --seed
    points = optim.find_critical_points(spec, args.field, policy, tol=args.tol)
    payload = {
        "surface": spec.name,
        "params": {k: float(v) for k, v in spec.params.items()},
        "field": args.field,
        "policy": policy.value,
        "seed": args.seed,
    }
    payload.update(optim.to_report(points))
    _emit(args, payload)
    return 0


def _cmd_classical(args):
    spec = _surface_from_args(args)
    x0 = np.array(_numbers(args.x0, "--x0", count=spec.dimension))
    p0 = np.array(_numbers(args.p0, "--p0", count=spec.dimension))
    config = dyn.IntegratorConfig(dt=args.dt, steps=args.steps, mass=args.mass)
    traj = dyn.integrate(spec, dyn.TrajectoryState(x0, p0, 0.0), config)
    # the CSV is written before the residuals run, which is the faster order;
    # a failed step or residual leaves no file
    with atomic_file(args.trajectory) if args.trajectory else contextlib.nullcontext() as csv:
        if csv:
            csv.writelines(traj.csv_chunks())
        eq1 = dyn.force_residual(spec, traj)
        eq2 = dyn.geodesic_form_residual(spec, traj)
    payload = {
        "surface": spec.name,
        "dt": args.dt,
        "steps": args.steps,
        "mass": args.mass,
        "energy_drift": float(np.abs(traj.energy - traj.energy[0]).max()),
        "constraint_max": float(traj.f_residual.max()),
        "tangency_max": float(traj.tangency_residual.max()),
        "force_law": {"max": eq1.max, "rms": eq1.rms},
        "geodesic_form": {"max": eq2.max, "rms": eq2.rms},
    }
    if args.trajectory:
        payload["trajectory_csv"] = args.trajectory
    _emit(args, payload)
    return 0


def _cmd_verify(args):
    if args.surface == "circle":
        params = {"a": args.a if args.a is not None else 1.0}
    else:  # argparse's choices leave only the torus
        params = {"R": args.big_r if args.big_r is not None else 2.0,
                  "r": args.r if args.r is not None else 1.0}
    hbar, mu = args.hbar, args.mass
    # the verdicts are unit-free: hbar^2 / mu only scales the anchors' energies
    if not (hbar > 0 and mu > 0 and sys.float_info.min <= hbar * hbar / mu < np.inf):
        raise CliInputError(f"--hbar {hbar} and --mass {mu} must be positive, "
                            f"with hbar^2 / mu a normal float")
    sizes = _numbers(args.grids, "--grids", int)
    if (len(sizes) < 3 or any(s < 16 or s & (s - 1) for s in sizes)
            or any(a >= b for a, b in zip(sizes, sizes[1:]))):
        raise CliInputError(f"--grids needs at least 3 powers of two >= 16 in "
                            f"increasing order, got {args.grids}")
    identities = args.identities.split(",") if args.identities else None
    report = run_identity_suite(args.surface, params, sizes, hbar=hbar,
                                mu=mu, tol=args.tol,
                                identities=identities, seed=args.seed)
    _emit(args, report)
    return 3 if report["hard_failures"] else 0


def _cmd_force(args):
    mass = args.mass
    _require_positive_finite("--mass", mass)
    if args.surface == "generic":
        if args.curvature_scale is None:
            raise CliInputError("--surface generic needs --curvature-scale")
        length = args.curvature_scale
        _require_positive_finite("--curvature-scale", length)
        # the scale divides by this; a normal float, so that the ** in
        # curvature_force_scale cannot round it to 0
        if not sys.float_info.min <= mass * (length * length * length) < np.inf:
            raise CliInputError(f"--mass {mass} with --curvature-scale {length} puts "
                                f"mass * length^3 outside the float range")
        payload = {
            "surface": "generic",
            "mass_kg": mass,
            "curvature_scale_m": length,
            "force_scale_pN": geo.curvature_force_scale(mass, length),
        }
        _emit(args, payload)
        return 0
    spec = _surface_from_args(args)
    length_unit = min(v for v in spec.params.values()) if spec.params else 1.0
    if not length_unit > 0:
        raise CliInputError(f"the smallest parameter sets the length unit and must "
                            f"be positive, got {length_unit}")
    model_spec = _model_surface(spec, length_unit)
    if args.at:
        point = np.array(_numbers(args.at, "--at", count=spec.dimension))
    else:
        point = _default_point(spec) / length_unit
    policy = geo.ExtensionPolicy.parse(args.policy)
    sample = geo.curvature_sample(model_spec, point, policy)
    scale = geo.PhysicalScale(mass_kg=mass, length_unit_m=length_unit)
    force = geo.si_force_magnitude(sample, scale)
    payload = {
        "surface": spec.name,
        "mass_kg": mass,
        "length_unit_m": length_unit,
        "point_model": [float(v) for v in point],
        "lapM_model": sample.lapM,
        "chi_vector_N": [float(v) for v in force.vector_newton],
        "magnitude_pN": force.magnitude_piconewton,
    }
    _emit(args, payload)
    return 0


def _model_surface(spec, length_unit):
    """f_m(x) = f(L x) / L: the surface with lengths in units of L.

    Scaling the coordinates leaves dimensionless parameters alone, so a
    catalog surface and the same --expr surface share one model.
    """
    scale = ("num", length_unit)
    coordinates = {name: ex.Expression((scale, ("name", name), ("*", None)))
                   for names in ex.VARIABLE_NAMES[spec.dimension] for name in names}
    expression = ex.substitute(spec.expression, coordinates)
    return dataclasses.replace(spec, expression=ex.Expression(
        expression.postfix + (scale, ("/", None))))


def _default_point(spec):
    if spec.name == "circle":
        return np.array([spec.params["a"], 0.0])
    if spec.name in ("sphere", "cylinder"):
        return np.array([spec.params["a"], 0.0, 0.0])
    if spec.name == "spheroid":
        return np.array([0.0, 0.0, spec.params["b"]])
    if spec.name == "torus":
        return np.array([spec.params["R"] + spec.params["r"], 0.0, 0.0])
    return np.zeros(spec.dimension)


def _cmd_report(args):
    merged = {"reports": []}
    for path in args.inputs.split(","):
        merged["reports"].append({"path": path, "content": json.loads(_read("--inputs", path))})
    _emit(args, merged)
    return 0


def build_parser():
    # main seeds the flags from --config itself, so argparse may not take an abbreviation
    parser = _Parser(prog="geomforce", allow_abbrev=False,
                     description="Curvature-induced quantum force toolkit")
    parser.add_argument("--config", help="key = value file seeding any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate an expression and print its AST summary")
    p.add_argument("expr_text", help="expression text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("fields", help="sample curvature fields over a surface")
    _add_surface_flags(p)
    p.add_argument("--policy", default="sd", type=str.lower, choices=geo.POLICY_NAMES,
                   help="sd or gn extension")
    p.add_argument("--sampling", default="grid", choices=["grid", "random"])
    p.add_argument("--resolution", help="grid resolution, e.g. 64 or 64x1")
    p.add_argument("--count", type=int, help="random sample count")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fields)

    p = sub.add_parser("extrema", help="locate critical points of a curvature field")
    _add_surface_flags(p)
    p.add_argument("--field", default="lapM", choices=list(geo.FIELD_NAMES))
    p.add_argument("--policy", default="gn", type=str.lower, choices=geo.POLICY_NAMES)
    p.add_argument("--starts", type=int, default=24)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--tol", type=parse_tolerance, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extrema)

    p = sub.add_parser("classical", help="integrate constrained motion and check the force law")
    _add_surface_flags(p)
    p.add_argument("--x0", required=True, help="initial position, comma separated")
    p.add_argument("--p0", required=True, help="initial momentum, comma separated")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--trajectory", help="write the trajectory CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("verify", help="run the operator identity verdict suite")
    p.add_argument("--surface", required=True, choices=["circle", "torus"])
    p.add_argument("--a", type=float)
    p.add_argument("--R", dest="big_r", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--grids", default="32,64,128")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--tol", type=parse_tolerance, default=None)
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--identities", help="comma-separated identity ids (default all)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("force", help="curvature-induced force in SI units")
    _add_surface_flags(p, lengths=True)
    p.add_argument("--mass", required=True, type=parse_mass,
                   help="particle mass, kg (suffix optional)")
    p.add_argument("--curvature-scale", type=parse_length,
                   help="length scale for --surface generic")
    p.add_argument("--at", help="model-unit surface point, comma separated")
    p.add_argument("--policy", default="sd", type=str.lower, choices=geo.POLICY_NAMES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("report", help="merge prior JSON outputs into one summary")
    p.add_argument("--inputs", required=True, help="comma-separated JSON paths")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def _load_config(path):
    pairs = []
    for line in _read("--config", path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliInputError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.extend([f"--{key}", value])
    return pairs


def _diagnostic(code, error):
    payload = {
        "error": type(error).__name__,
        "message": str(error),
        "exit_code": code,
    }
    if getattr(error, "diagnostics", None) is not None:  # e.g. each root a search refined
        payload["diagnostics"] = error.diagnostics
    sys.stderr.write(canonical_json(payload) + "\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # config file seeds flags; explicit flags win because they come later.
        # --config=FILE is the same flag as --config FILE
        argv = [part for token in argv for part in
                (token.split("=", 1) if token.startswith("--config=") else [token])]
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                raise CliInputError("--config needs a path")
            config_pairs = _load_config(argv[idx + 1])
            rest = argv[:idx] + argv[idx + 2:]
            for i, token in enumerate(rest):
                if not token.startswith("-"):
                    argv = rest[: i + 1] + config_pairs + rest[i + 1:]
                    break
            else:
                argv = rest + config_pairs
        parser = build_parser()
        args = parser.parse_args(argv)
        _refuse_output_paths(args)
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe raises in this try
        return code
    except BrokenPipeError:
        # The reader stopped early: exit as a process killed by SIGPIPE, with
        # stdout on devnull so that the flush at exit finds no pipe to write.
        with contextlib.suppress(OSError, ValueError):  # no descriptor behind stdout
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return EXIT_SIGPIPE
    except _NUMERIC_ERRORS as error:
        _diagnostic(2, error)
        return 2
    except _INPUT_ERRORS as error:
        _diagnostic(1, error)
        return 1
    except Exception as error:  # a bug: keep its traceback, exit EX_SOFTWARE
        traceback.print_exc()
        _diagnostic(70, error)
        return 70


if __name__ == "__main__":
    raise SystemExit(main())
