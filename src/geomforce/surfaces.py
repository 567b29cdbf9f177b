"""Implicit surface specifications, the builtin catalog and its charts.

A SurfaceSpec bundles an expression f with its dimension, parameter
bindings, and a signed-distance flag (true when |grad f| = 1 holds
identically near the surface, which makes jets of f directly usable as
jets of the distance function).  The expression is compiled once into an
`expr.Tape`; f runs its value program over float arrays, f_and_grad its
value_and_gradient program (the run and its adjoint sweep), and jets run
the value program over Taylor jets.  The classical integrator runs the
same value_and_gradient over Python floats (`expr.float_call`), one point
at a time.  The tape's only arithmetic is + - * / and numpy's functions
(math.sqrt in a float run, with the same bits), so a point gets the same f
and grad f bits alone, in a batch and in a float run.

Each catalog surface also has a chart in CHARTS, the one place that writes
its parametrization x(u): chart_points gives the chart's points on a
coordinate grid or as seeded random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .expr import InvalidParametersError


class UnknownSurfaceError(ValueError):
    """Requested catalog surface does not exist."""


@dataclass(frozen=True)
class SurfaceSpec:
    """An implicit surface f(x) = 0 with bound parameters.

    The expression is compiled at construction into `tape`, so an unbound
    identifier raises UnknownIdentifierError here.
    """

    name: str
    expression: ex.Expression
    dimension: int
    params: dict = field(default_factory=dict)
    is_signed_distance: bool = False
    tape: ex.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tape",
                           ex.compile_tape(self.expression, self.dimension, self.params))

    def f(self, points):
        """f at shape (N,) or (N, B) points."""
        points = np.asarray(points, dtype=float)
        return self.tape.value(points, ex.numpy_call) + 0.0 * points[0]

    def f_and_grad(self, points):
        """f and grad f (same shape as points) from one float run of the tape
        and its adjoint sweep."""
        points = np.asarray(points, dtype=float)
        zero = 0.0 * points[0]
        f, grad = self.tape.value_and_gradient(points, ex.numpy_call)
        return f + zero, np.array([g + zero for g in grad])

    def grad_f(self, points):
        """grad f, same shape as points."""
        return self.f_and_grad(points)[1]

    def jet(self, points, degree):
        """Exact jet of f at the point(s)."""
        points = np.asarray(points, dtype=float)
        space = jets.jet_space(self.dimension, degree)
        inputs = [jets.variable(space, axis, x) for axis, x in enumerate(points)]
        out = self.tape.value(inputs, jets.apply_function)
        return out if isinstance(out, jets.Jet) else jets.constant(space, out, like=points)

    def feature_scale(self):
        """Characteristic length for step sizes and merge tolerances."""
        positive = [v for v in self.params.values() if v > 0]
        return float(min(positive)) if positive else 1.0


def from_expression(text, dimension, params=None, is_signed_distance=False, name=None):
    """Build a spec from expression text, checking identifier bindings."""
    tree = ex.parse_expression(text)
    return SurfaceSpec(
        name=name or text,
        expression=tree,
        dimension=dimension,
        params=dict(params or {}),
        is_signed_distance=is_signed_distance,
    )


CATALOG = {
    "circle": ("sqrt(x^2 + y^2) - a", 2, ("a",), True),
    "sphere": ("sqrt(x^2 + y^2 + z^2) - a", 3, ("a",), True),
    "cylinder": ("sqrt(x^2 + y^2) - a", 3, ("a",), True),
    "spheroid": ("(x^2 + y^2)/a^2 + z^2/b^2 - 1", 3, ("a", "b"), False),
    "torus": ("sqrt((sqrt(x^2 + y^2) - R)^2 + z^2) - r", 3, ("R", "r"), True),
    "plane": ("z", 3, (), True),
}


def builtin_surface(name, params=None):
    """Catalog surface by name.

    circle(a), sphere(a), cylinder(a), spheroid(a, b), torus(R, r) with
    r < R, and plane (z = 0).  All members except the spheroid are exact
    signed-distance expressions.
    """
    if name not in CATALOG:
        raise UnknownSurfaceError(
            f"unknown surface '{name}'; catalog: {', '.join(sorted(CATALOG))}"
        )
    text, dimension, wanted, signed = CATALOG[name]
    params = dict(params or {})
    missing = set(wanted) - set(params)
    extra = set(params) - set(wanted)
    if missing or extra:
        raise InvalidParametersError(
            f"surface '{name}' takes parameters {wanted}; "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for key in wanted:
        value = params[key]
        if not value > 0:
            raise InvalidParametersError(f"parameter {key} must be positive, got {value}")
        # the catalog squares its parameters; a square of 0 or inf breaks f
        if not 0.0 < value * value < np.inf:
            raise InvalidParametersError(f"parameter {key}={value} leaves the "
                                         f"float range when squared")
    if name == "torus" and not params["r"] < params["R"]:
        raise InvalidParametersError(
            f"torus tube radius r={params['r']} must be smaller than ring radius R={params['R']}"
        )
    return from_expression(text, dimension, params, is_signed_distance=signed, name=name)


# Charts ---------------------------------------------------------------------------

# A coordinate kind: ANGLE is periodic on [0, 2 pi); LATITUDE is open at the
# poles on (-pi/2, pi/2) and drawn area-uniformly (arcsin of a uniform draw);
# any other kind maps the parameters to a closed span (lo, hi).
ANGLE, LATITUDE = "angle", "latitude"


def _spheroid_chart(p, t, ph):
    rho = p["a"] * np.cos(t)
    return rho * np.cos(ph), rho * np.sin(ph), p.get("b", p["a"]) * np.sin(t)


def _torus_chart(p, th, ph):
    rho = p["R"] + p["r"] * np.sin(th)
    return rho * np.cos(ph), rho * np.sin(ph), p["r"] * np.cos(th)


# catalog name -> (embedding x(params, *coordinates), coordinate kinds)
CHARTS = {
    "circle": (lambda p, th: (p["a"] * np.cos(th), p["a"] * np.sin(th)), (ANGLE,)),
    "sphere": (_spheroid_chart, (LATITUDE, ANGLE)),
    "cylinder": (lambda p, th, z: (p["a"] * np.cos(th), p["a"] * np.sin(th), z),
                 (ANGLE, lambda p: (-p["a"], p["a"]))),
    "spheroid": (_spheroid_chart, (LATITUDE, ANGLE)),
    "torus": (_torus_chart, (ANGLE, ANGLE)),
    "plane": (lambda p, u, v: (u, v, np.zeros_like(u)),
              (lambda p: (-1.0, 1.0), lambda p: (-1.0, 1.0))),
}


def _axis(kind, params, n):
    if kind == ANGLE:
        return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if kind == LATITUDE:
        return np.linspace(-np.pi / 2, np.pi / 2, n + 2)[1:-1]
    return np.linspace(*kind(params), n)


def _draw(kind, params, rng, count):
    if kind == ANGLE:
        return rng.uniform(0, 2 * np.pi, count)
    if kind == LATITUDE:
        return np.arcsin(rng.uniform(-1, 1, count))
    return rng.uniform(*kind(params), count)


def chart(spec):
    """The (embedding, coordinate kinds) of a catalog surface's chart."""
    if spec.name not in CHARTS:
        raise UnknownSurfaceError(
            f"surface '{spec.name}' has no chart; fields and extrema take catalog "
            f"surfaces only ({', '.join(sorted(CHARTS))})")
    return CHARTS[spec.name]


def chart_points(spec, resolution=None, count=0, rng=None):
    """Chart coordinates and embedded points of a catalog surface.

    Without a generator `rng`: the 1D axes of a grid of `resolution` nodes
    (an int for every coordinate, or one per coordinate) and points of
    shape (N,) + resolution.  With it: `count` draws from rng, one
    coordinate after another, and points of shape (N, count).
    """
    embed, kinds = chart(spec)
    if rng is not None:
        coords = [_draw(kind, spec.params, rng, count) for kind in kinds]
        return coords, np.stack(embed(spec.params, *coords))
    if isinstance(resolution, int):
        resolution = (resolution,) * len(kinds)
    coords = [_axis(kind, spec.params, n) for kind, n in zip(kinds, resolution, strict=True)]
    return coords, np.stack(embed(spec.params, *np.meshgrid(*coords, indexing="ij")))
