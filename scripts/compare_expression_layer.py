#!/usr/bin/env python3
"""Compare the expression layer of two source trees on a fixed set of texts.

    python scripts/compare_expression_layer.py OLD/src NEW/src

Each tree is imported in its own process, which records for every text: the
parse outcome, and the `unparse` text, `identifiers` and the tape
(nvars, constants, code, out) or compile error (type and message) for two
dimensions and two parameter sets, before and after a `substitute`; and the
`parse` command's stdout, stderr and exit code.  The texts are the catalog,
the finite-difference samples of tests/test_expr.py, CI's five-function
expression, x^0 cases, long sums, refused texts and 600 distinct seeded
random texts.  Exits 1 naming the texts whose records differ.
"""
import contextlib
import io
import os
import pickle
import random
import subprocess
import sys
import tempfile

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")
FD_SAMPLES = [
    "x^2 * y + sin(x)",
    "sqrt(x^2 + y^2 + 1)",
    "exp(x / 2) * cos(y)",
    "log(x + 3) - y^3",
    "(x + y)^4 / (1 + x^2)",
]
FIVE = ("x^2 + y^2 + z^2 - 1 + 0.1*sin(z) + 0.1*(cos(y) - 1) + 0.1*(exp(z) - 1) "
        "+ 0.1*log(x) + 0.1*(sqrt(x) - 1)")
ZERO_POWERS = ["sin(x)^0 + y + sin(x)", "sqrt(-a)^0 * x", "x^5 - y^-3 + x^2 * y^0",
               "sqrt(-(y + r)^0)", "x - sqrt(-a^0)", "(x^0)^0 + (a - a)^0", "-(log(-a))^0^3",
               "sin(x^0 + y)^0 * cos(y^0) - exp(a^0)^0"]
MISC = ["-x^2^3 + sin(-(y)) / (z - 2)^-2", "-x^2^3 + -(y - -z)^-3 / a", "x - 1e300 * 1e300",
        "x - exp(-a)", "x - 1 / (b - b)", "x - a^-3", "x * a - y * b * c", "1 - 2 - 3",
        "x^3^39", "x^1^-5", "x + q", "abs(x)", "x^^2", "   ", "x^2.5", "x^(2)", "1e309*x",
        "(" * 101 + "x" + ")" * 101, "(" * 100 + "x" + ")" * 100, "x^2^70", "sin(x",
        "1.7976931348623157e308 * x", "x1 + x2 * x3 - x4", "0.0 * -0.0 + x",
        " + ".join(["x"] * 2000), "z" + " + 0*x" * 1199, " + ".join(["x"] * 3000) + " - z"]


def random_text(rng, depth=0):
    roll = rng.random()
    if depth > 5 or roll < 0.3:
        return rng.choice(["x", "y", "z", "a", "b", "R", "r", "0", "1", "2.5", "0.5", "1e-200",
                           "1e200", str(round(rng.uniform(0, 100), 3))])
    if roll < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        return f"{random_text(rng, depth + 1)} {op} {random_text(rng, depth + 1)}"
    if roll < 0.65:
        return f"-{random_text(rng, depth + 1)}"
    if roll < 0.8:
        return f"({random_text(rng, depth + 1)})^{rng.choice([-3, -2, -1, 0, 0, 1, 2, 3, 5])}"
    if roll < 0.95:
        return f"{rng.choice(FUNCTIONS)}({random_text(rng, depth + 1)})"
    return f"({random_text(rng, depth + 1)})"


def texts(catalog):
    rng, randoms = random.Random(2026), []
    while len(randoms) < 600:
        text = random_text(rng)
        if text not in randoms:
            randoms.append(text)
    return ([text for text, *_ in catalog.values()] + FD_SAMPLES + [FIVE] + ZERO_POWERS + MISC
            + randoms)


PARAMS = [{"a": 2.0, "b": 0.5, "R": 2.0, "r": 1.0, "c": 3.0},
          {"a": 0.0, "b": -1.0, "R": 1e300, "r": -0.0, "c": 1e-300}]
REPLACEMENTS = {"x": "2.0 * y", "a": "-(b + 1)^2", "r": "R / 3"}


def plain(tape):
    code = tuple((getattr(op, "__name__", op), a, b) for op, a, b in tape.code)
    return tape.nvars, tuple(map(float.hex, tape.constants)), code, tape.out


def outcome(call):
    try:
        return ("ok", call())
    except Exception as error:  # every error's type and message is compared
        return ("error", type(error).__name__, str(error))


def record(ex, tree):
    out = {"unparse": outcome(lambda: ex.unparse(tree)),
           "identifiers": outcome(lambda: sorted(ex.identifiers(tree)))}
    for dimension in (2, 3):
        for j, params in enumerate(PARAMS):
            out[dimension, j] = outcome(lambda: plain(ex.compile_tape(tree, dimension, params)))
    return out


def parse_command(cli, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["parse", text])
    return code, stdout.getvalue(), stderr.getvalue()


def dump(path):
    from geomforce import cli
    from geomforce import expr as ex
    from geomforce.surfaces import CATALOG

    replacements = {name: ex.parse_expression(text) for name, text in REPLACEMENTS.items()}
    results = {}
    for text in texts(CATALOG):
        parsed = outcome(lambda: ex.parse_expression(text))
        entry = {"parse_command": parse_command(cli, text)}
        if parsed[0] == "ok":
            entry["tree"] = record(ex, parsed[1])
            entry["substituted"] = record(ex, ex.substitute(parsed[1], replacements))
        else:
            entry["parse"] = parsed
        results[text] = entry
    with open(path, "wb") as f:
        pickle.dump(results, f)


def records(src, path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, __file__, "--dump", path], env=env, check=True)
    with open(path, "rb") as f:
        return pickle.load(f)


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as tmp:
        old = records(old_src, os.path.join(tmp, "old.pickle"))
        new = records(new_src, os.path.join(tmp, "new.pickle"))
    differ = [text for text in old if old[text] != new.get(text)]
    refused = sum("parse" in entry for entry in old.values())
    print(f"{len(old)} texts ({refused} refused by the parser): {len(differ)} differ")
    for text in differ:
        print(f"differs: {text[:100]!r}")
    return 1 if differ or old.keys() != new.keys() else 0


if __name__ == "__main__":
    if sys.argv[1] == "--dump":
        dump(sys.argv[2])
    else:
        sys.exit(main(*sys.argv[1:3]))
