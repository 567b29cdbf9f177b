"""Deterministic report serialization.

Reports must be byte-identical across runs with the same configuration
and seed: dict insertion order is preserved, floats are printed with 17
significant digits, and files are written atomically (temp file plus
rename).
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile


def _float(x, indent=0):
    if math.isfinite(x):
        return format(x, ".17g")
    return '"nan"' if math.isnan(x) else ('"inf"' if x > 0 else '"-inf"')


def _sequence(items, indent):
    if not items:
        return "[]"
    inner = "  " * (indent + 1)
    if all(type(v) is float for v in items):  # a plain float vector: one join
        texts = map(_float, items)
    else:
        texts = [canonical_json(v, indent + 1) for v in items]
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + "  " * indent + "]"


@functools.lru_cache(maxsize=1024, typed=True)  # reports repeat a few keys
def _key(key):
    return json.dumps(str(key))


def _mapping(items, indent):
    if not items:
        return "{}"
    inner = "  " * (indent + 1)
    texts = [f"{inner}{_key(k)}: {canonical_json(v, indent + 1)}"
             for k, v in items.items()]
    return "{\n" + ",\n".join(texts) + "\n" + "  " * indent + "}"


# writer per type, floats first; a subclass takes the first base it is an
# instance of (numpy float64 is a float; bool comes before int)
_WRITERS = {
    float: _float,
    dict: _mapping,
    list: _sequence,
    tuple: _sequence,
    str: lambda text, indent: json.dumps(text),
    bool: lambda flag, indent: "true" if flag else "false",
    int: lambda number, indent: str(number),
    type(None): lambda _, indent: "null",
}


def canonical_json(obj, indent=0):
    """JSON text with fixed field order and '.17g' floats."""
    write = _WRITERS.get(type(obj))
    if write is None:
        write = next((w for base, w in _WRITERS.items() if isinstance(obj, base)), None)
    if write is not None:
        return write(obj, indent)
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return canonical_json(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write(path, text):
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
