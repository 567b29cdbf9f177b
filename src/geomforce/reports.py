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

import numpy as np

FLOAT_FORMAT = ".17g"  # "%.17g" % x is format(x, ".17g"), nan, inf and -0 too
ROW_BLOCK = 4096       # rows per chunk of format_rows
_MARKER = -1.2345678901234567e-289  # stands in for each float when a row template is cut


def _float(x, indent=0):
    if math.isfinite(x):
        return format(x, FLOAT_FORMAT)
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


def format_rows(table, template, separator="", fallback=None):
    """Text of the rows of a 2-D float table, one `template % row` call per
    row, joined by separator and yielded in blocks of ROW_BLOCK rows.  With
    a fallback, a row holding a non-finite value is fallback(row) instead."""
    for start in range(0, len(table), ROW_BLOCK):
        block = table[start:start + ROW_BLOCK]
        finite = np.isfinite(block).all(axis=1).tolist() if fallback else [True] * len(block)
        yield (separator if start else "") + separator.join(
            [template % row if ok else fallback(row)
             for row, ok in zip(zip(*block.T.tolist()), finite)])  # rows as float tuples


def csv_text(header, table):
    """CSV text of a 2-D float table under a header row."""
    template = ",".join(["%" + FLOAT_FORMAT] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(format_rows(table, template))


def json_records(payload, key, layout, table):
    """canonical_json(payload with key: one record per table row) + "\n", in chunks.
    A record maps each (name, width) of layout to the row's next float, or next width floats.
    Rows fill a template cut from canonical_json; canonical_json writes non-finite rows."""
    if not len(table):
        yield canonical_json(dict(payload, **{key: []})) + "\n"
        return
    marker = {name: [_MARKER] * w if w else _MARKER for name, w in layout}
    text = canonical_json(marker, 2)
    head, tail = canonical_json(dict(payload, **{key: [marker]})).split(text)
    text, spot = text.replace("%", "%%"), format(_MARKER, FLOAT_FORMAT)
    yield head
    yield from format_rows(table, text.replace(spot, "%" + FLOAT_FORMAT), ",\n    ",
                           lambda row: text.replace(spot, "%s") % tuple(map(canonical_json, row)))
    yield tail + "\n"


def atomic_write(path, text):
    """Write text, a str or str chunks, to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
