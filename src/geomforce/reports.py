"""Deterministic report serialization.

Reports must be byte-identical across runs with the same configuration
and seed: dict insertion order is preserved, floats are printed with 17
significant digits, and files are written atomically: atomic_file opens a
temp file beside the report, renames it to the report when its with block
ends and removes it when the block raises, so that a failed command leaves
neither.  atomic_write writes whole texts or chunks through it, and
`classical --trajectory` holds it open while dynamics.integrate writes the
CSV and the residuals run.

Four kinds of work run on every CPU the process may run on, through
ordered_map: the fields report (JSON or CSV), whose workers each compute and
format whole blocks of sample columns (geometry.sample_blocks); csv_text
(the Ehrenfest CSV, and a trajectory's made after the run), whose workers
format blocks of rows; the verify passes, whose workers judge the test state
pairs of every grid and return their residual rows (oplab.identities); and
the trajectory CSV of dynamics.integrate, whose workers format each block
of states that the step loop, run by the parent, has finished.  The parent
takes the items lazily and pickles each to a worker as it is made: row or
sample starts, job indices, or a block of states made after the fork; fn is
inherited.  It hands on each result in item order once it is done.  Of
items made lazily it holds at most IN_FLIGHT futures per worker, and an
item made while that window is full waits for the oldest result; a sized
items is submitted whole.  So it joins the results as they come, or
writes them (the trajectory CSV goes to the open temp file of atomic_file
while the step loop runs, and no more than a window of block texts is
held in the parent).  A block's text or a pair's rows do
not depend on the process that made them, so the bytes do not depend on
the CPU count.  The parent flushes its standard streams before it forks,
so the flush a worker gives them as it leaves finds nothing of the
parent's, and workers leave through os._exit, which runs no finaliser:
they never flush another output handle they inherited, such as the
trajectory's temp file, whose buffer may hold the CSV header.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import tempfile
import threading
from collections.abc import Sized

import numpy as np

FLOAT_FORMAT = ".17g"  # "%.17g" % x is format(x, ".17g"), nan, inf and -0 too
ROW_BLOCK = 4096       # rows per block of csv_text
WRITE_SLICE = 1 << 20  # characters per write of a text atomic_write is given whole
IN_FLIGHT = 2          # futures per worker ordered_map holds of items made lazily
RECORD_SEPARATOR = ",\n    "  # between the records of a json_records list
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
    row, joined by separator.  With a fallback, a row holding a non-finite
    value is fallback(row) instead."""
    finite = np.isfinite(table).all(axis=1).tolist() if fallback else [True] * len(table)
    rows = zip(*table.T.tolist())  # float tuples
    return separator.join([template % row if ok else fallback(row)
                           for row, ok in zip(rows, finite)])


def csv_rows(table):
    """CSV lines of a 2-D float table, one per row."""
    return format_rows(table, ",".join(["%" + FLOAT_FORMAT] * table.shape[1]) + "\n")


def csv_text(header, table):
    """CSV text of a 2-D float table under a header row; blocks of ROW_BLOCK
    rows are formatted on every CPU (ordered_map)."""
    blocks = ordered_map(lambda start: csv_rows(table[start:start + ROW_BLOCK]),
                         range(0, len(table), ROW_BLOCK))
    return ",".join(header) + "\n" + "".join(blocks)


def _marker_record(layout):
    return {name: [_MARKER] * w if w else _MARKER for name, w in layout}


def json_rows(layout):
    """rows(table): the records of the rows of a 2-D float table as json_records
    writes them, joined by RECORD_SEPARATOR.  A record maps each (name, width)
    of layout to the row's next float, or next width floats.  Rows fill a
    template cut from canonical_json; canonical_json writes non-finite rows."""
    text = canonical_json(_marker_record(layout), 2).replace("%", "%%")
    spot = format(_MARKER, FLOAT_FORMAT)
    template, fallback = text.replace(spot, "%" + FLOAT_FORMAT), text.replace(spot, "%s")
    return lambda table: format_rows(table, template, RECORD_SEPARATOR,
                                     lambda row: fallback % tuple(map(canonical_json, row)))


def json_records(payload, key, layout, texts):
    """canonical_json(payload with key: a list of records) + "\n", in chunks,
    where texts are the json_rows(layout) texts of the records' consecutive,
    non-empty row blocks."""
    texts = iter(texts)
    first = next(texts, None)
    if first is None:
        yield canonical_json(dict(payload, **{key: []})) + "\n"
        return
    marker = _marker_record(layout)
    head, tail = canonical_json(dict(payload, **{key: [marker]})).split(canonical_json(marker, 2))
    yield head
    yield first
    for text in texts:
        yield RECORD_SEPARATOR
        yield text
    yield tail + "\n"


_fn = None  # the fn of the ordered_map that forked this worker


def _start_worker(fn, cpus, started):
    """Hand the worker its fn and, given the CPUs, the next one of them."""
    global _fn
    _fn = fn
    if cpus:
        with started.get_lock():
            index, started.value = started.value, started.value + 1
        with contextlib.suppress(OSError):  # a speed-up only: a worker left free still works
            os.sched_setaffinity(0, {cpus[index]})


def _call(item):
    return _fn(item)


def _pool_size(items):
    """Worker processes ordered_map forks for items, 0 for none: one per CPU,
    at most one per item of a sized items, and one fewer for any other
    items, whose maker gets a CPU of its own."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sized = isinstance(items, Sized)
    size = min(cpus or 1, len(items)) if sized else (cpus or 1) - 1
    if size < (2 if sized else 1) or threading.active_count() > 1:
        return 0
    import multiprocessing  # here, so that importing geomforce does not load it

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 0
    return size


def ordered_map(fn, items):
    """fn(item) for each item, yielded in item order.

    The calls are spread over a pool of forked processes, each held to a CPU
    of its own.  The items are taken lazily, here, and each is handed to a
    worker once it is made; after each submission the results that are done
    are yielded.  A sized items (a list, a range) gets one worker per CPU
    this process may run on, at most one per item, and is submitted whole:
    its jobs may take unequal times, and a window idled a worker behind a
    long oldest `verify` job for up to 50 ms (about 7 % of the command on a
    2-vCPU VM).  Any other items are made by this process while the workers
    run, so fn runs on the earlier items as the later ones are made
    (dynamics.integrate yields the blocks of its step loop).  Of these at
    most IN_FLIGHT futures per worker are in flight, and an item made while
    the window is full first waits for the oldest result, so a caller that
    writes the results as they come (integrate's trajectory CSV) holds a
    window of them, not all.  The wait comes before a submission, not
    after, so that the maker does not wait for the first result while the
    new workers start (that stalled integrate's step loop for 30-50 ms).
    Until the last item is made, this process is held to a CPU of its own
    and the workers take the others.  On a 2-vCPU VM a worker on the
    maker's CPU slowed it: a 30,000-step `classical --trajectory` run after
    a fields report, as the benchmark runs them,
    took a median 0.735 s (quartiles 0.60 and 0.87) with a worker on each
    CPU and this process free, and 0.655 s (0.63 and 0.70) held, in 15
    alternating pairs.  The workers inherit fn, so it is not pickled (it may
    be a closure); the items and the results are.

    An exception fn raises reaches the caller at its item, with its type
    and arguments (one that cannot be pickled arrives as BrokenProcessPool
    instead); one that the items raise, as they raise it.  Either way the
    items not yet started are cancelled, and the pool is shut down and its
    workers joined before the exception leaves the generator, as they are
    when it ends or is closed.

    It is the built-in map, with the same results and no fork, for fewer
    than two items (the items are taken until a second one exists), when
    the pool would hold no worker (one CPU, or one item per CPU of a sized
    items), when the platform cannot fork, when this process is itself a
    multiprocessing worker (a daemon may not have children, and its CPUs are
    already shared out), or when other threads run (fork copies only the
    calling thread, so a lock another thread holds would stay held in the
    child).
    """
    size = _pool_size(items)
    made_here = not isinstance(items, Sized)
    items = iter(items)
    head = list(itertools.islice(items, 2))
    items = itertools.chain(head, items)
    if not size or len(head) < 2:
        yield from map(fn, items)
        return
    del head  # so that the first two items go once their results have come
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    for stream in (sys.stdout, sys.stderr):  # a worker flushes them as it leaves
        with contextlib.suppress(AttributeError, ValueError):
            stream.flush()
    # Free to move, the workers are woken on the CPU of the parent thread that
    # hands them their items and can end up sharing it: on a 2-vCPU Xeon VM,
    # the verify passes at grids 16,32,64 took 0.40 s free and 0.20 s pinned.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(size, mp_context=context, initializer=_start_worker,
                               initargs=(fn, cpus, context.Value("i", 0)))
    held = None  # this process's CPUs while it is held to the one no worker takes
    if made_here and cpus:
        with contextlib.suppress(OSError):  # a speed-up only, as for the workers
            os.sched_setaffinity(0, {cpus[size]})
            held = set(cpus)
    window = collections.deque()  # futures in item order
    full = IN_FLIGHT * size if made_here else math.inf  # a sized items goes whole
    try:
        try:
            for item in items:
                if len(window) == full:  # wait for the oldest result
                    yield window.popleft().result()
                window.append(pool.submit(_call, item))
                while window and window[0].done():  # and pass on those that are done
                    yield window.popleft().result()
        finally:
            if held:
                os.sched_setaffinity(0, held)
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def atomic_file(path):
    """An open text handle on a temp file in path's directory, renamed to path
    when the with block ends and removed, leaving path as it was, when the
    block raises: the one temp-file writer of the reports."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, text):
    """Write text, a str (in slices of WRITE_SLICE characters) or str chunks,
    to path through atomic_file."""
    chunks = text
    if isinstance(text, str):  # in slices, so that no encoded copy of it all is held
        chunks = (text[k:k + WRITE_SLICE] for k in range(0, len(text), WRITE_SLICE))
    with atomic_file(path) as handle:
        handle.writelines(chunks)
