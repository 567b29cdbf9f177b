"""Deterministic report serialization.

Reports must be byte-identical across runs with the same configuration
and seed: dict insertion order is preserved, floats are printed with 17
significant digits, and files are written atomically: atomic_file opens a
temp file beside the report, renames it to the report when its with block
ends and removes it when the block raises, so that a failed command leaves
neither.  atomic_write writes whole texts or chunks through it, and
`classical --trajectory` holds it open while the trajectory CSV is written
and the residuals run.

Four kinds of work run on every CPU the process may run on, through
ordered_map: the fields report (JSON or CSV), whose workers each compute and
format whole blocks of sample columns (geometry.sample_blocks); the geometry
of an operator-lab grid, whose workers each return the curvature fields of a
block of nodes (oplab.grid.build_grid, which a verify family calls for its
finest grid only); the verify passes, whose workers judge the test state
pairs of every grid and return their residual rows (oplab.identities); and
the trajectory CSV, whose workers format the CSV rows of each geometry.BLOCK
rows of a finished Trajectory's columns (dynamics.Trajectory.csv_chunks).
The items are sized, a range of block starts or job indices, and all are
handed out at once.  ordered_map forks one worker per CPU; the parent
writes each item's index as an 8-byte record to one task pipe, a free
worker takes the next, and each worker sends its results back through a
pipe of its own as pickles behind their 8-byte lengths.  fn and the data it
reads are inherited, so only the results are pickled.  The parent hands on
each result in item order once it is done, so a caller joins them or writes
them as they come.  A block's text, a node's fields or a pair's rows do not
depend on the process that made them, so the bytes do not depend on the CPU
count.  An exception in fn reaches the caller at its item with its type and
arguments and the worker's traceback text; a worker that dies with an item
raises an error naming that item once the others are done; whatever
happens, the parent reaps every worker before ordered_map leaves.
The parent flushes its standard streams before it forks, so the flush a
worker gives them as it leaves finds nothing of the parent's, and workers
leave through os._exit, which runs no finaliser: they never flush another
output handle they inherited, such as the trajectory's temp file, whose
buffer may hold the CSV header.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import pickle
import sys
import tempfile
import threading
import traceback

import numpy as np

FLOAT_FORMAT = ".17g"  # "%.17g" % x is format(x, ".17g"), nan, inf and -0 too
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
    """CSV text of a 2-D float table under a header row."""
    return ",".join(header) + "\n" + csv_rows(table)


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


_in_worker = False  # set in each worker ordered_map forks
# The pipe ends the open ordered_maps of this process hold; each worker closes
# them (its own task pipe's read end aside), so that no worker keeps another
# map's pipe open: a worker blocked writing to a pipe whose parent end was
# closed would wait for a worker of a later map to exit, and its parent with it.
_held = set()
_RECORD = 8  # bytes of an item index on the task pipe, and of a result's length


class _RemoteTraceback(Exception):
    """The traceback text of an exception fn raised in a worker: the cause of
    the exception ordered_map raises at that item."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _pool_size(count):
    """Worker processes ordered_map forks for count items, 0 for none: one
    per CPU, at most one per item."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(cpus or 1, count)
    if size < 2 or threading.active_count() > 1 or _in_worker or not hasattr(os, "fork"):
        return 0
    return size


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):
            stream.flush()


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_all(fd, size):
    """size bytes from fd, or None if it ends first."""
    buffer = bytearray(size)
    view, filled = memoryview(buffer), 0
    while filled < size:
        got = os.readv(fd, [view[filled:]])
        if not got:
            return None
        filled += got
    return buffer


def _failure(error):
    """(error pickled, or None if it cannot be, and its traceback text)."""
    text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    try:
        return pickle.dumps(error, pickle.HIGHEST_PROTOCOL), text
    except Exception:
        return None, text


def _work(fn, items, cpu, tasks, results):
    """The body of a forked worker: fn(items[index]) for each index it takes
    from the task pipe until that ends, each (index, ok, value) pickle
    written to its result pipe behind its length.  It never returns."""
    global _in_worker
    code = 1
    try:
        _in_worker = True
        for fd in _held - {tasks}:
            os.close(fd)
        if cpu is not None:
            with contextlib.suppress(OSError):  # a speed-up only: a worker left free still works
                os.sched_setaffinity(0, {cpu})
        # The parent writes whole records, at most PIPE_BUF bytes at a time, and
        # a read from a pipe is not split by another reader's, so a read takes
        # one record, or none once the parent has closed the pipe.
        while record := os.read(tasks, _RECORD):
            index = int.from_bytes(record, "little")
            try:
                payload = pickle.dumps((index, True, fn(items[index])), pickle.HIGHEST_PROTOCOL)
            except BaseException as error:  # fn's, or the result's pickling
                payload = pickle.dumps((index, False, _failure(error)), pickle.HIGHEST_PROTOCOL)
            # two writes: joining the length and the payload would copy each result
            _write_all(results, len(payload).to_bytes(_RECORD, "little"))
            _write_all(results, payload)
            del payload
        code = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(code)


def _close(fd):
    _held.discard(fd)
    os.close(fd)


def _receive(pipe):
    """The next (index, ok, value) from a worker's result pipe, or None once
    the worker has exited."""
    header = _read_all(pipe, _RECORD)
    if header is None:
        return None
    payload = _read_all(pipe, int.from_bytes(header, "little"))
    return None if payload is None else pickle.loads(payload)


def _raised(index, failure):
    """The exception fn raised in a worker at item index, caused by a
    _RemoteTraceback of the worker's traceback text."""
    pickled, text = failure
    error = None
    with contextlib.suppress(Exception):  # it may not unpickle here either
        error = pickle.loads(pickled)
    if not isinstance(error, BaseException):
        error = RuntimeError(f"item {index} raised an exception that cannot be pickled")
    error.__cause__ = _RemoteTraceback(text)
    return error


def ordered_map(fn, items):
    """fn(item) for each item of a sized items (a range, a list), yielded in
    item order.

    The calls are spread over worker processes made with os.fork, one per
    CPU this process may run on and at most one per item, each held to a
    CPU of its own.  Every item is handed out at once: the parent writes
    each item's index, as an 8-byte record, to one task pipe (as many as
    the pipe holds, the rest as it drains), and a free worker takes the
    next.  The jobs may take unequal times, and a window of items in flight
    idled a worker behind a long oldest `verify` job for up to 50 ms (about
    7 % of the command on a 2-vCPU VM).  Each worker sends (index, ok,
    value) back through a pipe of its own, pickled behind its 8-byte
    length, and the parent reads the pipes as they fill (selectors) and
    yields each result once those before it are out.  The workers inherit
    fn and the items, so neither is pickled (fn may be a closure).

    An exception fn raises reaches the caller at its item, with its type
    and arguments, caused by a _RemoteTraceback that holds the worker's
    traceback text; one that cannot be pickled (or a result that cannot)
    arrives as a RuntimeError with that cause.  An item whose worker exited
    without returning it (killed, or os._exit in fn) raises a RuntimeError
    naming it once no worker is left.  At the end, on an exception and on
    close, the parent closes its ends of the pipes, so a worker leaves after
    the item it runs, and reaps every worker before the generator leaves.

    It is the built-in map, with the same results and no fork, for fewer
    than two items, on one CPU, when the platform cannot fork, when this
    process is itself one of these workers (its CPU is already shared out),
    or when other threads run (fork copies only the calling thread, so a
    lock another thread holds would stay held in the child).
    """
    size = _pool_size(len(items))
    if not size:
        yield from map(fn, items)
        return
    import select  # here, so that importing geomforce does not load them
    import selectors

    items = list(items)  # the workers index it; a sized items need not be indexable
    _flush_std_streams()  # a worker flushes them as it leaves
    # Free to move, the workers are woken on the CPU of the parent thread that
    # hands them their items and can end up sharing it: on a 2-vCPU Xeon VM,
    # the verify passes at grids 16,32,64 took 0.40 s free and 0.20 s pinned.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None] * size
    tasks, feed = os.pipe()
    _held.update((tasks, feed))
    workers = {}  # result pipe -> its worker's pid (0 before the fork), until reaped
    codes, selector = [], None
    try:
        for cpu in cpus[:size]:
            pipe, results = os.pipe()
            _held.add(pipe)
            workers[pipe] = 0
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, cpu, tasks, results)
                workers[pipe] = pid
            finally:
                os.close(results)
        selector = selectors.DefaultSelector()
        for pipe in workers:
            selector.register(pipe, selectors.EVENT_READ)
        os.set_blocking(feed, False)
        selector.register(feed, selectors.EVENT_WRITE)
        records = memoryview(b"".join(i.to_bytes(_RECORD, "little") for i in range(len(items))))
        done = {}
        for index in range(len(items)):
            while index not in done:
                if not workers:
                    raise RuntimeError(f"item {index} of {len(items)} was lost: a worker "
                                       f"exited before returning it (exit codes {codes})")
                for key, _ in selector.select():
                    if key.fd == feed:  # writes of at most PIPE_BUF bytes are whole or refused
                        with contextlib.suppress(BlockingIOError):
                            while records:
                                records = records[os.write(feed, records[:select.PIPE_BUF]):]
                        if not records:  # the workers leave once the pipe is empty
                            selector.unregister(feed)
                            _close(feed)
                            feed = None
                    elif received := _receive(key.fd):
                        done[received[0]] = received[1:]
                    else:
                        selector.unregister(key.fd)
                        _close(key.fd)
                        status = os.waitpid(workers.pop(key.fd), 0)[1]
                        codes.append(os.waitstatus_to_exitcode(status))
            ok, value = done.pop(index)
            if not ok:
                raise _raised(index, value)
            yield value
    finally:
        if selector is not None:
            selector.close()
        for fd in (feed, tasks, *workers):
            if fd is not None:
                _close(fd)
        for pid in workers.values():  # each leaves at its next read or write
            if pid:
                os.waitpid(pid, 0)


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
    """Write text, a str or str chunks, to path through atomic_file."""
    with atomic_file(path) as handle:
        handle.writelines([text] if isinstance(text, str) else text)
