"""The table writers against the generic path: per-cell format(c, ".17g")
for the CSVs and canonical_json of records for the fields JSON."""

import contextlib
import os
import time

import numpy as np
import pytest

from geomforce import geometry as geo
from geomforce.dynamics import Trajectory
from geomforce.oplab.evolve import EhrenfestTrace
from geomforce import reports
from geomforce.reports import (IN_FLIGHT, canonical_json, csv_rows, json_records, json_rows,
                               ordered_map)

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324,
           1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17, -2.5e-5]

PAYLOAD = {"surface": "torus", "params": {"R": 2.0, "r": 1.0}, "policy": "sd",
           "sampling": "random", "seed": 3}


def _values(rows, width, seed):
    """A (rows, width) float table: random magnitudes, then the special values
    spread over it, so that some rows are finite and some are not."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    if table.size:
        spots = np.linspace(0, table.size - 1, 3 * len(SPECIAL)).astype(int)
        table.flat[spots] = SPECIAL * 3
    return table


def _columns(count, seed=0):
    """sample_field-shaped columns holding count samples."""
    widths = {"x": 3, "n": 3, "kappa": 2}
    table = _values(count, 14, seed)
    columns, start = {}, 0
    for key in geo.SAMPLE_KEYS:
        width = widths.get(key, 0)
        block = table[:, start:start + max(width, 1)].T
        columns[key] = block if width else block[0]
        start += max(width, 1)
    return columns


def _records(columns):
    count = len(columns["M"])
    return [{key: columns[key][:, b].tolist() if columns[key].ndim == 2
             else float(columns[key][b]) for key in geo.SAMPLE_KEYS} for b in range(count)]


def _assert_same(text, expected):
    # names the first differing line: pytest's own diff of megabytes takes minutes
    if text != expected:
        pairs = enumerate(zip(text.splitlines(), expected.splitlines()))
        first = next(((i, a, b) for i, (a, b) in pairs if a != b), None)
        pytest.fail(f"texts differ (lengths {len(text)} and {len(expected)}); "
                    f"first differing line (index, got, expected): {first}")


def _csv(header, rows):
    lines = [",".join(header)] + [",".join(format(float(c), ".17g") for c in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [0, 1, 2, 40, 4099])
def test_fields_json_is_canonical_json_of_the_records(count):
    columns = _columns(count, seed=count)
    layout, table = geo.sample_layout(3), geo.sample_table(columns)
    rows = json_rows(layout)
    texts = [rows(table[s:s + geo.BLOCK]) for s in range(0, count, geo.BLOCK)]
    chunks = list(json_records(PAYLOAD, "samples", layout, texts))
    expected = canonical_json(dict(PAYLOAD, samples=_records(columns))) + "\n"
    _assert_same("".join(chunks), expected)
    if count:  # the head, each block's text after a separator but the first, the tail
        assert len(chunks) == 1 + 2 * len(texts)
    if count >= 40:  # the special values made it into the table
        assert '"nan"' in expected and '"-inf"' in expected


def test_fields_json_without_samples():
    expected = canonical_json(dict(PAYLOAD, samples=[])) + "\n"
    _assert_same("".join(json_records(PAYLOAD, "samples", [], ())), expected)


def test_fields_json_keeps_the_key_where_the_payload_has_it():
    columns = _columns(5, seed=9)
    layout = geo.sample_layout(3)
    payload = {"surface": "torus", "samples": None, "seed": 3}
    expected = canonical_json(dict(payload, samples=_records(columns))) + "\n"
    texts = [json_rows(layout)(geo.sample_table(columns))]
    _assert_same("".join(json_records(payload, "samples", layout, texts)), expected)


@pytest.mark.parametrize("count", [0, 1, 40, 4099])
def test_samples_csv_is_per_cell_format(count):
    columns = _columns(count, seed=count + 1)
    header = ["x0", "x1", "x2", "n0", "n1", "n2", "M", "S2", "kappa0", "kappa1",
              "lapM", "lapLB_M", "vg_geom", "chi_geom"]
    rows = np.vstack([columns[key] for key in geo.SAMPLE_KEYS]).T
    assert geo.sample_header(3) == header
    text = ",".join(header) + "\n" + csv_rows(geo.sample_table(columns))
    _assert_same(text, _csv(header, rows))


@pytest.mark.parametrize("count", [1, 2, 40, 4099, 2 * 4096 + 5])
def test_trajectory_csv_is_per_cell_format(count, monkeypatch):
    # a finished trajectory's CSV is formatted here, however long: no pool
    def fail(fn, items):
        raise AssertionError("csv_text went through ordered_map")

    monkeypatch.setattr(reports, "ordered_map", fail)
    table = _values(count, 9, seed=count)
    traj = Trajectory(ts=table[:, 0], xs=table[:, 1:4], ps=table[:, 4:7],
                      energy=table[:, 7], f_residual=table[:, 8],
                      tangency_residual=np.abs(table[:, 8]), mass=1.0, dt=1e-3)
    header = ["t", "x0", "x1", "x2", "p0", "p1", "p2",
              "energy", "f_residual", "tangency_residual"]
    rows = np.column_stack([table, np.abs(table[:, 8])])
    _assert_same(traj.to_csv(), _csv(header, rows))


@pytest.mark.parametrize("count", [1, 2, 3, 40])
def test_ehrenfest_csv_is_per_cell_format(count):
    table = _values(count, 9, seed=count)
    dp = _values(max(count - 2, 0), 2, seed=count + 5)
    trace = EhrenfestTrace(t=table[:, 0], mean_p=table[:, 1:3], dmean_p_dt=dp,
                           centripetal=table[:, 3:5], quantum=table[:, 5:7],
                           f_term=table[:, 7:9], norm_drift=0.0)
    header = ["t", "mean_p0", "mean_p1", "dmean_p_dt0", "dmean_p_dt1",
              "centripetal_term0", "centripetal_term1", "quantum_term0",
              "quantum_term1", "f_term0", "f_term1"]
    padded = np.full((count, 2), np.nan)
    padded[1:-1] = dp
    rows = np.column_stack([table[:, :3], padded, table[:, 3:]])
    _assert_same(trace.to_csv(), _csv(header, rows))


def test_each_worker_holds_a_cpu_of_its_own():
    def held(_):
        time.sleep(0.01)  # so that every worker takes items
        return os.getpid(), frozenset(os.sched_getaffinity(0))

    cpus = os.sched_getaffinity(0)
    seen = dict(ordered_map(held, range(4 * len(cpus))))
    if len(cpus) >= 2:  # each worker that ran held one CPU, and no two the same
        assert all(len(one) == 1 for one in seen.values())
        assert len(set(seen.values())) == len(seen)
        assert frozenset.union(*seen.values()) <= cpus
    assert os.sched_getaffinity(0) == cpus


def test_a_worker_that_cannot_be_held_to_a_cpu_still_works(monkeypatch):
    def refuse(pid, cpus):
        raise PermissionError("sched_setaffinity is not allowed here")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert list(ordered_map(lambda x: x * x, range(6))) == [0, 1, 4, 9, 16, 25]


# items taken lazily: made in this process while the workers run ----------------


def _children():
    import multiprocessing

    return len(multiprocessing.active_children())


def test_items_made_after_the_fork_reach_the_workers_in_order():
    cpus = os.sched_getaffinity(0)
    made = []  # (workers alive, this process's CPUs) as each item was made

    def items():
        for k in range(12):
            made.append((_children(), os.sched_getaffinity(0)))
            yield np.full(3, float(k))  # made here, so a worker can only get it pickled

    results = list(ordered_map(lambda item: (item.tolist(), os.sched_getaffinity(0)), items()))
    assert [values for values, _ in results] == [[float(k)] * 3 for k in range(12)]
    assert _children() == 0 and os.sched_getaffinity(0) == cpus
    if len(cpus) >= 2:  # forked after the second item; a worker on each CPU but the maker's
        assert [alive for alive, _ in made[:2]] == [0, 0]
        assert {alive for alive, _ in made[2:]} == {len(cpus) - 1}
        maker = {frozenset(held) for _, held in made[2:]}
        workers = {frozenset(held) for _, held in results}
        assert len(maker) == 1 and all(len(one) == 1 for one in maker | workers)
        assert maker.isdisjoint(workers) and frozenset.union(*maker, *workers) <= cpus


def test_the_first_result_leaves_while_a_window_of_items_is_made():
    # the parent holds at most IN_FLIGHT futures per worker, so a caller that
    # writes the results as they come holds a window of them, not all
    cpus = os.sched_getaffinity(0)
    workers = len(cpus) - 1  # the maker of lazily made items keeps a CPU
    made = []

    def items():
        for k in range(4 * len(cpus) + 8):
            made.append(k)
            yield k

    with contextlib.closing(ordered_map(lambda x: x * x, items())) as results:
        assert next(results) == 0
        if workers:
            assert len(made) <= IN_FLIGHT * workers + 1
        assert list(results) == [k * k for k in made[1:]] and len(made) == 4 * len(cpus) + 8
    assert _children() == 0 and os.sched_getaffinity(0) == cpus


class _Taken(list):
    """A sized items that counts the items taken from it."""

    taken = 0

    def __iter__(self):
        for item in super().__iter__():
            self.taken += 1
            yield item


def test_a_sized_items_is_submitted_whole():
    # its jobs may take unequal times, and a window would idle a worker
    # behind a long oldest job: every item is handed out while the first runs
    cpus = os.sched_getaffinity(0)
    items = _Taken(range(4 * len(cpus) + 8))

    def slow_first(x):
        time.sleep(0.2 if x == 0 else 0.0)
        return x * x

    with contextlib.closing(ordered_map(slow_first, items)) as results:
        assert next(results) == 0
        if len(cpus) >= 2:
            assert items.taken == len(items)
        assert list(results) == [k * k for k in items[1:]]


def test_an_exception_of_the_items_reaches_the_caller_after_the_pool_is_shut_down():
    cpus = os.sched_getaffinity(0)
    made = []

    def items():
        yield from range(5)
        made.append(_children())
        raise LookupError("no sixth item")

    with pytest.raises(LookupError, match="no sixth item"):
        list(ordered_map(lambda x: x * x, items()))
    if len(cpus) >= 2:  # the pool ran when the items raised
        assert made == [len(cpus) - 1]
    assert _children() == 0 and os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("items", [[3], range(3, 4), iter([3]), (k for k in [3])])
def test_one_item_forks_nothing(items):
    assert list(ordered_map(lambda x: (x, os.getpid()), items)) == [(3, os.getpid())]
