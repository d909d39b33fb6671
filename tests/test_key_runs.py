"""The shared key-run reduce (stages/partitioning.key_runs) at kernel
level: shard assignment and the per-shard sort + run-start function run
in-process on hand-built arrow tables, no Ray."""

import numpy as np
import pyarrow as pa
import pytest

from crawtext_ray.stages.partitioning import (
    SHARDS,
    run_ids,
    run_starts,
    shard_of,
    shard_runs,
)


def first_rows(t: pa.Table, starts: np.ndarray) -> pa.Table:
    return t.take(pa.array(starts))


def test_shard_runs_empty_shard():
    t = pa.table({"k": pa.array([], pa.int64()),
                  "ts": pa.array([], pa.int64())})
    seen = {}

    def fn(s, starts):
        seen["starts"] = starts
        return first_rows(s, starts)

    out = shard_runs(t, "k", ["ts"], fn)
    assert seen["starts"].tolist() == []
    assert out.num_rows == 0 and out.schema == t.schema
    assert run_ids(seen["starts"], 0).tolist() == []


def test_shard_runs_single_row():
    t = pa.table({"k": ["a"], "ts": [3]})
    out = shard_runs(t, "k", ["ts"], lambda s, starts: (s, starts))
    assert out[1].tolist() == [0]
    assert out[0].to_pydict() == {"k": ["a"], "ts": [3]}


def test_shard_runs_several_int_keys_with_negatives():
    # three keys (two negative) interleaved in one shard, unsorted input
    t = pa.table({
        "k": [5, -3, 5, -7, -3, 5, -7],
        "ts": [2, 9, 1, 4, 9, 1, 0],
        "tie": [0, 2, 3, 4, 1, 5, 6],
    })
    captured = {}

    def fn(s, starts):
        captured["sorted"] = s.to_pydict()
        captured["starts"] = starts
        return first_rows(s, starts)

    out = shard_runs(t, "k", ["ts", "tie"], fn)
    assert captured["sorted"]["k"] == [-7, -7, -3, -3, 5, 5, 5]
    assert captured["starts"].tolist() == [0, 2, 4]
    assert run_ids(captured["starts"], 7).tolist() == [0, 0, 1, 1, 2, 2, 2]
    # per key: min ts, ties on ts broken by the tiebreak
    assert out.to_pydict() == {"k": [-7, -3, 5], "ts": [0, 9, 1],
                               "tie": [6, 1, 3]}


def test_shard_runs_string_keys_and_descending_order():
    t = pa.table({"k": ["b", "a", "b", "c", "a"],
                  "v": [1.0, 5.0, 3.0, 2.0, 7.0],
                  "id": [10, 11, 12, 13, 14]})
    out = shard_runs(t, "k", [("v", "descending"), "id"], first_rows)
    assert out.to_pydict() == {"k": ["a", "b", "c"], "v": [7.0, 3.0, 2.0],
                               "id": [14, 12, 13]}


def test_run_starts_multi_column():
    a = pa.array([1, 1, 1, 2, 2])
    b = pa.array(["x", "x", "y", "y", "y"])
    assert run_starts(a).tolist() == [0, 3]
    assert run_starts(a, b).tolist() == [0, 2, 3]
    assert run_starts(pa.chunked_array([[1], [1, 2]])).tolist() == [0, 2]


def test_shard_of_ranges_and_stability():
    ints = pa.array([-1, -256, -257, 0, 255, 256, 10**12], pa.int64())
    sh = shard_of(ints)
    assert ((sh >= 0) & (sh < SHARDS)).all()
    assert sh.tolist() == [255, 0, 255, 0, 255, 0, 10**12 % SHARDS]
    strs = pa.array(["u1", "u2", "u1", ""])
    ss = shard_of(strs)
    assert ((ss >= 0) & (ss < SHARDS)).all()
    assert ss[0] == ss[2]
    assert ss.tolist() == shard_of(pa.chunked_array([["u1", "u2"],
                                                     ["u1", ""]])).tolist()


def test_first_by_requires_tiebreak():
    """Without a unique tiebreak the pick inside a (key, order) tie would
    depend on arrow row order, so reruns could differ: it is required."""
    from crawtext_ray.stages.dedup import first_by

    with pytest.raises(TypeError):
        first_by(object(), "user_id", "ts")
