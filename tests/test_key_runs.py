"""The shared key-run reduce (stages/partitioning.key_runs): the
per-block sort + run-start function in-process on hand-built arrow
tables, and the Ray form's contract — every key reaches ``fn`` whole, in
exactly one call."""

import numpy as np
import pyarrow as pa
import pytest

from crawtext_ray.stages.partitioning import (
    key_runs,
    run_ids,
    run_starts,
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


def run_lengths():
    """``fn`` emitting one row per run: its key, its length and its first
    row's ``v`` (built in a function so Ray workers get it by value)."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return pa.table({"k": t["k"].take(pa.array(starts)),
                         "n": np.diff(np.append(starts, t.num_rows)),
                         "v": t["v"].take(pa.array(starts))})

    return fn


def test_key_runs_hot_key_is_one_run(ray_session, monkeypatch):
    """A hot key far above the target block size (140k rows, about
    15 MB, against 1 MiB blocks) still reaches ``fn`` as ONE run: the
    sort keeps one key's rows in one output block."""
    import ray.data as rd
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        1 << 20)
    hot, cold = 140_000, 20_000
    pad = "x" * 100
    tables = [pa.table({
        "k": ["hot"] * (hot // 8) + [f"c{i % 500}" for i in range(cold // 8)],
        "v": np.arange(b * 20_000, (b + 1) * 20_000),
        "pad": [pad] * 20_000,
    }) for b in range(8)]
    got = key_runs(rd.from_arrow(tables), "k", ["v"],
                   run_lengths()).to_pandas()
    assert got["k"].is_unique
    assert got.loc[got["k"] == "hot", "n"].tolist() == [hot]
    assert got["n"].sum() == hot + cold


def test_key_runs_every_key_in_one_call(ray_session):
    """Over a 24-block input with string keys, each key reaches ``fn``
    in exactly one call (one output row per run), and the rows equal one
    ``sort_by`` + ``run_starts`` pass over the whole table."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 700, 24_000)
    whole = pa.table({"k": [f"u{int(x)}" for x in keys],
                      "v": rng.permutation(24_000)})
    ds = rd.from_arrow([whole.slice(i * 1000, 1000) for i in range(24)])
    got = key_runs(ds, "k", [("v", "descending")], run_lengths())
    want = shard_runs(whole, "k", [("v", "descending")], run_lengths())
    got = pa.Table.from_pandas(got.to_pandas(), preserve_index=False)
    assert got.sort_by("k").equals(want.cast(got.schema))
    assert got.num_rows == len(set(whole["k"].to_pylist()))


def test_first_by_requires_tiebreak():
    """Without a unique tiebreak the pick inside a (key, order) tie would
    depend on arrow row order, so reruns could differ: it is required."""
    from crawtext_ray.stages.dedup import first_by

    with pytest.raises(TypeError):
        first_by(object(), "user_id", "ts")
