"""The lineage sink (``crawtext_ray.state.lineage``): the Arrow checksum and
status counts against the pandas reference forms, the per-block partition
split, sidecar discovery, and the whole sink against the pandas sink."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import reference_lineage as ref

from crawtext_ray.stages.partitioning import url_buckets
from crawtext_ray.state import lineage

URLS = ["http://b.example/1", "http://a.example/x|y", "http://a.example/x",
        "http://ä.example/straße", "http://例え.jp/パス", None]


@pytest.mark.parametrize("table", [
    pa.table({"url": URLS, "content_sha256": pa.array(
        [b"\x00\xff", None, b"ab", b"\x10" * 32, b"", b"z"], pa.binary())}),
    pa.table({"url": URLS}),
    pa.table({"url": URLS, "content_sha256": pa.nulls(6, pa.binary())}),
    pa.table({"url": URLS, "content_sha256": pa.nulls(6)}),
    pa.table({"url": URLS, "content_sha256": [None, "ff", "ab", "", "x", "y"]}),
    pa.table({"url": pa.array([], pa.string()),
              "content_sha256": pa.array([], pa.binary())}),
], ids=["binary", "no-hash-column", "null-hashes", "null-type-hashes",
        "string-hashes", "empty"])
def test_checksum_matches_pandas_reference(table):
    want = ref.partition_checksum(table.to_pandas())
    assert lineage._partition_checksum(table) == want
    # sliced and multi-chunk columns hash the same rows the same way
    chunked = pa.concat_tables([table.slice(0, 2), table.slice(2)])
    assert lineage._partition_checksum(chunked) == want
    if table.num_rows:
        assert (lineage._partition_checksum(table.slice(1))
                == ref.partition_checksum(table.slice(1).to_pandas()))


def test_status_counts_leave_out_nulls(tmp_path):
    table = pa.table({"url": [f"http://a.example/{i}" for i in range(5)],
                      "status": ["ok", None, "ok", "blocked", None]})
    rec = lineage.write_partition(table, str(tmp_path / "a"), 0)
    want = ref.write_partition(table.to_pandas(), str(tmp_path / "b"), 0)
    assert rec["status_counts"] == want["status_counts"] == {"ok": 2,
                                                             "blocked": 1}
    nulls = pa.table({"url": ["http://a.example/1"], "status": pa.nulls(1)})
    assert lineage.write_partition(nulls, str(tmp_path / "c"), 0)[
        "status_counts"] == {}


def test_completed_partitions_ignores_stray_names(tmp_path):
    """Only ``lineage-<5+ digits>.json`` names, as the sink writes them,
    are commit records; resume and the audit skip anything else."""
    from crawtext_ray.audit import audit

    out = str(tmp_path)
    table = pa.table({"url": ["http://a.example/1"],
                      "content_sha256": [b"\x01"]})
    lineage.write_partition(table, out, 3)
    lineage.write_partition(table, out, 123456)
    for stray in ("lineage-old.json", "lineage-7.json", "lineage-.json",
                  "lineage-00004.json.tmp", "lineage-00005.jsonx"):
        (tmp_path / stray).write_text("{}")
    assert lineage.completed_partitions(out) == {3, 123456}
    assert [r["partition_id"] for r in lineage.read_lineage(out)] == [3, 123456]
    assert [r["status"] for r in audit(out)] == ["ok", "ok"]


def _slices(split: pa.Table) -> list[pa.Table]:
    return [pa.ipc.open_stream(b.as_buffer()).read_all() for b in split["ipc"]]


def test_split_by_partition_packs_each_partition_in_block_order():
    urls = [f"http://h{i % 7}.example/{i}" for i in range(60)]
    block = pa.table({"url": urls, "i": list(range(60))})
    split = lineage.split_by_partition(block, 5)
    pids = url_buckets(urls, 5)
    assert split.schema == pa.schema([("partition_id", pa.int64()),
                                      ("ipc", pa.binary())])
    assert split["partition_id"].to_pylist() == sorted(set(pids.tolist()))
    for pid, part in zip(split["partition_id"].to_pylist(), _slices(split)):
        assert part.schema == block.schema
        assert part["i"].to_pylist() == [i for i in range(60) if pids[i] == pid]


def test_split_by_partition_zero_and_one_partition_blocks():
    block = pa.table({"url": ["http://a.example/1", "http://b.example/2"],
                      "n": [1, 2]})
    empty = lineage.split_by_partition(block.slice(0, 0), 4)
    assert empty.num_rows == 0
    assert empty.schema == pa.schema([("partition_id", pa.int64()),
                                      ("ipc", pa.binary())])
    one = lineage.split_by_partition(block, 1)
    assert one["partition_id"].to_pylist() == [0]
    assert _slices(one) == [block]


def test_sink_concatenates_mixed_block_schemas(ray_session, tmp_path):
    """Without a schema (the curate sink) a column may be ``pa.null()`` in
    one block and ``string`` in another; the partition's slices still
    concatenate."""
    import ray.data as rd

    a = pa.table({"url": ["http://a.example/1", "http://a.example/2"],
                  "title": pa.nulls(2)})
    b = pa.table({"url": ["http://b.example/3"], "title": ["t"]})
    c = a.slice(0, 0)
    out = str(tmp_path / "out")
    recs = lineage.write_partitioned(rd.from_arrow([a, b, c]), out,
                                     1).take_all()
    assert [r["row_count"] for r in recs] == [3]
    part = pq.read_table(f"{out}/part-00000.parquet")
    assert part.schema.field("title").type == pa.string()
    assert part["title"].to_pylist() == [None, None, "t"]


def test_sink_matches_pandas_reference(ray_session, pages_small, tmp_path):
    """The Arrow split-and-write gives the pandas sink's part-file rows and
    field types (only the ``pandas`` schema-metadata key is gone) and its
    sidecars (apart from the timings)."""
    from crawtext_ray.pipelines.flagship import build_articles
    from crawtext_ray.stages.extract_stage import ARTICLES_SCHEMA

    arts = build_articles(pages_small).materialize()
    got, want = str(tmp_path / "arrow"), str(tmp_path / "pandas")
    lineage.write_partitioned(arts, got, 8, schema=ARTICLES_SCHEMA).take_all()
    ref.write_partitioned(arts, want, 8, schema=ARTICLES_SCHEMA).take_all()
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    assert len(os.listdir(got)) == 16
    for name in os.listdir(want):
        if name.endswith(".parquet"):
            g = pq.read_table(f"{got}/{name}")
            w = pq.read_table(f"{want}/{name}")
            meta = dict(w.schema.metadata)
            del meta[b"pandas"]
            assert (g.schema.metadata or {}) == meta
            assert g.schema.remove_metadata() == w.schema.remove_metadata()
            assert g.to_pylist() == w.to_pylist()
        else:
            timing = ("wall_s", "rows_per_sec")
            g, w = (json.load(open(f"{d}/{name}")) for d in (got, want))
            assert ({k: v for k, v in g.items() if k not in timing}
                    == {k: v for k, v in w.items() if k not in timing})
