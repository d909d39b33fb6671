"""Per-partition lineage records + checkpoint/resume (SURVEY.md §4.3;
BASELINE.json:6 "per-partition lineage records (partition id, input row
range, checksum, rows/sec) ... any failed partition can resume from
checkpoint without reprocessing").

Layout under ``out_dir``:
    part-{pid:05d}.parquet      the partition's article rows
    lineage-{pid:05d}.json      sidecar written AFTER the data file is
                                fsynced and atomically renamed

A partition is "completed" iff its lineage sidecar exists — the sidecar
is the commit record. Both files are written tmp+rename so a killed run
never leaves a half-visible partition.

Partition identity = url-hash bucket (``stages.partitioning.url_buckets``
mod the job's partition count), assigned here in the sink — so a rerun
lists lineage files, skips urls whose bucket is complete, and only
reprocesses the rest: resume cost is the failed partitions only. A
bucket id means nothing under another partition count, so every sidecar
records the count it was written under and a resume under another count
is refused (``resumable_partitions``).

The sink stays in Arrow: each upstream block is split into one row per
partition holding that partition's slice as an Arrow IPC stream, the
keyed exchange (``partitioning.key_runs``: one Ray sort on
``partition_id``) moves those few rows, and each sorted block's writer
concatenates the slices of each partition run and writes them. The
checksum and status counts are Arrow compute; nothing here converts rows
to Python objects or pandas.

Storage requirement (BASELINE.md "At 100 TB"): the grouped writers run
INSIDE Ray workers while the driver lists/reads the same paths, and the
commit protocol is fsync + atomic rename — on a multi-node cluster
``out_dir`` must therefore live on a shared POSIX filesystem (NFS /
fuse-mounted object storage). Single node (this sandbox): any local
dir. The training-shard sink (stages/shuffle.py) is the URI-capable
form for direct object-store output.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.partitioning import key_runs, url_buckets

# The sink's summary rows: the sidecars' fields (``status_counts`` only
# for articles with a ``status`` column; a map holds any status set).
SUMMARY_SCHEMA = pa.schema([(f, pa.int64()) for f in (
    "partition_id", "num_partitions", "input_row_start", "input_row_end",
    "row_count")] + [("checksum", pa.string()), ("wall_s", pa.float64()),
    ("rows_per_sec", pa.float64()), ("status", pa.string()),
    ("status_counts", pa.map_(pa.string(), pa.int64()))])


def _values(arr: pa.Array) -> tuple[np.ndarray, memoryview]:
    """Zero-based offsets and value bytes of a large binary/string array."""
    offsets = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    data = memoryview(arr.buffers()[2] or b"")[offsets[0]:offsets[-1]]
    return offsets - offsets[0], data


def _hex(arr: pa.Array) -> pa.Array:
    """Lowercase hex text of each binary value (``bytes.hex()``), nulls kept."""
    arr = arr.cast(pa.large_binary())
    offsets, data = _values(arr)
    validity = arr.is_valid().buffers()[1] if arr.null_count else None
    return pa.LargeStringArray.from_buffers(
        len(arr), pa.py_buffer(offsets * 2), pa.py_buffer(data.hex().encode()),
        validity, arr.null_count)


def _partition_checksum(t: pa.Table) -> str:
    """sha256 over sorted url||content_sha256 (SURVEY.md §1.2 lineage):
    binary hashes as hex, nulls as ``None``, keys in code-point order."""
    def text(col):
        col = col.combine_chunks()
        col = _hex(col) if pa.types.is_binary(col.type) or \
            pa.types.is_large_binary(col.type) else col.cast(pa.large_string())
        return pc.fill_null(col, "None")

    keys = text(t["url"])
    if "content_sha256" in t.column_names:
        keys = pc.binary_join_element_wise(keys, text(t["content_sha256"]),
                                           pa.scalar("||", pa.large_string()))
    keys = keys.take(pc.array_sort_indices(keys))
    return hashlib.sha256(_values(keys)[1]).hexdigest()


def _atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# Row order of a part file: a total order over the article identity, so a
# rerun writes the same bytes whatever order the exchange delivered rows in.
ROW_ORDER = ("url", "warc_ts", "content_sha256")


def write_partition(table: pa.Table, out_dir: str, pid: int,
                    num_partitions: int,
                    schema: pa.Schema | None = None) -> dict:
    """Write partition ``pid`` of ``num_partitions``: data + lineage
    sidecar atomically, rows sorted by the ``ROW_ORDER`` columns the
    partition has (``table`` cast to ``schema`` first when one is given).
    ``wall_s`` and ``rows_per_sec`` time the parquet write plus the
    checksum; a partition with a ``status`` column also records its
    ``status_counts`` (nulls left out)."""
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, f"part-{pid:05d}.parquet")
    tmp_path = data_path + ".tmp"
    if schema is not None:
        table = table.select(schema.names).cast(schema)
    table = table.sort_by([(c, "ascending") for c in ROW_ORDER
                           if c in table.column_names])
    # low-cardinality columns dictionary-encode at rest (SURVEY.md §1.2)
    dict_cols = [c for c in ("lang", "status") if c in table.column_names]
    with open(tmp_path, "wb") as f:
        pq.write_table(table, f, use_dictionary=dict_cols or False)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp_path, data_path)
    checksum = _partition_checksum(table)
    wall_s = time.perf_counter() - t0

    n = table.num_rows
    record = {
        "partition_id": pid,
        "num_partitions": num_partitions,
        "input_row_start": 0,
        "input_row_end": n,
        "row_count": n,
        "checksum": checksum,
        "wall_s": round(wall_s, 4),
        "rows_per_sec": round(n / wall_s, 2) if wall_s > 0 else 0.0,
        "status": "ok",
    }
    if "status" in table.column_names:
        counts = pc.value_counts(table["status"])
        record["status_counts"] = {
            str(v): c for v, c in zip(counts.field("values").to_pylist(),
                                      counts.field("counts").to_pylist())
            if v is not None}
    _atomic_write_bytes(
        os.path.join(out_dir, f"lineage-{pid:05d}.json"),
        json.dumps(record, sort_keys=True).encode(),
    )
    return record


_SINK_FILE = re.compile(r"(lineage|part)-(\d+)\.(json|parquet)")
_EXT = {"lineage": "json", "part": "parquet"}


def _sink_files(out_dir: str, kind: str) -> dict[int, str]:
    """pid -> name of each ``kind`` ("lineage" or "part") file under
    ``out_dir`` that the sink writes: ``lineage-00007.json``, but not
    ``lineage-old.json`` or ``lineage-7.json``."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in os.listdir(out_dir):
        m = _SINK_FILE.fullmatch(name)
        if m and name == f"{kind}-{int(m[2]):05d}.{_EXT[kind]}":
            out[int(m[2])] = name
    return out


def completed_partitions(out_dir: str) -> set[int]:
    return set(_sink_files(out_dir, "lineage"))


def clear_partitions(out_dir: str) -> None:
    """Delete every sidecar, then every part file, the sink wrote under
    ``out_dir``; other files stay."""
    for kind in ("lineage", "part"):
        for name in _sink_files(out_dir, kind).values():
            os.remove(os.path.join(out_dir, name))


def read_lineage(out_dir: str) -> list[dict]:
    recs = []
    for pid in sorted(completed_partitions(out_dir)):
        with open(os.path.join(out_dir, f"lineage-{pid:05d}.json")) as f:
            recs.append(json.load(f))
    return recs


def resumable_partitions(out_dir: str, num_partitions: int) -> set[int]:
    """The completed partitions a run of ``num_partitions`` into
    ``out_dir`` may skip. Raises ValueError, naming both counts, when a
    sidecar records another partition count or none: its bucket ids
    would select other urls under this run's count."""
    recs = read_lineage(out_dir)
    other = {r.get("num_partitions") for r in recs} - {num_partitions}
    if other:
        found = ", ".join(sorted("none" if c is None else str(c)
                                 for c in other))
        raise ValueError(
            f"{out_dir} holds partitions written with num_partitions "
            f"{found}, not {num_partitions}; resume with the recorded "
            "count or write to a new out dir")
    return {r["partition_id"] for r in recs}


def split_by_partition(t: pa.Table, num_partitions: int) -> pa.Table:
    """One row per partition present in the block: ``partition_id``
    (the url-hash bucket mod ``num_partitions``) and ``ipc``, that
    partition's rows (in block order) as one Arrow IPC stream."""
    if t.num_rows == 0:
        return pa.table({"partition_id": pa.array([], pa.int64()),
                         "ipc": pa.array([], pa.binary())})
    pids = url_buckets(t["url"].to_pylist(), num_partitions)
    order = np.argsort(pids, kind="stable")
    pids = pids[order]
    starts = np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]])
    rows = t.take(order)
    sink = pa.BufferOutputStream()
    offsets = [0]
    for start, end in zip(starts, np.r_[starts[1:], len(pids)]):
        with pa.ipc.new_stream(sink, rows.schema) as w:
            w.write_table(rows.slice(start, end - start))
        offsets.append(sink.tell())
    ipc = pa.Array.from_buffers(
        pa.binary(), len(starts),
        [None, pa.py_buffer(np.array(offsets, np.int32)), sink.getvalue()])
    return pa.table({"partition_id": pa.array(pids[starts], pa.int64()),
                     "ipc": ipc})


def write_partitioned(articles, out_dir: str, num_partitions: int,
                      schema: pa.Schema | None = None):
    """Sink: split each article block by ``partition_id`` (the url-hash
    bucket mod ``num_partitions``) into one IPC-packed row per partition
    present (``split_by_partition``, fused into the upstream operator),
    sort those rows on ``partition_id`` (``key_runs``) — the job's one
    url-hash keyed exchange, about ``num_partitions`` small rows per block
    instead of every article row — and per partition run concatenate the
    slices and write the partition + lineage atomically
    (``write_partition``). The sink stays in Arrow end to end.

    The split rows are materialized (this call runs the upstream plan)
    before the exchange. In one streaming plan, the exchange and the
    grouped write cannot start until every article exists, yet Ray Data's
    resource allocator still reserves CPU budget for them; at 4 CPUs that
    left the extract one task at a time in one worker process.
    Materializing first runs the extract as the plan's only CPU consumer.
    It holds no more than before: the sort exchange already holds every
    input block before it emits any.

    Returns the small lineage summary as a Dataset (one row/partition)."""

    def write_group(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # one summary row per partition run (none: a typed empty table)
        recs = []
        for start, end in zip(starts, np.append(starts[1:], t.num_rows)):
            slices = [pa.ipc.open_stream(b.as_buffer()).read_all()
                      for b in t["ipc"][start:end]]
            # blocks of one dataset may type a column differently (a
            # column that is all null in one block is pa.null() there)
            table = pa.concat_tables(slices, promote_options="default")
            recs.append(write_partition(
                table, out_dir, t["partition_id"][start].as_py(),
                num_partitions, schema=schema))
        return pa.Table.from_pylist(recs, schema=pa.schema(
            [f for f in SUMMARY_SCHEMA if not recs or f.name in recs[0]]))

    split_rows = articles.map_batches(
        split_by_partition, fn_kwargs={"num_partitions": num_partitions},
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    return key_runs(split_rows, "partition_id", [], write_group)
