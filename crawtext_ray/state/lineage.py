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
reprocesses the rest: resume cost is the failed partitions only.

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
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _partition_checksum(df: pd.DataFrame) -> str:
    """sha256 over sorted url||content_sha256 (SURVEY.md §1.2 lineage)."""
    h = hashlib.sha256()
    if "content_sha256" in df.columns:
        keys = sorted(
            f"{u}||{c.hex() if isinstance(c, (bytes, bytearray)) else c}"
            for u, c in zip(df["url"], df["content_sha256"])
        )
    else:
        keys = sorted(str(u) for u in df["url"])
    for k in keys:
        h.update(k.encode("utf-8"))
    return h.hexdigest()


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


def write_partition(df: pd.DataFrame, out_dir: str, pid: int,
                    schema: pa.Schema | None = None) -> dict:
    """Write one partition's data + lineage sidecar atomically, rows sorted
    by the ``ROW_ORDER`` columns the partition has. ``wall_s`` and
    ``rows_per_sec`` time the parquet write plus the checksum; a partition
    with a ``status`` column also records its ``status_counts``."""
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, f"part-{pid:05d}.parquet")
    tmp_path = data_path + ".tmp"
    table = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    table = table.sort_by([(c, "ascending") for c in ROW_ORDER
                           if c in table.column_names])
    # low-cardinality columns dictionary-encode at rest (SURVEY.md §1.2)
    dict_cols = [c for c in ("lang", "status") if c in table.column_names]
    with open(tmp_path, "wb") as f:
        pq.write_table(table, f, use_dictionary=dict_cols or False)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp_path, data_path)
    checksum = _partition_checksum(df)
    wall_s = time.perf_counter() - t0

    record = {
        "partition_id": pid,
        "input_row_start": 0,
        "input_row_end": int(len(df)),
        "row_count": int(len(df)),
        "checksum": checksum,
        "wall_s": round(wall_s, 4),
        "rows_per_sec": round(len(df) / wall_s, 2) if wall_s > 0 else 0.0,
        "status": "ok",
    }
    if "status" in df.columns:
        record["status_counts"] = {
            str(k): int(v) for k, v in df["status"].value_counts().items()}
    _atomic_write_bytes(
        os.path.join(out_dir, f"lineage-{pid:05d}.json"),
        json.dumps(record, sort_keys=True).encode(),
    )
    return record


def completed_partitions(out_dir: str) -> set[int]:
    if not os.path.isdir(out_dir):
        return set()
    out = set()
    for name in os.listdir(out_dir):
        if name.startswith("lineage-") and name.endswith(".json"):
            out.add(int(name[len("lineage-"):-len(".json")]))
    return out


def read_lineage(out_dir: str) -> list[dict]:
    recs = []
    for pid in sorted(completed_partitions(out_dir)):
        with open(os.path.join(out_dir, f"lineage-{pid:05d}.json")) as f:
            recs.append(json.load(f))
    return recs


def write_partitioned(articles, out_dir: str, num_partitions: int,
                      schema: pa.Schema | None = None):
    """Sink: give each article row its ``partition_id`` (the url-hash
    bucket mod ``num_partitions``), group rows by it — the job's one
    url-hash keyed exchange, over extracted articles — and write each
    partition + lineage atomically inside the grouped task.

    The tagged articles are materialized (this call runs the upstream
    plan) before the exchange. In one streaming plan, the exchange and the
    grouped write cannot start until every article exists, yet Ray Data's
    resource allocator still reserves CPU budget for them; at 4 CPUs that
    left the extract one task at a time in one worker process.
    Materializing first runs the extract as the plan's only CPU consumer.
    It holds no more than before: the sort exchange already holds every
    input block before it emits any.

    Returns the small lineage summary as a Dataset (one row/partition)."""
    from ..stages.partitioning import url_buckets

    def add_partition_id(t: pa.Table) -> pa.Table:
        pids = url_buckets(t["url"].to_pylist(), num_partitions)
        return t.append_column("partition_id", pa.array(pids, pa.int64()))

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        pid = int(g["partition_id"].iloc[0])
        rec = write_partition(g.drop(columns=["partition_id"]), out_dir, pid,
                              schema=schema)
        return pd.DataFrame([rec])

    tagged = articles.map_batches(
        add_partition_id, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    return tagged.groupby("partition_id").map_groups(write_group,
                                                     batch_format="pandas")
