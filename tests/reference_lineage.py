"""The pandas forms of the lineage sink (``crawtext_ray.state.lineage``):
the per-row Python checksum and the sink that groups every article row
by ``partition_id`` and writes each group through pandas. The package
runs only the Arrow split-and-write; tests check it against these."""

import hashlib
import os
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from ray import cloudpickle

from crawtext_ray.stages.partitioning import url_buckets
from crawtext_ray.state.lineage import ROW_ORDER, _atomic_write_bytes

# Ray workers cannot import this test module: ship its functions by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def partition_checksum(df: pd.DataFrame) -> str:
    """sha256 over sorted url||content_sha256."""
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


def write_partition(df: pd.DataFrame, out_dir: str, pid: int,
                    num_partitions: int,
                    schema: pa.Schema | None = None) -> dict:
    import json
    import time

    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    table = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    table = table.sort_by([(c, "ascending") for c in ROW_ORDER
                           if c in table.column_names])
    dict_cols = [c for c in ("lang", "status") if c in table.column_names]
    pq.write_table(table, os.path.join(out_dir, f"part-{pid:05d}.parquet"),
                   use_dictionary=dict_cols or False)
    wall_s = time.perf_counter() - t0
    record = {
        "partition_id": pid,
        "num_partitions": num_partitions,
        "input_row_start": 0,
        "input_row_end": int(len(df)),
        "row_count": int(len(df)),
        "checksum": partition_checksum(df),
        "wall_s": round(wall_s, 4),
        "rows_per_sec": round(len(df) / wall_s, 2) if wall_s > 0 else 0.0,
        "status": "ok",
    }
    if "status" in df.columns:
        record["status_counts"] = {
            str(k): int(v) for k, v in df["status"].value_counts().items()}
    _atomic_write_bytes(os.path.join(out_dir, f"lineage-{pid:05d}.json"),
                        json.dumps(record, sort_keys=True).encode())
    return record


def write_partitioned(articles, out_dir: str, num_partitions: int,
                      schema: pa.Schema | None = None):
    def add_partition_id(t: pa.Table) -> pa.Table:
        pids = url_buckets(t["url"].to_pylist(), num_partitions)
        return t.append_column("partition_id", pa.array(pids, pa.int64()))

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        pid = int(g["partition_id"].iloc[0])
        rec = write_partition(g.drop(columns=["partition_id"]), out_dir, pid,
                              num_partitions, schema=schema)
        return pd.DataFrame([rec])

    tagged = articles.map_batches(
        add_partition_id, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    return tagged.groupby("partition_id").map_groups(write_group,
                                                     batch_format="pandas")
