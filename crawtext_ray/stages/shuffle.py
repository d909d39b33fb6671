"""Deterministic global shuffle + sharding for training-data export.

The last step of an LLM data pipeline: the curated corpus must reach the
data loaders globally shuffled (no host/time locality) and sharded (one
file group per loader rank). Ray's ``random_shuffle`` is a full
all-to-all with a non-reproducible row order per run; this operator gets
the same statistical effect deterministically and resumably:

- every row's 64-bit hash ``h = mix(key, seed)`` decides BOTH its shard
  (``h % n_shards``) and its position within the shard (order by
  ``(h, key)``) — rerunning the job, or re-running only one failed
  shard, reproduces identical bytes;
- the only exchange is ONE keyed groupby on ``shard`` (the hash is
  computed map-side), not a row-level all-to-all — the write/pack
  variants fuse their work into that same single groupby;
- shard files are written independently (``part-<shard>.parquet``), so a
  failed export resumes per shard.

The row hash is the samplers' md5 kernel (stages.partitioning
``md5_prefix_array``): any key type, and DuckDB reproduces it
bit-for-bit, so the SQL oracles rebuild every shard and position.

Output location: ``out_dir`` may be a plain local path OR a
``scheme://`` URI resolvable by ``pyarrow.fs.FileSystem.from_uri``
(``file://``, ``s3://``, ...). The shard writers run INSIDE Ray workers,
so on a multi-node cluster a plain local path silently requires a
shared filesystem (NFS / fuse-mounted object storage) for the driver to
see the parts — pass an object-store URI there instead. Single node:
plain paths are the default and fully correct.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _grouped_shuffle(ds, n_shards: int, key: str, seed: int, finish):
    """Shared core: map-side shard+hash assignment, then ONE keyed
    groupby whose group function sorts the shard into shuffle order,
    assigns ``pos``, and hands the ordered table to ``finish`` (the
    caller's per-shard work — identity, packing, or file write) — so
    every variant pays exactly one exchange and one sort."""
    from .partitioning import md5_prefix_array

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "shard", pa.array([], pa.int64())
            ).append_column("_h", pa.array([], pa.uint64()))
        h = md5_prefix_array(batch[key].to_pylist(), 8,
                             seed=seed).astype(np.uint64)
        t = batch.append_column(
            "shard", pa.array((h % np.uint64(n_shards)).astype(np.int64))
        )
        return t.append_column("_h", pa.array(h, pa.uint64()))

    hashed = ds.map_batches(assign, batch_format="pyarrow",
                            zero_copy_batch=True)

    def order(g: pa.Table) -> pa.Table:
        # pyarrow groups (not pandas): rows may carry list/struct
        # columns (articles do), which pandas map_groups cannot emit
        if g.num_rows == 0:
            return finish(g.drop_columns(["_h"]).append_column(
                "pos", pa.array([], pa.int64())
            ))
        g = g.sort_by([("_h", "ascending"), (key, "ascending")])
        g = g.append_column(
            "pos", pa.array(np.arange(g.num_rows, dtype=np.int64))
        )
        return finish(g.drop_columns(["_h"]))

    return hashed.groupby("shard").map_groups(order, batch_format="pyarrow")


def shuffle_shards(ds, n_shards: int = 64, seed: int = 0):
    """Assign every row a ``shard`` and its deterministic ``pos`` within
    that shard (hashing ``doc_id``); rows come back grouped by shard and
    ordered by position. Columns are preserved; ``shard``/``pos`` are
    appended (int64)."""
    return _grouped_shuffle(ds, n_shards, "doc_id", seed, lambda g: g)


def _resolve_fs(out_dir: str):
    """(filesystem, fs-internal path, scheme|None) for a plain local
    path or a ``scheme://`` URI (``pyarrow.fs.FileSystem.from_uri``).
    See the module docstring for the multi-node shared-filesystem
    caveat on plain paths."""
    from pyarrow import fs as pafs

    if "://" in out_dir:
        fs, path = pafs.FileSystem.from_uri(out_dir)
        return fs, path, out_dir.split("://", 1)[0]
    return pafs.LocalFileSystem(), out_dir, None


def _pack_table(g: pa.Table, seq_len: int, n_tokens_col: str) -> pa.Table:
    """Per-shard exclusive token cumsum → (pack_id, pack_offset); the
    shared kernel of pack_sequences and the packed shard writer."""
    if g.num_rows == 0:
        return g.append_column(
            "pack_id", pa.array([], pa.int64())
        ).append_column("pack_offset", pa.array([], pa.int64()))
    toks = g[n_tokens_col].to_numpy(zero_copy_only=False).astype(np.int64)
    prev = np.concatenate(([0], np.cumsum(toks)[:-1]))
    return g.append_column(
        "pack_id", pa.array(prev // seq_len, pa.int64())
    ).append_column(
        "pack_offset", pa.array(prev % seq_len, pa.int64())
    )


def write_training_shards(ds, out_dir: str, n_shards: int = 64,
                          key: str = "doc_id", seed: int = 0,
                          pack_seq_len: int | None = None,
                          n_tokens_col: str = "n_tokens") -> list[dict]:
    """Shuffle-shard ``ds`` and write one parquet file per shard
    (``part-<shard>.parquet``, rows in shuffle order, written inside the
    single shuffle groupby) plus a driver-side manifest
    [{shard, rows, path}] covering ALL ``n_shards`` entries — rowless
    shards get an empty file with the full schema, so a rank-per-file
    loader never hits a hole. ``out_dir`` (path or URI, see module
    docstring) is cleared of stale part files first (a prior export with
    a different n_shards must not leak extra parts into a glob). Each
    shard is written tmp+rename — atomic on a local or NFS filesystem
    only: on an object store ``fs.move`` is a copy then a delete, so a
    reader can see a partial listing mid-write. Idempotent: re-running
    rewrites identical bytes. ``pack_seq_len``: also compute GPT-style pack assignments
    (``pack_id``/``pack_offset`` over ``n_tokens_col``) inside the SAME
    single exchange before writing — the packed-export form."""
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    fs, base, scheme = _resolve_fs(out_dir)
    # manifest paths keep the caller's scheme so consumers can open them
    # directly (pyarrow resolves "scheme://path" URIs); plain local
    # paths stay plain
    public = (lambda p: f"{scheme}://{p}") if scheme else (lambda p: p)
    fs.create_dir(base, recursive=True)
    sel = pafs.FileSelector(base, allow_not_found=True)
    for info in fs.get_file_info(sel):
        if (info.type == pafs.FileType.File
                and info.base_name.startswith("part-")
                and (info.base_name.endswith(".parquet")
                     or info.base_name.endswith(".parquet.tmp"))):
            fs.delete_file(info.path)

    def write_shard(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.int64()),
                             "rows": pa.array([], pa.int64())})
        if pack_seq_len is not None:
            g = _pack_table(g, pack_seq_len, n_tokens_col)
        wfs, wbase, _ = _resolve_fs(out_dir)  # runs inside the Ray worker
        shard = int(g["shard"][0].as_py())
        path = f"{wbase}/part-{shard:05d}.parquet"
        pq.write_table(g, path + ".tmp", filesystem=wfs)
        wfs.move(path + ".tmp", path)
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "rows": pa.array([g.num_rows], pa.int64())})

    recs = {
        int(r["shard"]): int(r["rows"])
        for r in _grouped_shuffle(ds, n_shards, key, seed,
                                  write_shard).take_all()
    }
    # rowless shards (tiny corpora / unlucky hashes): write empty files
    # with the real schema so part-00000..part-<N-1> is always complete
    missing = [s for s in range(n_shards) if s not in recs]
    if missing:
        written = sorted(set(range(n_shards)) - set(missing))
        if written:
            schema = pq.read_schema(
                f"{base}/part-{written[0]:05d}.parquet", filesystem=fs
            )
        else:
            # fully empty input: input columns + the appended shard/pos,
            # with the REAL key dtype from the dataset schema (hardcoding
            # pa.string() broke integer-keyed loaders that glob shards
            # with a unified schema)
            in_schema = ds.schema()
            extra = [("shard", pa.int64()), ("pos", pa.int64())]
            if pack_seq_len is not None:
                extra += [("pack_id", pa.int64()),
                          ("pack_offset", pa.int64())]
            schema = pa.schema(
                list(zip(in_schema.names, in_schema.types)) + extra
            )
        empty = pa.table({f.name: pa.array([], f.type) for f in schema})
        for s in missing:
            path = f"{base}/part-{s:05d}.parquet"
            pq.write_table(empty, path + ".tmp", filesystem=fs)
            fs.move(path + ".tmp", path)
            recs[s] = 0
    return [
        {"shard": s, "rows": recs[s],
         "path": public(f"{base}/part-{s:05d}.parquet")}
        for s in range(n_shards)
    ]


def pack_sequences(ds, seq_len: int, n_tokens_col: str = "n_tokens",
                   n_shards: int = 64, seed: int = 0):
    """GPT-style sequence packing assignment: documents are laid out in
    the deterministic ``doc_id`` shuffle order (``shuffle_shards``) and the token
    stream is cut into fixed ``seq_len`` windows; every document gets
    the pack it STARTS in and its offset inside that pack —
    ``pack_id = floor(prev_cumsum / seq_len)``,
    ``pack_offset = prev_cumsum % seq_len`` — the
    concatenate-and-chunk layout a pretraining loader consumes
    (documents may straddle pack boundaries, as in GPT-style training).

    Scale shape: shard assignment is map-side; the per-shard exclusive
    cumsum runs inside the SAME single shuffle groupby (no second
    exchange). Deterministic end to end, so loaders on different hosts
    agree on the layout without coordination. Output: input columns +
    (shard, pos, pack_id, pack_offset); pack_id is unique WITHIN a
    shard — loaders consume one shard each, which is the point."""

    return _grouped_shuffle(
        ds, n_shards, "doc_id", seed,
        lambda g: _pack_table(g, seq_len, n_tokens_col))
