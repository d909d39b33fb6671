"""URL-hash partitioning (SURVEY.md §4.3; BASELINE.json:6
"repartitioning by url-hash to break host-level skew") plus the shared
hash kernels of the sampling ops.

``url_buckets`` is the one url → bucket function: the lineage sink
(state/lineage.write_partitioned) turns it into each article's
``partition_id`` and keys its exchange on it, and the extract job's
resume filter uses it to skip completed partitions. Host-level skew at
the extract stage is broken the streaming way instead — shuffled file
order at the scan — because a url-hash repartition of raw html before
extraction measured 3.5–5x the cost of the whole extraction (90–128 s vs
26 s on 100k pages at 32 CPUs), while the exchange of extracted articles
(~5x smaller) at the sink is the one the output layout needs.

``key_runs`` is the one per-key reduce: every operator that works on
"all rows of one key" (first-by, exact content and paragraph dedup,
LSH buckets, candidate verification,
similarity top-k, the user-window family, the lineage sink's partition
writes, the shard export, ``run_join`` (the frontier's anti-join and
``member_join``'s scale form), and the unbounded-key sums
``report.key_sums``) range-partitions its rows by key
with ONE Ray sort and reduces each output block's sorted key runs with
vectorized code, so Python calls scale with the block count, never the
key count.

``member_join`` is the one exact semi-/anti-join and the only reader of
``BROADCAST_ROWS`` besides paragraph dedup's loser set: at or under
that many member rows it ships the unique member values once through
``member_filter`` (the one row filter, also used with a Bloom filter
for the approximate tests); above it, one ``run_join`` sort on the key
over both sides. Its callers (the BFS page subset, the exact-dup loser
drop) never pick a form. LSH buckets have no small side: both LSH forms
run only on ``key_runs``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def url_buckets(urls: list, num_buckets: int) -> np.ndarray:
    """Bucket = first 8 big-endian sha1 bytes mod num_buckets (int64). The
    sha1 per url is the irreducible Python; digests land in ONE buffer
    decoded by a single frombuffer and the mod runs vectorized
    (bit-identical to the per-url int.from_bytes form — resume partition
    ids are stable). A null url hashes as ""."""
    buf = b"".join(
        hashlib.sha1((u or "").encode("utf-8")).digest()[:8] for u in urls
    )
    vals = np.frombuffer(buf, dtype=">u8").astype(np.uint64)
    return (vals % np.uint64(num_buckets)).astype(np.int64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant set from
    the SplitMix64 PRNG): uint64 in → well-mixed uint64 out, pure numpy.
    The integer-key mixer of the Bloom filter; the row hashes of the
    sampling and shuffle ops are md5 (``md5_prefix_array``), which
    DuckDB reproduces bit-for-bit."""
    x = np.ascontiguousarray(x).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def md5_prefix_array(ids, nbytes: int, seed: int | None = None) -> np.ndarray:
    """First ``nbytes`` (1, 2, 4 or 8) of md5 over each id's text form —
    the shared kernel of every oracle-parity hash op (sampling,
    stratified quotas, shuffle-sharding): one digest per id is the
    irreducible Python, everything else is batched (digests land in ONE
    buffer decoded by a single frombuffer). ``seed`` prefixes the hashed
    text as ``"{seed}:{id}"`` (ops without a seed hash ``str(id)``
    verbatim — DuckDB reproduces both forms bit-for-bit)."""
    dtype = {1: np.uint8, 2: ">u2", 4: ">u4", 8: ">u8"}[nbytes]
    if seed is None:
        buf = b"".join(
            hashlib.md5(str(i).encode()).digest()[:nbytes] for i in ids
        )
    else:
        pre = f"{seed}:"
        buf = b"".join(
            hashlib.md5((pre + str(i)).encode()).digest()[:nbytes]
            for i in ids
        )
    return np.frombuffer(buf, dtype=dtype)


# Largest small side shipped to every worker (``member_join``'s members,
# paragraph dedup's losers). Read at call time
# (``partitioning.BROADCAST_ROWS``), so setting it to 0 forces both scale
# forms.
BROADCAST_ROWS = 1_000_000


def member_filter(ds, key: str, members, keep: bool):
    """Keep (``keep=True``) or drop (``keep=False``) the rows of ``ds``
    whose ``key`` column value is in ``members`` — one probe per batch.

    ``members`` is an Arrow array (exact) or a
    ``state.bloom.BloomFilter`` (approximate: a false positive counts as
    a member). It ships once per worker, and each worker builds its
    lookup once: a set of the exact values (an Arrow ``is_in`` would
    rebuild its hash table in every batch), or the filter itself. A null
    key is never a member."""
    import ray

    from ..state.bloom import BloomFilter
    from .fusion import map_stage

    ref = ray.put(members)

    def probe_members():
        probe = ray.get(ref)
        if isinstance(probe, BloomFilter):
            def hits(col) -> np.ndarray:
                return probe.contains(col)
        else:
            values = frozenset(probe.drop_null().to_pylist())

            def hits(col) -> np.ndarray:
                return np.fromiter((v in values for v in col.to_pylist()),
                                   bool, len(col))

        def member_rows(batch: pa.Table) -> pa.Table:
            hit = hits(batch[key])
            return batch.filter(pa.array(hit if keep else ~hit))

        return member_rows

    return map_stage(ds, probe_members)


def run_join(ds, members, key: str, keep):
    """The rows of ``ds`` that ``keep(member_led, first)`` marks: ONE
    ``key_runs`` sort on ``key`` over ``ds`` ∪ ``members`` (same columns;
    a null key is no key and is dropped on both sides), ``members``'
    rows leading each key run. Per ``ds`` row, ``member_led`` says
    ``members`` holds its key and ``first`` that it leads its run."""
    import pyarrow.compute as pc

    def flag(side, value: int):
        def flagged(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[key]))
            return t.append_column(
                "__member", pa.array(np.full(t.num_rows, value, np.int8)))
        return side.map_batches(flagged, batch_format="pyarrow",
                                zero_copy_batch=True)

    def member_runs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        is_member = t["__member"].to_numpy() == 1
        first = np.zeros(t.num_rows, dtype=bool)
        first[starts] = True
        member_led = is_member[starts][run_ids(starts, t.num_rows)]
        return t.filter(pa.array(keep(member_led, first) & ~is_member)
                        ).drop_columns(["__member"])

    return key_runs(flag(ds, 0).union(flag(members, 1)), key,
                    [("__member", "descending")], member_runs)


def member_join(ds, members, key: str, keep: bool):
    """The one exact semi- (``keep=True``) or anti-join (``keep=False``)
    of ``ds`` against the ``key`` column of the ``members`` Dataset.

    At or under ``BROADCAST_ROWS`` member rows the unique member values
    ship once through ``member_filter``; above it ONE ``run_join`` sort
    on ``key`` over ``ds`` ∪ ``members``, the member rows typed as
    ``ds`` (nulls in every other column). In both forms a null key is
    never a member and ``ds`` rows keep their multiplicity."""
    import pyarrow.compute as pc

    members = members.select_columns([key]).materialize()
    if members.count() <= BROADCAST_ROWS:
        values = [b[key].combine_chunks() for b in
                  members.iter_batches(batch_format="pyarrow") if b.num_rows]
        return member_filter(ds, key, pc.unique(pa.concat_arrays(
            values or [pa.array([])])), keep)

    schema = ds.schema().base_schema

    def as_ds(t: pa.Table) -> pa.Table:
        return pa.table([t[key].cast(f.type) if f.name == key
                         else pa.nulls(t.num_rows, f.type) for f in schema],
                        schema=schema)

    typed = members.map_batches(as_ds, batch_format="pyarrow")
    joined = run_join(ds, typed, key,
                      lambda member_led, first: member_led == keep)
    if keep:
        return joined
    return joined.union(ds.map_batches(
        lambda t: t.filter(pc.is_null(t[key])), batch_format="pyarrow",
        zero_copy_batch=True))


def run_starts(*cols) -> np.ndarray:
    """Row index of the first row of each run in SORTED arrow columns: a
    run starts where any of ``cols`` changes value (non-null values) —
    the run-boundary primitive of every key-run reduce."""
    import pyarrow.compute as pc

    n = len(cols[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in cols:
        new[1:] |= pc.not_equal(col.slice(1), col.slice(0, n - 1)).to_numpy(
            zero_copy_only=False)
    return np.flatnonzero(new)


def run_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Per-row index of the run it belongs to (runs given by
    ``run_starts`` over ``n`` rows)."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def shard_runs(table: pa.Table, key: str, sort_keys: list, fn):
    """One block's reduce: ONE arrow sort by ``[key, *sort_keys]``, then
    ``fn(sorted_table, run_starts)``. ``sort_keys`` entries are column
    names (ascending) or ``(column, "ascending"|"descending")`` pairs."""
    order = [(key, "ascending")] + [
        (c, "ascending") if isinstance(c, str) else tuple(c)
        for c in sort_keys
    ]
    table = table.sort_by(order)
    return fn(table, run_starts(table[key]))


def key_runs(ds, key: str, sort_keys: list, fn):
    """Per-key reduce over a Dataset without a Python call per key: ONE
    Ray sort on ``key`` alone, then :func:`shard_runs` over each output
    block whole. The sort range-partitions rows by key value, so all rows
    of one key land in one block (Ray's own per-group map rests on the
    same guarantee) and ``fn`` sees whole key runs; the secondary order
    is the per-block Arrow sort, since a range boundary on
    ``[key, *sort_keys]`` could split a key. ``fn`` returns a pyarrow
    table (empty blocks reach it as empty tables). Keys must be
    non-null. A hot key costs nothing extra — it is one run inside one
    block's sort. The map is named after ``fn``, so ``ds.stats()`` shows
    which reduce ran (``MapBatches(write_group)``)."""
    def runs(table: pa.Table) -> pa.Table:
        return shard_runs(table, key, sort_keys, fn)

    runs.__name__ = fn.__name__
    return ds.sort(key).map_batches(
        runs, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
