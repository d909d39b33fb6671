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
"""

from __future__ import annotations

import hashlib

import numpy as np


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
    The PRODUCTION hash for sampling ops at corpus scale — ~70x faster
    than per-row md5 — while md5 stays the oracle-exact mode (DuckDB can
    reproduce md5 bit-for-bit; a SQL splitmix64 would need HUGEINT
    gymnastics for the 64-bit wraparound)."""
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


def require_integer_ids(arr: np.ndarray, what: str) -> np.ndarray:
    """Guard for the splitmix64 fast paths: raise the documented
    TypeError on non-integer id columns instead of a numpy cast error
    (or, worse, silently numeric-parsing string ids)."""
    if not np.issubdtype(np.asarray(arr).dtype, np.integer):
        raise TypeError(
            f"splitmix64 {what} needs integer ids; use method='md5' "
            "for string ids"
        )
    return arr


def use_hash_shuffle() -> None:
    """Opt the session into HASH_SHUFFLE: the keyed exchanges (the lineage
    sink's partition_id groupby, dedup aggregates) then hash-partition
    instead of sort-partitioning. OPT-IN, not the default: session owners
    reach it via ``python -m crawtext_ray.run --hash-shuffle`` (or call
    this before building a pipeline). The
    default sort-shuffle measured faster for this workload's bounded-key
    groupbys on the 32-cpu host (hash shuffle spawns per-partition
    aggregator actors with a fixed ramp cost).

    The aggregator pool is sized to the session: Ray's defaults
    (parallelism 200 → up to 64 aggregator ACTORS) can never be placed
    on a small-CPU session, and every shuffle then deadlocks inside the
    300 s aggregator wait (observed: any groupby at 8 cpus hung).
    Roughly half the CPUs go to aggregators, leaving the rest for the
    upstream read/map tasks feeding them."""
    import ray
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 0)) or None
        if cpus:
            ctx.max_hash_shuffle_aggregators = max(1, cpus // 2)
            ctx.default_hash_shuffle_parallelism = min(
                200, max(8, cpus * 2)
            )
