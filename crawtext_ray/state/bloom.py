"""Bloom filter for the approximate membership tests: the near-dup url
drop, the incremental re-crawl skip, the candidate verifier's
participant filter and paragraph dedup's loser set above
``partitioning.BROADCAST_ROWS``.

numpy bit-array, double-hashing (Kirsch–Mitzenmacher) over two stable
64-bit hashes of the key. One API for every key type: ``update(col)``
and ``contains(col)`` take an Arrow array and hash an integer column
with two splitmix64 streams (no per-key Python) and any other column by
its text form (md5 of string/binary values as they are, of other types
cast to string) — the same choice on the build and the probe side.
Serializable (``partitioning.member_filter`` ships the packed array
once per worker and probes it per batch). False positives drop a
not-actually-seen url — for frontier dedup that is the safe direction
(we may skip a page, never re-crawl one); pick ``fp_rate`` accordingly.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _hash_pair(col) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) uint64 arrays, one per row of an Arrow array. Integer
    columns: two splitmix64 streams (distinct seed offsets) over the
    values as uint64 (two's complement for negatives). Anything else:
    one md5 per value's text form into a single buffer, decoded with one
    frombuffer. A null hashes as 0 / "" (``contains`` masks it)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.partitioning import splitmix64

    if pa.types.is_integer(col.type):
        k = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        k = np.asarray(k).astype(np.uint64)
        with np.errstate(over="ignore"):
            return splitmix64(k), splitmix64(k + np.uint64(0xD6E8FEB86659FD93))
    if not (pa.types.is_string(col.type) or pa.types.is_binary(col.type)
            or pa.types.is_large_string(col.type)
            or pa.types.is_large_binary(col.type)):
        col = pc.cast(col, pa.string())
    buf = b"".join(
        hashlib.md5(k if isinstance(k, bytes)
                    else (k or "").encode("utf-8")).digest()
        for k in col.to_pylist()
    )
    d = np.frombuffer(buf, dtype=">u8").reshape(-1, 2)
    return d[:, 0].astype(np.uint64), d[:, 1].astype(np.uint64)


class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.001):
        m = max(1024, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.n_bits = (m + 63) // 64 * 64
        # optimal k is (m/n)·ln2, but the 64-bit floor on m inflates that
        # wildly for tiny capacities (capacity=1 → 44 hashes over 64 bits
        # = a saturated filter that false-positives constantly); k never
        # needs to exceed ceil(-log2(fp)) — the value the optimal-m case
        # converges to
        k_opt = round((self.n_bits / max(1, capacity)) * math.log(2))
        k_cap = max(1, round(-math.log2(fp_rate)))
        self.n_hashes = max(1, min(k_opt, k_cap))
        self.bits = np.zeros(self.n_bits // 64, dtype=np.uint64)

    @classmethod
    def with_params(cls, n_bits: int, n_hashes: int) -> "BloomFilter":
        """Construct from explicit geometry — every worker building a
        partial filter must share (n_bits, n_hashes) exactly or the ORed
        result is garbage."""
        bf = cls.__new__(cls)
        bf.n_bits = n_bits
        bf.n_hashes = n_hashes
        bf.bits = np.zeros(n_bits // 64, dtype=np.uint64)
        return bf

    def _positions(self, col) -> np.ndarray:
        """(n_keys, n_hashes) double-hashed bit positions."""
        h1, h2 = _hash_pair(col)
        h2 = h2 | np.uint64(1)  # odd stride → full cycle mod 2^k bits
        i = np.arange(self.n_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(
                self.n_bits
            )

    def update(self, col) -> None:
        """Add every non-null value of an Arrow array: one vectorized
        position pass for the whole column."""
        col = col.drop_null()
        if len(col) == 0:
            return
        pos = self._positions(col).ravel()
        # ufunc.at: plain fancy-index |= silently drops updates when two
        # hash positions land in the same word
        np.bitwise_or.at(
            self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )

    def contains(self, col) -> np.ndarray:
        """Vectorized membership: bool array, one row per value of an
        Arrow array; a null is never a member."""
        if len(col) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(col)
        want = np.uint64(1) << (pos & np.uint64(63))
        got = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        return ((got & want) == want).all(axis=1) & np.asarray(
            col.is_valid().to_numpy(zero_copy_only=False), dtype=bool)


def build_bloom(ds, key: str, capacity: int, fp_rate: float) -> BloomFilter:
    """Distributed Bloom build: each block folds its keys into a partial
    filter (map side), the driver ORs the fixed-size bit arrays. Driver
    memory is O(filter size), never O(keys) — the scale-safe replacement
    for ``take_all()``-then-add loops."""
    import pyarrow as pa

    proto = BloomFilter(capacity, fp_rate)
    n_bits, n_hashes = proto.n_bits, proto.n_hashes

    def block_bits(batch: pa.Table) -> pa.Table:
        bf = BloomFilter.with_params(n_bits, n_hashes)
        bf.update(batch[key])
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.large_binary())})

    parts = ds.select_columns([key]).map_batches(
        block_bits, batch_format="pyarrow", zero_copy_batch=True
    )
    for row in parts.iter_rows():
        proto.bits |= np.frombuffer(row["bits"], dtype=np.uint64)
    return proto
