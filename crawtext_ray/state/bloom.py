"""Bloom filter for at-scale anti-joins (J1 when the seen-url set no
longer fits a broadcast python set).

numpy bit-array, double-hashing (Kirsch–Mitzenmacher) over two stable
64-bit hashes of the key; serializable (``partitioning.member_filter``
ships the packed array once per worker and probes it per batch). False
positives drop a not-actually-seen url — for frontier dedup that is the
safe direction (we may skip a page, never re-crawl one); pick
``fp_rate`` accordingly.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


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

    @staticmethod
    def _h2(key: str) -> tuple[int, int]:
        d = hashlib.md5(key.encode("utf-8")).digest()
        return int.from_bytes(d[:8], "big"), int.from_bytes(d[8:], "big")

    @staticmethod
    def _h2_batch(keys) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) uint64 arrays for a whole batch: one md5 per key into
        a single buffer, decoded with one frombuffer — the md5 itself is
        the only per-key Python left. ``bytes`` keys hash as they are (a
        str key hashes as its utf-8 bytes)."""
        buf = b"".join(
            hashlib.md5(k if isinstance(k, bytes)
                        else (k or "").encode("utf-8")).digest()
            for k in keys
        )
        d = np.frombuffer(buf, dtype=">u8").reshape(-1, 2)
        return d[:, 0].astype(np.uint64), d[:, 1].astype(np.uint64)

    @staticmethod
    def _h2_batch_ints(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) uint64 arrays for int64/uint64 keys: two independent
        splitmix64 streams (distinct seed offsets) — zero per-key Python,
        the vectorized counterpart of the md5 pair for string keys.
        int64 inputs are reinterpreted (two's-complement view), so
        negative hash values round-trip deterministically."""
        from ..stages.partitioning import splitmix64

        k = np.ascontiguousarray(keys)
        k = k.view(np.uint64) if k.dtype == np.int64 else k.astype(np.uint64)
        with np.errstate(over="ignore"):
            h1 = splitmix64(k)
            h2 = splitmix64(k + np.uint64(0xD6E8FEB86659FD93))
        return h1, h2

    def _positions(self, key: str) -> np.ndarray:
        h1, h2 = self._h2(key)
        h2 |= 1  # odd stride → full cycle modulo the power-of-two bit count
        i = np.arange(self.n_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (np.uint64(h1) + i * np.uint64(h2)) % np.uint64(self.n_bits)

    def _positions_from(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """(n_keys, n_hashes) double-hashed positions from a hash pair."""
        h2 = h2 | np.uint64(1)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(
                self.n_bits
            )

    def _positions_batch(self, keys) -> np.ndarray:
        """(n_keys, n_hashes) positions — identical values to per-key
        ``_positions`` (same uint64 wraparound arithmetic), one pass."""
        return self._positions_from(*self._h2_batch(keys))

    def add(self, key: str) -> None:
        pos = self._positions(key)
        # ufunc.at: plain fancy-index |= silently drops updates when two
        # hash positions land in the same word
        np.bitwise_or.at(
            self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )

    def update(self, keys) -> None:
        """Batched add: one vectorized position pass for the whole key
        sequence (the per-key loop was the hot path in the distributed
        build at 10^8-url scale)."""
        keys = list(keys)
        if not keys:
            return
        pos = self._positions_batch(keys).ravel()
        np.bitwise_or.at(
            self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )

    def update_ints(self, keys: np.ndarray) -> None:
        """Batched add over integer keys (splitmix64 pair hashing) — no
        per-key stringification anywhere; the build-side kernel for
        filters over 64-bit content hashes."""
        k = np.asarray(keys)
        if k.size == 0:
            return
        pos = self._positions_from(*self._h2_batch_ints(k)).ravel()
        np.bitwise_or.at(
            self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )

    def contains_batch_ints(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership for integer keys (same hash pair as
        ``update_ints``)."""
        k = np.asarray(keys)
        if k.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions_from(*self._h2_batch_ints(k))
        want = np.uint64(1) << (pos & np.uint64(63))
        got = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        return ((got & want) == want).all(axis=1)

    def __contains__(self, key: str) -> bool:
        pos = self._positions(key)
        want = np.uint64(1) << (pos & np.uint64(63))
        return bool(np.all(self.bits[pos >> np.uint64(6)] & want == want))

    def contains_batch(self, keys) -> np.ndarray:
        """Vectorized membership: bool array, one row per key — replaces
        the per-row ``k in bloom`` probe on the anti-join hot path."""
        keys = list(keys)
        if not keys:
            return np.zeros(0, dtype=bool)
        pos = self._positions_batch(keys)
        want = np.uint64(1) << (pos & np.uint64(63))
        got = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
        return ((got & want) == want).all(axis=1)


def key_texts(col) -> list:
    """The keys a string-keyed filter hashes: string and binary columns
    as they are, any other type cast to its string form."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not (pa.types.is_string(col.type) or pa.types.is_binary(col.type)
            or pa.types.is_large_string(col.type)
            or pa.types.is_large_binary(col.type)):
        col = pc.cast(col, pa.string())
    return col.to_pylist()


def build_bloom(ds, key: str, capacity: int, fp_rate: float = 0.001,
                int_keys: bool = False) -> BloomFilter:
    """Distributed Bloom build: each block folds its keys into a partial
    filter (map side), the driver ORs the fixed-size bit arrays. Driver
    memory is O(filter size), never O(keys) — the scale-safe replacement
    for ``take_all()``-then-``add()`` loops. ``int_keys=True`` hashes
    the raw int64 column with the splitmix64 pair (no per-key
    stringification — probe with ``contains_batch_ints``)."""
    import pyarrow as pa

    proto = BloomFilter(capacity, fp_rate)
    n_bits, n_hashes = proto.n_bits, proto.n_hashes

    def block_bits(batch: pa.Table) -> pa.Table:
        bf = BloomFilter.with_params(n_bits, n_hashes)
        if int_keys:
            bf.update_ints(batch[key].to_numpy(zero_copy_only=False))
        else:
            bf.update(key_texts(batch[key]))
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.large_binary())})

    parts = ds.select_columns([key]).map_batches(
        block_bits, batch_format="pyarrow", zero_copy_batch=True
    )
    for row in parts.iter_rows():
        proto.bits |= np.frombuffer(row["bits"], dtype=np.uint64)
    return proto
