"""HyperLogLog: a mergeable distinct-count sketch for 100 TB-scale
cardinality estimation (the approximate companion to COUNT(DISTINCT)).

Classic Flajolet–Durand HLL with the standard bias corrections:
2^p registers, each holding the max leading-zero rank seen for keys
hashing into it. Registers merge with an elementwise max, so the
distributed build is map-side partial sketches per block ORed (maxed) on
the driver — O(registers) driver memory, never O(keys) — exactly the
Bloom-filter build shape (state/bloom.py).

Deterministic: the hash is md5-based, so the estimate is a pure function
of the input SET (tested), making regressions detectable even though the
value is approximate.
"""

from __future__ import annotations

import hashlib

import numpy as np


class HyperLogLog:
    p = 12  # 2^p registers: ~1.6% standard error
    m = 1 << p

    def __init__(self):
        self.registers = np.zeros(self.m, dtype=np.uint8)

    @staticmethod
    def _hash64(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, key) -> None:
        h = self._hash64(str(key))
        idx = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        # rank = leading zeros of the remaining bits + 1
        rank = (64 - self.p) - rest.bit_length() + 1
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def update(self, keys) -> None:
        for k in keys:
            self.add(k)

    def merge(self, other: "HyperLogLog") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(
            np.exp2(-self.registers.astype(np.float64))
        )
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                est = m * np.log(m / zeros)  # linear counting
        return float(est)


def build_hll(ds, key: str) -> HyperLogLog:
    """Distributed HLL build (p = 12): per-block partial sketches,
    register-max merge on the driver (O(2^p) driver memory)."""
    import pyarrow as pa

    def block_regs(batch: pa.Table) -> pa.Table:
        h = HyperLogLog()
        for k in batch[key].to_pylist():
            h.add(k)
        return pa.table(
            {"regs": pa.array([h.registers.tobytes()], pa.large_binary())}
        )

    parts = ds.select_columns([key]).map_batches(
        block_regs, batch_format="pyarrow", zero_copy_batch=True
    )
    out = HyperLogLog()
    for row in parts.iter_rows():
        np.maximum(
            out.registers,
            np.frombuffer(row["regs"], dtype=np.uint8),
            out=out.registers,
        )
    return out
