"""Deduplication operators.

Crawl-side (SURVEY.md §2.8):
- J2 exact page dedup by key: keep the first row per key (min order
  column, deterministic tie-break) — crawtext: database.py unique-url
  results index analog.

Training-data-side (scale ops beyond the reference):
- exact content dedup (key-run reduce keeping the min id)
- MinHash + LSH near-dup (shingle → minhash → band → bucket groupby)
- SimHash near-dup (64-bit, hamming-banded)
- n-gram Jaccard verification of candidate pairs

Per-batch sketching is vectorized and every shuffle only ever sees
(key, id) rows — never full text — so the exchange volume is O(rows),
not O(bytes). Every per-key reduce (exact content dedup, paragraph
dedup, the LSH bucket pass, per-id min and candidate-pair distinct, the
candidate verifier's two routing passes) is the shared key-run reduce
(``partitioning.key_runs``).

LSH buckets and the verifier's participant filter (one Bloom over both
pair id columns, applied with ``partitioning.member_filter``) have one
form each. The one small side
left is paragraph dedup's loser set: a sorted int64 array broadcast at
or under ``partitioning.BROADCAST_ROWS`` losers, one Bloom above it.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------- J2 ----


def first_by(ds, key: str, order_col: str, tiebreak: str):
    """J2: keep exactly one row per ``key`` — the minimal ``order_col``,
    ties broken by ``tiebreak`` (required, and it must be unique within
    a key so reruns pick the same row; keys must be non-null). Each
    key-run's first row after the key sort (``partitioning.key_runs``)
    — Python calls = sorted blocks, not keys."""
    from .partitioning import key_runs

    return key_runs(ds, key, [order_col, tiebreak],
                    lambda t, starts: t.take(starts))


# ------------------------------------------------- exact content dedup ----


def _sha_column(batch: pa.Table) -> pa.Table:
    hs = [
        hashlib.sha256((t or "").encode("utf-8")).hexdigest()
        for t in batch["text"].to_pylist()
    ]
    return batch.append_column("content_hash", pa.array(hs, pa.string()))


def exact_dedup(ds):
    """Exact content dedup of (``doc_id``, ``text``) rows: content-hash per
    batch (vectorized pass), then ``first_by`` on the hash keeps the
    smallest doc_id per hash — one key-run reduce, so Python calls scale
    with the block count, not the (mostly unique) hash count. Only
    (hash, id) crosses the shuffle."""
    hashed = ds.map_batches(
        _sha_column, batch_format="pyarrow", zero_copy_batch=True,
    ).select_columns(["content_hash", "doc_id"])
    return first_by(hashed, "content_hash", "doc_id",
                    "doc_id").select_columns(["doc_id"])


# ----------------------------------------------------- minhash + LSH ----

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# token -> stable 64-bit hash, cached per process (vocab is tiny relative
# to corpus; turns per-shingle md5 into one md5 per unique token)
_TOKEN_HASH_CACHE: dict[str, int] = {}
_SHINGLE_BASE = np.uint64(1_000_003)


_TOKEN_HASH_CACHE_CAP = 4_000_000  # ~0.5 GB worst case per worker


def _token_hash(tok: str) -> int:
    h = _TOKEN_HASH_CACHE.get(tok)
    if h is None:
        # bound the per-worker cache: corpus vocabulary grows with corpus
        # size, and an uncapped dict would bloat long-lived workers at
        # 10^12-doc scale; the hash is pure, so a reset only costs
        # recomputation (zipfian vocab keeps the hit rate high anyway)
        if len(_TOKEN_HASH_CACHE) >= _TOKEN_HASH_CACHE_CAP:
            _TOKEN_HASH_CACHE.clear()
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
        _TOKEN_HASH_CACHE[tok] = h
    return h


def _shingle_array(text: str, k: int) -> np.ndarray:
    """Deterministic uint64 k-gram shingle hashes, vectorized: cached
    per-token hashes combined with a polynomial rolling scheme (uint64
    wraparound). Replaces per-shingle md5 (measured ~10x faster)."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64, count=len(toks))
    if len(toks) < k:
        acc = np.uint64(0)
        with np.errstate(over="ignore"):
            for v in th:
                acc = acc * _SHINGLE_BASE + v
        return np.array([acc], dtype=np.uint64)
    n = len(toks) - k + 1
    acc = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc = acc * _SHINGLE_BASE + th[j : j + n]
    return np.unique(acc)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: avalanches a uint64 array in place of a
    cryptographic digest (the band key only needs collision resistance
    at ~2^-64, not preimage resistance)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


class _MinHashBands:
    """Batch-vectorized minhash banding: one (permutations × shingles)
    product per shingle-chunk with per-doc mins via minimum.reduceat,
    then integer band keys via a polynomial fold + splitmix64 — no
    per-doc permutation matmul, no per-band md5 (measured ~10x on the
    sf0.1 documents table vs the per-doc loop)."""

    # cap the transient (num_perm × shingles) product at ~64 MB for 128
    # permutations; docs beyond the cap are processed alone
    CHUNK_SHINGLES = 1 << 16

    MERSENNE = (1 << 61) - 1

    def __init__(self, num_perm: int, bands: int, shingle_k: int,
                 text_col: str, id_col: str):
        assert num_perm % bands == 0
        # (a*x + b) with uint64 wraparound: a universal-enough permutation
        # family, drawn from a fixed seed (deterministic across the fleet)
        rng = np.random.default_rng(7)
        self.a = rng.integers(1, self.MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, self.MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.text_col = text_col
        self.id_col = id_col

    def _signatures(self, texts: list) -> np.ndarray:
        n = len(texts)
        sigs = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                       dtype=np.uint64)
        arrs = [_shingle_array(t or "", self.k) for t in texts]
        i = 0
        while i < n:
            j, tot = i, 0
            while j < n and (j == i or tot + arrs[j].size <= self.CHUNK_SHINGLES):
                tot += arrs[j].size
                j += 1
            chunk = [a for a in arrs[i:j] if a.size]
            if chunk:
                idx = [p for p in range(i, j) if arrs[p].size]
                vals = np.concatenate(chunk)
                counts = np.array([a.size for a in chunk], dtype=np.int64)
                offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
                # composed in a preallocated buffer: the broadcast
                # expression form allocates two (num_perm, chunk) uint64
                # temporaries (~34 MB each at the chunk cap) per chunk —
                # measured 5x slower and pure memory-bandwidth waste,
                # which is the binding resource at full-node concurrency
                prod = np.empty((self.num_perm, vals.size), np.uint64)
                with np.errstate(over="ignore"):
                    np.multiply(vals[None, :], self.a[:, None], out=prod)
                    np.add(prod, self.b[:, None], out=prod)
                sigs[idx] = np.minimum.reduceat(prod, offs, axis=1).T
            i = j
        return sigs

    def band_keys(self, texts: list) -> np.ndarray:
        """(n_docs, bands) int64 band keys; the band index is folded into
        the key so buckets never merge across bands."""
        n = len(texts)
        sigs = self._signatures(texts)
        seg = sigs.reshape(n, self.bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            key = np.arange(self.bands, dtype=np.uint64) * np.uint64(
                0x9E3779B97F4A7C15
            )
            key = np.broadcast_to(key, (n, self.bands)).copy()
            for r in range(self.rows_per_band):
                key = key * np.uint64(0x100000001B3) + seg[:, :, r]
        return _mix64(key).view(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One row per DOC: (id, band_keys fixed_size_list<int64, bands>).
        The list layout keeps each doc's buckets in one row, so the
        pair-emission pass is exact without any per-id re-aggregation."""
        n = batch.num_rows
        id_arr = batch[self.id_col].combine_chunks()
        if n == 0:
            return pa.table({
                self.id_col: id_arr,
                "band_keys": pa.array(
                    [], pa.list_(pa.int64(), self.bands)
                ),
            })
        key = self.band_keys(batch[self.text_col].to_pylist())
        return pa.table(
            {
                self.id_col: id_arr,
                "band_keys": pa.FixedSizeListArray.from_arrays(
                    pa.array(key.reshape(-1), pa.int64()), self.bands
                ),
            }
        )


def minhash_lsh_duplicates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    *,
    shingle_k: int,
):
    """MinHash+LSH near-dup. Returns one (id, rep_id) row per candidate
    near-duplicate, rep_id = the min id sharing any LSH band bucket.

    Shape: one vectorized signature pass emits (id, band_keys
    list<int64>) — one row per DOC — and ``banded_lsh_pairs`` links each
    doc to its buckets' min id through one key-run reduce over buckets
    and one over ids: no broadcast, no driver state, and the plan runs
    nothing until it is consumed."""
    from .fusion import map_stage

    banded = map_stage(
        ds,
        lambda: _MinHashBands(num_perm=num_perm, bands=bands,
                              shingle_k=shingle_k, text_col=text_col,
                              id_col=id_col),
    )
    return banded_lsh_pairs(banded, bands, id_col)


def _bucket_runs(banded, bands: int, id_col: str, fn):
    """Explode (id, band_keys fixed_size_list<int64, bands>) rows to one
    (id, bk) row per doc and band, then reduce per bucket with
    ``partitioning.key_runs``: ``fn(table, starts)`` sees each bucket as
    one run of rows sorted by id. The one bucket pass of both LSH
    forms."""
    from .partitioning import key_runs

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat = t["band_keys"].combine_chunks().flatten()
        ids = t[id_col].combine_chunks().take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        )
        return pa.table({id_col: ids, "bk": flat})

    exploded = banded.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    return key_runs(exploded, "bk", [id_col], fn)


def banded_lsh_pairs(banded, bands: int, id_col: str):
    """The LSH LINKING form over (id, band_keys fixed_size_list<int64,
    bands>) rows — shared by the minhash and simhash paths. Per bucket
    run (sorted by id, so its first id is its min), every other member
    emits (id, run min); ``first_by`` on id then keeps each id's min rep
    across bands — two key-run reduces. Returns (id, rep_id) rows."""
    from .partitioning import run_ids

    def run_pairs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ids = t[id_col]
        rep = ids.take(pa.array(starts[run_ids(starts, t.num_rows)]))
        mask = pa.compute.not_equal(ids, rep)
        return pa.table({id_col: ids.filter(mask),
                         "rep_id": rep.filter(mask)})

    pairs = _bucket_runs(banded, bands, id_col, run_pairs)
    return first_by(pairs, id_col, "rep_id", "rep_id")


def banded_lsh_candidate_pairs(banded, bands: int, id_col: str):
    """ALL distinct candidate pairs (a < b) sharing at least one LSH band
    bucket, as (``{id}_a``, ``{id}_b``) rows. Complements
    ``banded_lsh_pairs`` (the min-rep LINKING form used by dedup drops):
    pair enumeration is what exact verification consumes, where every
    candidate pair must be scored individually. Runs on the same bucket
    pass; O(bucket²) per duplicate bucket, and single-member buckets
    emit nothing — post-LSH dup buckets are the same cardinality class
    as the output itself."""
    from .partitioning import key_runs, run_starts

    a_col, b_col = f"{id_col}_a", f"{id_col}_b"

    def pairs_of(t: pa.Table, _starts: np.ndarray) -> pa.Table:
        # distinct (bk, id) rows only, then every id pair of each bk run:
        # ONE triu_indices per distinct run length, broadcast over all
        # runs of that length
        t = t.take(pa.array(run_starts(t["bk"], t[id_col])))
        ids = t[id_col]
        starts = run_starts(t["bk"])
        lens = np.diff(np.append(starts, len(ids)))
        ia_all, ib_all = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for L in np.unique(lens[lens >= 2]):
            ia, ib = np.triu_indices(int(L), k=1)
            s0 = starts[lens == L][:, None]
            ia_all.append((s0 + ia).ravel())
            ib_all.append((s0 + ib).ravel())
        return pa.table({
            a_col: ids.take(pa.array(np.concatenate(ia_all))),
            b_col: ids.take(pa.array(np.concatenate(ib_all))),
        })

    pairs = _bucket_runs(banded, bands, id_col, pairs_of)
    # a pair can collide in several bands/buckets: one row per (a, b) run
    return key_runs(pairs, a_col, [b_col], lambda t, _starts: t.take(
        pa.array(run_starts(t[a_col], t[b_col]))))


def minhash_verified_duplicates(ds):
    """MinHash-LSH candidate pairs of (``doc_id``, ``text``) rows verified
    by EXACT 3-gram Jaccard — deterministic output (doc_id_a < doc_id_b,
    jaccard ≥ 0.5), SQL-oracle-checkable against the brute cross join
    whenever LSH recall is total (pairs far above the threshold, the
    planted-dup regime; 128 permutations in 32 bands pick the recall).
    The scale shape: vectorized signatures → one key-run bucket pass
    enumerating pairs → routed exact verification (no broadcast of
    texts)."""
    from .fusion import map_stage

    banded = map_stage(
        ds,
        lambda: _MinHashBands(num_perm=128, bands=32, shingle_k=3,
                              text_col="text", id_col="doc_id"),
    )
    cands = banded_lsh_candidate_pairs(banded, 32, "doc_id")
    return _verify_candidates(cands, ds, "text", "doc_id", 3, 0.5)


def _verify_candidates(cands, ds_docs, text_col: str, id_col: str,
                       k: int, threshold: float):
    """(a, b) candidate pairs → exact-Jaccard-verified
    (``{id}_a``, ``{id}_b``, jaccard) rows via the routed verifier."""
    import ray.data as rd

    a_col, b_col = f"{id_col}_a", f"{id_col}_b"
    oriented = cands.map_batches(
        lambda t: pa.table({id_col: t[b_col], "rep_id": t[a_col]}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    if oriented.count() == 0:
        # a typed empty result (a schemaless empty Dataset would
        # to_pandas() into a column-less frame downstream); the id type
        # comes from the corpus, so string doc ids survive (int64 for a
        # corpus without a schema)
        schema = ds_docs.schema()
        id_type = (schema.base_schema.field(id_col).type if schema
                   else pa.int64())
        return rd.from_arrow(pa.table({
            a_col: pa.array([], id_type), b_col: pa.array([], id_type),
            "jaccard": pa.array([], pa.float64())}))
    return verify_pairs_jaccard_distributed(
        oriented, ds_docs, text_col=text_col, id_col=id_col, k=k,
        threshold=threshold,
    ).map_batches(
        lambda t: pa.table({a_col: t["rep_id"], b_col: t[id_col],
                            "jaccard": t["jaccard"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ------------------------------------------------------------ simhash ----


class _SimHash:
    def __init__(self, text_col: str, id_col: str):
        self.text_col = text_col
        self.id_col = id_col

    # cap the transient (tokens × 64) bit matrix at ~32 MB
    CHUNK_TOKENS = 1 << 17

    def _batch_simhash(self, texts: list) -> np.ndarray:
        """Vectorized Charikar simhash for a whole batch: one
        concatenated (tokens × 64) bit matrix per chunk, per-doc bit
        sums via add.reduceat."""
        n = len(texts)
        out = np.zeros(n, dtype=np.uint64)
        shifts = np.arange(64, dtype=np.uint64)
        tok_arrays = []
        for t in texts:
            toks = _TOKEN_RE.findall((t or "").lower())
            tok_arrays.append(
                np.fromiter((_token_hash(x) for x in toks), dtype=np.uint64,
                            count=len(toks))
            )
        i = 0
        while i < n:
            j, tot = i, 0
            while j < n and (j == i or tot + tok_arrays[j].size <= self.CHUNK_TOKENS):
                tot += tok_arrays[j].size
                j += 1
            chunk = [a for a in tok_arrays[i:j] if a.size]
            if chunk:
                idx = [p for p in range(i, j) if tok_arrays[p].size]
                th = np.concatenate(chunk)
                counts = np.array([a.size for a in chunk], dtype=np.int64)
                offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
                # composed in one preallocated (tokens, 64) buffer — the
                # expression form allocated three ~67 MB temporaries per
                # chunk; the int64 cast moves to the small (docs, 64)
                # post-reduceat array (0/1 sums fit uint64 exactly)
                bits = np.empty((th.size, 64), np.uint64)
                np.right_shift(th[:, None], shifts[None, :], out=bits)
                np.bitwise_and(bits, np.uint64(1), out=bits)
                cnt = np.add.reduceat(bits, offs, axis=0).astype(np.int64)
                v = 2 * cnt - counts[:, None]  # sum of (2b-1) per bit
                packed = np.bitwise_or.reduce(
                    (v > 0).astype(np.uint64) << shifts[None, :], axis=1
                )
                out[idx] = packed
            i = j
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = self._batch_simhash(batch[self.text_col].to_pylist())
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array(hs, pa.uint64()),
            }
        )


def simhash_signatures(ds):
    """SimHash fingerprints (``doc_id``, ``simhash``) of ``text`` (near-dup
    by small hamming distance). Banded grouping on 16-bit quarters finds
    candidates whose distance is concentrated in the other bands."""
    from .fusion import map_stage

    return map_stage(ds, lambda: _SimHash("text", "doc_id"))


def _simhash_banded(ds):
    """(``doc_id``, band_keys fixed_size_list<int64, 4>) from 16-bit
    simhash quarters (classic Charikar banding); the band index is folded
    into the bucket key as the top bits, so buckets never merge across
    bands. Shared by the linking and the pair-enumeration forms."""
    sigs = simhash_signatures(ds)

    def to_band_keys(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h = np.asarray(batch["simhash"].to_pylist(), dtype=np.uint64)
        keys = np.empty((n, 4), dtype=np.int64) if n else np.empty(
            (0, 4), dtype=np.int64
        )
        for b in range(4):
            quarter = (h >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            keys[:, b] = (quarter | np.uint64(b) << np.uint64(16)).view(
                np.int64
            )
        return pa.table({
            "doc_id": batch["doc_id"],
            "band_keys": pa.FixedSizeListArray.from_arrays(
                pa.array(keys.reshape(-1), pa.int64()), 4
            ),
        })

    return sigs.map_batches(
        to_band_keys, batch_format="pyarrow", zero_copy_batch=True
    )


def simhash_duplicates(ds):
    """Near-dup candidates: docs sharing any of the four 16-bit simhash
    bands of their ``text`` → (``doc_id``, rep_id) pairs, via the shared
    banded-LSH machinery."""
    return banded_lsh_pairs(_simhash_banded(ds), 4, "doc_id")


def simhash_verified_duplicates(ds):
    """SimHash band candidates verified by EXACT 3-gram Jaccard
    (jaccard ≥ 0.8) — the simhash counterpart of
    ``minhash_verified_duplicates`` (same deterministic, oracle-checkable
    output contract over (``doc_id``, ``text``) rows)."""
    cands = banded_lsh_candidate_pairs(_simhash_banded(ds), 4, "doc_id")
    return _verify_candidates(cands, ds, "text", "doc_id", 3, 0.8)


# -------------------------------------------- n-gram jaccard verify ----


def _jaccard(sa: set, sb: set) -> float:
    """Exact set Jaccard: 1.0 when both sets are empty, so 0.0 when only
    one is — the one scoring rule of the brute finder and the verifier."""
    union = len(sa | sb)
    return len(sa & sb) / union if union else 1.0


def jaccard_dups_brute(ds):
    """Exact O(n²) 3-gram-Jaccard pair finder over (``doc_id``, ``text``)
    rows — the BRUTE-FORCE VERIFIER
    for the LSH paths (and the SQL-oracle-checkable near-dup query: a
    DuckDB cross join over string shingles computes the identical
    jaccard, since both sides divide the same set-size integers).

    Emits (doc_id_a, doc_id_b, jaccard) for doc_id_a < doc_id_b with
    jaccard ≥ 0.5.
    The shingle-set table is collected once on the driver and broadcast
    (O(corpus shingles) driver memory) while the n² pair loop runs
    distributed over id partitions — deliberately a small-corpus
    diagnostic; at scale you run the LSH paths and verify candidates with
    ``verify_pairs_jaccard_distributed``. Measured boundary: sub-second
    at 500 docs, >15 min at 5,000 (both the Ray loop and the SQL cross
    join are O(n²·|shingles|)) — keep it at oracle scale (sf0.01)."""
    import ray
    import ray.data as rd

    shingled = ds.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "sh": pa.array(
                [_shingle_array(x or "", 3) for x in t["text"].to_pylist()]
            ),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    ids, sets = [], []
    for b in shingled.iter_batches(batch_format="pyarrow"):
        ids.extend(b["doc_id"].to_pylist())
        col = b["sh"].combine_chunks()
        # .values (not flatten): offsets index the raw child array, and
        # these lists are never null so the pairing is exact
        vals = col.values.to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        sets.extend(
            frozenset(vals[offs[i]:offs[i + 1]].tolist())
            for i in range(len(col))
        )
    order = np.argsort(np.asarray(ids))
    ids = [ids[i] for i in order]
    sets = [sets[i] for i in order]
    ref = ray.put((ids, sets))

    class PairRows:
        def __init__(self):
            self.ids, self.sets = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            out_a, out_b, out_j = [], [], []
            for a_pos in t["pos"].to_pylist():
                sa = self.sets[a_pos]
                for b_pos in range(a_pos + 1, len(self.ids)):
                    j = _jaccard(sa, self.sets[b_pos])
                    if j >= 0.5:
                        out_a.append(self.ids[a_pos])
                        out_b.append(self.ids[b_pos])
                        out_j.append(j)
            return pa.table({
                "doc_id_a": pa.array(out_a, pa.int64()),
                "doc_id_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            })

    positions = rd.range(len(ids)).map_batches(
        lambda t: pa.table({"pos": t["id"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    from .fusion import map_stage

    return map_stage(positions, PairRows)


def _pair_participants(ds_docs, ds_pairs, id_col: str):
    """The rows of ``ds_docs`` whose ``id_col`` is a pair's ``id_col`` or
    ``rep_id``: one Bloom over both id columns, applied with
    ``partitioning.member_filter(keep=True)``. No false negatives, so
    every participant survives; a false positive only keeps a doc row
    that no pair row joins."""
    from ..state.bloom import build_bloom
    from .partitioning import member_filter

    def both_ids(t: pa.Table) -> pa.Table:
        return pa.table({"id": pa.concat_arrays([
            t[id_col].combine_chunks(),
            t["rep_id"].combine_chunks().cast(t.schema.field(id_col).type)])})

    ids = ds_pairs.map_batches(both_ids, batch_format="pyarrow")
    bloom = build_bloom(ids, "id", capacity=max(1, 2 * ds_pairs.count()),
                        fp_rate=1e-4)
    return member_filter(ds_docs, id_col, bloom, keep=True)


def verify_pairs_jaccard_distributed(ds_pairs, ds_docs, text_col: str = "text",
                                     id_col: str = "doc_id", *, k: int,
                                     threshold: float):
    """Broadcast-free candidate verification: shingles are ROUTED to their
    pairs through two key-run reduces (``partitioning.key_runs``) instead
    of shipping an {id: text} dict to every worker.

    The corpus is candidate-bounded FIRST: only pair participants are
    ever scored, so ``ds_docs`` is filtered down to the ids of either
    pair column (``_pair_participants``) and shingled once before both
    reduces — they carry O(candidate shingles), not O(corpus shingles)
    (post-LSH candidates are a small constant fraction of the corpus).

    Both reduces run over one row shape, (key, other, kind int8, sh
    list<uint64>): a doc row (kind 0, its id and shingles) and pair rows
    (kind 1), sorted by kind so a run's doc row comes first. Reduce 1,
    keyed on the left id, gives each pair row its run's doc shingles and
    re-keys it on rep_id; reduce 2 scores each pair row's shingles
    against its run's doc. A missing doc is an empty shingle set. Nothing
    driver- or worker-resident beyond the participant Bloom."""
    import pyarrow.compute as pc

    from .partitioning import key_runs, run_ids

    sh_type = pa.list_(pa.uint64())

    def doc_rows(t: pa.Table) -> pa.Table:
        sh = [_shingle_array(x or "", k) for x in t[text_col].to_pylist()]
        return pa.table({
            "key": t[id_col],
            "other": pa.nulls(t.num_rows, t.schema.field(id_col).type),
            "kind": pa.array(np.zeros(t.num_rows, np.int8)),
            "sh": pa.array(sh, sh_type),
        })

    def pair_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t[id_col], "other": t["rep_id"],
            "kind": pa.array(np.ones(t.num_rows, np.int8)),
            "sh": pa.nulls(t.num_rows, sh_type),
        })

    def run_doc(t: pa.Table, starts: np.ndarray):
        # the pair rows and, per pair row, its run's doc shingles (null
        # when the run has no doc row)
        kind = t["kind"].to_numpy()
        pair = np.flatnonzero(kind == 1)
        lead = starts[run_ids(starts, t.num_rows)][pair]
        return t.take(pair), t["sh"].take(pa.array(lead, mask=kind[lead] != 0))

    def attach_left(t: pa.Table, starts: np.ndarray) -> pa.Table:
        pairs, left = run_doc(t, starts)
        return pa.table({"key": pairs["other"], "other": pairs["key"],
                         "kind": pairs["kind"], "sh": left})

    def score(t: pa.Table, starts: np.ndarray) -> pa.Table:
        pairs, right = run_doc(t, starts)
        j = pa.array([_jaccard(set(a or ()), set(b or ())) for a, b in
                      zip(pairs["sh"].to_pylist(), right.to_pylist())],
                     pa.float64())
        return pa.table({id_col: pairs["other"], "rep_id": pairs["key"],
                         "jaccard": j}).filter(pc.greater_equal(j, threshold))

    def rows(ds, fn):
        return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    # shingled once, read by both reduces
    docs = rows(_pair_participants(ds_docs, ds_pairs, id_col),
                doc_rows).materialize()
    routed = key_runs(docs.union(rows(ds_pairs, pair_rows)), "key",
                      ["kind"], attach_left)
    return key_runs(docs.union(routed), "key", ["kind"], score)


# ----------------------------------------------- paragraph-level dedup ----


def _para_hashes(text: str, min_chars: int) -> tuple[list[str], np.ndarray]:
    """(paragraphs, int64 hash per paragraph with 0 for ineligible).
    Paragraphs = text.split("\\n\\n") verbatim (no stripping — the
    reassembled text must be a pure subsequence join); a paragraph is
    dedup-eligible iff len >= min_chars. Hashes are the md5-top-8-bytes
    reinterpreted as SIGNED int64: the int64 ``ph`` column the reduce
    keys on."""
    paras = (text or "").split("\n\n")
    h = np.zeros(len(paras), dtype=np.int64)
    for i, p in enumerate(paras):
        if len(p) >= min_chars:
            h[i] = np.frombuffer(
                hashlib.md5(p.encode()).digest()[:8], dtype=">u8"
            ).view(">i8")[0]
    return paras, h


def _packing_ids(ids) -> "np.ndarray":
    """int64 packing ids for the paragraph-dedup occurrence order: integer
    ids pass through (range-checked); string ids (e.g. article urls)
    take the top 43 bits of md5 — a collision merges two docs' position
    namespaces (worst case: one duplicated paragraph survives twice, a
    global-first occurrence loses to a hash-earlier doc, or a paragraph
    shares its index with the other doc's lost one and is dropped too),
    at ~n²/2^43 probability; the dedup stays deterministic either way."""
    arr = np.asarray(ids)
    if np.issubdtype(arr.dtype, np.integer):
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << 43)):
            raise ValueError("integer ids out of packing range [0, 2^43)")
        return arr.astype(np.int64)
    from .partitioning import md5_prefix_array

    return (md5_prefix_array([str(i) for i in ids], 8)
            >> np.uint64(21)).astype(np.int64)


def dedup_paragraphs(ds, text_col: str = "text", id_col: str = "doc_id", *,
                     min_chars: int, output: str = "ids"):
    """Corpus-wide PARAGRAPH-level exact dedup (the C4/Dolma-style line
    dedup generalized to paragraphs): every paragraph keeps exactly its
    FIRST occurrence — ordered by (doc id, paragraph index) — and every
    later copy anywhere in the corpus is removed from its document.
    Kills cross-page boilerplate (nav/footer/legal text) that survives
    per-document gates. Output: one row per input doc,
    (id, clean_text) with surviving paragraphs re-joined by "\\n\\n"
    (docs may come back empty — dropping them is the length gate's job).

    Scale shape (the exact-dedup house pattern): texts never shuffle —
    map pass A emits only (hash, packed) pairs, ONE key-run reduce
    (``partitioning.key_runs`` sorted by (hash, packed)) emits the LOSER
    positions — every packed position of a run of length >= 2 but the
    run's first (the lexicographic-first occurrence wins) — and map pass
    B rebuilds documents streaming, dropping each paragraph whose own
    position is a loser. At or under ``partitioning.BROADCAST_ROWS``
    losers they ship as one sorted int64 array that each doc's positions
    are searched in (exact); ABOVE it, one distributed Bloom filter of
    the losers replaces the array (the Dolma-style tradeoff), so
    driver/worker memory stays O(filter bits) at any corpus size. A
    Bloom false positive (rate 1e-6) drops a paragraph that should stay;
    exactness below the threshold is unchanged. An equivalence test forces the threshold to 0 and checks
    bloom == exact.

    Packing: winner order = packing_id * 2^20 + idx — integer ids must
    be < 2^43, string ids are hashed (see ``_packing_ids``), and docs
    must have < 2^20 paragraphs (asserted).

    ``output="ids"``: (id, clean_text) rows. ``output="replace"``: the
    INPUT rows with ``text_col`` replaced in place (all other columns
    preserved) — the curation-chain form."""
    import ray

    from ..state.bloom import build_bloom
    from . import partitioning

    def emit_pairs(batch: pa.Table) -> pa.Table:
        dids = _packing_ids(batch[id_col].to_pylist())
        out_h, out_p = [], []
        for did, t in zip(dids.tolist(), batch[text_col].to_pylist()):
            _, h = _para_hashes(t, min_chars)
            if len(h) >= (1 << 20):
                raise ValueError(f"{id_col}={did}: too many paragraphs")
            elig = np.flatnonzero(h)
            out_h.extend(h[elig].tolist())
            out_p.extend(((did << 20) + elig).tolist())
        return pa.table({
            "ph": pa.array(out_h, pa.int64()),
            "packed": pa.array(out_p, pa.int64()),
        })

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        emit_pairs, batch_format="pyarrow", zero_copy_batch=True
    )

    def losers_of(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # every row of a run but its first holds a later occurrence; a
        # row whose packed equals its run's first is the same position
        # (a packing-id collision) and keeps, as the winner does
        packed = t["packed"].to_numpy()
        loses = packed != packed[starts][partitioning.run_ids(
            starts, t.num_rows)]
        return pa.table({"packed": pa.array(packed[loses], pa.int64())})

    # materialize BEFORE counting: the dataset is lazy, and count() +
    # iter_batches would otherwise run the corpus-wide md5 pass and the
    # reduce twice; the materialized set is O(duplicated paragraphs)
    losers = partitioning.key_runs(pairs, "ph", ["packed"],
                                   losers_of).materialize()
    n_losers = losers.count()
    if n_losers > partitioning.BROADCAST_ROWS:
        lost_ref = ray.put(build_bloom(losers, "packed", capacity=n_losers,
                                       fp_rate=1e-6))
    else:
        lost_ref = ray.put(np.sort(np.concatenate(
            [b["packed"] for b in
             losers.iter_batches(batch_format="numpy")]
            + [np.empty(0, np.int64)])))

    from .fusion import map_stage

    def factory():
        lost = ray.get(lost_ref)

        def keep_mask(did: int, h: np.ndarray) -> np.ndarray:
            elig = np.flatnonzero(h)
            own = (np.int64(did) << np.int64(20)) + elig.astype(np.int64)
            if isinstance(lost, np.ndarray):
                at = np.searchsorted(lost, own)
                hit = at < len(lost)
                hit[hit] = lost[at[hit]] == own[hit]
            else:
                hit = lost.contains(pa.array(own))
            mask = np.ones(len(h), dtype=bool)
            mask[elig[hit]] = False
            return mask

        def rebuild(batch: pa.Table) -> pa.Table:
            dids = _packing_ids(batch[id_col].to_pylist())
            texts = []
            for did, t in zip(dids.tolist(), batch[text_col].to_pylist()):
                paras, h = _para_hashes(t, min_chars)
                mask = keep_mask(did, h)
                texts.append(
                    "\n\n".join(p for p, k in zip(paras, mask) if k)
                )
            if output == "replace":
                arr = pa.array(
                    texts,
                    batch.schema.field(text_col).type,
                )
                return batch.set_column(
                    batch.schema.get_field_index(text_col), text_col, arr
                )
            return pa.table({
                id_col: batch[id_col],
                "clean_text": pa.array(texts, pa.string()),
            })

        return rebuild

    src = ds if output == "replace" else ds.select_columns([id_col, text_col])
    return map_stage(src, factory)
