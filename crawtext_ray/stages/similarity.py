"""Similarity search over (``vec_id`` int64, ``embedding`` list<float>)
rows.

One scorer, ``_TopK``, serves every top-k form: the query matrix is
broadcast once, each batch does one matmul against it and keeps each
query's partial top-k, and one key-run reduce on ``query_id`` keeps each
query's best ``k``, ranked by (cosine desc, vec_id asc).

- ``brute_force_topk``: exact float64 cosine — the baseline and verifier.
- ``lsh_bucket_topk``: a query scores only the vectors in its probed
  sign-pattern LSH buckets (``lsh_bucket``, multi-probe).
- ``ivf_topk``: a query scores only its ``nprobe`` nearest k-means
  clusters (``ivf_cluster``).
- ``embedding_dedup``: cosine near-dup inside the LSH buckets: one key-run
  reduce on ``lsh_bucket`` runs a chunked matmul per bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partitioning import key_runs, member_filter, run_ids


def _to_matrix(col, dtype=np.float32) -> np.ndarray:
    """(n, dim) matrix from a list<float> / fixed_size_list<float> column
    without a Python round-trip: reshape the flattened child values when
    every list has the same length (the embedding contract), falling back
    to to_pylist otherwise."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.FixedSizeListArray) and arr.null_count == 0:
        m = arr.flatten().to_numpy(zero_copy_only=False)
        return np.ascontiguousarray(
            m.reshape(len(arr), arr.type.list_size), dtype=dtype
        )
    if isinstance(arr, (pa.ListArray, pa.LargeListArray)) and arr.null_count == 0:
        widths = np.diff(arr.offsets.to_numpy(zero_copy_only=False))
        if len(widths) and (widths == widths[0]).all() and widths[0] > 0:
            # flatten() already respects slicing offsets (returns exactly
            # this array's values, not the whole child buffer)
            m = arr.flatten().to_numpy(zero_copy_only=False)
            return np.ascontiguousarray(
                m.reshape(len(arr), int(widths[0])), dtype=dtype
            )
    return np.asarray(arr.to_pylist(), dtype=dtype)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# The scorer's output; the bucket/probe filters can produce zero-row
# blocks, and np.asarray([]) is 1-D, so those return an empty table
# instead of reaching the matmul.
_SCORES = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                     ("cosine", pa.float64())])


class _TopK:
    """Per-batch partial top-k against the broadcast query matrix. With a
    ``probe_col``, query ``i`` scores only the rows whose probe value is
    in ``probes[i]`` (the others score -2, below any cosine, and are
    dropped). ``dtype`` is the vector side's matmul precision; the query
    side is float64."""

    def __init__(self, queries_ref, k: int, probe_col: str | None, dtype):
        import ray

        q = ray.get(queries_ref)
        self.qids = np.asarray(q["query_id"], dtype=np.int64)
        self.qm = _normalize(np.asarray(q["matrix"], dtype=np.float64))
        self.probes = q.get("probes")
        self.k = k
        self.probe_col = probe_col
        self.dtype = dtype

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SCORES.empty_table()
        ids = np.asarray(batch["vec_id"].to_numpy(), dtype=np.int64)
        m = _normalize(_to_matrix(batch["embedding"], self.dtype))
        sims = self.qm @ m.T  # (nq, nb)
        if self.probe_col is not None:
            # one query row at a time: (nq, nb), never (nq, probes, nb)
            vals = batch[self.probe_col].to_numpy()
            mask = np.stack([np.isin(vals, ps) for ps in self.probes])
            sims = np.where(mask, sims, -2.0)
        k = min(self.k, sims.shape[1])
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        top = np.take_along_axis(sims, idx, axis=1)
        hit = top > -2.0
        qids = np.broadcast_to(self.qids[:, None], idx.shape)
        return pa.table([qids[hit], ids[idx][hit], top[hit]], schema=_SCORES)


def _topk(ds, queries: dict, k: int, probe_col: str | None, dtype):
    """The one top-k plan: ``_TopK`` partials per batch (nq×k rows per
    batch cross the exchange, never the vectors), then one key-run
    reduce on ``query_id`` keeps each query's best ``k`` and ranks them."""
    import ray

    from .fusion import map_stage

    ref = ray.put(queries)
    partials = map_stage(
        ds, lambda: _TopK(ref, k, probe_col, dtype)
    )

    def best_k(t: pa.Table, starts: np.ndarray) -> pa.Table:
        pos = np.arange(t.num_rows) - starts[run_ids(starts, t.num_rows)]
        keep = pos < k
        return t.filter(pa.array(keep)).append_column(
            "rank", pa.array(pos[keep] + 1, pa.int64()))

    return key_runs(partials, "query_id",
                    [("cosine", "descending"), "vec_id"], best_k)


def _probed_topk(ds, queries: dict, probes: list, k: int, probe_col: str,
                 dtype):
    """``_topk`` over only the rows whose ``probe_col`` value some query
    probes; query ``i`` scores only its own ``probes[i]``."""
    wanted = np.unique(np.concatenate(probes))
    filtered = member_filter(ds, probe_col, pa.array(wanted, pa.int64()),
                             keep=True)
    q = {"query_id": queries["query_id"], "matrix": queries["matrix"],
         "probes": probes}
    return _topk(filtered, q, k, probe_col, dtype)


def brute_force_topk(ds, queries: dict, k: int = 10):
    """Exact cosine top-k over (``vec_id``, ``embedding``) rows.
    ``queries`` = {"query_id": [...], "matrix": ndarray (nq, dim)};
    float64 on both sides so it bit-matches a double-precision oracle.
    Output (query_id, vec_id, cosine, rank)."""
    return _topk(ds, queries, k, None, np.float64)


class _LshBucket:
    """Sign-pattern LSH bucket id per vector (stateful: the hyperplane
    matrix is drawn once per actor from a fixed seed)."""

    def __init__(self, dim: int, n_planes: int, seed: int, vec_col: str):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes)).astype(np.float32)
        self.vec_col = vec_col

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        signs = (m @ self.planes) > 0
        return signs @ (1 << np.arange(self.planes.shape[1], dtype=np.int64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("lsh_bucket", pa.array([], pa.int64()))
        m = _to_matrix(batch[self.vec_col])
        buckets = self.bucket_of(m)
        return batch.append_column("lsh_bucket", pa.array(buckets, pa.int64()))


def add_lsh_bucket(ds, dim: int, n_planes: int):
    """Append each ``embedding``'s ``lsh_bucket`` (planes from seed 11)."""
    from .fusion import map_stage

    return map_stage(ds, lambda: _LshBucket(dim, n_planes, 11, "embedding"))


def _probe_buckets(bucket: int, n_planes: int, multiprobe: int) -> list[int]:
    """Multi-probe LSH (public knowledge: Lv et al. 2007): the query
    probes its own bucket plus every bucket within Hamming distance
    ``multiprobe`` of its sign pattern — near neighbors that disagree
    with the query on a plane or two land there."""
    from itertools import combinations

    out = [bucket]
    for r in range(1, multiprobe + 1):
        for bits in combinations(range(n_planes), r):
            m = 0
            for b in bits:
                m |= 1 << b
            out.append(bucket ^ m)
    return out


def lsh_bucket_topk(ds, queries: dict, dim: int, k: int = 10,
                    multiprobe: int = 0):
    """Approximate top-k over (``vec_id``, ``embedding``) rows: only
    vectors whose LSH bucket (8 sign planes, seed 11) matches one of the
    query's probed buckets are scored (float32 vector side). Recall
    trades off with the plane count and back up with ``multiprobe``
    (Hamming radius of probed buckets: 0 = the classic single-bucket
    probe; 2 scores 37/256 bucket patterns — still a ~7x corpus prune,
    but neighbors that flip a sign or two are found). At scale the bucket
    column doubles as the partition key so each query touches its probed
    partitions instead of the full corpus."""
    bucketed = add_lsh_bucket(ds, dim, 8)
    hasher = _LshBucket(dim, 8, 11, "embedding")
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float32))
    probes = [np.asarray(_probe_buckets(int(b), 8, multiprobe),
                         dtype=np.int64) for b in hasher.bucket_of(qm)]
    return _probed_topk(bucketed, queries, probes, k, "lsh_bucket",
                        np.float32)


# embedding_dedup's within-bucket matmul chunk (rows per matmul)
CHUNK_ROWS = 1024


def embedding_dedup(ds, dim: int, threshold: float = 0.97,
                    canonical: bool = False):
    """Embedding-cosine near-dup over (``vec_id``, ``embedding``) rows:
    LSH-bucket vectors, then inside each bucket link each id to the
    smallest similar-enough smaller id.

    ``canonical=False`` (default) returns the raw PER-PAIR links
    (vec_id → smallest similar smaller id in its bucket, with the
    cosine): on a chain a≈b, b≈c with a̸≈c, c links to b, not a. Pass
    ``canonical=True`` to pipe the pairs through
    ``dedup.connected_components`` — every non-representative id then
    maps to the min id of its transitive cluster (columns (vec_id,
    rep_id), no cosine: a transitive rep has no single pair score).

    Scale handling (the O(b²) bucket matmul is the hazard):
    - the plane count (seed 11) derives from the corpus size —
      2^n_planes buckets sized for ~8,192 EXPECTED vectors each, so
      bucket count grows with the corpus instead of being a fixed
      partition count.
    - one key-run reduce on ``lsh_bucket`` sorted by id hands each
      bucket's rows over as one run; inside a bucket the pairwise scores
      are computed in row chunks of ``CHUNK_ROWS`` against the bucket
      matrix: memory is O(chunk × bucket) even when a clone-heavy bucket
      is huge (near-dup clusters all land in ONE bucket by design, so
      bucket size cannot be bounded by hashing alone); compute stays
      O(b²) but each chunk is one vectorized matmul + masked argmin, no
      per-row Python."""
    n = ds.count()
    n_planes = int(np.clip(np.ceil(np.log2(max(1, n) / 8192)) + 2, 4, 30))
    bucketed = add_lsh_bucket(ds, dim, n_planes)
    none = np.iinfo(np.int64).max
    chunk_rows = CHUNK_ROWS  # read on the driver; the closure ships it

    def bucket_pairs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        all_ids = np.asarray(t["vec_id"].to_numpy(), dtype=np.int64)
        vecs = _to_matrix(t["embedding"])
        bounds = np.append(starts, t.num_rows)
        links = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            if b1 - b0 < 2:
                continue
            ids = all_ids[b0:b1]
            m = _normalize(vecs[b0:b1])
            for s in range(0, len(ids), chunk_rows):
                e = min(s + chunk_rows, len(ids))
                sims = m[s:e] @ m.T  # (chunk, bucket)
                # candidates: similar enough AND strictly smaller id
                mask = (sims >= threshold) & (ids[None, :] < ids[s:e, None])
                masked_ids = np.where(mask, ids[None, :], none)
                rep = masked_ids.min(axis=1)
                pos = masked_ids.argmin(axis=1)  # first occurrence == the rep
                rows = np.flatnonzero(rep < none)
                links.append((ids[s:e][rows], rep[rows], sims[rows, pos[rows]]))
        link, rep, cos = (np.concatenate(c) for c in zip(*links))
        return pa.table({"vec_id": link, "rep_id": rep,
                         "cosine": cos.astype(np.float64)})

    pairs = key_runs(bucketed, "lsh_bucket", ["vec_id"], bucket_pairs)
    if not canonical:
        return pairs
    from .dedup import connected_components

    comp = connected_components(pairs, id_col="vec_id")

    def to_rep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # drop the representatives themselves (cluster_id == id): the
        # output lists only the rows a dedup pass would remove
        keep = t.filter(pc.not_equal(t["vec_id"], t["cluster_id"]))
        return pa.table({"vec_id": keep["vec_id"],
                         "rep_id": keep["cluster_id"]})

    return comp.map_batches(to_rep, batch_format="pyarrow",
                            zero_copy_batch=True)


# ------------------------------------------------------------- IVF ----


def train_ivf_centroids(sample: np.ndarray, n_clusters: int = 16) -> np.ndarray:
    """Deterministic mini k-means (numpy, seed 13, 8 iterations) over a
    driver-side sample — the IVF coarse quantizer. At 100 TB the sample
    is a ``ds.random_sample`` pulled once; training is O(sample), not
    corpus."""
    rng = np.random.default_rng(13)
    m = _normalize(sample.astype(np.float64))
    idx = rng.choice(len(m), size=min(n_clusters, len(m)), replace=False)
    cents = m[np.sort(idx)].copy()
    for _ in range(8):
        assign = np.argmax(m @ cents.T, axis=1)
        for c in range(len(cents)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def add_ivf_cluster(ds, centroids: np.ndarray):
    """Assign each ``embedding`` to its nearest centroid (one matmul per
    batch against the broadcast centroid matrix)."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    class Assign:
        def __init__(self):
            self.cents = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch.append_column("ivf_cluster", pa.array([], pa.int64()))
            m = _normalize(_to_matrix(batch["embedding"], np.float64))
            assign = np.argmax(m @ self.cents.T, axis=1)
            return batch.append_column(
                "ivf_cluster", pa.array(assign.astype(np.int64), pa.int64())
            )

    from .fusion import map_stage

    return map_stage(ds, Assign)


def ivf_topk(ds, queries: dict, centroids: np.ndarray, k: int = 10,
             nprobe: int = 4):
    """IVF approximate top-k over (``vec_id``, ``embedding``) rows: score
    only vectors whose cluster is among each query's ``nprobe`` nearest
    centroids. The cluster column doubles
    as the partition key at scale (one partition per cluster → a query
    touches nprobe partitions, not the corpus)."""
    cents = np.asarray(centroids, dtype=np.float64)
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float64))
    probes = list(np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe])
    clustered = add_ivf_cluster(ds, cents)
    return _probed_topk(clustered, queries, probes, k, "ivf_cluster",
                        np.float64)
