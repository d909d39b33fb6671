"""Similarity search over an embedding column (``list<float>``).

- ``brute_force_topk``: exact cosine top-k. The query matrix is broadcast
  once (``ray.put``) and every batch does one numpy matmul against it —
  the baseline path and the verifier for the approximate path.
- ``lsh_bucket_topk``: random-hyperplane LSH bucketing as the scale path:
  vectors land in sign-pattern buckets; queries only scan their own
  bucket (plus optional multi-probe neighbors).
- ``embedding_dedup``: embedding-cosine near-dup via the same LSH buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .partitioning import member_filter


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


# Empty (query_id, vec_id, cosine) result — the bucket/probe filters can
# produce zero-row blocks, and np.asarray([]) is 1-D, so every scoring
# callable early-returns this instead of reaching the matmul.
def _empty_scores() -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )


class _BruteTopK:
    """Per-batch partial top-k against the broadcast query matrix."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        import ray

        q = ray.get(queries_ref)
        self.qids = np.asarray(q["query_id"], dtype=np.int64)
        # float64 so the exact path bit-matches a double-precision oracle
        self.qm = _normalize(np.asarray(q["matrix"], dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_scores()
        ids = np.asarray(batch[self.id_col].to_numpy(), dtype=np.int64)
        m = _normalize(_to_matrix(batch[self.vec_col], np.float64))
        sims = self.qm @ m.T  # (nq, nb)
        k = min(self.k, sims.shape[1])
        out_q, out_id, out_sim = [], [], []
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        for qi in range(sims.shape[0]):
            for j in idx[qi]:
                out_q.append(int(self.qids[qi]))
                out_id.append(int(ids[j]))
                out_sim.append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_sim, pa.float64()),
            }
        )


def brute_force_topk(ds, queries: dict, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k. ``queries`` = {"query_id": [...], "matrix":
    ndarray (nq, dim)}; broadcast once, matmul per batch, then a tiny
    global reduce (partial top-k per batch → groupby query → final
    top-k). Exchange volume: nq×k rows per batch, never the vectors."""
    import ray

    ref = ray.put(queries)
    from .fusion import map_stage

    partials = map_stage(
        ds, lambda: _BruteTopK(ref, k, id_col, vec_col)
    )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True],
                          kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("query_id").map_groups(final_topk, batch_format="pandas")


class _LshBucket:
    """Sign-pattern LSH bucket id per vector (stateful: the hyperplane
    matrix is drawn once per actor from a fixed seed)."""

    def __init__(self, dim: int, n_planes: int, seed: int, id_col: str, vec_col: str):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes)).astype(np.float32)
        self.id_col = id_col
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


def add_lsh_bucket(ds, dim: int, n_planes: int = 8, seed: int = 11,
                   id_col: str = "vec_id", vec_col: str = "embedding"):
    from .fusion import map_stage

    return map_stage(
        ds, lambda: _LshBucket(dim, n_planes, seed, id_col, vec_col)
    )


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
                    n_planes: int = 8, seed: int = 11,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    multiprobe: int = 0):
    """Approximate top-k: only vectors whose LSH bucket matches one of
    the query's probed buckets are scored. Recall trades off with
    n_planes and back up with ``multiprobe`` (Hamming radius of probed
    buckets: 0 = the classic single-bucket probe; 2 at 8 planes scores
    37/256 bucket patterns — still a ~7x corpus prune, but neighbors
    that flip a sign or two are found). At scale the bucket column
    doubles as the partition key so each query touches its probed
    partitions instead of the full corpus."""
    bucketed = add_lsh_bucket(ds, dim, n_planes, seed, id_col, vec_col)
    hasher = _LshBucket(dim, n_planes, seed, id_col, vec_col)
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float32))
    qbuckets = hasher.bucket_of(qm)
    qprobes = [_probe_buckets(int(b), n_planes, multiprobe)
               for b in qbuckets]
    wanted = {b for ps in qprobes for b in ps}

    filtered = member_filter(bucketed, "lsh_bucket",
                             pa.array(sorted(wanted), pa.int64()), keep=True)
    q_by_bucket = {
        "query_id": queries["query_id"],
        "matrix": queries["matrix"],
        "probes": [np.asarray(ps, dtype=np.int64) for ps in qprobes],
    }
    import ray

    ref = ray.put(q_by_bucket)

    class BucketTopK(_BruteTopK):
        def __init__(self):
            super().__init__(ref, k, id_col, vec_col)
            self.qprobes = ray.get(ref)["probes"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _empty_scores()
            ids = np.asarray(batch[id_col].to_numpy(), dtype=np.int64)
            m = _normalize(_to_matrix(batch[vec_col]))
            vb = np.asarray(batch["lsh_bucket"].to_numpy(), dtype=np.int64)
            sims = self.qm @ m.T
            # mask out vectors from buckets no probe of the query hits,
            # one query row at a time: (nq, nb), never (nq, probes, nb)
            mask = np.stack([np.isin(vb, ps) for ps in self.qprobes])
            sims = np.where(mask, sims, -2.0)
            kk = min(k, sims.shape[1])
            out_q, out_id, out_sim = [], [], []
            idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            for qi in range(sims.shape[0]):
                for j in idx[qi]:
                    if sims[qi, j] > -2.0:
                        out_q.append(int(self.qids[qi]))
                        out_id.append(int(ids[j]))
                        out_sim.append(float(sims[qi, j]))
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_id, pa.int64()),
                    "cosine": pa.array(out_sim, pa.float64()),
                }
            )

    from .fusion import map_stage

    partials = map_stage(filtered, BucketTopK)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True],
                          kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def embedding_dedup(ds, dim: int, threshold: float = 0.97,
                    n_planes: int | None = None, target_bucket: int = 8192,
                    seed: int = 11, id_col: str = "vec_id",
                    vec_col: str = "embedding", chunk_rows: int = 1024,
                    canonical: bool = False):
    """Embedding-cosine near-dup: LSH-bucket vectors, then inside each
    bucket link each id to the smallest similar-enough smaller id.

    ``canonical=False`` (default) returns the raw PER-PAIR links
    (id → smallest similar smaller id in its bucket, with the cosine):
    on a chain a≈b, b≈c with a̸≈c, c links to b, not a. Pass
    ``canonical=True`` to pipe the pairs through
    ``dedup.connected_components`` — every non-representative id then
    maps to the min id of its transitive cluster (columns (id, rep_id),
    no cosine: a transitive rep has no single pair score).

    Scale handling (the O(b²) bucket matmul is the hazard):
    - ``n_planes`` derives from the corpus size when not given —
      2^n_planes buckets sized for ~``target_bucket`` EXPECTED vectors
      each, so bucket count grows with the corpus instead of being a
      fixed partition count.
    - inside a bucket the pairwise scores are computed in row chunks of
      ``chunk_rows`` against the bucket matrix: memory is
      O(chunk × bucket) even when a clone-heavy bucket is huge (near-dup
      clusters all land in ONE bucket by design, so bucket size cannot
      be bounded by hashing alone); compute stays O(b²) but each chunk
      is one vectorized matmul + masked argmin, no per-row Python."""
    if n_planes is None:
        n = ds.count()
        n_planes = int(np.clip(np.ceil(np.log2(max(1, n) / target_bucket)) + 2,
                               4, 30))
    bucketed = add_lsh_bucket(ds, dim, n_planes, seed, id_col, vec_col)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: [], "rep_id": [], "cosine": []}).astype(
            {id_col: "int64", "rep_id": "int64", "cosine": "float64"}
        )
        if len(g) < 2:
            return empty
        order = np.argsort(g[id_col].to_numpy(dtype=np.int64), kind="stable")
        ids = g[id_col].to_numpy(dtype=np.int64)[order]
        m = _normalize(np.asarray(list(g[vec_col]), dtype=np.float32))[order]
        out = []
        for s in range(0, len(ids), chunk_rows):
            e = min(s + chunk_rows, len(ids))
            sims = m[s:e] @ m.T  # (chunk, bucket)
            # candidates: similar enough AND strictly smaller id
            mask = (sims >= threshold) & (ids[None, :] < ids[s:e, None])
            masked_ids = np.where(mask, ids[None, :], np.iinfo(np.int64).max)
            rep = masked_ids.min(axis=1)
            pos = masked_ids.argmin(axis=1)  # first occurrence == the rep
            hasrep = rep < np.iinfo(np.int64).max
            if hasrep.any():
                rows = np.nonzero(hasrep)[0]
                out.append(pd.DataFrame({
                    id_col: ids[s:e][rows],
                    "rep_id": rep[rows],
                    "cosine": sims[rows, pos[rows]].astype(np.float64),
                }))
        return pd.concat(out, ignore_index=True) if out else empty

    pairs = bucketed.groupby("lsh_bucket").map_groups(
        bucket_pairs, batch_format="pandas"
    )
    if not canonical:
        return pairs
    from .dedup import connected_components

    comp = connected_components(pairs, id_col=id_col, rep_col="rep_id")

    def to_rep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # drop the representatives themselves (cluster_id == id): the
        # output lists only the rows a dedup pass would remove
        keep = t.filter(pc.not_equal(t[id_col], t["cluster_id"]))
        return pa.table({id_col: keep[id_col], "rep_id": keep["cluster_id"]})

    return comp.map_batches(to_rep, batch_format="pyarrow",
                            zero_copy_batch=True)


# ------------------------------------------------------------- IVF ----


def train_ivf_centroids(sample: np.ndarray, n_clusters: int = 16,
                        n_iters: int = 8, seed: int = 13) -> np.ndarray:
    """Deterministic mini k-means (numpy, fixed seed) over a driver-side
    sample — the IVF coarse quantizer. At 100 TB the sample is a
    ``ds.random_sample`` pulled once; training is O(sample), not corpus."""
    rng = np.random.default_rng(seed)
    m = _normalize(sample.astype(np.float64))
    idx = rng.choice(len(m), size=min(n_clusters, len(m)), replace=False)
    cents = m[np.sort(idx)].copy()
    for _ in range(n_iters):
        assign = np.argmax(m @ cents.T, axis=1)
        for c in range(len(cents)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def add_ivf_cluster(ds, centroids: np.ndarray, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """Assign each vector to its nearest centroid (one matmul per batch
    against the broadcast centroid matrix)."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    class Assign:
        def __init__(self):
            self.cents = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch.append_column("ivf_cluster", pa.array([], pa.int64()))
            m = _normalize(_to_matrix(batch[vec_col], np.float64))
            assign = np.argmax(m @ self.cents.T, axis=1)
            return batch.append_column(
                "ivf_cluster", pa.array(assign.astype(np.int64), pa.int64())
            )

    from .fusion import map_stage

    return map_stage(ds, Assign)


def ivf_topk(ds, queries: dict, centroids: np.ndarray, k: int = 10,
             nprobe: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding"):
    """IVF approximate top-k: score only vectors whose cluster is among
    each query's ``nprobe`` nearest centroids. The cluster column doubles
    as the partition key at scale (one partition per cluster → a query
    touches nprobe partitions, not the corpus)."""
    import ray

    cents = np.asarray(centroids, dtype=np.float64)
    qm = _normalize(np.asarray(queries["matrix"], dtype=np.float64))
    qprobes = np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe]
    wanted = {int(c) for row in qprobes for c in row}

    clustered = add_ivf_cluster(ds, cents, id_col, vec_col)
    filtered = member_filter(clustered, "ivf_cluster",
                             pa.array(sorted(wanted), pa.int64()), keep=True)

    qref = ray.put({
        "query_id": queries["query_id"],
        "matrix": queries["matrix"],
        "probes": qprobes.astype(np.int64),
    })

    class ProbeTopK:
        def __init__(self):
            q = ray.get(qref)
            self.qids = np.asarray(q["query_id"], dtype=np.int64)
            self.qm = _normalize(np.asarray(q["matrix"], dtype=np.float64))
            self.probes = q["probes"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _empty_scores()
            ids = np.asarray(batch[id_col].to_numpy(), dtype=np.int64)
            m = _normalize(_to_matrix(batch[vec_col], np.float64))
            vc = np.asarray(batch["ivf_cluster"].to_numpy(), dtype=np.int64)
            sims = self.qm @ m.T
            # mask vectors outside each query's probed clusters
            mask = np.zeros_like(sims, dtype=bool)
            for qi in range(len(self.qids)):
                mask[qi] = np.isin(vc, self.probes[qi])
            sims = np.where(mask, sims, -2.0)
            kk = min(k, sims.shape[1])
            out_q, out_id, out_sim = [], [], []
            idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            for qi in range(sims.shape[0]):
                for j in idx[qi]:
                    if sims[qi, j] > -2.0:
                        out_q.append(int(self.qids[qi]))
                        out_id.append(int(ids[j]))
                        out_sim.append(float(sims[qi, j]))
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_id, pa.int64()),
                    "cosine": pa.array(out_sim, pa.float64()),
                }
            )

    from .fusion import map_stage as _map_stage

    partials = _map_stage(filtered, ProbeTopK)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True],
                          kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("query_id").map_groups(final_topk, batch_format="pandas")
