"""Dedup / similarity / frontier operators on small planted
datasets (the training-data operator set)."""

import numpy as np
import pytest
import reference_lsh


@pytest.fixture()
def docs_with_dups(ray_session):
    import ray.data as rd

    base = (
        "the quick brown fox jumps over the lazy dog while the rain in "
        "spain stays mainly in the plain and the cat sat on the mat "
    ) * 3
    vocab = [f"w{j}" for j in range(400)]
    rng = np.random.default_rng(9)
    rows = []
    for i in range(20):
        words = rng.choice(vocab, size=60, replace=True)
        rows.append({"doc_id": i, "text": " ".join(words)})
    # planted near-dups: 100/101 near-identical, 102 exact copy of 100
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base.replace("lazy", "sleepy", 1)})
    rows.append({"doc_id": 102, "text": base})
    return rd.from_items(rows)


def verify_pairs_jaccard(ds_pairs, docs_lookup, k: int = 5,
                         threshold: float = 0.8):
    """Reference for ``verify_pairs_jaccard_distributed``: score each
    candidate (doc_id, rep_id) pair on the driver with the per-pair
    n-gram Jaccard over an {id: text} dict."""
    import pandas as pd

    rows = []
    for r in ds_pairs.take_all():
        i, rep = r["doc_id"], r["rep_id"]
        j = reference_lsh.ngram_jaccard(docs_lookup.get(i, ""),
                                        docs_lookup.get(rep, ""), k)
        if j >= threshold:
            rows.append({"doc_id": i, "rep_id": rep, "jaccard": j})
    return pd.DataFrame(rows, columns=["doc_id", "rep_id", "jaccard"])


def test_exact_dedup(docs_with_dups):
    from crawtext_ray.stages.dedup import exact_dedup

    kept = exact_dedup(docs_with_dups).to_pandas()
    ids = set(kept["doc_id"])
    assert 100 in ids and 102 not in ids
    assert len(kept) == 22  # 23 rows - 1 exact dup


def test_minhash_lsh_finds_planted_pair(docs_with_dups):
    from crawtext_ray.stages.dedup import minhash_lsh_duplicates

    pairs = minhash_lsh_duplicates(docs_with_dups, shingle_k=3).to_pandas()
    linked = {(int(r["doc_id"]), int(r["rep_id"])) for _, r in pairs.iterrows()}
    assert (102, 100) in linked
    assert (101, 100) in linked


def test_jaccard_verify(ray_session, docs_with_dups):
    from crawtext_ray.stages.dedup import minhash_lsh_duplicates

    assert reference_lsh.ngram_jaccard("a b c d e f", "a b c d e f", 3) == 1.0
    docs = {r["doc_id"]: r["text"] for r in docs_with_dups.take_all()}
    pairs = minhash_lsh_duplicates(docs_with_dups, shingle_k=3)
    verified = verify_pairs_jaccard(pairs, docs, k=3, threshold=0.8)
    vids = set(verified["doc_id"])
    assert 102 in vids and 101 in vids


def test_jaccard_verify_distributed_matches_broadcast(ray_session, docs_with_dups,
                                                     monkeypatch):
    """The broadcast-free routed verifier must agree with the broadcast
    dict verifier on pairs, reps, and jaccard values."""
    from crawtext_ray.stages import partitioning
    from crawtext_ray.stages.dedup import (
        minhash_lsh_duplicates,
        verify_pairs_jaccard_distributed,
    )

    docs = {r["doc_id"]: r["text"] for r in docs_with_dups.take_all()}
    pairs = minhash_lsh_duplicates(docs_with_dups, shingle_k=3).materialize()
    a = verify_pairs_jaccard(pairs, docs, k=3, threshold=0.8)
    b = verify_pairs_jaccard_distributed(
        pairs, docs_with_dups, k=3, threshold=0.8
    ).to_pandas()
    fa = {(int(r["doc_id"]), int(r["rep_id"]), round(r["jaccard"], 12))
          for _, r in a.iterrows()}
    fb = {(int(r["doc_id"]), int(r["rep_id"]), round(r["jaccard"], 12))
          for _, r in b.iterrows()}
    assert fa == fb and len(fa) >= 2
    # ... and under a forced Bloom participant filter
    monkeypatch.setattr(partitioning, "BROADCAST_ROWS", 0)
    c = verify_pairs_jaccard_distributed(
        pairs, docs_with_dups, k=3, threshold=0.8,
    ).to_pandas()
    fc = {(int(r["doc_id"]), int(r["rep_id"]), round(r["jaccard"], 12))
          for _, r in c.iterrows()}
    assert fa == fc


def test_verifier_is_candidate_bounded(ray_session, docs_with_dups,
                                       monkeypatch):
    """r2 verdict #3: the routed verifier must shingle only pair
    PARTICIPANTS — doc rows entering the exchanges ≈ |participants|,
    not |corpus| — in both semi-join modes (broadcast and Bloom)."""
    import ray.data as rd

    from crawtext_ray.stages import partitioning
    from crawtext_ray.stages.dedup import (
        minhash_lsh_duplicates,
        semi_join_on_ids,
    )

    pairs = minhash_lsh_duplicates(docs_with_dups, shingle_k=3).materialize()
    participants_left = {r["doc_id"] for r in pairs.take_all()}
    participants_right = {r["rep_id"] for r in pairs.take_all()}
    corpus_n = docs_with_dups.count()

    # broadcast mode, then forced Bloom mode
    for rows in (partitioning.BROADCAST_ROWS, 0):
        monkeypatch.setattr(partitioning, "BROADCAST_ROWS", rows)
        left = semi_join_on_ids(docs_with_dups, pairs, "doc_id", "doc_id")
        right = semi_join_on_ids(docs_with_dups, pairs, "doc_id", "rep_id")
        left_ids = {r["doc_id"] for r in left.take_all()}
        right_ids = {r["doc_id"] for r in right.take_all()}
        # exact in broadcast mode; Bloom may keep a few extra (superset)
        assert participants_left <= left_ids
        assert participants_right <= right_ids
        assert len(left_ids) <= max(2 * len(participants_left), 8)
        assert len(right_ids) <= max(2 * len(participants_right), 8)
        assert len(left_ids) < corpus_n

    # empty candidate set → empty corpus subset, not a crash
    import pyarrow as pa

    empty_pairs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "rep_id": pa.array([], pa.int64()),
    }))
    none = semi_join_on_ids(docs_with_dups, empty_pairs, "doc_id", "doc_id")
    assert none.count() == 0


def test_simhash_duplicates(docs_with_dups):
    from crawtext_ray.stages.dedup import simhash_duplicates

    pairs = simhash_duplicates(docs_with_dups).to_pandas()
    linked = {(int(r["doc_id"]), int(r["rep_id"])) for _, r in pairs.iterrows()}
    assert (102, 100) in linked  # identical text -> identical simhash


def test_batch_simhash_matches_scalar():
    from crawtext_ray.stages.dedup import _SimHash

    sh = _SimHash("text", "doc_id")
    texts = ["the quick brown fox", "", "a b c d e f g" * 50,
             "einzigartige wörter überall", "x"]
    batch = sh._batch_simhash(texts)
    for t, got in zip(texts, batch):
        assert int(got) == reference_lsh.simhash64(t)


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)]
    )
    queries = {"query_id": [0, 1], "matrix": vecs[:2].astype(np.float64)}
    got = brute_force_topk(ds, queries, k=5).to_pandas()

    # numpy reference
    m = vecs.astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    for qid in (0, 1):
        sims = m @ m[qid]
        exp = np.argsort(-sims, kind="stable")[:5]
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert list(sub["vec_id"]) == list(exp)
        assert list(sub["rank"]) == [1, 2, 3, 4, 5]
        assert sub.iloc[0]["vec_id"] == qid  # self is nearest


def test_lsh_topk_self_found(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.similarity import lsh_bucket_topk

    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((300, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(300)]
    )
    queries = {"query_id": [5], "matrix": vecs[5:6]}
    got = lsh_bucket_topk(ds, queries, dim=16, k=3).to_pandas()
    assert int(got.sort_values("rank").iloc[0]["vec_id"]) == 5


def test_to_matrix_sliced_arrays():
    """flatten() on a sliced list array returns the slice's values only —
    _to_matrix must not re-apply offsets (regression)."""
    import pyarrow as pa

    from crawtext_ray.stages.similarity import _to_matrix

    arr = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
                   pa.list_(pa.float32()))
    assert np.array_equal(
        _to_matrix(arr.slice(1, 2)),
        np.array([[3, 4], [5, 6]], dtype=np.float32),
    )
    assert np.array_equal(
        _to_matrix(arr), np.asarray(arr.to_pylist(), dtype=np.float32)
    )
    f = pa.FixedSizeListArray.from_arrays(
        pa.array([1.0, 2, 3, 4, 5, 6], pa.float32()), 2
    )
    assert np.array_equal(
        _to_matrix(f.slice(2, 1)), np.array([[5, 6]], dtype=np.float32)
    )


def test_topk_survives_empty_blocks(ray_session):
    # the lsh/ivf bucket filters can emit zero-row blocks; the scoring
    # stages must early-return instead of feeding a 1-D empty array to
    # the matmul (np.AxisError)
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.similarity import brute_force_topk, lsh_bucket_topk

    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((40, 8)).astype(np.float32)
    items = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(40)]
    queries = {"query_id": [0], "matrix": vecs[:1].astype(np.float64)}

    # empty dataset with the right schema → every batch is zero rows
    empty = rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    )
    assert brute_force_topk(empty, queries, k=3).count() == 0

    # tiny blocks so the bucket filter leaves some blocks empty
    ds = rd.from_items(items, override_num_blocks=20)
    got = lsh_bucket_topk(ds, queries, dim=8, k=3).to_pandas()
    assert int(got.sort_values("rank").iloc[0]["vec_id"]) == 0


def test_embedding_dedup_finds_copies(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.similarity import embedding_dedup

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((50, 8)).astype(np.float32)
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(50)]
    rows.append({"vec_id": 200, "embedding": vecs[7].tolist()})  # exact copy
    got = embedding_dedup(rd.from_items(rows), dim=8, threshold=0.99).to_pandas()
    linked = {(int(r["vec_id"]), int(r["rep_id"])) for _, r in got.iterrows()}
    assert (200, 7) in linked


def test_embedding_dedup_canonical_chain(ray_session):
    """r2 verdict #7: a planted a≈b, b≈c, a̸≈c chain. The per-pair
    output links c to b; ``canonical=True`` pipes the pairs through
    connected_components, so BOTH b and c map to a (the cluster min)."""
    import ray.data as rd

    from crawtext_ray.stages.similarity import embedding_dedup

    dim = 8
    rng = np.random.default_rng(0)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)

    def rot(deg):
        t = np.deg2rad(deg)
        return (np.cos(t) * u + np.sin(t) * v).astype(np.float32)

    # 1.5° apart pairwise: cos(a,b)=cos(b,c)≈0.99966 ≥ 0.999,
    # cos(a,c)≈0.99863 < 0.999 — a genuine transitive chain. All three
    # share one LSH bucket under the fixed seed (asserted via raw pairs).
    rows = [{"vec_id": 0, "embedding": rot(0).tolist()},
            {"vec_id": 1, "embedding": rot(1.5).tolist()},
            {"vec_id": 2, "embedding": rot(3.0).tolist()}]
    for i in range(3, 20):
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        rows.append({"vec_id": i, "embedding": w.astype(np.float32).tolist()})
    ds = rd.from_items(rows)

    raw = embedding_dedup(ds, dim=dim, threshold=0.999).to_pandas()
    raw_links = {(int(r["vec_id"]), int(r["rep_id"])) for _, r in raw.iterrows()}
    assert raw_links == {(1, 0), (2, 1)}  # per-pair: c links to b, not a

    can = embedding_dedup(ds, dim=dim, threshold=0.999,
                          canonical=True).to_pandas()
    can_links = {(int(r["vec_id"]), int(r["rep_id"])) for _, r in can.iterrows()}
    assert can_links == {(1, 0), (2, 0)}  # transitive: both collapse to a


def test_embedding_dedup_skewed_bucket(ray_session, monkeypatch):
    """A clone-heavy corpus puts every vector in ONE bucket — the chunked
    within-bucket matmul must bound memory and still link every clone to
    the min id."""
    import ray.data as rd

    from crawtext_ray.stages.similarity import embedding_dedup

    monkeypatch.setattr("crawtext_ray.stages.similarity.CHUNK_ROWS", 7)
    rng = np.random.default_rng(8)
    base = rng.standard_normal(8).astype(np.float32)
    rows = [{"vec_id": i, "embedding": (base + rng.standard_normal(8) * 1e-4)
             .tolist()} for i in range(60)]
    got = embedding_dedup(rd.from_items(rows), dim=8,
                          threshold=0.99).to_pandas()
    assert len(got) == 59  # everyone but vec 0 links
    assert (got["rep_id"] == 0).all()
    assert sorted(got["vec_id"]) == list(range(1, 60))


def test_bfs_crawl_rounds(ray_session, pages_small):
    import ray.data as rd

    from crawtext_ray.stages.frontier import bfs_crawl

    pages = rd.read_parquet(pages_small)
    seeds = [r["url"] for r in pages.take(3)]
    rounds, seen = bfs_crawl(pages, seeds, max_depth=1)
    assert 1 <= len(rounds) <= 2
    assert rounds[0].count() >= 1
    assert set(seeds).issubset(seen)


def test_bfs_crawl_distributed_matches_broadcast(ray_session, pages_small,
                                                 monkeypatch):
    """BROADCAST_ROWS=0 forces the Dataset-frontier mode (hash semi-join
    subset + keyed anti-join); per-depth article urls must match the
    driver-frontier mode."""
    import ray.data as rd

    from crawtext_ray.stages import partitioning
    from crawtext_ray.stages.frontier import bfs_crawl

    pages = rd.read_parquet(pages_small)
    seeds = [r["url"] for r in pages.take(3)]
    r_small, seen_small = bfs_crawl(pages, seeds, max_depth=1)
    monkeypatch.setattr(partitioning, "BROADCAST_ROWS", 0)
    r_big, seen_big = bfs_crawl(pages, seeds, max_depth=1)
    assert len(r_small) == len(r_big)
    for a, b in zip(r_small, r_big):
        assert sorted(x["url"] for x in a.select_columns(["url"]).take_all()) == \
               sorted(x["url"] for x in b.select_columns(["url"]).take_all())
    seen_big_set = {r["url"] for r in seen_big.iter_rows()}
    assert seen_big_set == set(seen_small)


def test_anti_join_grouped(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.frontier import anti_join_grouped

    new = rd.from_items([{"url": f"u{i}"} for i in range(10)])
    seen = rd.from_items([{"url": f"u{i}"} for i in range(0, 10, 2)])
    out = anti_join_grouped(new, seen)
    assert sorted(r["url"] for r in out.take_all()) == [f"u{i}" for i in range(1, 10, 2)]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("keep", [True, False])
def test_member_filter(ray_session, exact, keep):
    """The one membership filter: exact (Arrow value set) and Bloom
    members, kept or dropped, over string, int, null and computed keys,
    and an empty member set."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from crawtext_ray.stages.partitioning import member_filter
    from crawtext_ray.state.bloom import BloomFilter

    table = pa.table({
        "s": pa.array(["a", None, "b", "c", "d"], pa.string()),
        "i": pa.array([1, 2, None, 4, 5], pa.int64()),
    })
    ds = rd.from_arrow(table)

    def members(values, typ):
        if exact:
            return pa.array(values, typ)
        bf = BloomFilter(capacity=max(1, len(values)), fp_rate=1e-9)
        bf.update([str(v) for v in values])
        return bf

    def check(key, values, typ, key_of):
        out = member_filter(ds, key, members(values, typ), keep=keep)
        got = sorted(out.take_all(), key=lambda r: r["s"] or "")
        want = [r for r in table.to_pylist()
                if (key_of(r) is not None and key_of(r) in values) == keep]
        assert got == sorted(want, key=lambda r: r["s"] or "")

    check("s", ["a", "c", "zz"], pa.string(), lambda r: r["s"])
    check("i", [1, 5, 99], pa.int64(), lambda r: r["i"])
    check(lambda t: pc.utf8_upper(t["s"]), ["A", "B"], pa.string(),
          lambda r: r["s"] and r["s"].upper())
    # empty member set: keep -> no rows, drop -> every row (nulls too)
    out = member_filter(ds, "s", members([], pa.string()), keep=keep)
    assert out.count() == (0 if keep else 5)


def test_connected_components_transitive(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.dedup import connected_components

    # chain: 5~3, 3~1 ; separate pair: 10~9
    pairs = rd.from_items(
        [
            {"doc_id": 5, "rep_id": 3},
            {"doc_id": 3, "rep_id": 1},
            {"doc_id": 10, "rep_id": 9},
        ]
    )
    out = {r["doc_id"]: r["cluster_id"] for r in connected_components(pairs).take_all()}
    assert out[5] == 1 and out[3] == 1 and out[1] == 1
    assert out[10] == 9 and out[9] == 9


def _union_find_clusters(edges):
    """{id: min id of its component} over (doc_id, rep_id) edges: the
    plain union-find reference for ``connected_components``."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = find(e["doc_id"]), find(e["rep_id"])
        parent[max(a, b)] = min(a, b)
    return {x: find(x) for x in list(parent)}


def _random_forest(n, seed):
    """Edges of random recursive trees of 2-4 nodes over ``n`` distinct
    ids (negative and large ones included), each member linked to an
    earlier member of its tree in a random orientation."""
    rng = np.random.default_rng(seed)
    ids = [int(x) for x in
           rng.choice(np.arange(-500, 10**9, 7919), n, replace=False)]
    edges, i = [], 0
    while i < len(ids):
        tree = ids[i:i + int(rng.integers(2, 5))]
        i += len(tree)
        for k in range(1, len(tree)):
            a, b = tree[k], tree[int(rng.integers(0, k))]
            if rng.integers(0, 2):
                a, b = b, a
            edges.append({"doc_id": a, "rep_id": b})
    return edges


def test_connected_components_matches_union_find(ray_session):
    """Every node gets its component's min id, as a union-find gives:
    a star whose hub is its max id, a chain + a separate pair + a star,
    a 40-node chain (diameter 39: the rounds run to the fixpoint, not to
    a cap), random forests with random edge orientation, and no edges
    (zero rows out)."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import connected_components

    def pairs(*links):
        return [{"doc_id": a, "rep_id": b} for a, b in links]

    cases = {
        "star": pairs((1, 5), (2, 5), (3, 5)),
        "chain+pair+star": pairs((5, 3), (3, 1), (10, 9), (21, 20),
                                 (22, 20), (23, 22)),
        "chain40": pairs(*((i + 1, i) for i in range(39))),
        "forest60": _random_forest(60, seed=3),
        "forest2000": _random_forest(2000, seed=4),
        "empty": [],
    }
    for name, edges in cases.items():
        got = {r["doc_id"]: r["cluster_id"]
               for r in connected_components(rd.from_items(edges)).take_all()}
        assert got == _union_find_clusters(edges), name
    assert _union_find_clusters(cases["star"]) == {1: 1, 2: 1, 3: 1, 5: 1}


def test_connected_components_distributed_random_forest(ray_session):
    """The segment-vectorized Pregel rounds label a random forest — many
    components per sorted block, negative and large ids — with each
    component's min id, like a union-find does."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    ids = [int(x) for x in
           rng.choice(np.arange(-500, 10**9, 7919), 600, replace=False)]
    # random recursive trees of 2-4 nodes; each member links to an
    # earlier member
    edges, want, i = [], {}, 0
    while i < len(ids):
        tree = ids[i:i + int(rng.integers(2, 5))]
        i += len(tree)
        for k in range(1, len(tree)):
            edges.append({"doc_id": tree[k],
                          "rep_id": tree[int(rng.integers(0, k))]})
        if len(tree) > 1:
            want.update({x: min(tree) for x in tree})

    from crawtext_ray.stages.dedup import connected_components

    got = {r["doc_id"]: r["cluster_id"]
           for r in connected_components(rd.from_items(edges)).take_all()}
    assert got == want


def test_minhash_many_dups_no_driver_merge(ray_session):
    """A corpus where the candidate-pair set is a large fraction of rows
    (every doc in a clone family) completes and links every clone to the
    family min — the pair merge is a keyed groupby, not a driver list."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import minhash_lsh_duplicates

    fams = 10
    rows = []
    for f in range(fams):
        base = " ".join(f"tok{f}x{j} common words here" for j in range(40))
        for c in range(12):  # 12 clones per family
            rows.append({"doc_id": f * 100 + c, "text": base})
    pairs = minhash_lsh_duplicates(
        rd.from_items(rows), shingle_k=3).to_pandas()
    # every non-min clone links to its family min, exactly once
    assert len(pairs) == fams * 11
    for _, r in pairs.iterrows():
        assert int(r["rep_id"]) == (int(r["doc_id"]) // 100) * 100


def _cross_band_family(id_col, ids):
    """Three near-copies with ids z < y < x where x shares an earlier
    minhash band with y than with z, so x's min rep (z) comes from a
    later band than its first hit (y) at num_perm=128, bands=32,
    shingle_k=3."""
    base = [f"b{j}" for j in range(40)]
    rng = np.random.default_rng(4)
    y, z = list(base), list(base)
    for j in rng.choice(40, 6, replace=False):
        y[j] = f"y{j}"
    for j in rng.choice(40, 6, replace=False):
        z[j] = f"z{j}"
    return [{id_col: i, "text": " ".join(t)}
            for i, t in zip(ids, (z, y, base))]


def _lsh_matches_reference(ds, id_col):
    """Linking (minhash, simhash) and pair enumeration (both band
    shapes) equal the plain-Python reference over the same band keys;
    returns (ids, minhash band keys, minhash links)."""
    from crawtext_ray.stages.dedup import (
        _MinHashBands,
        _simhash_banded,
        banded_lsh_candidate_pairs,
        minhash_lsh_duplicates,
        simhash_duplicates,
    )

    rows = ds.take_all()
    ids = [r[id_col] for r in rows]
    texts = [r["text"] for r in rows]
    mh_keys = reference_lsh.minhash_band_keys(texts, shingle_k=3)
    sh_keys = reference_lsh.simhash_band_keys(texts)

    def links(out):
        got = [(r[id_col], r["rep_id"]) for r in out.take_all()]
        assert len(got) == len(dict(got))  # one row per linked id
        return dict(got)

    def pairs(out):
        got = [(r[f"{id_col}_a"], r[f"{id_col}_b"]) for r in out.take_all()]
        assert len(got) == len(set(got))  # each pair once
        return set(got)

    mh = links(minhash_lsh_duplicates(ds, id_col=id_col, shingle_k=3))
    assert mh == reference_lsh.link(ids, mh_keys)
    assert (links(simhash_duplicates(ds, id_col=id_col))
            == reference_lsh.link(ids, sh_keys))
    mh_banded = ds.map_batches(
        _MinHashBands(num_perm=128, bands=32, shingle_k=3, text_col="text",
                      id_col=id_col),
        batch_format="pyarrow")
    assert (pairs(banded_lsh_candidate_pairs(mh_banded, 32, id_col))
            == reference_lsh.candidate_pairs(ids, mh_keys))
    assert (pairs(banded_lsh_candidate_pairs(
        _simhash_banded(ds, "text", id_col), 4, id_col))
        == reference_lsh.candidate_pairs(ids, sh_keys))
    return ids, mh_keys, mh


def test_lsh_int_ids_match_reference(ray_session, docs_with_dups):
    """The LSH forms equal the reference on integer ids, including a doc
    whose min rep comes from a later band than its first hit."""
    import ray.data as rd

    family = _cross_band_family("doc_id", [200, 201, 202])
    ds = rd.from_items(docs_with_dups.take_all() + family)
    ids, keys, mh = _lsh_matches_reference(ds, "doc_id")
    assert (102, 100) in mh.items()
    z, y, x = (r["doc_id"] for r in family)
    assert reference_lsh.first_hit_rep(ids, keys, x) == y
    assert mh[x] == z


def test_lsh_url_ids_match_reference(ray_session):
    """url-keyed LSH (the curation shape) finds the planted dups and
    equals the reference, cross-band family included."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import minhash_lsh_duplicates

    base = "the quick brown fox jumps over the lazy dog near the mat " * 4
    rows = [{"url": f"http://x/{i}",
             "text": f"doc {i} " + " ".join(f"t{i}x{j}" for j in range(50))}
            for i in range(30)]
    rows += [{"url": "http://x/dupA", "text": base},
             {"url": "http://x/dupB", "text": base}]
    a = minhash_lsh_duplicates(rd.from_items(rows), text_col="text",
                               id_col="url", shingle_k=3).to_pandas()
    pa_ = sorted(map(tuple, a[["url", "rep_id"]].values.tolist()))
    assert pa_ == [("http://x/dupB", "http://x/dupA")]

    family = _cross_band_family("url", [f"http://x/fam{i}" for i in range(3)])
    ids, keys, mh = _lsh_matches_reference(rd.from_items(rows + family),
                                           "url")
    assert mh["http://x/dupB"] == "http://x/dupA"
    z, y, x = (r["url"] for r in family)
    assert reference_lsh.first_hit_rep(ids, keys, x) == y
    assert mh[x] == z


def test_lsh_plans_run_nothing_on_driver(ray_session, docs_with_dups,
                                         monkeypatch):
    """Building an LSH plan materializes, counts, iterates and ray.puts
    nothing: the bucket pass is one lazy key-run reduce, and the planted
    pair appears once the plans run."""
    import ray
    from ray.data import Dataset

    from crawtext_ray.stages.dedup import (
        _simhash_banded,
        banded_lsh_candidate_pairs,
        minhash_lsh_duplicates,
        simhash_duplicates,
    )

    def refuse(*_a, **_k):
        raise AssertionError("LSH plan building ran work on the driver")

    with monkeypatch.context() as m:
        for name in ("materialize", "count", "iter_batches"):
            m.setattr(Dataset, name, refuse)
        m.setattr(ray, "put", refuse)
        plans = [
            minhash_lsh_duplicates(docs_with_dups, shingle_k=3),
            simhash_duplicates(docs_with_dups),
            banded_lsh_candidate_pairs(
                _simhash_banded(docs_with_dups, "text", "doc_id"), 4,
                "doc_id"),
        ]
    mh, sh, cands = (p.take_all() for p in plans)
    assert {"doc_id": 102, "rep_id": 100} in mh
    assert {"doc_id": 102, "rep_id": 100} in sh
    assert {"doc_id_a": 100, "doc_id_b": 102} in cands


def test_lsh_and_components_run_no_ray_aggregate(ray_session,
                                                 docs_with_dups,
                                                 monkeypatch, no_map_groups):
    """The LSH operators, the verified form and connected components are
    built and run with Ray's GroupedData.aggregate and map_groups
    disabled: every per-key reduce is the key-run reduce, and the
    planted pairs come out."""
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from crawtext_ray.stages.dedup import (
        connected_components,
        minhash_lsh_duplicates,
        minhash_verified_duplicates,
        simhash_duplicates,
    )

    def refuse(*_a, **_k):
        raise AssertionError("hash aggregate called")

    monkeypatch.setattr(GroupedData, "aggregate", refuse)

    mh = minhash_lsh_duplicates(docs_with_dups, shingle_k=3).take_all()
    assert {"doc_id": 102, "rep_id": 100} in mh
    assert {"doc_id": 102, "rep_id": 100} in \
        simhash_duplicates(docs_with_dups).take_all()
    verified = minhash_verified_duplicates(docs_with_dups).take_all()
    assert (100, 102) in {(r["doc_id_a"], r["doc_id_b"]) for r in verified}
    comp = connected_components(rd.from_items(mh)).take_all()
    assert {r["doc_id"]: r["cluster_id"] for r in comp}[102] == 100


def test_sampling_native_and_deterministic(ray_session):
    """T3: Ray-native random_sample bounds + the reproducible hash-sample
    operator (same rows on every run)."""
    import ray.data as rd

    from crawtext_ray.stages.relational import sample_docs_deterministic

    ds = rd.range(10_000)
    n = ds.random_sample(0.1, seed=7).count()
    assert 700 <= n <= 1300  # ~10% with slack

    a = sample_docs_deterministic("/root/testdata/sf0.001").to_pandas()
    b = sample_docs_deterministic("/root/testdata/sf0.001").to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    assert 0 < len(a) < 500


def test_build_bloom_distributed(ray_session):
    import ray.data as rd

    from crawtext_ray.state.bloom import build_bloom

    keys = [f"http://ex.com/{i}" for i in range(2000)]
    ds = rd.from_items([{"url": k} for k in keys], override_num_blocks=8)
    bf = build_bloom(ds, "url", capacity=2000, fp_rate=1e-4)
    assert all(k in bf for k in keys)  # no false negatives, across blocks
    misses = sum(f"http://other.com/{i}" in bf for i in range(2000))
    assert misses <= 5


def test_hll_distributed_build_matches_serial(ray_session):
    """The per-block max-merged HLL must equal a serial build over the
    same keys (register-exact), and estimate within ~3% of truth."""
    import ray.data as rd

    from crawtext_ray.state.hll import HyperLogLog, build_hll

    keys = [f"user-{i % 700}" for i in range(5000)]  # dups collapse
    ds = rd.from_items([{"user_id": k} for k in keys],
                       override_num_blocks=8)
    dist = build_hll(ds, "user_id")
    ser = HyperLogLog()
    ser.update(keys)
    assert np.array_equal(dist.registers, ser.registers)
    assert abs(dist.estimate() - 700) / 700 < 0.03


def test_bloom_incremental_recrawl(ray_session, pages_small):
    """Batch-incremental re-crawl (SURVEY.md §2.10): second run skips
    already-extracted urls via a Bloom anti-join."""
    import ray.data as rd

    from crawtext_ray.stages.partitioning import member_filter
    from crawtext_ray.state.bloom import BloomFilter

    pages = rd.read_parquet(pages_small, columns=["url", "warc_ts"])
    first_half = {r["url"] for r in pages.take(500)}
    bf = BloomFilter(capacity=len(first_half))
    bf.update(first_half)
    remaining = member_filter(pages, "url", bf, keep=False).to_pandas()
    assert len(remaining) <= 1000 - len(first_half) + 500 * 0.01
    assert not (set(remaining["url"]) & first_half)


def test_ivf_topk_self_found_and_recall(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.similarity import (
        brute_force_topk,
        ivf_topk,
        train_ivf_centroids,
    )

    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((400, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(400)]
    )
    cents = train_ivf_centroids(vecs[:200], n_clusters=8)
    queries = {"query_id": [3, 7], "matrix": vecs[[3, 7]]}
    approx = ivf_topk(ds, queries, cents, k=5, nprobe=3).to_pandas()
    exact = brute_force_topk(ds, queries, k=5).to_pandas()
    for qid in (3, 7):
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        assert qid in a  # self always retrieved (its own cluster is probed)
        assert len(a & e) >= 2  # reasonable recall at nprobe=3/8


def test_ivf_topk_matches_reference(ray_session):
    """The IVF top-k rows at nprobe 1 and 4 equal a numpy reference:
    exact cosine over only the vectors in each query's ``nprobe`` nearest
    clusters, (cosine desc, vec_id asc), over several blocks and
    queries."""
    import ray.data as rd

    from crawtext_ray.stages.similarity import (
        _normalize,
        ivf_topk,
        train_ivf_centroids,
    )

    rng = np.random.default_rng(12)
    centers = rng.standard_normal((30, 16)).astype(np.float32)
    vecs = np.repeat(centers, 8, axis=0) + 0.3 * rng.standard_normal(
        (240, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(240)],
        override_num_blocks=4,
    )
    qids = [3, 50, 111, 200, 239]
    queries = {"query_id": qids, "matrix": vecs[qids]}
    cents = train_ivf_centroids(vecs[::3], n_clusters=8)
    m = _normalize(vecs.astype(np.float64))
    cluster = np.argmax(m @ cents.T, axis=1)
    qm = _normalize(vecs[qids].astype(np.float64))
    sims = qm @ m.T
    for nprobe in (1, 4):
        got = ivf_topk(ds, queries, cents, k=5, nprobe=nprobe).to_pandas()
        for qi, qid in enumerate(qids):
            probed = np.argsort(-(qm[qi] @ cents.T))[:nprobe]
            cand = np.flatnonzero(np.isin(cluster, probed))
            order = sorted(cand, key=lambda j: (-sims[qi, j], j))[:5]
            g = got[got["query_id"] == qid].sort_values("rank")
            assert g["vec_id"].tolist() == [int(j) for j in order]
            assert g["rank"].tolist() == list(range(1, len(order) + 1))
            assert np.allclose(g["cosine"], sims[qi, order], atol=1e-12)


def test_similarity_and_median_run_no_pandas_map_groups(ray_session,
                                                        tmp_path,
                                                        no_map_groups):
    """The top-k forms, embedding dedup and the discrete median are built
    and run with ``GroupedData.map_groups`` disabled: every per-key
    reduce there is the key-run reduce."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.relational import median_chars_by_lang
    from crawtext_ray.stages.similarity import (
        brute_force_topk,
        embedding_dedup,
        ivf_topk,
        lsh_bucket_topk,
        train_ivf_centroids,
    )

    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((60, 8)).astype(np.float32)
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(60)]
    rows.append({"vec_id": 100, "embedding": vecs[7].tolist()})  # clone
    ds = rd.from_items(rows, override_num_blocks=3)
    queries = {"query_id": [4], "matrix": vecs[4:5]}
    cents = train_ivf_centroids(vecs, n_clusters=4)
    for plan in (brute_force_topk(ds, queries, k=3),
                 lsh_bucket_topk(ds, queries, dim=8, k=3, multiprobe=1),
                 ivf_topk(ds, queries, cents, k=3, nprobe=2)):
        best = min(plan.take_all(), key=lambda r: r["rank"])
        assert best["vec_id"] == 4
    assert {(r["vec_id"], r["rep_id"]) for r in
            embedding_dedup(ds, dim=8, threshold=0.99).take_all()} \
        == {(100, 7)}
    assert {(r["vec_id"], r["rep_id"]) for r in
            embedding_dedup(ds, dim=8, threshold=0.99,
                            canonical=True).take_all()} == {(100, 7)}

    lens = {"en": [5, 1, 9, 3], "fr": [7], "de": [2, 8, 4]}
    pq.write_table(pa.table({
        "lang": [lang for lang, ns in lens.items() for _ in ns],
        "n_chars": pa.array([n for ns in lens.values() for n in ns],
                            pa.int64()),
    }), tmp_path / "documents.parquet")
    got = {r["lang"]: r["median_chars"]
           for r in median_chars_by_lang(str(tmp_path)).take_all()}
    assert got == {"en": 3, "fr": 7, "de": 4}


def test_minhash_verified_equals_brute_truth(ray_session, docs_with_dups):
    """minhash_verified_duplicates = LSH candidates ∩ exact Jaccard ≥ t.
    On a corpus where every true pair is far above the threshold (the
    planted regime), LSH recall is total and the verified output must
    EQUAL the brute-force O(n²) truth — pairs and jaccard values both.
    This exactness is what licenses the brute SQL as its driver oracle."""
    from crawtext_ray.stages.dedup import (
        jaccard_dups_brute,
        minhash_verified_duplicates,
    )

    truth = jaccard_dups_brute(docs_with_dups, threshold=0.5).to_pandas()
    got = minhash_verified_duplicates(docs_with_dups).to_pandas()
    ft = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
          for _, r in truth.iterrows()}
    fg = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
          for _, r in got.iterrows()}
    assert ft == fg
    assert (100, 102, 1.0) in fg  # exact copy pair
    assert any(a == 100 and b == 101 and 0.8 < j < 1.0 for a, b, j in fg)


def test_simhash_verified_finds_planted_pairs(ray_session, docs_with_dups,
                                              no_map_groups):
    """simhash_verified = simhash band candidates ∩ exact Jaccard ≥ t;
    output is a subset of the brute truth and contains the planted
    exact-copy pair (identical simhash ⇒ candidate in every band)."""
    from crawtext_ray.stages.dedup import (
        jaccard_dups_brute,
        simhash_verified_duplicates,
    )

    truth = jaccard_dups_brute(docs_with_dups, threshold=0.8).to_pandas()
    got = simhash_verified_duplicates(docs_with_dups).to_pandas()
    ft = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
          for _, r in truth.iterrows()}
    fg = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
          for _, r in got.iterrows()}
    assert fg <= ft
    assert (100, 102, 1.0) in fg


def test_candidate_pairs_no_dups_and_empty_ok(ray_session):
    """banded_lsh_candidate_pairs emits each colliding pair once even
    when it collides in several bands; disjoint corpora emit nothing and
    the verified op returns an empty, correctly-typed frame."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import minhash_verified_duplicates

    distinct = rd.from_items(
        [{"doc_id": i, "text": " ".join(f"u{i}x{j}" for j in range(40))}
         for i in range(8)]
    )
    out = minhash_verified_duplicates(distinct)
    # Ray's to_pandas() drops columns on ANY empty dataset; the Dataset
    # schema is the stable contract (query wrappers pandas-fix it up)
    assert out.schema().names == ["doc_id_a", "doc_id_b", "jaccard"]
    assert out.count() == 0
    # a corpus without a schema gets int64 ids
    none = minhash_verified_duplicates(rd.from_items([]))
    assert str(none.schema().base_schema.field("doc_id_a").type) == "int64"


def test_minhash_verified_string_ids(ray_session):
    """The verifier chain is id-type-generic: string doc ids survive end
    to end (the empty schema and the norm casts used to hardcode int64,
    crashing on string corpora)."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import minhash_verified_duplicates

    base = (
        "the quick brown fox jumps over the lazy dog while the rain in "
        "spain stays mainly in the plain and the cat sat on the mat "
    ) * 3
    rows = [
        {"doc_id": f"doc-{i:03d}",
         "text": " ".join(f"u{i}x{j}" for j in range(60))}
        for i in range(8)
    ]
    rows.append({"doc_id": "dup-a", "text": base})
    rows.append({"doc_id": "dup-b", "text": base})
    ds = rd.from_items(rows)
    out = minhash_verified_duplicates(ds)
    assert out.schema().names == ["doc_id_a", "doc_id_b", "jaccard"]
    df = out.to_pandas()
    pairs = {(r["doc_id_a"], r["doc_id_b"], r["jaccard"])
             for _, r in df.iterrows()}
    assert ("dup-a", "dup-b", 1.0) in pairs
    # and the all-distinct prefix contributes nothing
    assert len(pairs) == 1


def test_dedup_paragraphs_planted(ray_session):
    """Paragraph dedup keeps exactly the first occurrence corpus-wide
    (and within a doc), leaves unique + short paragraphs alone."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import dedup_paragraphs

    footer = "copyright example site all rights reserved"
    docs = rd.from_items([
        {"doc_id": 1, "text": f"alpha body one\n\n{footer}"},
        {"doc_id": 2, "text": f"{footer}\n\nbeta body two"},
        {"doc_id": 3, "text": f"gamma\n\ngamma\n\nx"},   # in-doc repeat
        {"doc_id": 4, "text": f"{footer}"},              # only the dup
        {"doc_id": 5, "text": ""},
    ])
    out = {r["doc_id"]: r["clean_text"]
           for r in dedup_paragraphs(docs, min_chars=2).take_all()}
    assert out[1] == f"alpha body one\n\n{footer}"  # first occurrence kept
    assert out[2] == "beta body two"
    assert out[3] == "gamma\n\nx"
    assert out[4] == ""
    assert out[5] == ""
    # min_chars: short paragraphs ("x") are never dedup-eligible
    docs2 = rd.from_items([
        {"doc_id": 1, "text": "x\n\nx"},
    ])
    out2 = dedup_paragraphs(docs2, min_chars=2).take_all()[0]["clean_text"]
    assert out2 == "x\n\nx"


def test_dedup_paragraphs_vs_duckdb(ray_session):
    """Hash-free text-keyed SQL oracle over the documents corpus with
    PLANTED shared paragraphs (a global footer on every 3rd doc, five
    promo variants by doc_id%5): winner = min (doc_id, idx) per
    paragraph text — also witnesses md5-collision-freeness here."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.dedup import dedup_paragraphs

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        out = []
        for d, x in zip(ids, texts):
            paras = [x or ""]
            if d % 3 == 0:
                paras.append("global footer boilerplate")
            paras.append(f"promo block variant {d % 5}")
            out.append("\n\n".join(paras))
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(out, pa.string())})

    lined = docs.map_batches(plant, batch_format="pyarrow",
                             zero_copy_batch=True)
    got = {r["doc_id"]: r["clean_text"]
           for r in dedup_paragraphs(lined, min_chars=1).take_all()}
    sql = """
    WITH base AS (
      SELECT doc_id,
             CASE WHEN doc_id % 3 = 0
                  THEN text || chr(10) || chr(10)
                       || 'global footer boilerplate'
                  ELSE text END
             || chr(10) || chr(10)
             || 'promo block variant ' || CAST(doc_id % 5 AS VARCHAR)
             AS text
      FROM read_parquet('/root/testdata/sf0.001/documents.parquet')),
    t AS (SELECT doc_id, string_split(text, chr(10) || chr(10)) AS paras
          FROM base),
    p AS (
      SELECT doc_id, i AS idx, paras[i] AS para
      FROM t, UNNEST(generate_series(1, len(paras))) AS u(i)),
    win AS (
      SELECT para, min(doc_id * 1048576 + idx) AS w
      FROM p WHERE length(para) >= 1 GROUP BY para HAVING count(*) >= 2),
    kept AS (
      SELECT p.doc_id, p.idx, p.para FROM p LEFT JOIN win
        ON win.para = p.para AND length(p.para) >= 1
      WHERE win.para IS NULL OR p.doc_id * 1048576 + p.idx = win.w)
    SELECT t.doc_id,
           COALESCE((SELECT string_agg(k.para, chr(10) || chr(10)
                                       ORDER BY k.idx)
                     FROM kept k WHERE k.doc_id = t.doc_id), '') AS clean_text
    FROM t
    """
    exp = {r[0]: r[1] for r in duckdb.connect().execute(sql).fetchall()}
    assert set(got) == set(exp)
    diffs = [d for d in got if got[d] != exp[d]]
    assert not diffs, diffs[:3]
    # the planted boilerplate was actually deduplicated: exactly one doc
    # keeps the footer and exactly five keep a promo block
    n_footer = sum("global footer boilerplate" in v for v in got.values())
    n_promo = sum("promo block variant" in v for v in got.values())
    assert n_footer == 1 and n_promo == 5


def test_dedup_paragraphs_bloom_mode_equals_broadcast(ray_session,
                                                      monkeypatch):
    """Forcing BROADCAST_ROWS=0 switches to the two-Bloom above-threshold
    mode; with adequately sized filters the output equals the exact
    broadcast mode on a corpus with heavy planted duplication."""
    import ray.data as rd

    from crawtext_ray.stages import partitioning
    from crawtext_ray.stages.dedup import dedup_paragraphs

    footer = "shared footer paragraph with several words"
    rows = []
    for i in range(60):
        paras = [f"unique body paragraph number {i}"]
        if i % 2 == 0:
            paras.append(footer)
        paras.append(f"promo variant {i % 7}")
        rows.append({"doc_id": i, "text": "\n\n".join(paras)})
    ds = rd.from_items(rows)
    exact = {r["doc_id"]: r["clean_text"]
             for r in dedup_paragraphs(ds, min_chars=2).take_all()}
    monkeypatch.setattr(partitioning, "BROADCAST_ROWS", 0)
    bloom = {r["doc_id"]: r["clean_text"]
             for r in dedup_paragraphs(ds, min_chars=2,
                                       fp_rate=1e-9).take_all()}
    assert bloom == exact
    assert sum(footer in v for v in exact.values()) == 1


def test_lsh_multiprobe_topk_matches_reference(ray_session):
    """The top-k rows at multiprobe 0, 1 and 2 equal a numpy reference:
    exact cosine over only the vectors whose bucket one of the query's
    probed buckets hits, (cosine desc, vec_id asc), over several blocks
    and queries."""
    import ray.data as rd

    from crawtext_ray.stages.similarity import (
        _LshBucket,
        _normalize,
        _probe_buckets,
        lsh_bucket_topk,
    )

    rng = np.random.default_rng(5)
    centers = rng.standard_normal((30, 16)).astype(np.float32)
    vecs = np.repeat(centers, 8, axis=0) + 0.2 * rng.standard_normal(
        (240, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(240)],
        override_num_blocks=4,
    )
    qids = [3, 50, 111, 200, 239]
    queries = {"query_id": qids, "matrix": vecs[qids]}
    hasher = _LshBucket(16, 8, 11, "embedding")
    vb = hasher.bucket_of(vecs)
    qm = _normalize(vecs[qids].astype(np.float64))
    sims = qm @ _normalize(vecs).T
    qb = hasher.bucket_of(_normalize(vecs[qids]))
    for mp in (0, 1, 2):
        got = lsh_bucket_topk(ds, queries, dim=16, k=5,
                              multiprobe=mp).to_pandas()
        for qi, qid in enumerate(qids):
            cand = np.flatnonzero(
                np.isin(vb, _probe_buckets(int(qb[qi]), 8, mp)))
            order = sorted(cand, key=lambda j: (-sims[qi, j], j))[:5]
            g = got[got["query_id"] == qid].sort_values("rank")
            assert g["vec_id"].tolist() == [int(j) for j in order]
            assert np.allclose(g["cosine"], sims[qi, order], atol=1e-6)


def test_lsh_multiprobe_improves_recall(ray_session):
    """Multi-probe LSH (Hamming-radius bucket expansion): radius 2
    strictly expands the probed candidate set over the classic single
    probe, so its results contain the single-probe results and recall
    vs exact brute top-k is monotonically non-decreasing — and on a
    clustered corpus the neighbors a sign flip hid are recovered."""
    import ray.data as rd

    from crawtext_ray.stages.similarity import (
        _probe_buckets,
        brute_force_topk,
        lsh_bucket_topk,
    )

    # probe-set algebra: radius 0 ⊂ radius 1 ⊂ radius 2; sizes 1/9/37
    assert _probe_buckets(5, 8, 0) == [5]
    p1, p2 = _probe_buckets(5, 8, 1), _probe_buckets(5, 8, 2)
    assert set(p1) < set(p2) and len(p1) == 9 and len(set(p2)) == 37
    assert all(bin(5 ^ b).count("1") <= 2 for b in p2)

    rng = np.random.default_rng(3)
    # clustered corpus: 40 centers × 10 jittered members — near
    # neighbors genuinely exist (unlike isotropic noise)
    centers = rng.standard_normal((40, 16)).astype(np.float32)
    vecs = np.repeat(centers, 10, axis=0) + 0.15 * rng.standard_normal(
        (400, 16)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(400)]
    )
    queries = {"query_id": [0, 105, 333], "matrix": vecs[[0, 105, 333]]}
    exact = brute_force_topk(ds, queries, k=10).to_pandas()

    recalls = {}
    results = {}
    for mp in (0, 2):
        df = lsh_bucket_topk(ds, queries, dim=16, k=10,
                             multiprobe=mp).to_pandas()
        results[mp] = df
        total = 0.0
        for qid in queries["query_id"]:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(df[df["query_id"] == qid]["vec_id"])
            assert qid in a  # self-retrieval holds at any radius
            total += len(a & e) / len(e)
        recalls[mp] = total / 3
    assert recalls[2] >= recalls[0]
    assert recalls[2] >= 0.5  # clustered neighbors are actually found
    # the expanded probe set can only ADD candidates: every single-probe
    # hit survives (ties in the final top-k keep the same deterministic
    # (cosine desc, vec_id asc) order)
    for qid in queries["query_id"]:
        strong = results[2][results[2]["query_id"] == qid]
        assert set(strong["vec_id"]) >= set(
            results[0][(results[0]["query_id"] == qid)
                       & (results[0]["cosine"] >=
                          strong["cosine"].min())]["vec_id"])
