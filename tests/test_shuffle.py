"""Deterministic shuffle-shard training export (stages/shuffle.py)."""

import numpy as np
import pandas as pd


def test_shuffle_shards_md5_vs_duckdb(ray_session):
    """The md5 row hash matches the same arithmetic in SQL: shard = first 8 md5
    bytes of 'seed:id' mod S, pos = rank of (hash, id) within shard."""
    import duckdb
    import ray.data as rd

    from crawtext_ray.stages.shuffle import shuffle_shards

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "lang"])
    got = shuffle_shards(docs, n_shards=8).to_pandas()
    sql = """
    WITH h AS (
      SELECT doc_id, lang,
             CAST(('0x' || substr(md5('0:' || CAST(doc_id AS VARCHAR)), 1, 16))
                  AS UBIGINT) AS hh
      FROM read_parquet('/root/testdata/sf0.001/documents.parquet'))
    SELECT doc_id, lang, CAST(hh % 8 AS BIGINT) AS shard,
           CAST(row_number() OVER (PARTITION BY hh % 8 ORDER BY hh, doc_id)
                - 1 AS BIGINT) AS pos
    FROM h
    """
    exp = duckdb.connect().execute(sql).df()
    a = got.sort_values(["shard", "pos"]).reset_index(drop=True)
    b = exp.sort_values(["shard", "pos"]).reset_index(drop=True)[a.columns]
    assert a.equals(b)


def test_shuffle_shards_splitmix_deterministic_and_balanced(ray_session):
    """The md5 row hash on integer ids: rerun-identical, balanced over
    shards, seed-dependent (the seed reaches the shared shuffle through
    ``pack_sequences``), and not the input order within a shard."""
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.shuffle import pack_sequences, shuffle_shards

    n = 20_000
    ds = rd.from_arrow(pa.table({"doc_id": np.arange(n, dtype=np.int64),
                                 "n_tokens": np.ones(n, dtype=np.int64)}))
    a = shuffle_shards(ds, n_shards=16).to_pandas()
    b = shuffle_shards(ds, n_shards=16).to_pandas()
    key = ["doc_id"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True))
    sizes = a.groupby("shard").size()
    assert len(sizes) == 16
    assert sizes.max() / sizes.min() < 1.2  # hash balance
    # a different seed is a different permutation
    same = pack_sequences(ds, seq_len=8, n_shards=16).to_pandas()
    c = pack_sequences(ds, seq_len=8, n_shards=16, seed=8).to_pandas()
    assert same[["doc_id", "shard", "pos"]].sort_values("doc_id").reset_index(
        drop=True).equals(a[["doc_id", "shard", "pos"]].sort_values(
            "doc_id").reset_index(drop=True))
    merged = a.merge(c, on="doc_id", suffixes=("_a", "_c"))
    assert (merged["shard_a"] != merged["shard_c"]).any()
    # within-shard order is the hash order, not input order
    s0 = a[a["shard"] == 0].sort_values("pos")
    assert not s0["doc_id"].is_monotonic_increasing


def test_write_training_shards_roundtrip(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.shuffle import (
        shuffle_shards,
        write_training_shards,
    )

    n = 3_000
    ds = rd.from_arrow(pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [f"doc {i}" for i in range(n)],
    }))
    out = str(tmp_path / "shards")
    manifest = write_training_shards(ds, out, n_shards=6)
    assert [m["shard"] for m in manifest] == list(range(6))
    assert sum(m["rows"] for m in manifest) == n
    # files hold the shuffle order and re-running rewrites identical bytes
    want = shuffle_shards(ds, n_shards=6).to_pandas()
    frames = [pq.read_table(m["path"]).to_pandas() for m in manifest]
    got = pd.concat(frames, ignore_index=True)
    a = got.sort_values(["shard", "pos"]).reset_index(drop=True)
    b = want.sort_values(["shard", "pos"]).reset_index(drop=True)[a.columns]
    assert a.equals(b)
    import hashlib
    digests = {m["shard"]: hashlib.sha256(open(m["path"], "rb").read()).hexdigest()
               for m in manifest}
    write_training_shards(ds, out, n_shards=6)
    for m in manifest:
        again = hashlib.sha256(open(m["path"], "rb").read()).hexdigest()
        assert again == digests[m["shard"]]


def test_shuffle_shards_string_keys_need_md5(ray_session):
    """The md5 row hash takes string keys as they are."""
    import ray.data as rd

    from crawtext_ray.stages.shuffle import shuffle_shards

    ds = rd.from_items([{"doc_id": "a"}, {"doc_id": "b"}])
    out = shuffle_shards(ds, n_shards=2).to_pandas()
    assert set(out["doc_id"]) == {"a", "b"}


def test_write_training_shards_complete_manifest_and_stale_cleanup(
        ray_session, tmp_path):
    """Rowless shards still get (empty, schema-correct) part files so a
    rank-per-file loader never hits a hole, and stale parts from a prior
    export with a different n_shards are cleared."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.shuffle import write_training_shards

    ds = rd.from_arrow(pa.table({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": ["a", "b", "c"],
    }))
    out = str(tmp_path / "s")
    m1 = write_training_shards(ds, out, n_shards=16, seed=1)
    assert [m["shard"] for m in m1] == list(range(16))
    assert sum(m["rows"] for m in m1) == 3
    files = sorted(os.listdir(out))
    assert files == [f"part-{i:05d}.parquet" for i in range(16)]
    # empty shards carry the real schema
    empty = next(m for m in m1 if m["rows"] == 0)
    t = pq.read_table(empty["path"])
    assert t.num_rows == 0
    assert {"doc_id", "text", "shard", "pos"} <= set(t.column_names)
    # re-export with fewer shards: the 16-part layout must not leak
    m2 = write_training_shards(ds, out, n_shards=4, seed=1)
    files = sorted(os.listdir(out))
    assert files == [f"part-{i:05d}.parquet" for i in range(4)]
    assert sum(m["rows"] for m in m2) == 3


def test_export_shards_cli_over_articles(ray_session, pages_small, tmp_path):
    """The CLI export path shuffles REAL article rows (which carry
    struct meta + list outlinks — the nested columns pandas map_groups
    cannot emit) into byte-deterministic training shards."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.pipelines.flagship import run_extract_job
    from crawtext_ray.stages.shuffle import write_training_shards

    out = str(tmp_path / "arts")
    run_extract_job(pages_small, out, num_partitions=4)
    articles = rd.read_parquet(out, file_extensions=["parquet"])
    n = articles.count()
    manifest = write_training_shards(
        articles, str(tmp_path / "shards"), n_shards=4, key="url")
    assert sum(m["rows"] for m in manifest) == n
    t = pq.read_table(manifest[0]["path"])
    assert {"url", "meta", "outlinks", "shard", "pos"} <= set(t.column_names)
    # in-shard order is the hash order (pos contiguous from 0)
    pos = t["pos"].to_pylist()
    assert pos == list(range(len(pos)))


def test_pack_sequences_vs_duckdb(ray_session):
    """Packing assignment matches the window-SQL definition: per shard,
    pack_id = floor(exclusive-cumsum(n_tokens in shuffle order) / L)."""
    import duckdb
    import ray.data as rd

    from crawtext_ray.stages.shuffle import pack_sequences

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "n_chars"])
    docs = docs.map_batches(
        lambda t: t.rename_columns(
            ["doc_id", "n_tokens"]), batch_format="pyarrow")
    got = pack_sequences(docs, seq_len=4096, n_shards=4,
                         seed=1).to_pandas()
    sql = """
    WITH h AS (
      SELECT doc_id, n_chars AS n_tokens,
             CAST(('0x' || substr(md5('1:' || CAST(doc_id AS VARCHAR)), 1, 16))
                  AS UBIGINT) AS hh
      FROM read_parquet('/root/testdata/sf0.001/documents.parquet')),
    o AS (
      SELECT doc_id, n_tokens, CAST(hh % 4 AS BIGINT) AS shard,
             CAST(row_number() OVER w - 1 AS BIGINT) AS pos,
             CAST(COALESCE(sum(n_tokens) OVER (PARTITION BY hh % 4
                  ORDER BY hh, doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                  AND 1 PRECEDING), 0) AS BIGINT) AS prev
      FROM h WINDOW w AS (PARTITION BY hh % 4 ORDER BY hh, doc_id))
    SELECT doc_id, n_tokens, shard, pos,
           prev // 4096 AS pack_id, prev % 4096 AS pack_offset
    FROM o
    """
    exp = duckdb.connect().execute(sql).df()
    a = got.sort_values(["shard", "pos"]).reset_index(drop=True)
    b = exp.sort_values(["shard", "pos"]).reset_index(drop=True)[a.columns]
    assert a.equals(b)
    # layout sanity: offsets stay inside the window; first doc starts at 0
    assert (a["pack_offset"] < 4096).all()
    assert (a[a["pos"] == 0]["pack_offset"] == 0).all()


def test_write_training_shards_empty_input_key_dtype(ray_session, tmp_path):
    """Fully-empty input: the empty part files derive their schema from
    the dataset (ADVICE r4: the fallback hardcoded a string key, giving
    integer-keyed loaders a wrong-typed schema)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.shuffle import write_training_shards

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    m = write_training_shards(ds, str(tmp_path / "e"), n_shards=4)
    assert sum(x["rows"] for x in m) == 0
    t = pq.read_table(m[0]["path"])
    assert t.num_rows == 0
    assert t.schema.field("doc_id").type == pa.int64()
    assert t.schema.field("text").type == pa.string()
    assert t.schema.field("shard").type == pa.int64()
    assert t.schema.field("pos").type == pa.int64()


def test_write_training_shards_file_uri(ray_session, tmp_path):
    """out_dir as a file:// URI routes through pyarrow.fs (the
    object-storage slot-in for multi-node clusters, where worker-local
    plain paths would scatter shards); bytes identical to a plain-path
    export with the same seed."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.shuffle import write_training_shards

    ds = rd.from_arrow(pa.table({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [f"doc {i}" for i in range(5)],
    }))
    m1 = write_training_shards(ds, "file://" + str(tmp_path / "u"),
                               n_shards=4, seed=3)
    m2 = write_training_shards(ds, str(tmp_path / "p"), n_shards=4, seed=3)
    assert sum(x["rows"] for x in m1) == 5
    for a, b in zip(m1, m2):
        assert a["shard"] == b["shard"] and a["rows"] == b["rows"]
        assert pq.read_table(a["path"]).equals(pq.read_table(b["path"]))


def test_packed_tokenized_export_over_articles(ray_session, pages_small,
                                               tmp_path):
    """The --bpe-vocab/--bpe-ids export shape: train BPE on extracted
    articles, write shards carrying real subword counts, encoded id
    sequences (list<int32> through the shard groupby), and pack
    assignments computed inside the same single exchange."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.pipelines.flagship import run_extract_job
    from crawtext_ray.stages.bpe import (
        add_bpe_token_counts,
        bpe_encode_docs,
        train_bpe,
    )
    from crawtext_ray.stages.shuffle import write_training_shards

    out = str(tmp_path / "arts")
    run_extract_job(pages_small, out, num_partitions=4)
    articles = rd.read_parquet(out, file_extensions=["parquet"])
    tok = train_bpe(articles, text_col="extracted_text", vocab_size=300)
    articles = add_bpe_token_counts(articles, tok,
                                    text_col="extracted_text")
    articles = bpe_encode_docs(articles, tok, text_col="extracted_text")
    manifest = write_training_shards(
        articles, str(tmp_path / "shards"), n_shards=4, key="url",
        pack_seq_len=128, n_tokens_col="n_bpe_tokens")
    assert sum(m["rows"] for m in manifest) == articles.count()
    t = pq.read_table(manifest[0]["path"]).to_pandas()
    assert len(t) > 0
    # ids round-trip the text and agree with the counts
    for _, r in t.head(5).iterrows():
        assert len(r["bpe_ids"]) == r["n_bpe_tokens"]
        assert tok.decode(list(r["bpe_ids"])) == r["extracted_text"]
    # pack assignment == exclusive cumsum over the shard's hash order
    t = t.sort_values("pos")
    prev = np.concatenate(([0], np.cumsum(t["n_bpe_tokens"])[:-1]))
    assert (t["pack_id"].to_numpy() == prev // 128).all()
    assert (t["pack_offset"].to_numpy() == prev % 128).all()
