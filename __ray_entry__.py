"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline; ``queries()`` exposes
one callable per implemented operator from SURVEY.md §2 (plus the
training-data operator set); ``oracle_sql()`` gives the DuckDB-equivalent
SQL for every SQL-expressible query (same column names; integer/string
outputs so value hashes are bit-stable). Ray is initialised by the driver
before import — nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# the driver may import this module from any cwd; the package lives next
# to this file
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_FIXTURE_ROOT = "/tmp/crawtext_ray_fixtures"


def _pages_dir(sf_dir: str) -> str:
    """Deterministic synthetic pages table (FIXTURES.md §B) — the input
    shape mandated by BASELINE.json:15, synthesized at small scale and
    cached under /tmp (driver testdata has no pages-shaped table)."""
    from fixtures.gen_pages import generate

    name = "mid" if sf_dir.rstrip("/").endswith("sf0.1") else "small"
    os.makedirs(_FIXTURE_ROOT, exist_ok=True)
    return generate(_FIXTURE_ROOT, name)


def entry() -> Any:
    """Flagship pipeline (SURVEY.md §3.1): synthetic Common-Crawl-style
    pages → decode → adblock → score → extract → articles. Smoke scale:
    1000 pages; also touches /root/testdata/sf0.001 (doc lang report
    parity input)."""
    import ray.data as rd

    from crawtext_ray.pipelines.flagship import build_articles

    # touch the driver's sf0.001 documents table (schema sanity)
    rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                    columns=["lang"]).count()

    # materialize the planted-truth fixtures up front so the oracle SQL
    # (which reads truth parquet by absolute path) works regardless of
    # whether the harness evaluates it before or after the query runs
    from fixtures.gen_linked import generate_linked

    generate_linked(_FIXTURE_ROOT)

    pages = _pages_dir("/root/testdata/sf0.001")
    articles = build_articles(pages, num_partitions=8, concurrency="tasks")
    return articles.select_columns(
        ["url", "lang", "title", "status", "n_words", "relevant"]
    )


# --------------------------------------------------------------------------


def _q_extract_articles(sf_dir: str):
    """Flagship extraction. Still ``no_oracle`` — its truth IS the
    frozen golden corpus (no SQL can re-derive the extractor) — but
    SELF-CHECKING since r5: the pipeline runs TWICE and the query
    asserts per-url byte-identity of the extracted text across runs
    (sha256 per row, compared pairwise — the determinism witness; this
    subsumes any order-independent corpus checksum). The emitted
    ``text_sha`` column also makes the driver's value-hash pin the
    extracted BYTES across rounds, not just the metadata columns.
    Scale shape: hashes are computed inside map_batches, so full text
    never reaches the driver."""
    import hashlib

    import pyarrow as pa

    from crawtext_ray.pipelines.flagship import build_articles

    def with_sha(t: pa.Table) -> pa.Table:
        shas = [
            hashlib.sha256(
                (u or "").encode() + b"\0" + (x or "").encode()
            ).hexdigest()[:16]
            for u, x in zip(t["url"].to_pylist(),
                            t["extracted_text"].to_pylist())
        ]
        return pa.table({
            "url": t["url"], "lang": t["lang"], "title": t["title"],
            "status": t["status"], "n_words": t["n_words"],
            "text_sha": pa.array(shas, pa.string()),
        })

    def run_once():
        arts = build_articles(_pages_dir(sf_dir), num_partitions=8,
                              concurrency="tasks")
        return arts.map_batches(with_sha, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()

    a, b = run_once(), run_once()
    pa_, pb_ = (d.set_index("url")["text_sha"].sort_index() for d in (a, b))
    assert pa_.equals(pb_), "per-url extracted bytes differ across reruns"
    return a


def _q_extract_reports(sf_dir: str):
    """The flagship report family over ONE extraction pass: per-language,
    per-status, and top-10-domain counts as (kind, key, n_docs) rows
    (merged from three query slots — one extract instead of three).

    ORACLE-CHECKED against the generator's planted ground truth
    (``truth_<name>/`` parquet written by fixtures/gen_pages.py — the
    expected lang/status per url, known independently of the extraction
    pipeline): lang and domain counts over all rows, status counts over
    the determinate subset (expected_status != 'any'; truncated-html
    pages may legitimately parse either way). Domain top-10 is made
    deterministic with a (count desc, domain asc) tiebreak mirrored in
    the SQL."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from crawtext_ray.pipelines.flagship import build_articles
    from crawtext_ray.stages.report import (
        report_lang,
        report_status,
        top_domains,
    )

    pages = _pages_dir(sf_dir)
    truth_dir = pages.replace("pages_", "truth_")
    arts = build_articles(
        pages, num_partitions=8, concurrency="tasks"
    ).materialize()

    # urls whose expected status the generator cannot pin (broken html)
    tru = pq.read_table(truth_dir, columns=["url", "expected_status"])
    any_urls = pa.array(sorted(
        set(tru.filter(pc.equal(tru["expected_status"], "any"))["url"]
            .to_pylist())
    ), pa.string())

    def drop_any(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t["url"], value_set=any_urls))
        )

    determinate = arts.map_batches(drop_any, batch_format="pyarrow",
                                   zero_copy_batch=True)

    def tag(ds, kind: str, key_col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "kind": pa.array([kind] * t.num_rows, pa.string()),
                "key": t[key_col].cast(pa.string()),
                "n_docs": t["n_docs"],
            })

        return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    top10 = top_domains(arts, 10)
    out = tag(report_lang(arts), "lang", "lang")
    out = out.union(tag(report_status(determinate), "status", "status"))
    return out.union(tag(top10, "domain", "domain"))


def _q_lang_id(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import text_features

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return text_features(docs).select_columns(["doc_id", "pred_lang"])


def _q_text_features(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import text_features

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return text_features(docs).select_columns(
        ["doc_id", "n_chars_calc", "n_words", "n_tokens", "mean_word_len",
         "punct_ratio", "stop_ratio", "pred_lang"]
    )


def _q_fingerprint(sf_dir: str):
    """Winnowing-style rolling fingerprint per doc. Oracle-checked: the
    Rabin-Karp window hash (base 1000003 mod 2^61-1, window 16, min over
    positions) is reproduced exactly in DuckDB HUGEINT arithmetic."""
    import ray.data as rd

    from crawtext_ray.stages.textops import text_features

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return text_features(docs).select_columns(["doc_id", "fingerprint"])


def _q_vocabulary(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import vocabulary_topk

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return vocabulary_topk(docs, k=100)


def _q_redact_pii(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import redact_pii

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return redact_pii(docs)


def _q_chunk_docs(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import chunk_documents

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return chunk_documents(docs)


def _q_relevance(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.textops import relevance_filter

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = relevance_filter(docs, '(data OR spark) AND NOT slow')
    return out.select_columns(["doc_id"])


def _q_exact_dedup(sf_dir: str):
    import ray.data as rd

    from crawtext_ray.stages.dedup import exact_dedup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return exact_dedup(docs).select_columns(["doc_id"])


def _q_minhash_dups(sf_dir: str):
    """MinHash-LSH candidates verified by exact n-gram Jaccard ≥ 0.5.
    Oracle-checked against the inverted-index Jaccard SQL: on this corpus
    every true pair sits far above the threshold (all ≥ 0.88), so 32-band
    LSH recall is total and verified output EQUALS the exact truth (the
    equality is also pinned by a pytest planted-pair test).

    The brute-force O(n²) diagnostic (formerly its own driver slot,
    ``jaccard_dups_brute``) is folded in as an in-query assertion: on
    corpora under the cap, the exact cross-product truth must equal the
    LSH+verify output pair-for-pair — merged, never dropped. The cap
    (2000 docs) covers the driver's correctness scale (sf0.01 = 500
    docs) while keeping the sf0.1 parity sweep free of the O(n²) pass —
    the same boundary the standalone diagnostic ran under."""
    import pandas as pd
    import ray.data as rd

    from crawtext_ray.stages.dedup import (
        jaccard_dups_brute,
        minhash_verified_duplicates,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = minhash_verified_duplicates(docs)
    got = out.to_pandas()
    if got.empty:
        got = pd.DataFrame({
            "doc_id_a": pd.Series([], dtype="int64"),
            "doc_id_b": pd.Series([], dtype="int64"),
            "jaccard": pd.Series([], dtype="float64"),
        })
    if docs.count() <= 2_000:  # the diagnostic is O(n²) by design
        brute = jaccard_dups_brute(docs).to_pandas()
        lsh_pairs = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
                     for _, r in got.iterrows()}
        brute_pairs = {(int(r["doc_id_a"]), int(r["doc_id_b"]), r["jaccard"])
                       for _, r in brute.iterrows()}
        assert lsh_pairs == brute_pairs, (
            f"LSH+verify != brute truth: only-lsh={lsh_pairs - brute_pairs} "
            f"only-brute={brute_pairs - lsh_pairs}"
        )
    return got


def _q_simhash_dups(sf_dir: str):
    """SimHash band candidates verified by exact n-gram Jaccard ≥ 0.8.
    Oracle-checked END TO END: the oracle SQL reproduces the Charikar
    simhash itself (md5-derived token hashes, per-bit majority, 16-bit
    quarter banding) then the same exact-Jaccard verify, so even the
    banding recall is pinned, not just the verification."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import simhash_verified_duplicates

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return simhash_verified_duplicates(docs)


def _q_embedding_dedup(sf_dir: str):
    """Embedding near-dup dedup with PLANTED ground truth: exact clones
    of vec_id < 5 are planted at vec_id + 1e6, and the LSH-bucketed
    per-pair cosine links must recall exactly those pairs (the corpus's
    random embeddings have no natural pair ≥ 0.95 —
    measured at sf0.01 and sf0.1). Identical vectors always share every
    hyperplane bucket, so recall of exact clones is deterministic.
    cosine is rounded (float32 clone similarity is 1.0 ± ulp)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from crawtext_ray.stages.similarity import embedding_dedup

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    dim = len(emb.take(1)[0]["embedding"])

    def plant(t: pa.Table) -> pa.Table:
        c = t.filter(pc.less(t["vec_id"], pa.scalar(5)))
        clones = pa.table({
            "vec_id": pc.add(c["vec_id"], pa.scalar(1_000_000)),
            "embedding": c["embedding"],
        })
        return pa.concat_tables([t, clones]).combine_chunks()

    planted = emb.map_batches(plant, batch_format="pyarrow",
                              zero_copy_batch=True)
    df = embedding_dedup(planted, dim=dim, threshold=0.95).to_pandas()
    if df.empty:
        df = pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "rep_id": pd.Series([], dtype="int64"),
            "cosine": pd.Series([], dtype="float64"),
        })
    df["cosine"] = df["cosine"].round(4)
    return df


def _q_ann_topk(sf_dir: str):
    """Approximate-NN top-k, both scale paths in one query, tagged by
    method: LSH-bucketed and IVF (k-means quantizer, streamed 512-row
    training sample).

    Still ``no_oracle`` (approximate by construction — no SQL truth),
    but BOUNDED IN-QUERY against the exact brute-force top-k (the
    ``minhash_dups_docs`` brute-assertion house pattern): for every
    query vector, (a) the query retrieves ITSELF under both methods —
    an exact property (an identical vector shares every LSH bucket; IVF
    probes its own cluster) — and (b) recall vs the exact top-10 meets
    a floor under the measured deterministic values (everything is
    seeded, so recall per sf_dir is a constant, not a distribution).
    Floors are honest to the methods on THIS corpus: the LSH path runs
    multi-probe (Hamming radius 2 → 37/256 bucket patterns, still a
    ~7x corpus prune) and measures 0.2–0.7 recall across
    sf0.001/0.01/0.1 (single-probe sign-LSH on isotropic random
    embeddings only guarantees self-retrieval, measured 0.1; the
    planted-clone regime where LSH recall is total stays pinned by
    ``embedding_dedup``), while IVF probing 4 of 16 clusters measures
    0.3–1.0.
    The brute pass is O(n·q) with q=3 — the per-batch matmul baseline,
    cheap at any driver scale, so the bound runs unconditionally."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.relational import read_query_vectors
    from crawtext_ray.stages.similarity import (
        brute_force_topk,
        ivf_topk,
        lsh_bucket_topk,
        train_ivf_centroids,
    )

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    queries = read_query_vectors(
        f"{sf_dir}/embeddings.parquet", 3, dtype=np.float32
    )
    dim = queries["matrix"].shape[1]
    lsh = lsh_bucket_topk(emb, queries, dim=dim, multiprobe=2)
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=512, columns=["embedding"]))
    sample = np.asarray(first.column(0).to_pylist(), dtype=np.float32)
    cents = train_ivf_centroids(sample)
    ivf = ivf_topk(emb, queries, cents)

    def tag(method):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "method", pa.array([method] * t.num_rows, pa.string())
            )

        return fn

    got = lsh.map_batches(tag("lsh"), batch_format="pyarrow").union(
        ivf.map_batches(tag("ivf"), batch_format="pyarrow")
    ).to_pandas()

    exact = brute_force_topk(emb, queries).to_pandas()
    for qid in queries["query_id"]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        for method, floor in (("lsh", 0.2), ("ivf", 0.3)):
            a = set(got[(got["query_id"] == qid)
                        & (got["method"] == method)]["vec_id"])
            assert qid in a, f"{method}: query {qid} failed self-retrieval"
            recall = len(a & e) / len(e)
            assert recall >= floor, (
                f"{method}: recall {recall:.2f} < {floor} for query {qid}"
            )
    return got


def _q_pdf_extract(sf_dir: str):
    """PDF/layout parse leg (north rule): documents.text synthesized into
    real single-page Flate PDFs, extracted back by the from-scratch PDF
    parser (rows-only: text round-trip is asserted in tests/test_pdf.py)."""
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.extract.pdf import make_pdf
    from crawtext_ray.stages.pdf_stage import extract_pdf_texts

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def to_pdf(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(
                    [make_pdf([(t or "")[:2000]]) for t in batch["text"].to_pylist()],
                    pa.binary(),
                ),
            }
        )

    pdfs = docs.map_batches(to_pdf, batch_format="pyarrow", zero_copy_batch=True)
    return extract_pdf_texts(pdfs).select_columns(
        ["doc_id", "n_pages", "pdf_status", "n_chars"]
    )


def _q_approx_distinct_users(sf_dir: str):
    """HyperLogLog distinct-user estimate. Still ``no_oracle`` (the
    estimate has no SQL analog), but BOUNDED IN-QUERY: the exact
    COUNT(DISTINCT user_id) — the same keyed-count ``global_event_stats``
    already oracle-proves — is recomputed here and the estimate must sit
    within the sketch's documented error (3σ of the 1.04/√m standard
    error at p=12, i.e. ±4.9%, floor of 2 for tiny corpora). Distributed
    build: per-block register partials, max-merged driver-side (O(4096)
    bytes, never O(keys))."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Count

    from crawtext_ray.state.hll import build_hll

    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    h = build_hll(events, "user_id")
    est = float(h.estimate())
    exact = (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .groupby("user_id").aggregate(Count(alias_name="n")).count()
    )
    tol = max(3 * (1.04 / (2 ** 12) ** 0.5) * exact, 2.0)
    assert abs(est - exact) <= tol, (
        f"HLL estimate {est} vs exact {exact}: outside ±{tol:.1f}"
    )
    return pd.DataFrame({"approx_distinct": [est]})


def _q_doc_reports(sf_dir: str):
    """A1/A2/T1/U2 report family in one slot (merged from the
    ``report_lang`` + ``report_source`` + ``top_sources`` +
    ``distinct_langs`` quartet — every operator still runs in full):
    per-language counts, per-source counts, top-5 sources with the
    deterministic (count desc, source asc) tiebreak, and the distinct
    language set, tagged by kind."""
    import pandas as pd

    from crawtext_ray.stages import relational as R

    lang = R.report_lang_docs(sf_dir).to_pandas().rename(
        columns={"lang": "key"})
    lang.insert(0, "kind", "lang")
    src = R.report_source_docs(sf_dir).to_pandas().rename(
        columns={"source": "key"})
    src.insert(0, "kind", "source")
    top = R.top_sources(sf_dir).to_pandas().rename(
        columns={"source": "key"})
    top.insert(0, "kind", "top_source")
    dl = R.distinct_langs(sf_dir).to_pandas().rename(
        columns={"lang": "key"})
    dl.insert(0, "kind", "distinct_lang")
    dl["n_docs"] = 1
    return pd.concat([lang, src, top, dl], ignore_index=True)


def _q_event_time_rollups(sf_dir: str):
    """Date bucketing + two-key (type, day) rollups in one slot (merged
    from ``date_buckets`` + ``events_by_type_day``; both bounded-key
    tallies still run in full)."""
    import pandas as pd

    from crawtext_ray.stages import relational as R

    day = R.date_buckets_events(sf_dir).to_pandas()
    day.insert(0, "kind", "day")
    day.insert(1, "key", "")
    td = R.events_by_type_day(sf_dir).to_pandas().rename(
        columns={"event_type": "key"})
    td.insert(0, "kind", "type_day")
    return pd.concat([day, td], ignore_index=True)


def _q_dedup_paragraphs(sf_dir: str):
    """Corpus-wide paragraph-level exact dedup with PLANTED shared
    paragraphs (a global footer on every 3rd doc, five promo variants)
    rebuilt identically by the hash-free text-keyed SQL oracle — a
    match also witnesses md5-collision-freeness on this corpus."""
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.dedup import dedup_paragraphs

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
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
    return dedup_paragraphs(lined, min_chars=1)


def _q_shuffle_shards(sf_dir: str):
    """Deterministic shuffle-shard assignment (training-export layout):
    one md5 hash per row decides BOTH the shard and the in-shard
    position — reproduced exactly by the SQL window oracle."""
    import ray.data as rd

    from crawtext_ray.stages.shuffle import shuffle_shards

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    return shuffle_shards(docs, n_shards=8)


def _q_pack_sequences(sf_dir: str):
    """GPT-style sequence-packing assignment over the shuffle order
    (pack id + in-pack offset from the per-shard exclusive token
    cumsum), reproduced by the SQL window oracle."""
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.shuffle import pack_sequences

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    docs = docs.map_batches(
        lambda t: t.rename_columns(["doc_id", "n_tokens"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return pack_sequences(docs, seq_len=4096, n_shards=4, seed=1)


def _q_corpus_data_card(sf_dir: str):
    """Per-language corpus data card (docs/tokens/chars + mean doc
    tokens) — the training-mix planning table, one shuffle-free pass."""
    import ray.data as rd

    from crawtext_ray.stages.textops import corpus_data_card

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    return corpus_data_card(docs)


def _q_set_ops(sf_dir: str):
    """U1/U2 set operations in one slot (merged from the
    ``union_clicks_views`` + ``users_click_and_purchase`` pair — both
    operators still run in full): UNION ALL of click/view event ids and
    INTERSECT of clicking-and-purchasing user ids, tagged by kind."""
    import pyarrow as pa

    from crawtext_ray.stages import relational as R

    def tag(ds, kind: str, id_col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "kind": pa.array([kind] * t.num_rows, pa.string()),
                "id": t[id_col].cast(pa.int64()),
            })

        return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    u = tag(R.union_clicks_views(sf_dir), "click_or_view_event", "event_id")
    i = tag(R.users_click_and_purchase(sf_dir), "click_and_purchase_user",
            "user_id")
    return u.union(i)


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination flags (the eval-overlap drop step of an
    LLM training-data pipeline): the benchmark is derived from the corpus
    itself — the first 200 chars of every 97th document — so the SQL
    oracle can rebuild the exact same eval set and the planted overlaps
    are guaranteed. The operator probes a broadcast hashed 8-gram set;
    the oracle intersects the grams as strings (hash-collision-free), so
    the match also witnesses collision-freeness on this corpus."""
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.textops import contamination_flags

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 97 == 0))

    bench_rows = docs.map_batches(pick, batch_format="pyarrow",
                                  zero_copy_batch=True).take_all()
    benchmark = [(r["text"] or "")[:200] for r in bench_rows]
    return contamination_flags(docs, benchmark)


def _q_repetition_stats(sf_dir: str):
    """Within-document repetition measures (Gopher/C4 duplicate-line
    gates). Corpus texts are single-line, so sentences are split onto
    lines first ('. ' → '.\\n', mirrored in the SQL) to exercise the
    line machinery on real multi-line documents."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from crawtext_ray.stages.textops import repetition_stats

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def to_lines(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pc.replace_substring(t["text"], ". ", ".\n"),
        })

    lined = docs.map_batches(to_lines, batch_format="pyarrow",
                             zero_copy_batch=True)
    return repetition_stats(lined)


def _q_unigram_lm(sf_dir: str):
    """Unigram-LM cross-entropy quality scores (CCNet-shape): map-side
    trained token model (top-1000 vocab, Lidstone 0.5, shared OOV
    bucket) broadcast once, vectorized streaming scorer. nll rounded to
    4 dp on both sides: summation order differs between numpy and the
    SQL aggregate at ~1e-15, and the driver's checker hash-compares with
    no tolerance, so the only defense is a boundary-collision margin —
    at 4 dp the odds of the noise straddling a 0.5e-4 rounding boundary
    are ~1e-11/row (vs ~1e-9 at 6 dp). The definition itself is pinned
    exactly by the pytest differential against an independent model."""
    import ray.data as rd

    from crawtext_ray.stages.textops import unigram_lm_scores

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    df = unigram_lm_scores(docs, vocab_size=1000).to_pandas()
    df["nll"] = df["nll"].round(4)
    return df


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights toward a target subset SQL can rebuild
    (``doc_id % 5 = 0``): per-document ``nll_background − nll_target``
    under two Lidstone unigram models (top-1000 vocab, alpha 0.5, one
    shared OOV bucket), the background being the whole table. dsir_logw
    is rounded to 4 dp on both sides for the reason ``_q_unigram_lm``
    gives: the two nll sums differ from the SQL aggregate's at ~1e-15,
    the checker compares with no tolerance, and at 4 dp a
    rounding-boundary straddle is ~1e-11/row."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from crawtext_ray.stages.textops import dsir_weights

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    target = docs.map_batches(
        lambda t: t.filter(pa.array(
            t["doc_id"].to_numpy(zero_copy_only=False) % 5 == 0)),
        batch_format="pyarrow", zero_copy_batch=True)
    df = dsir_weights(docs, target, vocab_size=1000).select_columns(
        ["doc_id", "dsir_logw"]).to_pandas()
    df["dsir_logw"] = np.round(df["dsir_logw"], 4)
    return df


def _q_stratified_sample(sf_dir: str):
    """Per-stratum quota sampling (language rebalancing): keep a row iff
    the first two md5 bytes of its id fall under the stratum's rate —
    deterministic, so the SQL oracle selects the identical rows."""
    import ray.data as rd

    from crawtext_ray.stages.textops import stratified_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    rates = {"en": 0.25, "zh": 0.0, "fr": 1.0}
    return stratified_sample(docs, rates, default_rate=0.5)


def _q_bfs_crawl(sf_dir: str):
    """T2 BFS over a PLANTED link graph with generator-computed ground
    truth (fixtures/gen_linked.py): the generator plants each page's
    ``<a href>`` targets (tree + cross edges, dangling urls, in-page
    duplicates) and computes the reachable (url, depth) set by plain
    graph BFS over that adjacency — independent of the code under test.
    The query runs the full chain (HTML render → outlink extraction →
    canonicalization → frontier anti-join → depth rounds) and must
    reproduce exactly the planted set. ORACLE-CHECKED (was rows-only)."""
    import pandas as pd
    import ray.data as rd

    from crawtext_ray.stages.frontier import bfs_crawl
    from fixtures.gen_linked import generate_linked, node_url

    pages = rd.read_parquet(generate_linked(_FIXTURE_ROOT),
                            file_extensions=["parquet"])
    rounds, _seen = bfs_crawl(pages, [node_url(0)])
    parts = []
    for depth, arts in enumerate(rounds):
        urls = arts.select_columns(["url"]).to_pandas()
        urls["depth"] = depth
        parts.append(urls)
    out = pd.concat(parts, ignore_index=True)
    out["depth"] = out["depth"].astype("int64")
    return out


def queries() -> dict[str, Callable[[str], Any]]:
    from crawtext_ray.stages import relational as R

    # EXACTLY 50 entries (the driver's correctness harness runs the first
    # 50 in dict order): all 47 oracle-backed queries first, then the 3
    # rows-only ones. Redundant slots were merged, never dropped:
    # word_counts+quality_ints → doc_stats; window_running/lag/sliding →
    # window_funcs; distinct_users_count → global_event_stats column;
    # ann_lsh_topk+ann_ivf_topk → ann_topk (method column); the extract
    # report trio → extract_reports (kind column, now oracle-checked
    # against generator truth); union_clicks_views+users_click_and_purchase
    # → set_ops_events (kind column); jaccard_dups_brute → an in-query
    # equality assertion inside minhash_dups_docs;
    # report_lang+report_source+top_sources+distinct_langs → doc_reports
    # (kind column); date_buckets+events_by_type_day →
    # event_time_rollups (kind column). The freed slots carry the
    # curation/export operators (decontamination, repetition stats,
    # unigram-LM scoring, stratified sampling, paragraph dedup,
    # shuffle-sharding, sequence packing, the corpus data card, DSIR
    # weights), each oracle-backed.
    return {
        # A1/A2/T1/U2 report family, one kind-tagged slot (oracle-checked)
        "doc_reports": _q_doc_reports,
        # J2 dedup + filters (oracle-checked)
        "dedup_events_first": R.dedup_events_first,
        "filter_events": R.filter_events,
        # scalar fns (oracle-checked)
        "doc_stats": R.doc_stats_docs,
        "json_extract": R.json_extract_events,
        "event_time_rollups": _q_event_time_rollups,
        "window_hourly": R.window_hourly_events,
        "user_event_stats": R.user_event_stats,
        # joins (oracle-checked)
        "orders_by_segment": R.orders_by_segment_broadcast,
        "orders_join_native": R.orders_join_native,
        # lineitem scans (oracle-checked)
        "q1_counts": R.q1_counts_lineitem,
        "shipped_before": R.shipped_before,
        # window functions, one grouped pass (oracle-checked)
        "window_funcs": R.window_funcs_events,
        # sort / star join / stats (oracle-checked)
        "top_events": R.top_events_by_value,
        "customers_per_region": R.customers_per_region,
        "median_chars": R.median_chars_by_lang,
        # global aggregate (+ exact distinct users) + set ops (oracle-checked)
        "global_event_stats": R.global_event_stats,
        "set_ops_events": _q_set_ops,
        # similarity: exact top-k (oracle-checked)
        "embedding_topk": R.embedding_topk_exact,
        # dedup family over documents (ALL oracle-checked: exact dedup,
        # verified minhash/simhash near-dup with the brute diagnostic
        # asserted in-query, planted embedding dedup)
        "exact_dedup_docs": _q_exact_dedup,
        "minhash_dups_docs": _q_minhash_dups,
        "simhash_dups_docs": _q_simhash_dups,
        "embedding_dedup": _q_embedding_dedup,
        # text analysis (oracle-checked, incl. the rolling fingerprint)
        "relevance_match": _q_relevance,
        "lang_id_docs": _q_lang_id,
        "text_features_docs": _q_text_features,
        "fingerprint_docs": _q_fingerprint,
        "sample_docs": R.sample_docs_deterministic,
        "sessionize_events": R.sessionize_events,
        "top_events_per_user": R.top_events_per_user,
        "asof_click_before_purchase": R.asof_click_before_purchase,
        "redact_pii_docs": _q_redact_pii,
        "vocabulary_topk": _q_vocabulary,
        "chunk_docs": _q_chunk_docs,
        "parts_by_brand_nation": R.parts_by_brand_nation,
        # LLM-curation operators (oracle-checked; freed-slot additions)
        "decontaminate_docs": _q_decontaminate,
        "repetition_stats_docs": _q_repetition_stats,
        "unigram_lm_docs": _q_unigram_lm,
        "stratified_sample_docs": _q_stratified_sample,
        "dedup_paragraphs_docs": _q_dedup_paragraphs,
        "shuffle_shards_docs": _q_shuffle_shards,
        "pack_sequences_docs": _q_pack_sequences,
        "corpus_data_card": _q_corpus_data_card,
        # DSIR importance weights toward a doc_id-defined target subset
        "dsir_weights_docs": _q_dsir_weights,
        "pdf_extract": _q_pdf_extract,
        # flagship pipelines with planted generator truth (oracle-checked)
        "extract_reports": _q_extract_reports,
        "bfs_crawl_pages": _q_bfs_crawl,
        # ---- rows-only tail (3): non-SQL or approximate by construction
        "extract_articles": _q_extract_articles,
        "ann_topk": _q_ann_topk,
        "approx_distinct_users": _q_approx_distinct_users,
    }


def _sw_list_sql(lang: str) -> str:
    from crawtext_ray.extract.stopwords import stopword_set

    words = sorted(stopword_set(lang))
    return ", ".join("'" + w.replace("'", "''") + "'" for w in words)


def _en_stopword_list_sql() -> str:
    return _sw_list_sql("en")


def _lang_hits_sql() -> tuple[str, str]:
    """(hit-count column SQL, argmax CASE SQL) reproducing
    functions.text.language_id: first language in LANGID_LANGUAGES order
    reaching the max stopword-hit count (strict > while scanning)."""
    from crawtext_ray.extract.stopwords import LANGID_LANGUAGES

    hit_cols = ", ".join(
        f"length(list_filter(toks, x -> x IN ({_sw_list_sql(l)}))) AS h_{l}"
        for l in LANGID_LANGUAGES
    )
    mx = "greatest(" + ", ".join(f"h_{l}" for l in LANGID_LANGUAGES) + ")"
    case = (
        "CASE WHEN COALESCE(CAST(length(regexp_extract_all(text, "
        r"'[\x{4e00}-\x{9fff}]')) AS DOUBLE) "
        "/ NULLIF(length(text), 0), 0) > 0.25 THEN 'zh' "
        f"WHEN len(toks) = 0 THEN 'und' WHEN {mx} = 0 THEN 'und' "
        + " ".join(f"WHEN h_{l} = {mx} THEN '{l}'" for l in LANGID_LANGUAGES)
        + " ELSE 'und' END"
    )
    return hit_cols, case


def _grams_sql(n: int) -> str:
    """SQL expression building a doc's distinct word ``n``-gram list from
    a ``toks`` column — the string analog of dedup._shingle_array
    (shorter-than-n docs contribute their whole-token-list gram)."""
    window = " || ' ' || ".join(
        f"toks[i+{j}]" if j else "toks[i]" for j in range(n)
    )
    return (
        "CASE WHEN len(toks) = 0 THEN [] "
        f"WHEN len(toks) < {n} THEN [array_to_string(toks, ' ')] "
        "ELSE list_distinct(list_transform("
        f"generate_series(1, len(toks) - {n - 1}), i -> {window})) END"
    )


def oracle_sql() -> dict[str, str]:
    en_sw = _en_stopword_list_sql()
    hit_cols, lang_case = _lang_hits_sql()
    _TOKS = (
        "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), "
        "x -> x <> '')"
    )
    _LANG_ID_SQL = (
        f"WITH t AS (SELECT doc_id, text, {_TOKS} AS toks FROM documents), "
        f"h AS (SELECT doc_id, text, toks, {hit_cols} FROM t) "
        f"SELECT doc_id, {lang_case} AS pred_lang FROM h"
    )
    _N_STOP = (
        "CASE "
        f"WHEN lang = 'fr' THEN length(list_filter(toks, x -> x IN ({_sw_list_sql('fr')}))) "
        f"WHEN lang = 'de' THEN length(list_filter(toks, x -> x IN ({_sw_list_sql('de')}))) "
        f"WHEN lang = 'es' THEN length(list_filter(toks, x -> x IN ({_sw_list_sql('es')}))) "
        f"ELSE length(list_filter(toks, x -> x IN ({en_sw}))) END"
    )
    _TEXT_FEATURES_SQL = (
        f"WITH t AS (SELECT doc_id, text, lang, {_TOKS} AS toks FROM documents), "
        f"h AS (SELECT doc_id, text, toks, {hit_cols}, "
        f"{_N_STOP} AS n_stop, "
        r"regexp_extract_all(text, '\S+') AS words, "
        r"length(regexp_extract_all(text, '[^\p{L}\p{N}_\s]')) AS n_punct "
        "FROM t) "
        "SELECT doc_id, length(text) AS n_chars_calc, len(words) AS n_words, "
        r"length(regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_\s]')) AS n_tokens, "
        "COALESCE(CAST(list_sum(list_transform(words, w -> length(w))) AS DOUBLE) "
        "/ NULLIF(len(words), 0), 0.0) AS mean_word_len, "
        "COALESCE(CAST(n_punct AS DOUBLE) / NULLIF(length(text), 0), 0.0) AS punct_ratio, "
        "COALESCE(CAST(n_stop AS DOUBLE) / NULLIF(len(toks), 0), 0.0) AS stop_ratio, "
        f"{lang_case} AS pred_lang FROM h"
    )
    # Rabin-Karp rolling fingerprint (functions.text.rolling_fingerprint):
    # min over 16-char windows of sum(ord(c_j) * B^(15-j)) mod 2^61-1,
    # computed positionally in HUGEINT (terms < 2^68, sums < 2^72 — no
    # overflow; validated equal to the Python kernel on the corpus).
    _FP_B, _FP_M = 1_000_003, (1 << 61) - 1
    _FP_POWS = "[" + ", ".join(
        f"CAST({pow(_FP_B, k, _FP_M)} AS HUGEINT)" for k in range(16)
    ) + "]"
    _FINGERPRINT_SQL = (
        "WITH t AS (SELECT doc_id, text, least(length(text), 16) AS k "
        "FROM documents) "
        "SELECT doc_id, CASE WHEN length(text) = 0 THEN 0 ELSE "
        "CAST(list_min(list_transform(generate_series(1, length(text) - k + 1), "
        "i -> list_sum(list_transform(generate_series(0, k - 1), "
        "j -> CAST(ascii(substr(text, CAST(i + j AS INT), 1)) AS HUGEINT) "
        f"* ({_FP_POWS})[k - j])) "
        f"% CAST({_FP_M} AS HUGEINT))) AS BIGINT) END AS fingerprint FROM t"
    )
    return {
        "doc_reports": (
            "SELECT 'lang' AS kind, lang AS key, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang "
            "UNION ALL SELECT 'source' AS kind, source AS key, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY source "
            "UNION ALL SELECT 'top_source' AS kind, key, n_docs FROM ("
            "SELECT source AS key, CAST(count(*) AS BIGINT) AS n_docs "
            "FROM documents GROUP BY source "
            "ORDER BY n_docs DESC, source LIMIT 5) "
            "UNION ALL SELECT 'distinct_lang' AS kind, lang AS key, "
            "CAST(1 AS BIGINT) AS n_docs "
            "FROM (SELECT DISTINCT lang FROM documents)"
        ),
        "dedup_events_first": (
            "SELECT user_id, event_id, event_type FROM ("
            "  SELECT user_id, event_id, event_type,"
            "         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn"
            "  FROM events) WHERE rn = 1"
        ),
        "filter_events": (
            "SELECT event_id FROM events "
            "WHERE event_type = 'click' AND value >= 50.0"
        ),
        "doc_stats": (
            "WITH t AS (SELECT doc_id, text, "
            "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') AS toks "
            "FROM documents) "
            "SELECT doc_id, length(text) AS n_chars_calc, "
            r"length(regexp_extract_all(text, '\S+')) AS n_words, "
            r"length(regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_\s]')) AS n_tokens, "
            r"length(regexp_extract_all(text, '[^A-Za-z0-9_\s]')) AS n_punct, "
            f"length(list_filter(toks, x -> x IN ({en_sw}))) AS n_stop "
            "FROM t"
        ),
        "json_extract": (
            "SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) AS k_val "
            "FROM events"
        ),
        "event_time_rollups": (
            "SELECT 'day' AS kind, '' AS key, strftime(ts, '%Y-%m-%d') AS day, "
            "CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY 3 "
            "UNION ALL SELECT 'type_day' AS kind, event_type AS key, "
            "strftime(ts, '%Y-%m-%d') AS day, "
            "CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY 2, 3"
        ),
        "window_hourly": (
            "SELECT user_id, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00') AS window_start, "
            "count(*) AS n_events FROM events GROUP BY 1, 2"
        ),
        "user_event_stats": (
            "SELECT user_id, count(*) AS n_events, min(event_id) AS min_event_id, "
            "max(event_id) AS max_event_id FROM events GROUP BY user_id"
        ),
        "orders_by_segment": (
            "SELECT c_mktsegment, count(*) AS n_orders FROM orders "
            "JOIN customer ON o_custkey = c_custkey GROUP BY 1"
        ),
        "orders_join_native": (
            "SELECT o_orderpriority, c_mktsegment, count(*) AS n FROM orders "
            "JOIN customer ON o_custkey = c_custkey GROUP BY 1, 2"
        ),
        "q1_counts": (
            "SELECT l_returnflag, l_linestatus, CAST(sum(l_quantity) AS BIGINT) AS sum_qty, "
            "count(*) AS count_order FROM lineitem GROUP BY 1, 2"
        ),
        "shipped_before": (
            "SELECT l_orderkey, l_linenumber FROM lineitem "
            "WHERE l_shipdate < TIMESTAMP '1996-01-01'"
        ),
        "window_funcs": (
            "SELECT event_id, "
            "row_number() OVER w AS event_seq, "
            "COALESCE(lag(event_id) OVER w, -1) AS prev_event_id, "
            "count(*) OVER (PARTITION BY user_id ORDER BY ts "
            "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS n_last_hour "
            "FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "top_events": (
            "SELECT event_id FROM events ORDER BY value DESC, event_id LIMIT 100"
        ),
        "customers_per_region": (
            "SELECT r_name, n_name, count(*) AS n_customers FROM customer "
            "JOIN nation ON c_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey GROUP BY 1, 2"
        ),
        "median_chars": (
            "SELECT lang, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS median_chars "
            "FROM documents GROUP BY lang"
        ),
        "global_event_stats": (
            "SELECT count(*) AS n_events, min(event_id) AS min_event_id, "
            "max(event_id) AS max_event_id, "
            "count(DISTINCT user_id) AS n_distinct_users FROM events"
        ),
        "set_ops_events": (
            "SELECT 'click_or_view_event' AS kind, event_id AS id "
            "FROM events WHERE event_type = 'click' "
            "UNION ALL SELECT 'click_or_view_event' AS kind, event_id AS id "
            "FROM events WHERE event_type = 'view' "
            "UNION ALL SELECT 'click_and_purchase_user' AS kind, user_id AS id "
            "FROM (SELECT user_id FROM events WHERE event_type = 'click' "
            "INTERSECT SELECT user_id FROM events WHERE event_type = 'purchase')"
        ),
        "embedding_topk": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 3), "
            "s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS sim "
            "      FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            '      row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS "rank" FROM s) '
            'SELECT query_id, vec_id, "rank" FROM r WHERE "rank" <= 10'
        ),
        "relevance_match": (
            "WITH t AS (SELECT doc_id, "
            "regexp_split_to_array(lower(text), '[^a-z0-9]+') AS toks FROM documents) "
            "SELECT doc_id FROM t WHERE (list_contains(toks, 'data') OR "
            "list_contains(toks, 'spark')) AND NOT list_contains(toks, 'slow')"
        ),
        "exact_dedup_docs": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "sample_docs": (
            "SELECT doc_id, lang FROM documents "
            "WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '19'"
        ),
        "sessionize_events": (
            "SELECT event_id, CAST(SUM(CASE WHEN prev_ts IS NULL "
            "OR ts - prev_ts > INTERVAL 30 MINUTE THEN 1 ELSE 0 END) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq "
            "FROM (SELECT event_id, user_id, ts, lag(ts) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts "
            "FROM events)"
        ),
        "top_events_per_user": (
            'SELECT user_id, event_id, "rank" FROM ('
            "SELECT user_id, event_id, row_number() OVER "
            "(PARTITION BY user_id ORDER BY value DESC, event_id) AS \"rank\" "
            'FROM events) WHERE "rank" <= 3'
        ),
        "asof_click_before_purchase": (
            "WITH c AS (SELECT p.event_id, k.event_id AS click_event_id, "
            "row_number() OVER (PARTITION BY p.event_id "
            "ORDER BY k.ts DESC, k.event_id DESC) AS rn "
            "FROM events p JOIN events k ON k.user_id = p.user_id "
            "AND k.event_type = 'click' AND k.ts <= p.ts "
            "WHERE p.event_type = 'purchase') "
            "SELECT event_id, click_event_id FROM c WHERE rn = 1"
        ),
        "vocabulary_topk": (
            "WITH t AS (SELECT list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') "
            "AS toks FROM documents) "
            "SELECT tok AS token, CAST(count(*) AS BIGINT) AS n "
            "FROM t, UNNEST(toks) AS u(tok) "
            "GROUP BY tok ORDER BY n DESC, token LIMIT 100"
        ),
        "redact_pii_docs": (
            "SELECT doc_id, regexp_replace(regexp_replace(text, "
            r"'[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'), "
            r"'\+?[0-9][0-9\-\s]{7,}[0-9]', '[PHONE]', 'g') AS clean_text "
            "FROM documents"
        ),
        "chunk_docs": (
            r"WITH t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks "
            "FROM documents) "
            "SELECT doc_id, k + 1 AS chunk_id, "
            "array_to_string(toks[(k*48 + 1):least(k*48 + 64, len(toks))], ' ') "
            "AS chunk_text "
            "FROM t, UNNEST(generate_series(0, "
            "CAST(floor((len(toks) - 1) / 48) AS BIGINT))) AS u(k) "
            "WHERE len(toks) >= 1"
        ),
        "lang_id_docs": _LANG_ID_SQL,
        "text_features_docs": _TEXT_FEATURES_SQL,
        # verified-minhash near-dup: on this corpus LSH recall is total
        # (all true pairs ≥ 0.88 jaccard vs threshold 0.5; pinned by a
        # pytest planted-pair equality test), so the exact Jaccard truth
        # IS the oracle — computed by an INVERTED-INDEX join (shingle →
        # pair → shared count), near-linear instead of the brute O(n²)
        # cross join (validated equal to the cross join at sf0.01; runs
        # sf0.1 in seconds, so this oracle needs no scale skip).
        "minhash_dups_docs": (
            "WITH t AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') AS toks "
            "FROM documents), "
            "s AS (SELECT doc_id, CASE WHEN len(toks) = 0 THEN [] "
            "WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')] "
            "ELSE list_distinct(list_transform(generate_series(1, len(toks) - 2), "
            "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) END AS sh FROM t), "
            "u AS (SELECT doc_id, unnest(sh) AS g FROM s), "
            "p AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS shared "
            "FROM u a JOIN u b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2), "
            "sz AS (SELECT doc_id, len(sh) AS n FROM s), "
            "j AS (SELECT da AS doc_id_a, db AS doc_id_b, "
            "CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) AS jaccard "
            "FROM p JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db "
            "UNION ALL SELECT a.doc_id, b.doc_id, 1.0 "
            "FROM s a JOIN s b ON a.doc_id < b.doc_id "
            "AND len(a.sh) = 0 AND len(b.sh) = 0) "
            "SELECT doc_id_a, doc_id_b, jaccard FROM j WHERE jaccard >= 0.5"
        ),
        # verified-simhash near-dup, reproduced END TO END: md5-derived
        # 64-bit token hashes (top 16 hex chars), Charikar per-bit
        # majority, the four 16-bit quarter band keys (band id folded as
        # top bits), band-collision candidates, exact-Jaccard ≥ 0.8
        # verification — bit-identical to crawtext_ray.stages.dedup.
        "simhash_dups_docs": (
            "WITH t AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') AS toks "
            "FROM documents), "
            "tok AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
            "h AS (SELECT doc_id, CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS th FROM tok), "
            "bits AS (SELECT doc_id, b, SUM(CASE WHEN (th >> CAST(b AS UBIGINT)) & 1 = 1 "
            "THEN 1 ELSE -1 END) AS v "
            "FROM h, UNNEST(generate_series(0, 63)) AS g(b) GROUP BY doc_id, b), "
            "bandq AS (SELECT doc_id, b // 16 AS q, "
            "SUM(CASE WHEN v > 0 THEN (CAST(1 AS BIGINT) << (b % 16)) ELSE 0 END) AS quarter "
            "FROM bits GROUP BY doc_id, b // 16), "
            "allq AS (SELECT t.doc_id, g.q, COALESCE(bq.quarter, 0) AS quarter "
            "FROM t CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS q) g "
            "LEFT JOIN bandq bq ON bq.doc_id = t.doc_id AND bq.q = g.q), "
            "bandk AS (SELECT doc_id, CAST(quarter | (q << 16) AS BIGINT) AS bk FROM allq), "
            "cand AS (SELECT DISTINCT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b "
            "FROM bandk a JOIN bandk b ON a.bk = b.bk AND a.doc_id < b.doc_id), "
            "sh2 AS (SELECT doc_id, CASE WHEN len(toks) = 0 THEN [] "
            "WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')] "
            "ELSE list_distinct(list_transform(generate_series(1, len(toks) - 2), "
            "i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) END AS sh FROM t) "
            "SELECT doc_id_a, doc_id_b, jaccard FROM (SELECT c.doc_id_a, c.doc_id_b, "
            "CASE WHEN len(a.sh) = 0 AND len(b.sh) = 0 THEN 1.0 "
            "WHEN len(a.sh) = 0 OR len(b.sh) = 0 THEN 0.0 "
            "ELSE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) "
            "/ len(list_distinct(list_concat(a.sh, b.sh))) END AS jaccard "
            "FROM cand c JOIN sh2 a ON a.doc_id = c.doc_id_a "
            "JOIN sh2 b ON b.doc_id = c.doc_id_b) "
            "WHERE jaccard >= 0.8"
        ),
        # planted ground truth: the query plants exact clones of
        # vec_id < 5 at vec_id + 1e6; the corpus's random embeddings have
        # no natural pair ≥ 0.95 (measured at sf0.01 and sf0.1), and
        # identical vectors share every LSH bucket deterministically, so
        # the dedup machinery must recall exactly the planted pairs.
        "embedding_dedup": (
            "SELECT vec_id + 1000000 AS vec_id, vec_id AS rep_id, "
            "1.0 AS cosine FROM embeddings WHERE vec_id < 5"
        ),
        "fingerprint_docs": _FINGERPRINT_SQL,
        # make_pdf round-trip: single-page Flate PDF of text[:2000]; the
        # extractor returns lines stripped, empties dropped, joined by
        # newline (ASCII corpus — verified: no tabs/CR/non-ASCII).
        "pdf_extract": (
            "WITH t AS (SELECT doc_id, substr(text, 1, 2000) AS t2 FROM documents), "
            "l AS (SELECT doc_id, list_filter(list_transform("
            "string_split(t2, chr(10)), x -> trim(x)), x -> x <> '') AS ls FROM t) "
            "SELECT doc_id, CAST(1 AS BIGINT) AS n_pages, "
            "CASE WHEN len(ls) > 0 THEN 'ok' ELSE 'unsupported' END AS pdf_status, "
            "CAST(length(array_to_string(ls, chr(10))) AS BIGINT) AS n_chars FROM l"
        ),
        "parts_by_brand_nation": (
            "SELECT p_brand, n_name, count(*) AS n_items, "
            "CAST(sum(l_quantity) AS BIGINT) AS sum_qty "
            "FROM lineitem JOIN part ON l_partkey = p_partkey "
            "JOIN supplier ON l_suppkey = s_suppkey "
            "JOIN nation ON s_nationkey = n_nationkey GROUP BY 1, 2"
        ),
        # decontamination: benchmark = first 200 chars of every 97th doc,
        # grams intersected as STRINGS (hash-collision-free), so a match
        # also witnesses the hashed probe's collision-freeness here
        "decontaminate_docs": (
            "WITH t AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') "
            "AS toks FROM documents), "
            f"g AS (SELECT doc_id, {_grams_sql(8)} AS sh FROM t), "
            "bt AS (SELECT list_filter(regexp_split_to_array("
            "lower(substr(text, 1, 200)), '[^a-z0-9]+'), x -> x <> '') AS toks "
            "FROM documents WHERE doc_id % 97 = 0), "
            f"bg AS (SELECT {_grams_sql(8)} AS sh FROM bt), "
            "bench AS (SELECT DISTINCT gr FROM bg, UNNEST(sh) AS u(gr)), "
            "hits AS (SELECT dg.doc_id, count(*) AS n FROM "
            "(SELECT doc_id, unnest(sh) AS gr FROM g) dg "
            "JOIN bench ON bench.gr = dg.gr GROUP BY dg.doc_id) "
            "SELECT t.doc_id, CAST(COALESCE(h.n, 0) AS BIGINT) AS n_hits, "
            "COALESCE(h.n, 0) > 0 AS contaminated "
            "FROM t LEFT JOIN hits h ON h.doc_id = t.doc_id"
        ),
        # repetition measures over sentence-split lines ('. ' -> '.\n',
        # mirroring the query's transform)
        "repetition_stats_docs": (
            "WITH src AS (SELECT doc_id, replace(text, '. ', '.' || chr(10)) "
            "AS text FROM documents), "
            "lines AS (SELECT doc_id, ln FROM (SELECT doc_id, "
            "unnest(string_split(text, chr(10))) AS ln FROM src) "
            "WHERE ln <> ''), "
            "per_line AS (SELECT doc_id, ln, count(*) AS c FROM lines "
            "GROUP BY doc_id, ln), "
            "agg AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_lines, "
            "1.0 - CAST(count(*) AS DOUBLE) / sum(c) AS dup_line_frac, "
            "CAST(coalesce(sum(CASE WHEN c > 1 THEN length(ln) * c END), 0) "
            "AS DOUBLE) / sum(length(ln) * c) AS dup_char_frac "
            "FROM per_line GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(a.n_lines, 0) AS n_lines, "
            "COALESCE(a.dup_line_frac, 0.0) AS dup_line_frac, "
            "COALESCE(a.dup_char_frac, 0.0) AS dup_char_frac "
            "FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id"
        ),
        # unigram-LM cross-entropy: top-1000 vocab by (count desc, token
        # asc), Lidstone alpha=0.5 with one shared OOV bucket; nll
        # rounded to 4 dp on both sides (summation-order noise ~1e-15;
        # the wider quantum makes a boundary-straddle ~1e-11/row)
        "unigram_lm_docs": (
            "WITH t AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') "
            "AS toks FROM documents), "
            "u AS (SELECT unnest(toks) AS tok FROM t), "
            "c AS (SELECT tok, count(*) AS n FROM u GROUP BY tok), "
            "top AS (SELECT tok, n FROM c ORDER BY n DESC, tok LIMIT 1000), "
            "p AS (SELECT CAST(sum(n) AS DOUBLE) AS total, "
            "CAST(count(*) AS DOUBLE) AS v FROM top), "
            "lp AS (SELECT tok, ln((CAST(n AS DOUBLE) + 0.5) "
            "/ (p.total + 0.5 * (p.v + 1))) AS logp FROM top, p), "
            "oo AS (SELECT ln(0.5 / (p.total + 0.5 * (p.v + 1))) AS logp "
            "FROM p), "
            "dt AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
            "sc AS (SELECT dt.doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
            "avg(-COALESCE(lp.logp, oo.logp)) AS nll "
            "FROM dt LEFT JOIN lp ON lp.tok = dt.tok CROSS JOIN oo "
            "GROUP BY dt.doc_id) "
            "SELECT d.doc_id, COALESCE(sc.n_tokens, 0) AS n_tokens, "
            "round(COALESCE(sc.nll, 0.0), 4) AS nll "
            "FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id"
        ),
        # DSIR: the unigram_lm_docs model trained twice, on the target
        # subset (m = 'tg') and on the whole table (m = 'bg'); every doc
        # is scored under both and logw = nll_bg - nll_tg, rounded to 4 dp
        "dsir_weights_docs": (
            "WITH t AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '') "
            "AS toks FROM documents), "
            "dt AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
            "c AS (SELECT 'bg' AS m, tok, count(*) AS n FROM dt GROUP BY tok "
            "UNION ALL SELECT 'tg' AS m, tok, count(*) AS n FROM dt "
            "WHERE doc_id % 5 = 0 GROUP BY tok), "
            "top AS (SELECT m, tok, n FROM (SELECT m, tok, n, row_number() "
            "OVER (PARTITION BY m ORDER BY n DESC, tok) AS r FROM c) "
            "WHERE r <= 1000), "
            "p AS (SELECT m, CAST(sum(n) AS DOUBLE) AS total, "
            "CAST(count(*) AS DOUBLE) AS v FROM top GROUP BY m), "
            "lp AS (SELECT top.m, tok, ln((CAST(n AS DOUBLE) + 0.5) "
            "/ (p.total + 0.5 * (p.v + 1))) AS logp FROM top JOIN p ON p.m = top.m), "
            "oo AS (SELECT m, ln(0.5 / (total + 0.5 * (v + 1))) AS logp FROM p), "
            "sc AS (SELECT dt.doc_id, oo.m, avg(-COALESCE(lp.logp, oo.logp)) AS nll "
            "FROM dt CROSS JOIN oo LEFT JOIN lp ON lp.m = oo.m AND lp.tok = dt.tok "
            "GROUP BY dt.doc_id, oo.m), "
            "w AS (SELECT doc_id, sum(CASE m WHEN 'bg' THEN nll ELSE -nll END) "
            "AS logw FROM sc GROUP BY doc_id) "
            "SELECT d.doc_id, round(COALESCE(w.logw, 0.0), 4) AS dsir_logw "
            "FROM documents d LEFT JOIN w ON w.doc_id = d.doc_id"
        ),
        # same md5 arithmetic as the operator: first two digest bytes as
        # a big-endian int under 65536 * rate
        "stratified_sample_docs": (
            "SELECT doc_id, lang FROM documents "
            "WHERE (CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) "
            "AS UBIGINT)) "
            "< CASE lang WHEN 'en' THEN 16384 WHEN 'zh' THEN 0 "
            "WHEN 'fr' THEN 65536 ELSE 32768 END"
        ),
        # planted generator truth (fixtures/gen_pages.py truth_<name>/):
        # expected lang/status per url, independent of the extractor.
        # check_oracle rewrites _small -> _mid for sf0.1 runs.
        "extract_reports": (
            "WITH t AS (SELECT url, expected_status, expected_lang "
            f"FROM read_parquet('{_FIXTURE_ROOT}/truth_small/*.parquet')) "
            "SELECT 'lang' AS kind, expected_lang AS key, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM t GROUP BY 2 "
            "UNION ALL SELECT 'status' AS kind, expected_status AS key, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM t "
            "WHERE expected_status <> 'any' GROUP BY 2 "
            "UNION ALL SELECT 'domain' AS kind, key, n_docs FROM ("
            "SELECT split_part(url, '/', 3) AS key, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM t "
            "GROUP BY 1 ORDER BY n_docs DESC, key LIMIT 10)"
        ),
        # planted link-graph truth (fixtures/gen_linked.py): reachable
        # (url, depth) from node 0 by graph BFS over the planted adjacency
        "bfs_crawl_pages": (
            "SELECT url, depth FROM "
            f"read_parquet('{_FIXTURE_ROOT}/truth_linked/*.parquet')"
        ),
        # paragraph-level dedup with planted shared paragraphs; the
        # oracle keys on paragraph TEXT (hash-free), so a match also
        # witnesses md5-collision-freeness on this corpus
        "dedup_paragraphs_docs": (
            "WITH base AS (SELECT doc_id, "
            "CASE WHEN doc_id % 3 = 0 THEN text || chr(10) || chr(10) "
            "|| 'global footer boilerplate' ELSE text END "
            "|| chr(10) || chr(10) || 'promo block variant ' "
            "|| CAST(doc_id % 5 AS VARCHAR) AS text FROM documents), "
            "t AS (SELECT doc_id, string_split(text, chr(10) || chr(10)) "
            "AS paras FROM base), "
            "p AS (SELECT doc_id, i AS idx, paras[i] AS para "
            "FROM t, UNNEST(generate_series(1, len(paras))) AS u(i)), "
            "win AS (SELECT para, min(doc_id * 1048576 + idx) AS w FROM p "
            "WHERE length(para) >= 1 GROUP BY para HAVING count(*) >= 2), "
            "kept AS (SELECT p.doc_id, p.idx, p.para FROM p LEFT JOIN win "
            "ON win.para = p.para AND length(p.para) >= 1 "
            "WHERE win.para IS NULL OR p.doc_id * 1048576 + p.idx = win.w) "
            "SELECT t.doc_id, COALESCE((SELECT string_agg(k.para, "
            "chr(10) || chr(10) ORDER BY k.idx) FROM kept k "
            "WHERE k.doc_id = t.doc_id), '') AS clean_text FROM t"
        ),
        # shuffle-shard layout: one md5 per row decides shard AND
        # in-shard position (the training-export determinism contract)
        "shuffle_shards_docs": (
            "WITH h AS (SELECT doc_id, lang, "
            "CAST(('0x' || substr(md5('0:' || CAST(doc_id AS VARCHAR)), 1, 16)) "
            "AS UBIGINT) AS hh FROM documents) "
            "SELECT doc_id, lang, CAST(hh % 8 AS BIGINT) AS shard, "
            "CAST(row_number() OVER (PARTITION BY hh % 8 "
            "ORDER BY hh, doc_id) - 1 AS BIGINT) AS pos FROM h"
        ),
        # sequence packing: per-shard exclusive cumsum over the shuffle
        # order cut into 4096-token windows
        "pack_sequences_docs": (
            "WITH h AS (SELECT doc_id, n_chars AS n_tokens, "
            "CAST(('0x' || substr(md5('1:' || CAST(doc_id AS VARCHAR)), 1, 16)) "
            "AS UBIGINT) AS hh FROM documents), "
            "o AS (SELECT doc_id, n_tokens, CAST(hh % 4 AS BIGINT) AS shard, "
            "CAST(row_number() OVER w - 1 AS BIGINT) AS pos, "
            "CAST(COALESCE(sum(n_tokens) OVER (PARTITION BY hh % 4 "
            "ORDER BY hh, doc_id ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND 1 PRECEDING), 0) AS BIGINT) AS prev "
            "FROM h WINDOW w AS (PARTITION BY hh % 4 ORDER BY hh, doc_id)) "
            "SELECT doc_id, n_tokens, shard, pos, "
            "prev // 4096 AS pack_id, prev % 4096 AS pack_offset FROM o"
        ),
        # the per-language data card: integer totals + one exact division
        "corpus_data_card": (
            "WITH t AS (SELECT lang, length(text) AS n_chars, "
            "len(list_filter(regexp_split_to_array(lower(text), "
            "'[^a-z0-9]+'), x -> x <> '')) AS n_toks FROM documents) "
            "SELECT lang, CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_toks) AS BIGINT) AS n_tokens, "
            "CAST(sum(n_chars) AS BIGINT) AS n_chars, "
            "CAST(sum(n_toks) AS DOUBLE) / count(*) AS mean_doc_tokens "
            "FROM t GROUP BY lang"
        ),
    }
