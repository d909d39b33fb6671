"""Training-data curation pipeline (quality gate + dedup chain)."""

import datetime as dt

import numpy as np
import pytest


def test_curate_chain(ray_session, pages_small, tmp_path):
    from crawtext_ray.pipelines.training_data import curate

    out = str(tmp_path / "curated")
    curated = curate(pages_small, out_dir=out, num_partitions=4,
                     concurrency=2, min_words=10)
    df = curated.to_pandas()
    assert 0 < len(df) <= 1000
    assert (df["status"] == "ok").all()
    assert (df["n_words"] >= 10).all()
    # exact dups removed: content hashes unique
    assert df["content_sha256"].map(bytes).is_unique
    import os

    assert any(f.endswith(".parquet") for f in os.listdir(out))
    # the curated sink carries lineage sidecars and passes the auditor
    from crawtext_ray.audit import audit

    res = audit(out)
    assert res and all(r["status"] == "ok" for r in res)
    assert sum(r["rows"] for r in res) == len(df)


def test_curate_rerun_keeps_no_stale_partitions(ray_session, pages_small,
                                                tmp_path):
    """The sink writes only the partitions that have rows, so a rerun into
    a used out dir whose output is a strict subset must remove the first
    run's other partitions: it leaves exactly the partitions and rows of
    the same run into a fresh dir."""
    import os

    from crawtext_ray.pipelines.training_data import curate

    few = {"en": 0.0, "fr": 0.0, "de": 0.0, "es": 0.03}

    def run(out, **kw):
        urls = sorted(curate(pages_small, out_dir=out, num_partitions=4,
                             concurrency=2, min_words=10, **kw)
                      .to_pandas()["url"])
        sink = sorted(f for f in os.listdir(out)
                      if f.startswith(("part-", "lineage-")))
        return urls, sink

    used, fresh = str(tmp_path / "used"), str(tmp_path / "fresh")
    assert len(run(used)[1]) == 8  # all four partitions have rows
    got, want = run(used, rates=few), run(fresh, rates=few)
    assert 0 < len(want[1]) < 8 and want[0]
    assert got == want


def test_drop_near_dups_verified_keeps_non_dups(ray_session, no_map_groups):
    """With verify_threshold set, only candidates that pass exact Jaccard
    are dropped — a planted true near-dup goes, distinct docs stay."""
    import ray.data as rd

    from crawtext_ray.pipelines.training_data import drop_near_dups

    base = ("the quick brown fox jumps over the lazy dog and the rain "
            "in spain falls mainly on the plain near the mat ") * 4
    rows = [{"url": f"http://x/{i}",
             "extracted_text": f"document {i} " + " ".join(
                 f"tok{i}x{j}" for j in range(60))}
            for i in range(15)]
    rows.append({"url": "http://x/dupA", "extracted_text": base})
    rows.append({"url": "http://x/dupB",
                 "extracted_text": base.replace("lazy", "sleepy", 1)})
    arts = rd.from_items(rows).materialize()
    kept = drop_near_dups(arts, verify_threshold=0.8).to_pandas()
    urls = set(kept["url"])
    assert "http://x/dupA" in urls  # the min-url representative survives
    assert "http://x/dupB" not in urls  # the verified near-dup is dropped
    assert all(f"http://x/{i}" in urls for i in range(15))


def test_quality_gate_mask_matches_scalar_definition():
    """The vectorized gate mask must equal the scalar per-row definition
    on awkward inputs (punct-only tokens, empty text, unknown lang)."""
    import pyarrow as pa

    from crawtext_ray.extract.stopwords import stopword_set
    from crawtext_ray.pipelines.training_data import quality_gate_mask

    texts = [
        "the cat sat on the mat and then the dog sat on the log " * 4,
        "Zzz qqq " * 30,
        "le chat est sur le tapis et il est content avec le lait " * 3,
        "",
        "!!! ... ??? " * 30,
        "the, cat. sat; on: the! mat? " * 10,
        "supercalifragilisticexpialidocious " * 40,
    ]
    langs = ["en", "en", "fr", "en", "en", "en", "xx"]
    n_words = [len(t.split()) for t in texts]

    sw_by_lang = {l: stopword_set(l) for l in ("en", "fr", "de", "es")}

    def scalar(text, lang, nw, min_words=20, min_stop=0.1, max_mwl=14.0):
        if nw < min_words:
            return False
        toks = text.lower().split()
        if not toks:
            return False
        mean_len = sum(len(t) for t in toks) / len(toks)
        sw = sw_by_lang.get(lang, sw_by_lang["en"])
        stop_ratio = sum(1 for t in toks if t.strip(".,;:!?") in sw) / len(toks)
        return stop_ratio >= min_stop and mean_len <= max_mwl

    got = quality_gate_mask(
        pa.array(texts), pa.array(langs),
        pa.array(n_words, pa.int32()), 20, 0.1, 14.0,
    ).to_pylist()
    want = [scalar(t, l, w) for t, l, w in zip(texts, langs, n_words)]
    assert got == want
    assert True in got and False in got  # both branches exercised


def test_drop_exact_dups_fallback_matches_broadcast(ray_session, pages_small,
                                                   monkeypatch):
    """BROADCAST_ROWS=0 forces ``member_join``'s key-run form of the
    loser anti-join; surviving urls must equal the broadcast loser-set
    form."""
    from crawtext_ray.pipelines.flagship import build_articles
    from crawtext_ray.pipelines.training_data import drop_exact_dups
    from crawtext_ray.stages import partitioning

    arts = build_articles(pages_small, num_partitions=4,
                          concurrency=2).materialize()
    a = drop_exact_dups(arts).to_pandas()
    monkeypatch.setattr(partitioning, "BROADCAST_ROWS", 0)
    b = drop_exact_dups(arts).to_pandas()
    assert list(a.columns) == list(b.columns) == arts.schema().names
    assert set(a["url"]) == set(b["url"]) and len(a) == len(b) > 0


def _planted_articles():
    """Article key rows (plus text) with planted exact-dup groups, and
    the plain-Python reference survivors: per content_sha256 the
    (url, warc_ts) of the row with the minimal (warc_ts, url)."""
    import pyarrow as pa

    rows = [
        ("A", "http://a.example/only", 4),         # group of 1
        ("B", "http://b.example/1", 5),            # group of 2
        ("B", "http://b.example/2", 3),
        ("C", "http://c.example/1", 1),            # group of 3
        ("C", "http://c.example/2", 2),
        ("C", "http://c.example/3", 0),
        ("D", "http://d.example/page", 20),        # same-url recrawl
        ("D", "http://d.example/page", 10),
        ("E", "http://e.example/b", 7),            # ts tie: url decides
        ("E", "http://e.example/a", 7),
    ]
    rng = np.random.default_rng(3)
    rows += [(f"R{int(rng.integers(0, 60))}", f"http://r.example/{i}",
              int(rng.integers(0, 5))) for i in range(150)]
    want = {}
    for sha, url, sec in rows:
        if sha not in want or (sec, url) < want[sha]:
            want[sha] = (sec, url)
    table = pa.table({
        "url": [u for _, u, _ in rows],
        "warc_ts": pa.array([_ts(s) for _, _, s in rows],
                            pa.timestamp("us")),
        "extracted_text": [f"text of {h}" for h, _, _ in rows],
        "content_sha256": pa.array([h.encode() for h, _, _ in rows],
                                   pa.binary()),
    })
    return table, {(u, _ts(s)) for s, u in want.values()}


def _ts(sec):
    return dt.datetime(2024, 1, 1) + dt.timedelta(seconds=sec)


def _survivors(ds):
    return {(r["url"], r["warc_ts"]) for r in ds.take_all()}


@pytest.mark.parametrize("broadcast_rows", [None, 0])
def test_drop_exact_dups_matches_reference(ray_session, monkeypatch,
                                           broadcast_rows):
    """Planted content groups of 1, 2 and 3 rows, a same-url recrawl and
    a warc_ts tie the url breaks: the survivors equal the plain-Python
    reference, in the broadcast loser-set form and (BROADCAST_ROWS=0)
    the key-run form of the loser anti-join."""
    import ray.data as rd

    from crawtext_ray.pipelines.training_data import drop_exact_dups
    from crawtext_ray.stages import partitioning

    if broadcast_rows is not None:
        monkeypatch.setattr(partitioning, "BROADCAST_ROWS", broadcast_rows)
    table, want = _planted_articles()
    arts = rd.from_arrow([table.slice(0, 90), table.slice(90)])
    got = drop_exact_dups(arts)
    assert got.count() == len(want)
    assert _survivors(got) == want
    assert {("http://d.example/page", _ts(10)),
            ("http://e.example/a", _ts(7))} <= want


def test_drop_exact_dups_rejects_duplicate_row_identity(ray_session):
    """Two rows sharing (url, warc_ts) inside one content group violate
    the pages contract: the loser anti-join would drop the winner too,
    so the stage raises instead of losing rows silently (the check runs
    in the loser reduce, before either form of the anti-join runs)."""
    import ray.data as rd

    from crawtext_ray.pipelines.training_data import drop_exact_dups

    table, _ = _planted_articles()
    twin = table.slice(0, 1)  # a second copy of ("A", a.example/only)
    arts = rd.from_arrow([table, twin])
    with pytest.raises(Exception, match=r"duplicate \(url, warc_ts\) row "
                                        r"identity.*a\.example/only"):
        drop_exact_dups(arts).materialize()


def test_exact_dedups_run_no_ray_aggregate(ray_session, monkeypatch,
                                           no_map_groups):
    """drop_exact_dups, exact_dedup and dedup_paragraphs are built and
    run with Ray's GroupedData.aggregate/count/map_groups disabled: each
    reduces on the key-run reduce alone, and the planted survivors come
    out."""
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from crawtext_ray.pipelines.training_data import drop_exact_dups
    from crawtext_ray.stages.dedup import dedup_paragraphs, exact_dedup

    def refuse(*_a, **_k):
        raise AssertionError("hash aggregate called")

    monkeypatch.setattr(GroupedData, "aggregate", refuse)
    monkeypatch.setattr(GroupedData, "count", refuse)

    table, want = _planted_articles()
    assert _survivors(drop_exact_dups(rd.from_arrow(table))) == want

    docs = rd.from_items([
        {"doc_id": 7, "text": "same text"},
        {"doc_id": 3, "text": "same text"},
        {"doc_id": 5, "text": "other text"},
        {"doc_id": 9, "text": "same text"},
    ])
    assert sorted(exact_dedup(docs).to_pandas()["doc_id"]) == [3, 5]

    footer = "copyright example site all rights reserved"
    paras = rd.from_items([
        {"doc_id": 2, "text": f"{footer}\n\nbeta body"},
        {"doc_id": 1, "text": f"alpha body\n\n{footer}"},
        {"doc_id": 3, "text": "gamma\n\ngamma"},
    ])
    out = {r["doc_id"]: r["clean_text"]
           for r in dedup_paragraphs(paras, min_chars=2).take_all()}
    assert out == {1: f"alpha body\n\n{footer}", 2: "beta body",
                   3: "gamma"}


def test_seed_file_reader(ray_session, tmp_path):
    from crawtext_ray.sources import read_seed_file

    p = tmp_path / "seeds.txt"
    p.write_text("http://a.example/x\nhttp://b.example/y\n")
    ds = read_seed_file(str(p))
    rows = sorted(r["url"] for r in ds.take_all())
    assert rows == ["http://a.example/x", "http://b.example/y"]
    assert all(r["depth"] == 0 for r in ds.take_all())


def test_contamination_flags_vs_string_oracle(ray_session):
    """Decontamination differential: hashed n-gram probe must equal a
    hash-free string-set oracle (token windows as tuples) on real docs
    with planted benchmark overlap."""
    import re

    import ray.data as rd

    from crawtext_ray.stages.textops import contamination_flags, decontaminate

    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    rows = docs.take_all()
    texts = {r["doc_id"]: r["text"] or "" for r in rows}
    tok = re.compile(r"[a-z0-9]+")
    N = 8

    def grams(t):
        toks = tok.findall(t.lower())
        if not toks:
            return set()
        if len(toks) < N:
            return {tuple(toks)}
        return {tuple(toks[i : i + N]) for i in range(len(toks) - N + 1)}

    # benchmark: verbatim slices of three docs + novel text with no overlap
    src = sorted(texts)[:3]
    benchmark = [texts[d][:200] for d in src] + [
        "zebra quantum flotilla xylophone governs amethyst harbors nothing",
    ]
    bench_grams = set().union(*(grams(b) for b in benchmark))
    expected = {d: len(grams(t) & bench_grams) > 0 for d, t in texts.items()}
    assert sum(expected.values()) >= 1  # planted overlap exists

    flags = {
        r["doc_id"]: (r["contaminated"], r["n_hits"])
        for r in contamination_flags(docs, benchmark).take_all()
    }
    assert set(flags) == set(texts)
    for d, (c, hits) in flags.items():
        assert c == expected[d], d
        assert (hits > 0) == expected[d], d

    kept = {
        r["doc_id"]
        for r in decontaminate(docs, benchmark).take_all()
    }
    assert kept == {d for d, c in expected.items() if not c}


def test_contamination_empty_and_dataset_benchmark(ray_session):
    """Edge: empty benchmark flags nothing; Dataset-typed benchmark side
    behaves like the list form."""
    import ray.data as rd

    from crawtext_ray.stages.textops import contamination_flags

    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    out = contamination_flags(docs, []).take_all()
    assert len(out) == 50 and not any(r["contaminated"] for r in out)

    bench_ds = docs.limit(2)
    out2 = {r["doc_id"]: r["contaminated"]
            for r in contamination_flags(docs, bench_ds).take_all()}
    rows = docs.take_all()
    first_two = {rows[0]["doc_id"], rows[1]["doc_id"]}
    assert all(out2[d] for d in first_two)


def test_curate_with_benchmark_decontamination(ray_session, pages_small, tmp_path):
    """curate(benchmark=...) drops exactly the articles overlapping the
    eval set, end to end through the audited sink."""
    import ray.data as rd

    from crawtext_ray.pipelines.training_data import curate

    base = curate(pages_small, out_dir=str(tmp_path / "base"),
                  num_partitions=4, min_words=10)
    rows = base.take_all()
    assert rows
    victim = max(rows, key=lambda r: len(r["extracted_text"] or ""))
    bench = [victim["extracted_text"][:400]]

    out = curate(pages_small, out_dir=str(tmp_path / "deco"),
                 num_partitions=4, min_words=10, benchmark=bench)
    kept_urls = {r["url"] for r in out.take_all()}
    assert victim["url"] not in kept_urls
    # only overlap-sharing articles dropped (the planted slice is from
    # one article; clones of it may legitimately share 8-grams)
    dropped = {r["url"] for r in rows} - kept_urls
    assert dropped and len(dropped) <= max(3, len(rows) // 10)


def test_repetition_stats_vs_duckdb(ray_session):
    """Repetition measures match an independent SQL definition."""
    import duckdb
    import ray.data as rd

    from crawtext_ray.stages.textops import repetition_stats

    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    got = {
        r["doc_id"]: r
        for r in repetition_stats(docs).take_all()
    }
    con = duckdb.connect()
    sql = """
    WITH lines AS (
      SELECT doc_id, ln FROM (
        SELECT doc_id, unnest(string_split(text, chr(10))) AS ln
        FROM read_parquet('/root/testdata/sf0.001/documents.parquet')
      ) WHERE ln <> ''
    ), per_line AS (
      SELECT doc_id, ln, count(*) AS c FROM lines GROUP BY doc_id, ln
    )
    SELECT doc_id,
           sum(c)::BIGINT AS n_lines,
           1.0 - count(*)::DOUBLE / sum(c) AS dup_line_frac,
           coalesce(sum(CASE WHEN c > 1 THEN length(ln) * c END), 0)::DOUBLE
             / sum(length(ln) * c) AS dup_char_frac
    FROM per_line GROUP BY doc_id
    """
    oracle = {row[0]: row for row in con.execute(sql).fetchall()}
    # docs with no non-empty lines are absent from the SQL side
    assert set(oracle) <= set(got)
    synthetic_dup = "same line\nsame line\nother\n\nsame line"
    for d, r in got.items():
        if d in oracle:
            _, n_l, dlf, dcf = oracle[d]
            assert r["n_lines"] == n_l, d
            assert abs(r["dup_line_frac"] - dlf) < 1e-9, d
            assert abs(r["dup_char_frac"] - dcf) < 1e-9, d
        else:
            assert r["n_lines"] == 0
    # planted: 3x "same line" (9 chars each) of 4 lines / 32 chars
    flags = repetition_stats(
        rd.from_items([{"doc_id": 1, "text": synthetic_dup}])
    ).take_all()[0]
    assert flags["n_lines"] == 4
    assert abs(flags["dup_line_frac"] - (1 - 2 / 4)) < 1e-9
    assert abs(flags["dup_char_frac"] - (27 / (27 + 5))) < 1e-9


def test_repetition_gate(ray_session):
    """Gate drops exactly the docs over the duplicate-line threshold."""
    import ray.data as rd

    from crawtext_ray.stages.textops import repetition_gate

    docs = rd.from_items([
        {"doc_id": 1, "text": "a\nb\nc\nd"},            # 0.0 dup
        {"doc_id": 2, "text": "x\nx\nx\nx"},            # 0.75 dup
        {"doc_id": 3, "text": "p\np\nq\nr"},            # 0.25 dup
        {"doc_id": 4, "text": ""},                      # empty: kept
    ])
    kept = {r["doc_id"] for r in
            repetition_gate(docs, max_dup_line_frac=0.3).take_all()}
    assert kept == {1, 3, 4}


def _reference_unigram_lm(texts, vocab_size):
    """A pure-Python unigram LM over ``texts``: the top ``vocab_size``
    lowercased [a-z0-9]+ tokens by (count desc, token asc), Lidstone
    alpha 0.5 with one shared OOV bucket. Returns text -> (n_tokens,
    mean token nll), 0.0 for a token-less text."""
    import math
    import re
    from collections import Counter

    tok = re.compile(r"[a-z0-9]+")
    counts = Counter()
    for t in texts:
        counts.update(tok.findall((t or "").lower()))
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:vocab_size]
    denom = sum(counts.values()) + 0.5 * (len(top) + 1)
    logp = {t: math.log((c + 0.5) / denom) for t, c in top}
    oov = math.log(0.5 / denom)

    def nll(text):
        toks = tok.findall((text or "").lower())
        if not toks:
            return 0, 0.0
        return len(toks), -sum(logp.get(t, oov) for t in toks) / len(toks)

    return nll


def test_unigram_lm_scores_vs_reference(ray_session):
    """LM scorer matches an independent pure-Python model on real docs,
    and ranks a gibberish doc (tokens seen once, so out of vocabulary)
    worse than an in-distribution one."""
    import ray.data as rd

    from crawtext_ray.stages.textops import unigram_lm_scores

    rows = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).take_all()
    rows.append({"doc_id": -1, "text": " ".join(
        f"qzx{i}v" for i in range(40))})
    docs = rd.from_items(rows)
    V = 100
    ref_nll = _reference_unigram_lm([r["text"] for r in rows], V)

    got = {
        r["doc_id"]: r
        for r in unigram_lm_scores(docs, vocab_size=V).take_all()
    }
    assert set(got) == {r["doc_id"] for r in rows}
    for r in rows:
        n, nll = ref_nll(r["text"])
        g = got[r["doc_id"]]
        assert g["n_tokens"] == n, r["doc_id"]
        assert abs(g["nll"] - nll) < 1e-9, r["doc_id"]

    # gibberish scores worse than a real document
    assert got[-1]["nll"] > got[rows[0]["doc_id"]]["nll"]


def test_stratified_sample_vs_duckdb(ray_session):
    """Per-language quota sample matches the same md5 arithmetic in SQL
    and respects per-stratum rates."""
    import duckdb
    import ray.data as rd

    from crawtext_ray.stages.textops import stratified_sample

    docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "lang"],
    )
    rates = {"en": 0.25, "zh": 0.0, "fr": 1.0}
    got = sorted(
        r["doc_id"]
        for r in stratified_sample(docs, rates, default_rate=0.5).take_all()
    )
    sql = """
    SELECT doc_id FROM read_parquet(
      '/root/testdata/sf0.001/documents.parquet')
    WHERE (CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4))
                AS UBIGINT))
          < CASE lang WHEN 'en' THEN 16384 WHEN 'zh' THEN 0
                      WHEN 'fr' THEN 65536 ELSE 32768 END
    ORDER BY doc_id
    """
    oracle = [r[0] for r in duckdb.connect().execute(sql).fetchall()]
    assert got == oracle and got
    langs = {r["doc_id"]: r["lang"] for r in docs.take_all()}
    assert not any(langs[d] == "zh" for d in got)


def test_curate_clears_stale_checkpoint(ray_session, pages_small, tmp_path):
    """A crashed prior run's leftover gated-checkpoint parquet must not be
    read back alongside the fresh write (it used to duplicate every row
    and hard-fail drop_exact_dups' row-identity check)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawtext_ray.pipelines.training_data import curate

    out = str(tmp_path / "curated")
    ckpt = out + "_gated.ckpt"
    # simulate a crashed prior run: a real article row left in the ckpt dir
    import os

    os.makedirs(ckpt, exist_ok=True)
    stale = pa.table({
        "url": ["http://stale.example/leftover"],
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "extracted_text": ["stale leftover row " * 10],
    })
    pq.write_table(stale, os.path.join(ckpt, "stale-0.parquet"))
    curated = curate(pages_small, out_dir=out, num_partitions=4,
                     concurrency=2, min_words=10)
    df = curated.to_pandas()
    assert 0 < len(df) <= 1000
    assert not df["url"].str.contains("stale.example").any()
    # no duplicated row identity survived to the sink
    assert df["content_sha256"].map(bytes).is_unique


def test_splitmix64_sampling_mode(ray_session):
    """The vectorized splitmix64 mixer (Bloom and paragraph-dedup pair
    keys) matches an independent scalar implementation; stratified
    sampling (md5) is rerun-deterministic and hits the requested rates."""
    import numpy as np
    import ray.data as rd

    from crawtext_ray.stages.partitioning import splitmix64
    from crawtext_ray.stages.textops import stratified_sample

    # differential vs independent scalar form (Steele et al. constants)
    def scalar(x: int) -> int:
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)

    ids = np.array([0, 1, 2, 12345, 2**40 + 7, 2**63 - 1], dtype=np.uint64)
    got = splitmix64(ids)
    assert [int(v) for v in got] == [scalar(int(i)) for i in ids]

    n = 50_000
    docs = rd.from_arrow(
        __import__("pyarrow").table({
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": ["en" if i % 2 == 0 else "fr" for i in range(n)],
        })
    )
    rates = {"en": 0.25, "fr": 0.75}
    a = sorted(r["doc_id"] for r in stratified_sample(
        docs, rates).take_all())
    b = sorted(r["doc_id"] for r in stratified_sample(
        docs, rates).take_all())
    assert a == b and a  # deterministic across reruns
    kept = {r["doc_id"]: r["lang"] for r in stratified_sample(
        docs, rates).take_all()}
    n_en = sum(1 for v in kept.values() if v == "en")
    n_fr = sum(1 for v in kept.values() if v == "fr")
    assert abs(n_en / (n / 2) - 0.25) < 0.02
    assert abs(n_fr / (n / 2) - 0.75) < 0.02


def test_lm_gate_matches_scores_threshold(ray_session):
    """lm_gate(ds, t) keeps exactly the docs unigram_lm_scores maps to
    nll <= t (plus token-less docs), and a planted gibberish doc goes."""
    import ray.data as rd

    from crawtext_ray.stages.textops import lm_gate, unigram_lm_scores

    rows = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).limit(200).take_all()
    # planted: an in-distribution doc, gibberish whose tokens occur once
    # in the corpus, and a token-less doc
    rows += [
        {"doc_id": -1, "text": "the data report market energy climate " * 20},
        {"doc_id": -2, "text": " ".join(f"qzx{i}v" for i in range(40))},
        {"doc_id": -3, "text": ""},
    ]
    docs = rd.from_items(rows).materialize()
    scores = {r["doc_id"]: (r["n_tokens"], r["nll"])
              for r in unigram_lm_scores(docs, vocab_size=50_000).take_all()}
    t = sorted(nll for n, nll in scores.values() if n)[len(scores) // 2]
    kept = {r["doc_id"] for r in lm_gate(docs, t).take_all()}
    want = {d for d, (n, nll) in scores.items() if n == 0 or nll <= t}
    assert kept == want and 0 < len(kept) < len(scores)

    cut = (scores[-1][1] + scores[-2][1]) / 2
    kept2 = {r["doc_id"] for r in lm_gate(docs, cut).take_all()}
    assert {-1, -3} <= kept2 and -2 not in kept2  # gibberish dropped


def test_curate_with_lm_gate_and_rates(ray_session, pages_small, tmp_path):
    """curate(max_nll=..., rates=...) composes: the perplexity gate
    drops high-nll articles and the final per-language quota empties a
    language entirely at rate 0."""
    from crawtext_ray.pipelines.training_data import curate

    base = curate(pages_small, out_dir=str(tmp_path / "b"),
                  num_partitions=4, min_words=10).to_pandas()
    out = curate(pages_small, out_dir=str(tmp_path / "o"),
                 num_partitions=4, min_words=10,
                 max_nll=9.0, rates={"en": 0.0, "fr": 1.0}).to_pandas()
    assert len(out) < len(base)
    assert not (out["lang"] == "en").any()
    # fr sampled at 1.0: every fr article that survives the gates stays
    assert (out["lang"] == "fr").sum() > 0


def test_corpus_data_card_vs_duckdb(ray_session):
    """The per-language data card matches the SQL definition exactly
    (docs/tokens/chars totals and the mean)."""
    import duckdb
    import ray.data as rd

    from crawtext_ray.stages.textops import corpus_data_card

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    got = corpus_data_card(docs).sort_values("lang").reset_index(drop=True)
    sql = """
    WITH t AS (
      SELECT lang, length(text) AS n_chars,
             len(list_filter(regexp_split_to_array(lower(text),
                 '[^a-z0-9]+'), x -> x <> '')) AS n_toks
      FROM read_parquet('/root/testdata/sf0.001/documents.parquet'))
    SELECT lang, count(*)::BIGINT AS n_docs,
           sum(n_toks)::BIGINT AS n_tokens,
           sum(n_chars)::BIGINT AS n_chars,
           sum(n_toks)::DOUBLE / count(*) AS mean_doc_tokens
    FROM t GROUP BY lang ORDER BY lang
    """
    exp = duckdb.connect().execute(sql).df()
    assert got[["lang", "n_docs", "n_tokens", "n_chars"]].equals(
        exp[["lang", "n_docs", "n_tokens", "n_chars"]])
    assert (got["mean_doc_tokens"] - exp["mean_doc_tokens"]).abs().max() < 1e-9
    assert got["n_docs"].sum() == 500


def test_curate_with_paragraph_dedup(ray_session, pages_small, tmp_path):
    """curate(dedup_paras=True) strips cross-article boilerplate
    paragraphs (one survivor corpus-wide) and refreshes n_words /
    content_sha256 to match the cleaned text."""
    import hashlib

    from crawtext_ray.pipelines.training_data import curate

    base = curate(pages_small, out_dir=str(tmp_path / "b"),
                  num_partitions=4, min_words=10).to_pandas()
    out = curate(pages_small, out_dir=str(tmp_path / "p"),
                 num_partitions=4, min_words=10,
                 dedup_paras=True).to_pandas()
    assert 0 < len(out) <= len(base)
    # stats consistent with the (possibly rewritten) text
    for _, r in out.head(50).iterrows():
        t = r["extracted_text"] or ""
        assert r["n_words"] == len(t.split())
        assert bytes(r["content_sha256"]) == hashlib.sha256(
            t.encode("utf-8")).digest()
    # any paragraph >= 30 chars appears at most once corpus-wide
    from collections import Counter

    paras = Counter()
    for t in out["extracted_text"]:
        for p in (t or "").split("\n\n"):
            if len(p) >= 30:
                paras[p] += 1
    assert paras and max(paras.values()) == 1


def test_dedup_paragraphs_string_ids(ray_session):
    """String ids (article urls) pack via the md5 hash path and dedup
    the same planted boilerplate."""
    import ray.data as rd

    from crawtext_ray.stages.dedup import dedup_paragraphs

    footer = "shared legal footer paragraph for every page"
    ds = rd.from_items([
        {"url": f"http://a.example/{i}",
         "text": f"body paragraph number {i}\n\n{footer}"}
        for i in range(10)
    ])
    out = dedup_paragraphs(ds, text_col="text", id_col="url",
                           min_chars=5, output="replace").to_pandas()
    assert len(out) == 10
    assert set(out.columns) == {"url", "text"}
    n_footer = sum(footer in (t or "") for t in out["text"])
    assert n_footer == 1
    # every body paragraph is unique and survives
    assert all("body paragraph number" in (t or "") for t in out["text"])


def test_curate_paragraph_dedup_drops_hollowed_docs(ray_session, tmp_path):
    """A document whose EVERY paragraph is a duplicate comes back empty
    from paragraph dedup; the re-applied length gate must drop it before
    exact dedup (ADVICE r4: all empties share one content_sha256, so one
    empty-text row used to survive into the curated corpus)."""
    import datetime
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawtext_ray.pipelines.training_data import curate

    shared = ("This is a shared legal footer paragraph that the content "
              "scorer wants to keep around for every page in the corpus "
              "because it is full of the usual function words.")
    unique = ("Here is some genuinely unique article body text that only "
              "this one page carries and that should survive the whole "
              "curation chain without any trouble at all.")
    ts = datetime.datetime(2024, 1, 1)

    def page(body: str) -> bytes:
        paras = "".join(f"<p>{p}</p>" for p in body.split("\n\n"))
        return f"<html><body>{paras}</body></html>".encode()

    # one rich doc (shared + unique paragraphs) and two docs that are
    # ONLY the shared paragraph: whichever doc wins the shared paragraph,
    # at least one footer-only doc hollows out to empty text
    t = pa.table({
        "url": pa.array([f"http://h.example/{i}" for i in range(3)]),
        "warc_ts": pa.array([ts] * 3, pa.timestamp("us")),
        "html": pa.array([page(shared + "\n\n" + unique),
                          page(shared), page(shared)], pa.binary()),
        "text": pa.array([""] * 3, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
    })
    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    pq.write_table(t, f"{pages}/part-0.parquet")

    out = curate(pages, out_dir=str(tmp_path / "o"), num_partitions=2,
                 min_words=10, dedup_paras=True).to_pandas()
    # the min-words contract holds AFTER paragraph dedup, not just before
    assert (out["n_words"] >= 10).all()
    assert all((x or "").strip() for x in out["extracted_text"])
    # the unique body text survives
    assert any(unique in (x or "") for x in out["extracted_text"])
    # fewer docs than inputs: at least one hollowed doc was dropped
    assert len(out) < 3


def test_dsir_weights_differential_vs_lm_scores(ray_session):
    """dsir_logw == nll(background model) - nll(target model), with both
    models built independently by the pure-Python reference LM: the
    background on the corpus, the target on the target corpus."""
    import ray.data as rd

    from crawtext_ray.stages.textops import dsir_weights

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"]).materialize()
    target = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                             columns=["doc_id", "text"]).limit(50).materialize()

    got = {r["doc_id"]: r["dsir_logw"]
           for r in dsir_weights(docs, target, vocab_size=500).take_all()}
    rows = docs.take_all()
    nll_b = _reference_unigram_lm([r["text"] for r in rows], 500)
    nll_t = _reference_unigram_lm([r["text"] for r in target.take_all()], 500)
    assert set(got) == {r["doc_id"] for r in rows}
    for r in rows:
        want = nll_b(r["text"])[1] - nll_t(r["text"])[1]
        assert abs(got[r["doc_id"]] - want) < 1e-9, r["doc_id"]


def test_dsir_select_planted_target(ray_session):
    """A corpus mixing target-like documents with off-distribution
    gibberish: dsir_select(keep_frac) keeps the target-like ones
    preferentially, the kept fraction lands near keep_frac, and the
    selection is deterministic across runs."""
    import numpy as np
    import ray.data as rd

    from crawtext_ray.stages.textops import dsir_select

    rng = np.random.default_rng(5)
    target_vocab = ("science research method data result model theory "
                    "experiment evidence analysis study measure").split()
    noise_vocab = ["zq" + "".join(rng.choice(list("bcdfgx"), 4))
                   for _ in range(400)]

    def sentence(vocab, n):
        return " ".join(rng.choice(vocab) for _ in range(n))

    target = rd.from_items(
        [{"doc_id": 10_000 + i, "text": sentence(target_vocab, 40)}
         for i in range(60)]).materialize()
    corpus_rows = (
        [{"doc_id": i, "text": sentence(target_vocab, 40), "kind": "t"}
         for i in range(100)]
        + [{"doc_id": 1000 + i, "text": sentence(noise_vocab, 40),
            "kind": "n"} for i in range(300)]
    )
    corpus = rd.from_items(corpus_rows).materialize()

    kept = dsir_select(corpus, target, keep_frac=0.25).to_pandas()
    frac = len(kept) / len(corpus_rows)
    assert 0.2 <= frac <= 0.35  # one-histogram-bin tolerance
    # selection is dominated by target-like docs
    assert (kept["kind"] == "t").mean() > 0.9
    assert set(kept.columns) >= {"doc_id", "text", "kind", "dsir_logw"}
    # deterministic
    kept2 = dsir_select(corpus, target, keep_frac=0.25).to_pandas()
    assert sorted(kept2["doc_id"]) == sorted(kept["doc_id"])


def test_dsir_select_keep_all_keeps_weights_below_clip(ray_session):
    """keep_frac=1.0 keeps every document, including those whose log
    weight lies below -clip (the histogram clips them into bin 0)."""
    import ray.data as rd

    from crawtext_ray.stages.textops import dsir_select

    target = rd.from_items(
        [{"text": "science research method data result model theory"}] * 5)
    corpus = rd.from_items(
        [{"doc_id": 0, "text": "science research method data result"},
         {"doc_id": 1, "text": "zqbx zqcd zqfg zqxx zqbb zqcc zqdd zqff"},
         {"doc_id": 2, "text": "model theory evidence analysis study"}]
    ).materialize()
    kept = dsir_select(corpus, target, keep_frac=1.0, clip=1.0).to_pandas()
    assert kept["dsir_logw"].min() < -1.0
    assert sorted(kept["doc_id"]) == [0, 1, 2]


def test_dsir_select_driver_collect_bounded_by_bins(ray_session,
                                                    monkeypatch):
    """The histogram partials fold by bin on the driver as the blocks
    stream in (``report.tally``): no ``take_all``, the driver holds one
    row per occupied bin on a many-block corpus (the same rows as on
    one block, not blocks x bins, and at most the 2048 bins), and the
    selection equals the one-block selection."""
    import numpy as np
    import ray.data as rd
    from ray.data import Dataset

    from crawtext_ray.stages import report
    from crawtext_ray.stages.textops import dsir_select

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    target = rd.from_items(
        [{"text": " ".join(rng.choice(vocab[:60], 30))} for _ in range(40)]
    ).materialize()
    rows = [{"doc_id": i, "text": " ".join(rng.choice(vocab, 30))}
            for i in range(400)]
    collected = []
    real_tally = report.tally

    def counting_tally(*a, **kw):
        out = real_tally(*a, **kw)
        collected.append(out.num_rows)
        return out

    def refuse(*_a, **_k):
        raise AssertionError("take_all called")

    many = rd.from_items(rows).repartition(8).materialize()
    assert many.num_blocks() == 8
    monkeypatch.setattr(report, "tally", counting_tally)
    monkeypatch.setattr(Dataset, "take_all", refuse)
    kept = dsir_select(many, target, keep_frac=0.3).to_pandas()
    assert len(collected) == 1 and collected[0] <= 2048
    one = rd.from_items(rows).repartition(1).materialize()
    kept_one = dsir_select(one, target, keep_frac=0.3).to_pandas()
    assert collected == [collected[0]] * 2
    assert 0 < len(kept) < len(rows)
    assert sorted(kept["doc_id"]) == sorted(kept_one["doc_id"])
