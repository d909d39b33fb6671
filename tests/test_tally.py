"""``report.tally`` callers against one-table ``pa.Table.group_by``
references (a null key is one row, sorted last), and ``house_tokens``
against the inline tokenizer expression it replaced."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

FOLDING = ["\u0130", "\u017f", "\u212a"]  # İ, long s, Kelvin sign
WORDS = ["the", "Market", "le", "x1", "", "a-b", "42"] + FOLDING


def reference_tokens(texts):
    """The inline house tokenizer every caller spelled out before
    ``house_tokens``: (non-empty tokens, their row indices)."""
    low = pc.utf8_lower(texts)
    toks = pc.split_pattern_regex(low, pattern="[^a-z0-9]+")
    arr = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    vals = pc.list_flatten(arr)
    row_idx = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
    keep = pc.utf8_length(vals).to_numpy(zero_copy_only=False) > 0
    return vals.filter(pa.array(keep)).to_pylist(), row_idx[keep].tolist()


@pytest.fixture(scope="module")
def sf16(tmp_path_factory):
    """documents / events / lineitem tables with null keys, 16 files each."""
    rng = np.random.default_rng(19)
    n = 400
    pick = lambda vals: rng.choice(vals, n).tolist()  # noqa: E731
    tables = {
        "documents": pa.table({
            "text": [" ".join(rng.choice(WORDS, rng.integers(0, 9)))
                     for _ in range(n)],
            "lang": pick(["en", "fr", "de", None]), "source": pick(["a", "b"]),
            "status": pick(["ok", "empty", None]),
            "relevant": (rng.random(n) < 0.3).tolist(),
            "n_words": rng.integers(0, 50, n)}),
        "events": pa.table({
            "ts": np.datetime64("2024-01-01", "us")
            + rng.integers(0, 9 * 86_400_000_000, n),
            "event_type": pick(["click", "view", None])}),
        "lineitem": pa.table({
            "l_returnflag": pick(["A", "N", "R"]), "l_linestatus": pick(["F", "O"]),
            "l_quantity": rng.integers(1, 51, n).astype(np.float64)}),
    }
    sf = tmp_path_factory.mktemp("sf16")
    for name, t in tables.items():
        (sf / f"{name}.parquet").mkdir()
        for i in range(16):
            pq.write_table(t.slice(i * 25, 25), sf / f"{name}.parquet/{i:02d}.parquet")
    return str(sf), tables


def _group(t: pa.Table, keys: list[str]) -> list[dict]:
    """The one-table reference: sum every non-key column per key."""
    sums = [c for c in t.column_names if c not in keys]
    out = t.group_by(keys).aggregate([(c, "sum") for c in sums])
    out = out.select(keys + [f"{c}_sum" for c in sums]).rename_columns(keys + sums)
    if keys:
        out = out.sort_by([(k, "ascending") for k in keys], null_placement="at_end")
    return out.to_pylist()


def test_tallies_match_one_table_group_by(ray_session, sf16):
    import ray.data as rd

    from crawtext_ray.stages import relational as R
    from crawtext_ray.stages.report import global_counters, report_lang, report_status
    from crawtext_ray.stages.textops import corpus_data_card

    sf, tables = sf16
    docs, events, li = tables["documents"], tables["events"], tables["lineitem"]
    ds = rd.read_parquet(f"{sf}/documents.parquet", override_num_blocks=16).materialize()
    assert ds.num_blocks() == 16
    one = pa.array(np.ones(docs.num_rows, np.int64))

    def count(t, k):
        return _group(pa.table({k: t[k], "n_docs": one}), [k])

    assert report_lang(ds).take_all() == count(docs, "lang")
    assert R.report_lang_docs(sf).take_all() == count(docs, "lang")
    assert R.report_source_docs(sf).take_all() == count(docs, "source")
    assert report_status(ds).take_all() == count(docs, "status")
    assert global_counters(ds) == _group(pa.table({
        "n_pages": one, "n_ok": pc.cast(pc.equal(docs["status"], "ok"), pa.int64()),
        "n_relevant": pc.cast(docs["relevant"], pa.int64()),
        "n_words": docs["n_words"]}), [])[0]
    none = ds.filter(lambda r: False)  # no rows, no schema: zeros
    assert global_counters(none) == dict.fromkeys(global_counters(ds), 0)
    assert R.distinct_langs(sf)["lang"].to_pylist() == ["de", "en", "fr", None]
    day = pc.strftime(events["ts"], format="%Y-%m-%d")
    assert R.events_by_type_day(sf).to_pylist() == _group(pa.table({
        "event_type": events["event_type"], "day": day, "n_events": one}),
        ["event_type", "day"])
    assert R.date_buckets_events(sf).to_pylist() == _group(
        pa.table({"day": day, "n_events": one}), ["day"])
    q1 = li.select(["l_returnflag", "l_linestatus"]).append_column(
        "sum_qty", pc.cast(li["l_quantity"], pa.int64())).append_column(
        "count_order", one)
    assert R.q1_counts_lineitem(sf).to_pylist() == _group(
        q1, ["l_returnflag", "l_linestatus"])

    card = pa.table({
        "lang": docs["lang"], "n_docs": one,
        "n_tokens": np.bincount(reference_tokens(docs["text"])[1],
                                minlength=docs.num_rows),
        "n_chars": pc.cast(pc.utf8_length(docs["text"]), pa.int64())})
    got = corpus_data_card(ds)
    exp = _group(card, ["lang"])
    assert got.drop(columns="mean_doc_tokens").to_dict("records") == exp
    assert got["mean_doc_tokens"].tolist() == [
        r["n_tokens"] / r["n_docs"] for r in exp]


def test_null_key_is_one_row_sorted_last(ray_session):
    """A null language or status is its own key (DuckDB GROUP BY keeps
    it), sorted after every other key, in each report that counts it."""
    import ray.data as rd

    from crawtext_ray.stages.report import report_lang, report_status
    from crawtext_ray.stages.textops import corpus_data_card

    ds = rd.from_items([{"lang": lg, "status": lg and "ok", "text": "a b"}
                        for lg in ["en", None, "fr", "en"]])
    assert report_lang(ds).take_all() == [
        {"lang": "en", "n_docs": 2}, {"lang": "fr", "n_docs": 1},
        {"lang": None, "n_docs": 1}]
    assert report_status(ds).take_all() == [
        {"status": "ok", "n_docs": 3}, {"status": None, "n_docs": 1}]
    card = corpus_data_card(ds)
    assert card["lang"].tolist() == ["en", "fr", None]
    assert card["n_tokens"].tolist() == [4, 2, 2]


def test_tally_callers_run_no_take_all_aggregate_or_pandas(ray_session, sf16,
                                                           monkeypatch):
    """Every tally caller folds its blocks on the driver as they stream
    in: none collects with ``take_all``, runs a Ray aggregate or maps
    pandas batches."""
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from crawtext_ray.stages import relational as R
    from crawtext_ray.stages.report import global_counters, report_lang, report_status
    from crawtext_ray.stages.textops import corpus_data_card

    sf = sf16[0]
    ds = rd.read_parquet(f"{sf}/documents.parquet")
    map_batches = rd.Dataset.map_batches

    def forbid(*a, **k):
        raise AssertionError("take_all or GroupedData.aggregate called")

    def no_pandas(self, fn, *a, **k):
        assert k.get("batch_format") != "pandas", "pandas map_batches called"
        return map_batches(self, fn, *a, **k)

    monkeypatch.setattr(rd.Dataset, "take_all", forbid)
    monkeypatch.setattr(GroupedData, "aggregate", forbid)
    monkeypatch.setattr(rd.Dataset, "map_batches", no_pandas)
    for run in (report_lang, report_status, global_counters, corpus_data_card):
        run(ds)
    for run in (R.report_lang_docs, R.report_source_docs, R.date_buckets_events,
                R.events_by_type_day, R.q1_counts_lineitem):
        run(sf)


def test_key_sums_match_tally_and_counter(ray_session):
    """``key_sums`` (unbounded keys: one ``key_runs`` sort) equals
    ``collections.Counter`` on random string keys over 33 blocks with a
    hot key and empty blocks, and ``tally`` on bounded keys."""
    from collections import Counter

    import ray.data as rd

    from crawtext_ray.stages.report import key_sums, ones, tally

    rng = np.random.default_rng(22)
    keys = rng.integers(0, 5000, 6000).astype(str).tolist() + ["hot"] * 3000
    rng.shuffle(keys)
    blocks = [pa.table({"k": pa.array(keys[i:i + 300], pa.string())})
              for i in range(0, len(keys), 300)]
    empty = pa.table({"k": pa.array([], pa.string())})
    ds = rd.from_arrow(blocks[:10] + [empty] + blocks[10:] + [empty])
    assert ds.num_blocks() == 32

    def partial(b):
        return pa.table({"k": b["k"], "n": ones(b),
                         "chars": pc.cast(pc.utf8_length(b["k"]), pa.int64())})

    want = Counter(keys)
    assert sorted(key_sums(ds, partial, "k").take_all(),
                  key=lambda r: r["k"]) == [
        {"k": k, "n": want[k], "chars": want[k] * len(k)} for k in sorted(want)]

    first = ds.map_batches(
        lambda b: pa.table({"k": pc.utf8_slice_codeunits(b["k"], 0, 1)}),
        batch_format="pyarrow")
    assert sorted(key_sums(first, partial, "k").take_all(),
                  key=lambda r: r["k"]) == tally(first, partial, ["k"]).to_pylist()


def test_report_domain_null_url_and_top_domains_ties(ray_session):
    """A null url counts under "" (``domain_of``'s no-host value), and
    ``top_domains`` orders (n_docs desc, domain asc) like a plain-Python
    reference, whatever the row order."""
    from collections import Counter

    import ray.data as rd

    from crawtext_ray.extract.urlnorm import domain_of
    from crawtext_ray.stages.report import report_domain, top_domains

    urls = [f"http://h{i:02d}.example/{j}" for i in range(30)
            for j in range(1 + i % 3)] + [None, None, "not a url"]
    want = Counter("" if u is None else domain_of(u) for u in urls)
    rng = np.random.default_rng(6)
    for _ in range(2):
        rng.shuffle(urls)
        ds = rd.from_arrow([pa.table({"url": pa.array(urls[i:i + 7], pa.string())})
                            for i in range(0, len(urls), 7)])
        assert {r["domain"]: r["n_docs"] for r in report_domain(ds).take_all()} \
            == want
        top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert [(r["domain"], r["n_docs"])
                for r in top_domains(ds, 10).take_all()] == top


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(st.one_of(
    st.characters(max_codepoint=127), st.sampled_from(FOLDING)), max_size=24)),
    max_size=12), st.integers(0, 12))
def test_house_tokens_match_the_inline_tokenizer(texts, cut):
    """Same tokens and row indices as the inline copies, for a plain, a
    chunked and a sliced column (null and empty text included)."""
    from crawtext_ray.functions.text import house_tokens

    arr = pa.array(texts, pa.string())
    for col in (arr, pa.chunked_array([arr[:cut], arr[cut:]]), arr[cut:]):
        toks, rows = house_tokens(col)
        assert (toks.to_pylist(), rows.tolist()) == reference_tokens(col)
