"""The consolidated driver queries must equal the composition of the
operators they merged — merging slots must never change semantics."""

SF = "/root/testdata/sf0.001"


def _per_user(sf_dir: str, fn):
    """Per-group reference shape: one pandas call per user over that
    user's events sorted by (ts, event_id)."""
    import ray.data as rd

    def per_group(g):
        return fn(g.sort_values(["ts", "event_id"], kind="stable")
                  .reset_index(drop=True))

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "ts"])
    return ds.groupby("user_id").map_groups(per_group, batch_format="pandas")


def window_running_events(sf_dir: str):
    """ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)."""
    return _per_user(sf_dir, lambda g: g.assign(
        event_seq=g.index.to_numpy() + 1)[["event_id", "event_seq"]])


def window_lag_events(sf_dir: str):
    """LAG(event_id) per user; -1 for a user's first event."""
    return _per_user(sf_dir, lambda g: g.assign(
        prev_event_id=g["event_id"].shift(1).fillna(-1).astype("int64")
    )[["event_id", "prev_event_id"]])


def window_sliding_events(sf_dir: str):
    """Per event: the user's events in [ts - 1 hour, ts] (RANGE window)."""
    import numpy as np

    def last_hour(g):
        ts = g["ts"].to_numpy()
        lo = np.searchsorted(ts, ts - np.timedelta64(3600, "s"), side="left")
        hi = np.searchsorted(ts, ts, side="right")
        return g.assign(n_last_hour=(hi - lo).astype("int64"))[
            ["event_id", "n_last_hour"]]

    return _per_user(sf_dir, last_hour)


def test_window_funcs_equals_three_window_ops(ray_session):
    from crawtext_ray.stages import relational as R

    merged = R.window_funcs_events(SF).to_pandas().sort_values(
        "event_id").reset_index(drop=True)
    run = window_running_events(SF).to_pandas()
    lag = window_lag_events(SF).to_pandas()
    sli = window_sliding_events(SF).to_pandas()
    joined = (
        run.merge(lag, on="event_id").merge(sli, on="event_id")
        .sort_values("event_id").reset_index(drop=True)
    )
    assert list(merged.columns) == [
        "event_id", "event_seq", "prev_event_id", "n_last_hour"
    ]
    assert merged.equals(joined[merged.columns])


def test_doc_stats_matches_duckdb_oracle(ray_session):
    """The one-pass doc_stats row against its independent SQL definition
    (``oracle_sql()["doc_stats"]`` in DuckDB), order-insensitive."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as m
    from crawtext_ray.stages import relational as R

    got = R.doc_stats_docs(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{SF}/documents.parquet'")
    exp = con.execute(m.oracle_sql()["doc_stats"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_global_event_stats_has_exact_distinct_users(ray_session):
    import pyarrow.parquet as pq

    from crawtext_ray.stages import relational as R

    row = R.global_event_stats(SF).to_pandas().iloc[0]
    users = pq.read_table(f"{SF}/events.parquet", columns=["user_id"])
    assert row["n_distinct_users"] == users["user_id"].to_pandas().nunique()
    assert row["n_events"] == users.num_rows


def test_extract_reports_matches_individual_reports(ray_session):
    import __ray_entry__ as m

    df = m.queries()["extract_reports"](SF).to_pandas()
    assert set(df["kind"]) == {"lang", "status", "domain"}
    langs = df[df["kind"] == "lang"].set_index("key")["n_docs"].to_dict()
    # generator truth for pages_small (fixtures/gen_pages.py)
    assert langs == {"en": 536, "fr": 213, "de": 138, "es": 113}
    assert (df[df["kind"] == "domain"]["n_docs"] > 0).all()
    assert len(df[df["kind"] == "domain"]) == 10


def test_set_ops_equals_pair(ray_session):
    import __ray_entry__ as m
    from crawtext_ray.stages import relational as R

    df = m.queries()["set_ops_events"](SF).to_pandas()
    u = R.union_clicks_views(SF).to_pandas()["event_id"]
    i = R.users_click_and_purchase(SF).to_pandas()["user_id"]
    got_u = sorted(df[df["kind"] == "click_or_view_event"]["id"])
    got_i = sorted(df[df["kind"] == "click_and_purchase_user"]["id"])
    assert got_u == sorted(u)
    assert got_i == sorted(i)


def test_bfs_crawl_query_matches_planted_truth(ray_session):
    """The full BFS chain reproduces the generator's graph-BFS truth
    (independent of the extraction pipeline)."""
    import pyarrow.parquet as pq

    import __ray_entry__ as m
    from fixtures.gen_linked import bfs_truth, node_url

    got = m.queries()["bfs_crawl_pages"](SF)
    got_set = {(r["url"], r["depth"]) for _, r in got.iterrows()}
    depth = bfs_truth([0], 2)
    want = {(node_url(i), d) for i, d in depth.items()}
    assert got_set == want
    truth_path = "/tmp/crawtext_ray_fixtures/truth_linked"
    tru = pq.read_table(truth_path).to_pylist()
    assert {(r["url"], r["depth"]) for r in tru} == want


def test_queries_contract_shape(ray_session):
    """Driver cap: exactly 50 entries, oracles are a subset, 47 oracled."""
    import __ray_entry__ as m

    q, o = m.queries(), m.oracle_sql()
    assert len(q) == 50
    assert set(o) <= set(q)
    assert len(o) == 47


def test_entry_module_compiles_with_warnings_as_errors():
    """Every backslash in the module's SQL literals is a valid Python
    escape or sits in a raw string: an invalid escape such as ``'\\-'``
    warns on each import and is a syntax error under ``python -W error``."""
    import pathlib
    import warnings

    path = pathlib.Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_window_composite_overflow_fallback():
    """The composite-key searchsorted and the per-segment fallback must
    produce identical frames (the fallback fires when users x time-span
    would overflow int64). Kernel-level test: both paths run in-process
    on the same shard frame, no Ray."""
    from functools import partial

    import numpy as np
    import pyarrow as pa

    from crawtext_ray.stages.partitioning import shard_runs
    from crawtext_ray.stages.relational import (
        _asof_merge_frame,
        _window_funcs_frame,
    )

    rng = np.random.default_rng(5)
    n = 4000
    g = pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 300, n),
        "ts": pa.array(
            1_700_000_000_000_000 + rng.integers(0, 10_000_000_000, n),
            pa.timestamp("us")),
        "event_type": rng.choice(["click", "purchase", "view"], n),
    })
    by_time = ["ts", "event_id"]
    for fn in (_asof_merge_frame, _window_funcs_frame):
        a = shard_runs(g, "user_id", by_time, fn).to_pandas().sort_values(
            "event_id").reset_index(drop=True)
        b = shard_runs(g, "user_id", by_time,
                       partial(fn, use_composite=False)).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert len(a) and a.equals(b), fn.__name__
    # degenerate shards hold too
    empty = g.slice(0, 0)
    for fn in (_asof_merge_frame, _window_funcs_frame):
        assert shard_runs(empty, "user_id", by_time,
                          partial(fn, use_composite=False)).num_rows == 0


def test_doc_reports_equals_quartet(ray_session):
    import __ray_entry__ as m
    from crawtext_ray.stages import relational as R

    df = m.queries()["doc_reports"](SF)
    lang = df[df["kind"] == "lang"].set_index("key")["n_docs"].to_dict()
    assert lang == R.report_lang_docs(SF).to_pandas().set_index(
        "lang")["n_docs"].to_dict()
    src = df[df["kind"] == "source"].set_index("key")["n_docs"].to_dict()
    assert src == R.report_source_docs(SF).to_pandas().set_index(
        "source")["n_docs"].to_dict()
    top = df[df["kind"] == "top_source"]
    want_top = R.top_sources(SF).to_pandas()
    assert list(top["key"]) == list(want_top["source"])
    assert list(top["n_docs"]) == list(want_top["n_docs"])
    dl = sorted(df[df["kind"] == "distinct_lang"]["key"])
    assert dl == sorted(R.distinct_langs(SF).to_pandas()["lang"])


def test_event_time_rollups_equals_pair(ray_session):
    import __ray_entry__ as m
    from crawtext_ray.stages import relational as R

    df = m.queries()["event_time_rollups"](SF)
    day = df[df["kind"] == "day"].set_index("day")["n_events"].to_dict()
    assert day == R.date_buckets_events(SF).to_pandas().set_index(
        "day")["n_events"].to_dict()
    td = df[df["kind"] == "type_day"]
    want = R.events_by_type_day(SF).to_pandas()
    a = td[["key", "day", "n_events"]].sort_values(
        ["key", "day"]).reset_index(drop=True)
    b = want.rename(columns={"event_type": "key"})[
        ["key", "day", "n_events"]].sort_values(
        ["key", "day"]).reset_index(drop=True)
    assert a.equals(b)
