"""Relational / dataflow operators over the driver's testdata tables
(SURVEY.md §2.8–§2.9). Each function here backs a ``__ray_entry__``
queries() entry with a matching DuckDB oracle; outputs avoid raw floats
so value-hash comparisons are bit-stable across engines.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.text import house_tokens
from .dedup import first_by
from .partitioning import key_runs, run_ids, run_starts
from .report import key_counts, ones, report_lang, tally


def _docs(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _events(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


# --- A1/A2 grouped counts -------------------------------------------------


def report_lang_docs(sf_dir: str):
    """A1: per-language doc counts — the engine's ``report_lang``."""
    return report_lang(_docs(sf_dir, ["lang"]))


def report_source_docs(sf_dir: str):
    """A2/A3: grouped counts on the source column (the same tally)."""
    return key_counts(_docs(sf_dir, ["source"]), "source")


def top_sources(sf_dir: str):
    """T1: top-5 sources by count; deterministic tie-break on source."""
    agg = report_source_docs(sf_dir)
    return agg.sort(["n_docs", "source"], descending=[True, False]).limit(5)


def distinct_langs(sf_dir: str):
    """U2-adjacent: distinct values of one column (a tally with no sums;
    a null lang sorts last)."""
    return tally(_docs(sf_dir, ["lang"]), lambda t: t, ["lang"])


# --- J2 dedup / filters ---------------------------------------------------


def dedup_events_first(sf_dir: str):
    """J2: first event per user (min ts, tie min event_id)."""
    ds = _events(sf_dir, ["user_id", "event_id", "ts", "event_type"])
    out = first_by(ds, "user_id", "ts", "event_id")
    return out.select_columns(["user_id", "event_id", "event_type"])


def filter_events(sf_dir: str):
    """M2-analog vectorized filter (arrow compute predicate): the click
    events of value at least 50."""
    ds = _events(sf_dir, ["event_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.equal(t["event_type"], pa.scalar("click")),
                pc.greater_equal(t["value"], pa.scalar(50.0)),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).select_columns(["event_id"])


# --- scalar fns: counts, json, dates -------------------------------------


def doc_stats_docs(sf_dir: str):
    """M9 per-doc scalar-function stats in ONE pass of Arrow kernels:
    chars, whitespace words, word-or-punctuation tokens, punctuation
    marks (ASCII contracts; see oracle) and English-stopword hits. The
    stopword count is split_pattern_regex → is_in → bincount (RE2 has no
    lookarounds, so a boundary regex can't express it).
    Output (doc_id, n_chars_calc, n_words, n_tokens, n_punct, n_stop)."""
    from ..extract.stopwords import stopword_set

    sw_arr = pa.array(sorted(stopword_set("en")))

    def fn(batch: pa.Table) -> pa.Table:
        col = batch["text"]
        toks, row_idx = house_tokens(col)
        hits = pc.is_in(toks, value_set=sw_arr).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(
            row_idx, weights=hits, minlength=batch.num_rows
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars_calc": pc.cast(pc.utf8_length(col), pa.int64()),
                "n_words": pc.cast(
                    pc.count_substring_regex(col, pattern=r"\S+"), pa.int64()
                ),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(
                        col, pattern=r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]"
                    ),
                    pa.int64(),
                ),
                "n_punct": pc.cast(
                    pc.count_substring_regex(col, pattern=r"[^A-Za-z0-9_\s]"),
                    pa.int64(),
                ),
                "n_stop": pa.array(n_stop, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def json_extract_events(sf_dir: str):
    """§2.9 json_extract over events.props."""

    def fn(batch: pa.Table) -> pa.Table:
        vals = []
        for p in batch["props"].to_pylist():
            try:
                v = json.loads(p).get("k")
                vals.append(int(v) if v is not None else None)
            except (ValueError, TypeError):
                vals.append(None)
        return pa.table({"event_id": batch["event_id"], "k_val": pa.array(vals, pa.int64())})

    return _events(sf_dir, ["event_id", "props"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def _day(t: pa.Table):
    return pc.strftime(t["ts"], format="%Y-%m-%d")


def date_buckets_events(sf_dir: str):
    """§2.9 date bucketing: events per day (~30 keys → a ``tally``, no
    exchange)."""
    return tally(_events(sf_dir, ["ts"]),
                 lambda t: pa.table({"day": _day(t), "n_events": ones(t)}),
                 ["day"])


def window_hourly_events(sf_dir: str):
    """Streaming-shaped tumbling window: per (user, hour) event counts.
    Shape: ONE int-keyed key-run reduce on user_id, sorted by ts, so
    each (user, hour) window is a run and its count a run length —
    measured 5x faster than a two-key (user, hour-string) sort-shuffle
    aggregate (3.0s vs 16.5s on 100k events at 32 cpus), because the
    exchange keys are small ints and the bucketing stays vectorized."""

    def per_block(t: pa.Table, _starts: np.ndarray) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        s = run_starts(t["user_id"], hour)
        idx = pa.array(s)
        return pa.table({
            "user_id": t["user_id"].take(idx),
            "window_start": pc.strftime(hour.take(idx),
                                        format="%Y-%m-%d %H:00"),
            "n_events": pa.array(np.diff(np.append(s, t.num_rows)),
                                 pa.int64()),
        })

    return key_runs(_events(sf_dir, ["user_id", "ts"]), "user_id", ["ts"],
                    per_block)


def user_event_stats(sf_dir: str):
    """A4-analog multi-aggregate per user (all integer outputs)."""
    return (
        _events(sf_dir, ["user_id", "event_id"])
        .groupby("user_id")
        .aggregate(
            Count(alias_name="n_events"),
            Min("event_id", alias_name="min_event_id"),
            Max("event_id", alias_name="max_event_id"),
        )
    )


# --- joins ----------------------------------------------------------------


def _lookup(keys, dim: pa.Table, key_col: str, val_col: str):
    """A broadcast join's probe: ``dim[val_col]`` at each key's row of
    ``dim[key_col]`` (dimension keys are unique), null for a key with no
    row."""
    return dim[val_col].take(pc.index_in(keys, value_set=dim[key_col]))


def _broadcast_join(ds, dims: tuple, attach):
    """Broadcast small-side join: the small Arrow ``dims`` ship once via
    ray.put and each batch maps through ``attach(batch, *dims)`` (Arrow
    ``_lookup`` probes) — no shuffle."""
    from .fusion import map_stage

    ref = ray.put(dims)

    def factory():
        got = ray.get(ref)
        return lambda batch: attach(batch, *got)

    return map_stage(ds, factory)


def orders_by_segment_broadcast(sf_dir: str):
    """J3: broadcast small-side join (customer dim), then grouped count."""
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])

    def attach_segment(batch: pa.Table, cust: pa.Table) -> pa.Table:
        seg = _lookup(batch["o_custkey"], cust, "c_custkey", "c_mktsegment")
        # inner-join semantics: drop orders with no matching customer
        return pa.table({"c_mktsegment": seg}).filter(pc.is_valid(seg))

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return _broadcast_join(ds, (cust,), attach_segment).groupby(
        "c_mktsegment").aggregate(Count(alias_name="n_orders"))


def orders_join_native(sf_dir: str):
    """Large-side hash join via Dataset.join (Ray 2.49 native, 8
    partitions), grouped by (priority, segment). The broadcast variant
    above is the scale path for small dims; this exercises the shuffling
    join."""
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    return joined.groupby(["o_orderpriority", "c_mktsegment"]).aggregate(
        Count(alias_name="n")
    )


# --- lineitem (wide-table scan + pruned read) -----------------------------


def q1_counts_lineitem(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate with integer-stable outputs:
    grouped row counts + exact quantity sums (l_quantity is
    integer-valued in TPC-H). A ``tally``: six keys, no exchange."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=keys + ["l_quantity"])
    return tally(ds, lambda t: pa.table({
        **{k: t[k] for k in keys},
        "sum_qty": pc.cast(t["l_quantity"], pa.int64()),
        "count_order": ones(t),
    }), keys)


def shipped_before(sf_dir: str):
    """Pruned + predicate-pushdown read: row-group filter at the scan
    (lines shipped before 1996)."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"],
        filter=(pc.field("l_shipdate")
                < pa.scalar(np.datetime64("1996-01-01", "us"))),
    )
    return ds.select_columns(["l_orderkey", "l_linenumber"])


# --- embeddings -----------------------------------------------------------


def parts_by_brand_nation(sf_dir: str):
    """TPC-H Q2-shape multi-join over the fact table: lineitem ⋈ part ⋈
    supplier ⋈ nation → (p_brand, n_name) counts + quantity sums. The
    three dimension tables are broadcast once (ray.put) and attached
    map-side while lineitem streams — the star-join pattern; the only
    exchange is the final bounded-key groupby."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])

    def attach_brand_nation(batch, part, supp, nation) -> pa.Table:
        nk = _lookup(batch["l_suppkey"], supp, "s_suppkey", "s_nationkey")
        t = pa.table({
            "p_brand": _lookup(batch["l_partkey"], part, "p_partkey", "p_brand"),
            "n_name": _lookup(nk, nation, "n_nationkey", "n_name"),
            "l_quantity": batch["l_quantity"],
        })
        # inner-join semantics: drop facts with no matching dim row
        return t.filter(pc.and_(pc.is_valid(t["p_brand"]),
                                pc.is_valid(t["n_name"])))

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey", "l_quantity"])
    out = _broadcast_join(ds, (part, supp, nation), attach_brand_nation)
    out = out.groupby(["p_brand", "n_name"]).aggregate(
        Count(alias_name="n_items"), Sum("l_quantity", alias_name="sum_qty")
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("sum_qty"),
            "sum_qty",
            pc.cast(t["sum_qty"], pa.int64()),
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# --- the user-keyed window family ------------------------------------------
#
# SCALE SHAPE (VERDICT r03 wrong #3): a groupby(user_id).map_groups pays
# one Python/pandas call per GROUP, and group count scales with user
# cardinality (measured ~10 s per 150k groups on this host). These ops
# instead run on ``partitioning.key_runs``: one sort on user_id, each
# sorted block re-sorted once by (user_id, ...), every per-user window
# computed with SEGMENT-VECTORIZED numpy over the user runs (run starts
# + cumsum bases + ONE composite-key searchsorted): Python calls =
# blocks, never user cardinality. The composite key is (user run, dense
# rank of ts within the block), so it is below n² for n rows and cannot
# overflow int64 for any block under 2^31 rows, whatever the time span.
# The partitioning assumption is unchanged — all rows of one user
# co-locate (one block instead of one group).


def _composite_key(uidx: np.ndarray, ts: np.ndarray):
    """(C, U): ``C = uidx * len(U) + rank of ts in U``, with ``U`` the
    block's distinct ts values. Over rows sorted by (user, ts) ``C`` is
    non-decreasing, so ONE searchsorted serves every user run at once;
    equal ``C`` means same user and same ts."""
    u = np.unique(ts)
    return uidx * len(u) + np.searchsorted(u, ts), u


def _ts_us(t: pa.Table) -> np.ndarray:
    return t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()


def _int64_table(**cols) -> pa.Table:
    return pa.table({
        k: v.cast(pa.int64()) if isinstance(v, pa.ChunkedArray)
        else pa.array(v, pa.int64())
        for k, v in cols.items()
    })


def _asof_merge_frame(t: pa.Table, starts: np.ndarray) -> pa.Table:
    """One sorted block's as-of merge over user runs sorted by (user_id, ts,
    event_id): each purchase takes the last click at or before it in
    composite-key order (module-level so it is directly unit-testable)."""
    empty = _int64_table(event_id=[], click_event_id=[])
    is_c = pc.equal(t["event_type"], "click").to_numpy(zero_copy_only=False)
    is_p = pc.equal(t["event_type"], "purchase").to_numpy(
        zero_copy_only=False)
    if not is_c.any() or not is_p.any():
        return empty
    ts = _ts_us(t)
    eid = t["event_id"].to_numpy()
    uidx = run_ids(starts, len(ts))
    C, _ = _composite_key(uidx, ts)
    Cc, cu, cid = C[is_c], uidx[is_c], eid[is_c]
    pos = np.searchsorted(Cc, C[is_p], side="right") - 1
    ok = pos >= 0
    ok[ok] &= cu[pos[ok]] == uidx[is_p][ok]  # same-user guard
    return _int64_table(event_id=eid[is_p][ok], click_event_id=cid[pos[ok]])


def _window_funcs_frame(t: pa.Table, starts: np.ndarray) -> pa.Table:
    """One sorted block's ROW_NUMBER + LAG + RANGE-count pass over user runs
    sorted by (user_id, ts, event_id) (module-level for direct unit
    tests)."""
    hour_us = 3_600_000_000
    ts = _ts_us(t)
    eid = t["event_id"].to_numpy()
    n = len(ts)
    uidx = run_ids(starts, n)
    event_seq = np.arange(n) - starts[uidx] + 1
    prev = np.empty(n, dtype=np.int64)
    prev[1:] = eid[:-1]
    prev[starts] = -1
    C, u = _composite_key(uidx, ts)
    # the window start in composite space: the user's first row with
    # ts >= ts - 1 h (the rank of ts - 1 h among the block's ts values)
    qlo = uidx * len(u) + np.searchsorted(u, ts - hour_us, side="left")
    n_last = (np.searchsorted(C, C, side="right")
              - np.searchsorted(C, qlo, side="left"))
    return _int64_table(event_id=eid, event_seq=event_seq,
                        prev_event_id=prev, n_last_hour=n_last)


_BY_TIME = ["ts", "event_id"]


def sessionize_events(sf_dir: str):
    """Gap-based sessionization (streaming-shaped windowed operator): per
    user, order events by (ts, event_id); a gap strictly greater than 30
    minutes starts a new session. Output (event_id, session_seq) with
    session_seq 1-based per user. One key-run reduce on user_id — the
    same partitioning key as every other per-user window op."""
    gap_us = 30 * 60_000_000

    def sess(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = _ts_us(t)
        new_sess = np.zeros(len(ts), dtype=bool)
        new_sess[1:] = ts[1:] - ts[:-1] > gap_us
        new_sess[starts] = True
        s = np.cumsum(new_sess)
        first = starts[run_ids(starts, len(ts))]
        return _int64_table(event_id=t["event_id"],
                            session_seq=s - s[first] + 1)

    return key_runs(_events(sf_dir, ["event_id", "user_id", "ts"]),
                    "user_id", _BY_TIME, sess)


def top_events_per_user(sf_dir: str):
    """Grouped top-k: each user's 3 highest-value events (ties broken by
    event_id asc), ranked 1..3 — rank = row index minus run start."""

    def topk(t: pa.Table, starts: np.ndarray) -> pa.Table:
        rank = np.arange(t.num_rows) - starts[run_ids(starts, t.num_rows)] + 1
        keep = np.flatnonzero(rank <= 3)
        t = t.take(pa.array(keep))
        return _int64_table(user_id=t["user_id"], event_id=t["event_id"],
                            rank=rank[keep])

    return key_runs(_events(sf_dir, ["user_id", "event_id", "value"]),
                    "user_id", [("value", "descending"), "event_id"], topk)


def asof_click_before_purchase(sf_dir: str):
    """AS-OF JOIN (attribution shape): for every purchase event, the most
    recent click by the same user with click.ts <= purchase.ts (ties on
    ts broken by max event_id). Inner semantics: purchases with no prior
    click are dropped.

    Ray Data lacks a native as-of join; this is the canonical
    composition — co-partition both streams on the join key (one
    key-run reduce) and merge with ONE composite-key searchsorted across
    all users in the block, relying ONLY on key co-location (the
    partitioning assumption: all rows of one user fit one block — the
    standard event-log contract)."""

    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    keep = ds.map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"],
                             value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return key_runs(keep, "user_id", _BY_TIME, _asof_merge_frame)


def sample_docs_deterministic(sf_dir: str):
    """T3 sampling, the reproducible form: keep a doc iff its id hash
    falls in the lowest 10% of the range — a deterministic hash
    sample that every rerun selects identically. Use Ray-native
    ``ds.random_sample`` when statistical (non-reproducible) sampling is
    wanted. The hash is the first byte of md5(str(doc_id)): one md5
    call per row, and DuckDB reproduces it bit-for-bit."""
    from .partitioning import md5_prefix_array

    cut = 256 * 10 // 100

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keep = md5_prefix_array(batch["doc_id"].to_pylist(), 1) < cut
        return batch.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def read_query_vectors(path: str, n_queries: int, dtype=np.float64) -> dict:
    """Driver-side query-vector pick with ROW-GROUP PUSHDOWN: only row
    groups whose vec_id stats overlap [0, n_queries) are read — never the
    whole table."""
    from .similarity import _to_matrix

    qt = pq.read_table(
        path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    ).sort_by("vec_id")
    return {
        "query_id": qt["vec_id"].to_pylist(),
        "matrix": _to_matrix(qt["embedding"], dtype),
    }


def embedding_topk_exact(sf_dir: str):
    """Brute-force cosine top-10 of the first 3 vectors (float64 to match
    the DuckDB oracle); output (query_id, vec_id, rank) — ints only, ties
    broken by vec_id."""
    from .similarity import brute_force_topk

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    queries = read_query_vectors(f"{sf_dir}/embeddings.parquet", 3)
    out = brute_force_topk(emb, queries)
    return out.select_columns(["query_id", "vec_id", "rank"])


# --- window functions (running / sliding / lag) ---------------------------


def window_funcs_events(sf_dir: str):
    """ROW_NUMBER + LAG + RANGE-sliding-count in ONE grouped pass (they
    share the partition key and sort order, so one exchange serves all
    three). Output (event_id, event_seq, prev_event_id, n_last_hour).

    Segment-vectorized over the user runs of ``key_runs``: row numbers
    from run starts, lag from a shifted array with run-start resets, and
    the RANGE window from ONE composite-key searchsorted covering every
    user in the block (kernel: _window_funcs_frame) — no per-user Python."""
    return key_runs(_events(sf_dir, ["user_id", "event_id", "ts"]),
                    "user_id", _BY_TIME, _window_funcs_frame)


# --- sort / top-k over a fact table ---------------------------------------


def top_events_by_value(sf_dir: str):
    """Global ORDER BY ... LIMIT 100 (distributed sort + tiny take):
    deterministic tie-break on event_id."""
    ds = _events(sf_dir, ["event_id", "value"])
    out = ds.sort(["value", "event_id"], descending=[True, False]).limit(100)
    return out.select_columns(["event_id"])


# --- multi-way broadcast star join ----------------------------------------


def customers_per_region(sf_dir: str):
    """Star-schema rollup: customer ⋈ nation ⋈ region with BOTH dims
    broadcast (they are tiny); the fact table streams. Output
    (r_name, n_name, n_customers)."""
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey", "n_name"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])

    def attach_region(batch, nation, region) -> pa.Table:
        nk = batch["c_nationkey"]
        rk = _lookup(nk, nation, "n_nationkey", "n_regionkey")
        t = pa.table({"r_name": _lookup(rk, region, "r_regionkey", "r_name"),
                      "n_name": _lookup(nk, nation, "n_nationkey", "n_name")})
        return t.filter(pc.is_valid(t["r_name"]))

    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])
    ds = _broadcast_join(ds, (nation, region), attach_region)
    return ds.groupby(["r_name", "n_name"]).aggregate(Count(alias_name="n_customers"))


def events_by_type_day(sf_dir: str):
    """Two-key grouped counts; (type, day) is bounded (~150 keys) → a
    ``tally``, no exchange."""
    return tally(_events(sf_dir, ["event_type", "ts"]), lambda t: pa.table({
        "event_type": t["event_type"], "day": _day(t), "n_events": ones(t),
    }), ["event_type", "day"])


def median_chars_by_lang(sf_dir: str):
    """Discrete median (quantile_disc 0.5) of n_chars per lang: one
    key-run reduce on lang sorted by n_chars picks each run's row
    ``(len + 1) // 2 - 1`` — DuckDB's lower-discrete definition."""

    def median(t: pa.Table, starts: np.ndarray) -> pa.Table:
        lens = np.diff(np.append(starts, t.num_rows))
        rows = pa.array(starts + (lens + 1) // 2 - 1)
        return pa.table({"lang": t["lang"].take(rows),
                         "median_chars": t["n_chars"].take(rows)})

    return key_runs(_docs(sf_dir, ["lang", "n_chars"]), "lang", ["n_chars"],
                    median)


# --- global aggregate / set operations ------------------------------------


def global_event_stats(sf_dir: str):
    """A4: whole-table aggregate without a groupby (single-row result),
    plus the exact COUNT(DISTINCT user_id) companion (keyed groupby →
    count of groups; absorbed here from its own query slot). Two pruned
    scans — the count/min/max pass needs no shuffle, the distinct pass
    shuffles (user_id) keys only."""
    ds = _events(sf_dir, ["event_id"])
    row = ds.aggregate(
        Count(alias_name="n_events"),
        Min("event_id", alias_name="min_event_id"),
        Max("event_id", alias_name="max_event_id"),
    )
    users = _events(sf_dir, ["user_id"])
    row["n_distinct_users"] = (
        users.groupby("user_id").aggregate(Count(alias_name="n")).count()
    )
    return pa.table({k: [v] for k, v in row.items()})


def union_clicks_views(sf_dir: str):
    """U1: union of two filtered streams (disjoint predicates →
    UNION ALL semantics)."""
    def keep(event_type):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], pa.scalar(event_type)))

        return fn

    ds = _events(sf_dir, ["event_id", "event_type"])
    clicks = ds.map_batches(keep("click"), batch_format="pyarrow", zero_copy_batch=True)
    views = ds.map_batches(keep("view"), batch_format="pyarrow", zero_copy_batch=True)
    return clicks.union(views).select_columns(["event_id"])


def users_click_and_purchase(sf_dir: str):
    """U2 INTERSECT: users appearing in BOTH event streams — union the
    flagged key sets, one keyed groupby keeps keys seen with both flags
    (the hash-partition intersect idiom; Ray has no native INTERSECT)."""
    ds = _events(sf_dir, ["user_id", "event_type"])

    def flag(event_type, val):
        def fn(t: pa.Table) -> pa.Table:
            f = t.filter(pc.equal(t["event_type"], pa.scalar(event_type)))
            return pa.table(
                {
                    "user_id": f["user_id"],
                    "flag": pa.array([val] * f.num_rows, pa.int64()),
                }
            )

        return fn

    a = ds.map_batches(flag("click", 1), batch_format="pyarrow", zero_copy_batch=True)
    b = ds.map_batches(flag("purchase", 2), batch_format="pyarrow", zero_copy_batch=True)

    # a key has both flags iff min == 1 and max == 2 — a hash AGGREGATE
    # instead of per-group Python (key cardinality = user cardinality;
    # the aggregate is ~fixed-cost while map_groups pays ~10s per 150k
    # groups on this host)
    agg = a.union(b).groupby("user_id").aggregate(
        Min("flag", alias_name="f_min"), Max("flag", alias_name="f_max")
    )

    def pick(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(t["f_min"], pa.scalar(1)),
                    pc.equal(t["f_max"], pa.scalar(2)))
        return pa.table({"user_id": t.filter(m)["user_id"]})

    return agg.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
