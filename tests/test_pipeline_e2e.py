"""End-to-end flagship pipeline vs generator ground truth (SURVEY.md §5.2
layer 3): status/lang counts, dedup, lineage resume, idempotence."""

import collections
import shutil

import pytest


@pytest.fixture(scope="module")
def articles_df(ray_session, pages_small):
    from crawtext_ray.pipelines.flagship import build_articles

    arts = build_articles(pages_small, num_partitions=4, concurrency=2)
    return arts.to_pandas()


def test_row_counts_match_input(articles_df, truth_small):
    assert len(articles_df) == len(truth_small)


def test_status_vs_truth(articles_df, truth_small):
    merged = articles_df.merge(
        truth_small.drop_duplicates("url"), on="url", how="left"
    )
    checkable = merged[merged["expected_status"] != "any"]
    # duplicates share a url with their original; statuses still comparable
    mismatch = checkable[checkable["status"] != checkable["expected_status"]]
    assert len(mismatch) == 0, mismatch[["url", "status", "expected_status"]].head()


def test_lang_report_vs_truth(ray_session, pages_small, truth_small):
    from crawtext_ray.pipelines.flagship import build_articles
    from crawtext_ray.stages.report import report_lang

    arts = build_articles(pages_small, num_partitions=4, concurrency=2)
    got = {
        r["lang"]: r["n_docs"] for r in report_lang(arts).take_all()
    }
    exp = collections.Counter(truth_small["expected_lang"])
    # articles keep the input lang column (M8 honors it)
    assert got == dict(exp)


def test_extracted_text_nonempty_for_ok(articles_df):
    ok = articles_df[articles_df["status"] == "ok"]
    assert (ok["n_words"] > 0).all()
    assert (ok["extracted_text"].str.len() > 0).all()
    # X10 contract: no leading/trailing whitespace, LF-only paragraph joins
    assert not ok["extracted_text"].str.contains("\r").any()
    assert (ok["extracted_text"] == ok["extracted_text"].str.strip()).all()


def test_blocked_pages_blocked(articles_df, truth_small):
    blocked_urls = set(truth_small[truth_small["is_blocked"]]["url"])
    got = articles_df[articles_df["url"].isin(blocked_urls)]
    assert (got["status"] == "blocked").all()
    assert len(got) == len(blocked_urls.intersection(set(articles_df["url"])))


def test_dedup_first_by_ts(ray_session, pages_small, truth_small,
                           no_map_groups):
    import ray.data as rd

    from crawtext_ray.stages.dedup import first_by

    pages = rd.read_parquet(pages_small, columns=["url", "warc_ts", "html"])
    deduped = first_by(pages, "url", "warc_ts", "html").to_pandas()
    n_dups = int(truth_small["is_duplicate"].sum())
    assert len(deduped) == len(truth_small) - n_dups
    assert deduped["url"].is_unique


def test_idempotence_identical_bytes(ray_session, pages_small):
    """Permutation/idempotence property: two runs produce identical
    per-url extracted bytes."""
    from crawtext_ray.pipelines.flagship import build_articles

    a = (
        build_articles(pages_small, num_partitions=4, concurrency=2)
        .to_pandas()[["url", "content_sha256"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        build_articles(pages_small, num_partitions=2, concurrency=2)
        .to_pandas()[["url", "content_sha256"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    # reruns produce the same bytes
    assert a.equals(b)
    # uncapped tasks produce the same bytes as capped tasks
    c = (
        build_articles(pages_small, num_partitions=2, concurrency="tasks")
        .to_pandas()[["url", "content_sha256"]]
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(c)


def test_lineage_resume(ray_session, pages_small, tmp_path):
    from crawtext_ray.pipelines.flagship import run_extract_job
    from crawtext_ray.state.lineage import completed_partitions, read_lineage

    out = str(tmp_path / "out")
    s1 = run_extract_job(pages_small, out, num_partitions=4, concurrency=2)
    assert s1["partitions_written"] == 4
    assert s1["rows"] == 1000
    recs = read_lineage(out)
    assert all(r["checksum"] for r in recs)
    assert sum(r["row_count"] for r in recs) == 1000

    # simulate a failed partition: delete one data file + its sidecar
    import os

    os.remove(f"{out}/part-00002.parquet")
    os.remove(f"{out}/lineage-00002.json")
    assert completed_partitions(out) == {0, 1, 3}

    s2 = run_extract_job(pages_small, out, num_partitions=4, concurrency=2)
    assert s2["partitions_skipped"] == 3
    assert s2["partitions_written"] == 1
    # full output restored, checksum of the re-done partition unchanged
    recs2 = read_lineage(out)
    assert sum(r["row_count"] for r in recs2) == 1000
    assert recs2 == sorted(recs2, key=lambda r: r["partition_id"])
    c1 = {r["partition_id"]: r["checksum"] for r in recs}
    c2 = {r["partition_id"]: r["checksum"] for r in recs2}
    assert c1 == c2


def test_resume_refuses_another_partition_count(ray_session, pages_small,
                                                tmp_path):
    """A 4-partition run killed before partition 3, rerun with 2
    partitions: its buckets {0, 1} are among the completed {0, 1, 2}, so
    every page would be skipped and partition 3's pages lost. The rerun
    is refused, naming both counts; so is an out dir whose sidecar
    records no count."""
    import json
    import os

    from crawtext_ray.pipelines.flagship import run_extract_job

    out = str(tmp_path / "out")
    run_extract_job(pages_small, out, num_partitions=4, concurrency=2)
    os.remove(f"{out}/part-00003.parquet")
    os.remove(f"{out}/lineage-00003.json")
    with pytest.raises(ValueError, match="num_partitions 4, not 2"):
        run_extract_job(pages_small, out, num_partitions=2, concurrency=2)
    assert sorted(os.listdir(out)) == [
        f"{k}-{i:05d}.{e}" for k, e in (("lineage", "json"),
                                        ("part", "parquet"))
        for i in range(3)]

    side = f"{out}/lineage-00001.json"
    with open(side) as f:
        rec = json.load(f)
    del rec["num_partitions"]
    with open(side, "w") as f:
        json.dump(rec, f)
    with pytest.raises(ValueError, match="num_partitions none, not 4"):
        run_extract_job(pages_small, out, num_partitions=4, concurrency=2)


def test_audit_flags_corrupt_and_missing_partitions(ray_session, pages_small, tmp_path):
    from crawtext_ray.audit import audit
    from crawtext_ray.pipelines.flagship import run_extract_job

    out = str(tmp_path / "out")
    run_extract_job(pages_small, out, num_partitions=4, concurrency=2)
    assert all(r["status"] == "ok" for r in audit(out))

    # truncate one data file mid-footer (unreadable), delete another
    import os

    with open(f"{out}/part-00001.parquet", "r+b") as f:
        f.truncate(17)
    os.remove(f"{out}/part-00003.parquet")
    res = {r["partition_id"]: r["status"] for r in audit(out)}
    assert res[1] == "unreadable_data_file"
    assert res[3] == "missing_data_file"
    assert res[0] == "ok" and res[2] == "ok"  # auditor kept going


def test_relevance_query_filters(ray_session, pages_small):
    from crawtext_ray.pipelines.flagship import build_articles

    arts = build_articles(
        pages_small,
        query_expression="market OR marché OR markt OR mercado",
        num_partitions=4,
        concurrency=2,
    ).to_pandas()
    ok = arts[arts["status"] == "ok"]
    rel = ok[ok["relevant"]]
    assert 0 < len(rel) < len(ok)
    # every relevant page indeed contains one of the terms as a token
    sample = rel.head(20)
    for _, row in sample.iterrows():
        text = (row["title"] + "\n" + row["extracted_text"]).lower()
        assert any(w in text for w in ("market", "marché", "markt", "mercado"))


def test_incremental_from_previous_output(ray_session, pages_small, tmp_path):
    """The cron-re-run model: a second run over the SAME dump pointed at
    the first run's output extracts (almost) nothing; pointing at an
    empty previous output extracts everything."""
    from crawtext_ray.pipelines.flagship import run_extract_job

    first = str(tmp_path / "first")
    s1 = run_extract_job(pages_small, first, num_partitions=4, concurrency=2)
    assert s1["rows"] == 1000

    second = str(tmp_path / "second")
    s2 = run_extract_job(pages_small, second, num_partitions=4,
                         concurrency=2, incremental_from=first)
    assert s2["rows"] == 0  # every url already extracted

    third = str(tmp_path / "third")
    empty_prev = str(tmp_path / "empty")
    import os

    os.makedirs(empty_prev)
    s3 = run_extract_job(pages_small, third, num_partitions=4,
                         concurrency=2, incremental_from=empty_prev)
    assert s3["rows"] == 1000


def test_extract_survives_null_rows(ray_session, tmp_path):
    """Real dumps carry nulls: html NULL, lang NULL, empty html — the
    stage must emit a row per input with a sane status, never crash."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.stages.extract_stage import extract_articles

    ts = datetime.datetime(2024, 1, 1)
    t = pa.table({
        "url": pa.array(["http://a.example/1", "http://a.example/2",
                         "http://a.example/3", None], pa.string()),
        "warc_ts": pa.array([ts] * 4, pa.timestamp("us")),
        "html": pa.array(
            [("<html><body><p>" +
              "This is a real paragraph with the usual function words "
              "that the content scorer wants to see in an article. " * 3 +
              "</p></body></html>").encode(),
             None, b"", b"<p>x</p>"], pa.binary()),
        "text": pa.array(["", "", "", ""], pa.string()),
        "lang": pa.array(["en", None, "en", "en"], pa.string()),
    })
    path = str(tmp_path / "pages")
    import os

    os.makedirs(path)
    pq.write_table(t, f"{path}/part-0.parquet")
    out = extract_articles(rd.read_parquet(path)).to_pandas()
    assert len(out) == 4
    assert set(out["status"]) <= {"ok", "empty", "parse_error", "blocked"}
    ok = out[out["url"] == "http://a.example/1"]
    assert ok["status"].iloc[0] == "ok"
    assert "real paragraph with the usual" in ok["extracted_text"].iloc[0]


def _job_stats(pages_dir, out_dir, monkeypatch) -> str:
    """``stats()`` of the sink Dataset of one ``run_extract_job``."""
    import crawtext_ray.state.lineage as lineage
    from crawtext_ray.pipelines.flagship import run_extract_job

    held = []
    write_partitioned = lineage.write_partitioned

    def holding(*a, **k):
        held.append(write_partitioned(*a, **k))
        return held[-1]

    monkeypatch.setattr(lineage, "write_partitioned", holding)
    run_extract_job(pages_dir, out_dir, num_partitions=4)
    return held[0].stats()


def test_extract_job_operator_names(ray_session, pages_small, tmp_path,
                                    monkeypatch):
    """The job's sink Dataset names its extract and write operators in
    ``stats()`` — per-layer tooling finds the operators by these names."""
    stats = _job_stats(pages_small, str(tmp_path / "out"), monkeypatch)
    assert "extract_fn" in stats
    assert "write_group" in stats


def test_extract_job_is_one_scan_extract_sink_operator(ray_session, pages_small,
                                                      tmp_path, monkeypatch):
    """The job fuses the page scan, the extract and the sink's partition
    split into one operator (a separate read operator holds CPU budget
    until its last task ends), and leaves the session's block size alone.
    The pages are over 8 MiB in 8 files: Ray's default read parallelism
    (about one task per MiB) would exceed the file count and split the
    read's blocks, and a splitting read does not fuse. ``read_pages``
    sizes the scan at one task per CPU here (4), each reading 2 files."""
    import re

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data import DataContext
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource,
    )

    from crawtext_ray.pipelines.flagship import PAGES_EXTRACT_COLUMNS

    pages = pq.read_table(pages_small)
    copy = pages.set_column(pages.schema.get_field_index("url"), "url",
                            pc.binary_join_element_wise(
                                pages["url"], pa.scalar("#copy"), ""))
    pages = pa.concat_tables([pages, copy])
    (tmp_path / "pages").mkdir()
    for i in range(8):
        pq.write_table(pages.slice(i * 250, 250),
                       tmp_path / "pages" / f"part-{i}.parquet")
    source = ParquetDatasource(str(tmp_path / "pages"),
                               columns=PAGES_EXTRACT_COLUMNS)
    assert source.estimate_inmemory_data_size() > 8 * 2**20
    session_block = DataContext.get_current().target_max_block_size
    stats = _job_stats(str(tmp_path / "pages"), str(tmp_path / "out"),
                       monkeypatch)
    heads = re.findall(r"^Operator \d+ (\S+): (.*)$", stats, re.M)
    fused = [(op, rest) for op, rest in heads if "extract_fn" in op]
    assert len(fused) == 1, heads
    assert fused[0][0].startswith("ReadParquet->")
    assert "split_by_partition" in fused[0][0]
    assert fused[0][1].startswith("4 tasks executed"), fused
    assert DataContext.get_current().target_max_block_size == session_block


def test_scan_tasks_whole_cpu_waves_at_most_one_per_file():
    """The page scan's read-task count (no Ray)."""
    from crawtext_ray.sources.pages import PAGE_BLOCK_BYTES, scan_tasks

    # perfbench's extract_job shape: 8 files, ~7.2 MB of pages, 4 CPUs
    assert scan_tasks(4, 8, 7.2e6) == 4
    # fewer files than CPUs: still one task per CPU (Ray splits blocks)
    assert scan_tasks(4, 1, 5.7e6) == 4
    assert scan_tasks(4, 2, 500 * PAGE_BLOCK_BYTES) == 4
    # many small files: about PAGE_BLOCK_BYTES per task, whole waves
    assert scan_tasks(4, 64, 100e6) == 12
    assert scan_tasks(4, 64, 8 * PAGE_BLOCK_BYTES) == 8
    assert scan_tasks(4, 64, 8 * PAGE_BLOCK_BYTES + 1) == 12
    assert scan_tasks(32, 1000, 57.5e6) == 32
    # huge input: one task per file
    assert scan_tasks(4, 20_000, 100e12) == 20_000
    # unknown size: one task per file, at least one per CPU
    assert scan_tasks(4, 8, None) == 8
    assert scan_tasks(4, 2, None) == 4


def test_read_pages_targets_small_blocks(ray_session, pages_small):
    from ray.data import DataContext

    from crawtext_ray.sources.pages import PAGE_BLOCK_BYTES, read_pages

    assert PAGE_BLOCK_BYTES < DataContext.get_current().target_max_block_size
    assert read_pages(pages_small).context.target_max_block_size == PAGE_BLOCK_BYTES


def test_extract_slices_blocks_to_batch_size(monkeypatch):
    """``batch_size`` is rows per kernel call: the stage hands Ray no
    batch size (so the scan fuses into it) and slices each block itself,
    with the same rows out at any slice size. No Ray."""
    import pyarrow as pa

    from crawtext_ray.stages import extract_stage, fusion
    from fixtures.gen_pages import build_page

    calls = []
    ray_kwargs = []
    call = extract_stage.ExtractArticles.__call__

    def recording(self, batch):
        calls.append(batch.num_rows)
        return call(self, batch)

    class Pages:  # stands in for a Dataset: hands back the batch function
        def map_batches(self, fn, **kwargs):
            ray_kwargs.append(kwargs)
            return fn

    monkeypatch.setattr(extract_stage.ExtractArticles, "__call__", recording)
    monkeypatch.setattr(fusion, "_WORKER_CACHE", {})
    rows = [build_page(i) for i in range(50)]
    block = pa.table({
        "url": [r["url"] for r in rows],
        "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
        "html": pa.array([r["html"] for r in rows], pa.binary()),
        "lang": [r["lang"] for r in rows],
    })
    small = extract_stage.extract_articles(Pages(), batch_size=7)(block)
    assert calls and max(calls) <= 7 and sum(calls) == 50
    calls.clear()
    large = extract_stage.extract_articles(Pages(), batch_size=64)(block)
    assert calls == [50]
    assert all(k.get("batch_size") is None for k in ray_kwargs)
    assert small.schema == large.schema == extract_stage.ARTICLES_SCHEMA
    assert small.to_pylist() == large.to_pylist()


def test_write_partition_fsyncs_data_before_commit(tmp_path, monkeypatch):
    """The part file is fsynced before its rename and before the lineage
    sidecar (the commit record) is written."""
    import os

    import pyarrow as pa

    from crawtext_ray.state import lineage

    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
        return fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.path.basename(src)))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    table = pa.table({"url": ["http://a.example/1", "http://a.example/2"]})
    lineage.write_partition(table, str(tmp_path), 3, 4)
    data_tmp, side_tmp = "part-00003.parquet.tmp", "lineage-00003.json.tmp"
    assert events == [("fsync", data_tmp), ("replace", data_tmp),
                      ("fsync", side_tmp), ("replace", side_tmp)]


def test_sink_runs_upstream_map_on_several_workers(ray_session, tmp_path):
    """The sink materializes its input before the keyed exchange, so a
    slow upstream map spreads over worker processes instead of running
    one task at a time while the exchange and the grouped write hold CPU
    budget they cannot use yet."""
    import os
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from crawtext_ray.state.lineage import write_partitioned

    def slow_tag(t: pa.Table) -> pa.Table:
        time.sleep(0.3)
        urls = [f"http://h{i}.example/{i}" for i in t["id"].to_pylist()]
        return pa.table({"url": urls,
                         "pid": pa.array([os.getpid()] * t.num_rows)})

    ds = rd.range(400, override_num_blocks=8).map_batches(
        slow_tag, batch_format="pyarrow", batch_size=None)
    out = str(tmp_path / "out")
    recs = write_partitioned(ds, out, 4).take_all()
    assert sum(r["row_count"] for r in recs) == 400
    pids = set()
    for r in recs:
        part = pq.read_table(f"{out}/part-{r['partition_id']:05d}.parquet")
        pids.update(part["pid"].to_pylist())
    assert len(pids) >= 2


def test_extract_job_reruns_byte_identical(ray_session, pages_small, tmp_path):
    """Part files are byte-identical across reruns: rows are written in
    (url, warc_ts, content_sha256) order, not in the order the shuffled
    scan and the exchange deliver them. The pages are split over 8 files
    so the scan's shuffled file order varies between runs."""
    import hashlib
    import os
    import pathlib

    import pyarrow.parquet as pq

    from crawtext_ray.pipelines.flagship import run_extract_job

    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    table = pq.read_table(pages_small)
    for i in range(8):
        pq.write_table(table.slice(i * 125, 125), f"{pages}/p{i}.parquet")

    def digests(out, concurrency):
        run_extract_job(pages, out, num_partitions=4,
                        concurrency=concurrency)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in pathlib.Path(out).glob("part-*.parquet")}

    a = digests(str(tmp_path / "a"), 2)
    b = digests(str(tmp_path / "b"), "tasks")
    assert len(a) == 4
    assert a == b


def test_lineage_status_counts(ray_session, pages_small, tmp_path):
    """Each sidecar counts its partition's statuses: the counts sum to
    ``row_count`` and equal the part file's ``status`` values; the
    audit still passes."""
    import pyarrow.parquet as pq

    from crawtext_ray.audit import audit
    from crawtext_ray.pipelines.flagship import run_extract_job
    from crawtext_ray.state.lineage import read_lineage

    out = str(tmp_path / "out")
    run_extract_job(pages_small, out, num_partitions=4)
    recs = read_lineage(out)
    assert len(recs) == 4
    for r in recs:
        counts = r["status_counts"]
        assert sum(counts.values()) == r["row_count"]
        part = pq.read_table(f"{out}/part-{r['partition_id']:05d}.parquet")
        assert counts == dict(collections.Counter(
            str(s) for s in part["status"].to_pylist()))
    assert set().union(*(r["status_counts"] for r in recs)) >= {"ok", "blocked"}
    assert all(r["status"] == "ok" for r in audit(out))


def test_extract_wirings_share_worker_state(monkeypatch):
    """Wirings with equal construction args share one ``ExtractArticles``
    per worker cache (a warm-up wiring carries into the job); different
    rules build a new one. Batch functions are called directly, no Ray."""
    import datetime

    import pyarrow as pa

    from crawtext_ray.stages import extract_stage, fusion

    built = []

    class Counting(extract_stage.ExtractArticles):
        def __init__(self, *a, **k):
            built.append(a)
            super().__init__(*a, **k)

    class Pages:  # stands in for a Dataset: hands back the batch function
        def map_batches(self, fn, **kwargs):
            return fn

    monkeypatch.setattr(extract_stage, "ExtractArticles", Counting)
    monkeypatch.setattr(fusion, "_WORKER_CACHE", {})
    batch = pa.table({
        "url": ["http://a.example/1"],
        "warc_ts": pa.array([datetime.datetime(2024, 1, 1)], pa.timestamp("us")),
        "html": pa.array([b"<html><body><p>x</p></body></html>"], pa.binary()),
        "lang": ["en"],
    })
    rules = ["||ads.example^"]
    first = extract_stage.extract_articles(Pages(), rule_lines=rules)
    second = extract_stage.extract_articles(Pages(), rule_lines=list(rules),
                                            batch_size=8)
    assert first.__name__ == "extract_fn"
    assert first(batch).num_rows == 1 and second(batch).num_rows == 1
    assert len(built) == 1
    extract_stage.extract_articles(Pages(), rule_lines=rules + ["/ad/"])(batch)
    assert len(built) == 2
    extract_stage.extract_articles(Pages())(batch)
    extract_stage.extract_articles(Pages())(batch)
    assert len(built) == 3


def test_write_partition_times_the_write(tmp_path, monkeypatch):
    """Lineage ``wall_s`` / ``rows_per_sec`` time the parquet write itself."""
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawtext_ray.state import lineage

    write_table = pq.write_table

    def slow_write(*a, **k):
        time.sleep(0.05)
        return write_table(*a, **k)

    monkeypatch.setattr(lineage.pq, "write_table", slow_write)
    table = pa.table({"url": ["http://a.example/1", "http://a.example/2"]})
    rec = lineage.write_partition(table, str(tmp_path), 3, 4)
    assert rec["wall_s"] >= 0.05
    assert 0 < rec["rows_per_sec"] <= 2 / 0.05
    assert lineage.read_lineage(str(tmp_path)) == [rec]


def test_hash_shuffle_sized_to_session(ray_session):
    """size_hash_shuffle must size the aggregator pool to the session's
    CPUs: with Ray's defaults (parallelism 200 → 64 aggregator actors)
    any groupby whose partition count is not pinned deadlocks on a
    small-CPU session inside the 300 s aggregator wait (regression:
    a HASH_SHUFFLE extract job hung at 8 cpus; bfs_crawl's join relies
    on the same sizing)."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.context import DataContext, ShuffleStrategy

    from crawtext_ray.stages.partitioning import size_hash_shuffle

    ctx = DataContext.get_current()
    prev = (ctx.shuffle_strategy, ctx.max_hash_shuffle_aggregators,
            ctx.default_hash_shuffle_parallelism)
    try:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        size_hash_shuffle(ctx)
        cpus = int(ray.cluster_resources()["CPU"])
        assert ctx.max_hash_shuffle_aggregators <= max(1, cpus // 2)
        ds = rd.range(2000).map_batches(
            lambda t: t.append_column(
                "k", pa.array([i % 5 for i in range(t.num_rows)])
            ),
            batch_format="pyarrow",
        )
        # un-pinned partition count: would use the 200-parallelism
        # default and hang without the sizing
        n = ds.groupby("k").map_groups(
            lambda g: g, batch_format="pyarrow"
        ).count()
        assert n == 2000
    finally:
        (ctx.shuffle_strategy, ctx.max_hash_shuffle_aggregators,
         ctx.default_hash_shuffle_parallelism) = prev


def first_by_pandas(ds, key: str, order_col: str, tiebreak: str):
    """Per-group reference form of ``first_by``: one pandas call per key."""

    def pick(g):
        return g.sort_values([order_col, tiebreak], kind="stable").head(1)

    return ds.groupby(key).map_groups(pick, batch_format="pandas")


def test_first_by_sharded_equals_pandas_reference(ray_session):
    """The vectorized first_by (one Ray sort on the key, one arrow sort
    per sorted block) returns exactly the per-group pandas reference's
    rows, for integer AND string keys, with a unique tiebreak pinning
    the pick; 900 keys put several keys in every block."""
    import numpy as np
    import ray.data as rd

    from crawtext_ray.stages.dedup import first_by

    rng = np.random.default_rng(7)
    n = 5000
    rows = {
        "user_id": rng.integers(0, 900, n),
        "ts": rng.integers(0, 50, n),          # many (key, ts) ties
        "event_id": rng.permutation(n),        # unique tiebreak
        "payload": rng.integers(0, 1000, n),
    }
    import pandas as pd

    df = pd.DataFrame(rows)
    df["skey"] = "u" + df["user_id"].astype(str)

    for key in ["user_id", "skey"]:
        ds = rd.from_pandas(df)
        got = (first_by(ds, key, "ts", "event_id")
               .to_pandas().sort_values(key).reset_index(drop=True))
        exp = (first_by_pandas(rd.from_pandas(df), key, "ts", "event_id")
               .to_pandas().sort_values(key).reset_index(drop=True))
        assert got[["user_id", "ts", "event_id", "payload"]].equals(
            exp[["user_id", "ts", "event_id", "payload"]]), key
