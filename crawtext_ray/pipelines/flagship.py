"""The flagship pipeline (SURVEY.md §3.1): pages parquet → decode → parse
→ adblock-filter → content-score → extract → articles, with a url-hash
partitioned, lineage-tracked resumable sink (BASELINE.json:6).

Partitioning model: ONE key — ``url_hash = sha1(url) % P`` — serves as
(a) the output partition id and (b) the checkpoint/resume unit; the sink
(state/lineage.write_partitioned) assigns it and runs the one keyed
all-to-all, over extracted articles (~5x smaller than the raw html).
The sink materializes the tagged articles before that exchange, so the
extract runs as the only CPU consumer, on every CPU (why: the sink's
docstring).
Host-level skew at the extract stage is broken the streaming way — the
scan reads files in shuffled order and tasks pick up batches dynamically
(see stages/partitioning.py for why not a pre-extract exchange). A rerun
recomputes bucket membership deterministically from the input, filters
out buckets whose lineage sidecar exists, and only re-extracts the rest
(re-reading skipped buckets costs IO only, never parse/extract compute).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from ..sources.pages import read_pages
from ..stages.extract_stage import ARTICLES_SCHEMA, extract_articles
from ..stages.partitioning import url_buckets
from ..state.lineage import read_lineage, resumable_partitions

# The extraction stage touches exactly these page columns
# (extract_stage.ExtractArticles.__call__); pruning the scan to them drops
# the WARC `text` passthrough — ~40% of the fixture's compressed row-group
# bytes — that extraction never reads. Pipelines that consume `text`
# read_pages() with their own column list.
PAGES_EXTRACT_COLUMNS = ["url", "warc_ts", "html", "lang"]


def build_articles(
    pages_path,
    query_expression: str | None = None,
    rule_lines: list[str] | None = None,
    num_partitions: int = 64,
    batch_size: int = 64,
    concurrency="tasks",
):
    """pages → articles Dataset (lazy; no sink).

    The scan reads files in shuffled order (host-clustered dumps land on
    different workers). The scan and the extract run as one operator on
    ``read_pages``' small blocks: the extract slices each block into
    ``batch_size``-row kernel calls itself, because Ray does not fuse a
    read into a map that sets a ``batch_size`` (see
    ``extract_articles``), and ``read_pages`` sizes the scan by work
    (``sources.pages.scan_tasks``: whole waves of one task per CPU, never
    more tasks than files), because Ray does not fuse a read whose blocks
    it splits either. ``num_partitions`` is unused: the articles
    are not partitioned until a sink partitions them. ``concurrency``:
    see ``extract_articles``."""
    ds = read_pages(pages_path, columns=PAGES_EXTRACT_COLUMNS)
    return extract_articles(
        ds,
        rule_lines=rule_lines,
        query_expression=query_expression,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def run_extract_job(
    input_path,
    out_dir: str,
    query_expression: str | None = None,
    rule_lines: list[str] | None = None,
    *,
    num_partitions: int,
    batch_size: int = 64,
    incremental_from: str | None = None,
) -> dict:
    """Resume-aware job: extract all not-yet-completed url-hash partitions
    and write part-/lineage- pairs under ``out_dir``. Returns a summary.
    Raises ValueError, before any Dataset is built, when ``out_dir``
    holds partitions written under another ``num_partitions``.

    Called by ``python -m crawtext_ray.run`` (the ``ray job submit``
    entrypoint, SURVEY.md §3.1)."""
    from ..state.lineage import write_partitioned

    t0 = time.time()
    done = resumable_partitions(out_dir, num_partitions)

    ds = read_pages(input_path, columns=PAGES_EXTRACT_COLUMNS)
    if incremental_from:
        # batch-incremental re-crawl (SURVEY.md §2.10, crawtext's
        # cron-re-run model): skip urls already extracted in a previous
        # run's output via a DISTRIBUTED-built Bloom anti-join — a false
        # positive skips a page (never re-extracts one), the safe
        # direction for incremental dumps. A previous-output dir with no
        # parquet yet (first cron run) means nothing to skip.
        import glob as _glob
        import ray.data as rd

        from ..stages.partitioning import member_filter
        from ..state.bloom import build_bloom

        prev_files = sorted(
            _glob.glob(os.path.join(incremental_from, "**", "*.parquet"),
                       recursive=True)
        )
        if prev_files:
            prev = rd.read_parquet(prev_files, columns=["url"])
            n_prev = prev.count()
            if n_prev:
                bloom = build_bloom(prev, "url", capacity=n_prev,
                                    fp_rate=1e-6)
                ds = member_filter(ds, "url", bloom, keep=False)
    if done:
        done_ids = np.array(sorted(done), np.int64)

        def drop_done(batch: pa.Table) -> pa.Table:
            pids = url_buckets(batch["url"].to_pylist(), num_partitions)
            return batch.filter(pa.array(~np.isin(pids, done_ids)))

        ds = ds.map_batches(drop_done, batch_format="pyarrow", zero_copy_batch=True)

    articles = extract_articles(
        ds,
        rule_lines=rule_lines,
        query_expression=query_expression,
        batch_size=batch_size,
    )
    summary_ds = write_partitioned(articles, out_dir, num_partitions,
                                   schema=ARTICLES_SCHEMA)
    recs = summary_ds.take_all()  # small: one row per partition
    wall = time.time() - t0
    total_rows = sum(r["row_count"] for r in recs)
    return {
        "out_dir": out_dir,
        "partitions_written": len(recs),
        "partitions_skipped": len(done),
        "rows": total_rows,
        "wall_s": round(wall, 3),
        "rows_per_sec": round(total_rows / wall, 2) if wall > 0 else 0.0,
        "lineage": read_lineage(out_dir)[:5],
    }
