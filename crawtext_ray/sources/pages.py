"""Input sources (SURVEY.md §2.1 S1/S2).

S1: the reference's HTTP fetcher (crawtext: page.py, goose:
goose/network.py) is replaced by a Parquet scan of pre-crawled
Common-Crawl-style pages (BASELINE.json:15). Column pruning is applied at
the read so stages that don't parse never ship ``html`` bytes.
"""

from __future__ import annotations

import ray.data

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

# Target block size of a page scan and of every stage derived from it.
# Until an operator emits its first block, Ray Data budgets each new task
# 2 x target_max_block_size of pending output (128 MiB by default), so a
# small object store admits one task of the fused scan+extract operator
# until that task ends; a real extract task emits under 1 MB. Measured at
# 4 CPUs with a 512 MiB object store: 8 and 16 MiB ran the extract job
# ~1.3x faster than the default, 32 and 64 MiB at most ~1.1x.
PAGE_BLOCK_BYTES = 8 * 1024 * 1024


def read_pages(
    path: str | list[str],
    columns: list[str] | None = None,
    include_paths: bool = False,
    override_num_blocks: int | None = None,
    shuffle=None,
) -> "ray.data.Dataset":
    """Scan the pages table. ``columns`` prunes at the parquet reader
    (row-group level) — e.g. reports read only ["url", "lang"].
    ``shuffle="files"`` randomizes file order (cheap host-skew break for
    host-clustered crawl dumps). Blocks target ``PAGE_BLOCK_BYTES``, set
    on this Dataset's own context (a copy; the session's is untouched)."""
    ds = ray.data.read_parquet(
        path,
        columns=columns,
        include_paths=include_paths,
        override_num_blocks=override_num_blocks,
        shuffle=shuffle,
    )
    ds.context.target_max_block_size = PAGE_BLOCK_BYTES
    return ds


def read_seed_file(path: str) -> "ray.data.Dataset":
    """S2: seed URL list, one per line -> frontier Dataset at depth 0
    (crawtext: crawtext.py --file option analog)."""
    ds = ray.data.read_text(path)
    return ds.map_batches(
        lambda b: {"url": b["text"], "depth": [0] * len(b["text"])},
        batch_format="numpy",
    )
