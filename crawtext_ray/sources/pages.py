"""Input sources (SURVEY.md §2.1 S1/S2).

S1: the reference's HTTP fetcher (crawtext: page.py, goose:
goose/network.py) is replaced by a Parquet scan of pre-crawled
Common-Crawl-style pages (BASELINE.json:15). Column pruning is applied at
the read so stages that don't parse never ship ``html`` bytes.
"""

from __future__ import annotations

import math

import ray.data
from ray.data._internal.datasource.parquet_datasource import ParquetDatasource

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

# Target block size of a page scan and of every stage derived from it.
# Until an operator emits its first block, Ray Data budgets each new task
# 2 x target_max_block_size of pending output (128 MiB by default), so a
# small object store admits one task of the fused scan+extract operator
# until that task ends; a real extract task emits under 1 MB. Measured at
# 4 CPUs with a 512 MiB object store: 8 and 16 MiB ran the extract job
# ~1.3x faster than the default, 32 and 64 MiB at most ~1.1x.
PAGE_BLOCK_BYTES = 8 * 1024 * 1024


def scan_tasks(cpus: int, files: int, size_bytes: float | None) -> int:
    """Read tasks for a page scan of ``files`` files holding about
    ``size_bytes`` of pages in memory, on ``cpus`` CPUs:
    ``max(C, min(F, C * ceil(S / (C * PAGE_BLOCK_BYTES))))``.

    Ray Data's scheduling loop notices ended tasks only once per step
    (``ray.wait(..., timeout=0.1)``), so a CPU whose task has ended idles
    up to 0.1 s before its next task starts, and Ray's default read
    parallelism (at least 2 tasks per CPU) pays that wait between two
    short fused scan+extract tasks on every CPU. The rule gives each task
    about ``PAGE_BLOCK_BYTES`` of pages, rounded up to whole waves of
    ``cpus`` tasks, and never more tasks than files: with at least ``cpus``
    files, every task reads whole files, Ray does not split its blocks
    (``SplitBlocks``), and the scan fuses into the extract. At scale it is
    one task per file, each streaming its file in ``PAGE_BLOCK_BYTES``
    blocks. Fewer files than CPUs still get ``cpus`` tasks (Ray splits
    the blocks so every CPU gets work). An unknown size gives one task
    per file."""
    if size_bytes is None:
        return max(cpus, files)
    waves = math.ceil(size_bytes / (cpus * PAGE_BLOCK_BYTES))
    return max(cpus, min(files, cpus * waves))


def read_pages(
    path: str | list[str],
    columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """Scan the pages table. ``columns`` prunes at the parquet reader
    (row-group level) — e.g. reports read only ["url", "lang"]. The
    files are read in shuffled order (a cheap host-skew break for
    host-clustered crawl dumps). The read-task count is ``scan_tasks`` of
    the session's CPUs and the scan's file count and in-memory size
    estimate, both read from the file metadata the datasource already
    holds; the scan then reads that same datasource. Blocks target
    ``PAGE_BLOCK_BYTES``, set on this Dataset's own context (a copy; the
    session's is untouched)."""
    source = ParquetDatasource(path, columns=columns, shuffle="files")
    files = sum(len(task.metadata.input_files)
                for task in source.get_read_tasks(1))
    n = scan_tasks(int(ray.cluster_resources().get("CPU", 1)), files,
                   source.estimate_inmemory_data_size())
    ds = ray.data.read_datasource(source, override_num_blocks=n)
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
