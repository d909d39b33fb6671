"""Benchmark inputs, made from ``--seed`` with the public fixture generator.

Every workload's pages are ``fixtures.gen_pages.build_page`` rows, made
as page sets: one set per job call, and no page in two sets, so no call
finds a page an earlier call of the run left in a cache. Each set holds
some of the frozen golden rows (``tests/golden/gen_*``, so every call
checks extracted bytes) plus a row-id range the seed selects. The same
seed always gives the same pages, byte for byte.

- site crawl (``extract_job``, ``curate``): rows as generated — 50
  Zipf-skewed hosts, so nav, footer and link-farm hrefs repeat across the
  pages of a host — except that one range row in ``NEAR_COPY_EVERY`` is
  replaced by a near copy (one added phrase) of an earlier ok page of its
  set: the near duplicates curate's MinHash stage exists to find.
- broad crawl (``kernel_broad``): the same rows with each page's host
  rewritten to one no other page has, in its url and its html, so no
  (host, href) pair is shared across pages.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fixtures.gen_pages import PAGES_SCHEMA, build_page

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
# seed-selected rows start above the golden row ids (0..2475), so a range
# never repeats a golden row, and a recrawl duplicate (which copies a row
# at most 15 ids back) never copies one
RANGE_BASE = 2_500
NEAR_COPY_EVERY = 100
N_FILES = 8
_HREF_RE = re.compile(rb'href="([^"]*)"')
_HOST_RE = re.compile(r"site\d\d\.example")
_EPOCH = datetime(1970, 1, 1)

# word-salad vocabulary of the eval texts curate decontaminates against
# (the shape of the sf testdata ``documents`` table)
_EVAL_WORDS = (
    "batch part spark line column order small sort fast value scan hash "
    "slow group agg filter query a big key window row table stream merge "
    "data vector join customer the"
).split()


@dataclass
class Page:
    row_id: int
    url: str
    warc_ts: datetime
    html: bytes
    lang: str
    expected_status: str
    golden_text: bytes | None  # frozen expected.txt, for golden rows

    @property
    def key(self) -> tuple[str, int]:
        """Row identity as the output carries it: (url, warc_ts in us)."""
        return self.url, (self.warc_ts - _EPOCH) // timedelta(microseconds=1)


def golden_rows() -> dict[int, bytes]:
    """row id -> frozen extracted_text bytes of every generator golden."""
    out = {}
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.startswith("gen_"):
            with open(os.path.join(GOLDEN_DIR, name, "expected.txt"), "rb") as f:
                out[int(name[4:])] = f.read()
    return out


def row_ids(seed: int, n_sets: int, n_range: int) -> list[list[int]]:
    """The seed's row-id ranges, one per page set; no two seeds share one."""
    start = RANGE_BASE + (seed % 1_000_000) * n_sets * n_range
    return [list(range(start + j * n_range, start + (j + 1) * n_range))
            for j in range(n_sets)]


def _page(row_id: int, broad: bool) -> Page:
    r = build_page(row_id)
    url, html = r["url"], r["html"]
    if broad:
        host = _HOST_RE.search(url).group(0)
        new = f"r{row_id}-{host}"
        url = url.replace(host, new)
        html = html.replace(host.encode(), new.encode())
    return Page(row_id, url, r["warc_ts"], html, r["lang"],
                r["expected_status"], None)


def make_sets(seed: int, n_sets: int, n_range: int, broad: bool,
              processes: int, tmp_dir: str) -> list[list[Page]]:
    """``n_sets`` page sets with no page in two sets, so no call of a run
    sees a page an earlier call saw. Set ``j`` holds every ``n_sets``-th
    golden row from the ``j``-th, then its seed-selected range. Pages are
    made by ``processes`` child interpreters, each writing its share to a
    parquet file under ``tmp_dir``."""
    goldens = golden_rows()
    gold = sorted(goldens)
    ids = [gold[j::n_sets] + r for j, r in
           enumerate(row_ids(seed, n_sets, n_range))]
    flat = [i for set_ids in ids for i in set_ids]
    per = -(-len(flat) // processes)
    os.makedirs(tmp_dir, exist_ok=True)
    jobs = []
    for w in range(processes):
        path = os.path.join(tmp_dir, f"gen{w}.parquet")
        args = [sys.executable, "-m", "perfbench.inputs", path, str(int(broad)),
                *map(str, flat[w * per:(w + 1) * per])]
        jobs.append((path, subprocess.Popen(args, cwd=ROOT)))
    tables = []
    for path, proc in jobs:
        if proc.wait() != 0:
            raise RuntimeError(f"page generation failed: exit {proc.returncode}")
        tables.append(pq.read_table(path))
        os.remove(path)
    pages = [Page(**row, golden_text=goldens.get(row["row_id"]))
             for t in tables for row in t.to_pylist()]
    out, k = [], 0
    for set_ids in ids:
        out.append(pages[k:k + len(set_ids)])
        k += len(set_ids)
    if not broad:
        for s in out:
            _add_near_copies(s)
    return out


def _add_near_copies(pages: list[Page]) -> None:
    last_ok = None
    for p in pages:
        if (p.row_id % NEAR_COPY_EVERY == 7 and last_ok is not None
                and p.golden_text is None and p.expected_status != "blocked"):
            # the article body's last paragraph gains a phrase
            cut = last_ok.html.rfind(b"</p></div>")
            p.html = last_ok.html[:cut] + b" archive copy" + last_ok.html[cut:]
            p.lang, p.expected_status = last_ok.lang, "ok"
        elif p.expected_status == "ok":
            last_ok = p


def _write_generated(path: str, broad: bool, ids: list[int]) -> None:
    pages = [_page(i, broad) for i in ids]
    pq.write_table(pa.table({
        "row_id": [p.row_id for p in pages],
        "url": [p.url for p in pages],
        "warc_ts": pa.array([p.warc_ts for p in pages], pa.timestamp("us")),
        "html": pa.array([p.html for p in pages], pa.binary()),
        "lang": [p.lang for p in pages],
        "expected_status": [p.expected_status for p in pages],
    }), path)


def warm_pages(broad: bool) -> list[Page]:
    """Eight pages no workload set holds (ids just below the ranges, above
    the golden rows), for warming lazy state before timing."""
    return [_page(i, broad) for i in range(RANGE_BASE - 8, RANGE_BASE)]


def pages_table(pages: list[Page]) -> pa.Table:
    return pa.table(
        {
            "url": [p.url for p in pages],
            "warc_ts": [p.warc_ts for p in pages],
            "html": [p.html for p in pages],
            "text": [""] * len(pages),
            "lang": [p.lang for p in pages],
        },
        schema=PAGES_SCHEMA,
    )


def write_pages(pages: list[Page], out_dir: str) -> str:
    """Write the pages table as ``N_FILES`` parquet files; returns the dir."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-len(pages) // N_FILES)
    for i in range(N_FILES):
        pq.write_table(pages_table(pages[i * per:(i + 1) * per]),
                       os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir


def eval_texts(seed: int, n: int = 200) -> list[str]:
    """The eval set curate decontaminates against: ``n`` word-salad texts."""
    rng = np.random.default_rng([seed, 7])
    return [
        " ".join(rng.choice(_EVAL_WORDS, size=int(rng.integers(15, 61))))
        for _ in range(n)
    ]


def host_hrefs(pages: list[Page]) -> list[tuple[str, set[bytes]]]:
    """(page host, distinct non-empty hrefs) per page, from the raw html."""
    return [
        (urlsplit(p.url).hostname or "",
         {h for h in _HREF_RE.findall(p.html) if h})
        for p in pages
    ]


def repeat_counts(pairs: list[tuple[str, set]]) -> tuple[int, int]:
    """(repeats, lookups): how many (host, href) lookups an earlier page
    of that host already made — the hits an unbounded cross-page outlink
    cache would see — out of all lookups."""
    seen: set = set()
    lookups = repeats = 0
    for host, hrefs in pairs:
        for h in hrefs:
            lookups += 1
            repeats += (host, h) in seen
        seen.update((host, h) for h in hrefs)
    return repeats, lookups


def repeat_frac(pairs: list[tuple[str, set]]) -> float:
    repeats, lookups = repeat_counts(pairs)
    return repeats / lookups if lookups else 0.0


def properties(sets: list[list[Page]]) -> dict:
    """The input properties behaviour depends on, as counts over all sets
    (``outlinks.repeat_frac`` counts repeats within a set: one job)."""
    pages = [p for s in sets for p in s]
    counts = [repeat_counts(host_hrefs(s)) for s in sets]
    return {
        "sets": len(sets),
        "pages": len(pages),
        "html_bytes": sum(len(p.html) for p in pages),
        "hosts": len({urlsplit(p.url).hostname for p in pages}),
        "golden_pages": sum(p.golden_text is not None for p in pages),
        "outlinks.repeat_frac":
            sum(r for r, _ in counts) / max(1, sum(n for _, n in counts)),
        "truth_status": dict(sorted(
            Counter(p.expected_status for p in pages).items())),
    }


if __name__ == "__main__":
    # one page-generation child of make_sets: <out.parquet> <broad> <row ids>
    _write_generated(sys.argv[1], sys.argv[2] == "1", [int(i) for i in sys.argv[3:]])
