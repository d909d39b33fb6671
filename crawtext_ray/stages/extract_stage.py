"""The extraction stage (SURVEY.md §2 M3–M9, C*, X*, F3 fused;
BASELINE.json:6 "parser instances and compiled Adblock rule tries held in
actor pools" — met by the task-fused stage's per-worker cached state,
stages/fusion.py).

``ExtractArticles`` is a callable class: all per-worker state (stopword
tables, compiled boilerplate regexes, compiled Adblock rule index, the
relevance query AST) is built ONCE in ``__init__``; ``__call__`` maps one
zero-copy Arrow batch of pages to one Arrow batch of articles. Rows are
full HTML documents, so the unit of vectorization is the document — the
per-document tree walk is the irreducible Python kernel, everything around
it stays Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..extract.adblock import AdblockRules, default_rules
from ..extract.article import extract_article
from ..extract.query import Query

ARTICLES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("title", pa.string()),
        ("extracted_text", pa.large_string()),
        (
            "meta",
            pa.struct(
                [
                    ("description", pa.string()),
                    ("keywords", pa.string()),
                    ("lang", pa.string()),
                    ("canonical", pa.string()),
                ]
            ),
        ),
        ("outlinks", pa.list_(pa.string())),
        ("relevant", pa.bool_()),
        ("status", pa.string()),
        ("n_words", pa.int32()),
        ("content_sha256", pa.binary()),
    ]
)


def _binary_views(col) -> list:
    """Zero-copy per-row memoryviews over an Arrow binary column — the
    html bytes never get copied into Python bytes objects (the decode
    cascade accepts any buffer). Nulls yield b""."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.LargeBinaryArray):
        off_dtype = np.int64
    elif isinstance(arr, pa.BinaryArray):
        off_dtype = np.int32
    else:  # unexpected layout — fall back to the copying path
        return arr.to_pylist()
    n = len(arr)
    if n == 0:
        return []
    bufs = arr.buffers()
    if bufs[1] is None:
        return arr.to_pylist()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[arr.offset : arr.offset + n + 1]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    if arr.null_count:
        valid = np.asarray(arr.is_valid())
        return [
            data[offs[i]:offs[i + 1]] if valid[i] else b"" for i in range(n)
        ]
    return [data[offs[i]:offs[i + 1]] for i in range(n)]


class ExtractArticles:
    """pages batch (url, warc_ts, html, lang) -> articles batch."""

    def __init__(
        self,
        rule_lines: list[str] | None,
        query_expression: str | None,
    ):
        self.rules = (
            AdblockRules(rule_lines) if rule_lines is not None else default_rules()
        )
        self.query: Query | None = (
            Query(query_expression) if query_expression else None
        )
        # warm the per-language stopword caches once per worker
        from ..extract.stopwords import KNOWN_LANGUAGES, stopword_set

        for lang in KNOWN_LANGUAGES:
            stopword_set(lang)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = _binary_views(batch["html"])
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else [None] * len(urls)
        )
        # columnar accumulation (one list per column beats per-row dicts
        # through Table.from_pylist in the arrow conversion)
        cols: dict[str, list] = {
            "lang": [], "title": [], "extracted_text": [], "meta": [],
            "outlinks": [], "relevant": [], "status": [], "n_words": [],
            "content_sha256": [],
        }
        for url, html, lang in zip(urls, htmls, langs):
            art = extract_article(html or b"", url or "", lang, self.rules)
            if self.query is not None and art["status"] == "ok":
                relevant, _terms = self.query.match_with_terms(
                    art["title"] + "\n" + art["extracted_text"]
                )
            else:
                relevant = art["status"] == "ok" and self.query is None
            cols["lang"].append(art["lang"])
            cols["title"].append(art["title"])
            cols["extracted_text"].append(art["extracted_text"])
            cols["meta"].append(
                {
                    "description": art["meta_description"],
                    "keywords": art["meta_keywords"],
                    "lang": art["meta_lang"],
                    "canonical": art["canonical"],
                }
            )
            cols["outlinks"].append(art["outlinks"])
            cols["relevant"].append(relevant)
            cols["status"].append(art["status"])
            cols["n_words"].append(art["n_words"])
            cols["content_sha256"].append(art["content_sha256"])
        sch = ARTICLES_SCHEMA
        arrays = [batch["url"].combine_chunks().cast(pa.string()),
                  batch["warc_ts"].combine_chunks()]
        for f in sch:
            if f.name in ("url", "warc_ts"):
                continue
            arrays.append(pa.array(cols[f.name], f.type))
        return pa.Table.from_arrays(arrays, schema=sch)


def extract_articles(
    pages,
    rule_lines: list[str] | None = None,
    query_expression: str | None = None,
    batch_size: int = 64,
    concurrency="tasks",
):
    """Wire the extraction stage onto a pages Dataset as a task-fused
    stage (stages/fusion.py). Ray fuses it with the parquet scan and the
    maps between them into one operator, and each worker process builds
    ``ExtractArticles`` once per (rules, query) and reuses it across tasks
    and wirings — so a warm-up wiring carries into a later job with the
    same rules. ``concurrency``: "tasks"/None = uncapped tasks, an int
    caps them.

    ``batch_size`` is the rows per kernel call. It defaults small (64)
    because html rows can be 100 KiB+ (SURVEY.md §7.4: keep a batch of
    html bytes ~32–64 MiB). The stage cuts each block into slices of
    that many rows itself instead of handing Ray a ``batch_size``: Ray
    does not fuse a read into a map that sets one, and a separate read
    operator keeps CPU reserved until its last task ends, which leaves
    the extract fewer CPUs than the session has."""
    from .fusion import map_stage

    # the factory's name names the Ray operator ("...MapBatches(extract_fn)")
    def extract_fn():
        return ExtractArticles(rule_lines, query_expression)

    key = (tuple(rule_lines) if rule_lines is not None else None,
           query_expression)
    return map_stage(pages, extract_fn, key=key, slice_rows=batch_size,
                     concurrency=concurrency)
