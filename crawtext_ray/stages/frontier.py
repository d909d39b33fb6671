"""Frontier expansion + BFS driver loop (SURVEY.md §2.8 J1/U1/T2;
reference crawtext: worker.py BFS over the Mongo ``queue`` collection).

The reference crawls live HTTP; here the "fetch" is a lookup into the
pre-crawled pages corpus (SURVEY.md §0), so BFS = iterative subsetting of
the pages Dataset by the current frontier's url set, one Dataset round per
depth (no global sort — depth ordering is the driver loop).

J1 (seen-url anti-join) with a small seen set is
``partitioning.member_filter(..., keep=False)``: the set is shipped once
per worker and each batch is filtered. When neither side is small it is
``anti_join_grouped``, and the page subset of a large frontier is a
semi-join on url: each is ONE ``partitioning.key_runs`` sort on url over
the union of both sides, with a flag column that orders each url's run
so one look at its first row decides it (Ray 2.49 has no native anti- or
semi-join, and its hash join needs an aggregator pool sized to the
session).

``bfs_crawl`` picks between a broadcast frontier and a Dataset frontier
against ``partitioning.BROADCAST_ROWS``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _url_runs(left, right, keep):
    """The rows of ``left`` that ``keep(right_led, first)`` marks: ONE
    ``key_runs`` sort on url over ``left`` ∪ ``right`` (same columns; a
    null url is no url and is dropped), ``right``'s rows leading each
    url run. Per ``left`` row, ``right_led`` says ``right`` holds its
    url and ``first`` that it leads its run."""
    import pyarrow.compute as pc

    from .partitioning import key_runs, run_ids

    def flag(ds, value: int):
        def flagged(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t["url"]))
            return t.append_column(
                "__right", pa.array(np.full(t.num_rows, value, np.int8)))
        return ds.map_batches(flagged, batch_format="pyarrow",
                              zero_copy_batch=True)

    def url_runs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        is_right = t["__right"].to_numpy() == 1
        first = np.isin(np.arange(t.num_rows), starts)
        right_led = is_right[starts][run_ids(starts, t.num_rows)]
        return t.filter(pa.array(keep(right_led, first) & ~is_right)
                        ).drop_columns(["__right"])

    return key_runs(flag(left, 0).union(flag(right, 1)), "url",
                    [("__right", "descending")], url_runs)


def anti_join_grouped(new_ds, seen_ds):
    """Urls of ``new_ds`` not present in ``seen_ds``, once each; both
    sides large (one ``key_runs`` sort, ``_url_runs``)."""
    return _url_runs(new_ds.select_columns(["url"]),
                     seen_ds.select_columns(["url"]),
                     lambda right_led, first: first & ~right_led)


def _semi_join_urls(pages_ds, frontier_ds):
    """The page rows of ``pages_ds`` whose url ``frontier_ds`` holds
    (``_url_runs``; frontier rows carry the pages' columns as typed
    nulls)."""
    schema = pages_ds.schema().base_schema

    def as_pages(t: pa.Table) -> pa.Table:
        return pa.table([t["url"].cast(f.type) if f.name == "url"
                         else pa.nulls(t.num_rows, f.type) for f in schema],
                        schema=schema)

    frontier = frontier_ds.map_batches(as_pages, batch_format="pyarrow")
    return _url_runs(pages_ds, frontier, lambda right_led, first: right_led)


def outlinks_frontier(articles, depth: int):
    """M6 -> frontier rows: flat_map outlinks with page-level dedup
    already applied by the extractor; returns (url, depth, parent_url).
    Arrow list-flatten — no Python loop over links."""
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        links = batch["outlinks"].combine_chunks()
        # list_flatten + list_parent_indices stay aligned across NULL
        # list slots (an offsets diff would count a null slot's offset
        # range while flatten() skips its values)
        flat = pc.list_flatten(links)
        parents = batch["url"].combine_chunks().take(
            pc.list_parent_indices(links)
        )
        return pa.table(
            {
                "url": flat,
                "depth": pa.array(
                    np.full(len(flat), depth, dtype=np.int32), pa.int32()
                ),
                "parent_url": parents,
            }
        )

    return articles.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def bfs_crawl(pages_ds, seed_urls: list[str], max_depth: int = 2):
    """T2: strict depth-by-depth BFS inside a pre-crawled corpus, each
    round's pages run through the flagship extraction stage. Returns
    (articles_per_depth: list[Dataset], seen_urls: set).

    Frontier handling is two-mode BY ROUND, picked against
    ``partitioning.BROADCAST_ROWS``:
    - frontier ≤ that (the common case): broadcast the url set once
      (``partitioning.member_filter``) inside the fused
      read→filter→extract chain — zero shuffles.
    - a larger frontier: the frontier stays a Dataset; the page subset is
      the key-run semi-join on url (``_semi_join_urls``) and the next
      frontier is the key-run ``anti_join_grouped`` against the
      accumulated seen Dataset — nothing frontier-sized ever lands on the
      driver.
    The seen set tracks both modes as a Dataset; the returned set is
    materialized only when its final size fits ``BROADCAST_ROWS`` (else
    the Dataset itself is returned in its place)."""
    import ray.data as rd

    from . import partitioning
    from .extract_stage import extract_articles

    small = len(seed_urls) <= partitioning.BROADCAST_ROWS
    seen_set: set[str] = set()
    frontier_urls = list(dict.fromkeys(seed_urls))
    seen_ds = None
    frontier_ds = None
    if not small:
        seen_ds = rd.from_arrow(pa.table({"url": pa.array([], pa.string())}))
        frontier_ds = rd.from_items(
            [{"url": u} for u in frontier_urls]
        ).materialize()
    rounds = []
    for depth in range(max_depth + 1):
        if small:
            frontier_urls = [u for u in frontier_urls if u not in seen_set]
            if not frontier_urls:
                break
            subset = partitioning.member_filter(
                pages_ds, "url", pa.array(sorted(frontier_urls)), keep=True)
        else:
            # read three times: the count, the page subset, the seen set
            frontier_ds = anti_join_grouped(frontier_ds, seen_ds).materialize()
            if frontier_ds.count() == 0:
                break
            subset = _semi_join_urls(pages_ds, frontier_ds)
        articles = extract_articles(subset).materialize()
        rounds.append(articles)
        if small:
            seen_set.update(frontier_urls)
        else:
            seen_ds = seen_ds.union(frontier_ds).materialize()
        if depth == max_depth:
            break
        links = outlinks_frontier(articles, depth + 1).select_columns(["url"])
        if small and (links.count() + len(seen_set)
                      > partitioning.BROADCAST_ROWS):
            # permanent switch to Dataset mode mid-crawl
            small = False
            seen_ds = rd.from_items(
                [{"url": u} for u in sorted(seen_set)]
            ).materialize()
            frontier_ds = links.materialize()
        elif small:
            frontier_urls = list(
                dict.fromkeys(r["url"] for r in links.iter_rows())
            )
        else:
            frontier_ds = links.materialize()
    if small:
        return rounds, seen_set
    # match the documented contract: hand back a plain set whenever the
    # FINAL seen size fits BROADCAST_ROWS, even if the crawl switched
    # to Dataset mode mid-flight (callers then never touch a Dataset)
    if seen_ds.count() <= partitioning.BROADCAST_ROWS:
        seen = set()
        for b in seen_ds.iter_batches(batch_format="pyarrow"):
            seen.update(b["url"].to_pylist())
        return rounds, seen
    return rounds, seen_ds
