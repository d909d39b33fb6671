"""Frontier expansion + BFS driver loop (SURVEY.md §2.8 J1/U1/T2;
reference crawtext: worker.py BFS over the Mongo ``queue`` collection).

The reference crawls live HTTP; here the "fetch" is a lookup into the
pre-crawled pages corpus (SURVEY.md §0), so BFS = iterative subsetting of
the pages Dataset by the current frontier's url set, one Dataset round per
depth (no global sort — depth ordering is the driver loop).

J1 (seen-url anti-join) with a small seen set is
``partitioning.member_filter(..., keep=False)``: the set is shipped once
per worker and each batch is filtered. When neither side is small it is
``anti_join_grouped``: union + groupby("url") keeping groups with no
seen flag (Ray 2.49 has no native anti-join; hash-partition groupby is
the idiomatic equivalent).

``bfs_crawl`` picks between a broadcast frontier and a Dataset frontier
against ``partitioning.BROADCAST_ROWS``.
"""

from __future__ import annotations

import pyarrow as pa


def anti_join_grouped(new_ds, seen_ds, key: str = "url"):
    """Keys of ``new_ds`` not present in ``seen_ds``; both sides large.
    union with a side flag -> groupby(key) -> keep flagless groups."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    flag_new = new_ds.map_batches(
        lambda t: t.append_column("__seen", pa.array([0] * t.num_rows, pa.int8())),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    flag_seen = seen_ds.map_batches(
        lambda t: t.append_column("__seen", pa.array([1] * t.num_rows, pa.int8())),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    # "keep groups with no seen flag, one row each" is a Max AGGREGATE
    # (max flag 0 == never seen), not a per-group Python pass — the
    # group count here is the url cardinality, i.e. the corpus
    agg = flag_new.select_columns([key, "__seen"]).union(
        flag_seen.select_columns([key, "__seen"])
    ).groupby(key).aggregate(Max("__seen"))
    return agg.map_batches(
        lambda t: t.filter(pc.equal(t["max(__seen)"], 0)).select([key]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def outlinks_frontier(articles, depth: int):
    """M6 -> frontier rows: flat_map outlinks with page-level dedup
    already applied by the extractor; returns (url, depth, parent_url).
    Arrow list-flatten — no Python loop over links."""
    import numpy as np
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


def bfs_crawl(pages_ds, seed_urls: list[str], max_depth: int = 2,
              extract_fn=None, num_partitions: int = 16):
    """T2: strict depth-by-depth BFS inside a pre-crawled corpus.

    ``extract_fn(pages_subset) -> articles`` defaults to the flagship
    extraction stage. Returns (articles_per_depth: list[Dataset],
    seen_urls: set).

    Frontier handling is two-mode BY ROUND, picked against
    ``partitioning.BROADCAST_ROWS``:
    - frontier ≤ that (the common case): broadcast the url set once
      (``partitioning.member_filter``) inside the fused
      read→filter→extract chain — zero shuffles.
    - a larger frontier: the frontier stays a Dataset; the page subset is a
      native hash semi-join on url (pages carry only scalar/binary
      columns, which Acero joins accept) and the next frontier is the
      keyed ``anti_join_grouped`` against the accumulated seen Dataset —
      nothing frontier-sized ever lands on the driver.
    The seen set tracks both modes as a Dataset; the returned set is
    materialized only when its final size fits ``BROADCAST_ROWS`` (else
    the Dataset itself is returned in its place)."""
    import ray.data as rd

    from . import partitioning
    from .extract_stage import extract_articles

    extract_fn = extract_fn or (lambda ds: extract_articles(ds))
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
            # arrow-normalize + coalesce: anti_join_grouped ends in a
            # hash AGGREGATE, and a join whose right side's lineage
            # contains one misplans (observed on Ray 2.49) — the opaque
            # map_batches + repartition + materialize rebuilds clean
            # uniform blocks the join planner resolves correctly
            frontier_ds = (
                anti_join_grouped(frontier_ds, seen_ds)
                .map_batches(lambda t: t, batch_format="pyarrow",
                             zero_copy_batch=True)
                .repartition(num_partitions)
                .materialize()
            )
            if frontier_ds.count() == 0:
                break
            subset = pages_ds.join(
                frontier_ds,
                join_type="inner",
                num_partitions=num_partitions,
                on=("url",),
            )
            # the join's aggregator actors must fit the session, else it
            # waits forever for placement (the context is shared with
            # pages_ds's lineage; the sizing only affects hash shuffles)
            partitioning.size_hash_shuffle(subset.context)
        articles = extract_fn(subset).materialize()
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
