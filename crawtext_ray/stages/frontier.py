"""Frontier expansion + BFS driver loop (SURVEY.md §2.8 J1/U1/T2;
reference crawtext: worker.py BFS over the Mongo ``queue`` collection).

The reference crawls live HTTP; here the "fetch" is a lookup into the
pre-crawled pages corpus (SURVEY.md §0), so BFS = iterative subsetting of
the pages Dataset by the current frontier's url set, one Dataset round per
depth (no global sort — depth ordering is the driver loop).

J1 (seen-url anti-join) is ``anti_join_grouped``: ONE
``partitioning.run_join`` sort on url over the new links and the seen
urls, which keeps each unseen url once. T2's page subset is
``partitioning.member_join(pages, frontier, "url", keep=True)``, which
ships a small frontier to every worker and sorts a large one with the
pages; the crawl itself never picks a form.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def anti_join_grouped(new_ds, seen_ds):
    """Urls of ``new_ds`` not present in ``seen_ds``, once each (one
    ``partitioning.run_join`` sort; a null url is dropped)."""
    from .partitioning import run_join

    return run_join(new_ds.select_columns(["url"]),
                    seen_ds.select_columns(["url"]), "url",
                    lambda member_led, first: first & ~member_led)


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


def bfs_crawl(pages_ds, seed_urls: list[str]):
    """T2: strict depth-by-depth BFS inside a pre-crawled corpus to depth
    2, each round's pages run through the flagship extraction stage.
    Returns (articles_per_depth: list[Dataset], seen: Dataset of ``url``).

    One loop over Datasets: each round's frontier is its links
    anti-joined with the urls seen so far (``anti_join_grouped``), its
    pages are ``partitioning.member_join(pages, frontier, "url",
    keep=True)``, and the frontier joins the seen urls. Nothing
    frontier-sized lands on the driver."""
    import ray.data as rd

    from .extract_stage import extract_articles
    from .partitioning import member_join

    seen = rd.from_arrow(pa.table({"url": pa.array([], pa.string())}))
    links = rd.from_arrow(pa.table({"url": pa.array(seed_urls, pa.string())}))
    rounds = []
    for depth in range(3):
        # read three times: the count, the page subset, the seen urls
        frontier = anti_join_grouped(links, seen).materialize()
        if frontier.count() == 0:
            break
        articles = extract_articles(
            member_join(pages_ds, frontier, "url", keep=True)).materialize()
        rounds.append(articles)
        seen = seen.union(frontier).materialize()
        if depth == 2:
            break
        links = outlinks_frontier(articles, depth + 1)
    return rounds, seen
