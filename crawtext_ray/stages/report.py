"""Report aggregates (SURVEY.md §2.8 A1–A4, T1; reference crawtext:
report.py — per-project counts by language / status / source exported to
CSV/JSON).

Bounded-key counts (languages, statuses, the one-row global tally) run
through ``tally``: each block is summed per key where it is produced and
the driver folds the per-block sums as they stream in, so no exchange
runs and the driver never holds more than one row per key. Unbounded
keys (domains, tokens, BPE words) run through ``key_sums``: the same
per-block fold, then one ``partitioning.key_runs`` sort on the key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..extract.urlnorm import domain_of
from .partitioning import key_runs

_SUM = pc.ScalarAggregateOptions(min_count=0)  # an all-null sum is 0


def _fold(t: pa.Table, keys: list[str]) -> pa.Table:
    """Sum every non-key column of ``t`` per distinct ``keys`` value (one
    row for ``keys=[]``); a null key is a key of its own."""
    sums = [c for c in t.column_names if c not in keys]
    out = t.group_by(keys).aggregate([(c, "sum", _SUM) for c in sums])
    return out.select(keys + [f"{c}_sum" for c in sums]).rename_columns(
        keys + sums)


class _NoRows(dict):
    """The batch of an input with no rows and no schema (a filter that
    kept nothing): every column a partial reads is an empty string one."""

    num_rows = 0

    def __missing__(self, name: str) -> pa.Array:
        return pa.array([], pa.string())


def tally(ds, partial, keys: list[str]) -> pa.Table:
    """Per-key sums over a Dataset with a bounded key domain, as one
    Arrow table sorted by ``keys`` (nulls last). ``partial(batch)`` maps
    an Arrow batch to its key columns plus int64 columns to sum (per row
    or already summed). Each block is folded to one row per key in its
    task; the driver folds each block into its running tally as it
    streams in, so it holds O(distinct keys) rows, never keys × blocks.
    ``keys=[]`` gives the one-row global tally."""
    acc = None
    for block in ds.map_batches(
        lambda b: _fold(partial(b), keys), batch_format="pyarrow",
        zero_copy_batch=True,
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        acc = block if acc is None else _fold(
            pa.concat_tables([acc, block], promote_options="default"), keys)
    if acc is None:  # no block streamed in: the tally of zero rows
        schema = ds.schema()
        acc = _fold(partial(schema.base_schema.empty_table() if schema
                            else _NoRows()), keys)
    return acc.sort_by([(k, "ascending") for k in keys],
                       null_placement="at_end") if keys else acc


def key_sums(ds, partial, key: str):
    """Per-key sums over a Dataset with an unbounded key domain, as a
    Dataset of one row per (non-null) ``key`` value: ``partial`` as in
    ``tally``, each block folded per key in its task, then ONE
    ``key_runs`` sort on ``key`` and a fold of each sorted block."""
    def key_sum(t: pa.Table, _starts) -> pa.Table:
        return _fold(t, [key])

    folded = ds.map_batches(lambda b: _fold(partial(b), [key]),
                            batch_format="pyarrow", zero_copy_batch=True)
    return key_runs(folded, key, [], key_sum)


def ones(batch: pa.Table) -> pa.Array:
    """One int64 1 per row: the per-row count column of a tally partial."""
    return pa.array(np.ones(batch.num_rows, np.int64))


def key_counts(ds, key: str):
    """Rows per ``key`` value, as a Dataset of (key, n_docs)."""
    return rd.from_arrow(tally(
        ds.select_columns([key]),
        lambda b: pa.table({key: b[key], "n_docs": ones(b)}), [key]))


def report_lang(articles):
    """A1 (mandated by BASELINE.json:6): per-language doc counts."""
    return key_counts(articles, "lang")


def report_status(articles):
    """A2: ok / empty / blocked / parse_error tallies."""
    return key_counts(articles, "status")


def _domains(urls: pa.Array) -> pa.Array:
    # domain_of is stdlib urlsplit (exact host semantics incl. ports,
    # userinfo, IPv6); a null url has no host: domain_of's "".
    return pa.array([domain_of(u or "") for u in urls.to_pylist()],
                    pa.string())


def report_domain(articles):
    """A3: per-domain counts (host skew report; pruned to url first)."""
    return key_sums(
        articles.select_columns(["url"]),
        lambda b: pa.table({"domain": _domains(b["url"]),
                            "n_docs": ones(b)}), "domain")


def top_domains(articles, k: int):
    """T1: top-k domains by count, ties by domain (small post-agg sort)."""
    return report_domain(articles).sort(
        ["n_docs", "domain"], descending=[True, False]).limit(k)


def global_counters(articles) -> dict:
    """A4: one-row global tally (pages, ok pages, relevant pages, words)."""

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_pages": ones(b),
            "n_ok": pc.cast(pc.equal(b["status"], "ok"), pa.int64()),
            "n_relevant": pc.cast(b["relevant"], pa.int64()),
            "n_words": pc.cast(b["n_words"], pa.int64()),
        })

    cols = ["status", "relevant", "n_words"]
    return tally(articles.select_columns(cols), partial, []).to_pylist()[0]
