"""Task-fusion helper: run a stateful batch-stage as STATELESS TASKS with
per-worker-process cached state.

Ray Data fuses adjacent TaskPool map operators (transform → transform)
into one — batches never take an object-store hop between them — but
only for plain functions, not actor pools, not a read (or any map
that may change its row count) into a map that sets ``batch_size``, and
not a read whose blocks Ray splits (``SplitBlocks``: more read tasks
than files). A stage that wants small calls after a read therefore
leaves Ray's ``batch_size`` unset and passes ``slice_rows``: Ray fuses
the read into it and the stage cuts each block into slices itself (the
extract stage does this, and ``sources.pages.read_pages`` asks for at
most one read task per file when the input has a file per CPU, so the
page scan and the extract run as one operator). A
module-global cache keyed per wiring gives the function the same
once-per-worker state an actor would hold (Ray reuses worker processes
across tasks). Measured on the extract stage: +25–40% over the
best-tuned actor pool, zero pool sizing (BASELINE.md note 5).
"""

from __future__ import annotations

import itertools

import pyarrow as pa

_WORKER_CACHE: dict = {}
_KEYS = itertools.count()


def _instance(key, factory):
    """The worker's instance for ``key``, built on first use; the cache
    keeps the 8 most recently used keys (a hit moves its key to the
    back, so the shared extract instance outlives one-off wirings).
    Module-level on purpose: Ray pickles a task function's closure by
    value, globals included, so a closure reading ``_WORKER_CACHE``
    itself would get a fresh copy in every task and build its instance
    once per task, not once per worker."""
    inst = _WORKER_CACHE.pop(key, None)
    if inst is None:
        if len(_WORKER_CACHE) >= 8:
            del _WORKER_CACHE[next(iter(_WORKER_CACHE))]
        inst = factory()
    _WORKER_CACHE[key] = inst
    return inst


def fused(factory, key, slice_rows: int | None):
    """Wrap ``factory() -> callable-batch-stage`` as a task function with
    per-worker cached construction, named after ``factory`` (the Ray
    operator shows that name). ``factory`` may close over ray.ObjectRef
    broadcasts (resolved once per worker at first batch). ``key``
    (hashable, not a str) shares one instance across wirings built from
    the same construction args; None gives one instance per wiring.
    ``slice_rows`` calls the instance on Arrow slices of at most that many
    rows and concatenates the results (zero-copy); None calls it on the
    whole batch."""
    if key is None:
        key = f"fused-{next(_KEYS)}"

    def stage_fn(batch):
        inst = _instance(key, factory)
        if slice_rows is None or batch.num_rows <= slice_rows:
            return inst(batch)
        return pa.concat_tables([
            inst(batch.slice(i, slice_rows))
            for i in range(0, batch.num_rows, slice_rows)])

    stage_fn.__name__ = getattr(factory, "__name__", stage_fn.__name__)
    return stage_fn


def map_stage(ds, factory, *, key=None, concurrency="tasks", batch_size=None,
              slice_rows: int | None = None):
    """Wire a stage task-fused over zero-copy pyarrow batches:
    ``concurrency`` "tasks"/None runs uncapped tasks, an int caps how
    many run at once (still tasks — the per-worker cache works either
    way). ``key``, ``slice_rows``: see ``fused``."""
    kwargs: dict = {}
    if concurrency not in ("tasks", None):
        kwargs["concurrency"] = concurrency
    return ds.map_batches(
        fused(factory, key, slice_rows),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        **kwargs,
    )
