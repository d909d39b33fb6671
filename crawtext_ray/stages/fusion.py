"""Task-fusion helper: run a stateful batch-stage as STATELESS TASKS with
per-worker-process cached state.

Ray Data fuses adjacent TaskPool map operators (transform → transform)
into one — batches never take an object-store hop between them — but
only for plain functions, not actor pools, and not a read into a map that
sets ``batch_size`` (so the extract stage runs as its own operator after
the read). A module-global cache keyed per wiring gives
the function the same once-per-worker state an actor would hold
(Ray reuses worker processes across tasks). Measured on the extract
stage: +25–40% over the best-tuned actor pool, zero pool sizing
(BASELINE.md note 5).
"""

from __future__ import annotations

import itertools

_WORKER_CACHE: dict = {}
_KEYS = itertools.count()


def fused(factory, key=None):
    """Wrap ``factory() -> callable-batch-stage`` as a task function with
    per-worker cached construction, named after ``factory`` (the Ray
    operator shows that name). ``factory`` may close over ray.ObjectRef
    broadcasts (resolved once per worker at first batch). ``key``
    (hashable, not a str) shares one instance across wirings built from
    the same construction args; the default is one instance per wiring."""
    if key is None:
        key = f"fused-{next(_KEYS)}"

    def stage_fn(batch):
        inst = _WORKER_CACHE.get(key)
        if inst is None:
            inst = _WORKER_CACHE[key] = factory()
        return inst(batch)

    stage_fn.__name__ = getattr(factory, "__name__", stage_fn.__name__)
    return stage_fn


def map_stage(ds, factory, *, key=None, concurrency="tasks", batch_size=None,
              batch_format: str = "pyarrow", zero_copy_batch: bool = True):
    """Wire a stage task-fused: ``concurrency`` "tasks"/None runs
    uncapped tasks, an int caps how many run at once (still tasks — the
    per-worker cache works either way). ``key``: see ``fused``."""
    kwargs: dict = {}
    if concurrency not in ("tasks", None):
        kwargs["concurrency"] = concurrency
    return ds.map_batches(
        fused(factory, key),
        batch_format=batch_format,
        zero_copy_batch=zero_copy_batch,
        batch_size=batch_size,
        **kwargs,
    )
