"""The traced run: per-layer metrics, timed from outside the package.

Spans are recorded only here, around calls into the package's public
functions, by rebinding the names its callers resolve at call time and
restoring them afterwards; nothing in the package changes. Layers that
Ray executes are read from ``Dataset.stats()`` of the datasets those
calls return. Every layer is measured over the workload's own pages:

- the extract job (``run_extract_job`` + ``report_lang``): read, fused
  extract operator, url-hash exchange, partitioned lineage sink, report;
- ``curate``: gate counts and spans around the eager dedup steps;
- the kernel (``extract_article`` in this process): one interval per
  stage per page, from the functions ``extract_article`` resolves;
- the flagship shape (``build_articles`` + ``report_lang``), for its
  extract-operator concurrency next to the job's.

The workload's own path runs once untraced and once traced; their outputs
must be equal, and the docs/s difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from collections import Counter
from urllib.parse import urlsplit

from perfbench import inputs
from perfbench.workloads import (
    NUM_PARTITIONS, Curate, ExtractJob, KernelBroad, Workload,
)

now = time.perf_counter

KERNEL_STAGES = ("decode", "parse", "metas", "outlinks", "lang", "clean",
                 "score", "siblings", "post_cleanup", "format")
STATUSES = ("ok", "empty", "blocked", "parse_error")


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.add(name, now(), None)
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid][2] = now()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([{"id": i, "name": n, "start": s, "end": e, "parent": p}
                       for i, (n, s, e, p) in enumerate(self.spans)], f)


def duration(span: list) -> float:
    return span[2] - span[1]


@contextlib.contextmanager
def rebound(*bindings):
    """Temporarily rebind ``(owner, attribute, wrapper_factory)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for (owner, attr, make), (_, _, old) in zip(bindings, saved):
            setattr(owner, attr, make(old))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---- Ray Data stats ------------------------------------------------------

_HEAD_RE = re.compile(r"^(Operator|Suboperator) \d+ (.+?): (.*)$")
_DUR_RE = re.compile(r"([\d.]+)(us|ms|s)\b")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _secs(text: str) -> float:
    m = _DUR_RE.match(text.strip())
    return float(m[1]) * _SCALE[m[2]]


def _total(line: str) -> str:
    return line.rsplit(",", 1)[1].strip().split()[0]


def parse_stats(text: str) -> list[dict]:
    """Operators of a ``Dataset.stats()`` string, sub-operators nested."""
    ops: list[dict] = []
    cur = None
    for raw in text.splitlines():
        line = raw.strip()
        m = _HEAD_RE.match(line)
        if m:
            tasks = re.search(r"(\d+) tasks executed", m[3])
            wall = re.search(r" in ([\d.]+)s$", m[3])
            cur = {"name": m[2], "tasks": int(tasks[1]) if tasks else 0,
                   "wall_s": float(wall[1]) if wall else 0.0, "busy_s": 0.0,
                   "udf_s": 0.0, "peak_heap_mb": 0.0, "bytes": 0, "subs": []}
            if m[1] == "Suboperator" and ops:
                ops[-1]["subs"].append(cur)
            else:
                ops.append(cur)
        elif cur is None:
            continue
        elif line.startswith("* Remote wall time:"):
            cur["busy_s"] = _secs(_total(line))
        elif line.startswith("* UDF time:"):
            cur["udf_s"] = _secs(_total(line))
        elif line.startswith("* Peak heap memory usage (MiB):"):
            cur["peak_heap_mb"] = float(line.split(":")[1].split(",")[1].split()[0])
        elif line.startswith("* Output size bytes per block:"):
            cur["bytes"] = int(float(_total(line)))
        elif line.startswith("Dataset "):
            cur = None
    return ops


def _op(ops: list[dict], test) -> dict:
    return next((o for o in ops if test(o)), {})


def extract_op(ops: list[dict]) -> dict:
    """The operator holding the extract UDF, with its concurrency
    (summed task time over operator wall time)."""
    op = {"wall_s": 0.0, "busy_s": 0.0, "udf_s": 0.0, "tasks": 0,
          "peak_heap_mb": 0.0,
          **_op(ops, lambda o: "extract_fn" in o["name"])}
    op["concurrency"] = op["busy_s"] / op["wall_s"] if op["wall_s"] else 0.0
    return op


# ---- the three paths, traced ---------------------------------------------

def traced_extract_job(tr: Tracer, wl: Workload, i: int):
    import ray.data as rd

    import crawtext_ray.state.lineage as lineage
    from crawtext_ray.pipelines.flagship import run_extract_job
    from crawtext_ray.stages.report import report_lang

    held = []

    def hold(fn):
        def wrapper(*a, **k):
            ds = fn(*a, **k)
            held.append(ds)
            return ds
        return wrapper

    out = wl.out_dir()
    with rebound((lineage, "write_partitioned", hold)):
        with tr.span("extract_job") as job:
            with tr.span("pipelines.flagship.run_extract_job"):
                run_extract_job(wl.pages_dir(i), out,
                                num_partitions=NUM_PARTITIONS)
            with tr.span("stages.report.report_lang") as rep:
                langs = report_lang(
                    rd.read_parquet(out, file_extensions=["parquet"])).take_all()
    ops = parse_stats(held[0].stats())
    read = _op(ops, lambda o: o["name"].startswith("ReadParquet"))
    exchange = _op(ops, lambda o: o["subs"])
    sink = _op(ops, lambda o: "write_group" in o["name"])
    rows = [r["row_count"] for r in lineage.read_lineage(out)]
    m = {
        "read.wall_s": read.get("wall_s", 0.0),
        "read.bytes": read.get("bytes", 0),
        **{f"extract_op.{k}": extract_op(ops)[k] for k in (
            "wall_s", "busy_s", "udf_s", "concurrency", "tasks", "peak_heap_mb")},
        "exchange.wall_s": exchange.get("wall_s", 0.0),
        "exchange.busy_s": sum(s["busy_s"] for s in exchange.get("subs", ())),
        "exchange.bytes": exchange["subs"][-1]["bytes"] if exchange else 0,
        "exchange.skew": max(rows) / (sum(rows) / len(rows)),
        "sink.wall_s": sink.get("wall_s", 0.0),
        "sink.busy_s": sink.get("busy_s", 0.0),
        "sink.partitions": len(rows),
        "sink.bytes_written": sum(
            e.stat().st_size for e in os.scandir(out) if e.is_file()),
        "report.wall_s": duration(rep),
    }
    return (out, langs), duration(job), m


def traced_curate(tr: Tracer, wl: Workload, i: int):
    import crawtext_ray.pipelines.training_data as td
    import crawtext_ray.stages.textops as textops
    import crawtext_ray.state.bloom as bloom

    held: dict = {}
    m = {"bloom.build_s": 0.0, "near_dedup.candidate_pairs": 0}

    def lazy(name):
        """A lazy stage: span the call, keep the Dataset it returns."""
        def make(fn):
            def wrapper(*a, **k):
                with tr.span(f"curate.{name}"):
                    held[name] = fn(*a, **k)
                return held[name]
            return wrapper
        return make

    def eager(name):
        """An eager dedup step: span the call, then count rows in and out
        outside the span."""
        def make(fn):
            def wrapper(ds, *a, **k):
                if name == "exact_dedup":  # the checkpointed gated corpus
                    m["curate.extract_gate_ckpt_s"] = now() - cur[1]
                with tr.span(f"curate.{name}") as sp:
                    out = fn(ds, *a, **k)
                m[f"{name}.wall_s"] = duration(sp)
                n_in = ds.count()
                m[f"{name}.rows_dropped"] = n_in - out.count()
                if name == "exact_dedup":
                    m["decontaminate.rows_out"] = n_in
                return out
            return wrapper
        return make

    def build_bloom(fn):
        def wrapper(*a, **k):
            with tr.span("curate.bloom.build_bloom") as sp:
                out = fn(*a, **k)
            m["bloom.build_s"] = duration(sp)
            m["near_dedup.candidate_pairs"] = k.get("capacity", a[2] if len(a) > 2 else 0)
            return out
        return wrapper

    with rebound(
        (td, "quality_gate", lazy("quality_gate")),
        (textops, "repetition_gate", lazy("repetition_gate")),
        (textops, "decontaminate", lazy("decontaminate")),
        (td, "drop_exact_dups", eager("exact_dedup")),
        (td, "drop_near_dups", eager("near_dedup")),
        (bloom, "build_bloom", build_bloom),
    ):
        with tr.span("pipelines.training_data.curate") as cur:
            out = Curate.run_once(wl, i)
    # the gates are lazy and fused into the checkpoint write: count each
    # one's output by running its Dataset again
    m["quality_gate.rows_out"] = held["quality_gate"].count()
    m["repetition_gate.rows_out"] = held["repetition_gate"].count()
    return out, duration(cur), m


def traced_kernel(tr: Tracer, wl: Workload, i: int):
    """One pass of ``extract_article`` over the pages, each stage of each
    page timed as an interval between the calls that bound it.

    ``outlinks`` runs from the end of the metas calls to the end of the
    page's last outlink lookup; ``lang`` from there to the end of
    ``resolve_language`` (so it holds ``root.text_content()``); ``other``
    is the page's time outside every stage (page-url Adblock check,
    hashing, result assembly)."""
    import crawtext_ray.extract.article as article
    from crawtext_ray.extract import cleaners, metas, output, scoring
    from crawtext_ray.extract.adblock import default_rules

    rules = default_rules()
    page: dict = {}  # stage -> [start, end] of the current page
    st = {"meta_end": None, "link_end": None, "hrefs": []}
    fn_s: Counter = Counter()
    calls: Counter = Counter()

    def stage(name):
        def make(fn):
            def wrapper(*a, **k):
                t0 = now()
                r = fn(*a, **k)
                t1 = now()
                if name in page:
                    page[name][1] = t1
                else:
                    page[name] = [t0, t1]
                if name == "metas":
                    st["meta_end"] = t1
                return r
            return wrapper
        return make

    def lookup(name):
        def make(fn):
            def wrapper(*a, **k):
                t0 = now()
                r = fn(*a, **k)
                t1 = now()
                fn_s[name] += t1 - t0
                calls[name] += 1
                if st["meta_end"] is not None and "lang" not in page:
                    st["link_end"] = t1
                    if name == "urlnorm.canon_url":
                        st["hrefs"].append(a[1])
                return r
            return wrapper
        return make

    def lang(fn):
        def wrapper(*a, **k):
            r = fn(*a, **k)
            t1 = now()
            start = st["link_end"] or st["meta_end"]
            page["outlinks"] = [st["meta_end"], start]
            page["lang"] = [start, t1]
            return r
        return wrapper

    totals = Counter()
    status = Counter()
    pairs = []
    arts = []
    with rebound(
        (article, "decode_html", stage("decode")),
        (article, "parse_html", stage("parse")),
        *[(metas, f, stage("metas")) for f in (
            "get_title", "get_meta_description", "get_meta_keywords",
            "get_meta_lang", "get_canonical_link")],
        (article, "canon_url", lookup("urlnorm.canon_url")),
        (article, "is_crawlable", lookup("urlnorm.is_crawlable")),
        (rules, "should_block", lookup("adblock.should_block")),
        (article, "resolve_language", lang),
        *[(cleaners, f, stage("clean")) for f in (
            "remove_unwanted", "clean_em_tags", "remove_drop_caps",
            "clean_para_spans", "div_to_para")],
        (scoring, "calculate_best_node", stage("score")),
        (output, "add_siblings", stage("siblings")),
        (output, "post_cleanup", stage("post_cleanup")),
        (output, "format_output", stage("format")),
    ), tr.span("kernel.pass") as kpass:
        for p in wl.sets[i]:
            page.clear()
            st.update(meta_end=None, link_end=None, hrefs=[])
            t0 = now()
            a = article.extract_article(p.html, p.url, p.lang, rules)
            t1 = now()
            arts.append(a)
            status[a["status"]] += 1
            pid = tr.add("kernel.extract_article", t0, t1)
            staged = 0.0
            for name, (s, e) in page.items():
                tr.add(f"kernel.{name}", s, e, pid)
                totals[name] += e - s
                staged += e - s
            totals["other"] += (t1 - t0) - staged
            pairs.append((urlsplit(p.url).hostname or "", set(st["hrefs"])))
    m = {f"kernel.{s}_s": totals[s] for s in (*KERNEL_STAGES, "other")}
    m.update({f"kernel.status.{s}": status[s] for s in STATUSES})
    m.update({
        "adblock.should_block.calls": calls["adblock.should_block"],
        "adblock.should_block_s": fn_s["adblock.should_block"],
        "urlnorm.canon_url_s": fn_s["urlnorm.canon_url"],
        "urlnorm.is_crawlable_s": fn_s["urlnorm.is_crawlable"],
        "outlinks.repeat_frac": inputs.repeat_frac(pairs),
    })
    return arts, duration(kpass), m


def flagship_concurrency(tr: Tracer, wl: Workload, i: int) -> float:
    """Extract-operator concurrency of the flagship shape (bench.py's
    ``build_articles`` + ``report_lang``, no sink) on the same pages."""
    from crawtext_ray.pipelines.flagship import build_articles
    from crawtext_ray.stages.report import report_lang

    with tr.span("flagship_shape"):
        arts = build_articles(wl.pages_dir(i), num_partitions=NUM_PARTITIONS,
                              concurrency="tasks", batch_size=64).materialize()
        report_lang(arts).take_all()
    return extract_op(parse_stats(arts.stats()))["concurrency"]


PATHS = {
    ExtractJob.name: (ExtractJob, traced_extract_job),
    Curate.name: (Curate, traced_curate),
    KernelBroad.name: (KernelBroad, traced_kernel),
}


def traced_run(wl: Workload, spans_path: str) -> dict:
    """Run every layer over ``wl``'s three page sets; returns per-layer
    metrics and the output check results.

    The workload's own path runs untraced on set 0 and traced on set 1
    (fresh pages each, for the overhead), then untraced on set 1 again
    (for the byte comparison); the other paths and the flagship shape run
    traced on set 2."""
    tr = Tracer()
    failed = attempted = 0
    own_cls, own_fn = PATHS[wl.name]

    def checked(cls, result, i: int) -> None:
        nonlocal failed, attempted
        failed += cls.check(wl, result, i)
        attempted += len(wl.sets[i])

    try:
        with tr.span("setup"):
            setup = Workload.setup(wl)
            if isinstance(wl, KernelBroad):
                wl.setup()
        m = {f"setup.{k}": v for k, v in setup.items()}
        t0 = now()
        checked(own_cls, own_cls.run_once(wl, 0), 0)
        untraced_s = now() - t0
        traced, traced_s, own = own_fn(tr, wl, 1)
        checked(own_cls, traced, 1)
        again = own_cls.run_once(wl, 1)
        checked(own_cls, again, 1)
        before, after = own_cls.snapshot(wl, again), own_cls.snapshot(wl, traced)
        equal = before == after if isinstance(before, list) else before.equals(after)
        m.update(own)
        m["trace.untraced_docs_per_s"] = len(wl.sets[0]) / untraced_s
        m["trace.traced_docs_per_s"] = len(wl.sets[1]) / traced_s
        m["trace.overhead_frac"] = (1.0 - m["trace.traced_docs_per_s"]
                                    / m["trace.untraced_docs_per_s"])
        for name, (cls, fn) in PATHS.items():
            if name != wl.name:
                result, _, layer = fn(tr, wl, 2)
                checked(cls, result, 2)
                m.update(layer)
        m["flagship.extract_op.concurrency"] = flagship_concurrency(tr, wl, 2)
    finally:
        Workload.teardown(wl)
    tr.dump(spans_path)
    return {"metrics": m, "attempted": attempted, "failed": failed,
            "outputs_equal": equal}
