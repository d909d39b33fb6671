"""The three workloads. Each one sets up, runs one job call (the timed
unit of the closed loop) and checks that call's output.

``check`` returns the number of failed pages: pages missing or
duplicated in the output, or whose status or golden bytes contradict the
fixture truth, plus output rows that should not exist.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs, session

NUM_PARTITIONS = 16  # bench.py's max(2 x cpus, 16) at 4 CPUs
CURATE_MIN_WORDS = 10


def read_output(out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """All ``part-*.parquet`` rows of a partitioned sink."""
    files = sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def row_keys(t: pa.Table) -> list[tuple[str, int]]:
    ts = pc.cast(t["warc_ts"], pa.int64()).to_pylist()
    return list(zip(t["url"].to_pylist(), ts))


def audit_ok(out_dir: str) -> bool:
    from crawtext_ray.audit import audit

    results = audit(out_dir)
    return bool(results) and all(r["status"] == "ok" for r in results)


class Workload:
    """Base: the seed's page sets, one per call, written under ``work_dir``
    as they are first needed."""

    name = ""
    broad = False
    uses_ray = True
    sessions = 3  # set-up / calls / teardown rounds per run
    n_sets = 8  # ~7 calls in 24 s at today's speed, and one to spare
    n_range = 1_988  # + the set's share of the 100 golden rows

    def __init__(self, seed: int, work_dir: str, n_sets: int | None = None):
        self.work_dir = work_dir
        self.num_cpus = session.affinity_cpus()
        self.sets = inputs.make_sets(seed, n_sets or self.n_sets, self.n_range,
                                     self.broad, self.num_cpus, work_dir)
        self.by_key = [{p.key: p for p in s} for s in self.sets]
        self.eval_texts = inputs.eval_texts(seed)
        self.curate_outputs: dict[str, list] = {}  # page-set hash -> identity
        self.calls = 0
        self.before_ray: set[int] = set()  # processes older than Ray's
        self.warm = inputs.warm_pages(self.broad)

    def pages_dir(self, i: int) -> str:
        path = os.path.join(self.work_dir, f"pages{i}")
        if not os.path.isdir(path):
            inputs.write_pages(self.sets[i], path)
        return path

    def setup(self) -> dict:
        """Start the Ray session and warm every worker's extract state."""
        self.before_ray = session.descendants()
        init_s = session.start_ray(self.num_cpus)
        import ray.data as rd

        from crawtext_ray.stages.extract_stage import extract_articles

        warm = inputs.pages_table(self.warm)
        t0 = time.perf_counter()
        extract_articles(
            rd.from_arrow(warm).repartition(warm.num_rows), batch_size=1
        ).materialize()
        return {"ray_init_s": init_s, "worker_warm_s": time.perf_counter() - t0}

    def teardown(self) -> None:
        session.stop_ray(self.before_ray)

    def out_dir(self) -> str:
        """A fresh output dir for one call."""
        self.calls += 1
        return os.path.join(self.work_dir, "out", str(self.calls))

    def discard(self) -> None:
        """Remove every call's output."""
        shutil.rmtree(os.path.join(self.work_dir, "out"), ignore_errors=True)

    def same_as_before(self, i: int, ident: list) -> bool:
        """Record set ``i``'s curate output identity; False when an earlier
        run in this checkout recorded another for the same pages."""
        path = os.path.join(os.path.dirname(self.work_dir), "curate_outputs.json")
        try:
            with open(path) as f:
                seen = json.load(f)
        except FileNotFoundError:
            seen = {}
        key = hashlib.sha256(
            repr([p.row_id for p in self.sets[i]]).encode()).hexdigest()
        self.curate_outputs[key] = ident
        if seen.setdefault(key, ident) != ident:
            return False
        with open(path, "w") as f:
            json.dump(seen, f)
        return True

    def page_failures(self, t: pa.Table, i: int) -> int:
        """Failures of an output that should hold every page of set ``i``
        once."""
        by_key = self.by_key[i]
        keys = row_keys(t)
        counts = Counter(keys)
        bad = {k for k, c in counts.items() if c != 1 or k not in by_key}
        bad |= by_key.keys() - counts.keys()
        status = t["status"].to_pylist()
        texts = t["extracted_text"].to_pylist()
        for k, s, text in zip(keys, status, texts):
            p = by_key.get(k)
            if p is None:
                continue
            if p.expected_status != "any" and s != p.expected_status:
                bad.add(k)
            if p.golden_text is not None and text.encode() != p.golden_text:
                bad.add(k)
        return len(bad)


class ExtractJob(Workload):
    """``run_extract_job`` into a fresh out dir, then ``report_lang``."""

    name = "extract_job"

    def run_once(self, i: int):
        import ray.data as rd

        from crawtext_ray.pipelines.flagship import run_extract_job
        from crawtext_ray.stages.report import report_lang

        out = self.out_dir()
        run_extract_job(self.pages_dir(i), out, num_partitions=NUM_PARTITIONS)
        langs = report_lang(
            rd.read_parquet(out, file_extensions=["parquet"])).take_all()
        return out, langs

    def check(self, result, i: int) -> int:
        out, langs = result
        n = len(self.sets[i])
        if not audit_ok(out) or sum(r["n_docs"] for r in langs) != n:
            return n
        return self.page_failures(
            read_output(out, ["url", "warc_ts", "status", "extracted_text"]), i)

    def snapshot(self, result) -> pa.Table:
        return sorted_output(result[0])


class Curate(Workload):
    """``curate`` with bench.py's ``curate_full_10k`` settings."""

    name = "curate"

    def run_once(self, i: int):
        from crawtext_ray.pipelines.training_data import curate

        out = self.out_dir()
        curate(self.pages_dir(i), out_dir=out, num_partitions=NUM_PARTITIONS,
               concurrency="tasks", min_words=CURATE_MIN_WORDS,
               benchmark=self.eval_texts, max_dup_line_frac=0.3)
        return out

    def check(self, out: str, i: int) -> int:
        """Every row ok, long enough, unique content, from an input page
        the truth allows, golden bytes where frozen; and the row count and
        url set equal to those of every earlier run of this checkout on
        the same page set."""
        n = len(self.sets[i])
        if not audit_ok(out):
            return n
        t = read_output(out, ["url", "warc_ts", "status", "n_words",
                              "content_sha256", "extracted_text"])
        by_key = self.by_key[i]
        keys = row_keys(t)
        shas = t["content_sha256"].to_pylist()
        sha_counts, key_counts = Counter(shas), Counter(keys)
        bad = 0
        for k, s, words, sha, text in zip(
            keys, t["status"].to_pylist(), t["n_words"].to_pylist(), shas,
            t["extracted_text"].to_pylist(),
        ):
            p = by_key.get(k)
            bad += (
                p is None
                or p.expected_status not in ("ok", "any")
                or s != "ok"
                or words < CURATE_MIN_WORDS
                or sha_counts[sha] > 1
                or key_counts[k] > 1
                or (p.golden_text is not None and text.encode() != p.golden_text)
            )
        url_set = hashlib.sha256(
            "\n".join(f"{u}\x00{ts}" for u, ts in sorted(keys)).encode()
        ).hexdigest()
        return n if not self.same_as_before(i, [len(keys), url_set]) else bad

    def snapshot(self, out: str) -> pa.Table:
        return sorted_output(out)


class KernelBroad(Workload):
    """``extract_article`` with the default Adblock rules, single-threaded
    in this process, over broad-crawl pages (a host per page)."""

    name = "kernel_broad"
    broad = True
    uses_ray = False
    sessions = 15
    n_sets = 52
    n_range = 495  # ~500 pages per call: 52 calls is ~28 s at today's speed

    def setup(self) -> dict:
        """Build the rules and stopword tables; warm the kernel's lazy
        state on pages no call sees."""
        from crawtext_ray.extract.adblock import default_rules
        from crawtext_ray.extract.article import extract_article
        from crawtext_ray.extract.stopwords import KNOWN_LANGUAGES, stopword_set

        t0 = time.perf_counter()
        self.rules = default_rules()
        stopword_set.cache_clear()
        for lang in KNOWN_LANGUAGES:
            stopword_set(lang)
        for p in self.warm:
            extract_article(p.html, p.url, p.lang, self.rules)
        return {"rules_stopwords_warm_s": time.perf_counter() - t0}

    def teardown(self) -> None:
        pass

    def run_once(self, i: int) -> list[dict]:
        from crawtext_ray.extract.article import extract_article

        rules = self.rules
        return [extract_article(p.html, p.url, p.lang, rules)
                for p in self.sets[i]]

    def check(self, arts: list[dict], i: int) -> int:
        pages = self.sets[i]
        bad = abs(len(arts) - len(pages))
        for p, a in zip(pages, arts):
            bad += (
                (p.expected_status != "any" and a["status"] != p.expected_status)
                or (p.golden_text is not None
                    and a["extracted_text"].encode() != p.golden_text)
            )
        return bad

    def snapshot(self, arts: list[dict]) -> list:
        return [sorted(a.items()) for a in arts]


def sorted_output(out_dir: str) -> pa.Table:
    """A sink's rows in (url, warc_ts) order: equal tables mean equal
    output bytes, whatever order the partitions were written in."""
    t = read_output(out_dir)
    return t.sort_by([("url", "ascending"), ("warc_ts", "ascending")])


WORKLOADS = {w.name: w for w in (ExtractJob, Curate, KernelBroad)}
