"""Self-checks of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import inputs

ROOT = inputs.ROOT


def _fields(sets):
    return [[(p.row_id, p.url, p.warc_ts, p.html, p.lang, p.expected_status,
              p.golden_text) for p in s] for s in sets]


@pytest.mark.parametrize("broad", [False, True])
def test_same_seed_makes_identical_inputs(tmp_path, broad):
    a = inputs.make_sets(7, 2, 150, broad, 2, str(tmp_path / "a"))
    b = inputs.make_sets(7, 2, 150, broad, 2, str(tmp_path / "b"))
    assert _fields(a) == _fields(b)
    other = inputs.make_sets(8, 2, 150, broad, 2, str(tmp_path / "c"))
    assert {p.row_id for s in other for p in s}.isdisjoint(
        p.row_id for s in a for p in s if p.golden_text is None)


def test_sets_share_no_page_and_every_golden_is_used(tmp_path):
    sets = inputs.make_sets(3, 4, 100, False, 2, str(tmp_path))
    ids = Counter(p.row_id for s in sets for p in s)
    assert max(ids.values()) == 1
    assert sum(p.golden_text is not None for s in sets for p in s) == len(
        inputs.golden_rows())
    assert any(p.row_id % inputs.NEAR_COPY_EVERY == 7 and b" archive copy" in p.html
               for s in sets for p in s)


def test_broad_rewrite_shares_no_host_href_pair(tmp_path):
    pages = [p for s in inputs.make_sets(5, 2, 400, True, 2, str(tmp_path))
             for p in s]
    pairs = Counter(
        (host, href)
        for host, hrefs in inputs.host_hrefs(pages) for href in hrefs)
    assert pairs and max(pairs.values()) == 1
    assert inputs.properties([pages])["outlinks.repeat_frac"] == 0.0


def _last_json(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)[kind]
    res = _last_json("kernel_broad", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
