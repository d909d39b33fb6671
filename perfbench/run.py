"""The repository benchmark (``BENCHMARK.json`` at the checkout root).

    python3 perfbench/run.py --workload extract_job --seed 1 --seconds 24 --trace 0

Workloads (inputs made from ``--seed``, see ``perfbench/inputs.py``):

- ``extract_job``: ``run_extract_job`` over 2,000 site-crawl pages into a
  fresh out dir, then ``report_lang`` over its output, on a local Ray
  session with one CPU per CPU of this process's affinity mask.
- ``kernel_broad``: ``extract_article`` single-threaded in this process,
  no Ray, over 500 broad-crawl pages (a host per page) per call.
- ``curate``: ``curate`` with bench.py's ``curate_full_10k`` settings over
  2,000 site-crawl pages. It is not in ``BENCHMARK.json``: on a shared
  4-CPU host its docs/s spread 0.11-0.36 (quartile distance over median)
  across seeds, wider than any bound. Every traced run still measures
  its layers.

``--trace 0`` is the timed run: ``sessions`` rounds of set-up (the median
set-up is ``setup_s``), job calls one at a time (a closed loop, each call
on pages no earlier call saw) and teardown, until ``--seconds`` of calls
are measured; every call's output is checked, and the throughput and CPU
metrics are medians over the calls. ``--trace 1`` is the traced run of
``perfbench/trace.py``: per-layer metrics, spans written to
``.perfbench_run/``.

Stdout's last line is one JSON object: ``correct``, ``attempted`` and
``failed`` (pages; ``failed / attempted`` is the failed fraction), and
``metrics`` (name -> value and unit, as named in ``BENCHMARK.json``). The
line before it holds the host facts, the input properties, and every
per-call figure. The self-checks are ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs, session  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def timed_run(wl, seconds: float) -> dict:
    """``wl.sessions`` rounds of set-up, calls and teardown. Round ``k``
    makes one call, then more until the measured time reaches
    ``k/sessions`` of ``seconds``, so session-to-session differences
    spread over the run."""
    t_start = time.perf_counter()
    setups, rates, cpu, calls = [], [], [], []
    attempted = failed = 0
    measured = 0.0
    i = 0
    for cycle in range(wl.sessions):
        try:
            setups.append(wl.setup())
            # one call per page set: a run stops early rather than repeat one
            first = True
            while i < len(wl.sets) and (
                    first or measured < seconds * (cycle + 1) / wl.sessions):
                first = False
                n = len(wl.sets[i])
                c0 = session.tree_cpu_s()
                t0 = time.perf_counter()
                try:
                    result = wl.run_once(i)
                except Exception:
                    # a crashed call fails every page it was given
                    traceback.print_exc()
                    attempted += n
                    failed += n
                    i = len(wl.sets)
                    break
                wall = time.perf_counter() - t0
                cpu_s = session.tree_cpu_s() - c0
                measured += wall
                bad = wl.check(result, i)
                wl.discard()
                attempted += n
                failed += bad
                rates.append(n / wall)
                cpu.append(cpu_s / (n / 1000))
                calls.append({"wall_s": wall, "cpu_s": cpu_s, "failed": bad})
                i += 1
        finally:
            wl.teardown()
    setup_s = [sum(s.values()) for s in setups]
    metrics = {
        "docs_per_s": statistics.median(rates) if rates else 0.0,
        "cpu_s_per_kdoc": statistics.median(cpu) if cpu else 0.0,
        "setup_s": statistics.median(setup_s),
        "driver_peak_rss_mb": session.peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0 and bool(rates),
            "detail": {"run_s": time.perf_counter() - t_start,
                       "calls": calls, "setups": setups,
                       "curate_outputs": wl.curate_outputs}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    run_dir = os.path.join(ROOT, ".perfbench_run")
    work_dir = os.path.join(run_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        # the traced run makes three calls per path (see trace.py)
        wl = WORKLOADS[args.workload](args.seed, work_dir,
                                      n_sets=3 if args.trace else None)
        props = inputs.properties(wl.sets)
        props["make_s"] = time.perf_counter() - t0
        if args.trace:
            from perfbench.trace import traced_run

            res = traced_run(wl, os.path.join(
                run_dir, f"spans-{args.workload}-{args.seed}.json"))
            res["correct"] = res["failed"] == 0 and res.pop("outputs_equal")
        else:
            res = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = res.pop("metrics")
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: {sorted(values)}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": session.host_facts(
            wl.num_cpus, wl.num_cpus if wl.uses_ray or args.trace else None),
        "inputs": props, **res.pop("detail", {}),
    }))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
