"""Lineage audit CLI: verify that every completed partition's data file
still matches its lineage checksum (sha256 over sorted
url||content_sha256 — state/lineage.py contract).

    python -m crawtext_ray.audit --out /path/to/extract-job-output

Exit 0 when every partition verifies; 1 with a per-partition report
otherwise. This is the integrity half of the resume story: a rerun
trusts lineage sidecars, so an auditor must be able to re-derive them.
Driver-side only (reads one partition at a time; no Ray session needed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pyarrow.parquet as pq

from crawtext_ray.state.lineage import _partition_checksum, read_lineage


def audit(out_dir: str) -> list[dict]:
    results = []
    for rec in read_lineage(out_dir):
        pid = rec["partition_id"]
        path = os.path.join(out_dir, f"part-{pid:05d}.parquet")
        entry = {"partition_id": pid, "expected": rec["checksum"]}
        if not os.path.exists(path):
            entry.update(status="missing_data_file", actual=None)
        else:
            try:
                table = pq.read_table(path, columns=["url", "content_sha256"])
            except Exception as e:
                # a corrupt/truncated part file is exactly what an integrity
                # auditor exists to flag — report it, keep auditing the rest
                entry.update(status="unreadable_data_file", actual=None,
                             error=str(e))
                results.append(entry)
                continue
            actual = _partition_checksum(table)
            entry.update(
                status="ok" if actual == rec["checksum"] else "checksum_mismatch",
                actual=actual,
                rows=table.num_rows,
                expected_rows=rec["row_count"],
            )
            if entry["status"] == "ok" and table.num_rows != rec["row_count"]:
                entry["status"] = "row_count_mismatch"
        results.append(entry)
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="crawtext_ray.audit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    results = audit(args.out)
    bad = [r for r in results if r["status"] != "ok"]
    print(
        json.dumps(
            {
                "partitions": len(results),
                "ok": len(results) - len(bad),
                "bad": bad,
            }
        )
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
