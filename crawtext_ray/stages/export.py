"""Report export (SURVEY.md §2.1 S6; reference crawtext: report.py
CSV/JSON export of aggregate counts).

Exports are driver-side by design: they run on already-aggregated tiny
Datasets (per-language counts, top-k tables), never on the corpus.
"""

from __future__ import annotations

import json
import os


def _to_records(report) -> list[dict]:
    if hasattr(report, "take_all"):
        return report.take_all()
    if hasattr(report, "to_pylist"):
        return report.to_pylist()
    return report.to_dict(orient="records")


def export_report(report, out_path: str) -> str:
    """Write a small aggregate Dataset/Table/DataFrame as csv or json
    (the format of ``out_path``'s extension). Atomic (tmp+rename),
    matching the lineage sink conventions."""
    recs = _to_records(report)
    fmt = os.path.splitext(out_path)[1].lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported export format: {fmt!r}")
    tmp = out_path + ".tmp"
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    if fmt == "json":
        with open(tmp, "w") as f:
            json.dump(recs, f, indent=1, sort_keys=True, default=str)
    else:
        import csv

        with open(tmp, "w", newline="") as f:
            if recs:
                w = csv.DictWriter(f, fieldnames=list(recs[0].keys()))
                w.writeheader()
                w.writerows(recs)
    os.replace(tmp, out_path)
    return out_path
