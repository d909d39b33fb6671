"""Local replica of the driver's correctness gate: run every
``__ray_entry__.queries()`` entry at a given sf and compare against
``oracle_sql()`` via DuckDB (row count + schema-name + order-insensitive
value comparison). Queries without an oracle get a rows-only check.

    python -m tools.check_oracle [--sf /root/testdata/sf0.01] [--only name]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings".split()
)


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(result, ray.data.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--only", default=None)
    ap.add_argument("--skip", default=None,
                    help="comma-separated query names to skip")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{args.sf}/{t}.parquet'"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    if args.sf.rstrip("/").endswith("sf0.1"):
        # the planted-truth oracles embed the sf0.01 fixture name (the
        # driver's contract scale); at sf0.1 the queries run over the
        # "mid" fixture, so point the truth reads at it too
        oracles = {
            k: v.replace("truth_small", "truth_mid")
                .replace("pages_small", "pages_mid")
            for k, v in oracles.items()
        }
    failures = 0
    for name, fn in qs.items():
        if args.only and name != args.only:
            continue
        if args.skip and name in args.skip.split(","):
            print(f"skip  {name}")
            continue
        t0 = time.time()
        try:
            res = to_pandas(fn(args.sf))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(res)} rows, {len(res.columns)} cols "
                  f"[{dt:.1f}s] (rows-only)")
            continue
        try:
            exp = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            failures += 1
            continue
        a, b = canon(res), canon(exp)
        if list(a.columns) != list(b.columns):
            print(f"FAIL  {name}: columns {list(a.columns)} != {list(b.columns)}")
            failures += 1
            continue
        if len(a) != len(b):
            print(f"FAIL  {name}: rows {len(a)} != {len(b)}")
            failures += 1
            continue
        if not a.equals(b):
            neq = (a != b).any(axis=1)
            print(f"FAIL  {name}: {int(neq.sum())} mismatching rows; first:")
            print(pd.concat([a[neq].head(3), b[neq].head(3)], axis=1))
            failures += 1
            continue
        print(f"OK    {name}: {len(a)} rows match oracle [{dt:.1f}s]")
    ray.shutdown()
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
