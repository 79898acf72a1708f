"""Dev harness mimicking the driver's correctness gate: run each
``queries()`` entry and its ``oracle_sql()`` (when present) at a given sf,
compare row count, column names, and order-insensitive values.

Usage: python scripts/verify_entries.py [sf_dir] [entry ...]
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings".split()
)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )
    return df


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> bool:
    ok = True
    if len(ray_df) != len(sql_df):
        print(f"  [{name}] ROWS differ: ray={len(ray_df)} sql={len(sql_df)}")
        ok = False
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        print(
            f"  [{name}] COLUMNS differ: ray={sorted(ray_df.columns)} "
            f"sql={sorted(sql_df.columns)}"
        )
        return False
    a, b = normalize(ray_df), normalize(sql_df)
    if len(a) == len(b):
        for col in a.columns:
            av, bv = a[col], b[col]
            if av.dtype.kind == "f":
                same = np.array_equal(
                    av.to_numpy(), bv.to_numpy(), equal_nan=True
                )
            else:
                same = av.astype(str).equals(bv.astype(str))
            if not same:
                diffs = (av.astype(str) != bv.astype(str)).to_numpy()
                i = int(np.argmax(diffs))
                print(
                    f"  [{name}] VALUES differ in col {col!r} at row {i}: "
                    f"ray={av.iloc[i]!r} sql={bv.iloc[i]!r}"
                )
                ok = False
    return ok


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    try:
        if not ray.is_initialized():
            ray.init(
                address="local", num_cpus=8, include_dashboard=False,
                ignore_reinit_error=True,
            )
        # a SIGTERM (e.g. from ``timeout``) unwinds through the
        # ``finally``, so the local Ray session never outlives this
        # script; set after ray.init, whose own handler would replace it
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
        n_bad = _run(sf_dir, only)
    finally:
        ray.shutdown()
    sys.exit(1 if n_bad else 0)


def _run(sf_dir: str, only: set) -> int:
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')"
            )
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    n_ok = n_bad = 0
    import time as _time

    for name, fn in qs.items():
        if only and name not in only:
            continue
        _t0 = _time.time()
        try:
            res = fn(sf_dir)
            if not isinstance(res, pd.DataFrame):
                res = (
                    res.to_pandas()
                    if hasattr(res, "to_pandas")
                    else pd.DataFrame(res)
                )
        except Exception as e:
            print(f"  [{name}] RAY FAILED: {type(e).__name__}: {e}")
            n_bad += 1
            continue
        if name in sqls:
            try:
                sql_df = con.sql(sqls[name]).df()
            except Exception as e:
                print(f"  [{name}] SQL FAILED: {e}")
                n_bad += 1
                continue
            if compare(name, res, sql_df):
                print(
                    f"  [{name}] OK ({len(res)} rows, sql-checked, "
                    f"{_time.time() - _t0:.1f}s)"
                )
                n_ok += 1
            else:
                n_bad += 1
        else:
            print(f"  [{name}] rows-only: {len(res)} rows")
            n_ok += 1
    print(f"{n_ok} ok, {n_bad} bad")
    return n_bad


if __name__ == "__main__":
    main()
