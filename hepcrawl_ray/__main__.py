"""Command-line surface — the ``scrapy crawl <spider>`` equivalent
(reference usage: ``scrapy crawl arxiv -a sets=... -s JSON_OUTPUT_DIR=...``;
see hepcrawl's README/spider docstrings).  A user of the reference
drives everything from a shell; this module gives the Ray-Data engine
the same front door:

    python -m hepcrawl_ray list                      # registry + oracle status
    python -m hepcrawl_ray crawl --sf-dir D --out O  # resumable flagship crawl
    python -m hepcrawl_ray query NAME --sf-dir D     # any registered pipeline
    python -m hepcrawl_ray oracle NAME               # its DuckDB-equivalent SQL

Owns a Ray session ONLY when none exists (the graft driver and pytest
fixture init Ray themselves; the guard keeps this module importable
and callable under both).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ensure_ray(num_cpus: int | None):
    import ray

    if ray.is_initialized():
        return False
    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, logging_level="ERROR")
    return True


def _to_table(result):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
        if df.shape[1] == 0:
            # all-empty Dataset: Ray dropped every block — recover the
            # typed empty from the plan schema (queries carry a typed
            # zero-row seed) so `query --out` writes a USABLE parquet
            pinned = getattr(result, "_hepcrawl_schema", None)
            if pinned is not None:
                return pinned.empty_table()
            try:
                s = result.schema(fetch_if_missing=False)
                if s is None:
                    s = result.schema(fetch_if_missing=True)
            except Exception:
                s = None   # Ray asserts re-executing consumed plans
            if s is not None and len(s.names):
                return pa.schema(list(zip(s.names, s.types))) \
                    .empty_table()
        return pa.Table.from_pandas(df, preserve_index=False)
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    return result


def cmd_list(args) -> int:
    from hepcrawl_ray.pipelines.queries import ORACLE_SQL, QUERIES

    for name in QUERIES:
        tag = "oracle" if name in ORACLE_SQL else "rows-only"
        if args.oracles and tag != "oracle":
            continue
        print(f"{name}\t{tag}")
    print(f"# {len(QUERIES)} queries, {len(ORACLE_SQL)} with DuckDB "
          f"oracles", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    from hepcrawl_ray.pipelines.queries import ORACLE_SQL

    sql = ORACLE_SQL.get(args.name)
    if sql is None:
        print(f"no oracle for {args.name!r} (rows-only or unknown)",
              file=sys.stderr)
        return 2
    print(sql.strip())
    return 0


def cmd_query(args) -> int:
    from hepcrawl_ray.pipelines.queries import QUERIES

    fn = QUERIES.get(args.name)
    if fn is None:
        print(f"unknown query {args.name!r} — see `list`",
              file=sys.stderr)
        return 2
    owned = _ensure_ray(args.num_cpus)
    try:
        t0 = time.monotonic()
        out = _to_table(fn(args.sf_dir))
        dt = time.monotonic() - t0
        if args.out:
            import pyarrow.parquet as pq

            pq.write_table(out, args.out)
            print(f"{out.num_rows} rows -> {args.out}  ({dt:.2f}s)",
                  file=sys.stderr)
        else:
            head = out.slice(0, args.limit).to_pandas()
            print(head.to_string(index=False))
            print(f"# {out.num_rows} rows total ({dt:.2f}s)",
                  file=sys.stderr)
    finally:
        if owned:
            import ray

            ray.shutdown()
    return 0


def cmd_stats(args) -> int:
    """Run a registered pipeline and print Ray Data's execution stats
    (per-operator wall/cpu/rows) — the per-stage profiling surface
    `ds.stats()` gives a Dataset result; driver-side pandas results
    only report wall time."""
    from hepcrawl_ray.pipelines.queries import QUERIES

    fn = QUERIES.get(args.name)
    if fn is None:
        print(f"unknown query {args.name!r} — see `list`",
              file=sys.stderr)
        return 2
    owned = _ensure_ray(args.num_cpus)
    try:
        import ray.data as rd

        t0 = time.monotonic()
        out = fn(args.sf_dir)
        if isinstance(out, rd.Dataset):
            out = out.materialize()
            n = out.count()
            dt = time.monotonic() - t0
            print(out.stats())
        else:
            n = len(out)
            dt = time.monotonic() - t0
            print("# driver-side result (no Dataset stats); inner "
                  "stages already executed eagerly", file=sys.stderr)
        print(f"# {n} rows ({dt:.2f}s)", file=sys.stderr)
    finally:
        if owned:
            import ray

            ray.shutdown()
    return 0


def cmd_verify(args) -> int:
    """Run a query AND its DuckDB oracle on the same parquet tables
    and compare row counts, column names, and sorted values — the
    driver's three-gate correctness check as a user-facing self-test
    (`verify NAME`, or `verify all` for every oracled query)."""
    import duckdb
    import pandas as pd

    from hepcrawl_ray.pipelines.queries import (ORACLE_SQL, QUERIES,
                                                normalize_result)

    names = sorted(ORACLE_SQL) if args.name == "all" else [args.name]
    if args.name != "all" and args.name not in ORACLE_SQL:
        hint = ("has no SQL oracle (rows-only query)"
                if args.name in QUERIES else "— see `list`")
        print(f"cannot verify {args.name!r}: {hint}", file=sys.stderr)
        return 2

    owned = _ensure_ray(args.num_cpus)
    con = duckdb.connect()
    import os

    for t in ("region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents",
              "embeddings"):
        p = os.path.join(args.sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    failures = 0
    try:
        for name in names:
            t0 = time.monotonic()
            try:
                got = normalize_result(_to_table(
                    QUERIES[name](args.sf_dir)).to_pandas())
                want = normalize_result(con.sql(ORACLE_SQL[name]).df())
                ok_rows = len(got) == len(want)
                ok_cols = list(got.columns) == list(want.columns)
                ok_vals = ok_rows and ok_cols and got.equals(want)
                if not ok_vals and ok_rows and ok_cols:
                    # dtype-tolerant but VALUE-EXACT compare (int64 vs
                    # float64 dtype drift only — check_exact keeps the
                    # spot-check as strict as the pytest oracle mirror)
                    try:
                        pd.testing.assert_frame_equal(
                            got, want, check_dtype=False,
                            check_exact=True)
                        ok_vals = True
                    except AssertionError:
                        ok_vals = False
                status = "PASS" if (ok_rows and ok_cols and ok_vals) \
                    else "FAIL"
                if status == "FAIL":
                    failures += 1
                dt = time.monotonic() - t0
                print(f"{status}  {name}  rows={len(got)}/{len(want)}"
                      f"  ({dt:.2f}s)")
            except Exception as exc:
                failures += 1
                print(f"ERROR {name}  {type(exc).__name__}: "
                      f"{str(exc)[:120]}")
    finally:
        if owned:
            import ray

            ray.shutdown()
    print(f"# {len(names) - failures}/{len(names)} verified",
          file=sys.stderr)
    return 1 if failures else 0


def cmd_crawl(args) -> int:
    owned = _ensure_ray(args.num_cpus)
    try:
        from hepcrawl_ray import codecs
        from hepcrawl_ray.pipelines.crawl import run_crawl
        from hepcrawl_ray.pipelines.queries import _crawl_tables
        from hepcrawl_ray.pipelines.sink import read_manifest

        images, _, seeds, politeness = _crawl_tables(args.sf_dir)
        t0 = time.monotonic()
        out = run_crawl(
            images, seeds, politeness,
            output_dir=args.out,
            checkpoint_dir=args.checkpoint or (args.out + ".ckpt"),
            num_partitions=args.partitions, width=args.width)
        dt = time.monotonic() - t0
        n = out["records"].count()
        partitions = read_manifest(args.out)["partitions"]
        print(json.dumps({"records": int(n), "sec": round(dt, 3),
                          "partitions": sorted(partitions),
                          "out": args.out,
                          "inflate": codecs.INFLATE_BACKEND}))
    finally:
        if owned:
            import ray

            ray.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hepcrawl_ray",
        description="Ray-Data-native harvesting engine "
                    "(hepcrawl capability surface)")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="CPUs for ray.init when this process owns Ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("list", help="registered pipelines")
    s.add_argument("--oracles", action="store_true",
                   help="only queries with a DuckDB oracle")
    s.set_defaults(fn=cmd_list)

    s = sub.add_parser("oracle", help="print a query's DuckDB SQL")
    s.add_argument("name")
    s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("query", help="run a registered pipeline")
    s.add_argument("name")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    s.add_argument("--out", default=None,
                   help="write result parquet here (default: print)")
    s.add_argument("--limit", type=int, default=20,
                   help="rows to print without --out")
    s.set_defaults(fn=cmd_query)

    s = sub.add_parser("stats",
                       help="run a pipeline, print ds.stats()")
    s.add_argument("name")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("verify",
                       help="run a query AND its DuckDB oracle, "
                            "compare (NAME or 'all')")
    s.add_argument("name")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("crawl",
                       help="resumable flagship crawl (seeds -> "
                            "frontier -> fetch+parse -> parquet)")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    s.add_argument("--out", required=True,
                   help="chunked parquet output dir (manifest makes "
                        "re-runs resume)")
    s.add_argument("--checkpoint", default=None,
                   help="frontier checkpoint dir (default: <out>.ckpt)")
    s.add_argument("--partitions", type=int, default=4)
    s.add_argument("--width", type=int, default=4,
                   help="fetch+parse workers (they route the seeds too)")
    s.set_defaults(fn=cmd_crawl)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
