"""Empty-input oracle mirror: every DuckDB-oracled query runs over a
directory of ZERO-ROW tables (correct schemas) and must agree with
DuckDB — typed-empty results where SQL returns no rows, and the
correct scalar rows where SQL aggregates over nothing (count(*) = 0,
sum = NULL, ...).

At 100 TB this is not a corner case: shard directories, date
partitions and filter survivors are routinely empty, and Ray Data's
empty blocks lose their schema through several operators (CLAUDE.md
lessons 5/11) unless the stage guards are right.
"""

import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry_mod
from hepcrawl_ray.pipelines.queries import normalize_result
from tests.test_queries_oracle import to_pandas

_REAL_SF = "/root/testdata/sf0.001"
_TABLES = ("region", "nation", "customer", "supplier", "part",
           "orders", "lineitem", "events", "documents", "embeddings")


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_sf")
    for t in _TABLES:
        schema = pq.read_schema(os.path.join(_REAL_SF, f"{t}.parquet"))
        pq.write_table(schema.empty_table(),
                       os.path.join(str(d), f"{t}.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def empty_duck(empty_dir):
    con = duckdb.connect()
    for t in _TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(empty_dir, t)}.parquet')")
    return con


SQL_QUERIES = sorted(entry_mod.oracle_sql())


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_empty_input_matches_oracle(ray_session, empty_dir, empty_duck,
                                    name):
    q = entry_mod.queries()[name]
    got = normalize_result(to_pandas(q(empty_dir)))
    want = normalize_result(empty_duck.sql(entry_mod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), \
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    assert len(got) == len(want), \
        f"{name}: rows {len(got)} != {len(want)}"
    if len(want):
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
