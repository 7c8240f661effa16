"""CLI surface (python -m hepcrawl_ray) — the scrapy-crawl-equivalent
front door.  Drives main() in-process: the session fixture already
owns Ray, so the _ensure_ray guard must NOT re-init or shut down."""

import json
import os

import pyarrow.parquet as pq
import pytest
import ray

from hepcrawl_ray.__main__ import main

SF = "/root/testdata/sf0.001"


def test_list_and_oracle(capsys):
    assert main(["list", "--oracles"]) == 0
    out = capsys.readouterr().out
    assert "text_token_stats\toracle" in out
    assert "rows-only" not in out
    assert main(["oracle", "text_token_stats"]) == 0
    assert "FROM documents" in capsys.readouterr().out
    assert main(["oracle", "crawl_records"]) == 2      # rows-only


def test_query_writes_parquet(ray_session, tmp_path):
    out = str(tmp_path / "stats.parquet")
    assert main(["query", "text_token_stats", "--sf-dir", SF,
                 "--out", out]) == 0
    t = pq.read_table(out)
    assert t.num_rows == 500
    assert "n_tokens" in t.schema.names
    assert ray.is_initialized()          # guard did not shut Ray down


def test_query_unknown_name():
    assert main(["query", "definitely_not_a_query"]) == 2


def test_crawl_resume_skips_finished(ray_session, tmp_path, capsys):
    out_dir = str(tmp_path / "crawl_out")
    assert main(["crawl", "--sf-dir", SF, "--out", out_dir,
                 "--partitions", "2"]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["records"] > 0
    assert first["inflate"] in ("libdeflate", "zlib")
    files_before = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(out_dir) for f in fs)
    mtimes = {f: os.path.getmtime(f) for f in files_before}
    # second run resumes: same records, no partition rewritten
    assert main(["crawl", "--sf-dir", SF, "--out", out_dir,
                 "--partitions", "2"]) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["records"] == first["records"]
    for f in files_before:
        if f.endswith(".parquet"):
            assert os.path.getmtime(f) == mtimes[f], f
    assert ray.is_initialized()


def test_verify_subcommand_pass_and_gates(ray_session, capsys):
    assert main(["verify", "agg_lineitem_pricing", "--sf-dir", SF]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "rows=6/6" in out
    # rows-only query: refused with a pointed message
    assert main(["verify", "crawl_records", "--sf-dir", SF]) == 2
    assert main(["verify", "not_a_query", "--sf-dir", SF]) == 2
    assert ray.is_initialized()          # guard did not shut Ray down
