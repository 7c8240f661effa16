"""Adversarial oracle mirror: the generator-made sf tables are benign
(uniform, few ties), so this fixture hand-crafts the edge cases the
bucket kernels must survive — exact timestamp ties, sub-second bursts,
single-event users, purchases BEFORE signups, duplicate values at
quantile boundaries, an unknown order status — and compares every
affected query against DuckDB on the SAME tables."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hepcrawl_ray.pipelines.queries import normalize_result
from tests.test_queries_oracle import to_pandas

US = 1_000_000
DAY = 86_400_000_000
T0 = 1_700_000_000 * US           # anchor epoch (us)


def _ts(vals):
    return pa.array(np.asarray(vals, np.int64), pa.timestamp("us"))


@pytest.fixture(scope="module")
def adv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("adv_sf")

    # -- events: every row is an edge case ---------------------------
    rows = []           # (event_id, ts_us, user_id, type, value)
    eid = [0]

    def ev(ts, uid, typ, val):
        eid[0] += 1
        rows.append((eid[0], ts, uid, typ, val))

    # user 1: three events at the IDENTICAL timestamp (tie-break by
    # event_id), then one 0.4 s later (debounce drop), same day
    for typ in ("click", "view", "click"):
        ev(T0, 1, typ, 1.005)
    ev(T0 + 400_000, 1, "purchase", 2.5)
    # user 2: burst 0.9 s apart crossing a DAY boundary (streak break
    # vs debounce disagreement case)
    day_end = (T0 // DAY + 1) * DAY
    ev(day_end - 500_000, 2, "click", 0.3)
    ev(day_end + 400_000, 2, "click", 0.7)       # 0.9 s later, next day
    ev(day_end + DAY, 2, "view", 0.1)            # next-next day
    # user 3: single event ever
    ev(T0 + 5 * DAY, 3, "signup", 0.0)
    # user 4: purchase BEFORE signup, then signup, then purchase
    ev(T0, 4, "purchase", 10.0)
    ev(T0 + 60 * US, 4, "signup", 0.0)
    ev(T0 + 120 * US, 4, "purchase", 20.0)
    ev(T0 + 120 * US, 4, "purchase", 30.0)       # tied purchase ts
    # user 5: 3-day streak then gap then 2-day streak; dup (user, day)
    for k in (0, 0, 1, 2, 5, 6):
        ev(T0 + k * DAY + 7 * US, 5, "view", 0.5)
    # user 6: click with purchases at exactly +300 s (window edge,
    # inclusive) and +300.000001 s (out)
    ev(T0, 6, "click", 0.0)
    ev(T0 + 300 * US, 6, "purchase", 1.0)
    ev(T0 + 300 * US + 1, 6, "purchase", 1.0)
    # user 7: error events (the errors-as-rows channel), incl. a tie
    ev(T0 + 9 * US, 7, "error", 0.0)
    ev(T0 + 9 * US, 7, "error", 0.0)
    ev(T0 + 2 * DAY, 1, "error", 1.0)
    events = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": _ts([r[1] for r in rows]),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(['{"k": 1}'] * len(rows), pa.string()),
    })
    pq.write_table(events, os.path.join(d, "events.parquet"))

    # -- orders: duplicate prices at decile boundaries, tied dates,
    #    one unknown status (audit must count it) --------------------
    n = 40
    prices = np.repeat([10.0, 10.0, 20.0, 30.0], 10)   # heavy ties
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(1, n + 1, dtype=np.int64)),
        "o_custkey": pa.array((np.arange(n, dtype=np.int64) % 7) + 1),
        "o_orderstatus": pa.array(
            ["F"] * 20 + ["O"] * 19 + ["X"], pa.string()),
        "o_totalprice": pa.array(prices, pa.float64()),
        # dates STRADDLE the Q3 cutoff (1998-06-01): indices with
        # (i % 7) >= 5 land after it, the rest before
        "o_orderdate": _ts(880_000_000 * US
                           + (np.arange(n, dtype=np.int64) % 7)
                           * 40 * DAY),
        "o_orderpriority": pa.array(
            (["1-URGENT", "2-HIGH"] * 20)[:n], pa.string()),
    })
    pq.write_table(orders, os.path.join(d, "orders.parquet"))

    # -- lineitem: weighted-median weights with a boundary target;
    #    order 1 exceeds the Q18 having threshold (sum qty > 300);
    #    ship dates straddle the Q1 cutoff (1998-09-02) so the filter
    #    keeps some rows and drops others -----------------------------
    q1_in = 880_000_000 * US      # 1997-11-19, inside the Q1 window
    nli = 14
    li = pa.table({
        "l_orderkey": pa.array(
            list(range(1, 9)) + [1] * 6, pa.int64()),
        "l_partkey": pa.array(np.ones(nli, np.int64)),
        "l_suppkey": pa.array(np.ones(nli, np.int64)),
        "l_linenumber": pa.array(np.ones(nli, np.int32)),
        "l_quantity": pa.array([1.0, 1.0, 2.0, 50.0, 3.0, 1.0, 1.0,
                                1.0] + [50.0] * 6, pa.float64()),
        "l_extendedprice": pa.array([5.0, 5.0, 7.0, 7.0, 9.0, 11.0,
                                     13.0, 13.0] + [7.0] * 6,
                                    pa.float64()),
        "l_discount": pa.array([0.0] * 8 + [0.1] * 6, pa.float64()),
        "l_tax": pa.array(np.zeros(nli), pa.float64()),
        "l_returnflag": pa.array(["A"] * 4 + ["R"] * 4 + ["A"] * 6,
                                 pa.string()),
        "l_linestatus": pa.array(["F"] * 8 + ["O"] * 6, pa.string()),
        "l_shipdate": _ts([q1_in] * 4 + [T0] * 4 + [q1_in] * 6),
    })
    pq.write_table(li, os.path.join(d, "lineitem.parquet"))

    # -- documents: planted EXACT duplicate, shingle near-duplicate,
    #    empty text, heavy repetition ---------------------------------
    texts = [
        "a b a",
        "a b a",                                        # exact dup
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over a lazy dog",    # near dup
        "b b",
        "x y",
        "",                                             # empty text
        "w1 w2 w3 w1 w2 w3 w1 w2 w3",                   # repetitive
        # long enough to pass the n_tokens >= 20 / >= 10 quality gates
        "the cat sat on the mat and the dog lay by the door while "
        "the sun set over the hill in the late day",
    ]
    # filler docs push source s1 past the HAVING > 8 docs threshold
    texts += [f"filler doc f{k} has words" for k in range(7)]
    # SUBSET duplicate: contains doc 2 ("the quick brown fox ...")
    # verbatim as a prefix but is ~5x longer — containment = 1.0 fires
    # while Jaccard (7 / 34 shingles) stays below the 0.3 pair bar
    texts += ["the quick brown fox jumps over the lazy dog while the "
              "sun set over the hill in the late day and the cat sat "
              "on the mat by the door with w1 w2 w3 near x y b"]
    # NULL text: real corpora carry null payload rows; SQL unnest of
    # a NULL split yields no token rows, and the engine must agree
    texts += [None]
    # padded with tabs and line breaks: the engine trims all Unicode
    # whitespace (utf8_trim_whitespace), DuckDB's trim() only spaces
    texts += ["\t\n padded\ttab  words \r\n"]
    docs = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en", "en", "en", "en", "de", "fr", "en",
                          "de", "en"] + ["en"] * 7 + ["en", "en", "en"],
                         pa.string()),
        "source": pa.array(["s1", "s1", "s1", "s2", "s1", "s2", "s2",
                            "s2", "s1"] + ["s1"] * 7 + ["s2", "s2", "s2"],
                           pa.string()),
        "n_chars": pa.array([len(t) if t is not None else 0
                             for t in texts], pa.int64()),
    })
    pq.write_table(docs, os.path.join(d, "documents.parquet"))

    # -- embeddings: a near-identical pair (cosine ~1), orthogonal
    #    rest, and within-vector exact VALUE TIES (top-dims
    #    tie-break); vec_ids 0-4 exist (knn query convention) --------
    vecs = [
        [0.5, 0.5, 0.1, 0.5],        # three-way tie at 0.5
        [1.0, 0.0, 0.0, 0.0],
        [0.98, 0.01, 0.0, 0.0],      # near-dup of vec 1
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [-0.5, -0.5, -0.5, -0.5],    # all-negative, all-tie
        # NULL embedding: real tables carry rows whose vector never
        # materialized; the contract (ops/knn.py drop_null_vectors)
        # is that they are unindexed — not a neighbor, not a query,
        # no dimensions — and the oracles agree via IS NOT NULL
        None,
    ]
    emb = pa.table({
        "vec_id": pa.array(np.arange(len(vecs), dtype=np.int64)),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
        "label": pa.array(np.zeros(len(vecs), np.int32)),
    })
    pq.write_table(emb, os.path.join(d, "embeddings.parquet"))

    # -- customer/nation/region/part/supplier: customers 8-9 have NO
    #    orders (LEFT-join zero rows, anti-join survivors), nation 3
    #    has NO customers, acctbal ties ------------------------------
    cust = pa.table({
        "c_custkey": pa.array(np.arange(1, 10, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{k:09d}" for k in range(1, 10)],
                           pa.string()),
        "c_nationkey": pa.array(
            np.array([0, 0, 1, 1, 2, 2, 0, 1, 2], np.int32)),
        "c_acctbal": pa.array([100.0, 100.0, -5.0, 0.0, 250.5, 100.0,
                               99.99, 100.0, 100.0], pa.float64()),
        "c_mktsegment": pa.array(["BUILDING", "BUILDING", "A", "B",
                                  "A", "B", "A", "B", "A"],
                                 pa.string()),
    })
    pq.write_table(cust, os.path.join(d, "customer.parquet"))
    nation = pa.table({
        "n_nationkey": pa.array(np.arange(4, dtype=np.int32)),
        "n_name": pa.array(["NAT_A", "NAT_B", "NAT_C", "NAT_EMPTY"],
                           pa.string()),
        "n_regionkey": pa.array(np.array([0, 0, 1, 1], np.int32)),
    })
    pq.write_table(nation, os.path.join(d, "nation.parquet"))
    region = pa.table({
        "r_regionkey": pa.array(np.arange(3, dtype=np.int32)),
        "r_name": pa.array(["R_ONE", "R_TWO", "R_EMPTY"], pa.string()),
    })
    pq.write_table(region, os.path.join(d, "region.parquet"))
    part = pa.table({
        "p_partkey": pa.array(np.arange(1, 6, dtype=np.int64)),
        "p_name": pa.array([f"part {k}" for k in range(1, 6)],
                           pa.string()),
        "p_brand": pa.array(["B1", "B1", "B1", "B2", "B2"],
                            pa.string()),
        "p_type": pa.array(["T1", "T2", "T1", "T1", "T2"],
                           pa.string()),
        "p_size": pa.array(np.array([3, 3, 5, 3, 5], np.int32)),
        "p_retailprice": pa.array([10.0, 10.0, 10.0, 20.0, 30.0],
                                  pa.float64()),
    })
    pq.write_table(part, os.path.join(d, "part.parquet"))
    supp = pa.table({
        "s_suppkey": pa.array(np.arange(1, 4, dtype=np.int64)),
        "s_name": pa.array([f"Supplier#{k}" for k in range(1, 4)],
                           pa.string()),
        "s_nationkey": pa.array(np.array([0, 1, 2], np.int32)),
        "s_acctbal": pa.array([1.0, 1.0, 2.0], pa.float64()),
    })
    pq.write_table(supp, os.path.join(d, "supplier.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def adv_duck(adv_dir):
    con = duckdb.connect()
    for t in ("events", "orders", "lineitem", "documents",
              "embeddings", "customer", "nation", "region", "part",
              "supplier"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(adv_dir, t)}.parquet')")
    return con


ADVERSARIAL_QUERIES = [
    "activity_streaks", "order_gap_days", "close_event_pairs",
    "rolling_active_users", "event_trigrams", "simpson_diversity_users",
    "monthly_revenue", "monthly_revenue_growth", "debounce_events",
    "golden_user_record", "signup_purchase_latency", "session_paths",
    "price_decile_stats", "weighted_median_price", "cube_orders",
    "group_concat_langs", "data_quality_audit", "status_priority_grid",
    "incremental_agg_merge",
    # pre-session-4 queries over the same tables: the fixture's ties
    # and bursts must not break them either
    "sessionize_events", "window_lag_lead", "window_tumbling_events",
    "iqr_outlier_events", "funnel_stages", "set_ops_users",
    "histogram_orders", "agg_lineitem_pricing", "dedup_exact_docs",
    "text_token_stats", "top_ngrams", "grouped_quantiles_chars",
    "agg_errors_by_user", "json_extract_events",
    "dedup_crawl_once_events", "moving_sum_orders", "rollup_orders",
    "grouping_sets_orders", "first_order_per_customer",
    "large_volume_orders", "epoch_shuffle_head",
    # text / dedup family on the planted dup + empty-text corpus
    # (dedup_exact_docs already above — now with a REAL duplicate)
    "dedup_ngram_jaccard", "dedup_components",
    "tfidf_top_terms", "inverted_index", "bigram_collocations",
    "corpus_clean_pipeline", "text_pii_redact", "text_bpe_tokens",
    "dedup_substring_coverage", "text_quality_gate", "text_repetition",
    # embeddings family with exact value ties and a near-dup pair
    "vector_top_dims", "embedding_dim_stats", "dedup_embedding_cosine",
    # join family: orderless customers, customer-less nation, ties
    "join_revenue_by_nation", "left_join_customer_revenue",
    "anti_join_inactive_customers", "bloom_anti_join_customers",
    "semi_join_active_customers", "customer_order_distribution",
    "supplier_part_variety", "revenue_by_region",
    "nation_rank_agreement", "above_nation_avg_revenue",
    "revenue_share_by_nation", "shipping_priority", "topk_parts",
    "topk_orders_per_customer", "ntile_parts_by_brand",
    "rank_parts_ties", "mode_part_size", "percentile_prices",
    "running_total_customer", "first_order_per_customer",
    "parts_above_avg_price", "union_high_value_activity",
    "full_outer_daily_activity", "cohort_retention",
    "distinct_users_by_type", "having_prolific_sources",
    # remaining table-based oracle queries (source_*/xml_* queries
    # synthesize their own inputs and gain nothing from this fixture;
    # knn_bruteforce ranks by raw float similarity — tie-unsafe on
    # planted duplicate vectors by design)
    "filter_event_types", "filter_docs_lang", "agg_docs_by_source",
    "sample_documents", "fn_range_years", "window_sliding_events",
    "text_langid", "stratified_split", "asof_purchase_view",
    "range_join_clicks", "contamination_check", "dedup_keep_canonical",
    "dedup_paragraphs", "pivot_event_counts", "stats_corr_partials",
    "mix_weighted_sample", "global_rank_sample", "pack_sequences",
    "groupwise_sample_docs", "dedup_components_distributed",
    "dsir_importance", "graph_triangles", "read_pushdown_parts",
    "mad_event_values", "top100_orders_sorted",
    "click_purchase_window_join",
    "ntile_customer_spend", "tfidf_source_terms", "c4_quality_filter",
    "dedup_containment", "funnel_conversion", "type_token_ratio",
    "cumulative_daily_revenue", "revenue_share_by_priority",
    "peak_concurrent_users", "source_term_overlap",
    "dow_activity_profile", "winsorized_value_stats",
    "benford_first_digit", "event_transition_matrix",
    "q6_discount_revenue", "segment_balance_stats",
    # session-6 TPC-H shapes: single-part q17 correlation, empty
    # disjunctive match (q19 returns the (0, 0) row), 1997-window
    # argmax with the fixture's heavy lineitem skew (order 1 = 6 rows)
    "q14_promo_revenue_ratio", "q15_top_supplier_revenue",
    "q17_small_quantity_revenue", "q19_disjunctive_revenue",
    # Q21/Q22 shapes + LM chunking: order 1 is the only multi-line
    # sole-supplier order; the one above-avg customer HAS a recent
    # order (idle_rich legitimately empty); the empty-text doc must
    # chunk to a single ''-token window on both sides
    "sole_supplier_orders", "idle_rich_customers", "chunk_documents",
    # session-6 batch 1: Q4's EXISTS-as-MAX must not double-count the
    # skewed order-1 lines; Q5's customer==supplier nation equality
    # on the handcrafted keys; Q7/Q8 region pairs (possibly empty on
    # this fixture — schema must still agree); Q10's tied revenues
    # fall back to the custkey tiebreak on both sides
    "q4_order_priority_check", "q5_local_supplier_volume",
    "q7_nation_trade_volume", "q8_market_share",
    "q9_profit_by_nation_year", "q10_returned_revenue_customers",
    # session-6 batch 2 (suite complete: all 22 TPC-H plan shapes):
    # Q2 unit-price ties on the skewed order-1 lines; Q11/Q20 possibly
    # empty winner sets; Q12's 90-day boundary on handcrafted dates
    "q2_min_cost_supplier", "q11_important_parts",
    "q12_late_lines_by_priority", "q20_dominant_suppliers",
    # session-6 batch 3 text ops: the empty-text doc must drop from
    # tokenization on BOTH sides; BM25 integer fixed-point must agree
    # on tiny corpora where idf surrogates hit their floors
    "lm_unigram_score", "bm25_topk", "hapax_ratio_by_source",
    # session-6 batch 4: k-anonymity class sizes of 1 on handcrafted
    # keys; 3-sigma with near-constant per-type values (var ~ 0);
    # regression with negative slope (truncating division semantics)
    "k_anonymity_audit", "anomaly_events_3sigma",
    "regression_price_qty",
    # session-6 batch 5: degree histogram over the tiny handcrafted
    # doc set (SQL edge generator must agree bit-for-bit)
    "graph_degree_stats",
    # session-7 batch 1: "part N" names are all pairwise lev<=1
    # (FastSS must emit the full clique); skyline with price AND size
    # ties (all tied non-dominated rows survive); single-part baskets
    # (pair join over one partkey is empty); division over handcrafted
    # users where NO user covers all 5 types (legitimately empty)
    "simjoin_editdist_names", "skyline_parts", "basket_pair_counts",
    "division_users_all_types",
    # session-7 batch 2: BFS over the handcrafted doc-id graph (the
    # recursive-CTE oracle must agree on distances AND the hop cap);
    # interval overlap with identical-timestamp event bursts (every
    # tied pair overlaps; owner-window dedup must not double count)
    "graph_bfs_hops", "interval_overlap_stats",
    # session-7 batch 3: sign-Hamming kNN on the fixture's exact-zero
    # dims (zero is NOT positive on both sides), all-negative vector,
    # and the excluded NULL embedding
    "knn_hamming",
    # session-7 batch 4: every fixture basket is the SAME single part
    # (all pairs are identical sets — the full clique must survive the
    # prefix filter at L=1, where p = 1)
    "setsim_orders",
    # session-7 batch 5: z-order range over the fixture's degenerate
    # value ranges (custkey 1-7, cents 1000-3000 — the rectangle
    # misses entirely; typed-empty schema must agree)
    "zorder_range_orders",
    # session-7 batch 6: B2's two parts have distinct sizes (slope
    # defined); B1 has a REPEATED size pair (variance from ties);
    # checksum over the fixture's duplicate prices must still be
    # order-independent
    "regression_by_brand", "table_checksum_orders",
    # session-7 batch 8: the fixture's out-of-arrival-order events
    # (user 4's pre-signup purchase, day-gap bursts) exercise the
    # late path the monotone testdata never does
    "watermark_late_events",
    # the fixture's heavy price ties (10/10/20/30 repeated) hit the
    # grouped-rank Gini identity's tie handling directly
    "gini_order_prices",
    # skip-gram windows over the fixture's tiny docs (len < window,
    # empty-text doc, planted dup): boundary pairs + count ties
    "skipgram_cooccurrence",
    # session-8 batch 1: SCD2 runs over the fixture's identical-ts
    # event bursts (event_id tiebreak decides run boundaries; a
    # zero-length interval where a change lands on a tied ts must
    # agree) and single-event users (open interval only)
    "scd2_user_status",
    # session-8 batch 2: the fixture's cosines all fall OUTSIDE the
    # [0.15, 0.4) negative band (0.110 below, 0.552 above) — band
    # boundaries + the typed-empty result must agree; percent_rank
    # over the heavy price ties (10/10/20/30 ×10) pins the
    # tie-plateau rank semantics
    "contrastive_negatives", "percent_rank_prices",
    # session-8 batch 3: the fixture's 40 order keys hit NONE of the
    # diff fixture's moduli (97/101/103) — the snapshot diff is
    # legitimately EMPTY and the typed-empty schema must agree
    "snapshot_diff_orders",
    # session-8 batch 4: gap fill over the fixture's day-gap bursts,
    # single-event users (span = 1) and the midnight-straddling
    # burst (day boundary decides the span); FK audit over the
    # fixture's childless customers and nation 3 with no customers
    "gap_fill_daily_activity", "fk_integrity_audit",
    # session-8 batch 5: the fixture's keys produce an EMPTY
    # changelog — MERGE must reduce to identity and the per-bucket
    # digests must equal the raw base aggregates (tied prices sum)
    "upsert_orders",
    # session-8 batch 6: skew audit over the fixture's tiny key set
    # (7 users, heavy count ties incl. the single-event user) — the
    # grouped-rank Gini identity over COUNTS with max-share ties
    "key_skew_audit",
    # session-8 batch 7: integer lerp over the fixture's multi-day
    # gaps with DECREASING values (negative deltas exercise the
    # truncating-division parity, lesson 16) and single-day users
    "gap_fill_interpolate",
    # round-4: the part-2 concrete sources over the fixture's tiny
    # 18-doc table (single partial page, 2-source grouped seeds) —
    # pins the rn-paging and mod-cycle fixtures off the benign
    # generator tables
    "source_cds_harvest", "source_hindawi_harvest",
    "source_crossref_harvest", "source_elsevier_harvest",
    "source_iop_harvest", "source_pos_harvest", "source_edp_harvest",
    "source_aps_harvest",
    # round-4: the §3 lifecycle compositions over the same tiny table
    "lifecycle_arxiv_oai", "lifecycle_desy_s3",
    "lifecycle_elsevier_consyn",
    # round-4 session 3: curriculum tiers over the fixture's n_chars
    # extremes (0-length null-text doc -> tier 0; every doc < 200
    # chars) — the tier CASE and the two-pass rank must agree with
    # row_number on a single-tier corpus.  hybrid_rrf_retrieval is
    # excluded like knn_bruteforce: its vector list ranks by raw float
    # similarity, tie-unsafe on the planted duplicate vectors.
    "curriculum_order",
    # within-doc token dedup over the fixture's planted exact dup,
    # repetitive w1w2w3 doc, empty-text and NULL-text rows (both must
    # drop from the token stream on both sides); token-budget select
    # over heavy score ties (stopword-free filler docs all score 0)
    "dedup_tokens_in_doc", "token_budget_select",
    # dup-rate per source over the planted exact dup (both copies in
    # s1) and the NULL-text row (excluded on both sides)
    "dup_rate_by_source",
    # round-4 session 4 crawl-policy batch: politeness over the
    # fixture's IDENTICAL-timestamp bursts (gap 0 < every delay;
    # event_id tiebreak orders the diff) and single-event users
    # (min_gap sentinel); backoff over events exactly AT the window
    # midpoint (>= mid inclusivity); Hamilton apportionment over the
    # tiny skewed counts (remainder ties -> smaller host wins); the
    # robots/url fixtures over handcrafted event_ids hitting the CASE
    # moduli in a different mix than the generator's uniform ids;
    # common neighbors over the fixture's tiny doc-id node set
    "politeness_violations", "host_backoff_schedule",
    "host_budget_allocate", "robots_prefix_gate",
    "url_canonical_dedup", "graph_common_neighbors",
    # batch 3: RA weighting over the tiny node set (integer 1e6//deg
    # must agree); rate-cap over single-event hosts (span 0 ->
    # feasible 1) and the identical-ts bursts (span 0 with n > 1 ->
    # over_rate on both sides)
    "graph_resource_allocation", "host_rate_cap_audit",
    # df spectrum over the fixture's planted exact dup (its shingles
    # land at df=2), the empty/NULL-text docs (no shingle rows on
    # either side) and the repetitive w1w2w3 doc (within-doc DISTINCT
    # collapses the repeats before counting)
    "shingle_df_spectrum",
    # round-5 completion sweep: every remaining ORACLE-backed query
    # runs on this fixture too (the registry's last uncovered oracles
    # — older scalar-function, source-synthesis, xml-parser, rollup
    # and drift shapes).  The two deliberate exclusions stand:
    # knn_bruteforce and hybrid_rrf_retrieval rank by raw float
    # similarity, tie-unsafe on the planted duplicate vectors.
    "changepoint_revenue", "corpus_drift_chi2", "corpus_drift_emd",
    "crossref_records", "dedup_phash_images", "edp_references",
    "filter_harvest_predicate", "fn_date_normalize", "fn_name_cleanup",
    "incremental_harvest", "marcxml_records", "oa_conditional_fanout",
    "parser_envelope_fields", "peak_hour_per_user",
    "pos_conference_papers", "source_arxiv_harvest",
    "source_desy_harvest", "source_jsonl_expand",
    "source_paged_harvest", "source_robust_read",
    "source_sitemap_expand", "source_tar_expand", "source_wsp_harvest",
    "source_xml_feed_expand", "source_zip_expand",
    "table_profile_orders", "to_hep_normalize", "to_hep_validate",
    "tree_rollup_docs", "unpivot_event_counts",
    "weighted_sample_orders", "xml_arxiv_classify",
    "xml_elsevier_extract", "xml_jats_authors", "xml_jats_references",
    "xml_nlm_extract",
    # round-5 batch: trap templates over handcrafted event ids; the
    # leakage split over the planted EXACT dup (same md5 -> same split
    # by construction) and the NULL-text row (excluded both sides);
    # Zipf head over the tiny tied-frequency vocabulary
    "url_template_traps", "leakage_safe_split", "zipf_rank_freq",
    # cluster-size spectrum over the planted exact-dup + near-dup
    # components (a real k=2+ cluster exists); mixture rates over the
    # fixture's two sources — but the fixture's sources are s1/s2
    # (suffix parses) with heavy token skew
    "dedup_cluster_sizes", "source_mixture_rates",
]


def _registry():
    import __ray_entry__ as entry_mod

    return entry_mod


# the rows-only remainder (no SQL oracle by design — sketches, crawl
# pipelines, image/audio ops, LSH/ANN paths): the adversarial bar for
# them is to RUN on this fixture's ties/bursts/empties without
# crashing, keep a non-degenerate schema, and be bit-deterministic
# across two executions (their exactness is pinned elsewhere by
# brute-force / recall / planted-failure tests)
ADVERSARIAL_ROWS_ONLY = "computed-at-collect-time"


def _rows_only_names():
    m = _registry()
    # the two oracle-backed exclusions (float-similarity ranking is
    # tie-unsafe vs SQL on the planted duplicate vectors) still get
    # the determinism check here — every registry query now has SOME
    # adversarial coverage
    extra = {"knn_bruteforce", "hybrid_rrf_retrieval"}
    return sorted((set(m.queries()) - set(m.oracle_sql())) | extra)


@pytest.mark.parametrize("name", _rows_only_names())
def test_adversarial_rows_only_deterministic(ray_session, adv_dir,
                                             name):
    q = _registry().queries()[name]
    a = normalize_result(to_pandas(q(adv_dir)))
    b = normalize_result(to_pandas(q(adv_dir)))
    assert a.shape[1] > 0, name
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.parametrize("name", ADVERSARIAL_QUERIES)
def test_adversarial_matches_oracle(ray_session, adv_dir, adv_duck,
                                    name):
    import __ray_entry__ as entry_mod

    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = normalize_result(to_pandas(q(adv_dir)))
    want = normalize_result(adv_duck.execute(sql).df())
    if len(want) == 0:
        # legitimately empty on this fixture (e.g. a triangle-free
        # edge graph): the engine must agree AND keep its schema
        assert len(got) == 0, name
        assert list(got.columns) == list(want.columns), name
    else:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert len(got) > 0, name
