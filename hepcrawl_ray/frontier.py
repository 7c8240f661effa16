"""Partitioned URL frontier: the stateful heart of the engine.

Replaces the reference's Scrapy scheduler + crawl-once middleware +
politeness settings (reference: hepcrawl/middlewares.py:58-210,
hepcrawl/settings.py:50-60) with a pool of Ray actors, one per
host-hash partition:

- a SeenSet (sorted int64 key/timestamp runs) holding the URL-seen
  state with the timestamp re-crawl rule
- per-host pending queues with ``(-priority, seq)`` ordering (Scrapy's
  higher-priority-first, FIFO tie-break), stored as *sorted numpy
  arrays + cursor* — pop order equals sorted order between offer
  rounds, so draining is pure slicing, no per-row Python heap ops
- token-bucket politeness in **virtual time**: host ``h`` admits in
  round ``r`` iff ``r >= next_round[h]``, then takes up to
  ``max_concurrency`` URLs and waits ``ceil(min_delay_ms/tick_ms)``
  rounds — identical to the spec in ``hepcrawl_ray.sim``
- a robots cache (disallow prefixes per host, from the politeness
  table)

Partitioning is by *host* hash-range so a host's budget, robots rules
and seen-shard are all partition-local — no cross-partition
coordination is needed to drain, which is what makes the frontier
embarrassingly parallel.  Hot hosts can be salted across
``salt_k`` sub-partitions (deterministic ``url_hash % salt_k``), each
sub-partition receiving an integer share of the host's concurrency
budget; the global per-round budget is preserved because virtual
rounds are aligned across partitions.

Determinism: offers are *buffered* and sorted by ``seq`` at
``seal()`` before admission, so the admission decision (and therefore
crawl order) is independent of Ray task arrival order.  The global
admission order is the sort by ``(round, host, pop_idx)`` — exactly
the simulator's host-lexicographic interleave.

Checkpoint: ``checkpoint(dir)`` atomically snapshots seen-filter
bytes, remaining queue arrays, next-round markers, the seq counter and
lineage metrics; ``FrontierPartition.restore(dir)`` resumes exactly
(reference analog: last-run store,
hepcrawl/spiders/common/lastrunstore_spider.py:53-126).
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hepcrawl_ray import urlkit
from hepcrawl_ray.state import SeenSet

DEFAULT_TICK_MS = 100
DEFAULT_CONCURRENCY = 2
DEFAULT_DELAY_MS = 0

OFFER_SCHEMA = pa.schema([
    ("url", pa.string()),            # canonical
    ("url_hash", pa.int64()),
    ("host", pa.string()),
    ("path", pa.string()),
    ("priority", pa.float64()),
    ("seq", pa.int64()),
    ("mtime", pa.int64()),
    ("set_id", pa.string()),
])

ADMIT_SCHEMA = pa.schema([
    ("round", pa.int32()),
    ("host", pa.string()),
    ("url", pa.string()),
    ("url_hash", pa.int64()),
    ("seq", pa.int64()),
    ("priority", pa.float64()),
    ("mtime", pa.int64()),
    ("set_id", pa.string()),
    ("pop_idx", pa.int32()),
    ("partition", pa.int32()),
])


def canonicalize_batch(batch: pa.Table) -> pa.Table:
    """url -> canonical/hash/host/path columns (OFFER_SCHEMA).

    Runs before routing; the canonical identity mirrors the reference's
    per-field ``canonicalize_url`` (reference: hepcrawl/loaders.py:162-164).
    Rows that are canonical already (``urlkit.CANONICAL_PATTERN``, one
    RE2 pass) take host and path from one split at "/"; only the others
    run ``canonicalize_url``, ``host_of`` and the path rule in Python.
    The hash stays blake2: it keys the seen set, the salting sub index
    and the checkpoint format.
    """
    n = batch.num_rows
    urls = batch.column("url").combine_chunks().cast(pa.string())
    fast = pc.fill_null(pc.match_substring_regex(
        urls, pattern=urlkit.CANONICAL_PATTERN), False)
    # "scheme://host/rest" -> ["scheme:", "", host, rest]; the other
    # rows split a placeholder and are overwritten below
    split = pc.split_pattern(pc.if_else(fast, urls, "x://x/"), "/",
                             max_splits=3)
    canon = urls
    hosts = pc.list_element(split, 2)
    paths = pc.binary_join_element_wise("", pc.list_element(split, 3), "/")
    slow = np.flatnonzero(~fast.to_numpy(zero_copy_only=False))
    if len(slow):
        rows = [urlkit.canonicalize_url(u)
                for u in urls.take(pa.array(slow)).to_pylist()]
        tails = [c.split("://", 1)[-1] for c in rows]
        mask = pc.invert(fast)

        def put(col, vals):
            return pc.replace_with_mask(col, mask, pa.array(vals, pa.string()))

        canon = put(canon, rows)
        hosts = put(hosts, [urlkit.host_of(c) for c in rows])
        paths = put(paths, [t[t.find("/"):] if "/" in t else "/"
                            for t in tails])
    cols = batch.column_names
    out = {
        "url": canon,
        "url_hash": urlkit.hash64_array(canon),
        "host": hosts,
        "path": paths,
        "priority": batch.column("priority") if "priority" in cols
        else np.zeros(n),
        "seq": batch.column("seq"),
        "mtime": batch.column("mtime") if "mtime" in cols
        else np.zeros(n, dtype=np.int64),
        "set_id": batch.column("set_id") if "set_id" in cols
        else pa.array([""] * n, pa.string()),
    }
    return pa.table(out, schema=OFFER_SCHEMA)


def route_partition_ids(hosts, url_hashes, num_partitions: int,
                        salted_hosts: dict[str, int] | None = None) -> np.ndarray:
    """Vectorized frontier-partition assignment for a batch.

    Unsalted hosts route whole to ``partition_of_host(host)``; a host
    salted ``k`` ways routes each URL to the partition of
    ``host#(url_hash % k)`` — the *same* sub index the receiving
    partition derives, so the seen-shard for a URL is unique, while a
    hot host's queue (and its budget shares) spreads over up to ``k``
    actors.  This is the skew mitigation the single-actor-per-host
    design needs at 10^10 URLs.

    ``hosts`` is an Arrow string array (chunked or not) or a Python
    sequence; one ``dictionary_encode`` pass finds the distinct hosts.
    """
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    elif not isinstance(hosts, pa.Array):
        hosts = pa.array(hosts, pa.string())
    hashes = np.asarray(url_hashes, dtype=np.int64)
    enc = pc.dictionary_encode(hosts)
    uniq = enc.dictionary.to_pylist()
    inv = enc.indices.to_numpy(zero_copy_only=False)
    base = np.array([urlkit.partition_of_host(h, num_partitions)
                     for h in uniq], dtype=np.int64)
    parts = base[inv]
    where = {h: i for i, h in enumerate(uniq)}
    for h, k in (salted_hosts or {}).items():
        if k <= 1 or h not in where:
            continue
        m = inv == where[h]
        subs = hashes[m] % k  # numpy modulo is non-negative for k > 0
        sub_parts = np.array(
            [urlkit.partition_of_host(f"{h}#{s}", num_partitions)
             for s in range(k)], dtype=np.int64)
        parts[m] = sub_parts[subs]
    return parts


def split_routed(offers: pa.Table, num_partitions: int,
                 salted_hosts: dict[str, int] | None = None) -> list:
    """Cut a canonical OFFER_SCHEMA table into one slice per frontier
    partition (:func:`route_partition_ids`), rows in table order, and
    ``None`` for a partition that gets no row.  Each slice is a
    one-chunk table of its own, so it serializes without the others'
    rows."""
    parts = route_partition_ids(offers.column("host"),
                                offers.column("url_hash").to_numpy(),
                                num_partitions, salted_hosts)
    order = np.argsort(parts, kind="stable")
    bounds = np.searchsorted(parts[order], np.arange(num_partitions + 1))
    return [offers.take(order[s:e]).combine_chunks() if e > s else None
            for s, e in zip(bounds, bounds[1:])]


def parse_robots_rules(text: str, user_agent: str = "*") \
        -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Extract (Disallow, Allow) path patterns from a robots.txt body.

    RFC 9309 subset: the rule group whose ``User-agent`` matches
    (exact or ``*``) contributes its ``Disallow:`` / ``Allow:``
    patterns; an empty Disallow value means allow-all.  Patterns may
    contain ``*`` (any char sequence) and a trailing ``$`` (end-of-
    path anchor) per RFC 9309 §2.2.3 — evaluated longest-pattern-wins
    with Allow winning length ties (§2.2.2), see
    :func:`robots_blocked_mask`.  The reference delegates all of this
    to Scrapy's RobotsTxtMiddleware (self-identifying USER_AGENT,
    reference: hepcrawl/settings.py:33); here the parsed rules feed
    each partition's robots cache (HostBudget.disallow/.allow).
    """
    disallow: list[str] = []
    allow: list[str] = []
    applies = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            applies = val == "*" or val.lower() == user_agent.lower()
        elif key == "disallow" and applies and val:
            disallow.append(val)
        elif key == "allow" and applies and val:
            allow.append(val)
    return tuple(disallow), tuple(allow)


def robots_pattern_to_regex(pattern: str) -> str:
    """RFC 9309 path pattern -> anchored RE2 regex string.

    ``*`` matches any character sequence; a TRAILING ``$`` anchors the
    end of the path; everything else is literal.  The same translation
    feeds Arrow's ``match_substring_regex`` and the DuckDB oracle's
    ``regexp_matches`` (both RE2), so engine and oracle execute the
    identical pattern."""
    import re as _re

    anchored = pattern.endswith("$")
    core = pattern[:-1] if anchored else pattern
    rx = "".join(".*" if ch == "*" else _re.escape(ch) for ch in core)
    return "^" + rx + ("$" if anchored else "")


def robots_pattern_match(path_col, pattern: str) -> np.ndarray:
    """Vectorized match of one robots rule pattern over an Arrow path
    column -> bool numpy mask.  Plain prefixes take the zero-copy
    ``starts_with`` fast path; patterns with ``*`` / trailing ``$``
    run one RE2 kernel."""
    if "*" not in pattern and not pattern.endswith("$"):
        m = pc.starts_with(path_col, pattern=pattern)
    else:
        m = pc.match_substring_regex(
            path_col, pattern=robots_pattern_to_regex(pattern))
    if isinstance(m, pa.ChunkedArray):
        m = m.combine_chunks()
    return m.to_numpy(zero_copy_only=False)


def robots_blocked_mask(path_col, disallow, allow=()) -> np.ndarray:
    """RFC 9309 verdict over a batch of paths: for each path the
    matching rule with the LONGEST pattern wins, Allow wins length
    ties, no match -> allowed.  Returns a bool mask of BLOCKED rows.
    With prefix-only Disallow rules (the pre-RFC subset) this reduces
    to "blocked iff any prefix matches" — bit-identical to the old
    behavior.  Scalar spec twin: ``sim.robots_blocked`` (equivalence
    pinned in tests/test_frontier.py)."""
    n = len(path_col)
    best_len = np.full(n, -1, dtype=np.int64)
    best_allow = np.ones(n, dtype=np.int64)
    for rules, flag in ((disallow, 0), (allow, 1)):
        for pat in rules:
            m = robots_pattern_match(path_col, pat)
            plen = len(pat)
            upd = m & ((plen > best_len)
                       | ((plen == best_len) & (flag > best_allow)))
            best_len[upd] = plen
            best_allow[upd] = flag
    return best_allow == 0


class HostBudget:
    __slots__ = ("concurrency", "delay_rounds", "disallow", "allow")

    def __init__(self, concurrency: int, delay_ms: int, disallow: tuple[str, ...],
                 tick_ms: int, allow: tuple[str, ...] = ()):
        self.concurrency = max(1, int(concurrency))
        self.delay_rounds = max(1, math.ceil(int(delay_ms) / tick_ms))
        self.disallow = tuple(disallow)
        self.allow = tuple(allow)


class FrontierPartition:
    """One hash-range partition of the frontier (host-keyed).

    Usable directly (unit tests, simulator comparisons) or as a Ray
    actor via ``ray.remote(FrontierPartition)``.
    """

    def __init__(self, part_id: int, num_partitions: int,
                 politeness_rows: list[dict] | None = None,
                 tick_ms: int = DEFAULT_TICK_MS,
                 default_concurrency: int = DEFAULT_CONCURRENCY,
                 default_delay_ms: int = DEFAULT_DELAY_MS,
                 salted_hosts: dict[str, int] | None = None,
                 spill_dir: str | None = None,
                 spill_threshold_rows: int | None = None):
        self.part_id = part_id
        self.num_partitions = num_partitions
        self.tick_ms = tick_ms
        # cold-tail spill (SURVEY §4.1's heap-cap design; round-5): a
        # queue whose in-memory rows exceed ``spill_threshold_rows``
        # keeps its sorted HEAD hot and writes the tail to parquet
        # segments under ``spill_dir/part=<id>``; drain reloads (and
        # re-caps) only when the schedule actually reaches the tail.
        # OFF by default — admission schedules are bit-identical either
        # way (tests/test_frontier.py TestColdTailSpill).
        self.spill_dir = spill_dir
        self.spill_threshold = spill_threshold_rows
        self._spill_seq = 0
        self.default_budget = (default_concurrency, default_delay_ms)
        self.budgets: dict[str, HostBudget] = {}
        for row in politeness_rows or []:
            disallow = tuple(row.get("robots_disallow") or ())
            allow = tuple(row.get("robots_allow") or ())
            if row.get("robots_txt"):  # raw robots.txt body -> parse + cache
                d2, a2 = parse_robots_rules(row["robots_txt"])
                disallow, allow = disallow + d2, allow + a2
            self.budgets[row["host"]] = HostBudget(
                row["max_concurrency"], row["min_delay_ms"],
                disallow, tick_ms, allow=allow)
        self.salted_hosts = dict(salted_hosts or {})
        self.seen = SeenSet()
        self._buffer: list[pa.Table] = []
        # per host-key: dict with sorted column arrays + cursor
        self.queues: dict[str, dict] = {}
        self.next_round: dict[str, int] = {}
        self.cur_round = 0
        self.metrics = {
            "offered": 0, "dropped_robots": 0, "dropped_dup": 0,
            "admitted_to_queue": 0, "drained": 0, "seal_batches": 0,
            "spilled_rows": 0, "spill_reloads": 0, "max_hot_resident": 0,
        }

    def reset(self, *args, **kwargs) -> None:
        """Drop all state (seen set, queues, buffered offers, counters);
        with constructor arguments, start over as a new partition.  An
        actor the last crawl released is reused this way (see
        ``pipelines.crawl.start_frontier``)."""
        self.__dict__.clear()
        if args or kwargs:
            self.__init__(*args, **kwargs)

    # -- budget lookup ------------------------------------------------------

    def _budget_for(self, host: str) -> HostBudget:
        b = self.budgets.get(host)
        if b is None:
            b = HostBudget(self.default_budget[0], self.default_budget[1],
                           (), self.tick_ms)
            self.budgets[host] = b
        return b

    # -- offer / seal --------------------------------------------------------

    def offer(self, *tables: pa.Table | None) -> int:
        """Buffer candidate rows (OFFER_SCHEMA tables, such as a crawl's
        routed slices for this partition; ``None`` and empty ones are
        skipped) until :meth:`seal`.  Order-independent."""
        tables = [t for t in tables if t is not None and t.num_rows]
        self._buffer += tables
        return sum(t.num_rows for t in tables)

    def seal(self) -> dict:
        """Apply robots + crawl-once rules to the buffered offers (in
        seq order), append survivors to the per-host sorted queues.

        One grouping pass: ``host`` is dictionary-encoded once, each
        row gets its queue id (a salted host's ``url_hash % k`` sub
        index included), and a stable argsort by queue id groups the
        batch.  Each ruled host's robots rules run over its own rows
        only, the crawl-once decision runs over a seq-ordered view
        (argsort of the int64 seq column, mapped back), and one take by
        (queue, row order) hands each queue a slice for ``_enqueue``.
        The grouping is stable because ``_enqueue``'s (-priority, seq)
        sort keeps the input order of ties.
        """
        if not self._buffer:
            return dict(self.metrics)
        t = pa.concat_tables(self._buffer).combine_chunks()
        self._buffer = []
        n = t.num_rows
        self.metrics["offered"] += n
        self.metrics["seal_batches"] += 1

        enc = pc.dictionary_encode(t.column("host")).chunk(0)
        hosts = enc.dictionary.to_pylist()      # first-appearance order
        budgets = [self._budget_for(h) for h in hosts]
        salt = np.array([max(1, self.salted_hosts.get(h, 0)) for h in hosts],
                        dtype=np.int64)
        first_q = np.concatenate(([0], np.cumsum(salt)))
        codes = enc.indices.to_numpy()
        hashes = t.column("url_hash").to_numpy()
        qid = first_q[codes] + hashes % salt[codes]
        # (a radix sort while there are at most 65,536 queues)
        by_q = np.argsort(qid.astype(np.min_scalar_type(first_q[-1])),
                          kind="stable")
        bounds = np.searchsorted(qid[by_q], first_q)

        # robots filter (Arrow kernels — RFC 9309 longest-match with
        # Allow overrides, wildcard/anchor patterns included, see
        # robots_blocked_mask), over each ruled host's rows only
        keep = np.ones(n, dtype=bool)
        path_col = t.column("path")
        for c, bud in enumerate(budgets):
            if bud.disallow or bud.allow:
                idx = by_q[bounds[c]:bounds[c + 1]]
                blocked = robots_blocked_mask(path_col.take(idx),
                                              bud.disallow, bud.allow)
                keep[idx[blocked]] = False
        kept = np.flatnonzero(keep)
        self.metrics["dropped_robots"] += n - len(kept)

        # crawl-once admission, decided in seq order over a permuted view
        seen_order = kept[np.argsort(t.column("seq").to_numpy()[kept],
                                     kind="stable")]
        admit = np.zeros(n, dtype=bool)
        admit[seen_order] = self.seen.admit_many(
            hashes[seen_order], t.column("mtime").to_numpy()[seen_order])
        admitted = int(admit.sum())
        self.metrics["dropped_dup"] += len(kept) - admitted
        self.metrics["admitted_to_queue"] += admitted
        if not admitted:
            return dict(self.metrics)

        rows = by_q[admit[by_q]]
        q = qid[rows]
        starts = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
        sizes = np.diff(np.append(starts, len(rows))).tolist()
        q_host = np.repeat(np.arange(len(hosts)), salt)
        labels = []
        for i in q[starts].tolist():
            c = q_host[i]
            labels.append(hosts[c] if salt[c] == 1
                          else f"{hosts[c]}#{i - first_q[c]}")
        # queues are created in the order of their first admitted row,
        # or in label order when salting is on (the checkpoint and the
        # spill segment names follow it)
        if self.salted_hosts:
            queue_order = sorted(range(len(labels)), key=labels.__getitem__)
        else:
            queue_order = np.argsort(rows[starts]).tolist()
        taken = t.take(rows)
        starts = starts.tolist()
        for j in queue_order:
            self._enqueue(labels[j], taken.slice(starts[j], sizes[j]))
        return dict(self.metrics)

    # -- cold-tail spill ------------------------------------------------------
    #
    # SURVEY §4.1's heap-cap design (vs the reference's whole-list-in-
    # RAM scheduler, hepcrawl/spiders/common/oaipmh_spider.py:206-214):
    # each queue keeps a sorted HOT head of at most ``spill_threshold``
    # rows in memory; the cold tail lives as sorted parquet segments.
    # Invariant: every hot row sorts strictly before ``boundary`` (the
    # smallest spilled key), so new offers split cleanly — rows before
    # the boundary merge into the hot head, rows at/after it append as
    # a new segment.  Drain reloads (merge-sort of hot remainder + all
    # segments, then re-cap) only when the schedule actually reaches
    # the tail — once per ~threshold/2 drained rows, amortized O(1)
    # IO per row.  Resident set: O(threshold) per queue + one
    # reloading tail; pair with host salting when a single host's tail
    # itself exceeds a worker (route_partition_ids).  Consumed segment
    # files are left on disk because checkpoints reference them by
    # name; GC = delete segments not in the latest checkpoint manifest.

    def _spill_path(self, name: str) -> str:
        d = os.path.join(self.spill_dir, f"part={self.part_id}")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, name)

    def _write_spill_segment(self, table: pa.Table) -> str:
        import pyarrow.parquet as pq

        name = f"seg_{self._spill_seq:06d}.parquet"
        self._spill_seq += 1
        path = self._spill_path(name)
        pq.write_table(table, path + ".tmp")
        os.replace(path + ".tmp", path)
        return name

    @staticmethod
    def _key_before(rows: pa.Table, boundary) -> np.ndarray:
        """Mask of rows whose (-priority, seq) key sorts before the
        spill boundary."""
        bneg, bseq = boundary
        negp = -rows.column("priority").to_numpy()
        seq = rows.column("seq").to_numpy()
        return (negp < bneg) | ((negp == bneg) & (seq < bseq))

    def _maybe_spill(self, q: dict) -> None:
        """Cap the hot head: spill rows beyond ``threshold // 2``."""
        th = self.spill_threshold
        hot = q["rows"].num_rows - q["cursor"]
        if not th or self.spill_dir is None or hot <= th:
            if hot > self.metrics["max_hot_resident"]:
                self.metrics["max_hot_resident"] = hot
            return
        keep = max(1, th // 2)
        body = q["rows"].slice(q["cursor"])
        tail = body.slice(keep)
        q["spill"].append(self._write_spill_segment(tail))
        q["spilled_rows"] += tail.num_rows
        self.metrics["spilled_rows"] += tail.num_rows
        # new tail rows all sort before any previously spilled row
        # (they were hot), so the first tail key IS the new boundary
        q["boundary"] = (-float(tail.column("priority")[0].as_py()),
                         int(tail.column("seq")[0].as_py()))
        q["rows"], q["cursor"] = body.slice(0, keep), 0
        if keep > self.metrics["max_hot_resident"]:
            self.metrics["max_hot_resident"] = keep

    def _reload_spill(self, q: dict) -> None:
        """Pull the cold tail back: merge hot remainder + all segments
        into one sorted table (the drain is about to cross the
        boundary); caller re-caps via _maybe_spill afterwards."""
        import pyarrow.parquet as pq

        segs = [pq.read_table(self._spill_path(n)) for n in q["spill"]]
        q["rows"] = _by_key(pa.concat_tables(
            [q["rows"].slice(q["cursor"])] + segs))
        q["cursor"] = 0
        q["spill"], q["spilled_rows"], q["boundary"] = [], 0, None
        self.metrics["spill_reloads"] += 1

    def _enqueue(self, qkey: str, rows: pa.Table) -> None:
        """Merge rows into the queue, keeping (-priority, seq) sort.
        With spill active, rows sorting at/after the spill boundary
        join the cold tail as a new segment, not the hot head."""
        q = self.queues.get(qkey)
        spill: list[str] = []
        spilled, boundary = 0, None
        if q is not None:
            spill = list(q["spill"])
            spilled, boundary = q["spilled_rows"], q["boundary"]
            if q["cursor"] < q["rows"].num_rows:
                rows = pa.concat_tables([q["rows"].slice(q["cursor"]),
                                         rows])
        rows = _by_key(rows)
        if boundary is not None and rows.num_rows:
            hot_mask = self._key_before(rows, boundary)
            if not hot_mask.all():
                tail = rows.filter(pa.array(~hot_mask))
                spill.append(self._write_spill_segment(tail))
                spilled += tail.num_rows
                self.metrics["spilled_rows"] += tail.num_rows
                rows = rows.filter(pa.array(hot_mask))
        host = qkey.split("#", 1)[0]
        q = {"rows": rows, "cursor": 0, "host": host, "spill": spill,
             "spilled_rows": spilled, "boundary": boundary}
        self._maybe_spill(q)
        self.queues[qkey] = q
        self.next_round.setdefault(qkey, self.cur_round)

    # -- drain ----------------------------------------------------------------

    def pending(self) -> int:
        return sum(q["rows"].num_rows - q["cursor"] + q["spilled_rows"]
                   for q in self.queues.values())

    def _share_for(self, qkey: str, host: str) -> int:
        k = self.salted_hosts.get(host, 0)
        c = self._budget_for(host).concurrency
        if k > 1 and "#" in qkey:
            sub = int(qkey.split("#", 1)[1])
            return max(1, c // k + (1 if sub < c % k else 0))
        return c

    def drain(self, max_rounds: int | None = None) -> pa.Table:
        """Admit URLs until queues empty (or ``max_rounds`` have passed).

        Returns ADMIT_SCHEMA rows.  Politeness is virtual-time and each
        queue's schedule is INDEPENDENT of every other queue (round
        ``r0 + j*delay`` admits batch ``j`` of ``share`` rows), so the
        whole schedule is computed in closed form per queue — no
        per-round loop, no cross-partition coordination.  The global
        interleave is imposed downstream by sorting on
        ``(round, host, pop_idx)``, exactly as the per-round loop of
        the simulator produces it.

        That key is NOT unique for a salted host: each of its
        sub-queues numbers its pops from 0, so rows of different
        sub-queues tie.  Order comparisons must add ``url`` as a
        tiebreak or rely on the stream's preserved order (see
        ``pipelines.crawl.drain_admissions_chunked``).
        """
        rounds_out: list[np.ndarray] = []
        pops_out: list[np.ndarray] = []
        qorder_out: list[pa.Table] = []
        end = None if max_rounds is None else self.cur_round + max_rounds
        active_end = self.cur_round
        for qkey in sorted(self.queues):
            q = self.queues[qkey]
            remaining = q["rows"].num_rows - q["cursor"] + q["spilled_rows"]
            if remaining <= 0:
                continue
            host = q["host"]
            share = self._share_for(qkey, host)
            d = self._budget_for(host).delay_rounds
            r0 = max(self.next_round.get(qkey, self.cur_round), self.cur_round)
            nb_full = -(-remaining // share)
            if end is None:
                nb = nb_full
            elif r0 >= end:
                continue
            else:
                nb = min(nb_full, -(-(end - r0) // d))
            if nb <= 0:
                continue
            n = min(remaining, nb * share)
            if n > q["rows"].num_rows - q["cursor"]:
                # schedule crosses into the cold tail: reload + re-cap
                self._reload_spill(q)
            sl = q["rows"].slice(q["cursor"], n)
            q["cursor"] += n
            if q["spilled_rows"] == 0 and self.spill_threshold:
                self._maybe_spill(q)
            rr = (r0 + d * np.repeat(np.arange(nb, dtype=np.int64), share)[:n])
            pp = np.tile(np.arange(share, dtype=np.int32), nb)[:n]
            qorder_out.append(sl)
            rounds_out.append(rr.astype(np.int32))
            pops_out.append(pp)
            self.next_round[qkey] = r0 + d * nb
            active_end = max(active_end, int(rr[-1]) + 1)
        if end is None:
            self.cur_round = active_end
        else:
            # bounded drains advance the virtual clock to ``end`` on
            # EVERY partition (even empty ones) so that later offers —
            # e.g. links discovered mid-crawl — enqueue at the current
            # global round, keeping partitions' clocks aligned
            self.cur_round = end
        if not qorder_out:
            return pa.table({f.name: pa.array([], type=f.type)
                             for f in ADMIT_SCHEMA})
        body = pa.concat_tables(qorder_out)
        n = body.num_rows
        self.metrics["drained"] += n
        out = pa.table({
            "round": np.concatenate(rounds_out),
            "host": body.column("host"),
            "url": body.column("url"),
            "url_hash": body.column("url_hash"),
            "seq": body.column("seq"),
            "priority": body.column("priority"),
            "mtime": body.column("mtime"),
            "set_id": body.column("set_id"),
            "pop_idx": np.concatenate(pops_out),
            "partition": np.full(n, self.part_id, dtype=np.int32),
        }, schema=ADMIT_SCHEMA)
        # one chunk per column (not one per queue): ray.put pays per chunk
        return out.combine_chunks()

    def admit_rate(self) -> float:
        """Closed-form admissions-per-virtual-round over active queues
        (each queue admits ``share`` rows every ``delay`` rounds)."""
        rate = 0.0
        for qkey, q in self.queues.items():
            if q["rows"].num_rows - q["cursor"] + q["spilled_rows"] <= 0:
                continue
            host = q["host"]
            rate += (self._share_for(qkey, host)
                     / self._budget_for(host).delay_rounds)
        return rate

    def drain_chunk(self, target_rows: int) -> pa.Table:
        """Bounded drain sized to ≈ ``target_rows`` admissions.

        Converts the row target to a round budget via the closed-form
        admit rate, so a partition never materializes more than ~one
        chunk of its schedule per call (VERDICT r3 item 2: at 10^10
        URLs a full ``drain(None)`` is one giant block per partition).
        Repeated calls yield exactly the full-drain schedule — each
        queue's closed form continues from ``next_round`` — pinned by
        tests/test_frontier.py."""
        rate = self.admit_rate()
        if rate <= 0.0:
            return self.drain(0)
        return self.drain(max(1, math.ceil(target_rows / rate)))

    def drain_block(self, target_rows: int | None = None,
                    max_rounds: int | None = None) -> tuple:
        """``drain_chunk(target_rows)``, or without a target
        ``drain(max_rounds)``, plus ``(num_rows, size_bytes, pending)``.
        Called with ``num_returns=2``, so the driver reads the small
        tuple (and knows whether anything is left to drain) without
        fetching the block or running a task to read its metadata."""
        t = self.drain(max_rounds) if target_rows is None \
            else self.drain_chunk(target_rows)
        return t, (t.num_rows, t.nbytes, self.pending())

    def seen_hashes(self) -> np.ndarray:
        return self.seen.seen_keys()

    def get_metrics(self) -> dict:
        return {**self.metrics, "pending": self.pending(),
                "seen": len(self.seen), "partition": self.part_id,
                "cur_round": self.cur_round}

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self, root: str) -> str:
        """Atomic per-partition snapshot -> ``root/part=<id>/state.pkl``."""
        d = os.path.join(root, f"part={self.part_id}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, ".state.pkl.tmp")
        state = {
            "part_id": self.part_id,
            "num_partitions": self.num_partitions,
            "tick_ms": self.tick_ms,
            "default_budget": self.default_budget,
            "budgets": {h: (b.concurrency, b.delay_rounds, b.disallow,
                            b.allow)
                        for h, b in self.budgets.items()},
            "salted_hosts": self.salted_hosts,
            "seen": self.seen.to_bytes(),
            "queues": {k: {"rows": _table_to_bytes(q["rows"].slice(q["cursor"])),
                           "host": q["host"], "spill": q["spill"],
                           "spilled_rows": q["spilled_rows"],
                           "boundary": q["boundary"]}
                       for k, q in self.queues.items()},
            "next_round": self.next_round,
            "cur_round": self.cur_round,
            "metrics": self.metrics,
            "spill_dir": self.spill_dir,
            "spill_threshold": self.spill_threshold,
            "spill_seq": self._spill_seq,
        }
        with open(tmp, "wb") as f:
            pickle.dump(state, f, protocol=pickle.HIGHEST_PROTOCOL)
        final = os.path.join(d, "state.pkl")
        os.replace(tmp, final)
        return final

    def load_checkpoint(self, root: str, part_id: int | None = None) -> dict:
        """Replace this instance's state from a checkpoint (actor-friendly
        restore: create the actor, then call this)."""
        other = FrontierPartition.restore(
            root, self.part_id if part_id is None else part_id)
        self.__dict__.update(other.__dict__)
        return self.get_metrics()

    @classmethod
    def restore(cls, root: str, part_id: int) -> "FrontierPartition":
        with open(os.path.join(root, f"part={part_id}", "state.pkl"), "rb") as f:
            state = pickle.load(f)
        self = cls.__new__(cls)
        self.part_id = state["part_id"]
        self.num_partitions = state["num_partitions"]
        self.tick_ms = state["tick_ms"]
        self.default_budget = tuple(state["default_budget"])
        self.budgets = {}
        for h, packed in state["budgets"].items():
            # pre-round-5 checkpoints stored 3-tuples (no Allow rules)
            c, dr, dis = packed[:3]
            alw = packed[3] if len(packed) > 3 else ()
            b = HostBudget.__new__(HostBudget)
            b.concurrency, b.delay_rounds = c, dr
            b.disallow, b.allow = tuple(dis), tuple(alw)
            self.budgets[h] = b
        self.salted_hosts = state["salted_hosts"]
        self.seen = SeenSet.from_bytes(state["seen"])
        self._buffer = []
        self.queues = {
            k: {"rows": _table_from_bytes(v["rows"]), "cursor": 0,
                "host": v["host"], "spill": list(v.get("spill", ())),
                "spilled_rows": v.get("spilled_rows", 0),
                "boundary": tuple(v["boundary"])
                if v.get("boundary") else None}
            for k, v in state["queues"].items()}
        self.next_round = state["next_round"]
        self.cur_round = state["cur_round"]
        self.metrics = {**{"spilled_rows": 0, "spill_reloads": 0,
                           "max_hot_resident": 0}, **state["metrics"]}
        self.spill_dir = state.get("spill_dir")
        self.spill_threshold = state.get("spill_threshold")
        self._spill_seq = state.get("spill_seq", 0)
        return self


def _by_key(rows: pa.Table) -> pa.Table:
    """``rows`` in queue order: (-priority, seq), stable."""
    rows = rows.append_column("_negp", pc.negate(rows.column("priority")))
    return rows.sort_by([("_negp", "ascending"),
                         ("seq", "ascending")]).drop(["_negp"])


def _table_to_bytes(t: pa.Table) -> bytes:
    import io

    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue()


def _table_from_bytes(b: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(b)).read_all()
