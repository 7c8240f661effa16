"""SeenSet: the URL-seen state as sorted int64 key/timestamp runs.

Implements the reference crawl-once admission rule
(reference: hepcrawl/middlewares.py:134-155):

- key never seen                      -> admit, record timestamp
- key seen, stored_ts >= candidate_ts -> skip (already crawled, fresh)
- key seen, stored_ts <  candidate_ts -> re-admit, update timestamp
  (the source was modified since we crawled it)

One SeenSet per frontier partition; serializes into the partition
checkpoint.  Keys and timestamps live in two sorted int64 runs, a
large base and a small delta, 16 B/key.  Membership is one
``np.searchsorted`` per run; new keys merge into the delta, and the
delta merges into the base once it passes ``1/_DELTA_SHARE`` of it,
so a small seal copies the delta, not the whole set.  Every step is a
numpy pass over the batch: no per-key Python, and no Bloom filter in
front (a sorted run answers a miss as cheaply as a hit).
"""

from __future__ import annotations

import pickle

import numpy as np

# the delta merges into the base when it holds more than base/16 keys
_DELTA_SHARE = 16

_EMPTY = np.empty(0, dtype=np.int64)


def _merge(run, keys, ts):
    """A sorted (keys, timestamps) run plus sorted keys absent from it."""
    at = np.searchsorted(run[0], keys)
    return np.insert(run[0], at, keys), np.insert(run[1], at, ts)


class SeenSet:
    def __init__(self, capacity: int = 0):
        """``capacity`` is accepted and ignored (the runs grow with the
        keys); perfbench's in-process ledger still passes it."""
        self.base = (_EMPTY, _EMPTY)
        self.delta = (_EMPTY, _EMPTY)

    def __len__(self) -> int:
        return len(self.base[0]) + len(self.delta[0])

    def _lookup(self, keys: np.ndarray):
        """Per key: found mask, stored timestamp, and its position in
        the base and in the delta run (-1 where it is not there)."""
        found = np.zeros(len(keys), dtype=bool)
        stored = np.zeros(len(keys), dtype=np.int64)
        where = []
        for rk, rt in (self.base, self.delta):
            pos = np.searchsorted(rk, keys)
            hit = pos < len(rk)
            hit[hit] = rk[pos[hit]] == keys[hit]
            stored[hit] = rt[pos[hit]]
            found |= hit
            where.append(np.where(hit, pos, -1))
        return found, stored, where

    def admit_many(self, keys: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
        """Boolean admit mask, applying the crawl-once rule in row order.

        Duplicate keys *within* the batch follow the same rule against
        the earlier row's recorded timestamp (the reference processes
        requests sequentially, so within-run duplicates are skipped —
        cf. the cross-set dedup at
        reference: hepcrawl/spiders/common/oaipmh_spider.py:216-227).
        A row's recorded timestamp is the running maximum of the stored
        one and its key's earlier rows: a skipped row never beats it,
        and an admitted row raises it to its own.
        """
        keys = np.asarray(keys, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        n = len(keys)
        if n == 0:
            return np.zeros(0, dtype=bool)
        order = np.argsort(keys)
        ks = keys[order]
        first = np.ones(n, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        grp = np.cumsum(first) - 1
        dups = not first.all()
        if dups:
            # the default argsort is not stable: put each key's rows
            # back in row order (a sort of nearly sorted values)
            order = order[np.argsort(grp * n + order, kind="stable")]
        ts = timestamps[order]
        uk = ks[first]
        found, stored, where = self._lookup(uk)
        ok = ~found[grp] | (stored[grp] < ts)
        if dups:
            # exclusive running max of the key's earlier rows, on dense
            # timestamp ranks offset per key so one accumulate serves all
            rank = np.unique(ts, return_inverse=True)[1].astype(np.int64)
            span = int(rank.max()) + 1
            run_max = np.maximum.accumulate(grp * span + rank) - grp * span
            ok[1:] &= first[1:] | (run_max[:-1] < rank[1:])
        admit = np.empty(n, dtype=bool)
        admit[order] = ok

        # record each admitted key's last admitted (= largest) timestamp
        a = np.flatnonzero(ok)
        if not len(a):
            return admit
        ga = grp[a]
        last = np.ones(len(a), dtype=bool)
        last[:-1] = ga[1:] != ga[:-1]
        g, new_ts = ga[last], ts[a[last]]
        for run, pos in zip((self.base, self.delta), where):
            p = pos[g]
            hit = p >= 0
            run[1][p[hit]] = new_ts[hit]
        new = ~found[g]
        if new.any():
            self.delta = _merge(self.delta, uk[g[new]], new_ts[new])
            if len(self.delta[0]) * _DELTA_SHARE > len(self.base[0]):
                self._compact()
        return admit

    def _compact(self) -> None:
        if len(self.delta[0]):
            self.base = _merge(self.base, *self.delta)
            self.delta = (_EMPTY, _EMPTY)

    def seen_keys(self) -> np.ndarray:
        """All seen keys (int64) — used by the seen-set equivalence oracle."""
        return np.concatenate((self.base[0], self.delta[0]))

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        self._compact()
        return pickle.dumps({"keys": self.base[0], "ts": self.base[1]},
                            protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SeenSet":
        """Also reads the earlier Bloom + cuckoo layout
        (``{"bloom", "cuckoo"}``, the map's ``keys``/``vals`` taken
        under ``used``), so checkpoints written before it restore."""
        d = pickle.loads(blob)
        if "cuckoo" in d:
            c = pickle.loads(d["cuckoo"])
            used = c["used"].ravel()
            keys = c["keys"].ravel()[used].view(np.int64)
            ts = c["vals"].ravel()[used]
            order = np.argsort(keys)
            d = {"keys": keys[order], "ts": ts[order]}
        self = cls()
        self.base = (np.array(d["keys"], dtype=np.int64),
                     np.array(d["ts"], dtype=np.int64))
        return self
