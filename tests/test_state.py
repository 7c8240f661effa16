import numpy as np

from hepcrawl_ray.state import BloomFilter, SeenSet

rng = np.random.default_rng(42)


class TestBloom:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=10_000, fpr=0.01)
        keys = rng.integers(-(2**62), 2**62, size=5000, dtype=np.int64)
        bf.add_many(keys)
        assert bf.contains_many(keys).all()

    def test_fpr_bounded(self):
        bf = BloomFilter(capacity=10_000, fpr=0.01)
        keys = rng.integers(0, 2**62, size=10_000, dtype=np.int64)
        bf.add_many(keys)
        probe = rng.integers(-(2**62), -1, size=20_000, dtype=np.int64)
        fp = bf.contains_many(probe).mean()
        assert fp < 0.03

    def test_roundtrip(self):
        bf = BloomFilter(capacity=1000)
        keys = np.arange(500, dtype=np.int64) * 7919
        bf.add_many(keys)
        bf2 = BloomFilter.from_bytes(bf.to_bytes())
        assert bf2.contains_many(keys).all()
        assert bf2.m_bits == bf.m_bits and bf2.k == bf.k

    def test_empty(self):
        bf = BloomFilter(capacity=100)
        assert bf.contains_many(np.array([], dtype=np.int64)).shape == (0,)
        assert not bf.contains_many(np.array([123], dtype=np.int64))[0]


class TestSeenSet:
    def test_crawl_once_rule(self):
        # reference semantics: hepcrawl/middlewares.py:134-155
        ss = SeenSet(capacity=4096)
        keys = np.array([1, 2, 3], dtype=np.int64)
        ts = np.array([100, 100, 100], dtype=np.int64)
        assert ss.admit_many(keys, ts).all()                     # new -> admit
        assert not ss.admit_many(keys, ts).any()                 # same ts -> skip
        assert not ss.admit_many(keys, ts - 1).any()             # older -> skip
        admit = ss.admit_many(keys, np.array([101, 100, 99], dtype=np.int64))
        assert admit.tolist() == [True, False, False]            # newer -> re-admit

    def test_within_batch_duplicates(self):
        ss = SeenSet(capacity=4096)
        keys = np.array([7, 7, 7, 8], dtype=np.int64)
        ts = np.array([10, 10, 11, 10], dtype=np.int64)
        admit = ss.admit_many(keys, ts)
        # first 7 admits, second skips (same ts), third re-admits (newer)
        assert admit.tolist() == [True, False, True, True]

    def test_seen_keys_roundtrip(self):
        ss = SeenSet(capacity=4096)
        keys = np.unique(rng.integers(-(2**62), 2**62, size=1000, dtype=np.int64))
        ss.admit_many(keys, np.full(len(keys), 5, dtype=np.int64))
        ss2 = SeenSet.from_bytes(ss.to_bytes())
        assert set(ss2.seen_keys().tolist()) == set(keys.tolist())
        assert not ss2.admit_many(keys, np.full(len(keys), 5, dtype=np.int64)).any()

    def test_scale_smoke(self):
        ss = SeenSet(capacity=200_000)
        keys = np.unique(rng.integers(-(2**62), 2**62, size=100_000, dtype=np.int64))
        ts = np.zeros(len(keys), dtype=np.int64)
        assert ss.admit_many(keys, ts).all()
        assert not ss.admit_many(keys, ts).any()
        assert len(ss) == len(keys)

    def test_small_batches_merge_into_the_base(self):
        """Many small admits on a large set: new keys go to the delta
        run, which merges into the base once it passes its share, and
        lookups see both runs."""
        ss = SeenSet()
        big = np.unique(rng.integers(-(2**62), 2**62, 20_000, dtype=np.int64))
        assert ss.admit_many(big, np.zeros(len(big), dtype=np.int64)).all()
        model = dict.fromkeys(big.tolist(), 0)
        merges = 0
        for step in range(60):
            keys = np.concatenate([
                rng.integers(-(2**62), 2**62, 50, dtype=np.int64),
                rng.choice(np.array(list(model), dtype=np.int64), 50)])
            ts = rng.integers(-1, 3, len(keys)).astype(np.int64)
            want = []
            for k, t in zip(keys.tolist(), ts.tolist()):
                ok = k not in model or model[k] < t
                if ok:
                    model[k] = t
                want.append(ok)
            before = len(ss.delta[0])
            assert ss.admit_many(keys, ts).tolist() == want
            merges += len(ss.delta[0]) < before
            assert len(ss.delta[0]) * 16 <= len(ss.base[0])
            assert len(ss) == len(model)
        assert merges > 0
        got = dict(zip(ss.seen_keys().tolist(),
                       np.concatenate([ss.base[1], ss.delta[1]]).tolist()))
        assert got == model
