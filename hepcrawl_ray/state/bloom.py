"""Vectorized blocked Bloom filter over int64 keys (numpy bit array).

The broadcast prefilter of ``ops.antijoin.bloom_anti_join``: a done-set
too large to broadcast whole ships as this filter, so definite-new
rows pass without a shuffle and only the hits are verified exactly.
(The frontier's URL-seen set needs no filter in front: its sorted runs
answer a miss as cheaply as a hit, see ``state.seen``.)

Design: *register-blocked* Bloom — each key maps to ONE 64-bit word and
sets ``k`` bits inside that word (bit positions derived from a second
hash).  Adds and probes are a single numpy gather/scatter per key
(vs. k scatters for a classic Bloom), which measures ~10x faster in
this workload; the price is a slightly higher false-positive rate
(~0.3-1% at 16 bits/key), which only costs extra exact lookups, never
correctness.  All operations are vectorized over numpy key arrays.
"""

from __future__ import annotations

import numpy as np

# 64-bit mix constants (splitmix64 finalizer — public domain algorithm)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates the input hash bits.

    Array uint64 overflow wraps silently in numpy (no errstate needed —
    and the errstate context manager costs ~10us per call, which
    dominates small-batch hashing)."""
    z = keys.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _C1
    z ^= z >> np.uint64(27)
    z *= _C2
    z ^= z >> np.uint64(31)
    return z


class BloomFilter:
    """Blocked Bloom filter for int64/uint64 keys.

    Parameters
    ----------
    capacity : expected number of distinct keys
    fpr : kept for interface compatibility; bits/key is fixed at 16,
        giving ~0.3-1% observed FPR at capacity
    """

    BITS_PER_KEY = 16
    K = 7  # bits set within the chosen word

    def __init__(self, capacity: int = 1_000_000, fpr: float = 0.01):
        self.capacity = int(capacity)
        self.fpr = float(fpr)
        n_words = max(8, (self.capacity * self.BITS_PER_KEY + 63) // 64)
        n_words = 1 << (n_words - 1).bit_length()
        self.bits = np.zeros(n_words, dtype=np.uint64)
        self._mask = np.uint64(n_words - 1)
        self.m_bits = n_words * 64
        self.k = self.K
        self.count = 0  # approximate number of adds (not distinct)

    # -- core --------------------------------------------------------------

    def _word_and_mask(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h1 = _mix(np.asarray(keys))
        h2 = _mix(h1 ^ _GOLDEN)
        word = (h1 & self._mask).astype(np.int64)
        mask = np.zeros(len(keys), dtype=np.uint64)
        six = np.uint64(0x3F)
        one = np.uint64(1)
        for i in range(self.K):
            mask |= one << ((h2 >> np.uint64(6 * i)) & six)
        return word, mask

    def add_many(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        word, mask = self._word_and_mask(keys)
        np.bitwise_or.at(self.bits, word, mask)
        self.count += len(keys)

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask — True means *maybe present* (False is definite)."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        word, mask = self._word_and_mask(keys)
        return (self.bits[word] & mask) == mask

    # -- serialization (checkpoint format) ---------------------------------

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps(
            {"capacity": self.capacity, "fpr": self.fpr, "count": self.count,
             "bits": self.bits},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        import pickle

        d = pickle.loads(blob)
        self = cls(d["capacity"], d["fpr"])
        self.bits, self.count = d["bits"], d["count"]
        return self
