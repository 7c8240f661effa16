import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def inflate_backend(request, monkeypatch):
    """Run a test under the payload inflate its class names in
    ``INFLATE``: "libdeflate" (the default, for module-level tests
    too) or "zlib", the fallback, forced here.  Where libdeflate.so.0
    does not load, the libdeflate half skips with that reason."""
    from hepcrawl_ray import codecs

    backend = getattr(request.cls, "INFLATE", "libdeflate")
    if backend == "zlib":
        monkeypatch.setattr(codecs, "_lib", False)
        monkeypatch.setattr(codecs, "INFLATE_BACKEND", "zlib",
                            raising=False)
    elif codecs.INFLATE_BACKEND != "libdeflate":
        pytest.skip("libdeflate.so.0 does not load on this machine; "
                    "the zlib-fallback copies of these tests still run")
    return backend
