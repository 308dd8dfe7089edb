import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache(tmp_path_factory):
    """One GZ_CACHE_DIR for the whole run: no test writes to the user's
    cache, and the zero sets one module builds are read by the next.
    Tests that need a cold cache point GZ_CACHE_DIR elsewhere."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("gz-cache")
        mp.setenv("GZ_CACHE_DIR", str(path))
        yield path
