import sys


def pytest_runtest_setup(item):
    # every test starts with cold caches, as in a fresh process, so a step
    # budget test sees the whole computation whatever ran before it.  The
    # caches are found, not named: everything with a cache_clear that a
    # loaded module of the package binds (one not yet loaded has cached
    # nothing), so moving a cache cannot leave a test warm
    caches = {
        value
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "sgfact"
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    for cache in caches:
        cache.cache_clear()
