from sgfact import hilbert, presentation


def pytest_runtest_setup(item):
    # every test starts with cold caches, as in a fresh process, so a step
    # budget test sees the whole computation whatever ran before it
    hilbert._homogenized_graver.cache_clear()
    presentation.minimal_presentation.cache_clear()
