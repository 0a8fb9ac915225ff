"""Mark the slow tests so ``pytest -m "not slow"`` gives a fast inner loop.

Slow are the acceptance criteria that share the ``seed_runs`` fixture (ten
full trainings), the benchmark smoke check and the example-script runs.
"""

import pytest

SLOW_FILES = ("test_bench_smoke.py", "test_scripts.py")


def pytest_collection_modifyitems(items):
    for item in items:
        if "seed_runs" in item.fixturenames or item.path.name in SLOW_FILES:
            item.add_marker(pytest.mark.slow)
