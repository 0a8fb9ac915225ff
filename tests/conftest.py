"""Mark the slow tests so ``pytest -m "not slow"`` gives a fast inner loop.

Slow are the acceptance criteria that share the ``seed_runs`` fixture (ten
full trainings) and the benchmark smoke check.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "seed_runs" in item.fixturenames or item.path.name == "test_bench_smoke.py":
            item.add_marker(pytest.mark.slow)
