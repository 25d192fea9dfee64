"""Shared fixtures for the benchmark harness.

Every table/figure bench uses one shared :class:`SuiteRunner` so traces are
generated once per session (mirroring the paper: all tables and figures
derive from one set of pixie runs).  The trace budget comes from the
``REPRO_BENCH_STEPS`` environment variable (default 120000); raise it to
push the numbers toward the paper's 100M-instruction scale::

    REPRO_BENCH_STEPS=1000000 pytest benchmarks/ --benchmark-only
"""

import os

import pytest

from repro.experiments import RunConfig, SuiteRunner

DEFAULT_STEPS = 120_000


def budget() -> int:
    return int(os.environ.get("REPRO_BENCH_STEPS", DEFAULT_STEPS))


@pytest.fixture(scope="session")
def runner():
    runner = SuiteRunner(RunConfig(max_steps=budget()))
    yield runner
    runner.close()


@pytest.fixture(scope="session")
def warm_runner(runner):
    """Runner with every benchmark traced, so benches time analysis only."""
    from repro.bench import SUITE

    for name in SUITE:
        runner.run(name)
    return runner
