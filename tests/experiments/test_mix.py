"""Tests for the instruction-mix characterization."""

import pytest

from repro.bench import NON_NUMERIC, NUMERIC, SUITE
from repro.experiments import RunConfig, SuiteRunner
from repro.experiments import mix


@pytest.fixture(scope="module")
def result():
    runner = SuiteRunner(RunConfig(max_steps=50_000))
    try:
        return mix.run(runner)
    finally:
        runner.close()


class TestInstructionMix:
    def test_covers_suite(self, result):
        assert set(result.rows) == set(SUITE)

    def test_percentages_sum_to_100(self, result):
        for name, row in result.rows.items():
            assert sum(row.values()) == pytest.approx(100.0, abs=0.01)

    def test_no_unclassified_instructions(self, result):
        for row in result.rows.values():
            assert row["other"] < 0.1

    def test_numeric_codes_use_fp(self, result):
        for name in NUMERIC:
            assert result.rows[name]["fpu"] > 5.0

    def test_non_numeric_codes_are_integer(self, result):
        for name in NON_NUMERIC:
            assert result.rows[name]["fpu"] < 1.0

    def test_branch_density_reasonable(self, result):
        for name in SUITE:
            assert 3.0 < result.rows[name]["branch"] < 35.0

    def test_memory_traffic_present(self, result):
        for name in SUITE:
            assert result.rows[name]["load"] + result.rows[name]["store"] > 5.0

    def test_render(self, result):
        text = result.render()
        assert "instruction mix" in text and "tomcatv" in text
