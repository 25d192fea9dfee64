"""Tests for the shared experiment runner and table renderer."""

import pytest

from repro.core import MachineModel
from repro.experiments import RunConfig, SuiteRunner, TextTable
from repro.jobs import AnalysisRequest
from repro.prediction import AlwaysTaken

M = MachineModel


class TestTextTable:
    def test_alignment(self):
        table = TextTable(headers=["A", "Bee"], title="T")
        table.add("x", 1.5)
        table.add("longer", 10)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Bee" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header+rule+rows share the grid

    def test_float_formatting(self):
        table = TextTable(headers=["v"])
        table.add(3.14159)
        table.add(12345.6)
        text = table.render()
        assert "3.14" in text
        assert "12346" in text  # large values lose decimals

    def test_non_numeric_cells(self):
        table = TextTable(headers=["v"])
        table.add("plain")
        assert "plain" in table.render()


class TestSuiteRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        runner = SuiteRunner(RunConfig(max_steps=20_000))
        yield runner
        runner.close()

    def test_run_cached(self, runner):
        first = runner.run("awk")
        second = runner.run("awk")
        assert first is second

    def test_trace_respects_budget(self, runner):
        run = runner.run("awk")
        assert len(run.trace) <= 20_000

    def test_analyze_cached_per_options(self, runner):
        a = runner.analyze("awk", models=[M.BASE])
        b = runner.analyze("awk", models=[M.BASE])
        assert a is b
        c = runner.analyze("awk", models=[M.BASE], perfect_unrolling=False)
        assert c is not a

    def test_custom_predictor_bypasses_cache(self, runner):
        a = runner.analyze("awk", models=[M.SP])
        b = runner.analyze("awk", models=[M.SP], predictor=AlwaysTaken())
        assert a is not b
        again = runner.analyze("awk", models=[M.SP], predictor=AlwaysTaken())
        assert again is not b
        run = runner.run("awk")
        assert b == run.analyzer.analyze(
            run.trace_source(), models=[M.SP], predictor=AlwaysTaken()
        )

    def test_default_config(self):
        runner = SuiteRunner()
        runner.close()
        assert runner.config.max_steps == 150_000
        assert runner.config.scale is None

    def test_scale_override(self):
        runner = SuiteRunner(RunConfig(max_steps=5_000, scale=1))
        try:
            run = runner.run("matrix300")
            assert run.spec.name == "matrix300"
            assert len(run.trace) == 5_000
        finally:
            runner.close()

    def test_verify_covers_fused_analyses(self, monkeypatch):
        verified = []
        monkeypatch.setattr(
            SuiteRunner, "_verify", lambda self, run: verified.append(run.name)
        )
        runner = SuiteRunner(RunConfig(max_steps=5_000, verify=True))
        try:
            runner.analyze("awk", models=[M.BASE])
        finally:
            runner.close()
        assert verified == ["awk"]

    def test_legacy_prefetch_farms_no_analyses(self, tmp_path):
        runner = SuiteRunner(
            RunConfig(max_steps=5_000, cache_dir=tmp_path, engine="legacy")
        )
        runner.prefetch([AnalysisRequest("awk", models=(M.BASE,))])
        stages = {record.stage for record in runner.farm_report.records.values()}
        assert "analyze" not in stages and "trace" in stages
        assert runner.analyze("awk", models=[M.BASE]).engine == "legacy"


class TestFarmRecovery:
    @pytest.mark.parametrize("run_first", [True, False], ids=["run", "analyze"])
    def test_damaged_cache_heals(self, tmp_path, run_first):
        cache_dir = tmp_path / "cache"
        config = RunConfig(max_steps=5_000, cache_dir=cache_dir)
        models = [M.BASE, M.SP]
        first = SuiteRunner(config)
        expected_stats = first.run("awk").stats
        expected_length = len(first.run("awk").trace)
        expected = first.analyze("awk", models=models)
        for pattern in ("traces/*.rtrc.gz", "profiles/*.json", "results/*.json"):
            (damaged,) = cache_dir.glob(pattern)
            damaged.write_bytes(b"not the artifact")

        second = SuiteRunner(config)
        if run_first:
            second.run("awk")
        assert second.analyze("awk", models=models) == expected
        run = second.run("awk")
        assert run.stats == expected_stats
        assert len(run.trace) == expected_length
        assert any(
            failure.kind == "corrupt" for failure in second.farm_report.failures
        )

    def test_dead_job_raises_its_failure(self):
        runner = SuiteRunner(
            RunConfig(
                max_steps=2_000,
                retries=0,
                inject_faults="stage=trace,mode=raise,times=0",
            )
        )
        try:
            with pytest.raises(RuntimeError, match="of awk: injected fault"):
                runner.run("awk")
        finally:
            runner.close()
