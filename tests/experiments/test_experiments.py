"""Tests for the experiment modules (small trace budgets for speed).

These assert the *qualitative* reproduction criteria from DESIGN.md §4 —
orderings and shapes, not absolute values.
"""

import pytest

from repro.bench import NON_NUMERIC, SUITE
from repro.core import ALL_MODELS, MachineModel
from repro.experiments import RunConfig, SuiteRunner
from repro.experiments import fig4, fig5, fig6, fig7, table1, table2, table3, table4

M = MachineModel


@pytest.fixture(scope="module")
def runner():
    runner = SuiteRunner(RunConfig(max_steps=60_000))
    yield runner
    runner.close()


class TestTable1:
    def test_lists_all_benchmarks(self):
        result = table1.run()
        assert [row[0] for row in result.rows] == list(SUITE)

    def test_render(self):
        text = table1.run().render()
        assert "Benchmark Programs" in text and "tomcatv" in text


class TestTable2:
    def test_all_rows_present(self, runner):
        result = table2.run(runner)
        assert [row.program for row in result.rows] == list(SUITE)

    def test_prediction_rates_plausible(self, runner):
        for row in table2.run(runner).rows:
            assert 50.0 <= row.prediction_rate <= 100.0

    def test_branch_density_plausible(self, runner):
        for row in table2.run(runner).rows:
            assert 2.0 <= row.instructions_between_branches <= 100.0

    def test_render_includes_paper_values(self, runner):
        text = table2.run(runner).render()
        assert "93.48" in text  # paper's awk rate


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return table3.run(runner)

    def test_all_cells_positive(self, result):
        for values in result.parallelism.values():
            for model in ALL_MODELS:
                assert values[model] >= 1.0

    @pytest.mark.parametrize(
        "weaker,stronger",
        [
            (M.BASE, M.CD),
            (M.CD, M.CD_MF),
            (M.BASE, M.SP),
            (M.SP, M.SP_CD),
            (M.SP_CD, M.SP_CD_MF),
            (M.SP_CD_MF, M.ORACLE),
        ],
    )
    def test_harmonic_mean_partial_order(self, result, weaker, stronger):
        assert result.harmonic[stronger] >= result.harmonic[weaker] - 1e-9

    def test_base_parallelism_small(self, result):
        # Paper: BASE ~2 for non-numeric code.
        assert result.harmonic[M.BASE] < 4.0

    def test_cd_only_slightly_above_base(self, result):
        # Paper §5.1: branch ordering makes CD barely better than BASE.
        assert result.harmonic[M.CD] < 2.5 * result.harmonic[M.BASE]

    def test_cd_mf_unlocks_cd(self, result):
        # Paper: removing the branch-order constraint is the big win.
        assert result.harmonic[M.CD_MF] > 2.0 * result.harmonic[M.CD]

    def test_numeric_benchmarks_highly_parallel(self, result):
        for name in ("matrix300", "tomcatv"):
            assert result.parallelism[name][M.CD_MF] > 100.0
            # CD-MF gets a large fraction of ORACLE on data-independent code
            ratio = (
                result.parallelism[name][M.CD_MF]
                / result.parallelism[name][M.ORACLE]
            )
            assert ratio > 0.3

    def test_spice_behaves_like_non_numeric(self, result):
        # Paper §5.3: spice2g6's data-dependent control flow keeps its
        # BASE/CD parallelism within non-numeric range, far from the other
        # FORTRAN codes.
        spice_base = result.parallelism["spice2g6"][M.BASE]
        assert spice_base < 0.2 * result.parallelism["matrix300"][M.BASE] or (
            spice_base < 20.0
        )

    def test_sp_band_consistent(self, result):
        # Paper §5.2: SP parallelism is fairly consistent across the
        # non-numeric benchmarks (within roughly an order of magnitude).
        values = [result.parallelism[n][M.SP] for n in NON_NUMERIC]
        assert max(values) / min(values) < 20.0

    def test_render(self, result):
        text = result.render()
        assert "harmonic mean" in text and "ORACLE" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return table4.run(runner)

    def test_all_benchmarks_present(self, result):
        assert set(result.percent_change) == set(SUITE)

    def test_matrix300_gains_hugely(self, result):
        # Paper: +2911% BASE / +182136% SP for matrix300.  At this test's
        # small trace budget the init loops dominate, so accept smaller
        # (still huge by Table 4 standards) gains.
        assert result.percent_change["matrix300"][M.BASE] > 75.0
        assert result.percent_change["matrix300"][M.SP] > 150.0

    def test_unrolling_never_helps_oracle_much_on_non_numeric(self, result):
        # ORACLE has no control constraints; unrolling mostly removes
        # overlappable instructions, so oracle changes stay moderate for
        # the non-numeric codes (paper: -22%..+29%).  The numeric kernels'
        # strength-reduced pointer chains can make rolled ORACLE much
        # slower at our small trace scale, so they are exempt.
        for name in NON_NUMERIC:
            assert result.percent_change[name][M.ORACLE] < 150.0

    def test_mixed_effects_exist(self, result):
        changes = [
            result.percent_change[name][model]
            for name in SUITE
            for model in ALL_MODELS
        ]
        assert any(change < 0 for change in changes)
        assert any(change > 10 for change in changes)

    def test_render(self, result):
        assert "Unrolling" in result.render()


class TestFig4:
    def test_series_cover_non_numeric(self, runner):
        result = fig4.run(runner)
        assert set(result.series) == set(NON_NUMERIC)

    def test_cd_mf_at_least_cd(self, runner):
        result = fig4.run(runner)
        for values in result.series.values():
            assert values[M.CD_MF] >= values[M.CD] - 1e-9
            assert values[M.CD] >= values[M.BASE] - 1e-9

    def test_render_has_bars(self, runner):
        assert "#" in fig4.run(runner).render()


class TestFig5:
    def test_speculation_order(self, runner):
        result = fig5.run(runner)
        for values in result.series.values():
            assert values[M.SP] >= values[M.BASE] - 1e-9
            assert values[M.SP_CD] >= values[M.SP] - 1e-9
            assert values[M.SP_CD_MF] >= values[M.SP_CD] - 1e-9


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return fig6.run(runner)

    def test_cdfs_monotone(self, result):
        for cdf in result.distributions.values():
            assert cdf == sorted(cdf)
            assert all(0.0 <= v <= 1.0 for v in cdf)

    def test_most_mispredictions_are_local(self, result):
        # Paper: >80% within 100 instructions for non-numeric programs; we
        # accept a slightly looser bound at small trace budgets.
        assert result.non_numeric_within_100 > 0.6

    def test_render(self, result):
        assert "within 100 instructions" in result.render()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return fig7.run(runner)

    def test_bins_populated(self, result):
        populated = [count for *_, count in result.rows if count > 0]
        assert len(populated) >= 5

    def test_parallelism_grows_with_distance(self, result):
        rows = [(mean, count) for _, _, mean, count in result.rows if count > 10]
        first_mean = rows[0][0]
        last_mean = rows[-1][0]
        assert last_mean > first_mean

    def test_short_segments_have_little_parallelism(self, result):
        low, high, mean, count = result.rows[0]
        if count:
            assert mean < 4.0

    def test_long_distances_rare(self, result):
        total = sum(count for *_, count in result.rows)
        long_segments = sum(
            count for low, high, mean, count in result.rows if low >= 512
        )
        assert long_segments / total < 0.2
