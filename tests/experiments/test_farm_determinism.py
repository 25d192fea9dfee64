"""Parallel determinism and warm-cache guarantees for the experiment farm.

The acceptance bar from the farm design: ``repro-experiments table3``
must produce byte-identical stdout with ``--jobs 1`` and ``--jobs 4``,
and a warm-cache second run must produce identical output while
executing zero trace jobs.
"""

import tempfile

import pytest

from repro.experiments.cli import main

MAX_STEPS = "4000"


def run_cli(capsys, args):
    """Invoke the CLI and return (stdout, stderr)."""
    assert main(args) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestParallelByteIdentity:
    def test_table3_jobs1_vs_jobs4(self, capsys, tmp_path):
        serial, _ = run_cli(
            capsys,
            [
                "table3",
                "--max-steps", MAX_STEPS,
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "serial"),
            ],
        )
        parallel, _ = run_cli(
            capsys,
            [
                "table3",
                "--max-steps", MAX_STEPS,
                "--jobs", "4",
                "--cache-dir", str(tmp_path / "parallel"),
            ],
        )
        assert parallel == serial

    def test_cached_matches_uncached(self, capsys, tmp_path):
        cached, _ = run_cli(
            capsys,
            [
                "table2",
                "--max-steps", MAX_STEPS,
                "--cache-dir", str(tmp_path / "c"),
            ],
        )
        uncached, _ = run_cli(
            capsys,
            ["table2", "--max-steps", MAX_STEPS, "--no-cache"],
        )
        assert cached == uncached

    def test_no_cache_parallel_matches_serial_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        cached, _ = run_cli(
            capsys,
            [
                "table3",
                "--max-steps", MAX_STEPS,
                "--cache-dir", str(tmp_path / "c"),
            ],
        )
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        # tempfile caches TMPDIR after its first lookup, so patch its cache.
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        uncached, err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--no-cache", "--jobs", "2"],
        )
        assert uncached == cached
        assert "hit rate" in err
        assert not list(scratch.glob("repro-cache-*"))


class TestWarmCache:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return str(tmp_path / "warm")

    def test_second_run_identical_with_zero_jobs_executed(
        self, capsys, cache_dir
    ):
        cold_out, cold_err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        assert "hit rate" in cold_err
        warm_out, warm_err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        assert warm_out == cold_out
        assert "jobs: 0 executed" in warm_err
        assert "hit rate 100.0%" in warm_err
        # No trace stage line reports any execution on the warm run.
        for line in warm_err.splitlines():
            if line.startswith("[farm] trace:"):
                assert ", 0 executed" in line

    def test_warm_run_reuses_cache_across_experiments(
        self, capsys, cache_dir
    ):
        # table2 only needs traces; a following table3 run should reuse
        # them and only execute the analysis stage.
        run_cli(
            capsys,
            ["table2", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        _, err = run_cli(
            capsys,
            ["table3", "--max-steps", MAX_STEPS, "--cache-dir", cache_dir],
        )
        for line in err.splitlines():
            if line.startswith(("[farm] compile:", "[farm] trace:", "[farm] profile:")):
                assert ", 0 executed" in line
