"""The benchmark's own tests.

Run from the root of a checkout (about three minutes; the smoke runs
execute one iteration of every workload at its real trace budget)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(span_id, parent, dur, name="core.analyze", **attrs):
    return {"name": name, "id": span_id, "parent": parent, "trace": "t", "pid": 1,
            "ts": 0.0, "dur": dur, "attrs": attrs}


# -- span arithmetic -------------------------------------------------------------


def test_self_time_is_span_minus_children():
    records = [
        span("root", None, 10.0, name="jobs.execute"),
        span("a", "root", 4.0, name="core.analyze"),
        span("c", "a", 1.0, name="trace_io.read"),
        span("b", "root", 3.0, name="vm.run"),
    ]
    assert layers.self_times(records) == {"root": 3.0, "a": 3.0, "c": 1.0, "b": 3.0}
    assert layers.layer_self_seconds(records) == {
        "jobs": 3.0, "core": 3.0, "trace_io": 1.0, "vm": 3.0,
    }
    metrics = layers.layer_metrics(
        [dict(r, attrs={}) for r in records[:1]]
        + [span("a", "root", 4.0, flow_limit=None, records=100, models=7,
                model_set=["BASE"], source="x", program="gcc")]
        + [span("c", "a", 1.0, name="trace_io.read", records=100, path="x",
                pass_start=True)]
        + [span("b", "root", 3.0, name="vm.run", steps=300)],
        wall_s=12.0,
    )
    assert metrics["core.analyze_self_s"] == 3.0
    assert metrics["core.sweeps_per_trace"] == 1.0
    assert metrics["vm.msteps_per_s"] == pytest.approx(300 / 3.0 / 1e6)
    assert metrics["jobs.overhead_s"] == 3.0
    assert metrics["trace.unattributed_s"] == 2.0  # 12 s of wall, 10 s in spans
    assert metrics["layer_self_s.core"] == 3.0


def test_recorder_links_spans_and_doubles_only_the_slowed_layer():
    recorder = layers.Recorder(slow_layer="core")

    def inner():
        layers._spin(0.02)

    wrapped_inner = recorder.wrap("vm.run", inner)

    def outer():
        wrapped_inner()
        layers._spin(0.01)

    recorder.wrap("core.analyze", outer)()
    vm, core = recorder.records
    assert vm["parent"] == core["id"] and core["parent"] is None
    assert vm["dur"] < 0.035  # not slowed
    assert core["dur"] >= 2 * (vm["dur"] + 0.01)  # its whole call, twice
    own = layers.self_times(recorder.records)
    assert own[core["id"]] == pytest.approx(core["dur"] - vm["dur"])


def test_generator_steps_and_context_blocks_are_spans():
    recorder = layers.Recorder()

    def numbers(n):
        yield from range(n)

    chunks = recorder.wrap_generator(
        "trace_io.read", numbers,
        lambda args, item: {"path": "p", "records": 0 if item is None else 1},
    )
    assert list(chunks(3)) == [0, 1, 2]
    reads = [r for r in recorder.records if r["name"] == "trace_io.read"]
    assert len(reads) == 4  # three items, then the exhausting call
    assert [r["attrs"]["pass_start"] for r in reads] == [True, False, False, False]

    import contextlib

    @contextlib.contextmanager
    def store():
        yield "writer"

    block = recorder.wrap_context("jobs.cache_store", store, lambda a, k: {"bytes": 5})
    with block() as writer:
        recorder.wrap("vm.run", lambda: None)()
    assert writer == "writer"
    vm, stored = recorder.records[-2:]
    assert vm["parent"] == stored["id"] and stored["attrs"] == {"bytes": 5}


def test_install_wraps_the_pipeline_and_uninstall_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import LimitAnalyzer, MachineModel
    from repro.lang import compile_source
    from repro.vm import FastVM

    originals = (FastVM.run, LimitAnalyzer.analyze)
    recorder = layers.Recorder()
    recorder.install()
    try:
        import repro.lang

        program = repro.lang.compile_source(
            "int main() { int i; int s; s = 0; for (i = 0; i < 50; i = i + 1)"
            " { if (i % 3) s = s + i; } return s; }",
            name="smoke",
        )
        trace = FastVM(program).run(max_steps=5000).trace
        LimitAnalyzer(program).analyze(trace, models=[MachineModel.CD_MF], flow_limit=1)
    finally:
        recorder.uninstall()
    assert (FastVM.run, LimitAnalyzer.analyze) == originals
    assert repro.lang.compile_source is compile_source
    names = [r["name"] for r in recorder.records]
    for name in ("lang.compile", "analysis.static", "vm.run", "core.analyze"):
        assert name in names
    metrics = layers.layer_metrics(recorder.records, wall_s=1.0)
    assert metrics["core.flow_calls"] == 1 and metrics["vm.steps"] == len(trace)


# -- end to end ------------------------------------------------------------------


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = "\n".join(lines[:-1])
    for m in declared:
        assert f"[{workload}] {m['name']} " in printed
        assert printed.split(f"[{workload}] {m['name']} ", 1)[1].split("\n")[0].endswith(
            f" {m['unit']}"
        )
    assert f"[{workload}] failed_ratio 0 ratio" in printed
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in values.values())
    elif workload == "suite-cold":
        assert values["jobs.executed"] == values["jobs.planned"] == 69
        assert values["core.sweeps_per_trace"] == 3.9  # 39 analyses over 10 traces
    elif workload == "suite-warm":
        assert values["jobs.executed"] == 0 and values["vm.steps"] == 0
        assert values["vm.legacy_steps"] > 0
        assert legacy_vm_experiments("suite-warm") == {"ablation-guarded"}
    elif workload == "flow-sweep":
        assert values["vm.steps"] == 0 and values["jobs.planned"] == 0
        assert values["core.flow_calls"] == 35
    else:
        assert values["vm.runs"] == 10 and values["vm.steps"] == 10 * 200_000
        assert values["trace_io.records_written"] == values["vm.steps"]
        assert values["core.analyze_calls"] == 0 and values["jobs.planned"] == 0


def legacy_vm_experiments(workload):
    """The experiments under which the last traced run used the legacy VM."""
    path = run.WORK_DIR / "spans" / workload / "spans.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    chains = layers.ancestors(records)
    return {
        a["attrs"]["experiment"]
        for r in records if r["name"] == "vm.legacy_run"
        for a in chains[r["id"]] if a["name"] == "experiments.run"
    }


def test_wrong_reference_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    refs["suite"]["experiments"]["table3"] = "0" * 64
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(refs), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCES", wrong)
    code = run.main(["--workload", "suite-cold", "--seed", "5", "--seconds", "0.01",
                     "--trace", "0"])
    stdout = capsys.readouterr().out
    assert code != 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    ratio = float(stdout.split("failed_ratio ", 1)[1].split()[0])
    assert ratio > 0
    assert "table3 output differs from the reference" in stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc = bench("--workload", "flow-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.monotonic() - started < 60
