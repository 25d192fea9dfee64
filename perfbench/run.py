"""Pipeline benchmark: suite-cold, suite-warm, flow-sweep and vm-trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 16 --trace 0

Each measured iteration runs in a fresh single-threaded interpreter
(``child.py``) with the serial farm backend.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once with benchmark-side spans around every layer boundary, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The seed fixes the order in which the experiments (suite workloads) or
the programs (flow-sweep, vm-trace) run; the work itself does not depend on it,
so every seed checks against the same references (``references.json``,
written by ``record.py``, which also fixes the trace budgets).  A
mismatch counts as a failed operation and the command exits non-zero.

See ``README.md`` for the workloads, the metrics and how to re-record
the references after a change that alters results on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import EXPERIMENTS, NON_NUMERIC, PROGRAMS  # noqa: E402

#: Everything the benchmark writes lives here (ignored by git).
WORK_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"

FLOW_LIMITS = (1, 2, 4, 8, 16, None)
#: Set-ups timed per run where one set-up is cheap (median reported):
#: flow-sweep's, and suite-cold's imports, which take only 0.1 s each.
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
#: A child that takes longer than this is killed and its work failed.
CHILD_TIMEOUT_S = 150
#: The host-speed probe's time (``child.host_probe_s``) on the 2-core
#: development host at its fastest.  ``norm_wall_s`` and ``setup_s``
#: scale each timed phase and set-up by this over the probe time measured
#: around it, so they read as the time on that host at that speed.
REFERENCE_PROBE_S = 0.060

WORKLOADS = ("suite-cold", "suite-warm", "flow-sweep", "vm-trace")


class ChildFailed(Exception):
    """A measured child process exited abnormally or wrote no result."""


@dataclass
class Measurement:
    """Everything one workload run observed."""

    walls: list[tuple[str, float, float]] = field(default_factory=list)  # raw, scaled
    setups: list[tuple[float, float]] = field(default_factory=list)  # raw, scaled
    rss: list[float] = field(default_factory=list)
    cache: list[float] = field(default_factory=list)
    layers: list[tuple[str, dict]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


# -- children -------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Byte code lives in the benchmark's own cache, whatever src/ holds.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "pycache")
    return env


def warm_bytecode() -> None:
    """Compile every module the children import, untimed, so that no
    timed phase or set-up compiles source; modules edited since the last
    run are recompiled, the rest are reused."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"),
         str(BENCH_DIR)],
        cwd=ROOT, env=child_env(), check=True, capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


def spawn(scratch: Path, tag: str, request: dict,
          timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, bytes]:
    """Run one child phase; return its result and its standard output."""
    scratch.mkdir(parents=True, exist_ok=True)
    request = dict(request, result=str(scratch / f"{tag}.result.json"))
    request_path = scratch / f"{tag}.request.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    stdout_path = scratch / f"{tag}.stdout"
    with open(stdout_path, "wb") as out, open(scratch / f"{tag}.stderr", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(request_path)],
                cwd=ROOT,
                env=child_env(),
                stdout=out,
                stderr=err,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{tag}: timed out after {timeout}s") from exc
    if proc.returncode != 0 or not Path(request["result"]).exists():
        tail = (scratch / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{tag}: exit {proc.returncode}\n{tail}")
    result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
    return result, stdout_path.read_bytes()


def dir_mib(path: Path) -> float:
    total = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total / (1024 * 1024)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- correctness --------------------------------------------------------------


def check_suite(result: dict, stdout: bytes, order: list[str], refs: dict,
                m: Measurement, label: str) -> None:
    """Count one suite run's experiment outputs against *refs*."""
    m.attempted += len(order)
    if result["exit_code"] != 0:
        m.fail(len(order), f"{label}: repro-experiments exited {result['exit_code']}")
        return
    outputs = result["outputs"]
    printed = "".join(outputs.get(name, "") + "\n\n" for name in order)
    if stdout != printed.encode("utf-8"):
        m.fail(len(order), f"{label}: stdout is not the experiments' outputs")
        return
    for name in order:
        digest = sha256(outputs[name].encode("utf-8")) if name in outputs else None
        if digest != refs["experiments"][name]:
            m.fail(1, f"{label}: {name} output differs from the reference")


def check_traces(result: dict, refs: dict, m: Measurement, label: str) -> None:
    """Count each program's trace (steps and RTRC digest) against *refs*."""
    for name, observed in result["traces"].items():
        m.attempted += 1
        if observed != refs["traces"][name]:
            m.fail(1, f"{label}: {name} trace {observed} != reference "
                      f"{refs['traces'][name]}")


def check_sweep(result: dict, refs: dict, m: Measurement) -> None:
    """Count every analyze call of a sweep's passes against *refs*.

    A call fails when its (sequential, parallel) times differ from the
    reference, when CD-MF fell as k grew, or, for k=unlimited, when it
    differs from the seven-model analysis of the same trace.
    """
    expected = refs["values"]
    for number, sweep in enumerate(result["passes"]):
        previous: dict[str, float] = {}
        for name, k, values in sweep["values"]:
            m.attempted += 1
            label = f"pass {number}: {name} k={'unlimited' if k is None else k}"
            reasons = []
            if values != expected[name][str(k)]:
                reasons.append(f"{values} != reference {expected[name][str(k)]}")
            cd_mf = values["CD-MF"][0] / values["CD-MF"][1]
            if cd_mf < previous.get(name, 0.0):
                reasons.append("CD-MF fell as k grew")
            previous[name] = cd_mf
            if k is None and values != result["seven_model"][name]:
                reasons.append("differs from the seven-model analysis")
            if reasons:
                m.fail(1, f"{label}: {'; '.join(reasons)}")


# -- workloads ------------------------------------------------------------------


def add_iteration(m: Measurement, instrument: str, timed: dict, rss: float,
                  layers: list[dict]) -> None:
    """Record one timed phase; *timed* has its ``wall_s`` and ``probe_s``."""
    scaled = timed["wall_s"] * REFERENCE_PROBE_S / timed["probe_s"]
    m.walls.append((instrument, timed["wall_s"], scaled))
    m.rss.append(rss)
    m.layers.extend((instrument, dict(layer, probe_s=timed["probe_s"])) for layer in layers)


def add_setup(m: Measurement, result: dict) -> None:
    """Record one set-up; *result* has its ``setup_s`` and ``setup_probe_s``."""
    raw = result["setup_s"]
    m.setups.append((raw, raw * REFERENCE_PROBE_S / result["setup_probe_s"]))


def repeat(instruments: list[str], seconds: float):
    """Yield (instrument, tag) for each instrument's iterations, until its
    *seconds* are used (at least one iteration each)."""
    for instrument in instruments:
        started = time.perf_counter()
        iteration = 0
        while iteration == 0 or time.perf_counter() - started < seconds:
            yield instrument, f"{instrument.replace(':', '-')}{iteration}"
            iteration += 1


def setup_instrument(instruments: list[str]) -> str:
    """Set-up runs plain, except under an injected slowdown, which a
    slower layer would impose on set-up as well."""
    return instruments[0] if instruments[0].startswith("slow:") else "off"


def run_suite(workload: str, rng: random.Random, seconds: float,
              instruments: list[str], refs: dict, scratch: Path) -> Measurement:
    """suite-cold: every iteration starts from an empty artifact cache.
    suite-warm: set-up fills one cache; every iteration re-reads it."""
    m = Measurement()
    order = list(EXPERIMENTS)
    rng.shuffle(order)
    base = {"phase": "suite", "order": order, "max_steps": refs["max_steps"]}
    warm_cache = scratch / "cache-warm"
    if workload == "suite-cold":
        for i in range(IMPORT_REPEATS):
            result, _ = spawn(scratch, f"import{i}", {"phase": "import"})
            add_setup(m, result)
    else:
        # One fill costs a whole cold suite, so it is not repeated.
        fill, fill_stdout = spawn(
            scratch, "fill",
            dict(base, cache_dir=str(warm_cache), instrument=setup_instrument(instruments)),
        )
        add_setup(m, fill)
        check_suite(fill, fill_stdout, order, refs, m, "fill")

    for instrument, tag in repeat(instruments, seconds):
        cache = scratch / f"cache-{tag}" if workload == "suite-cold" else warm_cache
        result, stdout = spawn(
            scratch, tag,
            dict(base, cache_dir=str(cache), instrument=instrument,
                 spans_dir=str(WORK_DIR / "spans" / workload)),
        )
        check_suite(result, stdout, order, refs, m, tag)
        if workload == "suite-warm":
            if stdout != fill_stdout:
                m.fail(len(order), f"{tag}: warm stdout differs from the cold fill")
            if result["executed"] != 0:
                m.fail(len(order), f"{tag}: warm farm executed {result['executed']} jobs")
        m.cache.append(dir_mib(cache))
        if workload == "suite-cold":
            shutil.rmtree(cache, ignore_errors=True)
        add_iteration(m, instrument, result, result["peak_rss_mib"],
                      result.get("layers", []))
    return m


def run_sweep(rng: random.Random, seconds: float, instruments: list[str],
              refs: dict, scratch: Path) -> Measurement:
    """flow-sweep: set-up builds in-memory traces; passes sweep k."""
    m = Measurement()
    programs = list(NON_NUMERIC)
    rng.shuffle(programs)
    base = {"phase": "sweep", "programs": programs, "flow_limits": list(FLOW_LIMITS),
            "max_steps": refs["max_steps"]}
    for i in range(SETUP_REPEATS - 1):
        result, _ = spawn(
            scratch, f"setup{i}",
            dict(base, cache_dir=str(scratch / f"cache-setup{i}"), seconds=0,
                 min_passes=0, instrument=setup_instrument(instruments)),
        )
        add_setup(m, result)
    for instrument in instruments:
        tag = instrument.replace(":", "-")
        cache = scratch / f"cache-{tag}"
        result, _ = spawn(
            scratch, tag,
            dict(base, cache_dir=str(cache), seconds=seconds, min_passes=1,
                 instrument=instrument,
                 spans_dir=str(WORK_DIR / "spans" / "flow-sweep")),
        )
        add_setup(m, result)
        m.cache.append(dir_mib(cache))
        check_sweep(result, refs, m)
        layers = result["layers"] or [None] * len(result["passes"])
        for sweep, layer in zip(result["passes"], layers):
            add_iteration(m, instrument, sweep, result["peak_rss_mib"],
                          [layer] if layer else [])
    return m


def run_trace(rng: random.Random, seconds: float, instruments: list[str],
              refs: dict, scratch: Path) -> Measurement:
    """vm-trace: each iteration compiles the programs (set-up) and traces
    them into an empty artifact cache (timed)."""
    m = Measurement()
    programs = list(PROGRAMS)
    rng.shuffle(programs)
    for instrument, tag in repeat(instruments, seconds):
        cache = scratch / f"cache-{tag}"
        result, _ = spawn(
            scratch, tag,
            {"phase": "trace", "programs": programs, "max_steps": refs["max_steps"],
             "cache_dir": str(cache), "instrument": instrument,
             "spans_dir": str(WORK_DIR / "spans" / "vm-trace")},
        )
        add_setup(m, result)
        check_traces(result, refs, m, tag)
        m.cache.append(dir_mib(cache))
        shutil.rmtree(cache, ignore_errors=True)
        add_iteration(m, instrument, result, result["peak_rss_mib"],
                      result.get("layers", []))
    return m


def measure(workload: str, seed: int, seconds: float, instruments: list[str],
            refs: dict) -> Measurement:
    """Run *workload* once per instrument, each for *seconds*.

    An instrument is ``off``, ``trace`` (spans at every layer boundary)
    or ``slow:<layer>`` (spans, and that layer's calls take twice as
    long).  *refs* is the loaded ``references.json``.
    """
    rng = random.Random(seed)
    scratch = WORK_DIR / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if workload == "flow-sweep":
            return run_sweep(rng, seconds, instruments, refs["flow_sweep"], scratch)
        if workload == "vm-trace":
            return run_trace(rng, seconds, instruments, refs["vm_trace"], scratch)
        return run_suite(workload, rng, seconds, instruments, refs["suite"], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- reporting ------------------------------------------------------------------


def median_wall(m: Measurement, instrument: str, scaled: bool = True) -> float:
    return statistics.median(
        w[2] if scaled else w[1] for w in m.walls if w[0] == instrument
    )


def end_to_end(m: Measurement, instrument: str) -> dict:
    return {
        "norm_wall_s": median_wall(m, instrument),
        "wall_s": median_wall(m, instrument, scaled=False),
        "setup_s": statistics.median(s[1] for s in m.setups),
        "raw_setup_s": statistics.median(s[0] for s in m.setups),
        "peak_rss_mib": statistics.median(m.rss),
        "cache_mib": statistics.median(m.cache),
    }


def per_layer(m: Measurement, instrument: str, untraced: str | None = None) -> dict:
    """Median of each per-layer metric over *instrument*'s iterations."""
    layers = [layer for tag, layer in m.layers if tag == instrument]
    values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    values["host.probe_ms"] = values.pop("probe_s") * 1000
    if untraced is not None:
        values["trace.overhead_ratio"] = median_wall(m, instrument) / median_wall(m, untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))

    instruments = ["off", "trace"] if args.trace else ["off"]
    try:
        warm_bytecode()
        m = measure(args.workload, args.seed, args.seconds / len(instruments),
                    instruments, refs)
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = per_layer(m, "trace", untraced="off")
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
    else:
        values = end_to_end(m, "off")
        units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for problem in m.problems[:20]:
        print(f"[check] {problem}")
    print(f"[{args.workload}] failed_ratio {m.failed / m.attempted:.6g} ratio "
          f"({m.failed} of {m.attempted} operations)")
    if not args.trace:
        print(f"[{args.workload}] wall_s {values['wall_s']:.6g} s (unscaled)")
        print(f"[{args.workload}] raw_setup_s {values['raw_setup_s']:.6g} s (unscaled)")
    for name, metric in metrics.items():
        print(f"[{args.workload}] {name} {metric['value']:.6g} {metric['unit']}")
    correct = m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
