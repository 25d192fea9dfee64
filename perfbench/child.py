"""One measured phase of a workload, in a fresh interpreter.

``run.py`` starts this script once per iteration with a JSON request
file and reads back the JSON result file it names.  Standard output is
left to ``repro-experiments``, so it holds exactly what a user would
see.  Interpreter start-up is the same for every phase and is not
measured: each phase times itself from its first import of ``repro``.

Phases:

* ``import`` — import the pipeline and stop (suite-cold's set-up).
* ``suite`` — one ``repro-experiments`` invocation over the suite's fifteen
  experiments, serial farm backend, at a fixed trace budget.
* ``sweep`` — build in-memory traces and predictors for the seven
  non-numeric programs (set-up), then repeat the flow-limit sweep for
  at least ``min_passes`` passes and until the phase's seconds are used
  (the timed passes), then cross-check the unlimited rows against a
  seven-model analysis (untimed).
* ``trace`` — compile the suite's programs (set-up), then trace each
  one with FastVM into the artifact cache, as a farm trace job does.

Every timed phase and every set-up is bracketed by :func:`host_probe_s`,
whose times ``run.py`` uses to scale it to a reference host speed; a
timed phase is also sampled while it runs (:class:`HostSpeed`).  Under
``instrument: trace`` a :class:`~layers.Recorder` times every layer
boundary of the timed phase; under ``slow:<layer>`` it also doubles that
layer's calls, set-up included.
"""

import json
import resource
import signal
import sys
import time

from layers import Recorder, layer_metrics


#: Iterations of the host-speed probe loop (about 60 ms on the
#: development host at its fastest).
PROBE_LOOPS = 1_500_000
#: Iterations of one in-phase speed sample (about 5 ms at the fastest),
#: and the CPU seconds between samples.
SAMPLE_LOOPS = 125_000
SAMPLE_INTERVAL_S = 0.2


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop_s(loops: int) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i
    return time.perf_counter() - started


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now (median of three).

    Timed phases are bracketed by this probe so that ``run.py`` can scale
    their wall time to a reference host speed; see ``README.md``.
    """
    return sorted(_loop_s(PROBE_LOOPS) for _ in range(3))[1]


class HostSpeed:
    """The host's speed over one timed phase (a ``with`` block).

    The host's speed can swing by half within seconds, faster than a
    phase lasts, so besides the probes before and after the block, a
    ``SIGVTALRM`` handler runs a short sample loop every
    ``SAMPLE_INTERVAL_S`` of CPU time inside it.  ``probe_s`` is the
    probe time at the block's mean speed (the harmonic mean of the
    probes and of the samples, each counted as a full probe).
    ``wall_s`` is the block's wall time without the samples; under a
    recorder each sample is a ``host.probe`` span, so no layer's self
    time includes it.
    """

    def __init__(self, before: float, recorder=None):
        self.times = [before]
        self.recorder = recorder
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        span = self.recorder._open("host.probe") if self.recorder is not None else None
        self.times.append(_loop_s(SAMPLE_LOOPS) * PROBE_LOOPS / SAMPLE_LOOPS)
        if span is not None:
            self.recorder._close("host.probe", *span, {})
        self.spent_s += time.perf_counter() - started

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.gross_s = time.perf_counter() - self.started
        self.wall_s = self.gross_s - self.spent_s
        self.after = host_probe_s()
        self.times.append(self.after)
        self.probe_s = len(self.times) / sum(1 / t for t in self.times)


def _make_recorder(request: dict):
    instrument = request["instrument"]
    if instrument == "off":
        return None
    slow = instrument.split(":", 1)[1] if instrument.startswith("slow:") else None
    return Recorder(slow_layer=slow)


def phase_import(request: dict) -> dict:
    probe = host_probe_s()
    started = time.perf_counter()
    import repro.experiments.cli  # noqa: F401

    setup = time.perf_counter() - started
    return {"setup_s": setup, "setup_probe_s": (probe + host_probe_s()) / 2}


def phase_suite(request: dict) -> dict:
    import dataclasses

    started = time.perf_counter()
    from repro.experiments import cli
    from repro.jobs import ExecutionEngine

    recorder = _make_recorder(request)
    if recorder is not None:
        recorder.install(cli.EXPERIMENTS)

    outputs: dict[str, str] = {}
    for name, experiment in list(cli.EXPERIMENTS.items()):
        def capture(runner, _run=experiment.run, _name=name):
            outputs[_name] = _run(runner)
            return outputs[_name]

        cli.EXPERIMENTS[name] = dataclasses.replace(experiment, run=capture)

    reports = []
    execute = ExecutionEngine.execute

    def keep_report(engine, graph, report):
        reports.append(report)
        return execute(engine, graph, report)

    ExecutionEngine.execute = keep_report

    argv = list(request["order"]) + [
        "--max-steps", str(request["max_steps"]),
        "--cache-dir", request["cache_dir"],
        "--jobs", "1",
        "--backend", "serial",
    ]
    imported = time.perf_counter()
    with HostSpeed(host_probe_s(), recorder) as speed:
        code = cli.main(argv)
        sys.stdout.flush()

    result = {
        "exit_code": code,
        "wall_s": speed.wall_s,
        "probe_s": speed.probe_s,
        # As a set-up (suite-warm's fill): imports and the run.
        "setup_s": imported - started + speed.wall_s,
        "setup_probe_s": speed.probe_s,
        "peak_rss_mib": _rss_mib(),
        "outputs": outputs,
        "executed": sum(report.executed for report in reports),
    }
    if recorder is not None:
        result["layers"] = [layer_metrics(recorder.records, speed.gross_s)]
        if "spans_dir" in request:
            recorder.write(request["spans_dir"])
    return result


def phase_sweep(request: dict) -> dict:
    probe_before = host_probe_s()
    started = time.perf_counter()
    from repro.core import MachineModel
    from repro.experiments.runner import RunConfig, SuiteRunner

    recorder = _make_recorder(request)
    if recorder is not None and recorder.slow_layer is not None:
        recorder.install()  # a slower layer slows set-up too
    models = [MachineModel.CD_MF, MachineModel.SP_CD_MF]
    runner = SuiteRunner(
        RunConfig(max_steps=request["max_steps"], cache_dir=request["cache_dir"])
    )
    runs = {}
    for name in request["programs"]:
        run = runner.run(name)
        run.trace  # materialize: the sweep replays in-memory traces
        runs[name] = run
    setup = time.perf_counter() - started
    if recorder is not None and recorder.slow_layer is None:
        recorder.install()

    phase_started = time.perf_counter()
    probe = host_probe_s()
    result = {"setup_s": setup, "setup_probe_s": (probe_before + probe) / 2,
              "passes": [], "layers": []}
    while (
        len(result["passes"]) < request["min_passes"]
        or time.perf_counter() - phase_started < request["seconds"]
    ):
        first_span = len(recorder.records) if recorder is not None else 0
        values = []
        with HostSpeed(probe, recorder) as speed:
            for name in request["programs"]:
                run = runs[name]
                for k in request["flow_limits"]:
                    analysis = run.analyzer.analyze(
                        run.trace, models=models, predictor=run.predictor, flow_limit=k
                    )
                    values.append(
                        [
                            name,
                            k,
                            {
                                m.label: [
                                    analysis[m].sequential_time,
                                    analysis[m].parallel_time,
                                ]
                                for m in models
                            },
                        ]
                    )
        result["passes"].append(
            {"wall_s": speed.wall_s, "probe_s": speed.probe_s, "values": values}
        )
        probe = speed.after
        if recorder is not None:
            result["layers"].append(
                layer_metrics(recorder.records[first_span:], speed.gross_s)
            )
    result["peak_rss_mib"] = _rss_mib()
    if recorder is not None:
        recorder.uninstall()
        if "spans_dir" in request:
            recorder.write(request["spans_dir"])
    if not result["passes"]:
        return result

    result["seven_model"] = {}
    for name in request["programs"]:
        run = runs[name]
        full = run.analyzer.analyze(run.trace, predictor=run.predictor)
        result["seven_model"][name] = {
            m.label: [full[m].sequential_time, full[m].parallel_time] for m in models
        }
    return result


def phase_trace(request: dict) -> dict:
    import hashlib

    probe_before = host_probe_s()
    started = time.perf_counter()
    from repro.bench import SUITE
    from repro.jobs import ArtifactCache
    from repro.vm import FastVM

    recorder = _make_recorder(request)
    if recorder is not None and recorder.slow_layer is not None:
        recorder.install()  # a slower layer slows set-up too
    programs = {name: SUITE[name].compile() for name in request["programs"]}
    cache = ArtifactCache(request["cache_dir"])
    setup = time.perf_counter() - started
    if recorder is not None and recorder.slow_layer is None:
        recorder.install()

    first_span = len(recorder.records) if recorder is not None else 0
    probe = host_probe_s()
    steps = {}
    with HostSpeed(probe, recorder) as speed:
        for name, program in programs.items():
            # A farm trace job: FastVM streamed straight into the cache.
            with cache.store_trace_stream(name, program) as writer:
                steps[name] = FastVM(program).run(
                    max_steps=request["max_steps"], sink=writer
                ).steps

    result = {
        "setup_s": setup,
        "setup_probe_s": (probe_before + probe) / 2,
        "wall_s": speed.wall_s,
        "probe_s": speed.probe_s,
        "peak_rss_mib": _rss_mib(),
        "traces": {
            name: [steps[name], hashlib.sha256(cache.trace_path(name).read_bytes()).hexdigest()]
            for name in programs
        },
    }
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = [layer_metrics(recorder.records[first_span:], speed.gross_s)]
        if "spans_dir" in request:
            recorder.write(request["spans_dir"])
    return result


PHASES = {
    "import": phase_import,
    "suite": phase_suite,
    "sweep": phase_sweep,
    "trace": phase_trace,
}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    result = PHASES[request["phase"]](request)
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
