"""Shared experiment infrastructure.

A :class:`SuiteRunner` owns the expensive artifacts — compiled programs,
traces, static analyses, trained predictors — and caches them so the
table/figure modules can share one set of runs.  All experiments in a
session therefore analyze the *same* traces, exactly as the paper derives
every table and figure from one set of pixie runs.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro import telemetry
from repro.bench import SUITE, BenchmarkSpec
from repro.core import ALL_MODELS, AnalysisResult, LimitAnalyzer, MachineModel
from repro.diagnostics import DiagnosticError, Severity
from repro.prediction import BranchPredictor, BranchStats, ProfilePredictor, branch_stats
from repro.jobs import (
    HIT,
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Planner,
    Request,
    RetryPolicy,
    TraceRequest,
)
from repro.vm import CorruptArtifactError, Trace


@dataclass(frozen=True)
class RunConfig:
    """Trace budget and execution configuration.

    ``max_steps`` plays the role of the paper's 100M-instruction pixie cap,
    scaled to what a Python interpreter sustains.  ``scale`` overrides each
    benchmark's default workload scale (None keeps the defaults).
    ``verify`` runs the object-code verifier and trace sanitizer over every
    benchmark before its numbers are used, raising
    :class:`~repro.diagnostics.DiagnosticError` on any error-severity
    finding.

    ``cache_dir`` is the persistent content-addressed artifact cache of
    :mod:`repro.jobs` that the farm produces every artifact into.  None
    (the default, which the test suite exercises) runs the same farm over
    a throwaway directory that :meth:`SuiteRunner.close` removes.
    ``jobs`` is the worker-process count of the farm; 1 runs jobs
    serially in-process.

    ``engine`` selects the analyzer implementation: ``"fused"`` (the
    default single-pass engine) or ``"legacy"`` (the original per-model
    sweep, kept as a differential-testing oracle).  Legacy runs bypass
    the persistent result cache so the oracle path is actually executed
    rather than served a cached fused result.

    ``telemetry_dir`` enables the observability layer of
    :mod:`repro.telemetry` at that directory: spans from every pipeline
    stage land in ``spans.jsonl`` there (farm workers inherit the
    directory through their job payloads), and the process-wide metrics
    registry fills in.  ``profile`` additionally arms the opt-in cProfile
    hooks.  Both default to off, which costs nothing.

    ``retries`` bounds how many times a failed farm job is requeued
    (with exponential backoff and deterministic jitter) before it is
    quarantined as dead; ``job_timeout`` is the per-attempt wall-clock
    budget in seconds (None: unbounded).  ``resume`` skips jobs an
    interrupted identical invocation already retired (per the run
    journal).  ``inject_faults`` arms the deterministic fault injector
    with a spec string (see :mod:`repro.jobs.faults`) — chaos-testing
    only.  See ``docs/robustness.md``.

    ``backend`` picks the farm executor (``serial``, ``pool``, or
    ``remote``; None infers it from ``jobs``/``workers``), and
    ``workers`` lists ``host:port`` addresses of ``repro-worker``
    daemons for the remote backend.  See ``docs/distributed.md``.
    """

    max_steps: int = 150_000
    scale: int | None = None
    verify: bool = False
    jobs: int = 1
    cache_dir: str | Path | None = None
    engine: str = "fused"
    telemetry_dir: str | Path | None = None
    profile: bool = False
    retries: int = 2
    job_timeout: float | None = None
    resume: bool = False
    inject_faults: str | None = None
    backend: str | None = None
    workers: tuple[str, ...] = ()


class BenchmarkRun:
    """One benchmark's trace plus everything derived from it.

    The trace lives in the content-addressed cache behind an ``opener``
    producing fresh streaming readers.  :attr:`trace` materializes lazily
    for consumers that genuinely need whole-trace columns (the verifier,
    ablations); chunk-wise consumers call :meth:`trace_source` and never
    pay the memory.  :attr:`stats` (Table 2) is likewise computed on
    first use, chunk-wise.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        analyzer: LimitAnalyzer,
        predictor: ProfilePredictor,
        opener,
    ):
        self.spec = spec
        self.analyzer = analyzer
        self.predictor = predictor
        self._trace: Trace | None = None
        self._opener = opener
        self._stats: BranchStats | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def trace(self) -> Trace:
        """The whole trace in memory (materialized from the cache lazily)."""
        if self._trace is None:
            self._trace = self._opener().to_trace()
        return self._trace

    def trace_source(self):
        """The cheapest full-trace source for chunk-wise consumers.

        The in-memory :class:`Trace` once :attr:`trace` has materialized
        it, else a fresh streaming :class:`~repro.vm.trace_io.TraceReader`
        over the cached trace (bounded memory at any budget).
        """
        if self._trace is not None:
            return self._trace
        return self._opener()

    @property
    def stats(self) -> BranchStats:
        """Branch statistics under the run's predictor (computed lazily)."""
        if self._stats is None:
            self._stats = branch_stats(self.trace_source(), self.predictor)
        return self._stats


class SuiteRunner:
    """Caches traces and analysis results across experiment modules.

    Every trace, branch profile and analysis result is produced by the
    farm of :mod:`repro.jobs` into a content-addressed artifact cache —
    ``RunConfig.cache_dir``, or a throwaway directory removed by
    :meth:`close` when that is None.  :meth:`prefetch` farms the work for
    a set of experiment requests before the experiment modules render
    anything; :meth:`run` and :meth:`analyze` load artifacts by key,
    planning the one request they need through the same farm when the
    prefetch did not cover it.  Only analyses with a custom predictor or
    the legacy engine run in this process, outside the result cache.

    A runner made without a ``cache_dir`` owns its throwaway directory:
    call :meth:`close` when done with it, or the directory lingers until
    garbage collection.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig()
        if self.config.telemetry_dir is not None:
            telemetry.configure(
                self.config.telemetry_dir, profile=self.config.profile
            )
            # One distributed trace per invocation: every root span of
            # this run (and, via job payloads, every farm-worker span)
            # shares it, so repro-trace reassembles the whole run.
            if telemetry.context.current() is None:
                telemetry.context.set_default(telemetry.context.mint())
        self._runs: dict[str, BenchmarkRun] = {}
        self._results: dict[AnalysisRequest, AnalysisResult] = {}
        self.farm_report = FarmReport()
        self._scratch = None
        cache_dir = self.config.cache_dir
        if cache_dir is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_dir = self._scratch.name
        self.cache = ArtifactCache(cache_dir)
        self._planner = Planner(self.cache, self.farm_report)

    def close(self) -> None:
        """Remove the throwaway cache, if this runner made one."""
        if self._scratch is not None:
            self._scratch.cleanup()

    def prefetch(self, requests: Iterable) -> None:
        """Produce all artifacts for *requests* up front, possibly in parallel.

        Expands the requests into a compile → trace → profile → analysis
        job graph, skips jobs whose artifact is already cached, and runs
        the rest across ``RunConfig.jobs`` worker processes (serially
        in-process for ``jobs=1``).  Subsequent :meth:`run` /
        :meth:`analyze` calls then load the artifacts instead of
        recomputing.  The legacy engine analyzes in this process, so its
        analysis requests farm only their traces and profiles.
        """
        if self.config.engine == "legacy":
            requests = [
                TraceRequest(r.benchmark, r.max_steps)
                if isinstance(r, AnalysisRequest) else r
                for r in requests
            ]
        graph = self._planner.plan(
            requests, self.config.scale, self.config.max_steps
        )
        engine = ExecutionEngine(
            self.cache,
            jobs=self.config.jobs,
            retry=RetryPolicy(
                max_attempts=self.config.retries + 1,
                job_timeout=self.config.job_timeout,
            ),
            faults=self.config.inject_faults,
            resume=self.config.resume,
            backend=self.config.backend,
            workers=list(self.config.workers),
        )
        engine.execute(graph, self.farm_report)

    def _fetch(self, request: Request, stage: str, key: str, load):
        """Load the *stage* artifact *key* of *request* from the cache.

        A present artifact is a hit.  A missing one is produced by
        prefetching *request* first, as is a present one that fails
        verification (the cache has quarantined it; the failure is
        recorded).  A job the farm gives up on raises ``RuntimeError``
        with the fatal failure's message.
        """
        kind = "result" if stage == "analyze" else stage
        if self.cache.has_artifact(kind, key):
            try:
                artifact = load()
            except CorruptArtifactError as exc:
                self.farm_report.record_failure(
                    key, stage, request.benchmark, "corrupt", 1, str(exc),
                    retried=True,
                )
            else:
                self.farm_report.record(key, stage, request.benchmark, HIT)
                return artifact
        seen = len(self.farm_report.failures)
        self.prefetch([request])
        if not self.cache.has_artifact(kind, key):
            fatal = [f for f in self.farm_report.failures[seen:] if not f.retried]
            reason = fatal[0].message if fatal else "no failure recorded"
            raise RuntimeError(
                f"the farm could not produce the {stage} artifact of "
                f"{request.benchmark}: {reason}"
            )
        return load()

    def run(self, name: str) -> BenchmarkRun:
        """Trace and profile one benchmark through the farm (cached)."""
        cached = self._runs.get(name)
        if cached is not None:
            return cached
        spec = SUITE[name]
        with telemetry.span("runner.run", benchmark=name):
            request = TraceRequest(name)
            keys = self._planner.request_keys(
                request, self.config.scale, self.config.max_steps
            )
            program = spec.compile(self.config.scale)

            def opener():
                return self.cache.open_trace_reader(keys.trace, program)

            self._fetch(request, "trace", keys.trace, opener)
            predictor = self._fetch(
                request, "profile", keys.profile,
                lambda: self.cache.load_profile(keys.profile),
            )
            run = BenchmarkRun(spec, LimitAnalyzer(program), predictor, opener)
            if self.config.verify:
                self._verify(run)
        self._runs[name] = run
        return run

    def _verify(self, run: BenchmarkRun) -> None:
        """Cross-check the compiled program and its trace (RunConfig.verify)."""
        from repro.analysis.static import analyze_static
        from repro.analysis.static.differential import check_static_vs_dynamic
        from repro.analysis.verify import verify_program
        from repro.vm.sanitize import sanitize_trace

        diagnostics = verify_program(run.analyzer.program, name=run.name)
        diagnostics += sanitize_trace(
            run.trace, analysis=run.analyzer.analysis, name=run.name
        )
        # Static-vs-dynamic differential gate (STA41x).  The trace may be
        # truncated (the runner does not record whether the VM halted), so
        # the halted-only whole-program bound is skipped; every other claim
        # is checked record for record.
        facts = analyze_static(run.analyzer.program, run.analyzer.analysis)
        result = run.analyzer.analyze(run.trace, models=[MachineModel.ORACLE])
        diagnostics += check_static_vs_dynamic(
            facts, run.trace, result=result, halted=False, name=run.name
        )
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        if errors:
            raise DiagnosticError(errors, context=run.name)

    def analyze(
        self,
        name: str,
        models: Sequence[MachineModel] = ALL_MODELS,
        perfect_unrolling: bool = True,
        perfect_inlining: bool = True,
        collect_misprediction_stats: bool = False,
        predictor: BranchPredictor | None = None,
    ) -> AnalysisResult:
        """Limit-analyze one benchmark's trace (cached per option set).

        Fused analyses are farm artifacts.  A custom ``predictor`` (the
        ablations construct their own, with internal state) and the
        legacy engine run in this process instead: the legacy engine is
        a differential oracle, and serving it a cached fused result would
        skip the very code path the caller asked to exercise.  Results
        with a custom predictor are not cached at all.
        """
        request = AnalysisRequest(
            name,
            models=tuple(models),
            perfect_unrolling=perfect_unrolling,
            perfect_inlining=perfect_inlining,
            collect_misprediction_stats=collect_misprediction_stats,
        )
        if predictor is None and request in self._results:
            return self._results[request]
        if predictor is None and self.config.engine == "fused":
            if self.config.verify:
                self.run(name)  # verifies the benchmark behind the result
            result_key = self._planner.request_keys(
                request, self.config.scale, self.config.max_steps
            ).result
            result = self._fetch(
                request, "analyze", result_key,
                lambda: self.cache.load_result(result_key),
            )
        else:
            run = self.run(name)
            with telemetry.span(
                "runner.analyze", benchmark=name, engine=self.config.engine
            ):
                result = run.analyzer.analyze(
                    run.trace_source(),
                    models=models,
                    predictor=predictor if predictor is not None else run.predictor,
                    perfect_unrolling=perfect_unrolling,
                    perfect_inlining=perfect_inlining,
                    collect_misprediction_stats=collect_misprediction_stats,
                    engine=self.config.engine,
                )
            if predictor is not None:
                return result
        self._results[request] = result
        return result


@dataclass
class TextTable:
    """Minimal fixed-width table renderer for experiment reports."""

    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    title: str = ""

    def add(self, *cells: object) -> None:
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.rjust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.2f}"
    return str(cell)
