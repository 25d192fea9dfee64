"""Benchmark-side spans around the pipeline's layer boundaries.

Nothing here edits the program: :class:`Recorder` replaces public
functions and methods of the ``repro`` package with timing wrappers from
outside, keeps the finished spans in memory, and writes them at the end
in the ``repro.telemetry`` span record shape (``name``, ``id``,
``parent``, ``trace``, ``pid``, ``ts``, ``dur``, ``attrs``), so
``repro-trace --critical-path`` and ``--flame`` render them unchanged.

A layer's self time is its spans' durations minus the time their child
spans cover (:func:`self_times`).  :func:`layer_metrics` turns one
run's spans into the per-layer metrics listed in ``BENCHMARK.json``.

With ``slow_layer`` set, every wrapped call of that layer spins, after it
returns, for as long as the call took, so each call of the layer takes
twice as long (nested calls of the same layer spin once, themselves).
That is the benchmark's sensitivity self-check (see ``sensitivity.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Layers a slowdown can be injected into (the span-name prefixes).
LAYERS = (
    "lang", "analysis", "vm", "trace_io", "prediction", "core", "jobs",
    "experiments",
)

#: The seven non-numeric programs, in suite order.
NON_NUMERIC = ("awk", "ccom", "eqntott", "espresso", "gcc", "irsim", "latex")

#: Every program of the suite: the non-numeric ones and the FORTRAN three.
PROGRAMS = NON_NUMERIC + ("matrix300", "spice2g6", "tomcatv")

#: The experiments the suite workloads run, in CLI order: all sixteen
#: but ablation-convergence, whose fixed 50k-400k budgets would make
#: three quarters of a cold run and leave room for one sample per run.
EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7",
    "mix", "ablation-predictors", "ablation-window", "ablation-latency",
    "ablation-inlining", "ablation-guarded", "ablation-flows",
)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Recorder:
    """In-memory span recorder installed over the ``repro`` layers."""

    def __init__(self, slow_layer: str | None = None):
        if slow_layer is not None and slow_layer not in LAYERS:
            raise ValueError(f"unknown layer {slow_layer!r}; expected one of {LAYERS}")
        self.slow_layer = slow_layer
        self.pid = os.getpid()
        # One distributed-trace id per process groups its spans in repro-trace.
        self.trace_id = f"perfbench-{self.pid:x}"
        self.records: list[dict] = []
        # Open frames: [span id, layer, seconds of nested same-layer calls].
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- span bookkeeping ----------------------------------------------

    def _open(self, name: str) -> tuple[list, str | None, float, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [f"{self.pid:x}-{next(self._ids):x}", name.split(".", 1)[0], 0.0]
        self._stack.append(frame)
        return frame, parent, time.time(), time.perf_counter()

    def _close(self, name, frame, parent, ts, start, attrs) -> None:
        duration = time.perf_counter() - start
        if frame[1] == self.slow_layer:
            # Nested calls of the same layer have spun already.
            _spin(max(duration - frame[2], 0.0))
            duration = time.perf_counter() - start
        self._stack.pop()
        if self._stack and self._stack[-1][1] == frame[1]:
            self._stack[-1][2] += duration
        self.records.append(
            {
                "name": name,
                "id": frame[0],
                "parent": parent,
                "trace": self.trace_id,
                "pid": self.pid,
                "ts": ts,
                "dur": duration,
                "attrs": attrs,
            }
        )

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, func, attrs=None):
        """A function timing *func* as span *name*.

        ``attrs(args, kwargs, result)`` returns the span's attributes
        once the call has returned.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            frame, parent, ts, start = recorder._open(name)
            span_attrs: dict = {}
            try:
                result = func(*args, **kwargs)
                if attrs is not None:
                    span_attrs.update(attrs(args, kwargs, result))
                return result
            except BaseException as exc:
                span_attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder._close(name, frame, parent, ts, start, span_attrs)

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_generator(self, name: str, func, attrs):
        """Time each step of the generator *func* returns as one span.

        The consumer's work between steps belongs to the consumer, so a
        generator gets one span per ``next`` rather than one per call.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            first = True
            try:
                while True:
                    frame, parent, ts, start = recorder._open(name)
                    span_attrs = {"pass_start": first}
                    first = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        span_attrs.update(attrs(args, None))
                        recorder._close(name, frame, parent, ts, start, span_attrs)
                        return
                    except BaseException as exc:
                        span_attrs["error"] = type(exc).__name__
                        recorder._close(name, frame, parent, ts, start, span_attrs)
                        raise
                    span_attrs.update(attrs(args, item))
                    recorder._close(name, frame, parent, ts, start, span_attrs)
                    yield item
            finally:
                inner.close()

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_context(self, name: str, func, attrs):
        """Time the ``with`` block a context-manager factory opens."""
        recorder = self

        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            frame, parent, ts, start = recorder._open(name)
            span_attrs: dict = {}
            try:
                with func(*args, **kwargs) as value:
                    yield value
                span_attrs.update(attrs(args, kwargs))
            except BaseException as exc:
                span_attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder._close(name, frame, parent, ts, start, span_attrs)

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, original, replacement) -> None:
        """Rebind every ``repro`` module-level name bound to *original*."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self, experiments: dict | None = None) -> None:
        """Wrap every layer boundary; *experiments* is the CLI's table."""
        # Import everything first so every binding of a wrapped function
        # already exists when the modules are scanned.
        import repro.analysis.summary as summary
        import repro.experiments.cli  # noqa: F401  (binds the layer imports)
        import repro.lang.compiler as compiler
        import repro.prediction.stats as pstats
        from repro.core import LimitAnalyzer
        from repro.jobs import ArtifactCache, ExecutionEngine, Planner
        from repro.prediction import ProfilePredictor
        from repro.vm import VM, FastVM
        from repro.vm.trace_io import TraceReader, TraceWriter

        def program_of(args, kwargs, result):
            return {"program": getattr(result, "name", None)}

        self._patch_function(
            compiler.compile_source,
            self.wrap("lang.compile", compiler.compile_source, program_of),
        )
        self._patch_function(
            summary.analyze_program,
            self.wrap(
                "analysis.static",
                summary.analyze_program,
                lambda a, k, r: {"program": a[0].name},
            ),
        )

        def vm_attrs(args, kwargs, result):
            return {"program": args[0].program.name, "steps": result.steps}

        self._patch(FastVM, "run", self.wrap("vm.run", FastVM.run, vm_attrs))
        self._patch(VM, "run", self.wrap("vm.legacy_run", VM.run, vm_attrs))

        self._patch(
            TraceWriter,
            "write",
            self.wrap(
                "trace_io.write", TraceWriter.write, lambda a, k, r: {"records": len(a[1])}
            ),
        )
        self._patch(
            TraceWriter, "close", self.wrap("trace_io.write", TraceWriter.close)
        )
        self._patch(
            TraceReader,
            "chunks",
            self.wrap_generator(
                "trace_io.read",
                TraceReader.chunks,
                lambda a, item: {
                    "path": a[0].path,
                    "records": len(item.pcs) if item is not None else 0,
                },
            ),
        )
        self._patch(
            TraceReader,
            "to_trace",
            self.wrap(
                "trace_io.materialize",
                TraceReader.to_trace,
                lambda a, k, r: {"records": len(r)},
            ),
        )

        for attr in ("from_source", "from_trace"):
            func = ProfilePredictor.__dict__[attr].__func__
            self._patch(
                ProfilePredictor,
                attr,
                classmethod(self.wrap("prediction.train", func)),
            )
        self._patch_function(
            pstats.branch_stats,
            self.wrap("prediction.branch_stats", pstats.branch_stats),
        )

        analyze_signature = inspect.signature(LimitAnalyzer.analyze)

        def analyze_attrs(args, kwargs, result):
            call = analyze_signature.bind(*args, **kwargs).arguments
            return {
                "program": result.program_name,
                "records": result.trace_length,
                "models": len(result.models),
                "model_set": sorted(m.label for m in result.models),
                "flow_limit": call.get("flow_limit"),
                "source": getattr(call["trace"], "path", None),
            }

        self._patch(
            LimitAnalyzer,
            "analyze",
            self.wrap("core.analyze", LimitAnalyzer.analyze, analyze_attrs),
        )

        self._patch(Planner, "plan", self.wrap("jobs.plan", Planner.plan))

        def execute_attrs(args, kwargs, result):
            report = args[2] if len(args) > 2 else kwargs["report"]
            return {
                "executed": report.executed,
                "hits": report.hits,
                "total": report.total,
                "retries": report.retries,
                "dead": report.dead,
            }

        self._patch(
            ExecutionEngine,
            "execute",
            self.wrap("jobs.execute", ExecutionEngine.execute, execute_attrs),
        )
        for attr in ("store_asm", "store_trace", "store_profile", "store_result"):
            self._patch(
                ArtifactCache,
                attr,
                self.wrap("jobs.cache_store", getattr(ArtifactCache, attr)),
            )

        def stored_trace(args, kwargs):
            cache, key = args[0], args[1]
            return {"bytes": cache.trace_path(key).stat().st_size}

        self._patch(
            ArtifactCache,
            "store_trace_stream",
            self.wrap_context(
                "jobs.cache_store", ArtifactCache.store_trace_stream, stored_trace
            ),
        )
        for attr in (
            "load_asm", "load_trace", "load_profile", "load_result",
            "open_trace_reader",
        ):
            self._patch(
                ArtifactCache,
                attr,
                self.wrap("jobs.cache_load", getattr(ArtifactCache, attr)),
            )

        if experiments is not None:
            for name, experiment in list(experiments.items()):
                run = self.wrap(
                    "experiments.run",
                    experiment.run,
                    lambda a, k, r, name=name: {"experiment": name},
                )
                experiments[name] = dataclasses.replace(experiment, run=run)
                self._undo.append((experiments, name, experiment))

    def uninstall(self) -> None:
        """Restore every wrapped binding (in reverse order)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def write(self, directory: str | Path) -> Path:
        """Write the spans as ``spans.jsonl`` under *directory*."""
        path = Path(directory) / "spans.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        return path


# -- arithmetic over finished spans ---------------------------------------


def self_times(records: list[dict]) -> dict[str, float]:
    """Each span's duration minus the durations of its direct children."""
    child_total: dict[str, float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            child_total[record["parent"]] += record["dur"]
    return {r["id"]: r["dur"] - child_total[r["id"]] for r in records}


def ancestors(records: list[dict]) -> dict[str, list[dict]]:
    """For each span id, its enclosing spans (innermost first)."""
    by_id = {r["id"]: r for r in records}
    chains: dict[str, list[dict]] = {}
    for record in records:
        chain = []
        parent = by_id.get(record["parent"])
        while parent is not None:
            chain.append(parent)
            parent = by_id.get(parent["parent"])
        chains[record["id"]] = chain
    return chains


def layer_self_seconds(records: list[dict]) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix)."""
    own = self_times(records)
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"].split(".", 1)[0]] += own[record["id"]]
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: list[dict], wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (see ``BENCHMARK.json``).

    Every ``*_s`` figure is self time except ``jobs.plan_s``,
    ``jobs.execute_s`` and the per-experiment ``experiments.<name>_s``,
    which are whole-call durations.  ``trace.unattributed_s`` is the part
    of *wall_s* no span covers.
    """
    own = self_times(records)
    chains = ancestors(records)
    named: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        named[record["name"]].append(record)

    def self_sum(spans) -> float:
        return sum(own[s["id"]] for s in spans)

    def attr_sum(spans, key) -> float:
        return sum(s["attrs"].get(key) or 0 for s in spans)

    m: dict[str, float] = {}

    compiles = named["lang.compile"]
    m["lang.compile_calls"] = len(compiles)
    m["lang.compile_s"] = self_sum(compiles)

    static = named["analysis.static"]
    m["analysis.static_calls"] = len(static)
    m["analysis.static_s"] = self_sum(static)
    m["analysis.static_per_program"] = _ratio(
        len(static), len({s["attrs"]["program"] for s in static})
    )

    fast = named["vm.run"]
    legacy_all = named["vm.legacy_run"]
    # FastVM finishes a run's tail on the legacy interpreter; those steps
    # are already in the FastVM run's count and time.
    tails = [s for s in legacy_all if any(a["name"] == "vm.run" for a in chains[s["id"]])]
    legacy = [s for s in legacy_all if s not in tails]
    m["vm.runs"] = len(fast)
    m["vm.steps"] = attr_sum(fast, "steps")
    m["vm.self_s"] = self_sum(fast) + self_sum(tails)
    m["vm.msteps_per_s"] = _ratio(m["vm.steps"], m["vm.self_s"]) / 1e6
    m["vm.legacy_steps"] = attr_sum(legacy, "steps")
    m["vm.legacy_s"] = self_sum(legacy)

    writes = named["trace_io.write"]
    reads = named["trace_io.read"]
    stores = named["jobs.cache_store"]
    m["trace_io.records_written"] = attr_sum(writes, "records")
    m["trace_io.write_s"] = self_sum(writes)
    m["trace_io.bytes_written"] = attr_sum(stores, "bytes")
    m["trace_io.records_read"] = attr_sum(reads, "records")
    m["trace_io.read_s"] = self_sum(reads)
    m["trace_io.materialize_s"] = self_sum(named["trace_io.materialize"])
    passes = [s for s in reads if s["attrs"].get("pass_start")]
    m["trace_io.reads_per_trace"] = _ratio(
        len(passes), len({s["attrs"]["path"] for s in passes})
    )

    trains = named["prediction.train"]
    outer_trains = [
        s for s in trains
        if not any(a["name"] == "prediction.train" for a in chains[s["id"]])
    ]
    m["prediction.train_calls"] = len(outer_trains)
    m["prediction.train_s"] = self_sum(trains)
    m["prediction.branch_stats_s"] = self_sum(named["prediction.branch_stats"])

    analyses = named["core.analyze"]
    unlimited = [s for s in analyses if s["attrs"]["flow_limit"] is None]
    flows = [s for s in analyses if s["attrs"]["flow_limit"] is not None]
    m["core.analyze_calls"] = len(analyses)
    m["core.records_analyzed"] = attr_sum(unlimited, "records")
    m["core.model_records"] = sum(
        s["attrs"]["records"] * s["attrs"]["models"] for s in unlimited
    )
    m["core.analyze_self_s"] = self_sum(unlimited)
    m["core.minstr_per_s"] = _ratio(m["core.records_analyzed"], m["core.analyze_self_s"]) / 1e6
    farm_sweeps = [
        s for s in unlimited
        if s["attrs"]["source"] is not None
        and any(a["name"] == "jobs.execute" for a in chains[s["id"]])
    ]
    m["core.sweeps_per_trace"] = _ratio(
        len(farm_sweeps), len({s["attrs"]["source"] for s in farm_sweeps})
    )
    m["core.flow_calls"] = len(flows)
    m["core.flow_self_s"] = self_sum(flows)
    m["core.flow_minstr_per_s"] = _ratio(attr_sum(flows, "records"), m["core.flow_self_s"]) / 1e6
    for program in NON_NUMERIC:
        def mean_self(flow_limit):
            spans = [
                s for s in analyses
                if s["attrs"]["program"] == program
                and s["attrs"]["flow_limit"] == flow_limit
                and s["attrs"]["model_set"] == ["CD-MF", "SP-CD-MF"]
            ]
            return _ratio(self_sum(spans), len(spans))

        m[f"core.flow_k1_over_unlimited.{program}"] = _ratio(mean_self(1), mean_self(None))

    plans = named["jobs.plan"]
    executes = named["jobs.execute"]
    # The farm report counts the compile jobs planning runs in-process.
    m["jobs.planned"] = attr_sum(executes, "total")
    m["jobs.executed"] = attr_sum(executes, "executed")
    m["jobs.hit_ratio"] = _ratio(attr_sum(executes, "hits"), m["jobs.planned"])
    m["jobs.retries"] = attr_sum(executes, "retries")
    m["jobs.dead"] = attr_sum(executes, "dead")
    m["jobs.plan_s"] = sum(s["dur"] for s in plans)
    m["jobs.execute_s"] = sum(s["dur"] for s in executes)
    m["jobs.overhead_s"] = self_sum(executes)
    m["jobs.cache_store_s"] = self_sum(stores)
    m["jobs.cache_load_s"] = self_sum(named["jobs.cache_load"])

    runs = named["experiments.run"]
    for name in EXPERIMENTS:
        m[f"experiments.{name}_s"] = sum(
            s["dur"] for s in runs if s["attrs"]["experiment"] == name
        )
    m["experiments.self_s"] = self_sum(runs)

    by_layer = layer_self_seconds(records)
    for layer in LAYERS:
        m[f"layer_self_s.{layer}"] = by_layer.get(layer, 0.0)
    m["trace.unattributed_s"] = wall_s - sum(own.values())
    return m
