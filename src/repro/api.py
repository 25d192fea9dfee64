"""High-level convenience API tying the subsystems together.

These helpers cover the common end-to-end paths:

* MiniC source → :class:`~repro.isa.Program` (:func:`compile_minic`);
* program → dynamic trace (:func:`trace_program`);
* program/trace → limit-study results (:func:`analyze_program`);
* one-call versions starting from assembly (:func:`analyze_source`) or
  MiniC (:func:`compile_and_analyze`).
"""

from __future__ import annotations

from typing import Sequence

from repro.asm import assemble
from repro.core import ALL_MODELS, AnalysisResult, LimitAnalyzer, MachineModel
from repro.isa import Program
from repro.prediction import BranchPredictor
from repro.vm import FastVM, RunResult


def compile_minic(source: str, name: str = "a.out") -> Program:
    """Compile MiniC *source* to a :class:`~repro.isa.Program`."""
    from repro.lang import compile_source  # deferred: keep leaf imports light

    return compile_source(source, name=name)


def trace_program(program: Program, max_steps: int = 1_000_000) -> RunResult:
    """Execute *program* on a fresh FastVM and return the traced run."""
    return FastVM(program).run(max_steps=max_steps)


def analyze_program(
    program: Program,
    max_steps: int = 1_000_000,
    models: Sequence[MachineModel] = ALL_MODELS,
    predictor: BranchPredictor | None = None,
    perfect_inlining: bool = True,
    perfect_unrolling: bool = True,
    collect_misprediction_stats: bool = False,
) -> AnalysisResult:
    """Trace *program* and compute its parallelism limits.

    Uses the paper's defaults: perfect inlining and unrolling on, profile
    predictor trained on the analyzed trace.
    """
    run = trace_program(program, max_steps=max_steps)
    analyzer = LimitAnalyzer(program)
    return analyzer.analyze(
        run.trace,
        models=models,
        predictor=predictor,
        perfect_inlining=perfect_inlining,
        perfect_unrolling=perfect_unrolling,
        collect_misprediction_stats=collect_misprediction_stats,
    )


def analyze_source(asm_source: str, name: str = "a.out", **kwargs) -> AnalysisResult:
    """Assemble, trace, and analyze assembly text (kwargs as
    :func:`analyze_program`)."""
    return analyze_program(assemble(asm_source, name=name), **kwargs)


def compile_and_analyze(minic_source: str, name: str = "a.out", **kwargs) -> AnalysisResult:
    """Compile MiniC, trace, and analyze (kwargs as :func:`analyze_program`)."""
    return analyze_program(compile_minic(minic_source, name=name), **kwargs)
