"""Fused-engine unit tests: argument validation, the misprediction-stats
tail flush, flow-limit pruning, and fused-vs-legacy identity on synthetic
programs across the analyzer's option space."""

import pytest

from repro.asm import assemble
from repro.core import ALL_MODELS, LimitAnalyzer, MachineModel
from repro.isa import OpKind
from repro.prediction import AlwaysNotTaken, ProfilePredictor
from repro.vm import VM

M = MachineModel


def trace_of(source, max_steps=1_000_000):
    program = assemble(source)
    return program, VM(program).run(max_steps=max_steps).trace


BRANCHY = """
    li $t0, 6
loop:
    lw  $t1, 0x2000($t0)
    sw  $t1, 0x2100($t0)
    addi $t0, $t0, -1
    bgtz $t0, loop
    li $t2, 9
    halt
"""

CALLS = """
    li $a0, 3
    jal double
    mov $s0, $v0
    jal double
    mov $s1, $v0
    halt
double:
    add $v0, $a0, $a0
    jr $ra
"""


class TestValidation:
    def test_empty_models_raises(self):
        program, trace = trace_of("halt")
        analyzer = LimitAnalyzer(program)
        with pytest.raises(ValueError, match="model"):
            analyzer.analyze(trace, models=[])

    def test_non_model_raises(self):
        program, trace = trace_of("halt")
        analyzer = LimitAnalyzer(program)
        with pytest.raises(ValueError, match="machine model"):
            analyzer.analyze(trace, models=["ORACLE"])

    def test_unknown_engine_raises(self):
        program, trace = trace_of("halt")
        analyzer = LimitAnalyzer(program)
        with pytest.raises(ValueError, match="engine"):
            analyzer.analyze(trace, engine="turbo")

    def test_duplicate_models_deduplicated(self):
        program, trace = trace_of(BRANCHY)
        analyzer = LimitAnalyzer(program)
        once = analyzer.analyze(trace, models=[M.BASE, M.ORACLE])
        doubled = analyzer.analyze(
            trace, models=[M.BASE, M.ORACLE, M.BASE, M.ORACLE, M.BASE]
        )
        assert list(doubled.models) == [M.BASE, M.ORACLE]
        assert doubled == once

    def test_engine_provenance_recorded(self):
        program, trace = trace_of(BRANCHY)
        analyzer = LimitAnalyzer(program)
        fused = analyzer.analyze(trace, models=[M.BASE])
        legacy = analyzer.analyze(trace, models=[M.BASE], engine="legacy")
        assert fused.engine == "fused"
        assert legacy.engine == "legacy"
        # Provenance only: it must not break result equality.
        assert fused == legacy


class TestMispredictionTailFlush:
    SOURCE = """
        li $t0, 1       # counted, completes 1
        bgtz $t0, over  # taken; AlwaysNotTaken mispredicts it
    over:
        li $t1, 2
        li $t2, 3
        halt
    """

    @pytest.mark.parametrize("engine", ["fused", "legacy"])
    def test_trailing_segment_recorded(self, engine):
        # Hand count: the trace is li, bgtz(mispredicted), li, li, halt.
        # Segment 1 ends at the mispredicted branch: [li, bgtz], length 2.
        # The trailing segment [li, li, halt] used to be dropped entirely.
        program, trace = trace_of(self.SOURCE)
        analyzer = LimitAnalyzer(program)
        result = analyzer.analyze(
            trace,
            models=[M.SP],
            predictor=AlwaysNotTaken(),
            collect_misprediction_stats=True,
            engine=engine,
        )
        stats = result.misprediction_stats
        assert stats is not None
        assert stats.distances == [2, 3]

    @pytest.mark.parametrize("engine", ["fused", "legacy"])
    def test_no_mispredictions_single_tail_segment(self, engine):
        # With a perfect profile predictor nothing mispredicts: the whole
        # counted trace is one trailing segment (previously: no segments).
        program, trace = trace_of(self.SOURCE)
        analyzer = LimitAnalyzer(program)
        result = analyzer.analyze(
            trace,
            models=[M.SP],
            predictor=ProfilePredictor.from_trace(trace),
            collect_misprediction_stats=True,
            engine=engine,
        )
        stats = result.misprediction_stats
        assert len(stats.segments) == 1
        assert stats.distances == [result.counted_instructions]


class TestFlowLimitPruning:
    LOOP = """
        li $t0, 2000
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
    """

    def test_cycle_branches_pruned_on_long_trace(self):
        # 2000 dynamic branches flow through the analyzer.  The in-order
        # machines retire each flow-consuming branch strictly above their
        # ordering clock, so the pruned ledger never holds more than the
        # branch just placed.  The loop exit mispredicts, so SP and SP-CD
        # consume a flow too; a peak of 0 would mean none was consumed.
        program, trace = trace_of(self.LOOP)
        analyzer = LimitAnalyzer(program)
        models = [M.BASE, M.CD, M.SP, M.SP_CD]
        for engine in ("fused", "legacy"):
            analyzer.analyze(
                trace,
                models=models,
                flow_limit=2,
                perfect_unrolling=False,
                perfect_inlining=False,
                engine=engine,
            )
            peaks = analyzer.last_flow_peaks
            assert peaks == {model: 1 for model in models}, engine

    def test_fused_and_legacy_report_same_peaks(self):
        program, trace = trace_of(self.LOOP)
        analyzer = LimitAnalyzer(program)
        kwargs = dict(
            models=list(ALL_MODELS),
            flow_limit=3,
            perfect_unrolling=False,
            perfect_inlining=False,
        )
        analyzer.analyze(trace, engine="fused", **kwargs)
        fused_peaks = dict(analyzer.last_flow_peaks)
        analyzer.analyze(trace, engine="legacy", **kwargs)
        assert dict(analyzer.last_flow_peaks) == fused_peaks

    def test_peaks_cleared_without_flow_limit(self):
        program, trace = trace_of(self.LOOP)
        analyzer = LimitAnalyzer(program)
        analyzer.analyze(trace, models=[M.BASE], flow_limit=4)
        assert analyzer.last_flow_peaks
        analyzer.analyze(trace, models=[M.BASE])
        assert analyzer.last_flow_peaks == {}


OPTION_SHAPES = [
    dict(),
    dict(collect_misprediction_stats=True),
    dict(window=16),
    dict(flow_limit=2),
    dict(perfect_unrolling=False),
    dict(perfect_inlining=False, perfect_unrolling=False),
    dict(latencies={OpKind.LOAD: 2, OpKind.ALU: 1}),
    dict(window=8, flow_limit=3, collect_misprediction_stats=True),
    dict(flow_limit=1),
    dict(flow_limit=3, perfect_inlining=False, perfect_unrolling=False),
]


class TestFusedMatchesLegacy:
    @pytest.mark.parametrize("source", [BRANCHY, CALLS], ids=["branchy", "calls"])
    @pytest.mark.parametrize("shape", range(len(OPTION_SHAPES)))
    def test_synthetic_programs_identical(self, source, shape):
        kwargs = OPTION_SHAPES[shape]
        program, trace = trace_of(source)
        predictor = ProfilePredictor.from_trace(trace)
        analyzer = LimitAnalyzer(program)
        fused = analyzer.analyze(
            trace, predictor=predictor, engine="fused", **kwargs
        )
        fused_peaks = dict(analyzer.last_flow_peaks)
        legacy = analyzer.analyze(
            trace, predictor=predictor, engine="legacy", **kwargs
        )
        assert fused == legacy
        assert dict(analyzer.last_flow_peaks) == fused_peaks

    def test_model_subsets_identical(self):
        program, trace = trace_of(BRANCHY)
        predictor = ProfilePredictor.from_trace(trace)
        analyzer = LimitAnalyzer(program)
        full = analyzer.analyze(trace, predictor=predictor)
        for model in ALL_MODELS:
            solo = analyzer.analyze(trace, predictor=predictor, models=[model])
            assert solo[model] == full[model]
            legacy = analyzer.analyze(
                trace, predictor=predictor, models=[model], engine="legacy"
            )
            assert solo == legacy
