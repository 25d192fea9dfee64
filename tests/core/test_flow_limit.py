"""Exact-cycle tests for the flow-limit (k flows of control) extension."""

import pytest

from repro.asm import assemble
from repro.core import ALL_MODELS, LimitAnalyzer, MachineModel
from repro.vm import VM

M = MachineModel

# Four independent if-guarded assignments: with unlimited flows all four
# branches execute in cycle 2; with k flows they retire ceil(4/k) cycles.
SOURCE = """
    li $t0, 1       # 0 -> cycle 1
    li $t1, 1       # 1 -> cycle 1
    li $t2, 1       # 2 -> cycle 1
    li $t3, 1       # 3 -> cycle 1
    bltz $t0, a     # 4
    li $t4, 1       # dep on 4
a:  bltz $t1, b     # 6
    li $t5, 1       # dep on 6
b:  bltz $t2, c     # 8
    li $t6, 1
c:  bltz $t3, d     # 10
    li $t7, 1
d:  halt
"""


@pytest.fixture(scope="module")
def setup():
    program = assemble(SOURCE)
    run = VM(program).run()
    return program, run.trace, LimitAnalyzer(program)


class TestExactCycles:
    def test_unlimited_flows(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF])
        # Branches at cycle 2, dependents at 3.
        assert result[M.CD_MF].parallel_time == 3

    def test_two_flows(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=2)
        # 4 branches / 2 per cycle -> cycles 2,3; last dependents at 4.
        assert result[M.CD_MF].parallel_time == 4

    def test_one_flow(self, setup):
        _, trace, analyzer = setup
        result = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=1)
        # Branches at 2,3,4,5; last dependent at 6.
        assert result[M.CD_MF].parallel_time == 6

    def test_four_flows_matches_unlimited(self, setup):
        _, trace, analyzer = setup
        limited = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=4)
        unlimited = analyzer.analyze(trace, models=[M.CD_MF])
        assert limited[M.CD_MF].parallel_time == unlimited[M.CD_MF].parallel_time

    def test_oracle_unaffected(self, setup):
        # With perfect prediction, branches never switch the flow of
        # control, so the flow limit does not apply to ORACLE.
        _, trace, analyzer = setup
        limited = analyzer.analyze(trace, models=[M.ORACLE], flow_limit=1)
        unlimited = analyzer.analyze(trace, models=[M.ORACLE])
        assert (
            limited[M.ORACLE].parallel_time
            == unlimited[M.ORACLE].parallel_time
        )

    def test_validation(self, setup):
        _, trace, analyzer = setup
        with pytest.raises(ValueError, match="flow_limit"):
            analyzer.analyze(trace, models=[M.CD_MF], flow_limit=0)


def guarded_branches(reg: str, count: int, tag: str) -> list[str]:
    """*count* independent branches on *reg*, each guarding one ``li``."""
    lines = []
    for j in range(count):
        lines += [f"    bltz {reg}, {tag}{j}", "    li $t4, 1", f"{tag}{j}:"]
    return lines


#: Branches ready in cycle 2 that open the trace.
RUN = 64
#: Branches ready in cycle 2 that come after the straggler.
LATE = 8
#: ``$t1`` is ready in cycle 10, so the straggler branch on it is ready in
#: cycle 11: inside the run of full cycles, whose forward pointers no
#: probe from cycle 2 has compressed yet.
MULTI_HOP_SOURCE = "\n".join(
    ["    li $t0, 1", "    li $t1, 1"]
    + ["    addi $t1, $t1, 1"] * 9
    + guarded_branches("$t0", RUN, "r")
    + guarded_branches("$t1", 1, "s")
    + guarded_branches("$t0", LATE, "l")
    + ["    halt"]
)


class TestMultiHopForwarding:
    @pytest.fixture(scope="class")
    def multi_hop(self):
        program = assemble(MULTI_HOP_SOURCE)
        return LimitAnalyzer(program), VM(program).run().trace

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_branches_land_past_full_run(self, multi_hop, k):
        # The RUN + 1 + LATE branches all probe from cycles inside the
        # dense run, so they fill cycles 2, 3, ... k to a cycle; the last
        # one retires in 2 + (branches - 1) // k and its guarded li a
        # cycle later.
        analyzer, trace = multi_hop
        result = analyzer.analyze(trace, models=[M.CD_MF], flow_limit=k)
        branches = RUN + 1 + LATE
        assert result[M.CD_MF].parallel_time == 3 + (branches - 1) // k
        # One ledger entry per cycle that retired a branch.
        assert analyzer.last_flow_peaks == {M.CD_MF: 1 + (branches - 1) // k}

    def test_unlimited_flows(self, multi_hop):
        # The straggler's guarded li, in cycle 12, finishes last.
        analyzer, trace = multi_hop
        result = analyzer.analyze(trace, models=[M.CD_MF])
        assert result[M.CD_MF].parallel_time == 12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fused_matches_legacy(self, multi_hop, k):
        analyzer, trace = multi_hop
        fused = analyzer.analyze(trace, models=ALL_MODELS, flow_limit=k)
        fused_peaks = dict(analyzer.last_flow_peaks)
        legacy = analyzer.analyze(
            trace, models=ALL_MODELS, flow_limit=k, engine="legacy"
        )
        assert fused == legacy
        assert analyzer.last_flow_peaks == fused_peaks


class TestSpeculativeFlowLimit:
    def test_only_mispredictions_count(self):
        # Correctly-predicted branches are not flow switches on SP machines:
        # with flow_limit=1 and zero mispredictions, SP-CD-MF is unchanged.
        source = """
            li $t0, 1
        loop:
            addi $t1, $t1, 1
            bgtz $t0, next     # always taken: predicted perfectly
        next:
            addi $t0, $t0, 0
            bgtz $t1, out      # taken once at the end... also consistent
        out:
            halt
        """
        program = assemble(source)
        run = VM(program).run()
        analyzer = LimitAnalyzer(program)
        limited = analyzer.analyze(run.trace, models=[M.SP_CD_MF], flow_limit=1)
        unlimited = analyzer.analyze(run.trace, models=[M.SP_CD_MF])
        assert (
            limited[M.SP_CD_MF].parallel_time
            == unlimited[M.SP_CD_MF].parallel_time
        )
