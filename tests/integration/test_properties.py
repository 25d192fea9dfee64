"""Property-based tests (hypothesis) on core invariants.

These cross-check the substrates against independent models: the VM
against Python 32-bit C semantics, the compiler's constant folder against
the VM, the dominance algorithm against a brute-force definition, and the
limit analyzer's machine-model partial order against randomly generated
programs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.asm import assemble, disassemble
from repro.core import ALL_MODELS, LimitAnalyzer, MachineModel, harmonic_mean
from repro.isa import Opcode
from repro.lang import compile_source
from repro.vm import VM

M = MachineModel

int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small_int = st.integers(min_value=-100, max_value=100)


def _wrap32(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def run_asm(source):
    return VM(assemble(source)).run(max_steps=500_000)


# ---------------------------------------------------------------------------
# VM arithmetic vs. a C-semantics reference model


class TestVMArithmeticModel:
    @given(a=int32, b=int32)
    @settings(max_examples=60, deadline=None)
    def test_add_wraps(self, a, b):
        result = run_asm(f"li $t0, {a}\nli $t1, {b}\nadd $v0, $t0, $t1\nhalt")
        assert result.exit_value == _wrap32(a + b)

    @given(a=int32, b=int32)
    @settings(max_examples=60, deadline=None)
    def test_mul_wraps(self, a, b):
        result = run_asm(f"li $t0, {a}\nli $t1, {b}\nmul $v0, $t0, $t1\nhalt")
        assert result.exit_value == _wrap32(a * b)

    @given(a=int32, b=int32)
    @settings(max_examples=60, deadline=None)
    def test_div_truncates_toward_zero(self, a, b):
        result = run_asm(f"li $t0, {a}\nli $t1, {b}\ndiv $v0, $t0, $t1\nhalt")
        if b == 0:
            expected = 0
        else:
            quotient = abs(a) // abs(b)
            expected = _wrap32(-quotient if (a < 0) != (b < 0) else quotient)
        assert result.exit_value == expected

    @given(a=int32, b=int32)
    @settings(max_examples=60, deadline=None)
    def test_rem_sign_of_dividend(self, a, b):
        result = run_asm(f"li $t0, {a}\nli $t1, {b}\nrem $v0, $t0, $t1\nhalt")
        if b == 0:
            expected = a
        else:
            remainder = abs(a) % abs(b)
            expected = _wrap32(-remainder if a < 0 else remainder)
        assert result.exit_value == expected

    @given(a=int32, shift=st.integers(min_value=0, max_value=31))
    @settings(max_examples=40, deadline=None)
    def test_shifts(self, a, shift):
        result = run_asm(f"li $t0, {a}\nslli $v0, $t0, {shift}\nhalt")
        assert result.exit_value == _wrap32(a << shift)
        result = run_asm(f"li $t0, {a}\nsrai $v0, $t0, {shift}\nhalt")
        assert result.exit_value == _wrap32(a >> shift)


# ---------------------------------------------------------------------------
# MiniC expression semantics vs. the VM (and thus the constant folder,
# which must agree with runtime evaluation)


@st.composite
def c_int_expressions(draw, depth=0):
    """Random MiniC int expressions with C semantics, as (text, value)."""
    if depth >= 4 or draw(st.booleans()):
        value = draw(st.integers(min_value=-50, max_value=50))
        return (f"({value})", value)
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]))
    left_text, left_value = draw(c_int_expressions(depth=depth + 1))
    right_text, right_value = draw(c_int_expressions(depth=depth + 1))
    text = f"({left_text} {op} {right_text})"
    if op == "+":
        value = _wrap32(left_value + right_value)
    elif op == "-":
        value = _wrap32(left_value - right_value)
    elif op == "*":
        value = _wrap32(left_value * right_value)
    elif op == "/":
        if right_value == 0:
            value = 0
        else:
            quotient = abs(left_value) // abs(right_value)
            value = _wrap32(-quotient if (left_value < 0) != (right_value < 0) else quotient)
    elif op == "%":
        if right_value == 0:
            value = left_value
        else:
            remainder = abs(left_value) % abs(right_value)
            value = _wrap32(-remainder if left_value < 0 else remainder)
    elif op == "&":
        value = left_value & right_value
    elif op == "|":
        value = left_value | right_value
    else:
        value = left_value ^ right_value
    return (text, value)


class TestMiniCExpressionSemantics:
    @given(expr=c_int_expressions())
    @settings(max_examples=60, deadline=None)
    def test_expression_evaluates_like_c(self, expr):
        text, expected = expr
        # `volatile`-style opaque zero prevents whole-expression folding in
        # half the runs; the other half exercises the constant folder.
        program = compile_source(f"int main() {{ return {text}; }}")
        result = VM(program).run(max_steps=100_000)
        assert result.halted
        assert result.exit_value == expected

    @given(expr=c_int_expressions())
    @settings(max_examples=30, deadline=None)
    def test_folder_agrees_with_runtime(self, expr):
        text, _ = expr
        # Route operands through a global so nothing folds, then compare
        # with the foldable version: both must produce identical results.
        folded = VM(compile_source(f"int main() {{ return {text}; }}")).run()
        unfolded_src = f"""
        int zero;
        int main() {{ return {text} + zero; }}
        """
        unfolded = VM(compile_source(unfolded_src)).run(max_steps=100_000)
        assert folded.exit_value == unfolded.exit_value


# ---------------------------------------------------------------------------
# dominators vs. brute force


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    succs = [[] for _ in range(n)]
    for node in range(n - 1):
        n_edges = draw(st.integers(min_value=1, max_value=2))
        for _ in range(n_edges):
            succ = draw(st.integers(min_value=node + 1, max_value=n - 1))
            if succ not in succs[node]:
                succs[node].append(succ)
    return succs


def _brute_force_dominators(n, succs, entry):
    """Node d dominates node v iff removing d makes v unreachable."""
    def reachable(skip):
        seen = set()
        stack = [entry] if entry != skip else []
        while stack:
            node = stack.pop()
            if node in seen or node == skip:
                continue
            seen.add(node)
            stack.extend(succs[node])
        return seen

    full = reachable(skip=None)
    dominators = {v: set() for v in full}
    for d in full:
        missing = full - reachable(skip=d) - {d}
        for v in missing:
            dominators[v].add(d)
        dominators[d].add(d)
    return dominators


class TestDominanceProperties:
    @given(succs=random_dags())
    @settings(max_examples=60, deadline=None)
    def test_idom_is_a_dominator(self, succs):
        from repro.analysis import UNDEFINED, dominates, immediate_dominators

        n = len(succs)
        idom = immediate_dominators(n, succs, 0)
        brute = _brute_force_dominators(n, succs, 0)
        for node in range(n):
            if idom[node] == UNDEFINED:
                assert node not in brute or node == 0
                continue
            if node == 0:
                continue
            assert idom[node] in brute[node]
            # And `dominates` must agree with brute force exactly.
            for candidate in range(n):
                if candidate in brute.get(node, set()):
                    assert dominates(idom, candidate, node, 0)

    @given(succs=random_dags())
    @settings(max_examples=40, deadline=None)
    def test_entry_dominates_every_reachable_node(self, succs):
        from repro.analysis import UNDEFINED, dominates, immediate_dominators

        n = len(succs)
        idom = immediate_dominators(n, succs, 0)
        for node in range(n):
            if idom[node] != UNDEFINED:
                assert dominates(idom, 0, node, 0)


# ---------------------------------------------------------------------------
# limit analyzer invariants on random programs


@st.composite
def random_programs(draw):
    """Random terminating programs: ALU ops + forward branches."""
    n = draw(st.integers(min_value=3, max_value=24))
    lines = []
    for i in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        reg_a = draw(st.integers(min_value=8, max_value=15))
        reg_b = draw(st.integers(min_value=8, max_value=15))
        if kind == 0:
            lines.append(f"li ${reg_a}, {draw(small_int)}")
        elif kind == 1:
            lines.append(f"add ${reg_a}, ${reg_b}, ${reg_a}")
        elif kind == 2:
            lines.append(f"sw ${reg_a}, {0x2000 + draw(st.integers(0, 7))}($zero)")
        elif kind == 3:
            lines.append(f"lw ${reg_a}, {0x2000 + draw(st.integers(0, 7))}($zero)")
        elif kind == 4:
            lines.append(f"slti ${reg_a}, ${reg_b}, {draw(small_int)}")
        else:
            lines.append(f"BRANCH ${reg_a}")  # patched below
    # Patch branches to valid forward targets (guarantees termination).
    source_lines = []
    for i, line in enumerate(lines):
        if line.startswith("BRANCH"):
            reg = line.split()[1]
            source_lines.append(f"bgtz {reg}, L{i}")
        else:
            source_lines.append(line)
        source_lines.append(f"L{i}:")
    source_lines.append("halt")
    return "\n".join(source_lines)


class TestAnalyzerInvariants:
    @given(source=random_programs())
    @settings(max_examples=50, deadline=None)
    def test_machine_model_partial_order(self, source):
        program = assemble(source)
        run = VM(program).run(max_steps=10_000)
        result = LimitAnalyzer(program).analyze(run.trace)
        p = {m: result[m].parallelism for m in ALL_MODELS}
        eps = 1e-9
        assert p[M.BASE] <= p[M.CD] + eps
        assert p[M.CD] <= p[M.CD_MF] + eps
        assert p[M.BASE] <= p[M.SP] + eps
        assert p[M.SP] <= p[M.SP_CD] + eps
        assert p[M.SP_CD] <= p[M.SP_CD_MF] + eps
        assert p[M.SP_CD_MF] <= p[M.ORACLE] + eps
        assert p[M.CD_MF] <= p[M.ORACLE] + eps

    @given(source=random_programs())
    @settings(max_examples=30, deadline=None)
    def test_times_bounded_and_consistent(self, source):
        program = assemble(source)
        run = VM(program).run(max_steps=10_000)
        result = LimitAnalyzer(program).analyze(run.trace)
        for model in ALL_MODELS:
            model_result = result[model]
            assert 0 < model_result.parallel_time <= model_result.sequential_time
        sequential_times = {result[m].sequential_time for m in ALL_MODELS}
        assert len(sequential_times) == 1

    @given(
        source=random_programs(),
        k1=st.integers(min_value=1, max_value=4),
        k2=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_flow_limit_monotone(self, source, k1, k2):
        low, high = sorted((k1, k2))
        program = assemble(source)
        run = VM(program).run(max_steps=10_000)
        analyzer = LimitAnalyzer(program)
        few = analyzer.analyze(run.trace, models=[M.CD_MF], flow_limit=low)
        few_peaks = dict(analyzer.last_flow_peaks)
        legacy = analyzer.analyze(
            run.trace, models=[M.CD_MF], flow_limit=low, engine="legacy"
        )
        assert few == legacy
        assert analyzer.last_flow_peaks == few_peaks
        many = analyzer.analyze(run.trace, models=[M.CD_MF], flow_limit=high)
        unlimited = analyzer.analyze(run.trace, models=[M.CD_MF])
        assert (
            few[M.CD_MF].parallelism
            <= many[M.CD_MF].parallelism + 1e-9
            <= unlimited[M.CD_MF].parallelism + 2e-9
        )

    @given(source=random_programs())
    @settings(max_examples=20, deadline=None)
    def test_analysis_is_deterministic(self, source):
        program = assemble(source)
        run = VM(program).run(max_steps=10_000)
        analyzer = LimitAnalyzer(program)
        first = analyzer.analyze(run.trace)
        second = analyzer.analyze(run.trace)
        for model in ALL_MODELS:
            assert first[model].parallel_time == second[model].parallel_time


# ---------------------------------------------------------------------------
# round trips and aggregates


class TestRoundTripProperties:
    @given(source=random_programs())
    @settings(max_examples=30, deadline=None)
    def test_disassemble_reassemble_identical_behaviour(self, source):
        program = assemble(source)
        again = assemble(disassemble(program))
        first = VM(program).run(max_steps=10_000)
        second = VM(again).run(max_steps=10_000)
        assert first.trace.pcs == second.trace.pcs
        assert first.exit_value == second.exit_value


class TestCFGInvariants:
    @given(source=random_programs())
    @settings(max_examples=40, deadline=None)
    def test_blocks_partition_the_code(self, source):
        from repro.analysis import build_cfgs

        program = assemble(source)
        covered: set[int] = set()
        for cfg in build_cfgs(program):
            for block in cfg.blocks:
                for pc in range(block.start, block.end):
                    assert pc not in covered, "blocks overlap"
                    covered.add(pc)
        assert covered == set(range(len(program)))

    @given(source=random_programs())
    @settings(max_examples=40, deadline=None)
    def test_successors_are_valid_blocks(self, source):
        from repro.analysis import EXIT_BLOCK, build_cfgs

        program = assemble(source)
        for cfg in build_cfgs(program):
            ids = {block.id for block in cfg.blocks}
            for block in cfg.blocks:
                for succ in block.succs:
                    assert succ == EXIT_BLOCK or succ in ids
                # preds are the inverse of succs
                for pred in block.preds:
                    assert block.id in cfg.blocks[pred].succs

    @given(source=random_programs())
    @settings(max_examples=40, deadline=None)
    def test_only_terminators_transfer_control(self, source):
        from repro.analysis import build_cfgs

        program = assemble(source)
        for cfg in build_cfgs(program):
            for block in cfg.blocks:
                for pc in range(block.start, block.end - 1):
                    instr = program[pc]
                    # Calls are the only control opcodes allowed mid-block.
                    assert not instr.is_control or instr.is_call

    @given(source=random_programs())
    @settings(max_examples=30, deadline=None)
    def test_every_traced_pc_starts_blocks_consistently(self, source):
        from repro.analysis import analyze_program as analyze

        program = assemble(source)
        analysis = analyze(program)
        run = VM(program).run(max_steps=10_000)
        previous_pc = None
        for pc in run.trace.pcs:
            if previous_pc is not None and pc != previous_pc + 1:
                # Any non-sequential transfer must land on a block leader.
                assert analysis.is_block_leader(pc)
            previous_pc = pc


class TestHarmonicMeanProperties:
    @given(values=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_between_min_and_max(self, values):
        hm = harmonic_mean(values)
        assert min(values) - 1e-9 <= hm <= max(values) + 1e-9

    @given(values=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_at_most_arithmetic_mean(self, values):
        hm = harmonic_mean(values)
        assert hm <= sum(values) / len(values) + 1e-6
