"""Unit tests for the tracing VM, on both engines.

Every program runs on the oracle interpreter and on FastVM, and the two
must agree on every observable (``tests/vm/engines.py``).
"""

from repro.asm import assemble
from repro.isa import STACK_TOP, registers as R
from repro.vm import NO_ADDR, NOT_BRANCH
from tests.vm.engines import faults_alike, run_both


def run(source, max_steps=100_000):
    return run_both(assemble(source), max_steps=max_steps)


class TestArithmetic:
    def test_add_sub_mul(self):
        result = run("li $t0, 6\nli $t1, 7\nmul $v0, $t0, $t1\nhalt")
        assert result.exit_value == 42

    def test_wrap32_overflow(self):
        result = run("li $t0, 0x7fffffff\naddi $v0, $t0, 1\nhalt")
        assert result.exit_value == -(1 << 31)

    def test_signed_division_truncates(self):
        result = run("li $t0, -7\nli $t1, 2\ndiv $v0, $t0, $t1\nhalt")
        assert result.exit_value == -3

    def test_division_by_zero_is_zero(self):
        result = run("li $t0, 5\nli $t1, 0\ndiv $v0, $t0, $t1\nhalt")
        assert result.exit_value == 0

    def test_rem_sign_follows_dividend(self):
        result = run("li $t0, -7\nli $t1, 2\nrem $v0, $t0, $t1\nhalt")
        assert result.exit_value == -1

    def test_shifts(self):
        result = run("li $t0, 1\nslli $v0, $t0, 4\nhalt")
        assert result.exit_value == 16
        result = run("li $t0, -16\nsrai $v0, $t0, 2\nhalt")
        assert result.exit_value == -4
        result = run("li $t0, -1\nsrli $v0, $t0, 28\nhalt")
        assert result.exit_value == 15

    def test_comparisons(self):
        result = run("li $t0, 3\nli $t1, 5\nslt $v0, $t0, $t1\nhalt")
        assert result.exit_value == 1
        result = run("li $t0, 3\nsgei $v0, $t0, 4\nhalt")
        assert result.exit_value == 0

    def test_logic_ops(self):
        result = run("li $t0, 0b1100\nli $t1, 0b1010\nxor $v0, $t0, $t1\nhalt")
        assert result.exit_value == 0b0110

    def test_zero_register_is_immutable(self):
        result = run("li $zero, 99\nmov $v0, $zero\nhalt")
        assert result.exit_value == 0


class TestMemory:
    def test_store_load_roundtrip(self):
        result = run(
            ".data\nv: .space 4\n.text\n"
            "la $t0, v\nli $t1, 77\nsw $t1, 2($t0)\nlw $v0, 2($t0)\nhalt"
        )
        assert result.exit_value == 77

    def test_uninitialized_reads_zero(self):
        result = run("li $t0, 0x5000\nlw $v0, 0($t0)\nhalt")
        assert result.exit_value == 0

    def test_initial_data_visible(self):
        result = run(".data\nv: .word 123\n.text\nla $t0, v\nlw $v0, 0($t0)\nhalt")
        assert result.exit_value == 123

    def test_negative_address_faults(self):
        faults_alike(assemble("li $t0, -4\nlw $v0, 0($t0)\nhalt"), "negative")

    def test_trace_records_effective_address(self):
        result = run(".data\nv: .word 5\n.text\nla $t0, v\nlw $v0, 0($t0)\nhalt")
        program = result.trace.program
        load_addr = [
            addr for pc, addr in zip(result.trace.pcs, result.trace.addrs)
            if program[pc].is_load
        ]
        assert load_addr == [program.data_labels["v"]]


class TestControlFlow:
    def test_loop_counts(self):
        result = run(
            """
            li $t0, 5
            li $v0, 0
            loop:
            add $v0, $v0, $t0
            addi $t0, $t0, -1
            bgtz $t0, loop
            halt
            """
        )
        assert result.exit_value == 15

    def test_branch_taken_recorded(self):
        result = run("li $t0, 1\nbgtz $t0, over\nnop\nover: halt")
        takens = [t for t in result.trace.takens if t != NOT_BRANCH]
        assert takens == [1]

    def test_branch_not_taken_recorded(self):
        result = run("li $t0, 0\nbgtz $t0, over\nnop\nover: halt")
        takens = [t for t in result.trace.takens if t != NOT_BRANCH]
        assert takens == [0]

    def test_call_and_return(self):
        result = run(
            """
            .func __start
            __start:
                li $a0, 20
                jal double
                mov $v0, $v0
                halt
            .endfunc
            .func double
            double:
                add $v0, $a0, $a0
                ret
            .endfunc
            """
        )
        assert result.exit_value == 40

    def test_return_to_sentinel_halts(self):
        result = run("main: li $v0, 9\nret")
        assert result.halted
        assert result.exit_value == 9

    def test_jalr_indirect_call(self):
        result = run(
            """
            __start:
                la $t9, target
                jalr $t9
                halt
            target:
                li $v0, 31
                ret
            """
        )
        assert result.exit_value == 31

    def test_step_budget_truncates(self):
        result = run("spin: j spin", max_steps=10)
        assert not result.halted
        assert result.steps == 10
        assert len(result.trace) == 10

    def test_halt_is_traced(self):
        result = run("halt")
        assert list(result.trace.pcs) == [0]


class TestFloatingPoint:
    def test_fp_arithmetic(self):
        result = run(
            "fli $f1, 1.5\nfli $f2, 2.0\nfmul $f3, $f1, $f2\n"
            "cvtfi $v0, $f3\nhalt"
        )
        assert result.exit_value == 3

    def test_fp_memory(self):
        result = run(
            ".data\nx: .float 4.0\n.text\n"
            "la $t0, x\nflw $f1, 0($t0)\nfsqrt $f2, $f1\ncvtfi $v0, $f2\nhalt"
        )
        assert result.exit_value == 2

    def test_fp_compare(self):
        result = run("fli $f1, 1.0\nfli $f2, 2.0\nflt $v0, $f1, $f2\nhalt")
        assert result.exit_value == 1

    def test_cvtif(self):
        result = run("li $t0, 3\ncvtif $f1, $t0\nfadd $f1, $f1, $f1\ncvtfi $v0, $f1\nhalt")
        assert result.exit_value == 6

    def test_fdiv_by_zero_is_zero(self):
        result = run("fli $f1, 1.0\nfli $f2, 0.0\nfdiv $f3, $f1, $f2\ncvtfi $v0, $f3\nhalt")
        assert result.exit_value == 0

    def test_fneg_fabs(self):
        result = run("fli $f1, -2.5\nfabs $f2, $f1\nfneg $f3, $f2\ncvtfi $v0, $f3\nhalt")
        assert result.exit_value == -2


class TestProfileAndIO:
    def test_branch_profile_counts(self):
        result = run(
            """
            li $t0, 4
            loop:
            addi $t0, $t0, -1
            bgtz $t0, loop
            halt
            """
        )
        (pc, counts), = result.branch_profile.items()
        assert counts == [1, 3]  # 3 taken, 1 fall-through

    def test_print_output(self):
        result = run("li $t0, 5\nprint $t0\nhalt")
        assert result.output == [5]

    def test_putc_output_text(self):
        result = run("li $t0, 'h'\nputc $t0\nli $t0, 'i'\nputc $t0\nhalt")
        assert result.output_text == "hi"

    def test_sp_initialized(self):
        assert run("mov $v0, $sp\nhalt").exit_value == STACK_TOP


class TestTraceShape:
    def test_trace_parallel_arrays_consistent(self):
        result = run("li $t0, 3\nloop: addi $t0, $t0, -1\nbgtz $t0, loop\nhalt")
        trace = result.trace
        assert len(trace.pcs) == len(trace.addrs) == len(trace.takens)
        for record in trace.records():
            assert 0 <= record.pc < len(trace.program)

    def test_non_mem_instructions_have_no_addr(self):
        result = run("li $t0, 3\nhalt")
        assert set(result.trace.addrs) == {NO_ADDR}

    def test_untraced_run_still_profiles(self):
        program = assemble("li $t0, 2\nloop: addi $t0, $t0, -1\nbgtz $t0, loop\nhalt")
        result = run_both(program, trace=False)
        assert len(result.trace) == 0
        assert result.branch_profile
