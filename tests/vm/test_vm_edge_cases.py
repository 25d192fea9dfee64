"""VM edge cases and fault behaviour, on both engines.

Every program runs on the oracle interpreter and on FastVM, and the two
must agree on every observable (``tests/vm/engines.py``).
"""

from repro.asm import assemble
from tests.vm.engines import ENGINES, faults_alike, run_both


class TestFaults:
    def test_pc_past_end_faults(self):
        # Fall off the end of code without halt.
        faults_alike(assemble("nop"), "outside code")

    def test_jalr_to_garbage_faults(self):
        source = "li $t9, 9999\njalr $t9\nhalt"
        faults_alike(assemble(source), "outside code")

    def test_negative_store_address_faults(self):
        faults_alike(assemble("li $t0, -5\nsw $t0, 0($t0)\nhalt"), "negative")


class TestReset:
    def test_reset_restores_initial_state(self):
        program = assemble(
            ".data\ng: .word 1\n.text\n"
            "lw $t0, g($zero)\naddi $t0, $t0, 1\nsw $t0, g($zero)\nmov $v0, $t0\nhalt"
        )
        for engine in ENGINES:
            vm = engine(program)
            first = vm.run()
            vm.reset()
            second = vm.run()
            assert first.exit_value == second.exit_value == 2

    def test_memory_not_shared_across_vms(self):
        program = assemble(
            ".data\ng: .word 0\n.text\n"
            "lw $t0, g($zero)\naddi $t0, $t0, 7\nsw $t0, g($zero)\nmov $v0, $t0\nhalt"
        )
        assert run_both(program).exit_value == 7
        assert run_both(program).exit_value == 7
        assert program.data[program.data_labels["g"]] == 0  # image untouched


class TestResumption:
    def test_run_can_resume_after_budget(self):
        program = assemble(
            "li $t0, 0\nloop: addi $t0, $t0, 1\nslti $at, $t0, 100\n"
            "bne $at, $zero, loop\nmov $v0, $t0\nhalt"
        )
        for engine in ENGINES:
            vm = engine(program)
            first = vm.run(max_steps=50)
            assert not first.halted
            second = vm.run(max_steps=1_000_000)
            assert second.halted
            assert second.exit_value == 100


class TestNumericEdges:
    def test_int_min_negation_wraps(self):
        result = run_both(assemble("li $t0, -2147483648\nneg $v0, $t0\nhalt"))
        assert result.exit_value == -(1 << 31)  # two's complement wrap

    def test_srl_of_negative(self):
        result = run_both(assemble("li $t0, -2147483648\nsrli $v0, $t0, 31\nhalt"))
        assert result.exit_value == 1

    def test_division_int_min_by_minus_one(self):
        result = run_both(
            assemble("li $t0, -2147483648\nli $t1, -1\ndiv $v0, $t0, $t1\nhalt")
        )
        assert result.exit_value == -(1 << 31)  # wraps, does not trap

    def test_float_to_int_truncates_toward_zero(self):
        result = run_both(assemble("fli $f1, -2.9\ncvtfi $v0, $f1\nhalt"))
        assert result.exit_value == -2

    def test_guarded_move_guard_reads_old_dest(self):
        # movz must be a no-op when the guard is nonzero even if rd was
        # never written before (reads its stale/zero value).
        result = run_both(
            assemble("li $t1, 5\nli $t2, 1\nmovz $v0, $t1, $t2\nhalt")
        )
        assert result.exit_value == 0
