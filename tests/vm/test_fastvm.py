"""Unit tests for the specialized (generated-dispatch) VM.

The suite-wide equivalence oracle lives in ``test_fastvm_differential``;
these tests hit the edges a whole-benchmark run may not: budgets that
expire mid-block, computed jumps into the middle of a block, sentinel
returns, machine faults, the streaming sink, and the PUTC surrogate
regression (on both VMs — the fix applies to each).  FastVM finishes
budget tails, sentinel returns and faults with its own step loop, so the
``both()`` cases compare that loop against the oracle interpreter.
"""

import pytest

from repro.asm import assemble
from repro.vm import (
    VM,
    FastVM,
    TraceWriter,
    VMError,
    fastvm_source,
    load_trace,
    run_program,
    save_trace,
)

COUNT_LOOP = """
    li $t0, 0
loop:
    addi $t0, $t0, 1
    slti $at, $t0, 100
    bne $at, $zero, loop
    mov $v0, $t0
    halt
"""


def both(source: str, max_steps: int = 1_000_000):
    program = assemble(source)
    return (
        FastVM(program).run(max_steps=max_steps),
        VM(program).run(max_steps=max_steps),
    )


class TestBudgets:
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 7, 50, 301, 302, 303])
    def test_budget_lands_exactly(self, budget):
        # Budgets chosen to expire at every offset within the loop body
        # (the fast loop stops a block early; the tail must finish the
        # partial block step for step).
        fast, legacy = both(COUNT_LOOP, max_steps=budget)
        assert fast.steps == legacy.steps
        assert fast.steps == (budget if not legacy.halted else legacy.steps)
        assert fast.halted == legacy.halted
        assert fast.trace.pcs == legacy.trace.pcs
        assert fast.trace.takens == legacy.trace.takens
        assert fast.branch_profile == legacy.branch_profile

    def test_run_can_resume_after_budget(self):
        program = assemble(COUNT_LOOP)
        vm = FastVM(program)
        first = vm.run(max_steps=50)
        assert not first.halted
        second = vm.run(max_steps=1_000_000)
        assert second.halted
        assert second.exit_value == 100
        # The two legs concatenate to exactly the single-run trace.
        whole = VM(program).run().trace
        assert list(first.trace.pcs) + list(second.trace.pcs) == list(whole.pcs)

    def test_zero_budget(self):
        fast, legacy = both("halt", max_steps=0)
        assert fast.steps == legacy.steps == 0
        assert not fast.halted and not legacy.halted


class TestControlFlowEdges:
    def test_sentinel_return_halts(self):
        # A bare main returning to the initial $ra must halt cleanly.
        fast, legacy = both("li $v0, 42\njr $ra")
        assert fast.halted and legacy.halted
        assert fast.exit_value == legacy.exit_value == 42
        assert fast.steps == legacy.steps

    def test_jalr_to_garbage_faults_identically(self):
        source = "li $t9, 9999\njalr $t9\nhalt"
        program = assemble(source)
        with pytest.raises(VMError, match="outside code") as fast_err:
            FastVM(program).run()
        with pytest.raises(VMError, match="outside code") as legacy_err:
            VM(program).run()
        assert str(fast_err.value) == str(legacy_err.value)

    def test_fall_off_code_end_faults_identically(self):
        program = assemble("nop")
        with pytest.raises(VMError, match="outside code") as fast_err:
            FastVM(program).run()
        with pytest.raises(VMError, match="outside code") as legacy_err:
            VM(program).run()
        assert str(fast_err.value) == str(legacy_err.value)

    def test_negative_store_address_faults_identically(self):
        source = "li $t0, -5\nsw $t0, 0($t0)\nhalt"
        program = assemble(source)
        with pytest.raises(VMError, match="negative") as fast_err:
            FastVM(program).run()
        with pytest.raises(VMError, match="negative") as legacy_err:
            VM(program).run()
        assert str(fast_err.value) == str(legacy_err.value)

    def test_computed_jump_into_block_interior(self):
        # jr lands mid-block (pc 4 is not a leader: it is the straight-
        # line successor of pc 3).  The specialized VM must single-step
        # from the interior entry, not assume block alignment.
        source = """
            li $t0, 4
            jr $t0
            nop
            nop
            addi $v0, $v0, 7
            halt
        """
        fast, legacy = both(source)
        assert fast.exit_value == legacy.exit_value == 7
        assert fast.trace.pcs == legacy.trace.pcs


class TestPutcSurrogates:
    """Regression: ``chr(value & 0x10FFFF)`` can yield lone surrogates
    (U+D800-U+DFFF) that crash any UTF-8 write of ``output_text``; both
    VMs must substitute U+FFFD."""

    @pytest.mark.parametrize("vm_class", [VM, FastVM])
    @pytest.mark.parametrize("code", [0xD800, 0xDA3F, 0xDFFF])
    def test_surrogate_replaced(self, vm_class, code):
        program = assemble(f"li $t0, {code}\nputc $t0\nhalt")
        result = vm_class(program).run()
        assert result.output_text == "�"
        result.output_text.encode("utf-8")  # must not raise

    @pytest.mark.parametrize("vm_class", [VM, FastVM])
    def test_ordinary_characters_unaffected(self, vm_class):
        program = assemble("li $t0, 'h'\nputc $t0\nli $t0, 'i'\nputc $t0\nhalt")
        assert vm_class(program).run().output_text == "hi"

    @pytest.mark.parametrize("vm_class", [VM, FastVM])
    def test_masking_above_unicode_range(self, vm_class):
        # Codes above 0x10FFFF are masked, as before the fix.
        program = assemble("li $t0, 0x200041\nputc $t0\nhalt")
        assert vm_class(program).run().output_text == "A"


class TestStreamingSink:
    def test_sink_requires_tracing(self):
        program = assemble("halt")
        with pytest.raises(ValueError, match="trace=True"):
            FastVM(program).run(trace=False, sink=object())

    def test_sink_bytes_match_save_trace(self, tmp_path):
        program = assemble(COUNT_LOOP)
        streamed = tmp_path / "s.rtrc"
        with TraceWriter(streamed, program, chunk_size=32) as writer:
            result = FastVM(program).run(sink=writer, chunk_records=11)
        assert result.halted and len(result.trace) == 0
        saved = tmp_path / "m.rtrc"
        save_trace(VM(program).run().trace, saved, chunk_size=32)
        assert streamed.read_bytes() == saved.read_bytes()
        loaded = load_trace(streamed, program)
        assert len(loaded) == result.steps

    def test_untraced_run_skips_trace(self):
        program = assemble(COUNT_LOOP)
        result = FastVM(program).run(trace=False)
        assert result.halted and result.exit_value == 100
        assert len(result.trace) == 0
        assert result.branch_profile  # profile still collected


class TestSpecialization:
    def test_generated_source_is_inspectable(self):
        program = assemble(COUNT_LOOP)
        source = fastvm_source(program)
        assert "def _bind(" in source
        assert "def h0(" in source
        compile(source, "<test>", "exec")  # well-formed Python

    def test_decode_cache_shared_across_instances(self):
        program = assemble(COUNT_LOOP)
        a, b = FastVM(program), FastVM(program)
        assert a._decoded is b._decoded

    def test_run_program_fast_convenience(self):
        program = assemble(COUNT_LOOP)
        assert run_program(program).exit_value == 100
