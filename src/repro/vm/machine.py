"""The reference tracing interpreter.

:class:`VM` executes a :class:`~repro.isa.Program` and records the dynamic
trace the limit study consumes.  It plays the role of MIPS ``pixie`` in the
paper: instrument, run with a step budget, and hand back (pc, effective
address, branch outcome) per executed instruction, plus per-branch profile
counts used to train the static branch predictor.  It is the differential
oracle for :class:`~repro.vm.fastvm.FastVM`, which every pipeline stage and
tool runs; no production path calls :class:`VM`.

Machine semantics:

* 32-bit two's-complement integer arithmetic (results wrap).
* Truncating division; division by zero yields 0 (and ``x % 0 == x``) so
  limit-study runs can never trap.
* Word-addressed memory: one Python value (int or float) per address.
  Uninitialized reads return 0.
* ``$zero`` is hardwired to 0; ``$sp`` starts at :data:`~repro.isa.STACK_TOP`
  and ``$gp`` at the globals base.
* ``jr`` to :data:`RETURN_SENTINEL` halts — so a bare ``main`` that returns
  without a ``__start`` stub terminates cleanly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.isa import registers
from repro.isa.opcodes import Opcode
from repro.isa.program import GLOBALS_BASE, STACK_TOP, Program
from repro.vm.trace import NO_ADDR, NOT_BRANCH, Trace

RETURN_SENTINEL = -1
"""Initial $ra; returning to it ends the program."""

_WRAP = 0xFFFFFFFF
_SIGN = 0x80000000


def _wrap32(value: int) -> int:
    """Wrap *value* to a signed 32-bit integer."""
    value &= _WRAP
    return value - (1 << 32) if value & _SIGN else value


class VMError(Exception):
    """Raised for machine-level faults (bad pc, bad address, bad operand)."""


@dataclass
class RunResult:
    """Outcome of one :meth:`VM.run`."""

    trace: Trace
    steps: int
    halted: bool  # False if the step budget expired first
    exit_value: int | float | None
    output: list[int | float | str] = field(default_factory=list)
    branch_profile: dict[int, list[int]] = field(default_factory=dict)

    @property
    def output_text(self) -> str:
        """Characters emitted with ``putc``, concatenated."""
        return "".join(part for part in self.output if isinstance(part, str))


class VM:
    """A resettable interpreter for one program."""

    def __init__(self, program: Program):
        self.program = program
        self.reset()

    def reset(self) -> None:
        self.regs: list[int | float] = [0] * registers.NUM_REGS
        for fp_reg in range(registers.FP_BASE, registers.NUM_REGS):
            self.regs[fp_reg] = 0.0
        self.regs[registers.SP] = STACK_TOP
        self.regs[registers.GP] = GLOBALS_BASE
        self.regs[registers.RA] = RETURN_SENTINEL
        self.memory: dict[int, int | float] = dict(self.program.data)
        self.pc = self.program.entry
        self.output: list[int | float | str] = []

    def run(self, max_steps: int = 1_000_000, trace: bool = True) -> RunResult:
        """Execute until ``halt``/final return or until *max_steps* retire.

        With ``trace=False`` only the branch profile and architectural state
        are produced (used for profiling runs that need no trace).
        """
        program = self.program
        code = program.instructions
        n_code = len(code)
        regs = self.regs
        memory = self.memory
        trace_obj = Trace(program)
        pcs, addrs, takens = trace_obj.pcs, trace_obj.addrs, trace_obj.takens
        profile: dict[int, list[int]] = {}
        pc = self.pc
        steps = 0
        halted = False
        # Telemetry is sampled once around the whole interpreter loop —
        # one timestamp pair per run, nothing per instruction.
        tele_on = telemetry.enabled()
        run_started = time.perf_counter() if tele_on else 0.0

        while steps < max_steps:
            if pc == RETURN_SENTINEL:
                halted = True
                break
            if not 0 <= pc < n_code:
                raise VMError(f"pc {pc} outside code [0, {n_code})")
            instr = code[pc]
            op = instr.opcode
            steps += 1
            addr = NO_ADDR
            taken = NOT_BRANCH
            next_pc = pc + 1

            if op is Opcode.ADD:
                value = _wrap32(regs[instr.rs] + regs[instr.rt])
                if instr.rd:
                    regs[instr.rd] = value
            elif op is Opcode.ADDI:
                value = _wrap32(regs[instr.rs] + instr.imm)
                if instr.rd:
                    regs[instr.rd] = value
            elif op is Opcode.LW:
                addr = regs[instr.rs] + instr.imm
                self._check_addr(addr, pc)
                if instr.rd:
                    regs[instr.rd] = memory.get(addr, 0)
            elif op is Opcode.SW:
                addr = regs[instr.rs] + instr.imm
                self._check_addr(addr, pc)
                memory[addr] = regs[instr.rt]
            elif op is Opcode.BEQ or op is Opcode.BNE:
                outcome = regs[instr.rs] == regs[instr.rt]
                if op is Opcode.BNE:
                    outcome = not outcome
                taken = 1 if outcome else 0
                counts = profile.get(pc)
                if counts is None:
                    counts = profile[pc] = [0, 0]
                counts[taken] += 1
                if outcome:
                    next_pc = instr.target
            elif op in (Opcode.BLEZ, Opcode.BGTZ, Opcode.BLTZ, Opcode.BGEZ):
                value = regs[instr.rs]
                if op is Opcode.BLEZ:
                    outcome = value <= 0
                elif op is Opcode.BGTZ:
                    outcome = value > 0
                elif op is Opcode.BLTZ:
                    outcome = value < 0
                else:
                    outcome = value >= 0
                taken = 1 if outcome else 0
                counts = profile.get(pc)
                if counts is None:
                    counts = profile[pc] = [0, 0]
                counts[taken] += 1
                if outcome:
                    next_pc = instr.target
            elif op is Opcode.LI:
                if instr.rd:
                    regs[instr.rd] = instr.imm
            elif op is Opcode.MOV:
                if instr.rd:
                    regs[instr.rd] = regs[instr.rs]
            elif op is Opcode.MOVZ or op is Opcode.FMOVZ:
                if instr.rd and regs[instr.rt] == 0:
                    regs[instr.rd] = regs[instr.rs]
            elif op is Opcode.MOVN or op is Opcode.FMOVN:
                if instr.rd and regs[instr.rt] != 0:
                    regs[instr.rd] = regs[instr.rs]
            elif op is Opcode.SUB:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] - regs[instr.rt])
            elif op is Opcode.MUL:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] * regs[instr.rt])
            elif op is Opcode.DIV:
                divisor = regs[instr.rt]
                if instr.rd:
                    if divisor == 0:
                        regs[instr.rd] = 0
                    else:
                        quotient = abs(regs[instr.rs]) // abs(divisor)
                        if (regs[instr.rs] < 0) != (divisor < 0):
                            quotient = -quotient
                        regs[instr.rd] = _wrap32(quotient)
            elif op is Opcode.REM:
                divisor = regs[instr.rt]
                if instr.rd:
                    dividend = regs[instr.rs]
                    if divisor == 0:
                        regs[instr.rd] = dividend
                    else:
                        remainder = abs(dividend) % abs(divisor)
                        regs[instr.rd] = _wrap32(-remainder if dividend < 0 else remainder)
            elif op is Opcode.AND:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] & regs[instr.rt])
            elif op is Opcode.OR:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] | regs[instr.rt])
            elif op is Opcode.XOR:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] ^ regs[instr.rt])
            elif op is Opcode.NOR:
                if instr.rd:
                    regs[instr.rd] = _wrap32(~(regs[instr.rs] | regs[instr.rt]))
            elif op is Opcode.SLL:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] << (regs[instr.rt] & 31))
            elif op is Opcode.SRL:
                if instr.rd:
                    regs[instr.rd] = _wrap32(
                        (regs[instr.rs] & _WRAP) >> (regs[instr.rt] & 31)
                    )
            elif op is Opcode.SRA:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] >> (regs[instr.rt] & 31))
            elif op in (Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE, Opcode.SGT, Opcode.SGE):
                lhs, rhs = regs[instr.rs], regs[instr.rt]
                result = _COMPARE[op](lhs, rhs)
                if instr.rd:
                    regs[instr.rd] = 1 if result else 0
            elif op in (
                Opcode.SLTI, Opcode.SLEI, Opcode.SEQI,
                Opcode.SNEI, Opcode.SGTI, Opcode.SGEI,
            ):
                result = _COMPARE_IMM[op](regs[instr.rs], instr.imm)
                if instr.rd:
                    regs[instr.rd] = 1 if result else 0
            elif op is Opcode.ANDI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] & instr.imm)
            elif op is Opcode.ORI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] | instr.imm)
            elif op is Opcode.XORI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] ^ instr.imm)
            elif op is Opcode.SLLI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] << (instr.imm & 31))
            elif op is Opcode.SRLI:
                if instr.rd:
                    regs[instr.rd] = _wrap32((regs[instr.rs] & _WRAP) >> (instr.imm & 31))
            elif op is Opcode.SRAI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(regs[instr.rs] >> (instr.imm & 31))
            elif op is Opcode.J:
                next_pc = instr.target
            elif op is Opcode.JAL:
                regs[registers.RA] = pc + 1
                next_pc = instr.target
            elif op is Opcode.JR:
                next_pc = regs[instr.rs]
            elif op is Opcode.JALR:
                target = regs[instr.rs]
                regs[registers.RA] = pc + 1
                next_pc = target
            elif op is Opcode.FLW:
                addr = regs[instr.rs] + instr.imm
                self._check_addr(addr, pc)
                value = memory.get(addr, 0.0)
                regs[instr.rd] = float(value)
            elif op is Opcode.FSW:
                addr = regs[instr.rs] + instr.imm
                self._check_addr(addr, pc)
                memory[addr] = float(regs[instr.rt])
            elif op is Opcode.FADD:
                regs[instr.rd] = regs[instr.rs] + regs[instr.rt]
            elif op is Opcode.FSUB:
                regs[instr.rd] = regs[instr.rs] - regs[instr.rt]
            elif op is Opcode.FMUL:
                regs[instr.rd] = regs[instr.rs] * regs[instr.rt]
            elif op is Opcode.FDIV:
                divisor = regs[instr.rt]
                regs[instr.rd] = regs[instr.rs] / divisor if divisor != 0.0 else 0.0
            elif op is Opcode.FNEG:
                regs[instr.rd] = -regs[instr.rs]
            elif op is Opcode.FABS:
                regs[instr.rd] = abs(regs[instr.rs])
            elif op is Opcode.FSQRT:
                value = regs[instr.rs]
                regs[instr.rd] = value**0.5 if value >= 0.0 else 0.0
            elif op is Opcode.FMOV:
                regs[instr.rd] = regs[instr.rs]
            elif op is Opcode.FLI:
                regs[instr.rd] = float(instr.imm)
            elif op is Opcode.CVTIF:
                regs[instr.rd] = float(regs[instr.rs])
            elif op is Opcode.CVTFI:
                if instr.rd:
                    regs[instr.rd] = _wrap32(int(regs[instr.rs]))
            elif op in (Opcode.FEQ, Opcode.FLT, Opcode.FLE):
                lhs, rhs = regs[instr.rs], regs[instr.rt]
                if op is Opcode.FEQ:
                    result = lhs == rhs
                elif op is Opcode.FLT:
                    result = lhs < rhs
                else:
                    result = lhs <= rhs
                if instr.rd:
                    regs[instr.rd] = 1 if result else 0
            elif op is Opcode.NOP:
                pass
            elif op is Opcode.HALT:
                halted = True
                if trace:
                    pcs.append(pc)
                    addrs.append(addr)
                    takens.append(taken)
                break
            elif op is Opcode.PRINT:
                self.output.append(regs[instr.rs])
            elif op is Opcode.FPRINT:
                self.output.append(float(regs[instr.rs]))
            elif op is Opcode.PUTC:
                # Masking to the Unicode range can still land on a lone
                # surrogate (U+D800-U+DFFF), which chr() happily builds but
                # any UTF-8 write of output_text later rejects.  Substitute
                # U+FFFD, the designated replacement character.
                point = regs[instr.rs] & 0x10FFFF
                if 0xD800 <= point <= 0xDFFF:
                    point = 0xFFFD
                self.output.append(chr(point))
            else:  # pragma: no cover - all opcodes handled above
                raise VMError(f"unimplemented opcode {op}")

            if trace:
                pcs.append(pc)
                addrs.append(addr)
                takens.append(taken)
            pc = next_pc

        self.pc = pc
        if tele_on:
            elapsed = time.perf_counter() - run_started
            if elapsed > 0:
                telemetry.METRICS.gauge(
                    "repro_vm_instructions_per_second"
                ).set(steps / elapsed, program=program.name)
            telemetry.record_span(
                "vm.run",
                elapsed,
                program=program.name,
                steps=steps,
                halted=halted,
            )
        return RunResult(
            trace=trace_obj,
            steps=steps,
            halted=halted,
            exit_value=regs[registers.V0],
            output=self.output,
            branch_profile=profile,
        )

    @staticmethod
    def _check_addr(addr: int, pc: int) -> None:
        if addr < 0:
            raise VMError(f"negative memory address {addr} at pc {pc}")


_COMPARE = {
    Opcode.SLT: lambda a, b: a < b,
    Opcode.SLE: lambda a, b: a <= b,
    Opcode.SEQ: lambda a, b: a == b,
    Opcode.SNE: lambda a, b: a != b,
    Opcode.SGT: lambda a, b: a > b,
    Opcode.SGE: lambda a, b: a >= b,
}

_COMPARE_IMM = {
    Opcode.SLTI: lambda a, b: a < b,
    Opcode.SLEI: lambda a, b: a <= b,
    Opcode.SEQI: lambda a, b: a == b,
    Opcode.SNEI: lambda a, b: a != b,
    Opcode.SGTI: lambda a, b: a > b,
    Opcode.SGEI: lambda a, b: a >= b,
}
