"""The specialized (generated-dispatch) tracing VM.

:class:`FastVM` is the repo's pixie equivalent: every user path — the
experiment runner, the farm workers, ``repro.api``, ``run_program``,
``repro-cc``, ``repro-lint --trace`` and the ablations — traces with it.
It replaces an interpreter's giant ``if/elif`` opcode dispatch with
*per-program generated code*, the same technique the fused analyzer uses
for its per-shape kernels (:func:`repro.core.analyzer._emit_kernel`).
For each program it emits and compiles, once, a factory of small Python
closures:

* one **block handler** per basic-block leader, covering the whole
  straight-line run up to and including its terminating control transfer.
  Every operand — register indices, immediates, branch targets, the pc
  recorded in the trace — is folded into the source as a literal, so the
  hot path does no ``instr.rs`` attribute walks, no opcode comparisons,
  and pays the dispatch cost (one list index + call) once per *block*
  rather than once per instruction;
* one **single-instruction handler** per non-leader pc, so computed jumps
  (or a manually set ``pc``) may land mid-block and still execute
  correctly, stepping until the next leader realigns with block dispatch.

Each handler returns the next pc.  The run loop dispatches blocks while
the remaining budget exceeds the longest block and the pc stays in code.
A step loop finishes the run: the budget tail shorter than the longest
block, the return-to-sentinel halt, and out-of-range computed jumps.
Before each handler it checks the budget, then the sentinel, then the
code range, in the order the legacy interpreter
(:class:`~repro.vm.machine.VM`, kept as the differential oracle) checks
before each instruction.  It runs a block whole while it fits the
budget, and the block the budget cuts one instruction at a time, through
a single-instruction handler for that leader compiled on first use.  The
differential suite asserts byte-identical traces, branch profiles,
outputs, exit values, steps, ``halted`` flags and ``VMError`` messages
on every benchmark.

Streaming: pass ``sink=`` (a :class:`~repro.vm.trace_io.TraceWriter` or
anything with a ``write(pcs, addrs, takens)`` method) and the trace is
flushed chunk-by-chunk instead of accumulating in memory — the producer
side of the bounded-memory RTRC v2 pipeline.  See ``docs/vm.md``.
"""

from __future__ import annotations

import time
import weakref

from repro import telemetry
from repro.isa import registers
from repro.isa.opcodes import Opcode
from repro.isa.program import GLOBALS_BASE, STACK_TOP, Program
from repro.vm.machine import RETURN_SENTINEL, RunResult, VMError
from repro.vm.trace import Trace
from repro.vm.trace_io import DEFAULT_CHUNK_RECORDS


class _Halt(Exception):
    """Internal control-flow signal raised by generated HALT handlers."""


_HALT_SIGNAL = _Halt()

#: Opcodes that terminate a basic block (control leaves the fall-through).
_TERMINALS = frozenset(
    (
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLEZ,
        Opcode.BGTZ,
        Opcode.BLTZ,
        Opcode.BGEZ,
        Opcode.J,
        Opcode.JAL,
        Opcode.JR,
        Opcode.JALR,
        Opcode.HALT,
    )
)

_BIN_OPS = {
    Opcode.ADD: "({rs} + {rt})",
    Opcode.SUB: "({rs} - {rt})",
    Opcode.MUL: "({rs} * {rt})",
    Opcode.AND: "({rs} & {rt})",
    Opcode.OR: "({rs} | {rt})",
    Opcode.XOR: "({rs} ^ {rt})",
    Opcode.NOR: "~({rs} | {rt})",
    Opcode.SLL: "({rs} << ({rt} & 31))",
    Opcode.SRL: "(({rs} & 4294967295) >> ({rt} & 31))",
    Opcode.SRA: "({rs} >> ({rt} & 31))",
}

_CMP_OPS = {
    Opcode.SLT: "<",
    Opcode.SLE: "<=",
    Opcode.SEQ: "==",
    Opcode.SNE: "!=",
    Opcode.SGT: ">",
    Opcode.SGE: ">=",
    Opcode.SLTI: "<",
    Opcode.SLEI: "<=",
    Opcode.SEQI: "==",
    Opcode.SNEI: "!=",
    Opcode.SGTI: ">",
    Opcode.SGEI: ">=",
}

_BRANCH_CONDS = {
    Opcode.BEQ: "regs[{rs}] == regs[{rt}]",
    Opcode.BNE: "regs[{rs}] != regs[{rt}]",
    Opcode.BLEZ: "regs[{rs}] <= 0",
    Opcode.BGTZ: "regs[{rs}] > 0",
    Opcode.BLTZ: "regs[{rs}] < 0",
    Opcode.BGEZ: "regs[{rs}] >= 0",
}


def _wrap(expr: str) -> str:
    """Branchless signed-32-bit wrap of *expr* (matches ``_wrap32``)."""
    return f"(({expr}) & 4294967295 ^ 2147483648) - 2147483648"


def _instr_lines(program: Program, pc: int, traced: bool) -> list[str]:
    """Source lines executing the instruction at *pc* (operands folded).

    Terminal instructions end with ``return``/``raise``; everything else
    falls through to the next emitted instruction.  Semantics mirror the
    legacy interpreter case for case — including the ``$zero`` write
    suppression, the operand-read-before-RA-write order of ``jalr``, the
    trap-free div/rem, and the U+FFFD substitution for surrogate PUTC
    code points.
    """
    instr = program.instructions[pc]
    op = instr.opcode
    n_next = pc + 1
    lines: list[str] = []
    emit = lines.append

    def trace_plain() -> None:
        if traced:
            emit(f"ap({pc}); aa(-1); at(-1)")

    def trace_mem() -> None:
        if traced:
            emit(f"ap({pc}); aa(a); at(-1)")

    rs = instr.rs
    rt = instr.rt
    rd = instr.rd
    imm = instr.imm

    if op in _BIN_OPS:
        if rd:
            expr = _BIN_OPS[op].format(rs=f"regs[{rs}]", rt=f"regs[{rt}]")
            emit(f"regs[{rd}] = {_wrap(expr)}")
        trace_plain()
    elif op is Opcode.ADDI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] + {imm!r}')}")
        trace_plain()
    elif op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI):
        if rd:
            sym = {Opcode.ANDI: "&", Opcode.ORI: "|", Opcode.XORI: "^"}[op]
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] {sym} {imm!r}')}")
        trace_plain()
    elif op is Opcode.SLLI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] << {imm & 31}')}")
        trace_plain()
    elif op is Opcode.SRLI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'(regs[{rs}] & 4294967295) >> {imm & 31}')}")
        trace_plain()
    elif op is Opcode.SRAI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'regs[{rs}] >> {imm & 31}')}")
        trace_plain()
    elif op in _CMP_OPS and op.value.endswith("i"):
        if rd:
            emit(f"regs[{rd}] = 1 if regs[{rs}] {_CMP_OPS[op]} {imm!r} else 0")
        trace_plain()
    elif op in _CMP_OPS:
        if rd:
            emit(f"regs[{rd}] = 1 if regs[{rs}] {_CMP_OPS[op]} regs[{rt}] else 0")
        trace_plain()
    elif op is Opcode.DIV:
        if rd:
            emit(f"d = regs[{rt}]")
            emit("if d == 0:")
            emit(f"    regs[{rd}] = 0")
            emit("else:")
            emit(f"    q = abs(regs[{rs}]) // abs(d)")
            emit(f"    if (regs[{rs}] < 0) != (d < 0):")
            emit("        q = -q")
            emit(f"    regs[{rd}] = {_wrap('q')}")
        trace_plain()
    elif op is Opcode.REM:
        if rd:
            emit(f"d = regs[{rt}]")
            emit("if d == 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
            emit("else:")
            emit(f"    r = abs(regs[{rs}]) % abs(d)")
            emit(f"    regs[{rd}] = {_wrap(f'-r if regs[{rs}] < 0 else r')}")
        trace_plain()
    elif op is Opcode.LI:
        if rd:
            emit(f"regs[{rd}] = {imm!r}")
        trace_plain()
    elif op is Opcode.MOV:
        if rd:
            emit(f"regs[{rd}] = regs[{rs}]")
        trace_plain()
    elif op in (Opcode.MOVZ, Opcode.FMOVZ):
        if rd:
            emit(f"if regs[{rt}] == 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
        trace_plain()
    elif op in (Opcode.MOVN, Opcode.FMOVN):
        if rd:
            emit(f"if regs[{rt}] != 0:")
            emit(f"    regs[{rd}] = regs[{rs}]")
        trace_plain()
    elif op is Opcode.LW:
        emit(f"a = regs[{rs}] + {imm!r}")
        emit("if a < 0:")
        emit(f'    raise VMError(f"negative memory address {{a}} at pc {pc}")')
        if rd:
            emit(f"regs[{rd}] = mg(a, 0)")
        trace_mem()
    elif op is Opcode.SW:
        emit(f"a = regs[{rs}] + {imm!r}")
        emit("if a < 0:")
        emit(f'    raise VMError(f"negative memory address {{a}} at pc {pc}")')
        emit(f"memory[a] = regs[{rt}]")
        trace_mem()
    elif op is Opcode.FLW:
        emit(f"a = regs[{rs}] + {imm!r}")
        emit("if a < 0:")
        emit(f'    raise VMError(f"negative memory address {{a}} at pc {pc}")')
        emit(f"regs[{rd}] = float(mg(a, 0.0))")
        trace_mem()
    elif op is Opcode.FSW:
        emit(f"a = regs[{rs}] + {imm!r}")
        emit("if a < 0:")
        emit(f'    raise VMError(f"negative memory address {{a}} at pc {pc}")')
        emit(f"memory[a] = float(regs[{rt}])")
        trace_mem()
    elif op in _BRANCH_CONDS:
        cond = _BRANCH_CONDS[op].format(rs=rs, rt=rt)
        emit(f"t = 1 if {cond} else 0")
        emit(f"c = pg({pc})")
        emit("if c is None:")
        emit(f"    c = profile[{pc}] = [0, 0]")
        emit("c[t] += 1")
        if traced:
            emit(f"ap({pc}); aa(-1); at(t)")
        emit(f"return {instr.target} if t else {n_next}")
    elif op is Opcode.J:
        trace_plain()
        emit(f"return {instr.target}")
    elif op is Opcode.JAL:
        emit(f"regs[{registers.RA}] = {n_next}")
        trace_plain()
        emit(f"return {instr.target}")
    elif op is Opcode.JR:
        trace_plain()
        emit(f"return regs[{rs}]")
    elif op is Opcode.JALR:
        emit(f"t = regs[{rs}]")
        emit(f"regs[{registers.RA}] = {n_next}")
        trace_plain()
        emit("return t")
    elif op is Opcode.FADD:
        emit(f"regs[{rd}] = regs[{rs}] + regs[{rt}]")
        trace_plain()
    elif op is Opcode.FSUB:
        emit(f"regs[{rd}] = regs[{rs}] - regs[{rt}]")
        trace_plain()
    elif op is Opcode.FMUL:
        emit(f"regs[{rd}] = regs[{rs}] * regs[{rt}]")
        trace_plain()
    elif op is Opcode.FDIV:
        emit(f"d = regs[{rt}]")
        emit(f"regs[{rd}] = regs[{rs}] / d if d != 0.0 else 0.0")
        trace_plain()
    elif op is Opcode.FNEG:
        emit(f"regs[{rd}] = -regs[{rs}]")
        trace_plain()
    elif op is Opcode.FABS:
        emit(f"regs[{rd}] = abs(regs[{rs}])")
        trace_plain()
    elif op is Opcode.FSQRT:
        emit(f"v = regs[{rs}]")
        emit(f"regs[{rd}] = v**0.5 if v >= 0.0 else 0.0")
        trace_plain()
    elif op is Opcode.FMOV:
        emit(f"regs[{rd}] = regs[{rs}]")
        trace_plain()
    elif op is Opcode.FLI:
        emit(f"regs[{rd}] = {float(imm)!r}")
        trace_plain()
    elif op is Opcode.CVTIF:
        emit(f"regs[{rd}] = float(regs[{rs}])")
        trace_plain()
    elif op is Opcode.CVTFI:
        if rd:
            emit(f"regs[{rd}] = {_wrap(f'int(regs[{rs}])')}")
        trace_plain()
    elif op in (Opcode.FEQ, Opcode.FLT, Opcode.FLE):
        if rd:
            sym = {Opcode.FEQ: "==", Opcode.FLT: "<", Opcode.FLE: "<="}[op]
            emit(f"regs[{rd}] = 1 if regs[{rs}] {sym} regs[{rt}] else 0")
        trace_plain()
    elif op is Opcode.NOP:
        trace_plain()
    elif op is Opcode.HALT:
        trace_plain()
        emit(f"cell[0] = {pc}")
        emit("raise _HALT")
    elif op is Opcode.PRINT:
        emit(f"oa(regs[{rs}])")
        trace_plain()
    elif op is Opcode.FPRINT:
        emit(f"oa(float(regs[{rs}]))")
        trace_plain()
    elif op is Opcode.PUTC:
        # Same surrogate clamp as the legacy interpreter: lone surrogates
        # become U+FFFD so output_text always UTF-8-encodes.
        emit(f"v = regs[{rs}] & 1114111")
        emit('oa("\\ufffd" if 55296 <= v <= 57343 else chr(v))')
        trace_plain()
    else:  # pragma: no cover - every opcode is handled above
        raise VMError(f"unimplemented opcode {op}")
    return lines


def _leaders(program: Program) -> set[int]:
    n = len(program.instructions)
    leaders = {0, program.entry}
    for pc, instr in enumerate(program.instructions):
        if instr.target is not None:
            leaders.add(instr.target)
        if instr.opcode in _TERMINALS and pc + 1 < n:
            leaders.add(pc + 1)
    for targets in program.jump_tables.values():
        leaders.update(targets)
    return {pc for pc in leaders if 0 <= pc < n}


def _blocks(program: Program) -> dict[int, list[int]]:
    """Each leader's basic block: the pcs of its straight-line run."""
    n = len(program.instructions)
    leaders = _leaders(program)
    blocks = {}
    for leader in leaders:
        block = [leader]
        while program.instructions[block[-1]].opcode not in _TERMINALS:
            nxt = block[-1] + 1
            if nxt >= n or nxt in leaders:
                break
            block.append(nxt)
        blocks[leader] = block
    return blocks


def _emit_factory(program: Program, traced: bool, single: int | None = None) -> str:
    """Generate a handler factory's source for one program.

    The factory binds the run's mutable state (registers, memory, trace
    columns, profile, step/halt cells) into closures.  By default it
    returns the pc-indexed dispatch tuple: handlers for block leaders
    execute whole basic blocks, handlers for interior pcs execute one
    instruction, so any dynamically computed pc dispatches correctly.
    With *single* it returns one handler executing just the instruction
    at that pc, for a run whose budget ends inside the pc's block.
    """
    n = len(program.instructions)
    out: list[str] = []
    emit = out.append
    emit("def _bind(regs, memory, output, profile, cpcs, caddrs, ctakens, sc, cell):")
    if traced:
        emit("    ap = cpcs.append")
        emit("    aa = caddrs.append")
        emit("    at = ctakens.append")
    emit("    mg = memory.get")
    emit("    pg = profile.get")
    emit("    oa = output.append")

    def emit_handler(pc: int, block: list[int]) -> None:
        emit(f"    def h{pc}():")
        emit(f"        sc[0] += {len(block)}")
        for member in block:
            for line in _instr_lines(program, member, traced):
                emit(f"        {line}")
        if program.instructions[block[-1]].opcode not in _TERMINALS:
            emit(f"        return {block[-1] + 1}")

    if single is not None:
        emit_handler(single, [single])
        emit(f"    return h{single}")
    else:
        blocks = _blocks(program)
        for pc in range(n):
            emit_handler(pc, blocks.get(pc, [pc]))
        handler_list = ", ".join(f"h{pc}" for pc in range(n))
        comma = "," if n == 1 else ""
        emit(f"    return ({handler_list}{comma})")
    emit("")
    return "\n".join(out)


def _exec_factory(source: str, filename: str):
    namespace = {"VMError": VMError, "_HALT": _HALT_SIGNAL}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_bind"]


class _Decoded:
    """Per-program compiled artifacts, shared across FastVM instances."""

    __slots__ = (
        "program_ref",
        "lengths",
        "max_block",
        "n_blocks",
        "_factories",
        "_sources",
        "_singles",
    )

    def __init__(self, program: Program):
        self.program_ref = weakref.ref(program)
        blocks = _blocks(program)
        self.n_blocks = len(blocks)
        #: Instructions the dispatch handler at each pc retires.
        self.lengths = tuple(
            len(blocks.get(pc, (pc,))) for pc in range(len(program.instructions))
        )
        self.max_block = max(self.lengths, default=1)
        self._factories: dict[bool, object] = {}
        self._sources: dict[bool, str] = {}
        self._singles: dict[tuple[int, bool], object] = {}

    def factory(self, traced: bool):
        cached = self._factories.get(traced)
        if cached is None:
            program = self.program_ref()
            source = _emit_factory(program, traced)
            variant = "traced" if traced else "untraced"
            cached = _exec_factory(source, f"<fastvm {program.name} {variant}>")
            self._factories[traced] = cached
            self._sources[traced] = source
            if telemetry.enabled():
                telemetry.METRICS.counter(
                    "repro_vm_blocks_compiled_total"
                ).inc(self.n_blocks, program=program.name)
        return cached

    def single(self, pc: int, traced: bool):
        """The factory of a one-instruction handler for the leader at *pc*.

        Compiled on first use: only a run whose budget ends inside a
        block needs one, so the dispatch table does not carry them all.
        """
        key = (pc, traced)
        cached = self._singles.get(key)
        if cached is None:
            program = self.program_ref()
            source = _emit_factory(program, traced, single=pc)
            cached = _exec_factory(source, f"<fastvm {program.name} pc {pc}>")
            self._singles[key] = cached
        return cached

    def source(self, traced: bool) -> str:
        self.factory(traced)
        return self._sources[traced]


_DECODE_CACHE: dict[int, tuple[weakref.ref, _Decoded]] = {}


def _decode(program: Program) -> _Decoded:
    entry = _DECODE_CACHE.get(id(program))
    if entry is not None and entry[0]() is program:
        return entry[1]
    # Reap entries whose program has been collected (ids can be reused).
    dead = [key for key, (ref, _) in _DECODE_CACHE.items() if ref() is None]
    for key in dead:
        del _DECODE_CACHE[key]
    decoded = _Decoded(program)
    _DECODE_CACHE[id(program)] = (weakref.ref(program), decoded)
    return decoded


def fastvm_source(program: Program, traced: bool = True) -> str:
    """The generated handler-factory source for *program* (debug/teaching)."""
    return _decode(program).source(traced)


class FastVM:
    """A resettable specialized VM for one program (see module docstring).

    The VM every pipeline stage and tool runs.  It keeps the contract of
    the oracle interpreter :class:`~repro.vm.machine.VM` — same ``reset``,
    same :class:`RunResult`, same exceptions — without calling it.
    ``run`` adds a ``sink=`` mode that streams trace chunks to a writer
    instead of building an in-memory :class:`Trace`.
    """

    def __init__(self, program: Program):
        self.program = program
        self._decoded = _decode(program)
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

    def run(
        self,
        max_steps: int = 1_000_000,
        trace: bool = True,
        sink=None,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> RunResult:
        """Execute until ``halt``/final return or until *max_steps* retire.

        With ``sink`` set (streaming mode), trace chunks are flushed to
        ``sink.write(pcs, addrs, takens)`` whenever ``chunk_records``
        records accumulate, and the returned :class:`RunResult` carries an
        *empty* trace — the records live wherever the sink put them.  With
        ``trace=False`` only the branch profile and architectural state
        are produced (used for profiling runs that need no trace).
        """
        if sink is not None and not trace:
            raise ValueError("streaming (sink=) requires trace=True")
        program = self.program
        n_code = len(program.instructions)
        trace_obj = Trace(program)
        if sink is None:
            # In memory, handlers append straight into the trace's
            # array('q') columns: no boxed-int lists to copy afterwards.
            cpcs, caddrs, ctakens = trace_obj.pcs, trace_obj.addrs, trace_obj.takens
        else:
            cpcs, caddrs, ctakens = [], [], []
        profile: dict[int, list[int]] = {}
        sc = [0]
        cell = [0]
        state = (
            self.regs, self.memory, self.output, profile, cpcs, caddrs, ctakens, sc, cell
        )
        decoded = self._decoded
        handlers = decoded.factory(trace)(*state)
        pc = self.pc
        halted = False
        tele_on = telemetry.enabled()
        run_started = time.perf_counter() if tele_on else 0.0

        safe = max_steps - decoded.max_block
        try:
            if sink is None:
                while sc[0] < safe and 0 <= pc < n_code:
                    pc = handlers[pc]()
            else:
                while sc[0] < safe and 0 <= pc < n_code:
                    pc = handlers[pc]()
                    if len(cpcs) >= chunk_records:
                        sink.write(cpcs, caddrs, ctakens)
                        del cpcs[:]
                        del caddrs[:]
                        del ctakens[:]
            # The budget tail, the sentinel return and an out-of-range
            # computed jump, checked in the legacy interpreter's order:
            # budget, sentinel, code range.  A block runs whole while it
            # fits the budget; control leaves a block only at its end, so
            # that equals stepping it.  The block the budget cuts runs one
            # instruction at a time.
            lengths = decoded.lengths
            while sc[0] < max_steps:
                if pc == RETURN_SENTINEL:
                    halted = True
                    break
                if not 0 <= pc < n_code:
                    raise VMError(f"pc {pc} outside code [0, {n_code})")
                if sc[0] + lengths[pc] <= max_steps:
                    pc = handlers[pc]()
                else:
                    pc = decoded.single(pc, trace)(*state)()
        except _Halt:
            halted = True
            pc = cell[0]
        self.pc = pc
        steps = sc[0]

        if sink is not None and cpcs:
            sink.write(cpcs, caddrs, ctakens)

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
                engine="fast",
            )
        return RunResult(
            trace=trace_obj,
            steps=steps,
            halted=halted,
            exit_value=self.regs[registers.V0],
            output=self.output,
            branch_profile=profile,
        )


def run_program(program: Program, max_steps: int = 1_000_000) -> RunResult:
    """Convenience wrapper: fresh :class:`FastVM`, one traced run."""
    return FastVM(program).run(max_steps=max_steps)
