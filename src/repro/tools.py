"""``repro-cc`` — a file-oriented driver for the whole toolchain.

Subcommands::

    repro-cc build   prog.c  [-o prog.s] [--if-convert]   # MiniC -> assembly
    repro-cc run     prog.c|prog.s [--max-steps N]        # execute, print output
    repro-cc disasm  prog.c|prog.s                        # disassemble
    repro-cc analyze prog.c|prog.s [--max-steps N]        # parallelism limits
    repro-cc cfg     prog.c|prog.s [--function f]         # dump CFG + CD info

Files ending in ``.s``/``.asm`` are treated as assembly; everything else is
compiled as MiniC.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import analyze_program as static_analysis
from repro.analysis import build_cfgs, compute_control_dependence, find_loops
from repro.analysis import verify_program
from repro.asm import assemble, disassemble
from repro.core import ALL_MODELS, LimitAnalyzer
from repro.diagnostics import has_errors, render_all
from repro.isa import Program
from repro.lang import compile_source, compile_to_assembly, lint_minic
from repro.vm import FastVM


def _load(path: str, if_convert: bool = False, verify: bool = False) -> Program:
    text = Path(path).read_text()
    name = Path(path).stem
    if path.endswith((".s", ".asm")):
        program = assemble(text, name=name)
    else:
        if verify:
            _gate(lint_minic(text, name=path))
        program = compile_source(text, name=name, if_convert=if_convert)
    if verify:
        _gate(verify_program(program, name=path))
    return program


def _gate(diagnostics) -> None:
    """Print diagnostics; exit 1 when any is an error (--verify mode)."""
    if diagnostics:
        print(render_all(diagnostics), file=sys.stderr)
    if has_errors(diagnostics):
        raise SystemExit(1)


def _cmd_build(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    if args.verify:
        _gate(lint_minic(source, name=args.file))
    assembly = compile_to_assembly(source, if_convert=args.if_convert)
    if args.verify:
        _gate(verify_program(assemble(assembly, name=Path(args.file).stem),
                             name=args.file))
    if args.output:
        Path(args.output).write_text(assembly)
        print(f"wrote {args.output}")
    else:
        print(assembly, end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load(args.file, if_convert=args.if_convert, verify=args.verify)
    result = FastVM(program).run(max_steps=args.max_steps)
    for item in result.output:
        if isinstance(item, str):
            print(item, end="")
        else:
            print(item)
    status = "halted" if result.halted else "step budget exhausted"
    print(f"[{status}: {result.steps} instructions, exit value {result.exit_value}]")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    print(disassemble(_load(args.file)), end="")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _load(args.file, if_convert=args.if_convert, verify=args.verify)
    run = FastVM(program).run(max_steps=args.max_steps)
    analyzer = LimitAnalyzer(program)
    if args.verify:
        from repro.vm import sanitize_trace

        _gate(sanitize_trace(run.trace, analysis=analyzer.analysis,
                             name=args.file))
    result = analyzer.analyze(run.trace)
    print(f"{len(program)} static instructions, {run.steps} traced "
          f"({result.counted_instructions} counted after perfect inlining/unrolling)")
    print(f"{'machine':>10s} {'parallelism':>12s} {'cycles':>9s}")
    for model in ALL_MODELS:
        model_result = result[model]
        print(
            f"{model.label:>10s} {model_result.parallelism:12.2f} "
            f"{model_result.parallel_time:9d}"
        )
    return 0


def _cmd_cfg(args: argparse.Namespace) -> int:
    program = _load(args.file)
    analysis = static_analysis(program)
    for cfg in build_cfgs(program):
        if args.function and cfg.function.name != args.function:
            continue
        print(f"function {cfg.function.name} "
              f"[{cfg.function.start}, {cfg.function.end})")
        cd = compute_control_dependence(program, cfg)
        loops = find_loops(cfg)
        loop_headers = {loop.header for loop in loops}
        for block in cfg.blocks:
            succs = ", ".join(
                "exit" if s == -1 else f"B{s}" for s in block.succs
            )
            marks = " (loop header)" if block.id in loop_headers else ""
            deps = cd.block_deps[block.id]
            dep_text = f" CD={list(deps)}" if deps else ""
            print(f"  B{block.id}: pc {block.start}..{block.end - 1} "
                  f"-> {succs}{marks}{dep_text}")
        overhead = [
            pc for pc in range(cfg.function.start, cfg.function.end)
            if pc in analysis.loop_overhead
        ]
        if overhead:
            print(f"  unroll-overhead pcs: {overhead}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cc", description="MiniC / assembly toolchain driver"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="compile MiniC to assembly")
    build.add_argument("file")
    build.add_argument("-o", "--output")
    build.add_argument("--if-convert", action="store_true")
    build.add_argument("--verify", action="store_true",
                       help="lint the source and verify the object code")
    build.set_defaults(func=_cmd_build)

    run = subparsers.add_parser("run", help="execute a program")
    run.add_argument("file")
    run.add_argument("--max-steps", type=int, default=10_000_000)
    run.add_argument("--if-convert", action="store_true")
    run.add_argument("--verify", action="store_true",
                     help="lint the source and verify the object code")
    run.set_defaults(func=_cmd_run)

    disasm = subparsers.add_parser("disasm", help="disassemble a program")
    disasm.add_argument("file")
    disasm.set_defaults(func=_cmd_disasm)

    analyze = subparsers.add_parser("analyze", help="parallelism limit analysis")
    analyze.add_argument("file")
    analyze.add_argument("--max-steps", type=int, default=1_000_000)
    analyze.add_argument("--if-convert", action="store_true")
    analyze.add_argument("--verify", action="store_true",
                         help="lint, verify object code, and sanitize the trace")
    analyze.set_defaults(func=_cmd_analyze)

    cfg = subparsers.add_parser("cfg", help="dump CFG / control dependence")
    cfg.add_argument("file")
    cfg.add_argument("--function")
    cfg.set_defaults(func=_cmd_cfg)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
