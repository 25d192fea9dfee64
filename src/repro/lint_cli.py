"""``repro-lint`` — run the diagnostics passes from the command line.

Usage::

    repro-lint prog.c other.s            # lint files (MiniC or assembly)
    repro-lint --bench all               # lint + verify every benchmark
    repro-lint --bench eqntott --trace   # also sanitize a dynamic trace
    repro-lint --examples examples       # lint sources embedded in examples
    repro-lint --fail-on error ...       # only errors affect the exit code
    repro-lint --format json ...         # machine-readable output

Files ending in ``.s``/``.asm`` are assembled and run through the
object-code verifier (``OBJ2xx``) and the whole-program static engine
(``STA40x`` notes); everything else is treated as MiniC and additionally
linted (``MC1xx``).  ``--trace`` executes each successfully compiled
program, replays the trace against the static analysis (``TR3xx``), and
runs the static-vs-dynamic differential gate (``STA41x``).

``--examples`` extracts module-level string constants from example
scripts: constants containing ``int main`` are linted as MiniC, constants
that look like assembly (``.text`` / ``.func`` directives) are assembled
and verified.  This keeps every program the documentation ships under the
same gate as the benchmark suite.

Exit status (documented contract, see ``docs/diagnostics.md``): 0 when no
diagnostic at or above the ``--fail-on`` severity (default: warning) was
reported, 1 when at least one was, 2 on usage or input errors (argparse).
``--format json`` emits one JSON object on stdout with the stable fields
``diagnostics`` (list of :meth:`~repro.diagnostics.Diagnostic.to_json`
objects, sorted), ``checked``, ``summary`` (counts per severity label),
and ``exit`` (the status the process then exits with).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

from repro.analysis import verify_program
from repro.asm import AsmError, assemble
from repro.diagnostics import Diagnostic, Severity, render_all, sort_diagnostics
from repro.lang import CompileError, compile_source, lint_minic


def _lint_assembly(text: str, name: str, trace: bool, max_steps: int) -> list[Diagnostic]:
    try:
        program = assemble(text, name=name)
    except AsmError as exc:
        return [
            Diagnostic(
                code="OBJ200",
                severity=Severity.ERROR,
                message=exc.message,
                source=name,
                line=exc.line,
            )
        ]
    diagnostics = verify_program(program, name=name)
    diagnostics += _static_passes(program, name, trace, max_steps)
    return diagnostics


def _lint_minic_source(
    text: str, name: str, trace: bool, max_steps: int
) -> list[Diagnostic]:
    diagnostics = lint_minic(text, name=name)
    if any(d.code == "MC100" for d in diagnostics):
        return diagnostics  # did not compile; nothing further to check
    try:
        program = compile_source(text, name=name)
    except (CompileError, AsmError) as exc:
        # The front end accepted the program but codegen/assembly failed.
        code = "OBJ200" if isinstance(exc, AsmError) else "MC100"
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=exc.message,
                source=name,
                line=exc.line,
            )
        )
        return diagnostics
    diagnostics += verify_program(program, name=name)
    diagnostics += _static_passes(program, name, trace, max_steps)
    return diagnostics


def _static_passes(
    program, name: str, trace: bool, max_steps: int
) -> list[Diagnostic]:
    """The whole-program static engine (``STA40x``), plus — with *trace* —
    the trace sanitizer (``TR3xx``) and the static-vs-dynamic differential
    gate (``STA41x``) over one execution of the program."""
    from repro.analysis.static import analyze_static
    from repro.analysis.static.lint import lint_static

    facts = analyze_static(program)
    diagnostics = lint_static(program, name=name, facts=facts)
    if not trace:
        return diagnostics

    from repro.analysis.static.differential import check_static_vs_dynamic
    from repro.core.analyzer import LimitAnalyzer
    from repro.core.models import MachineModel
    from repro.vm import FastVM, sanitize_trace

    run = FastVM(program).run(max_steps=max_steps)
    diagnostics += sanitize_trace(run.trace, analysis=facts.analysis, name=name)
    result = LimitAnalyzer(program, facts.analysis).analyze(
        run.trace, models=[MachineModel.ORACLE]
    )
    diagnostics += check_static_vs_dynamic(
        facts, run.trace, result=result, halted=run.halted, name=name
    )
    return diagnostics


def _looks_like_minic(text: str) -> bool:
    return "int main" in text and "{" in text


def _looks_like_assembly(text: str) -> bool:
    return any(
        directive in text for directive in (".text", ".func", ".data")
    )


def _example_sources(path: Path) -> list[tuple[str, str, str]]:
    """(label, kind, text) for each embedded program in a ``.py`` file."""
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError:
        return []
    found: list[tuple[str, str, str]] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Constant):
            continue
        if not isinstance(node.value.value, str):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not targets:
            continue
        text = node.value.value
        label = f"{path}:{targets[0]}"
        if _looks_like_minic(text):
            found.append((label, "minic", text))
        elif _looks_like_assembly(text):
            found.append((label, "asm", text))
    return found


def _bench_targets(names: list[str]) -> list[str]:
    from repro.bench import SUITE

    if names == ["all"]:
        return sorted(SUITE)
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        raise SystemExit(
            f"repro-lint: unknown benchmark(s): {', '.join(unknown)} "
            f"(choices: {', '.join(sorted(SUITE))})"
        )
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static verifier for MiniC sources, object code, and "
        "dynamic traces.",
    )
    parser.add_argument("paths", nargs="*", metavar="FILE",
                        help="MiniC or assembly files to check")
    parser.add_argument(
        "--bench",
        nargs="+",
        metavar="NAME",
        default=[],
        help="benchmark(s) to lint and verify, or 'all'",
    )
    parser.add_argument(
        "--examples",
        metavar="DIR",
        help="lint program sources embedded in the .py files of DIR",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also execute each program and sanitize its trace",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=50_000,
        help="trace budget per program with --trace (default 50000)",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="warning",
        help="minimum severity that makes the exit status 1 "
        "(default: warning)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    if not args.paths and not args.bench and not args.examples:
        parser.error("nothing to lint: pass FILEs, --bench, or --examples")

    diagnostics: list[Diagnostic] = []
    checked = 0

    for path in args.paths:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            parser.error(f"cannot read {path}: {exc.strerror or exc}")
        checked += 1
        if path.endswith((".s", ".asm")):
            diagnostics += _lint_assembly(text, path, args.trace, args.max_steps)
        else:
            diagnostics += _lint_minic_source(
                text, path, args.trace, args.max_steps
            )

    if args.bench:
        from repro.bench import SUITE

        for name in _bench_targets(args.bench):
            spec = SUITE[name]
            checked += 1
            diagnostics += _lint_minic_source(
                spec.source(spec.default_scale),
                f"bench:{name}",
                args.trace,
                args.max_steps,
            )

    if args.examples:
        for path in sorted(Path(args.examples).glob("*.py")):
            for label, kind, text in _example_sources(path):
                checked += 1
                if kind == "asm":
                    diagnostics += _lint_assembly(
                        text, label, args.trace, args.max_steps
                    )
                else:
                    diagnostics += _lint_minic_source(
                        text, label, args.trace, args.max_steps
                    )

    diagnostics = sort_diagnostics(diagnostics)
    errors = sum(1 for d in diagnostics if d.severity >= Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
    notes = sum(1 for d in diagnostics if d.severity == Severity.NOTE)

    threshold = {
        "error": Severity.ERROR,
        "warning": Severity.WARNING,
        "never": None,
    }[args.fail_on]
    exit_code = (
        1
        if threshold is not None
        and any(d.severity >= threshold for d in diagnostics)
        else 0
    )

    if args.format == "json":
        print(
            json.dumps(
                {
                    "diagnostics": [d.to_json() for d in diagnostics],
                    "checked": checked,
                    "summary": {
                        "error": errors,
                        "warning": warnings,
                        "note": notes,
                    },
                    "exit": exit_code,
                },
                indent=2,
            )
        )
    else:
        if diagnostics:
            print(render_all(diagnostics))
        print(
            f"repro-lint: {checked} program(s) checked, "
            f"{errors} error(s), {warnings} warning(s)"
        )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
