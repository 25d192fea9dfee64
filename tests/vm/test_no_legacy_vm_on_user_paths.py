"""No user path runs the legacy interpreter.

:class:`~repro.vm.VM` is the differential oracle only.  Each test below
first records an oracle result (the legacy VM, or the same entry point
with its FastVM pointed at the legacy VM), then makes ``VM.run`` raise
and requires the production path to finish with the same result: FastVM
finishing its own budget tail, sentinel return and faults, and every tool
and API entry point that traces a program.
"""

import json
from contextlib import contextmanager

import pytest

from repro.api import analyze_program
from repro.asm import assemble
from repro.experiments.ablations import guarded_ablation
from repro.lint_cli import main as lint_main
from repro.tools import main as cc_main
from repro.vm import VM, FastVM, VMError, run_program
from tests.vm.engines import observables
from tests.vm.test_fastvm import COUNT_LOOP

#: Where each entry point looks FastVM up.  Pointing them all at the
#: legacy VM turns the entry point into its own oracle.
FASTVM_LOOKUPS = (
    "repro.vm.FastVM",
    "repro.vm.fastvm.FastVM",
    "repro.api.FastVM",
    "repro.tools.FastVM",
)

MINIC = """
int main() {
    int total = 0;
    for (int i = 0; i < 40; i++) {
        if (i % 3 == 0) total += i; else total -= 1;
    }
    print_int(total);
    return total;
}
"""


#: Long enough that every budget below it ends in FastVM's step loop.
SHORT_BUDGETS = range(FastVM(assemble(COUNT_LOOP))._decoded.max_block + 3)


def _refuse(self, *args, **kwargs):
    raise AssertionError("the legacy VM ran on a user path")


@contextmanager
def legacy_refused():
    """Every call of ``VM.run`` inside the block fails."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VM, "run", _refuse)
        yield


def oracle_then_refused(call):
    """``call()`` with FastVM replaced by VM, then with ``VM.run`` refused."""
    with pytest.MonkeyPatch.context() as patch:
        for lookup in FASTVM_LOOKUPS:
            patch.setattr(lookup, VM)
        expected = call()
    with legacy_refused():
        actual = call()
    return expected, actual


class TestFastVMFinishesItsOwnRuns:
    @pytest.mark.parametrize("budget", SHORT_BUDGETS)
    def test_every_short_budget(self, budget):
        program = assemble(COUNT_LOOP)
        expected = observables(VM(program).run(max_steps=budget))
        with legacy_refused():
            assert observables(FastVM(program).run(max_steps=budget)) == expected

    @pytest.mark.parametrize("trace", [True, False])
    def test_whole_run(self, trace):
        program = assemble(COUNT_LOOP)
        expected = observables(VM(program).run(trace=trace))
        with legacy_refused():
            assert observables(FastVM(program).run(trace=trace)) == expected

    def test_sentinel_return(self):
        program = assemble("li $v0, 42\njr $ra")
        expected = observables(VM(program).run())
        with legacy_refused():
            result = FastVM(program).run()
        assert result.halted and observables(result) == expected

    @pytest.mark.parametrize(
        "source",
        ["nop", "li $t9, 9999\njalr $t9\nhalt", "li $t0, -5\nsw $t0, 0($t0)\nhalt"],
        ids=["fall-off-end", "jalr-garbage", "negative-store"],
    )
    def test_faults(self, source):
        program = assemble(source)
        with pytest.raises(VMError) as oracle:
            VM(program).run()
        with legacy_refused():
            with pytest.raises(VMError) as fast:
                FastVM(program).run()
        assert str(fast.value) == str(oracle.value)


class TestEntryPoints:
    def test_run_program(self):
        program = assemble(COUNT_LOOP)
        expected, actual = oracle_then_refused(
            lambda: observables(run_program(program, max_steps=250))
        )
        assert actual == expected

    def test_analyze_program(self):
        program = assemble(COUNT_LOOP)
        expected, actual = oracle_then_refused(lambda: analyze_program(program))
        assert actual == expected

    @pytest.mark.parametrize(
        "argv", [["run"], ["run", "--max-steps", "37"], ["analyze"]]
    )
    def test_repro_cc(self, argv, tmp_path, capsys):
        path = tmp_path / "prog.c"
        path.write_text(MINIC)

        def call():
            assert cc_main([argv[0], str(path), *argv[1:]]) == 0
            return capsys.readouterr().out

        expected, actual = oracle_then_refused(call)
        assert actual == expected

    def test_repro_lint_trace(self, capsys):
        argv = ["--bench", "eqntott", "--trace", "--max-steps", "20000",
                "--format", "json"]

        def call():
            code = lint_main(argv)
            return code, json.loads(capsys.readouterr().out)

        expected, actual = oracle_then_refused(call)
        assert actual == expected

    def test_guarded_ablation(self):
        expected, actual = oracle_then_refused(
            lambda: guarded_ablation(max_steps=20_000).rows
        )
        assert actual == expected

