"""Run one program on both VM engines and require the same observables.

The machine-semantics unit tests run every program on the oracle
interpreter (:class:`~repro.vm.VM`) and on :class:`~repro.vm.FastVM`, the
engine every tool runs, so each test checks the oracle directly and the
production engine against it.
"""

import pytest

from repro.vm import VM, FastVM, VMError

ENGINES = (VM, FastVM)


def observables(result):
    """Everything a run exposes: state, output, profile and trace."""
    return (
        result.steps,
        result.halted,
        result.exit_value,
        result.output,
        result.branch_profile,
        list(result.trace.pcs),
        list(result.trace.addrs),
        list(result.trace.takens),
    )


def run_both(program, max_steps=1_000_000, trace=True):
    """Run *program* on each engine, assert they agree, return one result."""
    legacy, fast = (
        engine(program).run(max_steps=max_steps, trace=trace) for engine in ENGINES
    )
    assert observables(fast) == observables(legacy)
    return fast


def faults_alike(program, match):
    """Assert both engines raise the same :class:`VMError` matching *match*."""
    messages = []
    for engine in ENGINES:
        with pytest.raises(VMError, match=match) as err:
            engine(program).run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
