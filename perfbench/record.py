"""Re-record ``references.json`` from the current sources.

Run from the root of a checkout::

    python3 perfbench/record.py

The references fix each workload's trace budget and the outputs every
run is checked against: the SHA-256 of each experiment's output (the
suite's standard output, split by experiment so that the seed may
reorder them), the exact (sequential, parallel) times of every
flow-sweep analyze call, and each vm-trace program's step count and
RTRC file digest.  A change that alters results on purpose
re-records them in the same commit and says so; any other change must
leave them as they are.
"""

from __future__ import annotations

import json
import re
import shutil

from run import (
    EXPERIMENTS, FLOW_LIMITS, NON_NUMERIC, PROGRAMS, REFERENCES, WORK_DIR, sha256,
    spawn, warm_bytecode,
)

#: Trace budget of the suite workloads: the farm plans 69 jobs (39
#: analyses over 10 traces) and a cold run takes about 8 s, so a run
#: times several.
SUITE_STEPS = 60_000
#: Trace budget of the flow sweep: long enough that the flow ledger's
#: superlinear cost shows (eqntott's k=1 sweep runs ~15x its unlimited
#: one), short enough that a run times several passes.
SWEEP_STEPS = 50_000
#: Trace budget of vm-trace: ten traces take about 3 s, so a run times
#: several.
TRACE_STEPS = 200_000


def references() -> dict:
    """Run the suite, the sweep and the traces once; return their references."""
    scratch = WORK_DIR / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    warm_bytecode()
    try:
        suite, _ = spawn(scratch, "suite", {
            "phase": "suite", "order": list(EXPERIMENTS), "max_steps": SUITE_STEPS,
            "cache_dir": str(scratch / "cache-suite"), "instrument": "off",
        })
        if suite["exit_code"] != 0:
            raise SystemExit("repro-experiments failed; nothing recorded")
        sweep, _ = spawn(scratch, "sweep", {
            "phase": "sweep", "programs": list(NON_NUMERIC),
            "flow_limits": list(FLOW_LIMITS), "max_steps": SWEEP_STEPS,
            "cache_dir": str(scratch / "cache-sweep"), "seconds": 0,
            "min_passes": 1, "instrument": "off",
        })
        traces, _ = spawn(scratch, "trace", {
            "phase": "trace", "programs": list(PROGRAMS), "max_steps": TRACE_STEPS,
            "cache_dir": str(scratch / "cache-trace"), "instrument": "off",
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values: dict = {name: {} for name in NON_NUMERIC}
    for name, k, per_model in sweep["passes"][0]["values"]:
        values[name][str(k)] = per_model
    return {
        "suite": {
            "max_steps": SUITE_STEPS,
            "experiments": {
                name: sha256(suite["outputs"][name].encode("utf-8"))
                for name in EXPERIMENTS
            },
        },
        "flow_sweep": {"max_steps": SWEEP_STEPS, "values": values},
        "vm_trace": {"max_steps": TRACE_STEPS, "traces": traces["traces"]},
    }


def write(refs: dict) -> None:
    text = json.dumps(refs, indent=1, sort_keys=True)
    # One (sequential, parallel) pair per line keeps the file reviewable.
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)
    REFERENCES.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    write(references())
    print(f"wrote {REFERENCES}")
