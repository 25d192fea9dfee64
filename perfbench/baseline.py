"""One traced cold run of all sixteen experiments, set beside ROADMAP's baseline.

Run from the root of a checkout (about three minutes at 1M)::

    python3 perfbench/baseline.py

Prints the numbers the ROADMAP re-anchor quotes, measured by the
benchmark's own spans, and leaves the spans under
``.perfbench/spans/baseline`` for ``repro-trace``.  Output is not
checked against references (they exist only at the benchmark's own
budgets).
"""

from __future__ import annotations

import json
import shutil
from collections import defaultdict

from layers import ancestors, self_times
from run import WORK_DIR, spawn, warm_bytecode

#: The trace budget of the ROADMAP's baseline.
MAX_STEPS = 1_000_000


def main() -> int:
    warm_bytecode()
    scratch = WORK_DIR / "baseline"
    spans_dir = WORK_DIR / "spans" / "baseline"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        result, _ = spawn(scratch, "suite", {
            # No experiment names: repro-experiments runs all sixteen, as
            # the ROADMAP baseline did (ablation-convergence included).
            "phase": "suite", "order": [], "max_steps": MAX_STEPS,
            "cache_dir": str(scratch / "cache"), "instrument": "trace",
            "spans_dir": str(spans_dir),
        }, timeout=1800)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    m = result["layers"][0]
    records = [json.loads(line) for line in open(spans_dir / "spans.jsonl")]
    own = self_times(records)

    def total(name):
        return sum(r["dur"] for r in records if r["name"] == name)

    chains = ancestors(records)
    farm = [0, 0.0]  # analyze calls run as farm jobs, and their seconds
    seven = defaultdict(lambda: [0, 0.0, 0.0])  # records, self s, whole-call s
    flows = defaultdict(float)
    for r in records:
        a = r["attrs"]
        if r["name"] != "core.analyze":
            continue
        if any(p["name"] == "jobs.execute" for p in chains[r["id"]]):
            farm[0] += 1
            farm[1] += r["dur"]
        if a["flow_limit"] is None and a["models"] == 7:
            seven[a["program"]][0] += a["records"]
            seven[a["program"]][1] += own[r["id"]]
            seven[a["program"]][2] += r["dur"]
        if a["program"] == "gcc" and a["model_set"] == ["CD-MF", "SP-CD-MF"]:
            flows[a["flow_limit"]] = max(flows[a["flow_limit"]], own[r["id"]])
    rows = [
        ("end to end", f"{result['wall_s']:.1f} s", "2m02s"),
        ("analyze, farm jobs", f"{farm[1]:.1f} s over {farm[0]} calls",
         "45.9 s CPU over 67 jobs"),
        ("analyze, all calls", f"{total('core.analyze'):.1f} s over "
         f"{m['core.analyze_calls']:.0f} calls", "-"),
        ("trace (vm.run incl. RTRC writes)", f"{total('vm.run'):.1f} s over "
         f"{m['vm.runs']:.0f} runs", "18.0 s over 38 jobs"),
        ("profile training", f"{m['prediction.train_s']:.1f} s", "2.6 s"),
        ("ablation-flows", f"{m['experiments.ablation-flows_s']:.1f} s", "38 s"),
        ("gcc flow_limit=1 / unlimited", f"{flows.get(1, 0):.1f} s / "
         f"{flows.get(None, 0):.1f} s", "23 s / 1.2 s"),
        ("FastVM (self, excl. writes)", f"{m['vm.msteps_per_s']:.2f} Msteps/s",
         "1.7-1.9 Msteps/s"),
        ("legacy VM", f"{m['vm.legacy_steps'] / m['vm.legacy_s'] / 1e6:.2f} Msteps/s"
         if m["vm.legacy_s"] else "-", "0.2 Msteps/s"),
        ("RTRC read", f"{m['trace_io.records_read'] / m['trace_io.read_s'] / 1e6:.1f} "
         "M records/s", "6 M records/s"),
    ] + [
        (f"7-model analysis, {name} (self/whole)",
         f"{n / own_s / 1e6:.2f} / {n / whole_s / 1e6:.2f} M instr/s", "~0.5 M instr/s")
        for name, (n, own_s, whole_s) in sorted(seven.items()) if own_s
    ]
    for label, ours, roadmap in rows:
        print(f"{label:42} {ours:30} ROADMAP: {roadmap}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
