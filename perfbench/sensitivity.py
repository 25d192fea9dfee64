"""Sensitivity self-check: does the benchmark see a layer that got 2x slower?

Run from the root of a checkout (about fifteen minutes)::

    python3 perfbench/sensitivity.py

For every workload and two seeds it measures the workload plain, traced, and
with the ``core`` and then the ``vm`` layer slowed: each wrapped call of
that layer spins for as long as the call took (``layers.Recorder``), so
the layer's calls take twice as long.  It then compares medians the way
a regression check would, against the bounds in ``BENCHMARK.json``.

The prediction for each (layer, workload) comes from the traced run: a
layer whose outermost calls cover a share *s* of the traced wall time
should add about *s* to ``norm_wall_s`` when slowed.  It must move
beyond its bound where *s* exceeds the bound by a margin, and stay within
it where *s* falls short of the bound by a margin; nearer the bound the
pair is reported as unresolved.  ``core`` runs in both suites and
flow-sweep, not in vm-trace.  ``vm`` runs in both suites (the legacy VM
in ablation-guarded on suite-warm) and in vm-trace, but not in
flow-sweep's timed phase.  Wherever the layer runs, its
``layer_self_s.<layer>`` must grow by at least half.

Exits 0 when every resolved prediction holds.
"""

from __future__ import annotations

import json
import statistics
import sys

import layers
import run

SLOWED = ("core", "vm")
#: How far from the bound a predicted change must be to be asserted.
MARGIN = 0.10
#: Seeds per (workload, instrument); each measures the benchmark's own
#: ``run_seconds``.
SEEDS = 2


def layer_share(workload: str, layer: str) -> float:
    """Share of the last traced run's wall time inside *layer*'s calls."""
    path = run.WORK_DIR / "spans" / workload / "spans.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    chains = layers.ancestors(records)
    roots = sum(r["dur"] for r in records if r["parent"] is None)

    def in_layer(record):
        return record["name"].split(".", 1)[0] == layer

    outer = sum(
        r["dur"] for r in records
        if in_layer(r) and not any(in_layer(a) for a in chains[r["id"]])
    )
    return outer / roots if roots else 0.0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "norm_wall_s")
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    run.warm_bytecode()

    # samples[(instrument, workload)][metric] -> one value per seed
    samples: dict = {}
    shares: dict = {}
    for workload in run.WORKLOADS:
        for seed in range(1, SEEDS + 1):
            for instrument in ["off", "trace"] + [f"slow:{layer}" for layer in SLOWED]:
                m = run.measure(workload, 1000 + seed, spec["run_seconds"], [instrument], refs)
                if m.failed:
                    print(f"{workload} {instrument}: {m.problems[:3]}", file=sys.stderr)
                    return 1
                values = run.end_to_end(m, instrument)
                if instrument != "off":
                    values.update(run.per_layer(m, instrument))
                if instrument == "trace":
                    for layer in SLOWED:
                        shares.setdefault((layer, workload), []).append(
                            layer_share(workload, layer)
                        )
                for metric, value in values.items():
                    samples.setdefault((instrument, workload), {}).setdefault(
                        metric, []
                    ).append(value)
                print(f"{workload} seed {seed} {instrument}: norm_wall_s "
                      f"{values['norm_wall_s']:.3f}", file=sys.stderr)

    def median(instrument, workload, metric):
        return statistics.median(samples[(instrument, workload)][metric])

    ok = True
    print(f"{'layer':5} {'workload':10} {'metric':18} {'share':>6} {'plain':>8} "
          f"{'slowed':>8} {'change':>7}  verdict (norm_wall_s bound {bound:.2f})")
    for layer in SLOWED:
        for workload in run.WORKLOADS:
            share = statistics.median(shares[(layer, workload)])
            checks = [("norm_wall_s", "off", share)]
            if share > 0:
                checks.append((f"layer_self_s.{layer}", "trace", None))
            for metric, base, predicted in checks:
                before = median(base, workload, metric)
                after = median(f"slow:{layer}", workload, metric)
                change = after / before - 1
                if predicted is None:
                    verdict = "ok" if change >= 0.5 else "WRONG (expected >= +50%)"
                elif predicted >= bound + MARGIN:
                    verdict = "ok" if change > bound else "WRONG (expected beyond bound)"
                elif predicted <= bound - MARGIN:
                    verdict = "ok" if change <= bound else "WRONG (expected within bound)"
                else:
                    verdict = "unresolved (share near the bound)"
                ok &= not verdict.startswith("WRONG")
                shown = "" if predicted is None else f"{predicted:6.1%}"
                print(f"{layer:5} {workload:10} {metric:18} {shown:>6} {before:8.3f} "
                      f"{after:8.3f} {change:+7.1%}  {verdict}")
    print("sensitivity self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
