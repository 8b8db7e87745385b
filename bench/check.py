"""The benchmark's own checks.

    python3 bench/check.py

For each workload, two traced report processes run at CLI seed ``SEEDS[0]``
and one untraced process at ``SEEDS[1]``.  Every report must match the
pinned reference once its seed line is normalised, so the reports at the two
seeds are equal.  The other checks:

* every per-layer metric of ``BENCHMARK.json`` that the tracer reports
  (all but ``RUN_METRICS``) is present, and every count metric (name not
  ending in ``.s``) is equal in the two traced runs;
* the bypass predictions under ``predictions`` in ``bench/workloads.json``
  hold;
* every per-layer metric of ``BENCHMARK.json`` is in exactly one layer of the
  layer map, and the workloads of the two files agree.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from run import OUT, MissingFiles, Runner, layer_metrics, load_reference, load_spec, run_report

SEEDS = (1, 2)
# Per-layer metrics that run.py computes from untraced runs and calibration.
RUN_METRICS = {"trace.overhead_frac", "bench.calibration_wall.s"}


def static_checks(bench: dict, spec: dict) -> list:
    failures = []
    per_layer = [m["name"] for m in bench["per_layer"]]
    mapped = Counter(name for layer in spec["layers"] for name in layer["metrics"])
    for name in per_layer:
        if mapped[name] != 1:
            failures.append(f"{name} is in {mapped[name]} layers of the layer map")
    for name in set(mapped) - set(per_layer):
        failures.append(f"{name} is in the layer map but not in BENCHMARK.json")
    if {w["name"] for w in bench["workloads"]} != set(spec["workloads"]):
        failures.append("BENCHMARK.json and bench/workloads.json list different workloads")
    return failures


def workload_checks(bench: dict, spec: dict, name: str) -> list:
    reference = load_reference(name)
    runner = Runner(time.perf_counter() + 600)
    summaries = []
    for kind, seed in (("traced", SEEDS[0]), ("traced", SEEDS[0]), ("plain", SEEDS[1])):
        _, _, summary, problem = run_report(runner, spec, name, kind, seed, reference)
        if problem is not None:
            return [problem]
        if summary is not None:
            summaries.append(summary["metrics"])

    first = summaries[0]
    _, failures = layer_metrics(summaries, {"plain": [], "traced": []})
    for metric in bench["per_layer"]:
        if metric["name"] not in RUN_METRICS and metric["name"] not in first:
            failures.append(f"{metric['name']} is absent")
    for metric, expected in spec["workloads"][name]["predictions"].items():
        if first.get(metric) != expected:
            failures.append(f"prediction {metric} == {expected} failed: {first.get(metric)}")
    return failures


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    try:
        bench, spec = load_spec()
        results = [("layer map", static_checks(bench, spec))]
        OUT.mkdir(exist_ok=True)
        for name in spec["workloads"]:
            results.append((name, workload_checks(bench, spec, name)))
    except MissingFiles as exc:
        print(f"check: cannot run: {exc}", file=sys.stderr)
        return 2
    ok = True
    for name, failures in results:
        print(f"{name}: {'PASS' if not failures else 'FAIL'}")
        for failure in failures:
            print(f"  {failure}")
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
