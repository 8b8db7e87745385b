"""Print every metric of the cokerlab benchmark with its name and unit.

    python3 bench/show.py --seed N [--workload NAME|all]

Measures each chosen workload twice, untraced and traced, for the
``run_seconds`` of ``BENCHMARK.json`` each, as ``bench/run.py`` does, and
prints one line per metric: workload, name, value and unit.  A per-layer
line also names the end-to-end metric and the workloads that the layer map in
``bench/workloads.json`` says it should move.
Exits 1 if a report failed or a count did not repeat.
"""

from __future__ import annotations

import argparse
import sys

from run import MissingFiles, load_spec, measure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    try:
        bench, spec = load_spec()
        moves = {name: f"moves {layer['moves']} on {','.join(layer['on']) or '-'}"
                 for layer in spec["layers"] for name in layer["metrics"]}
        whys = {w["name"]: w["why"] for w in bench["workloads"]}
        names = list(whys) if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            print(f"# {name}: {whys[name]}")
            for trace in (False, True):
                result = measure(name, args.seed, bench["run_seconds"], trace)
                ok = ok and result["correct"]
                print(f"{name:14} {'attempted':34} {result['attempted']:>14} reports"
                      f" ({result['failed']} failed, correct={result['correct']})")
                for metric, entry in result["metrics"].items():
                    value = entry["value"]
                    text = f"{value:.6g}" if isinstance(value, float) else str(value)
                    print(f"{name:14} {metric:34} {text:>14} {entry['unit']:6}"
                          f" {moves.get(metric, '')}".rstrip())
    except MissingFiles as exc:
        print(f"show: cannot run: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
