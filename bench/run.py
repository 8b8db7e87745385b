"""cokerlab benchmark: one workload's CLI configuration, in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout this file sits in.  The
program is the checkout's ``src/cokerlab``, run with ``PYTHONPATH=src``.  The
workloads and the layer-to-metric map are in ``bench/workloads.json``; metric
names and units are in ``BENCHMARK.json``.

Every report is a fresh ``python3 -m cokerlab.cli <argv> --seed K`` process,
run one after another, so that no cache carries work from one report to the
next, as for a user running the CLI.  A report fails if the process exits
nonzero, the report says ``"all_pass": false``, or the report differs from
``bench/reference/<workload>.json`` once its ``seed`` line is set to null.
The references were written by the CLI at the commit that added the
benchmark; report content does not depend on the seed.

Every sample is followed by a calibration process, a fixed pure-Python job.
A sample's normalised time is its wall time times ``CALIBRATION_REF_S`` over
the mean of the calibrations on either side of it: seconds on a host where
the calibration takes ``CALIBRATION_REF_S``.  On a shared two-core x86 VM the
wall time of every process drifted by up to 40% within minutes; over 30 s
windows, the spread (interquartile range over median) of median report times
was 0.34-0.40 raw and 0.04-0.06 normalised.  All times reported below are
normalised; stderr lists the raw calibration times.

``--trace 0`` reports, with sample counts on stderr:

* ``report_s``: median normalised time from spawning a report process until
  it has exited.  Sample j passes the CLI ``--seed (N + j) % CLI_SEEDS``.  The
  time of the randomized F_p factorization varies by about 14% from seed to
  seed, so every run cycles through the same few seeds, and N only sets
  where the cycle starts;
* ``setup_s``: median normalised time of a fresh process that imports
  ``cokerlab.cli`` and turns the workload's argv into a ``RunConfig``;
* ``peak_rss_mb``: median peak resident set of the report processes;
* ``pass_frac``: reports that passed over reports attempted.

``--trace 1`` alternates untraced report processes with processes run under
``bench/tracer.py``, all at ``--seed N % CLI_SEEDS``, and reports the ``per_layer``
metrics of ``BENCHMARK.json``: counts from the traced processes, which must
repeat exactly, and the median of their normalised times.
``trace.overhead_frac`` is the median traced report time over the median
untraced one, minus 1, and ``bench.calibration_wall.s`` the median raw
calibration time.

The last line of stdout is the JSON result.  The exit code is 0 when a result
is printed and 2 when the checkout holds no program or benchmark files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
CLI_SEEDS = 8
CLI = ["-m", "cokerlab.cli"]
# Every child is killed by this many seconds into a run, so a run ends
# within 180 s even if the program hangs.
HARD_LIMIT_S = 150.0
SETUP_CODE = ("import sys\n"
              "from cokerlab import cli\n"
              "cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))\n")
# A fixed pure-Python job (dict and tuple hashing, int arithmetic), the same
# kind of work as the program's, run in a fresh process after every sample.
CALIBRATION_CODE = ("acc = {}\n"
                    "for i in range(200000):\n"
                    "    key = (i % 97, i % 89)\n"
                    "    acc[key] = acc.get(key, 0) + i * 3\n")
# Normalised seconds are wall seconds on a host where the calibration job
# takes this long.
CALIBRATION_REF_S = 0.15
SEED_LINE = re.compile(rb'^  "seed": (?:null|-?\d+),$', re.M)


class MissingFiles(Exception):
    """The checkout lacks the program or a benchmark file."""


def load_spec() -> tuple:
    """(BENCHMARK.json, bench/workloads.json) as dicts."""
    try:
        return (json.loads((ROOT / "BENCHMARK.json").read_text()),
                json.loads((BENCH / "workloads.json").read_text()))
    except FileNotFoundError as exc:
        raise MissingFiles(str(exc)) from None


def normalise(report: bytes):
    """The report with its envelope seed set to null, or None without one."""
    out, n = SEED_LINE.subn(b'  "seed": null,', report)
    return out if n == 1 else None


def report_problem(path: Path, code: int, reference: bytes):
    """Why a report fails, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = path.read_bytes()
    except FileNotFoundError:
        return "no report written"
    try:
        all_pass = json.loads(report).get("all_pass", True)
    except ValueError:
        return "report is not JSON"
    if all_pass is not True:
        return "all_pass is not true"
    if normalise(report) != reference:
        return "differs from the reference report"
    return None


def load_reference(name: str) -> bytes:
    try:
        return (BENCH / "reference" / f"{name}.json").read_bytes()
    except FileNotFoundError as exc:
        raise MissingFiles(str(exc)) from None


class Runner:
    """Runs children from the checkout root and times them."""

    def __init__(self, hard_deadline: float):
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list, stderr_path: Path) -> tuple:
        """(wall seconds, exit code, peak RSS in KiB) of one child."""
        timeout = max(self.hard_deadline - time.perf_counter(), 1.0)
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            lock = threading.Lock()
            exited = False

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # Wait without reaping, so the pid stays valid for kill().
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                seconds = time.perf_counter() - start
                with lock:
                    exited = True
            finally:
                timer.cancel()
                timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss


def run_report(runner: Runner, spec: dict, name: str, kind: str, cli_seed: int,
               reference: bytes) -> tuple:
    """One report process, ``plain`` or ``traced``, checked against the
    reference: (wall seconds, peak RSS in KiB, tracer summary or None,
    problem or None)."""
    report_path = OUT / f"{name}.report.json"
    summary_path = OUT / f"{name}.summary.json"
    stderr_path = OUT / f"{name}.stderr"
    cli_args = [*spec["workloads"][name]["argv"], "--seed", str(cli_seed),
                "--output", str(report_path)]
    if kind == "traced":
        child = [str(BENCH / "tracer.py"), str(summary_path),
                 str(OUT / f"{name}.spans.bin"), "--", *cli_args]
    else:
        child = [*CLI, *cli_args]
    report_path.unlink(missing_ok=True)
    wall, code, peak_kib = runner.run(child, stderr_path)
    problem = report_problem(report_path, code, reference)
    if problem is not None:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        return wall, peak_kib, None, f"{kind} report at seed {cli_seed}: {problem} {tail}"
    summary = None
    if kind == "traced":
        summary = json.loads(summary_path.read_text())
        wall -= summary["post_s"]
        summary["metrics"]["cli.report_bytes"] = report_path.stat().st_size
    return wall, peak_kib, summary, None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; the result object of the
    benchmark contract."""
    bench, spec = load_spec()
    if name not in spec["workloads"]:
        raise MissingFiles(f"no workload {name!r} in bench/workloads.json")
    reference = load_reference(name)
    for needed in (ROOT / "src" / "cokerlab" / "cli.py", BENCH / "tracer.py"):
        if not needed.is_file():
            raise MissingFiles(f"{needed} is missing")
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + seconds
    runner = Runner(start + HARD_LIMIT_S)
    stderr_path = OUT / f"{name}.stderr"
    problems: list = []
    calibrations = [runner.run(["-c", CALIBRATION_CODE], stderr_path)[0]]

    def calibrate() -> float:
        """Calibrate after a sample; the factor that turns its wall time
        into normalised seconds."""
        calibrations.append(runner.run(["-c", CALIBRATION_CODE], stderr_path)[0])
        return 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])

    setup_argv = ["-c", SETUP_CODE, *spec["workloads"][name]["argv"],
                  "--seed", str(seed % CLI_SEEDS)]
    runner.run(setup_argv, stderr_path)  # warm the bytecode cache
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, code, _ = runner.run(setup_argv, stderr_path)
        setup.append(wall * calibrate())
        if code != 0:
            problems.append(f"set-up exit code {code}")

    kinds = ["plain", "traced"] if trace else ["plain"]
    times = {kind: [] for kind in kinds}  # normalised, passing reports only
    longest = dict.fromkeys(kinds, 0.0)
    rss: list = []
    layers: list = []
    attempted = failed = 0
    while True:
        kind = kinds[attempted % len(kinds)]
        # Once every kind has run, start no report that would end past the
        # deadline.
        if attempted >= len(kinds):
            now = time.perf_counter()
            if now + longest[kind] + max(calibrations) > deadline:
                break
            if now >= runner.hard_deadline:
                problems.append("hard time limit reached")
                break
        cli_seed = (seed + (0 if trace else attempted)) % CLI_SEEDS
        wall, peak_kib, summary, problem = run_report(runner, spec, name, kind,
                                                      cli_seed, reference)
        scale = calibrate()
        attempted += 1
        longest[kind] = max(longest[kind], wall)
        if problem is not None:
            failed += 1
            problems.append(problem)
            continue
        times[kind].append(wall * scale)
        if summary is not None:
            layer = summary["metrics"]
            for key in layer:
                if key.endswith(".s"):
                    layer[key] *= scale
            layers.append(layer)
        else:
            rss.append(peak_kib / 1024)

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"bench: {name} seed {seed}: {attempted} reports, {failed} failed; normalised "
          + "; ".join(f"{k} s: {' '.join(f'{t:.3f}' for t in v)}" for k, v in times.items())
          + f"; setup s: {' '.join(f'{t:.4f}' for t in setup)}"
          + f"; calibration wall s: {' '.join(f'{t:.3f}' for t in calibrations)}",
          file=sys.stderr)

    if trace:
        metrics, mismatched = layer_metrics(layers, times)
        metrics["bench.calibration_wall.s"] = statistics.median(calibrations)
        problems += mismatched
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {
            "report_s": median_or_none(times["plain"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": median_or_none(rss),
            "pass_frac": (attempted - failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    absent = [n for n in units if metrics.get(n) is None]
    if absent:
        print(f"bench: absent metrics: {' '.join(absent)}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                    if metrics.get(n) is not None},
    }


def median_or_none(values: list):
    return statistics.median(values) if values else None


def layer_metrics(layers: list, times: dict) -> tuple:
    """Per-layer metrics from traced summaries, and any count that did not
    repeat.  Names ending in ``.s`` are times (the median is taken); every
    other metric must be equal in every traced process."""
    if not layers:
        return {}, []
    metrics = dict(layers[0])
    mismatched = []
    for key, value in metrics.items():
        values = [layer.get(key) for layer in layers]
        if key.endswith(".s"):
            metrics[key] = statistics.median(values)
        elif any(v != value for v in values):
            mismatched.append(f"{key} did not repeat: {values}")
    if times["plain"] and times["traced"]:
        metrics["trace.overhead_frac"] = (statistics.median(times["traced"])
                                          / statistics.median(times["plain"]) - 1)
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingFiles as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
