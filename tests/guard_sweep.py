"""Guard sweep: delete each ``raise`` statement of src/cokerlab, one at a time,
and run Tier-1 on what is left.

A guard whose deletion leaves Tier-1 green survives: no test needs it.  The
sweep copies the checkout (without .git) into a temporary directory once,
checks that Tier-1 passes there unmutated, and then, for each ``raise`` in
src/cokerlab/*.py, replaces that one statement with ``pass``, runs Tier-1
there with ``-x``, and restores the file.  A failed run counts as killed,
and so does a run that takes five times as long as the unmutated one: some
deletions loop for ever.  Runs are one at a time, and nothing is written
into the checkout.

    python tests/guard_sweep.py

Prints one line per site, then the survivors; exits 1 if any guard survived.
Pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "cokerlab"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
MEMORY_LIMIT = 2 << 30  # bytes of address space for each Tier-1 run


def raise_sites(source: str) -> list:
    """(line, end line, start column, end column) of each raise statement."""
    return sorted((node.lineno, node.end_lineno, node.col_offset, node.end_col_offset)
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def without_statement(source: str, site: tuple) -> str:
    """source with the statement at site replaced by pass; the lines after it
    keep their numbers."""
    line, end_line, col, end_col = site
    lines = source.splitlines(keepends=True)
    head = lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:]
    return "".join(lines[:line - 1] + [head + "pass" + "\n" * (end_line - line) + tail]
                   + lines[end_line:])


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tier1(tree: Path, timeout: Optional[float]) -> tuple:
    """(outcome, seconds) of one Tier-1 run in tree: passed, failed or timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    process = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True,
                               preexec_fn=_limit_memory)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return "timeout", time.monotonic() - start
    return ("passed" if code == 0 else "failed"), time.monotonic() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="guard-sweep-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        outcome, seconds = run_tier1(tree, None)
        print(f"unmutated: {outcome} in {seconds:.0f} s", flush=True)
        if outcome != "passed":
            return 2
        timeout = 5 * seconds
        survivors, tally = [], {"failed": 0, "timeout": 0, "passed": 0}
        for path in sorted((tree / PACKAGE).glob("*.py")):
            source = path.read_text()
            for site in raise_sites(source):
                name = f"{path.name}:{site[0]}"
                path.write_text(without_statement(source, site))
                try:
                    outcome, seconds = run_tier1(tree, timeout)
                finally:
                    path.write_text(source)
                tally[outcome] += 1
                verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
                print(f"{name}: {verdict} in {seconds:.0f} s", flush=True)
                if outcome == "passed":
                    survivors.append(f"{name}  {source.splitlines()[site[0] - 1].strip()}")
    print(f"{sum(tally.values())} sites: {tally['failed']} killed by a failing test, "
          f"{tally['timeout']} by the timeout, {tally['passed']} survived")
    for line in survivors:
        print(f"  survivor {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
