"""Run the cokerlab CLI in-process with a span around every layer boundary.

    python3 bench/tracer.py SUMMARY.json SPANS.bin -- <cokerlab argv...>

The tracer imports ``cokerlab.cli``, wraps the functions named in ``OPS`` at
every place they are bound, runs ``cli.main`` on the argv, and exits with the
CLI's exit code.  Spans are kept in memory and written when the run ends:

* ``SPANS.bin`` holds four arrays back to back, one entry per span: the op id
  (``H``), the parent span index (``i``, -1 at the top level), and the start
  and end times in seconds (``d``, ``d``).  The op names, by id, are in the
  summary under ``ops``.
* ``SUMMARY.json`` holds ``exit``, ``post_s`` (time spent after the report
  was written, on summarising and on writing the spans), ``absent`` (ops
  none of whose names exist), ``span_count`` and ``metrics``, keyed
  ``<module>.<op>.<stat>``:

  - ``.s``: self seconds, the span time not covered by child spans;
  - ``.calls``: spans not nested directly in a span of the same op, so a call
    that passes through two bindings of one op (``det`` then ``_det_bareiss``)
    or recurses counts once per outermost entry;
  - the op's own counters (``term_pairs``, ``coeff_pairs``);
  - ``trace.wall.s`` and ``trace.uncovered.s``, the time inside ``cli.main``
    that no span covers.  The ``.s`` metrics of all ops plus
    ``trace.uncovered.s`` add up to ``trace.wall.s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Each op is one layer boundary: its metric prefix, and every name it is
# bound under, as "module:function" or "module:Class.method".  A function is
# rebound in every cokerlab module that imported it by name, and in
# module-level dicts such as the CLI's runner table.
OPS = {
    "arith.mpoly_mul": ["arith:MultiPoly.__mul__"],
    "arith.exact_divide": ["arith:exact_divide"],
    "arith.upoly_mul": ["arith:UniPoly.__mul__"],
    "arith.upoly_divmod": ["arith:UniPoly.__divmod__"],
    "arith.gcd": ["arith:gcd_univariate"],
    "matrices.det": ["matrices:det", "matrices:_det_bareiss", "matrices:_det_cofactor"],
    "matrices.adjugate_column": ["matrices:adjugate_column"],
    "matrices.solve_square": ["matrices:solve_square"],
    "matrices.build": ["matrices:build_a", "matrices:build_abar", "matrices:build_b",
                       "matrices:build_m"],
    "factor.factor_tau": ["factor:factor_tau"],
    "factor.squarefree": ["factor:_squarefree_parts"],
    "factor.distinct_degree": ["factor:_distinct_degree"],
    "factor.equal_degree": ["factor:_equal_degree"],
    "factor.random_poly": ["factor:_random_poly"],
    "factor.cyclotomic_division": ["factor:_cyclotomic_trial_division"],
    "factor.cyclotomic": ["factor:cyclotomic"],
    "cohomology.torsion_witness": ["cohomology:torsion_witness"],
    "cohomology.prime_witnesses": ["cohomology:prime_witnesses"],
    "cohomology.component_dd": ["cohomology:component_dd"],
    "cli.runner": ["cli:run_verify", "cli:run_factors", "cli:run_cohomology",
                   "cli:run_frobenius"],
    "cli.render": ["cli:render_json", "cli:render_csv", "cli:render_text"],
}


# Counters taken at the boundary from the call's arguments and result.

def _term_pairs(counts, args, result):
    a, b = args
    if isinstance(b, type(a)):
        counts["term_pairs"] += len(a) * len(b)


def _quotient_term_pairs(counts, args, result):
    if result is not None:
        counts["term_pairs"] += len(result) * len(args[1])


def _coeff_pairs(counts, args, result):
    a, b = args
    if isinstance(b, type(a)):
        counts["coeff_pairs"] += len(a.coeffs) * len(b.coeffs)


def _quotient_coeff_pairs(counts, args, result):
    counts["coeff_pairs"] += len(result[0].coeffs) * len(args[1].coeffs)


def _splits(counts, args, result):
    # A call on a block of more than one degree-k factor returns after
    # exactly one successful random split.
    f, k = args[0], args[1]
    if f.degree() > k:
        counts["splits"] += 1


def _found(counts, args, result):
    counts["found"] += len(result)


# op -> (hook, the counters it bumps)
COUNTERS = {
    "arith.mpoly_mul": (_term_pairs, ("term_pairs",)),
    "arith.exact_divide": (_quotient_term_pairs, ("term_pairs",)),
    "arith.upoly_mul": (_coeff_pairs, ("coeff_pairs",)),
    "arith.upoly_divmod": (_quotient_coeff_pairs, ("coeff_pairs",)),
    "factor.equal_degree": (_splits, ("splits",)),
    "factor.cyclotomic_division": (_found, ("found",)),
}


class Tracer:
    """Spans in four parallel arrays, plus per-op counters."""

    def __init__(self):
        self.ops: list = []
        self.op_ids: dict = {}
        self.op = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack = [-1]

    def wrap(self, op: str, fn):
        if op not in self.op_ids:
            self.op_ids[op] = len(self.ops)
            self.ops.append(op)
            self.counts[op] = Counter()
        op_id = self.op_ids[op]
        count, names = COUNTERS.get(op, (None, ()))
        self.counts[op].update(dict.fromkeys(names, 0))
        counts = self.counts[op]
        ops, parents, starts, ends, stack = (self.op, self.parent, self.start,
                                             self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ops.append(op_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every op at every binding; return the ops with no binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cokerlab" or name.startswith("cokerlab."))]
        absent = []
        for op, sites in OPS.items():
            for site in sites:
                module_name, _, attr = site.partition(":")
                owner = sys.modules.get(f"cokerlab.{module_name}")
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(name) if owner is not None else None
                if original is None:
                    continue
                wrapped = self.wrap(op, original)
                if path:
                    setattr(owner, name, wrapped)
                else:
                    _rebind(modules, original, wrapped)
            if op not in self.op_ids:
                absent.append(op)
        return absent

    def metrics(self, wall: float) -> dict:
        ops, op, parent = self.ops, self.op, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        top_level = 0.0
        for p, d in zip(parent, duration):
            if p < 0:
                top_level += d
            else:
                covered[p] += d
        self_s = [0.0] * len(ops)
        for o, d, c in zip(op, duration, covered):
            self_s[o] += d - c
        # (op, op of the parent span) -> number of spans
        edges = Counter((o, op[p] if p >= 0 else -1) for o, p in zip(op, parent))
        out = {}
        for i, name in enumerate(ops):
            out[f"{name}.s"] = self_s[i]
            out[f"{name}.calls"] = sum(n for (o, po), n in edges.items()
                                       if o == i and po != i)
            for counter, value in self.counts[name].items():
                out[f"{name}.{counter}"] = value
        ids = self.op_ids
        if "factor.equal_degree" in ids and "factor.random_poly" in ids:
            trials = out["factor.random_poly.calls"]
            splits = out.get("factor.equal_degree.splits", 0)
            out["factor.equal_degree.trials"] = trials
            out["factor.equal_degree.split_ratio"] = splits / trials if trials else 0.0
        if "factor.cyclotomic" in ids and "factor.cyclotomic_division" in ids:
            tried = edges[(ids["factor.cyclotomic"], ids["factor.cyclotomic_division"])]
            found = out.get("factor.cyclotomic_division.found", 0)
            out["factor.cyclotomic.hit_ratio"] = found / tried if tried else 0.0
        out["trace.wall.s"] = wall
        out["trace.uncovered.s"] = wall - top_level
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "wb") as fh:
            for column in (self.op, self.parent, self.start, self.end):
                column.tofile(fh)


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dict_key, dict_value in value.items():
                    if dict_value is original:
                        value[dict_key] = wrapped


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    summary_path, spans_path, cli_argv = Path(argv[0]), Path(argv[1]), argv[3:]
    from cokerlab import cli

    tracer = Tracer()
    absent = tracer.install()
    clock = time.perf_counter
    start = clock()
    code = cli.main(cli_argv)
    written = clock()
    metrics = tracer.metrics(written - start)
    tracer.write_spans(spans_path)
    summary = {"exit": code, "absent": absent,
               "ops": tracer.ops, "span_count": len(tracer.start), "metrics": metrics}
    summary["post_s"] = clock() - written
    summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
