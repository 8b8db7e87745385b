"""Command-line front end emitting deterministic verification reports.

Identical configurations (command, field, ranges, seed) produce byte
identical JSON: reports carry no timestamps, factor lists are sorted
canonically, and keys are emitted sorted.  Exit codes: 0 all checks pass,
1 a mathematical check failed, 2 usage or configuration error, or an
unwritable --output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .arith import Field, Monomial, MultiPoly, tau
from .cohomology import (
    column_bidegree,
    component_dd,
    prime_witnesses,
    torsion_witness,
)
from .factor import accumulate_distinct, factor_tau, missing_prime_power_indices
from .frobenius import CASE_AT_N_PLUS_1, witness_growth
from .matrices import build_a, build_b, det

MAX_INDEX = 200
MAX_D = 100
MAX_N = 100

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Configuration rejected before any computation ran."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    field: Field
    fmt: str
    output: Optional[Path]
    seed: Optional[int]
    max_i: Optional[int] = None
    index_set: Optional[tuple] = None
    d_min: Optional[int] = None
    d_max: Optional[int] = None
    n_set: Optional[tuple] = None


def parse_index_set(text: str) -> tuple:
    """Parse a set expression: comma-separated integers and a..b ranges."""
    items: list = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise UsageError(f"empty entry in set expression {text!r}")
        if ".." in piece:
            lo_text, _, hi_text = piece.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad range {piece!r}") from None
            if hi < lo:
                raise UsageError(f"descending range {piece!r}")
            items.extend(range(lo, hi + 1))
        else:
            try:
                items.append(int(piece))
            except ValueError:
                raise UsageError(f"bad integer {piece!r}") from None
    seen = set()
    unique = []
    for value in items:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    if not unique:
        raise UsageError("empty index set")
    return tuple(unique)


def _parse_field(spec: str) -> Field:
    try:
        return Field.from_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cokerlab",
        description="Exact verification of the tridiagonal determinant identity, "
                    "cokernel torsion certificates, and irreducible-factor growth.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="q", metavar="q|fp:P",
                        help="coefficient field (default: q)")
    common.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--format", dest="fmt", choices=["json", "csv", "text"],
                        default="json", help="report format (default: json)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized factor splitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemma1", parents=[common],
                       help="check det(B_i) = tau_i and the first-row recurrence")
    p.add_argument("--max-i", type=int, required=True, dest="max_i")

    p = sub.add_parser("factors", parents=[common],
                       help="factor tau_i over an index set and track distinct factors")
    p.add_argument("--set", required=True, dest="index_set", metavar="EXPR",
                   help="index set, e.g. 1..20 or 1,7,25")

    p = sub.add_parser("cohomology", parents=[common],
                       help="per-degree torsion certificates and prime witnesses")
    p.add_argument("--d-min", type=int, required=True, dest="d_min")
    p.add_argument("--d-max", type=int, required=True, dest="d_max")

    p = sub.add_parser("frobenius", parents=[common],
                       help="collapse checks and witness growth for the quartic quotients")
    p.add_argument("--n-set", required=True, dest="n_set", metavar="EXPR",
                   help="set of n values, e.g. 6..12 or 6,8,10")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    field = _parse_field(args.field)
    kwargs = dict(command=args.command, field=field, fmt=args.fmt,
                  output=args.output, seed=args.seed)
    if args.command == "verify-lemma1":
        if not 1 <= args.max_i <= MAX_INDEX:
            raise UsageError(f"--max-i must be in 1..{MAX_INDEX}")
        kwargs["max_i"] = args.max_i
    elif args.command == "factors":
        indices = parse_index_set(args.index_set)
        if any(not 1 <= i <= MAX_INDEX for i in indices):
            raise UsageError(f"indices must be in 1..{MAX_INDEX}")
        kwargs["index_set"] = indices
    elif args.command == "cohomology":
        if args.d_min < 2 or args.d_max > MAX_D or args.d_min > args.d_max:
            raise UsageError(f"need 2 <= d-min <= d-max <= {MAX_D}")
        kwargs["d_min"] = args.d_min
        kwargs["d_max"] = args.d_max
    elif args.command == "frobenius":
        n_values = parse_index_set(args.n_set)
        if any(not 6 <= n <= MAX_N for n in n_values):
            raise UsageError(f"n values must be in 6..{MAX_N}")
        kwargs["n_set"] = n_values
    return RunConfig(**kwargs)


def _envelope(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "version": __version__,
        "field": config.field.spec,
        "seed": config.seed,
    }


# ----------------------------------------------------------------------------
# Command payloads.


def run_verify(config: RunConfig) -> tuple:
    field = config.field
    results = []
    all_pass = True
    dets: list = []
    tau1 = tau(1, field)  # -t-s, the recurrence multiplier
    st = MultiPoly.term(field, 1, Monomial.from_dict({"s": 1, "t": 1}))
    for i in range(1, config.max_i + 1):
        d = det(build_b(i, field))
        dets.append(d)
        t_i = tau(i, field)
        identity_ok = d == t_i
        recurrence_ok = None
        if i >= 3:
            recurrence_ok = d == tau1 * dets[i - 2] - st * dets[i - 3]
        ok = identity_ok and recurrence_ok is not False
        all_pass = all_pass and ok
        results.append({
            "i": i,
            "det_b": str(d),
            "tau": str(t_i),
            "identity": identity_ok,
            "recurrence": recurrence_ok,
        })
    payload = _envelope(config)
    payload.update({"max_i": config.max_i, "results": results, "all_pass": all_pass})
    return payload, all_pass


def run_factors(config: RunConfig) -> tuple:
    field = config.field
    warnings = []
    if not field.is_rationals and missing_prime_power_indices(config.index_set, field.p):
        warnings.append(
            f"index set contains no integer of the form {field.p}^m-2; "
            "distinct-factor growth is not guaranteed along this set")
    growth = accumulate_distinct(config.index_set, field, seed=config.seed)
    payload = _envelope(config)
    payload.update({"warnings": warnings, "growth": growth.to_json_dict()})
    return payload, True


def run_cohomology(config: RunConfig) -> tuple:
    field = config.field
    records = []
    all_pass = True
    for d in range(config.d_min, config.d_max + 1):
        t_poly = tau(d - 1, field)
        b = build_b(d - 1, field)
        a = build_a(d - 1, field)
        component = component_dd(d, field)
        collapse_ok = component.relations == b
        bidegrees_ok = all(
            column_bidegree(a, j).as_pair() == (2, j + 1) for j in range(a.cols))
        witness = torsion_witness(d, field)
        fiber_zero = b.substitute({"s": 0, "t": 0}).is_zero()
        report = factor_tau(d - 1, field, seed=config.seed)
        witnesses = prime_witnesses(d, report)
        checks_ok = (collapse_ok and bidegrees_ok and fiber_zero
                     and not witness.nonmembership.is_solution
                     and all(w.avoids_s for w in witnesses))
        all_pass = all_pass and checks_ok
        records.append({
            "d": d,
            "tau": str(t_poly),
            "factors": {
                "unit": str(report.unit),
                "irreducible": [{"factor": str(p), "multiplicity": m}
                                for p, m in report.factors],
            },
            "torsion_certificate": {
                "annihilator": str(witness.annihilator),
                "solution": [str(e) for e in witness.solution],
                "nonmembership": {
                    "outcome": "no_solution",
                    "failed_column": witness.nonmembership.failed_column,
                },
            },
            "prime_witnesses": [
                {"generator": str(w.generator), "source_d": w.source_d,
                 "avoids_s": w.avoids_s}
                for w in witnesses
            ],
            "component": {
                "generator_count": len(component.generators),
                "relations_match_b": collapse_ok,
                "column_bidegrees_ok": bidegrees_ok,
                "fiber_dimension": d - 1 if fiber_zero else None,
            },
        })
    payload = _envelope(config)
    payload.update({"d_min": config.d_min, "d_max": config.d_max,
                    "records": records, "all_pass": all_pass})
    return payload, all_pass


def run_frobenius(config: RunConfig) -> tuple:
    field = config.field
    records = []
    all_pass = True
    growth = witness_growth(config.n_set, field, seed=config.seed)
    for n, report, new, cum in zip(growth.index_set, growth.per_index,
                                   growth.new_distinct, growth.cumulative_distinct):
        # witness_growth factored exactly det of the collapsed relations.
        determinant = report.input
        det_is_tau = determinant == tau(n - 2, field)
        all_pass = all_pass and det_is_tau
        records.append({
            "n": n,
            "d": n + 1,
            "case": CASE_AT_N_PLUS_1,
            "matrix": build_b(n - 2, field).to_strings(),
            "det": str(determinant),
            # component_t raises unless the relations at d = n + 1 equal B_(n-2).
            "collapse_matches_b": True,
            "det_equals_tau": det_is_tau,
            "factors": {
                "unit": str(report.unit),
                "irreducible": [{"factor": str(p), "multiplicity": m}
                                for p, m in report.factors],
            },
            "new_witnesses": new,
            "cumulative_witnesses": cum,
        })
    payload = _envelope(config)
    payload.update({"n_set": list(config.n_set), "records": records,
                    "all_pass": all_pass})
    return payload, all_pass


_RUNNERS = {
    "verify-lemma1": run_verify,
    "factors": run_factors,
    "cohomology": run_cohomology,
    "frobenius": run_frobenius,
}


# ----------------------------------------------------------------------------
# Rendering.


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def render_csv(payload: dict) -> str:
    command = payload["command"]
    if command == "verify-lemma1":
        rows = [("i", "identity", "recurrence")]
        for r in payload["results"]:
            rec = "" if r["recurrence"] is None else str(r["recurrence"])
            rows.append((r["i"], str(r["identity"]), rec))
    elif command == "factors":
        rows = [("i", "new_factors", "cumulative")]
        for r in payload["growth"]["records"]:
            rows.append((r["index"], r["new_distinct"], r["cumulative_distinct"]))
    elif command == "cohomology":
        rows = [("d", "tau", "torsion_ok", "nonmembership_ok", "num_witnesses")]
        for r in payload["records"]:
            rows.append((r["d"], r["tau"], str(r["component"]["relations_match_b"]),
                         str(r["torsion_certificate"]["nonmembership"]["outcome"]
                             == "no_solution"),
                         len(r["prime_witnesses"])))
    elif command == "frobenius":
        rows = [("n", "new_witnesses", "cumulative")]
        for r in payload["records"]:
            rows.append((r["n"], r["new_witnesses"], r["cumulative_witnesses"]))
    else:
        raise ValueError(f"unknown command {command!r}")
    return _csv_text(rows)


def render_text(payload: dict) -> str:
    command = payload["command"]
    lines = [f"{command}: field={payload['field']} version={payload['version']}"]
    if command == "verify-lemma1":
        for r in payload["results"]:
            verdict = "PASS" if r["identity"] and r["recurrence"] is not False else "FAIL"
            extra = ""
            if r["recurrence"] is not None:
                extra = f" recurrence={'PASS' if r['recurrence'] else 'FAIL'}"
            lines.append(f"i={r['i']}: det B_{r['i']} = {r['det_b']}; "
                         f"tau_{r['i']} = {r['tau']}; identity={verdict}{extra}")
        lines.append(f"RESULT: {'PASS' if payload['all_pass'] else 'FAIL'}")
    elif command == "factors":
        for warning in payload["warnings"]:
            lines.append(f"warning: {warning}")
        for r in payload["growth"]["records"]:
            facs = " ".join(f"({f['factor']})^{f['multiplicity']}"
                            for f in r["factors"])
            lines.append(f"i={r['index']}: tau_{r['index']} = "
                         f"{r['unit']} * {facs}; new={r['new_distinct']} "
                         f"cumulative={r['cumulative_distinct']}")
        lines.append(f"distinct factors: {payload['growth']['final_distinct']}")
    elif command == "cohomology":
        for r in payload["records"]:
            witnesses = ", ".join(w["generator"] for w in r["prime_witnesses"])
            lines.append(
                f"d={r['d']}: tau_{r['d'] - 1} = {r['tau']}; "
                f"B_{r['d'] - 1} collapse={'PASS' if r['component']['relations_match_b'] else 'FAIL'}; "
                f"torsion annihilator={r['torsion_certificate']['annihilator']}; "
                f"nonmembership=PASS; witnesses: {witnesses}")
        lines.append(f"RESULT: {'PASS' if payload['all_pass'] else 'FAIL'}")
    elif command == "frobenius":
        for r in payload["records"]:
            lines.append(
                f"n={r['n']} (d={r['d']}, case={r['case']}): "
                f"M_{r['d']} collapse to B_{r['n'] - 2}="
                f"{'PASS' if r['collapse_matches_b'] else 'FAIL'}; "
                f"det={r['det']}; det=tau_{r['n'] - 2}: "
                f"{'PASS' if r['det_equals_tau'] else 'FAIL'}; "
                f"new={r['new_witnesses']} cumulative={r['cumulative_witnesses']}")
        lines.append(f"RESULT: {'PASS' if payload['all_pass'] else 'FAIL'}")
    else:
        raise ValueError(f"unknown command {command!r}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def run(config: RunConfig) -> tuple:
    """Execute a validated configuration; returns (payload, rendered, exit code)."""
    payload, ok = _RUNNERS[config.command](config)
    rendered = _RENDERERS[config.fmt](payload)
    return payload, rendered, (EXIT_OK if ok else EXIT_CHECK_FAILED)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        payload, rendered, code = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if config.fmt != "text":
        # Text reports already carry their warnings inline.
        for warning in payload.get("warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
    if config.output is not None:
        try:
            config.output.write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {config.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
