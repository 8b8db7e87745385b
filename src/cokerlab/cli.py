"""Command-line front end emitting deterministic verification reports.

Identical configurations (command, field, ranges, seed) produce byte
identical JSON: reports carry no timestamps, factor lists are sorted
canonically, and keys are emitted sorted.  Exit codes: 0 all checks pass,
1 a mathematical check failed, 2 usage or configuration error, or a
report that cannot be written to --output or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import stat
import sys
from collections import namedtuple
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from .arith import Field, Form, UniPoly, tau
from .cohomology import (
    column_bidegree,
    component_dd,
    prime_witnesses,
    torsion_witness,
)
from .factor import (
    accumulate_distinct,
    accumulate_reports,
    factor_tau,
    missing_prime_power_indices,
)
from .frobenius import CASE_AT_N_PLUS_1, collapse
from .matrices import build_a, build_b, certify_det_b, continuant

MAX_INDEX = 200
MAX_D = 100
MAX_N = 100

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Configuration rejected before any computation ran."""


class RunConfig(namedtuple("RunConfig", "command field fmt output seed "
                                        "max_i index_set d_min d_max n_set",
                            defaults=(None,) * 5)):
    """One subcommand's validated options; those of other subcommands are None."""

    __slots__ = ()


def parse_index_set(text: str, low: int, high: int) -> tuple:
    """Parse a set expression: comma-separated integers and a..b ranges, each
    within low..high, which is checked before a range is expanded; ranges are
    deduplicated as they expand, so repeating one costs no memory."""
    items: dict = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise UsageError(f"empty entry in set expression {text!r}")
        lo_text, dots, hi_text = piece.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        except ValueError:
            raise UsageError(f"bad {'range' if dots else 'integer'} {piece!r}") from None
        if hi < lo:
            raise UsageError(f"descending range {piece!r}")
        if lo < low or hi > high:
            raise UsageError(f"set entry {piece!r} is outside {low}..{high}")
        items.update(zip(range(lo, hi + 1), repeat(None)))
    return tuple(items)


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
        kwargs["index_set"] = parse_index_set(args.index_set, 1, MAX_INDEX)
    elif args.command == "cohomology":
        if args.d_min < 2 or args.d_max > MAX_D or args.d_min > args.d_max:
            raise UsageError(f"need 2 <= d-min <= d-max <= {MAX_D}")
        kwargs["d_min"] = args.d_min
        kwargs["d_max"] = args.d_max
    elif args.command == "frobenius":
        kwargs["n_set"] = parse_index_set(args.n_set, 6, MAX_N)
    return RunConfig(**kwargs)


# ----------------------------------------------------------------------------
# Command payloads.


def _factors_json(report) -> dict:
    return {"unit": str(report.unit),
            "irreducible": [{"factor": str(p), "multiplicity": m}
                            for p, m in report.factors]}


def run_verify(config: RunConfig) -> tuple:
    field, n = config.field, config.max_i
    b = build_b(n, field)
    # The continuant runs the recurrence checked below, so the identities are
    # proven independently of it, by one certificate for all of them; that
    # certificate also makes B_n tridiagonal with forms for entries.
    certify_det_b(b)
    dets = continuant(b)  # det B_i is the leading minor D_i of B_n
    taus = [tau(i, field) for i in range(1, n + 1)]
    st = Form(UniPoly.gen(field), 2)  # the recurrence multipliers are tau_1, st
    results = [{
        "i": i,
        "det_b": str(d),
        "tau": str(t_i),
        "identity": d == t_i,
        "recurrence": d == taus[0] * dets[i - 2] - st * dets[i - 3] if i >= 3 else None,
    } for i, (d, t_i) in enumerate(zip(dets, taus), 1)]
    all_pass = all(r["identity"] and r["recurrence"] is not False for r in results)
    return {"max_i": n, "results": results, "all_pass": all_pass}, all_pass


def run_factors(config: RunConfig) -> tuple:
    field = config.field
    warnings = []
    if not field.is_rationals and missing_prime_power_indices(config.index_set, field.p):
        warnings.append(
            f"index set contains no integer of the form {field.p}^m-2; "
            "distinct-factor growth is not guaranteed along this set")
    growth = accumulate_distinct(config.index_set, field, seed=config.seed)
    records = [{"index": i, "unit": str(report.unit),
                "factors": _factors_json(report)["irreducible"],
                "new_distinct": new, "cumulative_distinct": cum}
               for i, report, new, cum in zip(growth.index_set, growth.per_index,
                                              growth.new_distinct, growth.cumulative_distinct)]
    return {"warnings": warnings, "growth": {
        "indices": list(growth.index_set), "records": records,
        "final_distinct": growth.final_distinct}}, True


def run_cohomology(config: RunConfig) -> tuple:
    field = config.field
    degrees = range(config.d_min, config.d_max + 1)
    b, torsion = torsion_witness(degrees, field)
    # One check covers every d: component_dd(A_(d-1)) is a leading block of
    # component_dd(A_N), column j of A_(d-1) holds some of A_N's column j in
    # the same slots, and B_(d-1) is a leading block of B_N.
    a = build_a(config.d_max - 1, field)
    collapse_ok = component_dd(a).relations == b
    try:
        bidegrees_ok = all(column_bidegree(a, j) == (2, j + 1) for j in range(a.cols))
    except ValueError:  # a column, or an entry of it, has no single bidegree
        bidegrees_ok = False
    all_pass = collapse_ok and bidegrees_ok
    records = []
    for d, witness in zip(degrees, torsion):
        report = factor_tau(d - 1, field, seed=config.seed)
        witnesses = prime_witnesses(d, report)
        records.append({
            "d": d,
            "tau": str(witness.annihilator),
            "factors": _factors_json(report),
            "torsion_certificate": {
                "annihilator": str(witness.annihilator),
                "solution": [str(e) for e in witness.solution],
                "nonmembership": {
                    "outcome": "no_solution",
                    "failed_column": witness.failed_column,
                },
            },
            "prime_witnesses": [
                {"generator": str(w.generator), "source_d": w.source_d,
                 "avoids_s": w.avoids_s}
                for w in witnesses
            ],
            "component": {
                "generator_count": d - 1,
                "relations_match_b": collapse_ok,
                "column_bidegrees_ok": bidegrees_ok,
                # torsion_witness raises unless certify_det_b proves every
                # entry of B_N zero or a degree-1 form in s, t, so each
                # leading block B_(d-1) vanishes at s = t = 0.
                "fiber_dimension": d - 1,
            },
        })
    return {"d_min": config.d_min, "d_max": config.d_max,
            "records": records, "all_pass": all_pass}, all_pass


def run_frobenius(config: RunConfig) -> tuple:
    b, reports = collapse(config.n_set, config.field, config.seed)
    # Entries keep their positions in a leading block, so the block B_(n-2)
    # renders as the leading slice of B_N's rendering.
    rows = b.to_strings()
    growth = accumulate_reports(config.n_set, reports)
    records = [{
        "n": n,
        "d": n + 1,
        "case": CASE_AT_N_PLUS_1,
        "matrix": [row[:n - 2] for row in rows[:n - 2]],
        # factor_tau factors tau_(n-2), the determinant collapse certifies.
        "det": str(report.input),
        # collapse raises unless the relations at d = n + 1 equal the
        # leading block B_(n-2) of the one matrix it certifies ...
        "collapse_matches_b": True,
        # ... so certify_det_b proves det = tau_(n-2).
        "det_equals_tau": True,
        "factors": _factors_json(report),
        "new_witnesses": new,
        "cumulative_witnesses": cum,
    } for n, report, new, cum in zip(config.n_set, reports, growth.new_distinct,
                                     growth.cumulative_distinct)]
    return {"n_set": list(config.n_set), "records": records, "all_pass": True}, True


_RUNNERS = {
    "verify-lemma1": run_verify,
    "factors": run_factors,
    "cohomology": run_cohomology,
    "frobenius": run_frobenius,
}


# ----------------------------------------------------------------------------
# Rendering.


def _json_parts(value, indent: str, levels: int, out: list) -> list:
    """Append a dict, list or tuple to out, and return out, as json.dumps(value,
    indent=2, sort_keys=True) writes it after indent (a newline and the indent
    of its line), each member in the top levels of containers as one string."""
    inner = indent + "  "
    if isinstance(value, dict):
        keys = sorted(value)
        heads = [f",{inner}{_quote(k)}: " for k in keys]
        value, brackets = map(value.get, keys), "{}"
    elif isinstance(value, (list, tuple)):
        heads, brackets = [f",{inner}"] * len(value), "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    heads[:1] = [head[1:] for head in heads[:1]]  # no comma before the first member
    out.append(brackets[0])
    for head, member in zip(heads, value):
        start = len(out)
        out.append(head)
        if isinstance(member, str):
            out.append(_quote(member))
        elif member is None or member is True or member is False:
            out.append("null" if member is None else "true" if member else "false")
        elif isinstance(member, int):
            out.append(int.__repr__(member))
        else:
            _json_parts(member, inner, levels - 1, out)
            if levels > 1:  # its own members are joined already
                continue
        if levels > 0:
            out[start:] = ["".join(out[start:])]
    out.append(indent + brackets[1] if heads else brackets[1])
    return out


def render_json(payload: dict) -> list:
    """The report as json.dumps(payload, indent=2, sort_keys=True) writes it."""
    return _json_parts(payload, "\n", 3, []) + ["\n"]


def render_csv(payload: dict) -> list:
    command = payload["command"]
    if command == "verify-lemma1":
        rows = [("i", "identity", "recurrence")]
        for r in payload["results"]:
            rows.append((r["i"], r["identity"], r["recurrence"]))
    elif command == "factors":
        rows = [("i", "new_factors", "cumulative")]
        for r in payload["growth"]["records"]:
            rows.append((r["index"], r["new_distinct"], r["cumulative_distinct"]))
    elif command == "cohomology":
        rows = [("d", "tau", "torsion_ok", "nonmembership_ok", "num_witnesses")]
        for r in payload["records"]:
            # torsion_witness raises unless e_1 is certified outside the image.
            rows.append((r["d"], r["tau"], r["component"]["relations_match_b"], True,
                         len(r["prime_witnesses"])))
    else:
        rows = [("n", "new_witnesses", "cumulative")]
        for r in payload["records"]:
            rows.append((r["n"], r["new_witnesses"], r["cumulative_witnesses"]))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return [buffer.getvalue()]


def render_text(payload: dict) -> list:
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
    else:
        for r in payload["records"]:
            lines.append(
                f"n={r['n']} (d={r['d']}, case={r['case']}): "
                f"M_{r['d']} collapse to B_{r['n'] - 2}="
                f"{'PASS' if r['collapse_matches_b'] else 'FAIL'}; "
                f"det={r['det']}; det=tau_{r['n'] - 2}: "
                f"{'PASS' if r['det_equals_tau'] else 'FAIL'}; "
                f"new={r['new_witnesses']} cumulative={r['cumulative_witnesses']}")
    if "all_pass" in payload:
        lines.append(f"RESULT: {'PASS' if payload['all_pass'] else 'FAIL'}")
    return ["\n".join(lines) + "\n"]


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def _write_report(path: Path, chunks: list) -> None:
    """Write chunks to path atomically: the path holds its old content or the
    whole report, never part of it, and no temporary file is left behind.

    A path that is not a regular file, such as /dev/stdout, is written in
    place, since replacing it would replace the device or pipe itself.
    """
    try:
        replaceable = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        replaceable = True
    if not replaceable:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    # Replace the file a symbolic link names, not the link.
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def run(config: RunConfig) -> tuple:
    """Execute a validated configuration; returns (payload, chunks, exit code)."""
    payload, ok = _RUNNERS[config.command](config)
    # What every report shares; each runner returns only its command's keys.
    payload.update(command=config.command, version=__version__,
                   field=config.field.spec, seed=config.seed)
    rendered = _RENDERERS[config.fmt](payload)
    return payload, rendered, (EXIT_OK if ok else EXIT_CHECK_FAILED)


def _say(line: str) -> None:
    """Write one line to stderr, or drop it when stderr cannot take it (as
    when descriptor 2 is closed), so that stderr never changes the outcome."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        payload, rendered, code = run(config)
    except UsageError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except ArithmeticError as exc:
        _say(f"error: certificate check failed: {exc}")
        return EXIT_CHECK_FAILED
    if config.fmt != "text":
        # Text reports already carry their warnings inline.
        for warning in payload.get("warnings", ()):
            _say(f"warning: {warning}")
    try:
        if config.output is not None:
            _write_report(config.output, rendered)
        elif sys.stdout is None:  # Python's stdout when descriptor 1 is closed
            raise OSError("descriptor 1 is closed")
        else:
            sys.stdout.writelines(rendered)
            sys.stdout.flush()
    except OSError as exc:
        _say(f"error: cannot write report to {config.output or 'stdout'}: "
             f"{exc.strerror or exc}")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
