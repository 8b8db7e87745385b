import doctest
import hashlib
import importlib.util
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cokerlab
from cokerlab import arith, cli, cohomology, factor, frobenius, matrices
from cokerlab.arith import Field, Form, MultiPoly, UniPoly, parse_poly, tau
from cokerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_index_set,
    render_json,
)
from cokerlab.cohomology import Presentation
from cokerlab.matrices import PolyMatrix

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"
README = Path(__file__).parents[1] / "README.md"
# Child processes import the same cokerlab package as this test process.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cokerlab.__file__).parents[1])}


class TestIndexSetParsing:
    def test_range(self):
        assert parse_index_set("1..5", 1, 200) == (1, 2, 3, 4, 5)

    def test_list(self):
        assert parse_index_set("1,7,25", 1, 200) == (1, 7, 25)

    def test_mixed_preserves_order_and_dedupes(self):
        assert parse_index_set("3..5, 1, 4", 1, 200) == (3, 4, 5, 1)

    def test_rejects_garbage(self):
        for bad in ["", "a", "3..", "5..3", "1,,2"]:
            with pytest.raises(UsageError):
                parse_index_set(bad, 1, 200)

    def test_repeated_ranges_are_deduplicated_as_they_expand(self):
        # 18,000 copies of one range name 200 indices; expanding them all
        # before deduplicating traced a 32 MB peak.
        text = ",".join(["1..200"] * 18000)
        tracemalloc.start()
        try:
            parsed = parse_index_set(text, 1, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == tuple(range(1, 201))
        assert peak < 4_000_000

    def test_rejects_entries_outside_the_bounds(self):
        for bad in ["0", "201", "0..5", "190..201", f"3,1..{10 ** 20}"]:
            with pytest.raises(UsageError):
                parse_index_set(bad, 1, 200)
        assert parse_index_set("6..100", 6, 100) == tuple(range(6, 101))
        with pytest.raises(UsageError):
            parse_index_set("5..8", 6, 100)

    @pytest.mark.parametrize("argv", [["factors", "--set", "1,,3"],
                                      ["frobenius", "--n-set", "6, ,8"]],
                             ids=["factors", "frobenius"])
    def test_empty_entry_is_named(self, capsys, argv):
        # Clearer than the "bad integer ''" that int('') would give.
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: empty entry in set expression {argv[-1]!r}\n"

    @pytest.mark.parametrize("argv", [["factors", "--set"], ["frobenius", "--n-set"]],
                             ids=["factors", "frobenius"])
    def test_huge_range_is_rejected_before_it_is_expanded(self, capsys, argv):
        # Expanding this range would exhaust memory or overflow range().
        assert main([*argv, f"6..{10 ** 20}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: set entry '6..")


class TestExitCodes:
    def test_verify_ok(self, capsys):
        assert main(["verify-lemma1", "--max-i", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert [r["i"] for r in payload["results"]] == [1, 2, 3]
        assert payload["results"][2]["recurrence"] is True

    def test_verify_rejects_zero(self, capsys):
        assert main(["verify-lemma1", "--max-i", "0"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_verify_rejects_oversized(self, capsys):
        assert main(["verify-lemma1", "--max-i", "500"]) == EXIT_USAGE

    def test_bad_field_spec(self, capsys):
        assert main(["verify-lemma1", "--max-i", "2", "--field", "fp:6"]) == EXIT_USAGE

    def test_field_past_the_bound_is_not_called_a_prime(self, capsys):
        argv = ["verify-lemma1", "--max-i", "2", "--field", "fp:2147483648"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "exceeds the supported bound" in captured.err
        assert "prime 2147483648" not in captured.err

    def test_frobenius_rejects_small_n(self, capsys):
        assert main(["frobenius", "--n-set", "5"]) == EXIT_USAGE

    def test_cohomology_rejects_bad_range(self, capsys):
        assert main(["cohomology", "--d-min", "1", "--d-max", "3"]) == EXIT_USAGE
        assert main(["cohomology", "--d-min", "5", "--d-max", "3"]) == EXIT_USAGE

    def test_unwritable_output(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "missing" / "r.json"
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report to {target}: ")
        assert err.count("\n") == 1
        assert not target.exists()
        # A failure after the temporary file is written removes it again.
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "r.json"
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: cannot write report to {target}: Permission denied\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_holds_only_the_report(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        target.write_text("an older report\n")
        assert main(["verify-lemma1", "--max-i", "2"]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(target)]) == EXIT_OK
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == expected

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        target.write_text("an older report\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(target.read_text())["all_pass"] is True
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_output_to_a_pipe_is_written_in_place(self, tmp_path, capsys):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()),
                                  daemon=True)
        reader.start()
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(pipe)]) == EXIT_OK
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert json.loads(received[0])["all_pass"] is True
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert list(tmp_path.iterdir()) == [pipe]

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemma1"])  # --max-i missing
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frolic"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_output_holds_the_bytes_of_stdout(self, tmp_path, capsysbinary, fmt):
        argv = ["cohomology", "--d-min", "2", "--d-max", "6", "--format", fmt]
        assert main(argv) == EXIT_OK
        expected = capsysbinary.readouterr().out
        target = tmp_path / "r.out"
        assert main(argv + ["--output", str(target)]) == EXIT_OK
        assert capsysbinary.readouterr().out == b""
        assert target.read_bytes() == expected


# The argument grammar of the CLI contract.  Each strategy draws an option's
# text with the indices it denotes, or None when the CLI must reject it.
# Options are passed as --name=value, so that a value such as -1 reaches the
# CLI's own checks, whose errors take one stderr line, and not argparse's,
# whose usage message takes several.
_FIELDS = st.one_of(
    st.sampled_from(["q", "fp:2", "fp:7", "FP:5", "fp:101"]).map(lambda spec: (spec, True)),
    st.sampled_from(["fp:6", "fp:1", "fp:", "gf:7", ""]).map(lambda spec: (spec, False)))
_MALFORMED_PIECES = ("", " ", "x", "1..", "..2", "1..2..3", "1.5", "1;2")


@st.composite
def _set_expression(draw, low, high):
    # One to three pieces: integers and ranges of at most four indices near
    # either bound, spelled as int() reads them, plus pieces outside
    # low..high, descending ranges and malformed text.
    pieces, indices, valid = [], {}, True
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["integer", "range"] * 3
                                    + ["outside", "descending", "malformed"]))
        lo = draw(st.one_of(st.integers(low, low + 8), st.sampled_from([high - 1, high])))
        hi = min(lo + draw(st.integers(0, 3)), high)
        spell = draw(st.sampled_from(["{}", "+{}", " {} ", "0{}"])).format
        if kind == "integer":
            pieces.append(spell(lo))
            indices[lo] = None
        elif kind == "range":
            pieces.append(f"{spell(lo)}..{spell(hi)}")
            indices.update(dict.fromkeys(range(lo, hi + 1)))
        else:
            valid = False
            pieces.append({"outside": f"{low - 1}..{hi}" if lo == low else str(high + 1),
                           "descending": f"{lo + 1}..{lo}",
                           "malformed": draw(st.sampled_from(_MALFORMED_PIECES))}[kind])
    return ",".join(pieces), list(indices) if valid else None


def _in_range(ok, low, high):
    # The indices low..high, or None when the CLI must reject them.
    return list(range(low, high + 1)) if ok and low <= high else None


@st.composite
def _command_options(draw):
    # A subcommand, its own options, and the indices its report must list.
    command = draw(st.sampled_from(["verify-lemma1", "factors", "cohomology", "frobenius"]))
    if command in ("factors", "frobenius"):
        low, high = (1, cli.MAX_INDEX) if command == "factors" else (6, cli.MAX_N)
        text, indices = draw(_set_expression(low, high))
        return command, [f"--{'set' if command == 'factors' else 'n-set'}={text}"], indices
    if command == "verify-lemma1":
        max_i = draw(st.one_of(st.integers(-1, 6), st.sampled_from([199, 200, 201])))
        return command, [f"--max-i={max_i}"], _in_range(max_i <= cli.MAX_INDEX, 1, max_i)
    d_min = draw(st.one_of(st.integers(1, 7), st.sampled_from([99, 100])))
    d_max = d_min + draw(st.integers(-1, 3))
    return (command, [f"--d-min={d_min}", f"--d-max={d_max}"],
            _in_range(d_min >= 2 and d_max <= cli.MAX_D, d_min, d_max))


def _reported_indices(command, fmt, report):
    # The i, d or n of each record, read back from the report's own format.
    text = report.decode()
    if fmt == "json":
        payload = json.loads(text)
        records = payload.get("results") or (payload.get("growth") or payload)["records"]
        key = {"verify-lemma1": "i", "factors": "index", "cohomology": "d", "frobenius": "n"}
        return [r[key[command]] for r in records]
    if fmt == "csv":
        return [int(line.split(",")[0]) for line in text.splitlines()[1:]]
    return [int(m[1]) for m in map(re.compile(r"[idn]=(\d+)").match, text.splitlines()) if m]


class TestCliContract:
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_command_options(), _FIELDS, st.sampled_from(["json", "csv", "text"]),
           st.sampled_from([[], ["--seed=0"], ["--seed=-3"], ["--seed=12345"]]),
           st.booleans())
    def test_exit_codes_stderr_and_reports(self, tmp_path, capsysbinary, options, field,
                                           fmt, seed, to_file):
        command, command_options, indices = options
        spec, field_ok = field
        argv = [command, *command_options, f"--field={spec}", f"--format={fmt}", *seed]
        accepted = indices is not None and field_ok
        code = main(argv)
        out, err = capsysbinary.readouterr()
        err = err.decode()
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE)
        assert "Traceback" not in err
        assert code == (EXIT_OK if accepted else EXIT_USAGE)
        if code == EXIT_USAGE:
            assert out == b""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert all(line.startswith("warning: ") for line in err.splitlines())
            assert _reported_indices(command, fmt, out) == indices
        if to_file:
            target = tmp_path / "report.out"
            assert main(argv + [f"--output={target}"]) == code
            assert capsysbinary.readouterr().out == b""
            if code == EXIT_USAGE:
                assert not target.exists()
            else:
                assert target.read_bytes() == out
                target.unlink()


# Keys and strings mix arbitrary characters with the ones JSON escapes.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t é\U0001f600'),
                               st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_TEXT, st.booleans(), st.none(), st.integers(),
              st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=30)
_JSON_PAYLOADS = st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5)


class TestJsonRendering:
    # render_json must write what json.dumps(indent=2, sort_keys=True) writes.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_JSON_PAYLOADS)
    def test_same_bytes_as_json_dumps(self, payload):
        parts = render_json(payload)
        assert all(isinstance(part, str) for part in parts)
        assert "".join(parts) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_JSON_PAYLOADS, st.sampled_from([1.5, Fraction(1, 2), {1}]),
           st.integers(0, 5))
    def test_other_values_raise_type_error(self, payload, bad, depth):
        # At any depth, in a chunk or joined into one.  json.dumps writes
        # floats, but no report holds one.
        nested = bad
        for _ in range(depth):
            nested = [nested]
        payload = {**payload, "\uffff": nested}
        with pytest.raises(TypeError):
            render_json(payload)
        if not isinstance(bad, float):
            with pytest.raises(TypeError):
                json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")
                                            if p.name != "at_the_bound_sha256.json"))
    def test_golden_payloads_render_to_their_bytes(self, name):
        text = (GOLDEN_DIR / name).read_text()
        payload = json.loads(text)
        parts = render_json(payload)
        assert "".join(parts) == text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        # Each member of a record is a chunk of its own.
        assert len(parts) >= sum(map(len, payload["records"]))


class TestVerifyCommand:
    def test_characteristic_two_sign_collapse(self, capsys):
        assert main(["verify-lemma1", "--max-i", "1", "--field", "fp:2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["det_b"] == "t+s"
        assert payload["results"][0]["tau"] == "t+s"

    def test_text_format(self, capsys):
        assert main(["verify-lemma1", "--max-i", "4", "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("identity=PASS") == 4
        assert "RESULT: PASS" in out
        assert "tau_3 = -t^3-s*t^2-s^2*t-s^3" in out

    def test_csv_format(self, capsys):
        assert main(["verify-lemma1", "--max-i", "3", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,identity,recurrence"
        assert lines[1] == "1,True,"
        assert lines[3] == "3,True,True"

    def test_thirty_pass_lines(self, capsys):
        assert main(["verify-lemma1", "--max-i", "30", "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("identity=PASS") == 30
        assert out.count("recurrence=PASS") == 28


class TestFactorsCommand:
    def test_rational_run(self, capsys):
        assert main(["factors", "--set", "1..5"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["growth"]["final_distinct"] == 5
        assert payload["warnings"] == []

    def test_warning_for_missing_prime_power_index(self, capsys):
        assert main(["factors", "--set", "4", "--field", "fp:2"]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["warnings"]) == 1
        assert "2^m-2" in payload["warnings"][0]
        assert "2^m-2" in captured.err
        assert len(payload["growth"]["records"]) == 1

    def test_no_warning_when_index_present(self, capsys):
        assert main(["factors", "--set", "1,7", "--field", "fp:3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["warnings"] == []
        assert captured.err == ""

    def test_csv_columns(self, capsys):
        assert main(["factors", "--set", "1..3", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,new_factors,cumulative"
        assert lines[1:] == ["1,1,1", "2,1,2", "3,1,3"]

    def test_seed_recorded(self, capsys):
        assert main(["factors", "--set", "1", "--seed", "11"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    def test_twenty_distinct_over_q(self, capsys):
        assert main(["factors", "--set", "1..20"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["growth"]["final_distinct"] == 20

    def test_growth_payload_matches_the_report(self, capsys):
        assert main(["factors", "--set", "2,5,11"]) == EXIT_OK
        growth = json.loads(capsys.readouterr().out)["growth"]
        report = factor.accumulate_distinct([2, 5, 11], Field.rationals())
        assert growth["indices"] == [r["index"] for r in growth["records"]] == [2, 5, 11]
        assert growth["final_distinct"] == report.final_distinct
        assert [(r["unit"], [(f["factor"], f["multiplicity"]) for f in r["factors"]],
                 r["new_distinct"], r["cumulative_distinct"]) for r in growth["records"]] == [
            (str(rep.unit), [(str(p), m) for p, m in rep.factors], new, cum)
            for rep, new, cum in zip(report.per_index, report.new_distinct,
                                     report.cumulative_distinct)]

    def test_prime_power_ladder(self, capsys):
        assert main(["factors", "--set", "1,7,25", "--field", "fp:3"]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)["growth"]["records"]
        cumulative = [r["cumulative_distinct"] for r in records]
        assert cumulative == sorted(set(cumulative))  # strictly increasing


class TestCohomologyCommand:
    def test_small_run(self, capsys):
        assert main(["cohomology", "--d-min", "2", "--d-max", "4"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["d"] for r in payload["records"]] == [2, 3, 4]
        for record in payload["records"]:
            assert record["component"]["relations_match_b"] is True
            assert record["torsion_certificate"]["nonmembership"]["outcome"] == "no_solution"

    def test_text_format(self, capsys):
        assert main(["cohomology", "--d-min", "2", "--d-max", "3",
                     "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d=2: tau_1 = -t-s" in out
        assert "RESULT: PASS" in out

    def test_nine_verified_records(self, capsys):
        assert main(["cohomology", "--d-min", "2", "--d-max", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 9
        assert payload["all_pass"] is True


class TestFrobeniusCommand:
    def test_growth_csv(self, capsys):
        assert main(["frobenius", "--n-set", "6,8,10", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,new_witnesses,cumulative"
        assert lines[1:] == ["6,1,1", "8,1,2", "10,2,4"]

    def test_json_record_fields(self, capsys):
        assert main(["frobenius", "--n-set", "8"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["case"] == "at_n_plus_1"
        assert record["collapse_matches_b"] is True
        assert record["det_equals_tau"] is True
        assert record["d"] == 9

    def test_unsorted_set_keeps_input_order_and_certifies_once(self, monkeypatch, capsys):
        single = {}
        for n in (6, 7, 9):
            assert main(["frobenius", "--n-set", str(n)]) == EXIT_OK
            single[n] = json.loads(capsys.readouterr().out)["records"][0]
        certificates = _count_bindings(monkeypatch, "certify_det_b")
        assert main(["frobenius", "--n-set", "9,6,7"]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)["records"]
        assert [args[0].rows for args in certificates] == [7]
        # Only the growth columns depend on the order of the set.
        growth = ("new_witnesses", "cumulative_witnesses")
        for record, n in zip(records, (9, 6, 7), strict=True):
            for key in growth:
                del record[key], single[n][key]
            assert record == single[n]


class TestReproducibility:
    CONFIGS = [
        ["verify-lemma1", "--max-i", "6"],
        ["factors", "--set", "1..6", "--field", "fp:3", "--seed", "4"],
        ["factors", "--set", "1..6", "--field", "fp:3"],
        ["cohomology", "--d-min", "2", "--d-max", "4"],
        ["frobenius", "--n-set", "6,8"],
    ]

    @pytest.mark.parametrize("argv", CONFIGS, ids=[c[0] + str(i) for i, c in enumerate(CONFIGS)])
    def test_byte_identical_runs(self, argv, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--output", str(first)]) == EXIT_OK
        assert main(argv + ["--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("lenient, plain", [
        (["factors", "--set", "\u0661..\u0663"], ["factors", "--set", "1..3"]),
        (["factors", "--set", "1_0"], ["factors", "--set", "10"]),
        (["verify-lemma1", "--max-i", "+5"], ["verify-lemma1", "--max-i", "5"]),
        (["factors", "--set", "1..3", "--field", "FP:7"],
         ["factors", "--set", "1..3", "--field", "fp:7"]),
    ], ids=["arabic-indic-digits", "underscore", "plus-sign", "field-case"])
    def test_lenient_spellings_give_the_plain_report(self, capsys, lenient, plain):
        # Integers are read by int() and --field without regard to case, and
        # the report records the values read, not their spelling.
        reports = []
        for argv in (lenient, plain):
            assert main(argv) == EXIT_OK
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]

    def test_cohomology_golden(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["cohomology", "--d-min", "2", "--d-max", "5",
                     "--field", "q", "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / "cohomology_d2_5_q.json").read_bytes()

    def test_cohomology_prime_field_golden(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["cohomology", "--d-min", "2", "--d-max", "9",
                     "--field", "fp:7", "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / "cohomology_d2_9_fp7.json").read_bytes()

    def test_frobenius_golden(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["frobenius", "--n-set", "8", "--field", "q",
                     "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / "frobenius_n8_q.json").read_bytes()

    def test_frobenius_unsorted_prime_field_golden(self, tmp_path):
        # Several leading blocks of one B_N, over F_5, in input order.
        out = tmp_path / "report.json"
        assert main(["frobenius", "--n-set", "9,6,12,7", "--field", "fp:5",
                     "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() \
            == (GOLDEN_DIR / "frobenius_n9_6_12_7_fp5.json").read_bytes()


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_bindings(monkeypatch, name, home=matrices, order=None) -> list:
    # Count the calls of home's function through every module binding it;
    # order, when given, also collects the name of each call as it is made.
    calls = []
    original = getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(args)
        if order is not None:
            order.append(name)
        return original(*args, **kwargs)

    for module in (cokerlab, arith, cli, cohomology, factor, frobenius, matrices):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


# The slow reference paths, kept for the tests to compare fast paths against.
_ORACLES = [
    (matrices, ("det", "adjugate_column", "solve_square")),
    (arith, ("exact_divide",)),
    (factor, ("_cyclotomic_trial_division", "_squarefree_parts", "_distinct_degree",
              "_equal_degree", "factor_over_prime_field", "factor_homogeneous_st")),
]


class TestComputedOnce:
    def test_one_factorization_per_d_and_one_determinant_per_n(self, monkeypatch, capsys):
        # The runners call factor_tau through the cli binding, and
        # accumulate_distinct through the factor module's; adjugate_column
        # and solve_square take their determinants through the matrices
        # module's global det, so these count every call whichever binding
        # starts it.
        factorizations = _count_calls(monkeypatch, factor, "factor_tau")
        cli_factorizations = _count_calls(monkeypatch, cli, "factor_tau")
        det_calls = _count_bindings(monkeypatch, "det")
        assert main(["cohomology", "--d-min", "2", "--d-max", "6"]) == EXIT_OK
        q = Field.rationals()
        assert [tau(*args) for args in factorizations + cli_factorizations] \
            == [tau(d - 1, q) for d in range(2, 7)]
        # The torsion certificate is written down, not expanded for.
        assert det_calls == []
        # frobenius takes no determinant: it compares each collapsed matrix
        # with a leading block of the one B it certifies.
        determinants = _count_bindings(monkeypatch, "continuant")
        assert main(["frobenius", "--n-set", "6,8"]) == EXIT_OK
        assert det_calls == []
        assert determinants == []
        # verify-lemma1 makes one continuant pass, over the leading minors of B_6.
        determinants = _count_calls(monkeypatch, cli, "continuant")
        assert main(["verify-lemma1", "--max-i", "6"]) == EXIT_OK
        assert det_calls == []
        assert [args[0].rows for args in determinants] == [6]

    # Each command builds and certifies its largest B once: the B of every
    # smaller index is a leading block of it, and one certify_det_b proves
    # all their determinants.
    @pytest.mark.parametrize("argv, b_sizes, constructions", [
        (["verify-lemma1", "--max-i", "6"], [6], 1),
        (["cohomology", "--d-min", "2", "--d-max", "6"], [5], 4),
        (["frobenius", "--n-set", "6..9"], [7], 3),
    ], ids=["verify-lemma1", "cohomology", "frobenius"])
    def test_one_b_and_one_certificate_per_index(self, monkeypatch, capsys, argv,
                                                 b_sizes, constructions):
        builds = _count_bindings(monkeypatch, "build_b")
        a_builds = _count_bindings(monkeypatch, "build_a")
        order = []
        certificates = _count_bindings(monkeypatch, "certify_det_b", order=order)
        determinants = _count_bindings(monkeypatch, "continuant", order=order)
        # Both constructors, __init__ and from_nonzeros, fill the new matrix
        # once, so this counts every PolyMatrix made.
        matrices_made = _count_calls(monkeypatch, PolyMatrix, "_fill")
        renderings = _count_calls(monkeypatch, PolyMatrix, "to_strings")
        blocks = _count_calls(monkeypatch, PolyMatrix, "without_columns")
        assert main(argv) == EXIT_OK
        assert [args[0] for args in builds] == b_sizes
        assert [args[0].rows for args in certificates] == b_sizes
        assert len(matrices_made) <= constructions * len(b_sizes)
        if argv[0] == "cohomology":
            # Only A_N is built, for the column bidegrees and component_dd:
            # each smaller A_(d-1) is a leading block of it.
            assert [args[0] for args in a_builds] == [5]
            # The fiber of B_N at s = t = 0 is read off its certificate, and
            # no determinant is taken.
            assert determinants == []
            return
        assert a_builds == []
        if argv[0] == "frobenius":
            # No determinant is taken, and each printed matrix is a leading
            # block of the certified one, sliced from its one rendering.
            assert determinants == []
            assert len(renderings) == 1
            assert blocks == []
            certified = certificates[0][0].to_strings()
            records = json.loads(capsys.readouterr().out)["records"]
            assert [r["matrix"] for r in records] \
                == [[row[:n - 2] for row in certified[:n - 2]] for n in range(6, 10)]
            return
        # The determinant is taken of the matrix just certified.
        assert order == ["certify_det_b", "continuant"]
        assert determinants[0][0] is certificates[0][0]

    def test_each_cyclotomic_split_once_per_process(self, monkeypatch, capsys):
        f7 = Field.prime(7)
        cyclotomics = {UniPoly(f7, factor.cyclotomic(m).coeffs)
                       for m in range(2, 32) if m % 7}
        factor._split_cyclotomic.cache_clear()
        blocks = _count_calls(monkeypatch, factor, "_split_fixed")
        assert main(["factors", "--set", "1..30", "--field", "fp:7"]) == EXIT_OK
        split = [args[0] for args in blocks if args[0] in cyclotomics]
        assert len(split) == len(set(split)) == len(cyclotomics)


    @pytest.mark.parametrize("argv", [
        ["frobenius", "--n-set", "6..12"],
        ["factors", "--set", "1..30"],
        ["cohomology", "--d-min", "2", "--d-max", "12"],
        ["verify-lemma1", "--max-i", "12"],
    ], ids=["frobenius", "factors", "cohomology", "verify-lemma1"])
    def test_frobenius_factors_by_the_certified_route(self, monkeypatch, capsys, argv):
        # No CLI path calls a slow oracle, through any binding: every
        # determinant and solution is certified rather than eliminated for,
        # and every factored tau_i, a collapsed determinant included, takes
        # its factors from cyclotomic structure, over F_p from factor_tau's
        # Rabin-proven splits.
        oracles = {name: _count_bindings(monkeypatch, name, home)
                   for home, names in _ORACLES for name in names}
        proofs = _count_calls(monkeypatch, factor, "_is_irreducible")
        for field in ("q", "fp:7"):
            factor._split_cyclotomic.cache_clear()
            assert main(argv + ["--field", field]) == EXIT_OK
        assert {name: calls for name, calls in oracles.items() if calls} == {}
        assert bool(proofs) == (argv[0] != "verify-lemma1")

    @pytest.mark.parametrize("argv", [
        ["verify-lemma1", "--max-i", "10"],
        ["factors", "--set", "1..30"],
        ["factors", "--set", "1..30", "--field", "fp:7"],
        ["frobenius", "--n-set", "6..9"],
    ], ids=["verify-lemma1", "factors-q", "factors-fp7", "frobenius"])
    def test_binary_forms_never_multiply_multipolys(self, monkeypatch, capsys, argv):
        # tau, the continuant, the certificate and the factor reports all
        # compute on forms in s, t.
        products = _count_calls(monkeypatch, MultiPoly, "__mul__")
        assert main(argv) == EXIT_OK
        assert products == []

    def test_cohomology_multiplies_multipolys_only_for_a_and_its_component(
            self, monkeypatch, capsys):
        callers = []
        multiply = MultiPoly.__mul__

        def counting(self, other):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return multiply(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        assert main(["cohomology", "--d-min", "2", "--d-max", "6"]) == EXIT_OK
        assert set(callers) == {"build_a", "component_dd"}
        # Only A_N and its component multiply, so d-min changes no count.
        products = len(callers)
        callers.clear()
        assert main(["cohomology", "--d-min", "6", "--d-max", "6"]) == EXIT_OK
        assert len(callers) == products

    def test_each_distinct_form_rendered_once(self, capsys):
        # Forms render through a memo keyed by value: det(B_i) and tau_i are
        # equal forms built apart, and one Phi_m recurs in many reports.
        renders = Form.__str__.cache_info
        Form.__str__.cache_clear()
        assert main(["verify-lemma1", "--max-i", "20"]) == EXIT_OK
        assert renders().misses == 20
        capsys.readouterr()
        Form.__str__.cache_clear()
        assert main(["factors", "--set", "1..110"]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)["growth"]["records"]
        assert renders().misses == len(
            {f["factor"] for r in records for f in r["factors"]}) == 110

    def test_rendering_work_budgets(self, monkeypatch, capsys):
        # Bounds about 10% above the counts when they were set, 485 distinct
        # forms and 8,364 quoted strings: a cheaper torsion or row rendering
        # shows as a fall in these counts.
        Form.__str__.cache_clear()
        assert main(["cohomology", "--d-min", "2", "--d-max", "30", "--field", "fp:7",
                     "--seed", "1"]) == EXIT_OK
        assert Form.__str__.cache_info().misses <= 535
        quotes = _count_calls(monkeypatch, cli, "_quote")
        assert main(["frobenius", "--n-set", "6..30", "--field", "fp:5",
                     "--seed", "1"]) == EXIT_OK
        assert len(quotes) <= 9200

    @pytest.mark.parametrize("field", ["q", "fp:7"])
    def test_at_most_one_gcd_per_report(self, monkeypatch, capsys, field):
        # A report proves its factors coprime by one squarefree test of their
        # product, which for tau_i is a division of t^N - 1 and takes no gcd;
        # gcds inside a cyclotomic split (equal-degree splitting, Rabin's
        # test) are not the report's.
        gcd, split = factor.gcd_univariate, factor._split_cyclotomic
        splitting, report_gcds = [], []

        def counting_gcd(*args):
            if not splitting:
                report_gcds.append(args)
            return gcd(*args)

        def marked_split(*args):
            splitting.append(args)
            try:
                return split(*args)
            finally:
                splitting.pop()

        monkeypatch.setattr(factor, "gcd_univariate", counting_gcd)
        monkeypatch.setattr(factor, "_split_cyclotomic", marked_split)
        assert main(["factors", "--set", "1..40", "--field", field]) == EXIT_OK
        assert report_gcds == []

    @pytest.mark.parametrize("field", ["q", "fp:101"])
    def test_reports_take_no_gcd_and_no_schoolbook_product(self, monkeypatch, capsys, field):
        # Each report reassembles its factors by Kronecker products and proves
        # them coprime by dividing t^N - 1, inside FactorReport.__new__.
        new, multiply, gcd = factor.FactorReport.__new__, UniPoly.__mul__, factor.gcd_univariate
        inside, reports, gcds, products = [], [], [], []

        def checking(cls, *args, **kwargs):
            inside.append(cls)
            try:
                reports.append(new(cls, *args, **kwargs))
            finally:
                inside.pop()
            return reports[-1]

        def counting_gcd(*args):
            if inside:
                gcds.append(args)
            return gcd(*args)

        def counting_mul(self, other):
            if inside:
                products.append(other)
            return multiply(self, other)

        monkeypatch.setattr(factor.FactorReport, "__new__", staticmethod(checking))
        monkeypatch.setattr(factor, "gcd_univariate", counting_gcd)
        monkeypatch.setattr(UniPoly, "__mul__", counting_mul)
        assert main(["factors", "--set", f"1..{cli.MAX_INDEX}", "--field", field]) == EXIT_OK
        assert len(reports) == cli.MAX_INDEX
        assert gcds == products == []


def _transposed(b):
    return PolyMatrix([b.column(j) for j in range(b.cols)])


def _transpose_cli_b(monkeypatch):
    build_b = cli.build_b
    monkeypatch.setattr(cli, "build_b", lambda i, field: _transposed(build_b(i, field)))


def _transpose_collapsed_relations(monkeypatch):
    # The frobenius step certifies the relations component_t returns.
    component_t = frobenius.component_t

    def transposed(n, d, field):
        component = component_t(n, d, field)
        presentation = component.presentation
        return frobenius.FrobeniusComponent(
            n, d, component.case,
            Presentation(presentation.generators, _transposed(presentation.relations)))

    monkeypatch.setattr(frobenius, "component_t", transposed)


def _corrupting(build_b, pos, entry):
    # build_b with entry added to diagonal entry pos; -1 is the last.
    def corrupted(i, field):
        b = build_b(i, field)
        entries = [list(b.row(r)) for r in range(i)]
        entries[pos][pos] = entries[pos][pos] + parse_poly(entry, field)
        return PolyMatrix(entries)
    return corrupted


class TestCertificateFailure:
    def test_wrong_b_exits_1_without_traceback(self, monkeypatch, capsys):
        build_b = cohomology.build_b

        def corrupted(i, field):
            b = build_b(i, field)
            if i < 3:
                return b
            entries = [list(b.row(r)) for r in range(i)]
            entries[0][0] = entries[0][0] + MultiPoly.one(field)
            return PolyMatrix(entries)

        monkeypatch.setattr(cohomology, "build_b", corrupted)
        assert main(["cohomology", "--d-min", "2", "--d-max", "5"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")
        assert "Traceback" not in captured.err

    # verify-lemma1 certifies B_3 before it reads a minor off it: a B_3 with
    # a diagonal entry that is not a form, or a form that breaks det B_1 or
    # only det B_3, fails the certificate, and no report is written.
    @pytest.mark.parametrize("pos, entry", [(0, "1"), (0, "s"), (-1, "s")],
                             ids=["constant-at-first", "form-at-first", "form-at-last"])
    def test_wrong_b_fails_the_certificate_before_any_minor(self, monkeypatch, capsys,
                                                            pos, entry):
        monkeypatch.setattr(cli, "build_b", _corrupting(cli.build_b, pos, entry))
        assert main(["verify-lemma1", "--max-i", "3"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")

    def test_wrong_determinant_reports_identity_false(self, monkeypatch, capsys):
        # A continuant that disagrees with the certified B still reaches the
        # report, which says which identity failed.
        continuant = cli.continuant

        def wrong_last_minor(b):
            minors = continuant(b)
            return minors[:-1] + [minors[-1] + minors[-1]]  # twice D_3

        monkeypatch.setattr(cli, "continuant", wrong_last_minor)
        assert main(["verify-lemma1", "--max-i", "3"]) == EXIT_CHECK_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in payload["results"]] == [True, True, False]
        assert payload["all_pass"] is False

    @pytest.mark.parametrize("argv, transpose", [
        (["verify-lemma1", "--max-i", "4"], _transpose_cli_b),
        (["frobenius", "--n-set", "6"], _transpose_collapsed_relations),
    ], ids=["verify-lemma1", "frobenius"])
    def test_transposed_b_fails_the_certificate(self, monkeypatch, capsys, argv,
                                                transpose):
        # det(B^T) = det(B) = tau, so only the certificate can reject B^T.
        transpose(monkeypatch)
        assert main(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")

    def test_wrong_collapsed_determinant_exits_1(self, monkeypatch, capsys):
        # A B whose leading minors are not tau is a failed check, not a
        # determinant to factor by other means.
        monkeypatch.setattr(frobenius, "build_b", _corrupting(frobenius.build_b, 0, "t"))
        assert main(["frobenius", "--n-set", "6..8"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")

    def test_e1_in_the_image_exits_1_without_a_report(self, monkeypatch, capsys, tmp_path):
        # If tau divided every Cramer numerator of e_1, e_1 would be in the image.
        monkeypatch.setattr(Form, "divides", lambda self, other: True)
        target = tmp_path / "r.json"
        argv = ["cohomology", "--d-min", "2", "--d-max", "5", "--output", str(target)]
        assert main(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == "error: certificate check failed: e_1 unexpectedly lies in the image\n"
        assert list(tmp_path.iterdir()) == []

    # Each A_(d-1) is a leading block of A_N, so corrupting only A_N fails
    # the one check of A_N, and with it every record's flag.
    @pytest.mark.parametrize("col, entry, failed, passed", [
        (-3, "2*s*x^2", "relations_match_b", "column_bidegrees_ok"),
        (-1, "t*x*y", "column_bidegrees_ok", "relations_match_b"),
        (-1, "t*y^2+s*x*y", "column_bidegrees_ok", "relations_match_b"),
    ], ids=["doubled_s", "wrong_bidegree", "not_bihomogeneous"])
    def test_wrong_entry_of_a_n_fails_every_record(self, monkeypatch, capsys, col, entry,
                                                   failed, passed):
        build_a = cli.build_a

        def corrupted(dminus1, field):
            a = build_a(dminus1, field)
            if dminus1 < 5:
                return a
            rows = [dict(row) for row in a.nonzeros]
            rows[-1][a.cols + col] = parse_poly(entry, field)
            return PolyMatrix.from_nonzeros(field, a.cols, rows)

        monkeypatch.setattr(cli, "build_a", corrupted)
        assert main(["cohomology", "--d-min", "2", "--d-max", "6"]) == EXIT_CHECK_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is False
        assert [r["component"][failed] for r in payload["records"]] == [False] * 5
        assert [r["component"][passed] for r in payload["records"]] == [True] * 5

    @pytest.mark.parametrize("argv, module", [
        (["cohomology", "--d-min", "2", "--d-max", "6"], cohomology),
        (["frobenius", "--n-set", "6..9"], frobenius),
    ], ids=["cohomology", "frobenius"])
    def test_wrong_entry_outside_every_smaller_block_exits_1(self, monkeypatch, capsys,
                                                             argv, module):
        # The last diagonal entry of B_N lies in no smaller index's block, so
        # only the one certificate of B_N can reject it.
        monkeypatch.setattr(module, "build_b", _corrupting(module.build_b, -1, "s"))
        assert main(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")


# Runs python on its arguments and writes the exit code and ru_maxrss (KiB)
# to stderr.  The measured process is forked from this small one: a process
# forked from the test runner would keep the runner's RSS as its peak, since
# exec records the high-water mark of the memory it replaces.
_PEAK_OF_CHILD = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


class TestAtTheBound:
    # SHA-256 of each report below, keyed by its argv, so a change to any
    # character of an at-bound report fails the test that runs it.
    DIGESTS = json.loads((GOLDEN_DIR / "at_the_bound_sha256.json").read_text())

    def _pinned(self, argv, out):
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[" ".join(argv)]
        return json.loads(out)

    @pytest.mark.parametrize("field", ["q", "fp:101"])
    def test_verify_lemma1_at_max_i(self, capsys, field):
        argv = ["verify-lemma1", "--max-i", str(cli.MAX_INDEX), "--field", field]
        assert main(argv) == EXIT_OK
        payload = self._pinned(argv, capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["results"]) == cli.MAX_INDEX

    # fp:2 takes the split with h = r, with no power.
    @pytest.mark.parametrize("field", ["q", "fp:2", "fp:7", "fp:101"])
    def test_factors_at_max_index(self, capsys, field):
        argv = ["factors", "--set", f"1..{cli.MAX_INDEX}", "--field", field]
        assert main(argv) == EXIT_OK
        records = self._pinned(argv, capsys.readouterr().out)["growth"]["records"]
        assert len(records) == cli.MAX_INDEX

    def test_factors_at_the_largest_prime(self, capsys):
        # The largest prime the CLI accepts takes the windowed powers and
        # Rabin's test at 31 bits; the full index bound takes several seconds.
        argv = ["factors", "--set", "1..60", "--field", "fp:2147483647"]
        assert main(argv) == EXIT_OK
        records = self._pinned(argv, capsys.readouterr().out)["growth"]["records"]
        assert len(records) == 60

    @pytest.mark.parametrize("field", ["q", "fp:7"])
    def test_cohomology_at_max_d(self, capsys, field):
        argv = ["cohomology", "--d-min", "2", "--d-max", str(cli.MAX_D), "--field", field]
        assert main(argv) == EXIT_OK
        payload = self._pinned(argv, capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["records"]) == cli.MAX_D - 1

    @pytest.mark.parametrize("field", ["q", "fp:5"])
    def test_frobenius_at_max_n(self, capsys, field):
        argv = ["frobenius", "--n-set", f"6..{cli.MAX_N}", "--field", field]
        assert main(argv) == EXIT_OK
        payload = self._pinned(argv, capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["records"]) == cli.MAX_N - 5

    # The CSV and text renderings at a bound are pinned too.
    @pytest.mark.parametrize("argv", [
        ["cohomology", "--d-min", "2", "--d-max", str(cli.MAX_D), "--field", "fp:7",
         "--format", "csv"],
        ["factors", "--set", f"1..{cli.MAX_INDEX}", "--field", "fp:7", "--format", "text"],
    ], ids=["cohomology-csv", "factors-text"])
    def test_other_formats_at_the_bound(self, capsys, argv):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[" ".join(argv)]

    def test_factors_at_a_second_seed(self, capsys):
        # Factor lists are sorted canonically, so once its seed line is
        # normalised the report at another seed is the seedless one.
        argv = ["factors", "--set", f"1..{cli.MAX_INDEX}", "--field", "fp:7", "--seed", "7"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count('\n  "seed": 7,\n') == 1
        self._pinned(argv, out.replace('\n  "seed": 7,\n', '\n  "seed": null,\n'))
        assert self.DIGESTS[" ".join(argv)] == self.DIGESTS[" ".join(argv[:-2])]

    def test_frobenius_json_at_max_n_peaks_under_30_mb(self, tmp_path):
        # The report is held once, as record chunks; json.dumps's
        # pure-Python encoder, with indent set, peaked at 46.5 MB here.
        argv = ["frobenius", "--n-set", f"6..{cli.MAX_N}", "--field", "fp:5"]
        report = tmp_path / "report.json"
        with open(report, "wb") as out:
            result = subprocess.run(
                [sys.executable, "-c", _PEAK_OF_CHILD, "-m", "cokerlab.cli", *argv],
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=120, env=CHILD_ENV)
        code, peak_kib = map(int, result.stderr.split())
        assert code == EXIT_OK
        assert peak_kib < 30 * 1024
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[" ".join(argv)]

    def test_every_pinned_report_is_run(self):
        runs = {f"verify-lemma1 --max-i {cli.MAX_INDEX} --field {f}" for f in ("q", "fp:101")}
        runs |= {f"factors --set 1..{cli.MAX_INDEX} --field {f}"
                 for f in ("q", "fp:2", "fp:7", "fp:101")}
        runs |= {f"factors --set 1..{cli.MAX_INDEX} --field fp:7 {extra}"
                 for extra in ("--seed 7", "--format text")}
        runs |= {"factors --set 1..60 --field fp:2147483647"}
        runs |= {f"cohomology --d-min 2 --d-max {cli.MAX_D} --field {f}" for f in ("q", "fp:7")}
        runs |= {f"cohomology --d-min 2 --d-max {cli.MAX_D} --field fp:7 --format csv"}
        runs |= {f"frobenius --n-set 6..{cli.MAX_N} --field {f}" for f in ("q", "fp:5")}
        assert set(self.DIGESTS) == runs


class TestTracerContract:
    def test_every_traced_op_has_a_binding(self):
        # The benchmark's tracer wraps the functions its OPS table names and
        # reports an op none of whose names resolves as absent, so moving or
        # renaming one of them drops that op's per-layer metrics.  The table
        # is read without installing the tracer.
        spec = importlib.util.spec_from_file_location("cokerlab_bench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)

        def resolves(site):
            module_name, _, attr = site.partition(":")
            owner = sys.modules.get(f"cokerlab.{module_name}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            return owner is not None and vars(owner).get(name) is not None

        assert "cokerlab.cli" in sys.modules
        assert [op for op, sites in tracer.OPS.items()
                if not any(map(resolves, sites))] == []


class TestConsoleScript:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "cokerlab.cli", "verify-lemma1", "--max-i", "2",
             "--format", "text"],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV)
        assert result.returncode == EXIT_OK
        assert "RESULT: PASS" in result.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_unwritable_stdout_exits_2_on_one_line(self):
        # Like an unwritable --output; the flush at exit must not fail again.
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "cokerlab.cli", "verify-lemma1", "--max-i", "2"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=CHILD_ENV)
        assert result.returncode == EXIT_USAGE
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    def test_closed_stdout_exits_2_on_one_line(self):
        # Python sets sys.stdout to None when descriptor 1 is closed at start-up.
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh",
             sys.executable, "-m", "cokerlab.cli", "verify-lemma1", "--max-i", "2"],
            stderr=subprocess.PIPE, text=True, timeout=120, env=CHILD_ENV)
        assert result.returncode == EXIT_USAGE
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: cannot write report to stdout: ")
        assert "Traceback" not in result.stderr

    def test_closed_stderr_changes_no_outcome(self):
        # A warning or an error line that stderr cannot take is dropped.
        def run_with(redirect, *argv):
            return subprocess.run(
                ["sh", "-c", f'exec "$@" {redirect}', "sh",
                 sys.executable, "-m", "cokerlab.cli", *argv],
                stdout=subprocess.PIPE, timeout=120, env=CHILD_ENV)

        warned = ("factors", "--set", "1..3", "--field", "fp:7")
        closed, plain = run_with("2>&-", *warned), run_with("2>/dev/null", *warned)
        assert (closed.returncode, plain.returncode) == (EXIT_OK, EXIT_OK)
        assert closed.stdout == plain.stdout and plain.stdout
        rejected = run_with("2>&-", "verify-lemma1", "--max-i", "0")
        assert (rejected.returncode, rejected.stdout) == (EXIT_USAGE, b"")

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "cokerlab.cli", "--version"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV)
        assert result.returncode == 0
        assert "cokerlab" in result.stdout

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # dataclasses, and the inspect module it imports, cost milliseconds at
        # every CLI start-up; the records are named tuples instead.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, cokerlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestPackageExports:
    def test_every_export_resolves(self):
        missing = [name for name in cokerlab.__all__ if not hasattr(cokerlab, name)]
        assert missing == []

    def test_star_import(self):
        namespace: dict = {}
        exec("from cokerlab import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(cokerlab.__all__)

    def test_readme_tour_runs(self):
        # The tour imports from the package, so a dropped or renamed export
        # fails here.
        results = doctest.testfile(str(README), module_relative=False)
        assert results.attempted > 0 and results.failed == 0
