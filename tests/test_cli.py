import importlib.util
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cokerlab
from cokerlab import cli, cohomology, factor, frobenius, matrices
from cokerlab.arith import Field, Form, MultiPoly, UniPoly, parse_poly, tau
from cokerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_index_set,
)
from cokerlab.cohomology import Presentation
from cokerlab.matrices import PolyMatrix

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"
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

    def test_rejects_entries_outside_the_bounds(self):
        for bad in ["0", "201", "0..5", "190..201", f"3,1..{10 ** 20}"]:
            with pytest.raises(UsageError):
                parse_index_set(bad, 1, 200)
        assert parse_index_set("6..100", 6, 100) == tuple(range(6, 101))
        with pytest.raises(UsageError):
            parse_index_set("5..8", 6, 100)

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


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_bindings(monkeypatch, name) -> list:
    # Count the calls of a matrices function through every module binding it.
    calls = []
    original = getattr(matrices, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, cohomology, frobenius, matrices):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestComputedOnce:
    def test_one_factorization_per_d_and_one_determinant_per_n(self, monkeypatch, capsys):
        # The runners call factor_tau through the cli binding, and
        # accumulate_distinct through the factor module's; det,
        # adjugate_column and solve_square all eliminate through the matrices
        # module's global, so these count every call whichever binding starts it.
        factorizations = _count_calls(monkeypatch, factor, "factor_tau")
        cli_factorizations = _count_calls(monkeypatch, cli, "factor_tau")
        eliminations = _count_calls(monkeypatch, matrices, "_det_bareiss")
        assert main(["cohomology", "--d-min", "2", "--d-max", "6"]) == EXIT_OK
        q = Field.rationals()
        assert [tau(*args) for args in factorizations + cli_factorizations] \
            == [tau(d - 1, q) for d in range(2, 7)]
        # The torsion certificate is written down, not eliminated for.
        assert eliminations == []
        # frobenius takes no determinant: it compares each collapsed matrix
        # with a leading block of the one B it certifies.
        determinants = _count_bindings(monkeypatch, "continuant")
        assert main(["frobenius", "--n-set", "6,8"]) == EXIT_OK
        assert eliminations == []
        assert determinants == []
        # verify-lemma1 makes one continuant pass, over the leading minors of B_6.
        determinants = _count_calls(monkeypatch, cli, "continuant")
        assert main(["verify-lemma1", "--max-i", "6"]) == EXIT_OK
        assert eliminations == []
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
        certificates = _count_bindings(monkeypatch, "certify_det_b")
        determinants = _count_bindings(monkeypatch, "continuant")
        substitutions = _count_calls(monkeypatch, PolyMatrix, "substitute")
        matrices_made = _count_calls(monkeypatch, PolyMatrix, "__init__")
        assert main(argv) == EXIT_OK
        assert [args[0] for args in builds] == b_sizes
        assert [args[0].rows for args in certificates] == b_sizes
        assert len(matrices_made) <= constructions * len(b_sizes)
        if argv[0] == "cohomology":
            # Only A_N is built, for the column bidegrees and component_dd:
            # each smaller A_(d-1) is a leading block of it.
            assert [args[0] for args in a_builds] == [5]
            # Only the fiber of B_N at s = t = 0 substitutes; no determinant
            # is taken.
            assert len(substitutions) == 1
            assert determinants == []
            return
        assert a_builds == substitutions == []
        if argv[0] == "frobenius":
            # No determinant is taken, and each printed matrix is a leading
            # block of the certified one.
            assert determinants == []
            certified = certificates[0][0].to_strings()
            records = json.loads(capsys.readouterr().out)["records"]
            assert [r["matrix"] for r in records] \
                == [[row[:n - 2] for row in certified[:n - 2]] for n in range(6, 10)]
            return
        # The determinant is certified on the matrix it was taken of.
        assert len(determinants) == len(b_sizes)
        assert all(d[0] is c[0] for d, c in zip(determinants, certificates))

    def test_each_cyclotomic_split_once_per_process(self, monkeypatch, capsys):
        f7 = Field.prime(7)
        cyclotomics = {UniPoly(f7, factor.cyclotomic(m).coeffs)
                       for m in range(2, 32) if m % 7}
        factor._split_cyclotomic.cache_clear()
        blocks = _count_calls(monkeypatch, factor, "_equal_degree")
        assert main(["factors", "--set", "1..30", "--field", "fp:7"]) == EXIT_OK
        split = [args[0] for args in blocks if args[0] in cyclotomics]
        assert len(split) == len(set(split)) == len(cyclotomics)


    def test_frobenius_factors_by_the_certified_route(self, monkeypatch, capsys):
        # Every collapsed determinant is tau_(n-2), so its F_p factors come
        # from factor_tau's Rabin-proven splits, not the generic engine.
        factor._split_cyclotomic.cache_clear()
        generic = _count_calls(monkeypatch, factor, "_distinct_degree")
        proofs = _count_calls(monkeypatch, factor, "_is_irreducible")
        assert main(["frobenius", "--n-set", "6..12", "--field", "fp:5"]) == EXIT_OK
        assert generic == []
        assert proofs

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

    @pytest.mark.parametrize("field", ["q", "fp:7"])
    def test_at_most_one_gcd_per_report(self, monkeypatch, capsys, field):
        # A report proves its factors coprime by one squarefree test of their
        # product; gcds inside a cyclotomic split (equal-degree splitting,
        # Rabin's test) are not the report's.
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
        assert 0 < len(report_gcds) <= 40


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

    def test_wrong_determinant_reports_identity_false(self, monkeypatch, capsys):
        # verify-lemma1 builds B_3 once; perturbing a diagonal entry of it
        # changes every leading minor that contains the entry.
        build_b = cli.build_b

        def corrupting(pos, entry):
            def corrupted(i, field):
                b = build_b(i, field)
                entries = [list(b.row(r)) for r in range(i)]
                entries[pos][pos] = entries[pos][pos] + parse_poly(entry, field)
                return PolyMatrix(entries)
            return corrupted

        # Not a form, or a form in B_1: every identity is false and the report
        # says so.
        for entry in ("1", "s"):
            monkeypatch.setattr(cli, "build_b", corrupting(0, entry))
            assert main(["verify-lemma1", "--max-i", "3"]) == EXIT_CHECK_FAILED
            payload = json.loads(capsys.readouterr().out)
            assert [r["identity"] for r in payload["results"]] == [False, False, False]
            assert payload["all_pass"] is False
        # A form in the last diagonal entry leaves det B_1 and det B_2 right,
        # so the certificate of B_3 runs and rejects it.
        monkeypatch.setattr(cli, "build_b", corrupting(2, "s"))
        assert main(["verify-lemma1", "--max-i", "3"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: certificate check failed:")

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

    # Each A_(d-1) is a leading block of A_N, so corrupting only A_N fails
    # the one check of A_N, and with it every record's flag.
    @pytest.mark.parametrize("col, entry, failed, passed", [
        (-3, "2*s*x^2", "relations_match_b", "column_bidegrees_ok"),
        (-1, "t*x*y", "column_bidegrees_ok", "relations_match_b"),
    ], ids=["doubled_s", "wrong_bidegree"])
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


class TestAtTheBound:
    @pytest.mark.parametrize("field", ["q", "fp:101"])
    def test_verify_lemma1_at_max_i(self, capsys, field):
        argv = ["verify-lemma1", "--max-i", str(cli.MAX_INDEX), "--field", field]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["results"]) == cli.MAX_INDEX

    @pytest.mark.parametrize("field", ["q", "fp:101"])
    def test_factors_at_max_index(self, capsys, field):
        assert main(["factors", "--set", f"1..{cli.MAX_INDEX}", "--field", field]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)["growth"]["records"]
        assert len(records) == cli.MAX_INDEX

    @pytest.mark.parametrize("field", ["q", "fp:7"])
    def test_cohomology_at_max_d(self, capsys, field):
        argv = ["cohomology", "--d-min", "2", "--d-max", str(cli.MAX_D), "--field", field]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["records"]) == cli.MAX_D - 1

    @pytest.mark.parametrize("field", ["q", "fp:5"])
    def test_frobenius_at_max_n(self, capsys, field):
        argv = ["frobenius", "--n-set", f"6..{cli.MAX_N}", "--field", field]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        assert len(payload["records"]) == cli.MAX_N - 5


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

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "cokerlab.cli", "--version"],
            capture_output=True, text=True, timeout=60, env=CHILD_ENV)
        assert result.returncode == 0
        assert "cokerlab" in result.stdout


class TestPackageExports:
    def test_every_export_resolves(self):
        missing = [name for name in cokerlab.__all__ if not hasattr(cokerlab, name)]
        assert missing == []

    def test_star_import(self):
        namespace: dict = {}
        exec("from cokerlab import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(cokerlab.__all__)
