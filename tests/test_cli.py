import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cokerlab
from cokerlab import cohomology, factor, matrices
from cokerlab.arith import Field, MultiPoly, tau
from cokerlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_index_set,
)
from cokerlab.matrices import PolyMatrix

GOLDEN_DIR = Path(__file__).parent / "golden"
# Child processes import the same cokerlab package as this test process.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cokerlab.__file__).parents[1])}


class TestIndexSetParsing:
    def test_range(self):
        assert parse_index_set("1..5") == (1, 2, 3, 4, 5)

    def test_list(self):
        assert parse_index_set("1,7,25") == (1, 7, 25)

    def test_mixed_preserves_order_and_dedupes(self):
        assert parse_index_set("3..5, 1, 4") == (3, 4, 5, 1)

    def test_rejects_garbage(self):
        for bad in ["", "a", "3..", "5..3", "1,,2"]:
            with pytest.raises(UsageError):
                parse_index_set(bad)


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

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        assert main(["verify-lemma1", "--max-i", "2", "--output", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report to {target}: ")
        assert err.count("\n") == 1
        assert not target.exists()

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


class TestComputedOnce:
    def test_one_factorization_per_d_and_one_determinant_per_n(self, monkeypatch, capsys):
        # factor_tau factors through the factor module's global, and det,
        # adjugate_column and solve_square all eliminate through the matrices
        # module's global, so these count every call whichever binding starts it.
        factorizations = _count_calls(monkeypatch, factor, "factor_homogeneous_st")
        eliminations = _count_calls(monkeypatch, matrices, "_det_bareiss")
        assert main(["cohomology", "--d-min", "2", "--d-max", "6"]) == EXIT_OK
        q = Field.rationals()
        assert [args[0] for args in factorizations] == [tau(d - 1, q) for d in range(2, 7)]
        # The torsion certificate is written down, not eliminated for.
        assert eliminations == []
        eliminations.clear()
        assert main(["frobenius", "--n-set", "6,8"]) == EXIT_OK
        assert len(eliminations) == 2


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
