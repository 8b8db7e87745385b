"""Acceptance gate: every criterion is exercised at its stated tolerance
(exact equality throughout) and prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import json
import time
from pathlib import Path

from cokerlab.arith import (
    Field,
    Form,
    MultiPoly,
    gcd_univariate,
    parse_poly,
    sigma,
    tau,
)
from cokerlab.cli import EXIT_OK, main
from cokerlab.cohomology import (
    column_bidegree,
    component_dd,
    matrix_of_f,
    inverse_basis,
    tau_in_irrelevant_ideal,
    torsion_witness,
)
from cokerlab.factor import (
    accumulate_distinct,
    factor_over_prime_field,
    separability_check,
)
from cokerlab.frobenius import component_t, witness_growth
from cokerlab.matrices import adjugate_column, build_a, build_b, det, solve_square
from oracles import det_by_permutations

Q = Field.rationals()
GOLDEN_DIR = Path(__file__).parent / "golden"

ACCEPTANCE_FIELDS = [Field.from_spec(s) for s in
                     ("q", "fp:2", "fp:3", "fp:5", "fp:7", "fp:101")]


def _report(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_01_determinant_identity():
    start = time.monotonic()
    for field in ACCEPTANCE_FIELDS:
        for i in range(1, 31):
            assert det(build_b(i, field)) == tau(i, field).to_multipoly()
        for i in range(1, 9):
            b = build_b(i, field)
            assert det(b) == det_by_permutations(b)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"det(B_i) = tau_i, i <= 30, six fields, {elapsed:.1f}s")


def test_criterion_02_first_row_recurrence():
    dets = {i: det(build_b(i, Q)) for i in range(1, 31)}
    minus_ts = tau(1, Q).to_multipoly()
    st = parse_poly("s*t", Q)
    for i in range(3, 31):
        assert dets[i] == minus_ts * dets[i - 1] - st * dets[i - 2]
    _report(2, "three-term recurrence, i = 3..30")


def test_criterion_03_matrix_extraction():
    start = time.monotonic()
    for d in range(2, 26):
        assert matrix_of_f(d, Q) == build_a(d - 1, Q)
        assert len(inverse_basis(d + 2)) == d + 1
        assert len(inverse_basis(d)) == d - 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"matrix of multiplication map matches builder, d = 2..25, {elapsed:.1f}s")


def test_criterion_04_bigraded_collapse():
    for d in range(2, 16):
        a = build_a(d - 1, Q)
        assert component_dd(a).relations == build_b(d - 1, Q)
        for j in range(a.cols):
            assert column_bidegree(a, j) == (2, j + 1)
    _report(4, "component relations equal B_(d-1) and columns are bigraded, d = 2..15")


def test_criterion_05_torsion_certificates():
    for d in range(2, 11):
        b = build_b(d - 1, Q)
        t_poly = tau(d - 1, Q)
        zero = MultiPoly.zero(Q)
        solution = adjugate_column(b, 0)
        assert b.mul_vector(solution) == [t_poly.to_multipoly()] + [zero] * (d - 2)
        for j in range(d - 1):
            e_j = [zero] * (d - 1)
            e_j[j] = MultiPoly.one(Q)
            assert not solve_square(b, e_j).is_solution
        # Every entry is a form of degree 1 in s, t, so B vanishes at s = t = 0.
        assert all(Form.from_multipoly(e).degree == 1 for row in b.nonzeros for e in row.values())
        certified, (witness,) = torsion_witness([d], Q)
        assert certified == b
        assert witness.annihilator == t_poly
    _report(5, "torsion certificates and e_j non-membership, d = 2..10")


def test_criterion_06_rational_factor_growth():
    report = accumulate_distinct(range(1, 21), Q)
    assert report.final_distinct == 20
    witnesses = []
    for i, rep in zip(report.index_set, report.per_index):
        reassembled = MultiPoly.constant(Q, rep.unit)
        for poly, mult in rep.factors:
            assert poly.to_multipoly().is_homogeneous()
            reassembled = reassembled * poly.to_multipoly() ** mult
        assert reassembled == tau(i, Q).to_multipoly()
        witnesses.extend(poly for poly, _ in rep.factors)
    unique = list(dict.fromkeys(witnesses))
    assert len(unique) == 20
    for a in range(len(unique)):
        for b in range(a + 1, len(unique)):
            assert gcd_univariate(unique[a].u, unique[b].u).is_one()
    _report(6, "twenty pairwise-coprime witnesses from tau_1..tau_20 over Q")


def test_criterion_07_characteristic_p():
    checked = 0
    for p in (2, 3, 5, 7):
        m = 1
        while p ** m - 2 <= 341:
            if p ** m - 2 >= 1:
                cert = separability_check(p, m)
                assert cert.squarefree and cert.gcd.is_one() and cert.telescoping_ok
                checked += 1
            m += 1
    assert checked >= 15
    ladder = accumulate_distinct([1, 7, 25], Field.prime(3), seed=17)
    assert ladder.cumulative_distinct[0] < ladder.cumulative_distinct[1] \
        < ladder.cumulative_distinct[2]
    f7 = Field.prime(7)
    report = factor_over_prime_field(sigma(5, f7), seed=17)
    assert len(report.factors) == 5
    assert all(p_.degree() == 1 and m == 1 for p_, m in report.factors)
    roots = sorted(a for a in range(7) if sigma(5, f7)(a) == 0)
    assert sorted((7 - p_.coeffs[0]) % 7 for p_, _ in report.factors) == roots
    assert len(roots) == 5
    _report(7, f"separability at {checked} prime-power indices, growth mod 3, "
               "five roots of sigma_5 mod 7")


def test_criterion_08_frobenius_collapse_and_growth():
    start = time.monotonic()
    for field in (Q, Field.prime(3)):
        for n in range(6, 13):
            comp = component_t(n, n + 1, field)
            assert comp.presentation.relations == build_b(n - 2, field)
            assert det(comp.presentation.relations) == tau(n - 2, field).to_multipoly()
    ladder_q = witness_growth([6, 8, 10, 12], Q)
    assert all(b > a for a, b in zip(ladder_q.cumulative_distinct,
                                     ladder_q.cumulative_distinct[1:]))
    ladder_3 = witness_growth([9, 27], Field.prime(3), seed=17)
    assert ladder_3.cumulative_distinct[0] < ladder_3.cumulative_distinct[1]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(8, f"collapse to B_(n-2) with det tau_(n-2), n = 6..12, growth ladders, "
               f"{elapsed:.1f}s")


def test_criterion_09_irrelevant_ideal_membership():
    for i in range(1, 31):
        assert tau_in_irrelevant_ideal(i)
    _report(9, "tau_i has zero constant term, i = 1..30")


def test_criterion_10_reproducibility(tmp_path):
    configs = [
        ["verify-lemma1", "--max-i", "8", "--field", "fp:5"],
        ["factors", "--set", "1..8", "--field", "fp:3", "--seed", "2"],
        ["cohomology", "--d-min", "2", "--d-max", "5"],
        ["frobenius", "--n-set", "6,8"],
    ]
    for k, argv in enumerate(configs):
        first = tmp_path / f"run_{k}_a.json"
        second = tmp_path / f"run_{k}_b.json"
        assert main(argv + ["--output", str(first)]) == EXIT_OK
        assert main(argv + ["--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
    pinned = tmp_path / "cohomology.json"
    assert main(["cohomology", "--d-min", "2", "--d-max", "5", "--field", "q",
                 "--output", str(pinned)]) == EXIT_OK
    assert pinned.read_bytes() == (GOLDEN_DIR / "cohomology_d2_5_q.json").read_bytes()
    json.loads(pinned.read_text())  # the pinned report is valid JSON
    pinned_f = tmp_path / "frobenius.json"
    assert main(["frobenius", "--n-set", "8", "--field", "q",
                 "--output", str(pinned_f)]) == EXIT_OK
    assert pinned_f.read_bytes() == (GOLDEN_DIR / "frobenius_n8_q.json").read_bytes()
    _report(10, "byte-identical reruns and pinned golden reports")
