import random

import pytest

from cokerlab.arith import Field, Monomial, MultiPoly, parse_poly, tau
from cokerlab.matrices import (
    MembershipCertificate,
    PolyMatrix,
    adjugate_column,
    build_a,
    build_abar,
    build_b,
    build_m,
    det,
    solve_square,
)

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


def qp(text):
    return parse_poly(text, Q)


def qmat(rows):
    return PolyMatrix([[qp(e) for e in row] for row in rows])


class TestBuilders:
    def test_a_two_rows(self):
        expected = qmat([
            ["s*x^2", "-t*x*y-s*x*y", "t*y^2", "0"],
            ["0", "s*x^2", "-t*x*y-s*x*y", "t*y^2"],
        ])
        assert build_a(2, Q) == expected

    def test_a_single_row(self):
        assert build_a(1, Q) == qmat([["s*x^2", "-t*x*y-s*x*y", "t*y^2"]])

    def test_a_rejects_zero(self):
        with pytest.raises(ValueError):
            build_a(0, Q)

    def test_abar_first_row(self):
        assert build_abar(1, Q) == qmat([["s", "-t-s", "t"]])

    def test_abar_second_row(self):
        assert list(build_abar(2, Q).row(1)) == [qp("0"), qp("s"), qp("-t-s"), qp("t")]

    def test_abar_is_specialized_a(self):
        assert build_a(3, Q).substitute({"x": 1, "y": 1}) == build_abar(3, Q)

    def test_b_small(self):
        assert build_b(1, Q) == qmat([["-t-s"]])
        assert build_b(2, Q) == qmat([["-t-s", "t"], ["s", "-t-s"]])

    def test_b3_by_column_deletion(self):
        # Oracle: apply the deletion rule to Abar directly.
        abar = build_abar(3, Q)
        deleted = abar.without_columns([0, 4])
        assert build_b(3, Q) == deleted
        assert deleted == qmat([
            ["-t-s", "t", "0"],
            ["s", "-t-s", "t"],
            ["0", "s", "-t-s"],
        ])

    def test_m_first_column(self):
        m = build_m(5, Q)
        assert (m.rows, m.cols) == (6, 2)
        assert m.column(0) == [qp("0"), qp("t"), qp("-t-s"), qp("s"), qp("0"), qp("0")]

    def test_m_boundary_rows_zero(self):
        m = build_m(8, Q)
        assert all(e.is_zero() for e in m.row(0))
        assert all(e.is_zero() for e in m.row(8))

    @pytest.mark.parametrize("d", range(5, 11))
    def test_m_collapses_to_b(self, d):
        m = build_m(d, Q)
        assert m.without_rows([0, 1, d - 1, d]) == build_b(d - 3, Q)

    def test_m_rejects_small_d(self):
        with pytest.raises(ValueError):
            build_m(4, Q)


class TestDeterminant:
    def test_b2_determinant(self):
        assert det(build_b(2, Q)) == qp("t^2+s*t+s^2")

    def test_cofactor_oracle_and_recurrence(self):
        d3 = det(build_b(3, Q), method="cofactor")
        assert d3 == qp("-t^3-s*t^2-s^2*t-s^3")
        d1, d2 = det(build_b(1, Q)), det(build_b(2, Q))
        assert d3 == qp("-t-s") * d2 - qp("s*t") * d1

    def test_identity(self):
        assert det(qmat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])).is_one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(build_a(2, Q))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            det(build_b(2, Q), method="lu")

    @pytest.mark.parametrize("field", [Q, F5], ids=["q", "fp5"])
    def test_det_b_equals_tau(self, field):
        for i in range(1, 31):
            assert det(build_b(i, field)) == tau(i, field)

    def test_recurrence_full_range(self):
        dets = {i: det(build_b(i, Q)) for i in range(1, 31)}
        st = qp("s*t")
        for i in range(3, 31):
            assert dets[i] == qp("-t-s") * dets[i - 1] - st * dets[i - 2]

    def test_methods_agree_on_b(self):
        for field in (Q, F5):
            for i in range(1, 9):
                b = build_b(i, field)
                assert det(b, "bareiss") == det(b, "cofactor")

    def test_methods_agree_on_random(self):
        rng = random.Random(97)
        for field in (Q, F5):
            for n in range(1, 6):
                m = _random_matrix(rng, field, n)
                assert det(m, "bareiss") == det(m, "cofactor")

    def test_singular_matrix(self):
        m = qmat([["t", "t"], ["s", "s"]])
        assert det(m).is_zero()
        assert det(m, "cofactor").is_zero()

    def test_zero_pivot_swap(self):
        m = qmat([["0", "t"], ["s", "0"]])
        assert det(m) == qp("-s*t")

    def test_b_vanishes_at_origin(self):
        for i in range(1, 16):
            assert build_b(i, Q).substitute({"s": 0, "t": 0}).is_zero()


def _random_matrix(rng, field, n):
    names = ("s", "t", "x")
    entries = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randrange(3)):
                mono = Monomial.from_dict({rng.choice(names): rng.randrange(2)})
                terms[mono] = field.coerce(rng.randrange(-3, 4))
            row.append(MultiPoly(field, terms))
        entries.append(row)
    return PolyMatrix(entries)


def _adjugate(m):
    return [adjugate_column(m, j) for j in range(m.cols)]


def _assert_adjugate_columns(m):
    # m adj(m) e_j = det(m) e_j for every column j.
    d = det(m)
    zero = MultiPoly.zero(m.field)
    for j in range(m.cols):
        expected = [d if r == j else zero for r in range(m.rows)]
        assert m.mul_vector(adjugate_column(m, j)) == expected


class TestAdjugate:
    def test_one_by_one(self):
        assert adjugate_column(build_b(1, Q), 0) == [qp("1")]

    def test_b2_cofactor_transpose(self):
        # Columns of adj(B_2) = [[-t-s, -t], [-s, -t-s]].
        assert _adjugate(build_b(2, Q)) == [[qp("-t-s"), qp("-s")], [qp("-t"), qp("-t-s")]]

    def test_diagonal_swap(self):
        m = qmat([["s", "0"], ["0", "t"]])
        assert _adjugate(m) == [[qp("t"), qp("0")], [qp("0"), qp("s")]]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            adjugate_column(build_a(2, Q), 0)

    @pytest.mark.parametrize("field", [Q, F2], ids=["q", "fp2"])
    def test_product_identity(self, field):
        for i in range(1, 9):
            _assert_adjugate_columns(build_b(i, field))

    def test_product_identity_random(self):
        rng = random.Random(131)
        for n in range(1, 5):
            _assert_adjugate_columns(_random_matrix(rng, Q, n))


class TestSolveSquare:
    def test_tau_multiple_of_e1(self):
        b = build_b(2, Q)
        rhs = [tau(2, Q), MultiPoly.zero(Q)]
        cert = solve_square(b, rhs)
        assert cert.is_solution
        assert list(cert.solution) == [qp("-t-s"), qp("-s")]
        assert b.mul_vector(list(cert.solution)) == rhs

    def test_e1_is_outside_image(self):
        b = build_b(2, Q)
        cert = solve_square(b, [MultiPoly.one(Q), MultiPoly.zero(Q)])
        assert not cert.is_solution
        assert cert.failed_column == 1

    def test_identity_system(self):
        v = [qp("s*t"), qp("x"), qp("-1")]
        cert = solve_square(qmat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), v)
        assert cert.is_solution
        assert list(cert.solution) == v

    def test_singular_rejected(self):
        m = qmat([["t", "t"], ["t", "t"]])
        with pytest.raises(ValueError):
            solve_square(m, [qp("1"), qp("1")])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            solve_square(build_b(2, Q), [qp("1")])

    @pytest.mark.parametrize("d", range(3, 11))
    def test_residue_classes_are_torsion_and_nonzero(self, d):
        b = build_b(d - 1, Q)
        t_poly = tau(d - 1, Q)
        zero = MultiPoly.zero(Q)
        for j in range(d - 1):
            e_j = [zero] * (d - 1)
            e_j[j] = MultiPoly.one(Q)
            assert not solve_square(b, e_j).is_solution
            scaled = [zero] * (d - 1)
            scaled[j] = t_poly
            assert solve_square(b, scaled).is_solution

    def test_certificate_requires_single_outcome(self):
        with pytest.raises(ValueError):
            MembershipCertificate(solution=None, failed_column=None)
        with pytest.raises(ValueError):
            MembershipCertificate(solution=(qp("1"),), failed_column=2)


class TestPolyMatrixType:
    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([[qp("1"), parse_poly("1", F5)]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([[qp("1"), qp("0")], [qp("1")]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([])

    def test_serialization(self):
        assert build_b(2, Q).to_strings() == [["-t-s", "t"], ["s", "-t-s"]]
