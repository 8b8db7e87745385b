import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokerlab import cli, cohomology, matrices
from cokerlab.arith import Field, Form, Monomial, MultiPoly, exact_divide, parse_poly, tau
from cokerlab.matrices import (
    MembershipCertificate,
    PolyMatrix,
    adjugate_column,
    build_a,
    build_b,
    build_m,
    certify_det_b,
    continuant,
    det,
    solve_square,
)
from oracles import det_by_permutations

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F101 = Field.prime(101)


def qp(text):
    return parse_poly(text, Q)


def qmat(rows):
    return PolyMatrix([[qp(e) for e in row] for row in rows])


def _abar(a):
    # A at x = y = 1 with no evaluation: entry (r, r+k) of A divided exactly by
    # x^2, x*y or y^2 for k = 0, 1, 2, so an entry with another monomial fails.
    x, y = MultiPoly.variable(a.field, "x"), MultiPoly.variable(a.field, "y")
    monomials = {0: x * x, 1: x * y, 2: y * y}
    rows = [{c: exact_divide(e, monomials[c - r]) for c, e in row.items()}
            for r, row in enumerate(a.nonzeros)]
    assert None not in (e for row in rows for e in row.values())
    return PolyMatrix.from_nonzeros(a.field, a.cols, rows)


class TestGuards:
    # Each argument check, on the input it exists for: its exception class and
    # its whole message.  The last two inputs lost their checks here; the
    # constructor rejects them.
    @pytest.mark.parametrize("call, error, message", [
        (lambda: build_b(2, Q)[2, 0], IndexError, "matrix index out of range"),
        (lambda: build_b(2, Q)[0, 2], IndexError, "matrix index out of range"),
        (lambda: continuant(build_a(2, Q)), ValueError, "continuant of a non-square matrix"),
        (lambda: build_b(2, Q).mul_vector([qp("1")]), ValueError,
         "dimension mismatch in matrix-vector product"),
        (lambda: build_b(2, Q).replace_column(0, [qp("1")]), ValueError,
         "replacement column has wrong length"),
        (lambda: adjugate_column(build_a(2, Q), 0), ValueError, "adjugate of a non-square matrix"),
        (lambda: solve_square(build_a(2, Q), [qp("1"), qp("0")]), ValueError,
         "solve_square requires a square matrix"),
        (lambda: solve_square(build_b(2, Q), [qp("1")]), ValueError,
         "right-hand side has wrong length"),
        (lambda: build_a(0, Q), ValueError, "matrix must have positive dimensions"),
        (lambda: build_b(0, Q), ValueError, "matrix must have positive dimensions"),
    ], ids=["row_out_of_range", "column_out_of_range", "continuant_non_square",
            "mul_vector_length", "replace_column_length", "adjugate_non_square",
            "solve_non_square", "solve_rhs_length", "build_a_0_by_from_nonzeros",
            "build_b_0_by_from_nonzeros"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


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
        assert _abar(build_a(1, Q)) == qmat([["s", "-t-s", "t"]])

    def test_abar_second_row(self):
        abar = _abar(build_a(2, Q))
        assert list(abar.row(1)) == [qp("0"), qp("s"), qp("-t-s"), qp("t")]

    def test_abar_is_specialized_a(self):
        # Abar is A at x = y = 1: every entry of A is its band entry in s, t
        # times x^2, x*y or y^2.
        assert _abar(build_a(3, Q)) == qmat([
            ["s", "-t-s", "t", "0", "0"],
            ["0", "s", "-t-s", "t", "0"],
            ["0", "0", "s", "-t-s", "t"],
        ])

    def test_b_small(self):
        assert build_b(1, Q) == qmat([["-t-s"]])
        assert build_b(2, Q) == qmat([["-t-s", "t"], ["s", "-t-s"]])
        assert build_b(3, Q) == qmat([
            ["-t-s", "t", "0"],
            ["s", "-t-s", "t"],
            ["0", "s", "-t-s"],
        ])

    @pytest.mark.parametrize("field", [Q, F2, F3, F101], ids=["q", "fp2", "fp3", "fp101"])
    @pytest.mark.parametrize("i", range(1, 31))
    def test_b_by_column_deletion(self, i, field):
        # Oracle: B is written from its band; the paper's rule deletes the
        # first and last columns of Abar = A at x = y = 1.
        assert build_b(i, field) == _abar(build_a(i, field)).without_columns([0, i + 1])

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
        d3 = det_by_permutations(build_b(3, Q))
        assert d3 == qp("-t^3-s*t^2-s^2*t-s^3")
        d1, d2 = det(build_b(1, Q)), det(build_b(2, Q))
        assert d3 == qp("-t-s") * d2 - qp("s*t") * d1

    def test_identity(self):
        assert det(qmat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])).is_one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(build_a(2, Q))

    @pytest.mark.parametrize("field", [Q, F5], ids=["q", "fp5"])
    def test_det_b_equals_tau(self, field):
        for i in range(1, 31):
            assert det(build_b(i, field)) == tau(i, field).to_multipoly()

    @pytest.mark.parametrize("field", [Q, F2], ids=["q", "fp2"])
    def test_a_wrong_b_or_a_wrong_tau_is_told_apart(self, field):
        # Mutation check: B_i with s added to one diagonal entry has
        # determinant tau_i + s * tau_k * tau_(i-1-k) != tau_i, and tau_i with
        # its t^i coefficient raised by one is not det(B_i).  A det that
        # returned tau_n, or a comparison that always held, fails here.
        s, t = MultiPoly.variable(field, "s"), MultiPoly.variable(field, "t")
        for i in range(1, 31):
            b, tau_i, k = build_b(i, field), tau(i, field).to_multipoly(), i // 2
            assert det(_with_entry(b, k, k, b[k, k] + s)) != tau_i
            assert det(b) != tau_i + t ** i

    def test_recurrence_full_range(self):
        dets = {i: det(build_b(i, Q)) for i in range(1, 31)}
        st = qp("s*t")
        for i in range(3, 31):
            assert dets[i] == qp("-t-s") * dets[i - 1] - st * dets[i - 2]

    def test_methods_agree_on_b(self):
        for field in (Q, F5):
            for i in range(1, 9):
                b = build_b(i, field)
                assert det(b) == det_by_permutations(b)

    def test_methods_agree_on_random(self):
        rng = random.Random(97)
        for field in (Q, F5):
            for n in range(1, 6):
                m = _random_matrix(rng, field, n)
                assert det(m) == det_by_permutations(m)

    def test_singular_matrix(self):
        m = qmat([["t", "t"], ["s", "s"]])
        assert det(m).is_zero()
        assert det_by_permutations(m).is_zero()

    def test_zero_pivot_swap(self):
        m = qmat([["0", "t"], ["s", "0"]])
        assert det(m) == qp("-s*t")

    def test_b_vanishes_at_origin(self):
        # Every stored entry is a form of degree 1 in s, t.
        for i in range(1, 16):
            entries = [e for row in build_b(i, Q).nonzeros for e in row.values()]
            assert all(Form.from_multipoly(e).degree == 1 for e in entries)


@st.composite
def _tridiagonal(draw):
    # Small random forms in s, t: up to three terms c*s^a*t^b with |c| <= 3,
    # of degree e <= 2 on the diagonal, e_low below it and 2e - e_low above
    # it, so that both terms of the continuant recurrence share one degree.
    field = draw(st.sampled_from([Q, F2, F5]))
    n = draw(st.integers(1, 7))
    e = draw(st.integers(0, 2))
    e_low = draw(st.integers(0, 2 * e))
    degrees = {-1: e_low, 0: e, 1: 2 * e - e_low}  # by column minus row

    def entry(degree):
        terms = st.dictionaries(st.integers(0, degree), st.integers(-3, 3), max_size=3)
        return MultiPoly(field, {Monomial.from_dict({"s": degree - b, "t": b}): field.coerce(c)
                                 for b, c in draw(terms).items()})

    zero = MultiPoly.zero(field)
    return PolyMatrix([[entry(degrees[c - r]) if abs(r - c) <= 1 else zero for c in range(n)]
                       for r in range(n)])


class TestContinuant:
    @settings(max_examples=150, deadline=None)
    @given(_tridiagonal())
    def test_matches_structure_blind_determinants(self, m):
        # Every leading principal minor, not only the determinant.
        minors = [d.to_multipoly() for d in continuant(m)]
        assert minors == [det(_block(m, 0, k)) for k in range(1, m.rows + 1)]
        assert minors[-1] == det_by_permutations(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            continuant(build_a(2, Q))

    def test_entry_outside_the_band_rejected(self):
        with pytest.raises(ValueError):
            continuant(qmat([["s", "t", "1"], ["s", "t", "s"], ["0", "s", "t"]]))

    def test_entries_that_are_not_forms_rejected(self):
        for rows in ([["s", "1"], ["1", "t^2+s"]],  # not homogeneous
                     [["s", "1"], ["1", "x*t"]],  # not in s, t
                     [["s", "1"], ["1", "t"]]):  # s*t - 1 has two degrees
            with pytest.raises(ValueError):
                continuant(qmat(rows))


def _block(m, lo, hi):
    # The principal block of rows and columns lo..hi-1.
    return PolyMatrix([m.row(r)[lo:hi] for r in range(lo, hi)])


def _raise(*args):
    raise AssertionError("the certificate must not call the continuant")


def _with_entry(b, row, col, entry):
    entries = [list(b.row(r)) for r in range(b.rows)]
    entries[row][col] = entry
    return PolyMatrix(entries)


class TestCertifyDetB:
    def test_w_is_the_adjugate_column(self):
        # Deleting row 1 and column j+1 of B_n leaves a block upper triangular
        # matrix, so adj(B_n)[j][0] = (-s)^j det T_m for the trailing m x m
        # block T_m, m = n-1-j, and T_m = B_m: one certificate covers every B_m.
        for field in (Q, F2, F5):
            minus_s = -MultiPoly.variable(field, "s")
            for n in range(1, 9):
                b = build_b(n, field)
                w = [e.to_multipoly() for e in certify_det_b(b)]
                assert w == adjugate_column(b, 0)
                for j in range(n):
                    m = n - 1 - j
                    if m:
                        assert _block(b, j + 1, n) == build_b(m, field)
                    minor = det(build_b(m, field)) if m else MultiPoly.one(field)
                    assert w[j] == minus_s ** j * minor

    @pytest.mark.parametrize("field", [Q, F2, F5], ids=["q", "fp2", "fp5"])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_non_constant_diagonal_rejected(self, field, n):
        # Adding s at (n-2, n-2) and tau_1 at (n-2, n-1) keeps B' w = tau e_1
        # and det T_m = tau_m for every trailing block, but T_2 != B_2 and the
        # leading block of size n-1 has determinant tau_(n-1) + s tau_(n-2):
        # only the band check stops the certificate from covering it.
        b = build_b(n, field)
        s = MultiPoly.variable(field, "s")
        entries = [list(b.row(r)) for r in range(n)]
        entries[n - 2][n - 2] = entries[n - 2][n - 2] + s
        entries[n - 2][n - 1] = entries[n - 2][n - 1] + tau(1, field).to_multipoly()
        patched = PolyMatrix(entries)
        w = adjugate_column(b, 0)
        assert patched.mul_vector(w) == b.mul_vector(w)
        assert det(_block(patched, n - 2, n)) == tau(2, field).to_multipoly()
        assert _block(patched, n - 2, n) != build_b(2, field)
        if n > 2:
            assert det(_block(patched, 0, n - 1)) != tau(n - 1, field).to_multipoly()
        with pytest.raises(ArithmeticError, match="constant diagonals"):
            certify_det_b(patched)

    def test_entries_above_the_band_rejected_by_the_band_check(self):
        # Adding row 2 to row 1 keeps B' w = tau e_1 and every trailing block,
        # but changes B_1 and puts t above the band.
        b = build_b(5, Q)
        entries = [list(b.row(r)) for r in range(5)]
        entries[0] = [e + f for e, f in zip(b.row(0), b.row(1))]
        with pytest.raises(ArithmeticError, match="constant diagonals"):
            certify_det_b(PolyMatrix(entries))

    def test_perturbed_superdiagonal_rejected(self):
        b = build_b(4, Q)
        for entry in ("2*t", "t+s", "s"):
            with pytest.raises(ArithmeticError, match="B w = tau e_1"):
                certify_det_b(_with_entry(b, 1, 2, qp(entry)))

    def test_entry_above_the_band_rejected(self):
        # Every nonzero entry of B is multiplied, not only its band.
        with pytest.raises(ArithmeticError, match="B w = tau e_1"):
            certify_det_b(_with_entry(build_b(4, Q), 0, 3, qp("s")))

    def test_entry_outside_s_t_is_an_arithmetic_error(self):
        b = build_b(4, Q)
        for row, col in ((1, 1), (1, 2), (0, 3)):
            with pytest.raises(ArithmeticError, match="not a form in s, t"):
                certify_det_b(_with_entry(b, row, col, qp("x*t")))
        with pytest.raises(ArithmeticError, match="not a form in s, t"):
            certify_det_b(_with_entry(b, 2, 2, qp("-t^2-s^2")))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            certify_det_b(build_m(6, Q))

    @pytest.mark.parametrize("field", [Q, F5], ids=["q", "fp5"])
    def test_independent_of_the_continuant(self, monkeypatch, field):
        monkeypatch.setattr(matrices, "continuant", _raise)
        minus_s = -MultiPoly.variable(field, "s")
        for i in range(1, 21):
            w = certify_det_b(build_b(i, field))
            assert len(w) == i and w[-1].to_multipoly() == minus_s ** (i - 1)
        for d in range(2, 21):
            _, (witness,) = cohomology.torsion_witness([d], field)
            assert witness.annihilator == tau(d - 1, field)
        # A whole verify-lemma1 run certifies B_20 once; cli keeps its own
        # binding of the continuant, so only the certificate would raise.
        certified = []
        certify = matrices.certify_det_b
        monkeypatch.setattr(cli, "certify_det_b", lambda b: certified.append(b.rows) or certify(b))
        assert cli.main(["verify-lemma1", "--max-i", "20", "--field", field.spec]) == cli.EXIT_OK
        assert certified == [20]


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
        rhs = [tau(2, Q).to_multipoly(), MultiPoly.zero(Q)]
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

    def test_a_solution_that_fails_b_w_eq_v_is_refused(self, monkeypatch):
        # Every Cramer quotient divides out; a wrong product must still be caught.
        monkeypatch.setattr(PolyMatrix, "mul_vector", lambda self, v: [qp("1")] * self.rows)
        with pytest.raises(ArithmeticError, match="solution verification failed"):
            solve_square(build_b(2, Q), [tau(2, Q).to_multipoly(), MultiPoly.zero(Q)])

    @pytest.mark.parametrize("d", range(3, 11))
    def test_residue_classes_are_torsion_and_nonzero(self, d):
        b = build_b(d - 1, Q)
        t_poly = tau(d - 1, Q).to_multipoly()
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

    def test_equal_fields_built_apart_accepted(self):
        other = Field.prime(5)
        assert other is not F5
        m = PolyMatrix([[parse_poly("1", F5), parse_poly("t", other)]])
        assert m.field == F5
        with pytest.raises(ValueError):
            PolyMatrix([[parse_poly("1", F5), parse_poly("t", Field.prime(7))]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([[qp("1"), qp("0")], [qp("1")]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([])

    def test_serialization(self):
        assert build_b(2, Q).to_strings() == [["-t-s", "t"], ["s", "-t-s"]]


# Entries biased to zero; "2" is also zero over F_2.
_SPARSE_ENTRIES = ("0", "0", "0", "s", "t", "-t-s", "x*s", "2")


@st.composite
def _dense(draw):
    field = draw(st.sampled_from([Q, F2, F5]))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def entries(k):
        return [parse_poly(draw(st.sampled_from(_SPARSE_ENTRIES)), field) for _ in range(k)]

    return field, [entries(n_cols) for _ in range(n_rows)], entries


def _assert_matches(m, rows):
    # rows is the dense reference, a list of lists of entries.
    assert (m.rows, m.cols) == (len(rows), len(rows[0]))
    assert not any(e.is_zero() for row in m.nonzeros for e in row.values())
    assert [[m[i, j] for j in range(m.cols)] for i in range(m.rows)] == rows
    assert [m.row(i) for i in range(m.rows)] == rows
    assert [m.column(j) for j in range(m.cols)] == [list(c) for c in zip(*rows)]
    assert m.to_strings() == [[str(e) for e in row] for row in rows]


class TestSparseStorage:
    @settings(max_examples=200, deadline=None)
    @given(_dense(), st.data())
    def test_matches_a_dense_reference(self, drawn, data):
        field, rows, entries = drawn
        n_rows, n_cols = len(rows), len(rows[0])
        m = PolyMatrix(rows)
        _assert_matches(m, rows)

        changed = [list(row) for row in rows]
        i, j = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_cols - 1))
        changed[i][j] = entries(1)[0]
        other = PolyMatrix(changed)
        assert (m == other) == (rows == changed)
        if rows == changed:
            assert hash(m) == hash(other)
        # replace_column stores column j last in each row: order is not content.
        same = m.replace_column(j, m.column(j))
        assert same == m and hash(same) == hash(m)
        zero = MultiPoly.zero(field)
        assert m != PolyMatrix([row + [zero] for row in rows])
        assert m != PolyMatrix(rows + [[zero] * n_cols])

        drop = data.draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows - 1))
        _assert_matches(m.without_rows(drop), [r for k, r in enumerate(rows) if k not in drop])
        drop = data.draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols - 1))
        _assert_matches(m.without_columns(drop),
                        [[e for k, e in enumerate(r) if k not in drop] for r in rows])
        with pytest.raises(ValueError):
            m.without_rows(range(n_rows))
        with pytest.raises(ValueError):
            m.without_columns(range(n_cols))

        v = entries(n_rows)
        _assert_matches(m.replace_column(j, v),
                        [[v[r] if k == j else e for k, e in enumerate(row)]
                         for r, row in enumerate(rows)])

        v = entries(n_cols)
        assert m.mul_vector(v) == [sum((e * x for e, x in zip(row, v)), zero) for row in rows]

    @pytest.mark.parametrize("field", [Q, F2, F5], ids=["q", "fp2", "fp5"])
    def test_b_stores_its_band_alone(self, field):
        for n in range(1, 21):
            assert sum(map(len, build_b(n, field).nonzeros)) == 3 * n - 2
