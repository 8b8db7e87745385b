import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokerlab import cohomology
from cokerlab.arith import (
    Field,
    Form,
    Monomial,
    MultiPoly,
    exact_divide,
    gcd_univariate,
    parse_poly,
    tau,
)
from cokerlab.cohomology import (
    Bidegree,
    InverseElement,
    InverseMonomial,
    bidegree,
    column_bidegree,
    component_dd,
    in_irrelevant_ideal,
    inverse_basis,
    matrix_of_f,
    mult_by_f,
    multiplier_f,
    poly_bidegree,
    prime_witnesses,
    tau_in_irrelevant_ideal,
    torsion_witness,
)
from cokerlab.factor import factor_tau
from cokerlab.matrices import (
    PolyMatrix,
    adjugate_column,
    build_a,
    build_b,
    certify_det_b,
    solve_square,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)


def qp(text):
    return parse_poly(text, Q)


def qf(text):
    return Form.from_multipoly(qp(text))


def elem(alpha, beta):
    return InverseElement.basis_element(Q, InverseMonomial(alpha, beta))


class TestGuards:
    # Each argument check, on the input it exists for: its exception class and
    # its whole message.  The last two inputs lost their checks here; the
    # callee rejects them.
    @pytest.mark.parametrize("call, error, message", [
        (lambda: InverseElement(Q, {InverseMonomial(1, 1): parse_poly("t", F7)}), ValueError,
         "coefficient over the wrong field"),
        (lambda: poly_bidegree(MultiPoly.zero(Q), 1), ValueError,
         "the zero polynomial has no bidegree"),
        (lambda: column_bidegree(PolyMatrix.from_nonzeros(Q, 1, [{0: qp("x")}, {0: qp("x")}]), 0),
         ValueError, "column is not bihomogeneous"),
        (lambda: torsion_witness([1], Q), ValueError,
         "torsion_witness requires a nonempty d_set with every d >= 2"),
        (lambda: torsion_witness([], Q), ValueError,
         "torsion_witness requires a nonempty d_set with every d >= 2"),
        (lambda: matrix_of_f(1, Q), ValueError, "the module vanishes above degree -2"),
        (lambda: prime_witnesses(1, factor_tau(1, Q)), ValueError, "tau(i) requires i >= 1"),
    ], ids=["wrong_field", "bidegree_of_zero", "mixed_column", "torsion_d1", "torsion_empty",
            "matrix_of_f_d1_by_inverse_basis", "prime_witnesses_d1_by_tau"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestMultiplier:
    def test_display_form(self):
        assert multiplier_f(Q) == qp("s*x^2*v^2-t*x*y*u*v-s*x*y*u*v+t*y^2*u^2")

    def test_homogeneous_of_uv_degree_two(self):
        for mono, _ in multiplier_f(Q).items():
            assert mono.exponent("u") + mono.exponent("v") == 2


class TestInverseModel:
    def test_inverse_monomial_requires_positive_parts(self):
        with pytest.raises(ValueError):
            InverseMonomial(0, 2)

    def test_degree(self):
        assert InverseMonomial(1, 3).degree == -4

    def test_coefficients_must_avoid_u_v(self):
        with pytest.raises(ValueError):
            InverseElement(Q, {InverseMonomial(1, 1): qp("u")})

    def test_mult_kills_u_boundary(self):
        # Only the pure-v term of the quadric keeps both exponents negative.
        image = mult_by_f(elem(1, 3))
        assert image.terms == {InverseMonomial(1, 1): qp("s*x^2")}

    def test_mult_keeps_middle_term(self):
        image = mult_by_f(elem(2, 2))
        assert image.terms == {InverseMonomial(1, 1): qp("-t*x*y-s*x*y")}

    def test_mult_vanishes_at_top(self):
        assert mult_by_f(elem(1, 1)).is_zero()

    def test_basis_ordering(self):
        basis = inverse_basis(4)
        assert [(im.alpha, im.beta) for im in basis] == [(1, 3), (2, 2), (3, 1)]

    def test_basis_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            inverse_basis(1)


class TestMatrixOfF:
    def test_d2_single_row(self):
        assert matrix_of_f(2, Q) == build_a(1, Q)
        assert len(inverse_basis(2)) == 1
        assert inverse_basis(2) == [InverseMonomial(1, 1)]

    def test_d3_matches_display(self):
        assert matrix_of_f(3, Q) == build_a(2, Q)

    @pytest.mark.parametrize("d", range(2, 26))
    def test_matches_builder(self, d):
        assert matrix_of_f(d, Q) == build_a(d - 1, Q)

    def test_ranks(self):
        for d in range(2, 26):
            assert len(inverse_basis(d + 2)) == d + 1
            assert len(inverse_basis(d)) == d - 1

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            matrix_of_f(1, Q)

    def test_prime_field_variant(self):
        assert matrix_of_f(4, F3) == build_a(3, F3)


class TestBidegree:
    def test_examples(self):
        assert bidegree(Monomial.from_dict({"s": 1, "x": 2}), 1) == Bidegree(2, 1)
        d = 7
        assert bidegree(Monomial.from_dict({"x": 1, "y": d - 1}), 1) == Bidegree(d, d)
        assert bidegree(Monomial.from_dict({"s": 3, "t": 5}), 4) == Bidegree(0, 4)

    def test_rejects_u_v(self):
        with pytest.raises(ValueError):
            bidegree(Monomial.variable("u"), 1)

    def test_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            bidegree(Monomial.one(), 0)

    def test_poly_bidegree_requires_agreement(self):
        with pytest.raises(ValueError):
            poly_bidegree(qp("x+y^2"), 1)
        assert poly_bidegree(qp("-t*x*y-s*x*y"), 2) == Bidegree(2, 3)

    @pytest.mark.parametrize("d", range(2, 26))
    def test_columns_of_a(self, d):
        a = build_a(d - 1, Q)
        for j in range(a.cols):
            assert column_bidegree(a, j) == Bidegree(2, j + 1)


class TestComponent:
    def test_relations_collapse_small(self):
        assert component_dd(build_a(2, Q)).relations == build_b(2, Q)
        assert component_dd(build_a(1, Q)).relations.to_strings() == [["-t-s"]]

    @pytest.mark.parametrize("d", range(2, 16))
    def test_relations_collapse(self, d):
        assert component_dd(build_a(d - 1, Q)).relations == build_b(d - 1, Q)

    def test_generators(self):
        pres = component_dd(build_a(4, Q))
        assert len(pres.generators) == 4
        for j, gen in enumerate(pres.generators, start=1):
            assert gen.index == j
            assert gen.monomial == Monomial.from_dict({"x": j, "y": 5 - j})
            assert gen.bidegree == Bidegree(5, 5)

    def test_relations_live_in_st(self):
        pres = component_dd(build_a(5, Q))
        for i in range(pres.relations.rows):
            for j in range(pres.relations.cols):
                assert pres.relations[i, j].variables() <= {"s", "t"}

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    def test_one_product_per_stored_entry_of_the_middle_columns(self, monkeypatch, field):
        # A_(d-1) stores 3(d-1) entries, and two of them lie in its first and
        # last columns, which carry no relation.
        products = []
        multiply = MultiPoly.__mul__
        monkeypatch.setattr(MultiPoly, "__mul__",
                            lambda f, g: products.append(None) or multiply(f, g))
        for d in range(2, 21):
            a = build_a(d - 1, field)
            products.clear()
            component_dd(a)
            assert len(products) == 3 * d - 5

    # A_3 (d = 4) with one entry replaced: row r holds generator x^(r+1)*y^(3-r),
    # and column c is scaled by x^(c-1)*y^(3-c).  Each replacement leaves a
    # term that the generator does not divide, or a quotient outside k[s,t].
    @pytest.mark.parametrize("row, col, entry", [
        (0, 1, "-t*x*y-s*y^2"),  # one of two terms is not divisible
        (0, 1, "-t*x^2*y"),      # the quotient keeps x
        (1, 2, "-t*x*y^2"),      # the quotient keeps y
        (0, 1, "-t*x*y*u"),      # the quotient keeps u
        (2, 1, "1"),             # an entry off the band of a middle column
    ], ids=["not_divisible", "keeps_x", "keeps_y", "keeps_u", "off_band"])
    def test_rejects_entry_off_the_generators(self, row, col, entry):
        rows = [dict(r) for r in build_a(3, Q).nonzeros]
        rows[row][col] = qp(entry)
        with pytest.raises(ArithmeticError):
            component_dd(PolyMatrix.from_nonzeros(Q, 5, rows))

    def test_rejects_wrong_shape(self):
        # component_dd presents A_(d-1), which is (d-1) x (d+1).
        for m in (build_b(3, Q), build_a(3, Q).without_columns([0])):
            with pytest.raises(ValueError):
                component_dd(m)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_component_of_a_leading_block_is_a_leading_block(self, data):
        # A_N with a random linear form in s, t at each band position: the
        # component of every A_(d-1) is the leading block of A_N's, the fact
        # that lets cohomology check A_N alone.
        field = data.draw(st.sampled_from([Q, F2, F7]))
        n = data.draw(st.integers(1, 12))
        coeffs = st.integers(-3, 3)
        rows = [{c: MultiPoly(field, {Monomial.from_dict({"s": 1, "x": 2 + r - c, "y": c - r}):
                                      data.draw(coeffs),
                                      Monomial.from_dict({"t": 1, "x": 2 + r - c, "y": c - r}):
                                      data.draw(coeffs)})
                 for c in range(r, r + 3)} for r in range(n)]
        a = PolyMatrix.from_nonzeros(field, n + 2, rows)
        relations = component_dd(a).relations
        for m in range(1, n + 1):
            block = a.without_rows(range(m, n)).without_columns(range(m + 2, n + 2))
            assert component_dd(block).relations \
                == relations.without_rows(range(m, n)).without_columns(range(m, n))


class TestTorsionWitness:
    def test_d2(self):
        _, (w,) = torsion_witness([2], Q)
        assert w.annihilator == qf("-t-s")
        assert list(w.solution) == [qf("1")]
        assert w.failed_column == 1

    def test_d3_solution_is_adjugate_column(self):
        _, (w,) = torsion_witness([3], Q)
        assert list(w.solution) == [qf("-t-s"), qf("-s")]
        assert [e.to_multipoly() for e in w.solution] == adjugate_column(build_b(2, Q), 0)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_certificates_verify(self, d):
        for field in (Q, F2, F7):
            b, (w,) = torsion_witness([d], field)
            assert b == build_b(d - 1, field)
            solution = [e.to_multipoly() for e in w.solution]
            achieved = b.mul_vector(solution)
            expected = [tau(d - 1, field).to_multipoly()] + [MultiPoly.zero(field)] * (d - 2)
            assert achieved == expected
            # The closed-form solution is the adjugate column from cofactors.
            assert solution == adjugate_column(b, 0)
            # The certificate read off the adjugate column names the same
            # column as an independent Cramer solve.
            e1 = [MultiPoly.one(field)] + [MultiPoly.zero(field)] * (d - 2)
            assert w.failed_column == solve_square(b, e1).failed_column
            assert w.failed_column is not None
            # Every entry is a form of degree 1 in s, t, so the matrix vanishes
            # at the origin and the fiber there has full dimension d-1.
            assert all(Form.from_multipoly(e).degree == 1
                       for row in b.nonzeros for e in row.values())

    @pytest.mark.parametrize("field", [Q, F2, F7], ids=["q", "fp2", "fp7"])
    def test_one_certificate_serves_every_degree(self, field):
        # Each witness read off the one certificate of B_29 is the one B_(d-1),
        # a leading block of B_29, would certify alone.
        top, witnesses = torsion_witness(range(2, 31), field)
        assert top == build_b(29, field)
        assert [w.d for w in witnesses] == list(range(2, 31))
        for w in witnesses:
            n = w.d - 1
            b = build_b(n, field)
            assert top.without_rows(range(n, 29)).without_columns(range(n, 29)) == b
            assert list(w.solution) == certify_det_b(b)
            if w.d <= 10:
                assert [e.to_multipoly() for e in w.solution] == adjugate_column(b, 0)
            if w.d <= 8:
                e1 = [MultiPoly.one(field)] + [MultiPoly.zero(field)] * (w.d - 2)
                assert w.failed_column == solve_square(b, e1).failed_column

    @pytest.mark.parametrize("row, col", [(2, 0), (1, 0)], ids=["below_band", "subdiagonal"])
    def test_rejects_matrix_off_the_band(self, monkeypatch, row, col):
        # Adding w_2 at (row, col) and -w_col at (row, 2) keeps B' w = tau e_1,
        # so only the check of B's shape below the diagonal can reject B'.
        b = build_b(3, Q)
        w = adjugate_column(b, 0)
        entries = [list(b.row(r)) for r in range(3)]
        entries[row][col] = entries[row][col] + w[2]
        entries[row][2] = entries[row][2] - w[col]
        patched = PolyMatrix(entries)
        assert patched.mul_vector(w) == b.mul_vector(w)
        monkeypatch.setattr(cohomology, "build_b", lambda i, field: patched)
        with pytest.raises(ArithmeticError, match="subdiagonal"):
            torsion_witness([4], Q)

    def test_prime_field(self):
        _, (w,) = torsion_witness([4], F3)
        assert w.annihilator == tau(3, F3)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            torsion_witness([1], Q)


class TestPrimeWitnesses:
    def test_d2(self):
        witnesses = prime_witnesses(2, factor_tau(1, Q))
        assert [str(w.generator) for w in witnesses] == ["t+s"]

    def test_d4(self):
        witnesses = prime_witnesses(4, factor_tau(3, Q))
        assert [str(w.generator) for w in witnesses] == ["t+s", "t^2+s^2"]

    def test_rejects_report_of_another_index(self):
        with pytest.raises(ValueError):
            prime_witnesses(4, factor_tau(2, Q))

    def test_avoids_s_and_divides(self):
        for d in range(2, 11):
            for w in prime_witnesses(d, factor_tau(d - 1, Q)):
                assert w.avoids_s
                assert w.source_d == d
                generator = w.generator.to_multipoly()
                assert generator.is_homogeneous()
                assert exact_divide(tau(d - 1, Q).to_multipoly(), generator) is not None

    def test_cross_degree_distinctness(self):
        seen = {}
        for d in range(2, 11):
            for w in prime_witnesses(d, factor_tau(d - 1, Q)):
                seen.setdefault(w.generator, d)
        generators = list(seen)
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                g = gcd_univariate(generators[i].u, generators[j].u)
                assert g.is_one()


class TestIrrelevantIdeal:
    def test_tau_is_inside(self):
        for i in range(1, 31):
            assert tau_in_irrelevant_ideal(i)
            assert tau_in_irrelevant_ideal(i, F3)

    def test_constant_control_case(self):
        assert not in_irrelevant_ideal(MultiPoly.one(Q))
        assert in_irrelevant_ideal(qp("t+x*y"))
