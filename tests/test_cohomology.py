import pytest

from cokerlab import cohomology
from cokerlab.arith import Field, Monomial, MultiPoly, dehomogenize, gcd_univariate, parse_poly, tau
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
from cokerlab.matrices import PolyMatrix, adjugate_column, build_a, build_b, solve_square

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)


def qp(text):
    return parse_poly(text, Q)


def elem(alpha, beta):
    return InverseElement.basis_element(Q, InverseMonomial(alpha, beta))


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
        assert component_dd(3, Q).relations == build_b(2, Q)
        assert component_dd(2, Q).relations.to_strings() == [["-t-s"]]

    @pytest.mark.parametrize("d", range(2, 16))
    def test_relations_collapse(self, d):
        assert component_dd(d, Q).relations == build_b(d - 1, Q)

    def test_generators(self):
        pres = component_dd(5, Q)
        assert len(pres.generators) == 4
        for j, gen in enumerate(pres.generators, start=1):
            assert gen.index == j
            assert gen.monomial == Monomial.from_dict({"x": j, "y": 5 - j})
            assert gen.bidegree == Bidegree(5, 5)

    def test_relations_live_in_st(self):
        pres = component_dd(6, Q)
        for i in range(pres.relations.rows):
            for j in range(pres.relations.cols):
                assert pres.relations[i, j].variables() <= {"s", "t"}

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            component_dd(1, Q)


class TestTorsionWitness:
    def test_d2(self):
        w = torsion_witness(2, Q)
        assert w.annihilator == qp("-t-s")
        assert list(w.solution) == [qp("1")]
        assert not w.nonmembership.is_solution

    def test_d3_solution_is_adjugate_column(self):
        w = torsion_witness(3, Q)
        assert list(w.solution) == [qp("-t-s"), qp("-s")]
        assert list(w.solution) == adjugate_column(build_b(2, Q), 0)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_certificates_verify(self, d):
        for field in (Q, F2, F7):
            w = torsion_witness(d, field)
            b = build_b(d - 1, field)
            achieved = b.mul_vector(list(w.solution))
            expected = [tau(d - 1, field)] + [MultiPoly.zero(field)] * (d - 2)
            assert achieved == expected
            # The closed-form solution is the adjugate column from cofactors.
            assert list(w.solution) == adjugate_column(b, 0)
            # The certificate read off the adjugate column names the same
            # column as an independent Cramer solve.
            e1 = [MultiPoly.one(field)] + [MultiPoly.zero(field)] * (d - 2)
            assert w.nonmembership.failed_column == solve_square(b, e1).failed_column
            assert w.nonmembership.failed_column is not None
            # The matrix vanishes at the origin, so the fiber there has full
            # dimension d-1.
            assert b.substitute({"s": 0, "t": 0}).is_zero()

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
            torsion_witness(4, Q)

    def test_prime_field(self):
        w = torsion_witness(4, F3)
        assert w.annihilator == tau(3, F3)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            torsion_witness(1, Q)


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
                assert w.generator.is_homogeneous()

    def test_cross_degree_distinctness(self):
        seen = {}
        for d in range(2, 11):
            for w in prime_witnesses(d, factor_tau(d - 1, Q)):
                seen.setdefault(w.generator, d)
        generators = list(seen)
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                g = gcd_univariate(dehomogenize(generators[i]),
                                   dehomogenize(generators[j]))
                assert g.is_one()


class TestIrrelevantIdeal:
    def test_tau_is_inside(self):
        for i in range(1, 31):
            assert tau_in_irrelevant_ideal(i)
            assert tau_in_irrelevant_ideal(i, F3)

    def test_constant_control_case(self):
        assert not in_irrelevant_ideal(MultiPoly.one(Q))
        assert in_irrelevant_ideal(qp("t+x*y"))
