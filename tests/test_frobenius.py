import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokerlab import frobenius
from cokerlab.arith import Field, Monomial, MultiPoly, parse_poly, tau
from cokerlab.factor import accumulate_distinct
from cokerlab.frobenius import (
    CASE_AT_N,
    CASE_AT_N_PLUS_1,
    CASE_BELOW,
    component_t,
    defining_quartic,
    witness_growth,
)
from cokerlab.matrices import PolyMatrix, build_b, build_m, det

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)


def qp(text):
    return parse_poly(text, Q)


class TestGuards:
    # The degree range of component_t: its exception class and whole message.
    @pytest.mark.parametrize("call, error, message", [
        (lambda: component_t(6, 4, Q), ValueError, "component_t requires 4 < d <= n+1"),
        (lambda: component_t(6, 8, Q), ValueError, "component_t requires 4 < d <= n+1"),
    ], ids=["d_below", "d_above"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestDefiningQuartic:
    def test_rational_display(self):
        assert defining_quartic(Q) == qp("s*x^3*y-t*x^2*y^2-s*x^2*y^2+t*x*y^3")

    def test_product_form_cross_check(self):
        # Re-expand the product with explicit arithmetic as an oracle.
        from cokerlab.arith import MultiPoly
        x, y = MultiPoly.variable(Q, "x"), MultiPoly.variable(Q, "y")
        s, t = MultiPoly.variable(Q, "s"), MultiPoly.variable(Q, "t")
        assert defining_quartic(Q) == x * y * (x - y) * (s * x - t * y)

    def test_characteristic_two_sign_collapse(self):
        assert defining_quartic(F2) == parse_poly(
            "s*x^3*y+t*x^2*y^2+s*x^2*y^2+t*x*y^3", F2)


class TestComponent:
    def test_below_case(self):
        comp = component_t(8, 6, Q)
        assert comp.case == CASE_BELOW
        assert comp.presentation.relations == build_m(6, Q)
        gens = comp.presentation.generators
        assert len(gens) == 7
        assert gens[0].monomial == Monomial.from_dict({"y": 6})
        assert gens[-1].monomial == Monomial.from_dict({"x": 6})
        # Generator j labels row j (1-based) of M_d.
        assert [g.index for g in gens] == list(range(1, 8))

    def test_at_n_plus_one_collapses(self):
        comp = component_t(8, 9, Q)
        assert comp.case == CASE_AT_N_PLUS_1
        assert comp.presentation.relations == build_b(6, Q)
        gens = comp.presentation.generators
        assert len(gens) == 6
        assert gens[0].monomial == Monomial.from_dict({"x": 2, "y": 7})
        assert gens[-1].monomial == Monomial.from_dict({"x": 7, "y": 2})
        # Rows 1, 2, d and d + 1 of M_d are deleted.
        assert [g.index for g in gens] == list(range(3, 9))

    def test_at_n_case_shape(self):
        comp = component_t(8, 8, Q)
        assert comp.case == CASE_AT_N
        relations = comp.presentation.relations
        assert (relations.rows, relations.cols) == (7, 5)
        assert relations == build_m(8, Q).without_rows([0, 8])
        gens = comp.presentation.generators
        assert gens[0].monomial == Monomial.from_dict({"x": 1, "y": 7})
        assert gens[-1].monomial == Monomial.from_dict({"x": 7, "y": 1})
        # Rows 1 and d + 1 of M_d are deleted.
        assert [g.index for g in gens] == list(range(2, 9))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            component_t(5, 5, Q)  # n too small
        with pytest.raises(ValueError):
            component_t(8, 4, Q)  # d too small
        with pytest.raises(ValueError):
            component_t(8, 10, Q)  # d beyond n+1

    @pytest.mark.parametrize("n", range(6, 13))
    def test_collapse_row_deletion(self, n):
        comp = component_t(n, n + 1, Q)
        assert comp.presentation.relations == build_b(n - 2, Q)

    @pytest.mark.parametrize("field", [Q, F3], ids=["q", "fp3"])
    def test_collapsed_determinant_is_tau(self, field):
        for n in range(6, 13):
            comp = component_t(n, n + 1, field)
            assert det(comp.presentation.relations) == tau(n - 2, field).to_multipoly()

    def test_below_case_structure(self):
        # Zero boundary rows and tridiagonal (t, -(t+s), s) columns.
        for n in range(7, 13):
            for d in range(5, n):
                relations = component_t(n, d, Q).presentation.relations
                assert all(e.is_zero() for e in relations.row(0))
                assert all(e.is_zero() for e in relations.row(d))
                for j in range(relations.cols):
                    column = relations.column(j)
                    assert column[j + 1] == qp("t")
                    assert column[j + 2] == qp("-t-s")
                    assert column[j + 3] == qp("s")
                    others = [r for r in range(d + 1) if r not in (j + 1, j + 2, j + 3)]
                    assert all(column[r].is_zero() for r in others)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_collapse_at_each_n_is_a_leading_block(self, data):
        # M_d with a random linear form in s, t at each band position (r, j),
        # the same for every d: the collapse at each n is the leading block of
        # the collapse at the largest, the fact that lets collapse() take one.
        field = data.draw(st.sampled_from([Q, F2, F7]))
        top = data.draw(st.integers(4, 12))
        coeffs = st.integers(-3, 3)
        forms = {(j + k, j): MultiPoly(field, {Monomial.from_dict({"s": 1}): data.draw(coeffs),
                                               Monomial.from_dict({"t": 1}): data.draw(coeffs)})
                 for j in range(top) for k in (1, 2, 3)}

        def banded_m(d, field):
            return PolyMatrix.from_nonzeros(field, d - 3, [
                {j: forms[r, j] for j in range(d - 3) if (r, j) in forms}
                for r in range(d + 1)])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frobenius, "build_m", banded_m)
            relations = component_t(top + 2, top + 3, field).presentation.relations
            for n in range(6, top + 3):
                m = n - 2
                assert component_t(n, n + 1, field).presentation.relations \
                    == relations.without_rows(range(m, top)).without_columns(range(m, top))


class TestWitnessGrowth:
    def test_even_ladder_rational(self):
        report = witness_growth([6, 8, 10], Q)
        assert report.index_set == (6, 8, 10)
        assert report.cumulative_distinct == (1, 2, 4)
        assert all(b > a for a, b in zip(report.cumulative_distinct,
                                         report.cumulative_distinct[1:]))

    def test_powers_of_three(self):
        report = witness_growth([9, 27], F3, seed=6)
        assert report.cumulative_distinct[1] > report.cumulative_distinct[0]

    def test_singleton(self):
        report = witness_growth([6], Q)
        assert report.cumulative_distinct == (1,)  # tau_4 is irreducible over Q

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            witness_growth([5, 6], Q)

    def test_agrees_with_direct_accumulation(self):
        # Same witness stream as factoring tau_(n-2) directly.
        ladder = [6, 8, 10, 12]
        via_dets = witness_growth(ladder, Q)
        direct = accumulate_distinct([n - 2 for n in ladder], Q)
        assert via_dets.cumulative_distinct == direct.cumulative_distinct
        assert via_dets.new_distinct == direct.new_distinct
        for a, b in zip(via_dets.per_index, direct.per_index):
            assert a.factors == b.factors
