import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokerlab.arith import (
    Field,
    FieldMismatchError,
    Form,
    Monomial,
    MultiPoly,
    UniPoly,
    _is_canonical_scalar,
    exact_divide,
    gcd_univariate,
    parse_poly,
    sigma,
    tau,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)
F101 = Field.prime(101)


def qp(text):
    return parse_poly(text, Q)


class TestField:
    def test_spec_round_trip(self):
        assert Field.from_spec("q") == Q
        assert Field.from_spec("fp:7") == F7
        assert F7.spec == "fp:7"
        assert Q.spec == "q"

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Field.prime(6)
        with pytest.raises(ValueError):
            Field.from_spec("fp:91")

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            Field.from_spec("zp:7")

    def test_characteristic(self):
        assert Q.characteristic == 0
        assert F3.characteristic == 3

    def test_scalar_arithmetic_mod_p(self):
        assert F7.add(5, 4) == 2
        assert F7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
        assert F7.coerce(Fraction(1, 3)) == 5
        assert F7.coerce(-1) == 6

    def test_rational_scalars_stay_exact(self):
        assert Q.div(Q.one, Q.coerce(3)) == Fraction(1, 3)


class TestGuards:
    # Each argument check, on the input it exists for: its exception class and
    # its whole message.
    @pytest.mark.parametrize("call, error, message", [
        (lambda: F7.coerce(Fraction(1, 7)), ZeroDivisionError, "denominator vanishes modulo p"),
        (lambda: Q.inv(0), ZeroDivisionError, "inverse of zero"),
        (lambda: F7.inv(0), ZeroDivisionError, "inverse of zero"),
        (lambda: Q.div(1, 0), ZeroDivisionError, "division by zero"),
        (lambda: Monomial.from_dict({"x": -1}), ValueError, "negative exponent for 'x'"),
        (lambda: Monomial.from_dict({"x": 1}) / Monomial.from_dict({"y": 1}), ValueError,
         "y does not divide x"),
        (lambda: MultiPoly.zero(Q).leading_term(), ValueError,
         "zero polynomial has no leading term"),
        (lambda: qp("t") ** -1, ValueError, "negative power of a polynomial"),
        (lambda: UniPoly.zero(Q).lc(), ValueError, "zero polynomial has no leading coefficient"),
        (lambda: UniPoly(Q, [1, 0, 1]).exact_quotient(UniPoly(Q, [-1, 1])), ValueError,
         "t-1 does not divide t^2+1"),
        (lambda: parse_poly("1/0", Q), ValueError, "bad factor '1/0' in '1/0'"),
    ], ids=["coerce_denominator", "inv_zero_q", "inv_zero_fp", "div_by_zero", "negative_exponent",
            "monomial_non_divisor", "leading_term_of_zero", "negative_power", "lc_of_zero",
            "exact_quotient_non_divisor", "parse_zero_denominator"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestMonomial:
    def test_exponent_map_drops_zeros(self):
        m = Monomial.from_dict({"x": 2, "y": 0, "s": 1})
        assert m.exponents == {"x": 2, "s": 1}
        assert Monomial.one().exponents == {}

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            Monomial.from_dict({"z": 1})

    def test_multiplication_and_division(self):
        a = Monomial.from_dict({"x": 2, "s": 1})
        b = Monomial.from_dict({"x": 1, "t": 3})
        assert (a * b).exponents == {"x": 3, "s": 1, "t": 3}
        assert (a * b / b) == a
        assert not b.divides(a)


class TestRingOps:
    def test_additive_inverse(self):
        assert qp("t+s") + qp("-t-s") == MultiPoly.zero(Q)

    def test_product_expansion(self):
        # (-t-s) * (t^2+s*t+s^2) expanded by hand, term by term.
        assert qp("-t-s") * qp("t^2+s*t+s^2") == qp("-t^3-2*s*t^2-2*s^2*t-s^3")

    def test_quartic_product_form(self):
        x, y = MultiPoly.variable(Q, "x"), MultiPoly.variable(Q, "y")
        s, t = MultiPoly.variable(Q, "s"), MultiPoly.variable(Q, "t")
        product = x * y * (x - y) * (s * x - t * y)
        assert product == qp("s*x^3*y-t*x^2*y^2-s*x^2*y^2+t*x*y^3")

    def test_power(self):
        assert qp("t+s") ** 2 == qp("t^2+2*s*t+s^2")
        assert qp("t+s") ** 0 == MultiPoly.one(Q)

    def test_scalar_multiply(self):
        assert 3 * qp("t+s") == qp("3*t+3*s")
        assert qp("t").scale(Fraction(1, 2)) == qp("1/2*t")

    def test_field_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            qp("t") + parse_poly("t", F7)

    def test_equal_fields_built_apart_mix(self):
        # The field check compares by value, not only by identity.
        other = Field.prime(7)
        assert other is not F7
        assert parse_poly("t", F7) + parse_poly("t", other) == parse_poly("2*t", F7)
        assert UniPoly(F7, [1, 1]) * UniPoly(other, [1, 1]) == UniPoly(F7, [1, 2, 1])
        with pytest.raises(FieldMismatchError):
            UniPoly(F7, [1, 1]) + UniPoly(Field.prime(5), [1, 1])

    def test_characteristic_two_collapse(self):
        assert parse_poly("t+s", F2) == parse_poly("-t-s", F2)


class TestExactDivide:
    def test_cubic_difference(self):
        a, b = qp("t^3-s^3"), qp("t-s")
        quotient = exact_divide(a, b)
        assert quotient == qp("t^2+s*t+s^2")
        assert quotient * b == a  # multiply back to confirm

    def test_multiply_then_divide_identity(self):
        t2 = tau(2, Q).to_multipoly()
        assert exact_divide(t2 * qp("s"), qp("s")) == t2

    def test_degree_obstruction(self):
        assert exact_divide(MultiPoly.one(Q), qp("t")) is None

    def test_non_divisible_same_degree(self):
        assert exact_divide(qp("t^2+1"), qp("t+1")) is None

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(qp("t"), MultiPoly.zero(Q))

    def test_random_round_trip(self):
        rng = random.Random(20260810)
        variables = ("x", "y", "s", "t", "u", "v")
        for field in (Q, F7):
            for _ in range(25):
                a = _random_poly(rng, field, variables)
                b = _random_poly(rng, field, variables)
                if b.is_zero():
                    continue
                assert exact_divide(a * b, b) == a


def _random_poly(rng, field, variables):
    terms = {}
    for _ in range(rng.randrange(4)):
        mono = Monomial.from_dict(
            {v: rng.randrange(3) for v in rng.sample(variables, 2)})
        terms[mono] = field.coerce(rng.randrange(-4, 5))
    return MultiPoly(field, terms)


class TestTau:
    def test_first_values(self):
        assert tau(1, Q).to_multipoly() == qp("-t-s")
        assert tau(2, Q).to_multipoly() == qp("t^2+s*t+s^2")
        assert tau(3, Q).to_multipoly() == qp("-t^3-s*t^2-s^2*t-s^3")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tau(0, Q)

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    def test_shape(self, field):
        for i in range(1, 31):
            t_i = tau(i, field).to_multipoly()
            assert t_i.is_homogeneous()
            assert t_i.degree() == tau(i, field).degree == i
            assert len(t_i) == i + 1


class TestSigma:
    def test_small_values(self):
        assert sigma(2, Q) == UniPoly(Q, [1, 1, 1])
        assert sigma(3, Q) == UniPoly(Q, [1, 1, 1, 1])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sigma(0, Q)

    def test_sigma5_at_one_mod_7(self):
        # Exhaustive evaluation oracle: six terms, each 1, sum to 6 mod 7.
        value = sum(pow(1, k, 7) for k in range(6)) % 7
        assert sigma(5, F7)(1) == value == 6

    def test_telescoping_identity(self):
        for field in (Q, F3):
            t = UniPoly.gen(field)
            for i in range(1, 31):
                assert sigma(i, field) * (t - 1) == t ** (i + 1) - 1


class TestHomogenize:
    # Homogenizing u is Form(u, deg u); dehomogenizing a form reads its u.
    def test_sigma2_matches_tau2(self):
        assert Form(sigma(2, Q), 2) == tau(2, Q)

    def test_dehomogenize_tau3(self):
        assert tau(3, Q).u == -sigma(3, Q)

    def test_round_trip(self):
        form = Form.from_multipoly(Form(sigma(4, Q), 4).to_multipoly())
        assert form.u == sigma(4, Q) and form.degree == 4

    def test_sign_bridge_both_fields(self):
        for field in (Q, F3):
            for i in range(1, 31):
                sign = 1 if i % 2 == 0 else -1
                assert Form(sign * sigma(i, field), i) == tau(i, field)
                assert tau(i, field).u == sign * sigma(i, field)

    def test_errors(self):
        with pytest.raises(ValueError):
            Form(sigma(2, Q), 1)  # t^2 + t + 1 has no room in degree 1
        with pytest.raises(ValueError):
            Form.from_multipoly(qp("t^2+s"))  # not homogeneous
        with pytest.raises(ValueError):
            Form.from_multipoly(qp("x*t"))  # wrong variables


FORM_FIELDS = [Q, F2, F7, F101]


@st.composite
def _form(draw, field, degree=None):
    # A form of degree <= 4 whose coefficients of t^degree and s^degree
    # vanish at random, so forms divisible by s, by t and by both occur.
    d = draw(st.integers(0, 4)) if degree is None else degree
    scalar = st.integers(-4, 4)
    if field.is_rationals:
        scalar = st.one_of(scalar, st.fractions(-2, 2, max_denominator=3))
    coeffs = [field.coerce(c) for c in draw(st.lists(scalar, min_size=d + 1,
                                                     max_size=d + 1))]
    if draw(st.booleans()):
        coeffs[-1] = 0  # s divides
    if draw(st.booleans()):
        coeffs[0] = 0  # t divides
    return Form(UniPoly(field, coeffs), d)


@st.composite
def _form_pair(draw, same_degree=False):
    field = draw(st.sampled_from(FORM_FIELDS))
    a = draw(_form(field))
    return field, a, draw(_form(field, a.degree if same_degree else None))


class TestFormAgainstMultiPoly:
    """Form arithmetic and text against the MultiPoly oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_form_pair())
    def test_product(self, case):
        _, a, b = case
        assert (a * b).to_multipoly() == a.to_multipoly() * b.to_multipoly()

    @settings(max_examples=200, deadline=None)
    @given(_form_pair(same_degree=True))
    def test_sum_difference_and_negation(self, case):
        _, a, b = case
        assert (a + b).to_multipoly() == a.to_multipoly() + b.to_multipoly()
        assert (a - b).to_multipoly() == a.to_multipoly() - b.to_multipoly()
        assert (-a).to_multipoly() == -a.to_multipoly()

    @settings(max_examples=200, deadline=None)
    @given(_form_pair())
    def test_equality_hash_text_and_round_trip(self, case):
        _, a, b = case
        assert (a == b) == (a.to_multipoly() == b.to_multipoly())
        if a == b:
            assert hash(a) == hash(b)
        assert str(a) == str(a.to_multipoly())
        back = Form.from_multipoly(a.to_multipoly())
        assert back == a and (a.is_zero() or back.degree == a.degree)

    @settings(max_examples=200, deadline=None)
    @given(_form_pair())
    def test_divisibility(self, case):
        _, a, b = case
        if b.is_zero():
            return
        for target in (a, a * b):
            quotient = exact_divide(target.to_multipoly(), b.to_multipoly())
            assert b.divides(target) == (quotient is not None)
        assert b.divides(a * b)

    @pytest.mark.parametrize("field", FORM_FIELDS, ids=lambda f: f.spec)
    def test_zero_form(self, field):
        zeros = [Form(UniPoly.zero(field), d) for d in range(3)]
        zeros.append(Form.from_multipoly(MultiPoly.zero(field)))
        t_s = Form(UniPoly.gen(field), 2)
        for z in zeros:
            assert z == zeros[0] and hash(z) == hash(zeros[0])
            assert z.to_multipoly() == MultiPoly.zero(field)
            assert str(z) == "0"
            assert z + t_s == t_s and z * t_s == z
            assert z.is_zero() and t_s.divides(z)
            # A zero form divides only zero.
            assert z.divides(z) and not z.divides(t_s) and not z.divides(tau(2, field))
        assert Form(UniPoly.one(field), 0) != Form(UniPoly.one(field), 1)

    def test_times_minus_s(self):
        for field in FORM_FIELDS:
            minus_s = Form(UniPoly.constant(field, -1), 1)
            for i in range(5):
                power = Form(UniPoly.one(field), 0)
                for _ in range(i):
                    power = power * minus_s
                assert tau(3, field).times_minus_s(i) == tau(3, field) * power

    def test_text_in_both_fields(self):
        assert str(Form(UniPoly(Q, [0, Fraction(-1, 2), 3]), 4)) == "3*s^2*t^2-1/2*s^3*t"
        assert str(Form(UniPoly(F7, [-1, 0, 1]), 2)) == "t^2+6*s^2"

    def test_sum_of_different_degrees_rejected(self):
        with pytest.raises(ValueError):
            tau(1, Q) + tau(2, Q)


@st.composite
def _unipoly_pair(draw):
    field = draw(st.sampled_from(FORM_FIELDS))
    a, b = draw(_form(field)).u, draw(_form(field)).u
    return a, b


class TestUniPolyKernelStaysCanonical:
    # The kernel builds its results without re-checking them, so every
    # result must still hold canonical scalars and no trailing zero.
    @settings(max_examples=200, deadline=None)
    @given(_unipoly_pair())
    def test_results_are_canonical(self, pair):
        a, b = pair
        results = [a + b, a - b, -a, a * b, a.scale(3), a.derivative()]
        if not b.is_zero():
            results.extend(divmod(a, b))
        for r in results:
            assert all(_is_canonical_scalar(r.field, c) for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0
            assert UniPoly(r.field, r.coeffs) == r


class TestDerivative:
    def test_artin_schreier_slope(self):
        # d/dt of t*(t^(p-1) - 1) is the constant -1 in characteristic p.
        t = UniPoly.gen(F3)
        f = t * (t ** 2 - 1)
        assert f.derivative() == UniPoly.constant(F3, 2)
        t9 = UniPoly.gen(F3) ** 9 - UniPoly.gen(F3)
        assert t9.derivative() == UniPoly.constant(F3, 2)

    def test_rational_derivative(self):
        assert sigma(2, Q).derivative() == UniPoly(Q, [1, 2])

    def test_characteristic_collapse(self):
        for p in (2, 3, 7):
            field = Field.prime(p)
            assert (UniPoly.gen(field) ** p).derivative().is_zero()


GCD_FIELDS = (Q, F2, F3, F101, Field.prime(2_147_483_647))


def _euclid_by_divmod(a, b):
    # Reference: the textbook Euclidean algorithm on UniPoly divmod.
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


@st.composite
def _gcd_operands(draw):
    # Two multiples of one drawn common factor, so that most gcds are not 1;
    # a cofactor may be zero, and b may be a itself.
    field = draw(st.sampled_from(GCD_FIELDS))
    if field.is_rationals:
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        coeff = st.integers(0, field.p - 1)
    lead = coeff.filter(bool)
    common = UniPoly(field, draw(st.lists(coeff, max_size=3)) + [draw(lead)])
    a, b = (UniPoly(field, draw(st.lists(coeff, max_size=5))) * common for _ in "ab")
    return (a, a) if draw(st.booleans()) else (a, b)


class TestGcdUnivariate:
    def test_sigma5_separable_mod_7(self):
        s5 = sigma(5, F7)
        assert gcd_univariate(s5, s5.derivative()).is_one()
        # Exhaustive-root oracle: five distinct roots in F_7.
        roots = [a for a in range(7) if s5(a) == 0]
        assert roots == [2, 3, 4, 5, 6]

    def test_common_factor(self):
        t = UniPoly.gen(Q)
        assert gcd_univariate(t ** 2 - 1, t - 1) == t - 1

    def test_gcd_with_zero_is_monic(self):
        f = UniPoly(Q, [2, 2])
        assert gcd_univariate(f, UniPoly.zero(Q)) == UniPoly(Q, [1, 1])

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(ValueError):
            gcd_univariate(UniPoly.zero(Q), UniPoly.zero(Q))

    @pytest.mark.parametrize("field", GCD_FIELDS, ids=lambda f: f.spec)
    def test_zero_and_equal_operands_give_the_monic_operand(self, field):
        f = UniPoly(field, [3, 0, 5, 2])
        zero = UniPoly.zero(field)
        for a, b in ((f, zero), (zero, f), (f, f)):
            g = gcd_univariate(a, b)
            assert g == f.monic() == _euclid_by_divmod(a, b)
            assert g.lc == 1

    @settings(max_examples=300, deadline=None)
    @given(_gcd_operands())
    def test_matches_euclid_on_divmod(self, operands):
        a, b = operands
        if a.is_zero() and b.is_zero():
            with pytest.raises(ValueError):
                gcd_univariate(a, b)
            return
        g = gcd_univariate(a, b)
        assert g == _euclid_by_divmod(a, b) == gcd_univariate(b, a)
        assert g.lc == 1
        assert (a % g).is_zero() and (b % g).is_zero()


class TestUniPolyBasics:
    def test_divmod(self):
        t = UniPoly.gen(Q)
        q, r = divmod(t ** 3 - 1, t - 1)
        assert q == t ** 2 + t + 1
        assert r.is_zero()

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly.gen(Q), UniPoly.zero(Q))

    def test_leading_coefficient_invariant(self):
        assert UniPoly(Q, [1, 2, 0, 0]).degree() == 1

    def test_evaluate(self):
        assert sigma(4, F7)(2) == (1 + 2 + 4 + 8 + 16) % 7


class TestCanonicalText:
    CORPUS = [
        "0",
        "1",
        "-1",
        "t",
        "-t^3-s*t^2-s^2*t-s^3",
        "t^2+s*t+s^2",
        "s*x^3*y-t*x^2*y^2-s*x^2*y^2+t*x*y^3",
        "1/2*t+3/4",
        "t*u^2*y^2-t*u*v*x*y-s*u*v*x*y+s*v^2*x^2",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_rational(self, text):
        poly = qp(text)
        assert parse_poly(str(poly), Q) == poly

    def test_round_trip_prime_field(self):
        for text in self.CORPUS:
            poly = parse_poly(text, F7)
            assert parse_poly(str(poly), F7) == poly

    def test_canonical_output(self):
        assert str(tau(3, Q)) == "-t^3-s*t^2-s^2*t-s^3"
        assert str(tau(1, F2)) == "t+s"
        assert str(MultiPoly.zero(Q)) == "0"
        assert str(qp("y*x")) == "x*y"

    def test_parse_rejects_garbage(self):
        for bad in ["", "t^", "z+1", "t**2", "1//2"]:
            with pytest.raises(ValueError):
                qp(bad)

    # A sign with no term after it leaves a character that no chunk covers.
    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("text", ["t++s", "+", "-", "t+", "t-"])
    def test_parse_rejects_a_sign_without_a_term(self, text, field):
        with pytest.raises(ValueError) as excinfo:
            parse_poly(text, field)
        assert str(excinfo.value) == f"malformed polynomial text {text!r}"

    def test_term_order_is_graded_lex(self):
        # Degree dominates; within a degree t beats s beats y beats x.
        assert str(qp("s^3+t*s^2+x^4")) == "x^4+s^2*t+s^3"
