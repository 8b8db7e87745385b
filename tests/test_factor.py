import inspect
import math
import random
import re
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cokerlab import factor
from cokerlab.arith import (
    Field,
    Form,
    UniPoly,
    gcd_univariate,
    parse_poly,
    sigma,
    tau,
)
from cokerlab.factor import (
    FactorReport,
    GrowthReport,
    _is_irreducible,
    accumulate_distinct,
    cyclotomic,
    factor_homogeneous_st,
    factor_over_prime_field,
    factor_tau,
    missing_prime_power_indices,
    separability_check,
    totient,
)
from oracles import CHECK_FIELD, check_factor_report, rabin_by_frobenius_matrix

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)
PRIMES = (2, 3, 5, 7, 11, 101)
BIG_PRIME = 2_147_483_647


def qp(text):
    return parse_poly(text, Q)


def qf(text):
    return Form.from_multipoly(qp(text))


def _brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _cyclotomic_by_division(n):
    # Oracle: t^n - 1 divided exactly by Phi_d for every proper divisor d.
    poly = UniPoly(Q, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_quotient(_cyclotomic_by_division(d))
    return poly


def _pow_mod_oracle(base, e, mod):
    # Schoolbook square and multiply on UniPoly, reducing by divmod.
    result, base = UniPoly.one(base.field), base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base, e = base * base % mod, e >> 1
    return result


def _pairwise_coprime_and_squarefree(polys):
    # Oracle: a gcd for every pair of listed factors, and one for each factor
    # and its derivative.  The product test is stronger than pairwise
    # coprimality by exactly the latter, which every irreducible factor over
    # Q or F_p passes.
    return (all(gcd_univariate(a, b).is_one()
                for k, a in enumerate(polys) for b in polys[k + 1:])
            and all(gcd_univariate(a, a.derivative()).is_one() for a in polys))


CHECK_PRIME = CHECK_FIELD.p


@st.composite
def _canonical_factor_lists(draw):
    # Small coefficients (and the check prime, which vanishes mod itself) so
    # that shared factors and modular collisions are common.
    p = draw(st.sampled_from((None, 2, 3, 7)))
    field = Q if p is None else Field.prime(p)
    leads = [1, 2, 3, Fraction(1, 2), CHECK_PRIME] if p is None else [1]
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        degree = draw(st.integers(1, 3))
        coeffs = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2, CHECK_PRIME]),
                               min_size=degree, max_size=degree))
        lead = draw(st.sampled_from(leads))
        pairs.append((UniPoly(field, coeffs + [lead]), draw(st.integers(1, 3))))
    return pairs


class TestGuards:
    # Each argument check, on the input it exists for: its exception class and
    # its whole message.  Without its check, totient(0) would loop for ever.
    # The last two inputs lost their checks here; the callee rejects them.
    @pytest.mark.parametrize("call, error, message", [
        (lambda: totient(-1), ValueError, "totient requires n >= 1"),
        (lambda: totient(0), ValueError, "totient requires n >= 1"),
        (lambda: separability_check(2, 0), ValueError, "separability_check requires m >= 1"),
        (lambda: factor_over_prime_field(UniPoly.zero(F7)), ValueError,
         "cannot factor the zero polynomial"),
        (lambda: factor_homogeneous_st(Form(UniPoly.zero(Q), 0)), ValueError,
         "cannot factor the zero polynomial"),
        (lambda: separability_check(2, 1), ValueError, "sigma(i) requires i >= 1"),
        (lambda: accumulate_distinct([0], Q), ValueError, "tau(i) requires i >= 1"),
    ], ids=["totient_negative", "totient_zero", "separability_m0", "factor_zero_fp",
            "factor_zero_form", "separability_index0_by_sigma", "accumulate_index0_by_tau"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestCyclotomic:
    def test_base_cases(self):
        t = UniPoly.gen(Q)
        assert cyclotomic(1) == t - 1
        assert cyclotomic(2) == t + 1
        assert cyclotomic(3) == t ** 2 + t + 1
        assert cyclotomic(4) == t ** 2 + 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 30])
    def test_product_over_divisors(self, n):
        # Independent oracle: the cyclotomics at divisors of n multiply
        # back to t^n - 1.
        t = UniPoly.gen(Q)
        product = UniPoly.one(Q)
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == t ** n - 1

    def test_a_wrong_prime_divisor_fails_the_division_check(self, monkeypatch):
        # With 2 taken for 5's prime divisor, t^2 - 1 must divide t^5 - 1.
        monkeypatch.setattr(factor, "_prime_divisors", lambda n: [2])
        cyclotomic.cache_clear()
        with pytest.raises(ArithmeticError, match="does not divide the product for Phi_5"):
            cyclotomic(5)

    def test_degree_is_totient(self):
        for n in range(1, 51):
            assert cyclotomic(n).degree() == totient(n) == _brute_totient(n)

    def test_matches_repeated_division(self):
        t = UniPoly.gen(Q)
        for n in range(1, 301):
            assert cyclotomic(n) == _cyclotomic_by_division(n)
            product = UniPoly.one(Q)
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == t ** n - 1


class TestFactorSigmaRational:
    # factor_tau(i, Q) factors sigma_i, homogenized: the parts in t of its
    # factors are the Phi_m at the divisors m > 1 of i + 1.
    @staticmethod
    def _sigma_factors(i):
        return [p.u for p, _ in factor_tau(i, Q).factors]

    def test_sigma1(self):
        assert self._sigma_factors(1) == [cyclotomic(2)]

    def test_sigma2_is_irreducible(self):
        assert self._sigma_factors(2) == [cyclotomic(3)]
        # Rational-root oracle: no integer root divides the constant term 1.
        s2 = sigma(2, Q)
        assert s2(1) != 0 and s2(-1) != 0

    def test_sigma3_splits(self):
        assert self._sigma_factors(3) == [cyclotomic(2), cyclotomic(4)]
        assert cyclotomic(2) * cyclotomic(4) == sigma(3, Q)

    def test_degree_accounting(self):
        for i in range(1, 31):
            degrees = sum(p.degree * m for p, m in factor_tau(i, Q).factors)
            assert degrees == i

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            factor_tau(0, Q)


class TestFactorOverPrimeField:
    def test_sigma5_mod_7_all_linear(self):
        report = factor_over_prime_field(sigma(5, F7), seed=7)
        assert all(p.degree() == 1 and m == 1 for p, m in report.factors)
        assert len(report.factors) == 5
        # Exhaustive-root oracle.
        roots = sorted(a for a in range(7) if sigma(5, F7)(a) == 0)
        factor_roots = sorted((7 - p.coeffs[0]) % 7 for p, _ in report.factors)
        assert factor_roots == roots == [2, 3, 4, 5, 6]

    def test_square_in_characteristic_two(self):
        f = UniPoly(F2, [1, 0, 1])  # t^2+1 = (t+1)^2
        report = factor_over_prime_field(f)
        assert [(str(p), m) for p, m in report.factors] == [("t+1", 2)]

    def test_irreducible_quadratic(self):
        f = UniPoly(F3, [1, 0, 1])  # t^2+1 has no roots mod 3
        assert all(f(a) != 0 for a in range(3))
        report = factor_over_prime_field(f, seed=3)
        assert [(str(p), m) for p, m in report.factors] == [("t^2+1", 1)]

    def test_prime_power_content(self):
        f = UniPoly(F2, [1, 0, 0, 0, 1])  # t^4+1 = (t+1)^4 mod 2
        report = factor_over_prime_field(f)
        assert [(str(p), m) for p, m in report.factors] == [("t+1", 4)]

    def test_mixed_multiplicities(self):
        t = UniPoly.gen(F3)
        f = (t + 1) ** 2 * (t ** 2 + 1) * t
        report = factor_over_prime_field(f, seed=11)
        assert [(str(p), m) for p, m in report.factors] == [
            ("t", 1), ("t+1", 2), ("t^2+1", 1)]

    def test_unit_preserved(self):
        t = UniPoly.gen(F7)
        report = factor_over_prime_field(3 * (t + 1) * (t + 2), seed=1)
        assert report.unit == 3

    def test_constant_input(self):
        report = factor_over_prime_field(UniPoly.constant(F7, 4))
        assert report.unit == 4 and report.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_prime_field(UniPoly.zero(F7))

    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            factor_over_prime_field(sigma(2, Q))

    def test_seed_paths_agree(self):
        f = sigma(25, F3)
        a = factor_over_prime_field(f, seed=1)
        b = factor_over_prime_field(f, seed=99)
        assert a.factors == b.factors


@pytest.fixture
def fresh_splits():
    factor._split_cyclotomic.cache_clear()
    yield
    factor._split_cyclotomic.cache_clear()


class TestFactorTau:
    def test_tau2_rational(self):
        report = factor_tau(2, Q)
        assert report.unit == 1
        assert report.factor_strings() == ["t^2+s*t+s^2"]

    def test_tau1_rational(self):
        report = factor_tau(1, Q)
        assert report.unit == -1
        assert report.factor_strings() == ["t+s"]

    def test_tau3_rational(self):
        report = factor_tau(3, Q)
        assert report.unit == -1
        assert report.factor_strings() == ["t+s", "t^2+s^2"]

    @pytest.mark.parametrize("field", [Q, F2, F3, F7], ids=["q", "fp2", "fp3", "fp7"])
    def test_reassembly_and_homogeneity(self, field):
        for i in range(1, 21):
            report = factor_tau(i, field, seed=5)
            for poly, _ in report.factors:
                assert poly.to_multipoly().is_homogeneous()
                assert poly.to_multipoly().variables() <= {"s", "t"}

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 80), st.booleans(),
           st.integers(0, 3))
    def test_cyclotomic_route_matches_generic_engine(self, p, i, p_divides, seed):
        # With p_divides, move i to the nearest index <= 80 with p | i + 1.
        if p_divides and p <= 81:
            i = max(p, (i + 1) // p * p) - 1
        field = Field.prime(p)
        fast = factor_tau(i, field, seed=seed)
        oracle = factor_homogeneous_st(tau(i, field), seed=seed)
        assert fast.factors == oracle.factors
        assert fast.unit == oracle.unit

    def test_rational_route_matches_trial_division(self):
        for i in range(1, 81):
            fast = factor_tau(i, Q)
            oracle = factor_homogeneous_st(tau(i, Q))
            assert fast.factors == oracle.factors
            assert fast.unit == oracle.unit

    def test_unsplit_block_fails_rabin(self, monkeypatch, fresh_splits):
        # Phi_7 mod 2 is two cubics; a split that returns it whole must not
        # reach a report.
        monkeypatch.setattr(factor, "_split_fixed", lambda f, m, rng: [f])
        with pytest.raises(ArithmeticError):
            factor_tau(6, F2)

    def test_tau_200_over_f101_within_20s(self, fresh_splits):
        start = time.monotonic()
        report = factor_tau(200, Field.prime(101))
        elapsed = time.monotonic() - start
        assert sum(p.degree * m for p, m in report.factors) == 200
        assert elapsed < 20.0

    def test_s_never_divides_tau(self):
        for i in range(1, 31):
            t_i = tau(i, Q)
            # The coefficient of t^i is +-1, so s cannot divide tau_i.
            assert t_i.u.degree() == i


def _record_frobenius_rows(monkeypatch):
    # Lists every f that factor._frobenius_rows builds a Frobenius matrix for.
    built, original = [], factor._frobenius_rows

    def recording(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(factor, "_frobenius_rows", recording)
    return built


RABIN_PRIMES = (2, 3, 7, 101, BIG_PRIME)


def _coprime_index(p):
    return st.integers(2, 60).filter(lambda m: m % p)


@lru_cache(maxsize=None)
def _phi_factors(p, m):
    field = Field.prime(p)
    return factor._split_fixed(UniPoly(field, cyclotomic(m).coeffs), m, random.Random(0))


@st.composite
def _rabin_cases(draw):
    # A factor of Phi_m mod p, Phi_m itself when it splits, a product of two
    # of its factors, a square, a factor times t - a, or a factor times one
    # of Phi_m2; tested at m, at lcm(m, m2), or at an index prime to p.
    p = draw(st.sampled_from(RABIN_PRIMES))
    field, m, m2 = Field.prime(p), draw(_coprime_index(p)), draw(_coprime_index(p))
    factors = _phi_factors(p, m)
    pick = st.sampled_from(factors)
    g = draw(pick)
    kind = draw(st.sampled_from(["factor", "phi", "pair", "square", "linear", "cross"]))
    if kind == "phi" and len(factors) > 1:
        g = UniPoly(field, cyclotomic(m).coeffs)
    elif kind == "pair" and len(factors) > 1:
        g = g * draw(pick.filter(lambda h: h != g))
    elif kind == "square":
        g = g * g
    elif kind == "linear":
        a = draw(st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1)))
        g = g * UniPoly(field, [-a, 1])
    elif kind == "cross" and m2 != m:
        g = g * draw(st.sampled_from(_phi_factors(p, m2)))
    return g, draw(st.one_of(st.sampled_from([m, math.lcm(m, m2)]), _coprime_index(p)))


class TestRabin:
    def test_accepts_the_cubic_factors_of_phi7_mod_2(self):
        for coeffs in ([1, 1, 0, 1], [1, 0, 1, 1]):  # t^3+t+1, t^3+t^2+1
            assert _is_irreducible(UniPoly(F2, coeffs), 7)
        assert UniPoly(F2, [1, 1, 0, 1]) * UniPoly(F2, [1, 0, 1, 1]) \
            == UniPoly(F2, cyclotomic(7).coeffs)

    def test_rejects_product_of_equal_degree_irreducibles(self):
        assert not _is_irreducible(UniPoly(F2, cyclotomic(7).coeffs), 7)

    def test_rejects_a_product_that_only_the_first_condition_catches(self):
        # Phi_3 * (a cubic factor of Phi_7) mod 2 divides x^21 - 1 and has
        # prime degree 5 with no linear factor: gcd(x^2 - x, g) = 1, so only
        # x^(2^5) = x mod g fails.
        g = UniPoly(F2, cyclotomic(3).coeffs) * UniPoly(F2, [1, 1, 0, 1])
        assert gcd_univariate(UniPoly(F2, [0, 1, 1]), g).is_one()
        assert not rabin_by_frobenius_matrix(g)
        assert not _is_irreducible(g, 21)

    def test_rejects_square(self):
        # A square divides no squarefree x^m - 1, so the binomial rejects it
        # before Rabin's conditions, which the oracle checks.
        t = UniPoly.gen(F2)
        assert not rabin_by_frobenius_matrix((t ** 2 + t + 1) ** 2)
        assert not _is_irreducible((t ** 2 + t + 1) ** 2, 3)

    def test_rejects_polynomial_with_a_root(self):
        # t^3+t+1 = (t - 1)(t^2+t+2) mod 3, and both factors divide x^8 - 1:
        # F_9* has order 8.
        f = UniPoly(F3, [1, 1, 0, 1])  # t^3+t+1 vanishes at t = 1
        assert f(1) == 0
        assert (UniPoly(F3, [-1] + [0] * 7 + [1]) % f).is_zero()
        assert not _is_irreducible(f, 8)

    # Phi_m is irreducible mod p exactly when p has order phi(m) mod m (Lidl
    # and Niederreiter, Thm 2.47), and t^2 - c exactly when c is not a square
    # mod p; both conditions are checked here.  The last entry is an m with
    # p = 1 mod m, so Phi_m splits into linear factors.  The quadratics go to
    # the oracle: mod 2^31 - 1 their roots have orders far beyond any m.
    KNOWN = {101: ((3, 7, 11), (2, 3), 5), BIG_PRIME: ((5, 25), (-1, 3), 3)}

    @pytest.mark.parametrize("p", sorted(KNOWN))
    def test_large_fields(self, p):
        field = Field.prime(p)
        t = UniPoly.gen(field)
        orders, non_squares, split = self.KNOWN[p]
        for m in orders:
            assert next(k for k in range(1, m) if pow(p, k, m) == 1) == totient(m)
        assert all(pow(c, (p - 1) // 2, p) == p - 1 for c in non_squares)
        quadratics = [t ** 2 - c for c in non_squares]
        phis = [(UniPoly(field, cyclotomic(m).coeffs), m) for m in orders]
        assert all(_is_irreducible(poly, m) for poly, m in phis)
        assert all(rabin_by_frobenius_matrix(poly) for poly in quadratics)
        assert not rabin_by_frobenius_matrix(quadratics[0] * quadratics[1])
        assert not _is_irreducible(UniPoly(field, cyclotomic(split).coeffs), split)
        for poly, m in phis:
            # Phi_m * (t - 1) divides x^m - 1, so Rabin's conditions reject it.
            assert not _is_irreducible(poly * (t - 1), m)
        for g in [poly for poly, _ in phis] + quadratics:
            assert not rabin_by_frobenius_matrix(g * g)
            assert not rabin_by_frobenius_matrix(g * (t - 5))

    def test_builds_its_own_frobenius_data(self, monkeypatch, fresh_splits):
        # Rabin's test takes g and m alone.  It proves g | x^m - 1 itself and
        # reads each x^(p^j) mod g off x^m = 1, so it calls no split and
        # takes no power and no Frobenius matrix.
        assert list(inspect.signature(_is_irreducible).parameters) == ["g", "m"]
        factors = factor._split_cyclotomic(77, Field.prime(101), None)
        built = _record_frobenius_rows(monkeypatch)

        def no_call(*args):
            raise AssertionError("Rabin's test called a splitter or a power")

        for name in ("_equal_degree", "_split_fixed"):
            monkeypatch.setattr(factor, name, no_call)
        monkeypatch.setattr(factor._CyclicRing, "pow", no_call)
        assert len(factors) > 1
        for g in factors:
            assert _is_irreducible(g, 77)
        assert built == []

    def test_split_builds_rings_only_in_rabin(self, monkeypatch, fresh_splits):
        # Mod 101, Phi_77 is two factors of degree 30.  Neither its split nor
        # the Rabin tests of its factors run the generic engine or take a
        # Frobenius matrix.
        built = _record_frobenius_rows(monkeypatch)

        def no_call(*args):
            raise AssertionError("the split ran the generic engine")

        for name in ("_distinct_degree", "_equal_degree"):
            monkeypatch.setattr(factor, name, no_call)
        factors = factor._split_cyclotomic(77, Field.prime(101), None)
        assert [g.degree() for g in factors] == [30, 30]
        assert built == []

    @pytest.mark.parametrize("p", [2, 101, BIG_PRIME])
    def test_linear_factors_need_no_ring(self, monkeypatch, p):
        # t - a divides x^m - 1 for m the order of a != 0; t divides none.
        built = _record_frobenius_rows(monkeypatch)
        t = UniPoly.gen(Field.prime(p))
        for a in {1, p // 2, p - 1}:
            m = next(k for k in range(1, 101) if pow(a, k, p) == 1)
            assert _is_irreducible(t - a, m)
        assert rabin_by_frobenius_matrix(t)
        assert built == []

    @settings(max_examples=80, deadline=None)
    @given(_rabin_cases())
    def test_matches_the_frobenius_matrix_oracle(self, case):
        # True exactly when the oracle proves g irreducible and g | x^n - 1.
        g, n = case
        divides = (UniPoly(g.field, [-1] + [0] * (n - 1) + [1]) % g).is_zero()
        assert _is_irreducible(g, n) == (rabin_by_frobenius_matrix(g) and divides)

    def test_reads_x_to_the_p_to_the_k_off_the_pass(self):
        # 2^2 = 4 mod 21, so x^(2^k) = x is checked on x^4 mod g, not read
        # off x^1: t^2+t+1 divides x^21 - 1 and passes; its square has degree
        # 4 and 2^4 = 16 mod 21, and it divides no squarefree x^21 - 1.
        t = UniPoly.gen(F2)
        g = t ** 2 + t + 1
        assert pow(2, 2, 21) != 1 and pow(2, 4, 21) != 1
        assert _is_irreducible(g, 21)
        assert not _is_irreducible(g * g, 21)

    def test_rejects_an_irreducible_that_does_not_divide_the_binomial(self):
        # 2 is a primitive root mod 101, so t^2 - 2 is irreducible and its
        # roots have order 200; the factors of Phi_7 mod 101 have degree 6.
        field = Field.prime(101)
        g = UniPoly(field, [-2, 0, 1])
        assert rabin_by_frobenius_matrix(g)
        assert _is_irreducible(g, 200)
        assert not _is_irreducible(g, 7)
        # 101^2 = 1 mod 8 and gcd(x^(101 mod 8) - x, g) = 1, so only the
        # division rejects g at 8.
        assert pow(101, 2, 8) == 1
        assert gcd_univariate(UniPoly(field, [0, -1, 0, 0, 0, 1]), g).is_one()
        assert not _is_irreducible(g, 8)


def _order(p, m):
    return next(k for k in range(1, m + 1) if pow(p, k, m) == 1)


@st.composite
def _equal_degree_blocks(draw):
    # A monic squarefree product of degree-k irreducibles, the list of them
    # when known, and m when it is Phi_m mod p; else distinct Rabin-accepted
    # random monics.
    p = draw(st.sampled_from((2, 3, 7, 101, BIG_PRIME)))
    field = Field.prime(p)
    if draw(st.booleans()):
        m = draw(st.integers(2, 60).filter(lambda m: m % p))
        return UniPoly(field, cyclotomic(m).coeffs), _order(p, m), None, m
    k = draw(st.integers(1, 4))
    residues = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    candidates = draw(st.lists(st.lists(residues, min_size=k, max_size=k),
                               min_size=1, max_size=6, unique_by=tuple))
    known = [g for g in (UniPoly(field, c + [1]) for c in candidates)
             if rabin_by_frobenius_matrix(g)]
    assume(known)
    block = UniPoly.one(field)
    for g in known:
        block = block * g
    return block, k, sorted(known, key=UniPoly.sort_key), None


class TestEqualDegree:
    @settings(max_examples=60, deadline=None)
    @given(_equal_degree_blocks())
    def test_splits_into_irreducibles_of_degree_k(self, case):
        # On Phi_m, the split in the Frobenius-fixed algebra agrees with
        # Cantor-Zassenhaus, the oracle.
        block, k, known, m = case
        outputs = set()
        for seed in range(3):
            splits = [factor._equal_degree(block, k, random.Random(seed))]
            if m is not None:
                splits.append(factor._split_fixed(block, m, random.Random(seed)))
            for parts in splits:
                product = UniPoly.one(block.field)
                for g in parts:
                    product = product * g
                assert product == block
                assert len(parts) == block.degree() // k
                assert all(g.degree() == k for g in parts)
                assert all(rabin_by_frobenius_matrix(g) if m is None else _is_irreducible(g, m)
                           for g in parts)
                outputs.add(tuple(sorted(parts, key=UniPoly.sort_key)))
        assert len(outputs) == 1
        if known is not None:
            assert list(outputs.pop()) == known

    def test_an_equal_degree_split_that_never_splits_fails(self, monkeypatch):
        # A constant r gives h = c^((p-1)/2) - 1, a constant, on every factor.
        field = Field.prime(101)
        monkeypatch.setattr(factor, "_random_poly",
                            lambda rng, field, degree: [2] + [0] * degree)
        with pytest.raises(ArithmeticError):
            factor._equal_degree(UniPoly(field, cyclotomic(100).coeffs), 1, random.Random(0))

    @pytest.mark.parametrize("p, m", [(2, 7), (101, 100), (BIG_PRIME, 21)])
    def test_a_fixed_split_that_never_splits_fails(self, monkeypatch, p, m):
        # A constant r is c * (1 + x + ... + x^(m-1)), which Phi_m divides:
        # h = -1 for odd p and h = 0 for p = 2, and neither splits a part.
        field = Field.prime(p)
        monkeypatch.setattr(factor, "_random_poly",
                            lambda rng, field, degree: [1] * (degree + 1))
        with pytest.raises(ArithmeticError):
            factor._split_fixed(UniPoly(field, cyclotomic(m).coeffs), m, random.Random(0))

    # Mod 2, Phi_73 is eight factors of degree 9, and x^(2^9) = x never reads
    # the row dropped here; mod 101, Phi_37 is six factors of degree 6.
    @pytest.mark.parametrize("p, m", [(2, 73), (101, 37)])
    def test_a_wrong_frobenius_matrix_fails_before_any_trial(self, monkeypatch, p, m):
        rows, draw, draws = factor._frobenius_rows, factor._random_poly, []
        monkeypatch.setattr(factor, "_frobenius_rows", lambda f: rows(f)[:-1])
        monkeypatch.setattr(factor, "_random_poly",
                            lambda *args: draws.append(args) or draw(*args))
        phi = UniPoly(Field.prime(p), cyclotomic(m).coeffs)
        with pytest.raises(ArithmeticError, match="Frobenius matrix"):
            factor._equal_degree(phi, _order(p, m), random.Random(0))
        assert draws == []

    # Mod 101, Phi_77 is two factors of degree 30, Phi_37 six of degree 6,
    # and Phi_100 forty linear factors, whose split needs no Frobenius matrix.
    @pytest.mark.parametrize("m, k, rows", [(77, 30, 1), (37, 6, 1), (100, 1, 0)])
    def test_one_ring_per_block(self, monkeypatch, m, k, rows):
        field = Field.prime(101)
        assert _order(101, m) == k
        phi = UniPoly(field, cyclotomic(m).coeffs)
        built = _record_frobenius_rows(monkeypatch)
        parts = factor._equal_degree(phi, k, random.Random(0))
        assert len(parts) == phi.degree() // k
        assert built == [phi] * rows

    def test_the_oracles_share_no_packed_kernel(self, monkeypatch):
        # The generic engine and the Frobenius-matrix oracle check the split,
        # so neither may run on the packed ring that the split runs on.
        def no_call(*args):
            raise AssertionError("an oracle ran on the packed ring")

        for name in ("pack", "unpack", "mul", "reduce", "pow"):
            monkeypatch.setattr(factor._CyclicRing, name, no_call)
        inputs = [UniPoly(Field.prime(p), cyclotomic(m).coeffs)
                  for p, m in ((101, 77), (BIG_PRIME, 21))] + [sigma(8, F3)]
        for f in inputs:
            product = UniPoly.one(f.field)
            for part, mult in factor._squarefree_parts(f):
                for block, k in factor._distinct_degree(part):
                    for g in factor._equal_degree(block, k, random.Random(0)):
                        assert g.degree() == k and rabin_by_frobenius_matrix(g)
                        product = product * g ** mult
            assert product == f


CONJUGATE_PRIMES = (2, 3, 5, 7, 101, BIG_PRIME)


def _trace_sequence(g, length):
    # Oracle: s_e = Tr(x^e) in F_p[x]/(g), the trace of multiplication by
    # x^e: the sum of the diagonal of its matrix on the basis 1, ..., x^(k-1).
    k, t = g.degree(), UniPoly.gen(g.field)

    def coefficient(poly, i):
        return poly.coeffs[i] if i < len(poly.coeffs) else 0

    return [sum(coefficient(_pow_mod_oracle(t, e + i, g), i) for i in range(k)) % g.field.p
            for e in range(length)]


class TestConjugateSplit:
    # _split_fixed isolates one factor of Phi_m mod p and reads the others off
    # its traces by Berlekamp-Massey; the oracle is Cantor-Zassenhaus.

    @staticmethod
    def _check(p, m, seed):
        field = Field.prime(p)
        phi = UniPoly(field, cyclotomic(m).coeffs)
        fast = factor._split_fixed(phi, m, random.Random(seed))
        oracle = factor._equal_degree(phi, _order(p, m), random.Random(seed))
        assert sorted(fast, key=UniPoly.sort_key) == sorted(oracle, key=UniPoly.sort_key)
        assert all(rabin_by_frobenius_matrix(g) for g in fast)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CONJUGATE_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(2, 120).filter(lambda m: m % p),
                            st.integers(0, 3))))
    def test_matches_the_equal_degree_oracle(self, case):
        self._check(*case)

    # Mod 3, Phi_13 is four cubics, so p divides k; mod 2, Phi_31 is six
    # quintics, so p < k.
    @pytest.mark.parametrize("p, m, k", [(3, 13, 3), (2, 31, 5)],
                             ids=["p-divides-k", "p-below-k"])
    def test_small_characteristic(self, p, m, k):
        assert _order(p, m) == k
        for seed in range(3):
            self._check(p, m, seed)

    # Phi_13 mod 3 is four cubics and Phi_5 mod 2 is irreducible of degree
    # 4: s_0 = k = 0 mod p in both.
    @pytest.mark.parametrize("p, m", [(3, 13), (2, 5)])
    def test_berlekamp_massey_on_traces_with_s0_zero(self, p, m):
        field = Field.prime(p)
        phi = UniPoly(field, cyclotomic(m).coeffs)
        for g in factor._equal_degree(phi, _order(p, m), random.Random(0)):
            s = _trace_sequence(g, 2 * g.degree())
            assert s[0] == 0
            assert factor._berlekamp_massey(s, p) == list(g.coeffs)

    def test_berlekamp_massey_finds_the_shortest_recurrence(self):
        # 3^t mod 101 satisfies s_(t+1) = 3 s_t, and Fibonacci mod 7 the
        # order-2 recurrence, however many terms are given.
        assert factor._berlekamp_massey([pow(3, t, 101) for t in range(8)], 101) == [98, 1]
        fibonacci = [0, 1]
        while len(fibonacci) < 10:
            fibonacci.append((fibonacci[-1] + fibonacci[-2]) % 7)
        assert factor._berlekamp_massey(fibonacci, 7) == [6, 6, 1]

    def test_modular_powers_at_the_largest_prime(self, monkeypatch, fresh_splits):
        # Splitting every Phi_m, m <= 60, at seed 1 took 228 powers when every
        # trial refined every part; the split path is seeded, so the count
        # repeats exactly.
        calls = []
        original = factor._CyclicRing.pow

        def counting(ring, a, e):
            calls.append(e)
            return original(ring, a, e)

        monkeypatch.setattr(factor._CyclicRing, "pow", counting)
        field = Field.prime(BIG_PRIME)
        for m in range(2, 61):
            factor._split_cyclotomic(m, field, 1)
        assert 0 < len(calls) <= 120


KERNEL_PRIMES = (2, 3, 101, BIG_PRIME)


def _kernel_oracle_check(n, a, b, e):
    # The packed kernel in F_p[x]/(x^n - 1) against UniPoly schoolbook
    # products reduced by divmod.
    field = a.field
    ring, binomial = factor._CyclicRing(field.p, n), UniPoly(field, [-1] + [0] * (n - 1) + [1])

    def elem(poly):
        return list(poly.coeffs) + [0] * (n - len(poly.coeffs))

    # A slot holds the largest value the kernel puts in it: a sum of n products.
    assert n * (field.p - 1) ** 2 < 1 << (8 * ring.size)
    a, b = a % binomial, b % binomial
    assert ring.mul(elem(a), elem(b)) == elem(a * b % binomial)
    assert ring.pow(elem(a), e) == elem(_pow_mod_oracle(a, e, binomial))


def _square_and_multiply(ring, a, e):
    # Plain left-to-right powering, one bit at a time.
    result = a
    for bit in bin(e)[3:]:
        result = ring.mul(result, result)
        if bit == "1":
            result = ring.mul(result, a)
    return result


@st.composite
def _kernel_cases(draw):
    # n, then a of degree up to 2n, b of degree below n and an exponent.
    p, n = draw(st.sampled_from(KERNEL_PRIMES)), draw(st.integers(1, 60))
    field = Field.prime(p)
    residues = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def poly(degree):
        return UniPoly(field, draw(st.lists(residues, min_size=degree + 1,
                                            max_size=degree + 1)))

    return n, poly(draw(st.integers(0, 2 * n))), poly(n - 1), draw(st.integers(1, 300))


@st.composite
def _frobenius_cases(draw):
    # A monic f of degree n and an h of degree below n, or all-(p-1)
    # operands, with x^n = (p-1)(1 + x + ... + x^(n-1)) mod f.
    p, n = draw(st.sampled_from(KERNEL_PRIMES)), draw(st.integers(1, 30))
    field = Field.prime(p)
    if draw(st.booleans()):
        return UniPoly(field, [1] * (n + 1)), UniPoly(field, [p - 1] * n)
    residues = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return UniPoly(field, draw(residues) + [1]), UniPoly(field, draw(residues))


class TestModRing:
    # _CyclicRing, the one packed ring: the split and the report products.
    @settings(max_examples=60, deadline=None)
    @given(_kernel_cases())
    def test_matches_schoolbook(self, case):
        _kernel_oracle_check(*case)

    @pytest.mark.parametrize("p", [2, 101, BIG_PRIME])
    def test_windowed_power_matches_square_and_multiply(self, p):
        # pow takes 4-bit windows from 16-bit exponents on: every length from
        # 1 to 40 bits, in F_p[x]/(x^m - 1).
        rng = random.Random(p)
        for bits in range(1, 41):
            n = rng.randint(1, 12)
            ring = factor._CyclicRing(p, n)
            a = [rng.randrange(p) for _ in range(n)]
            for e in (1 << (bits - 1), rng.randrange(1 << (bits - 1), 1 << bits),
                      (1 << bits) - 1):
                assert ring.pow(a, e) == _square_and_multiply(ring, a, e)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    @pytest.mark.parametrize("n", [1, 3, 60])
    def test_full_slots(self, p, n):
        # All-(p-1) operands, so every product is as large as a residue can be.
        full = UniPoly(Field.prime(p), [p - 1] * n)
        _kernel_oracle_check(n, full, full, p - 1)


class TestFrobeniusRows:
    @settings(max_examples=60, deadline=None)
    @given(_frobenius_cases())
    def test_match_square_and_multiply(self, case):
        # h^p = sum h_j x^(p*j) mod f, taken on the rows x^(p*j) mod f, j < n;
        # a wrong or missing row shows in h^p for all but few h.
        f, h = case
        field, n = f.field, f.degree()
        rows = factor._frobenius_rows(f)
        assert len(rows) == n
        assert rows[:2] == [UniPoly.one(field), _pow_mod_oracle(UniPoly.gen(field), field.p, f)][:n]
        assert sum((row * c for c, row in zip(h.coeffs, rows)), UniPoly.zero(field)) \
            == _pow_mod_oracle(h, field.p, f)


class TestFactorHomogeneous:
    def test_splits_off_s_content(self):
        g = qf("s^2*t+s^3")  # s^2 * (t+s)
        report = factor_homogeneous_st(g)
        assert report.factor_strings() == ["s", "t+s"]
        assert dict((str(p), m) for p, m in report.factors) == {"s": 2, "t+s": 1}

    def test_rejects_other_variables(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(qf("x*t"))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(qf("t^2+s"))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(Form(UniPoly.zero(Q), 0))

    def test_non_cyclotomic_rational_input_rejected(self):
        # t^2 - 2*s^2 is irreducible with non-cyclotomic roots; the rational
        # engine only handles cyclotomic products.
        with pytest.raises(ValueError):
            factor_homogeneous_st(qf("t^2-2*s^2"))

    def test_scalar_unit(self):
        report = factor_homogeneous_st(qf("3*t+3*s"))
        assert report.unit == 3
        assert report.factor_strings() == ["t+s"]


class TestFactorReportInvariants:
    def test_product_check_rejects_wrong_unit(self):
        with pytest.raises(ArithmeticError):
            FactorReport(input=tau(1, Q), unit=1,
                         factors=((qf("t+s"), 1),))

    def test_rejects_non_canonical_factor(self):
        with pytest.raises(ValueError):
            FactorReport(input=qf("-t-s"), unit=1, factors=((qf("-t-s"), 1),))

    def test_rejects_duplicate_factors(self):
        with pytest.raises(ArithmeticError):
            FactorReport(input=qf("t^2+2*s*t+s^2"), unit=1,
                         factors=((qf("t+s"), 1), (qf("t+s"), 1)))

    def test_degree_sum_catches_a_dropped_power_of_s(self):
        # s*t + s^2 and t + s have the same part t + 1 in t.
        with pytest.raises(ArithmeticError):
            FactorReport(input=qf("s*t+s^2"), unit=1, factors=((qf("t+s"), 1),))

    def test_rejects_s_listed_twice(self):
        # The part of s in t is 1, so only the count of factors s divides sees this.
        with pytest.raises(ArithmeticError):
            FactorReport(input=qf("s^2"), unit=1, factors=((qf("s"), 1), (qf("s"), 1)))

    def test_coprime_factors_equal_mod_the_check_prime_are_accepted(self):
        # t and t - p*s coincide mod p, so only the exact gcd over Q settles it.
        factors = ((qf("t"), 1), (qf(f"t-{CHECK_PRIME}*s"), 1))
        report = FactorReport(input=qf(f"t^2-{CHECK_PRIME}*s*t"), unit=1, factors=factors)
        assert report.factors == factors

    def test_rejects_non_monic_shared_factor_over_q(self):
        with pytest.raises(ArithmeticError):
            FactorReport(input=qf("2*t^2+4*s*t+2*s^2"), unit=1,
                         factors=((qf("t+s"), 1), (qf("2*t+2*s"), 1)))

    def test_rejects_square_whose_leading_coefficient_vanishes_mod_the_check_prime(self):
        # Mod p the product (p*t + 1)^2 is the constant 1.
        f = UniPoly(Q, [1, CHECK_PRIME])
        with pytest.raises(ArithmeticError):
            FactorReport(input=f ** 2, unit=1, factors=((f, 1), (f, 1)))

    def test_rejects_duplicate_factors_over_f7(self):
        t = UniPoly.gen(F7)
        with pytest.raises(ArithmeticError):
            FactorReport(input=(t + 1) ** 2, unit=1, factors=((t + 1, 1), (t + 1, 1)))
        # Seven copies of t - 1 multiply to t^7 - 1, whose derivative is 0.
        with pytest.raises(ArithmeticError):
            FactorReport(input=t ** 7 - 1, unit=1, factors=((t - 1, 1),) * 7)

    # Repeated factors are multiplied in apart from the product of the distinct
    # ones; each of these lists reassembles wrongly or shares a factor.
    @pytest.mark.parametrize("case", ["square_listed_once", "simple_listed_twice",
                                      "repeated_factor_dropped"])
    @pytest.mark.parametrize("forms", [False, True], ids=["unipoly", "form"])
    def test_rejects_wrong_multiplicities_over_f7(self, case, forms):
        t = UniPoly.gen(F7)
        product, factors = {
            "square_listed_once": (t ** 2 * (t + 1) ** 2, ((t, 2), ((t + 1) ** 2, 1))),
            "simple_listed_twice": (t * (t + 1), ((t, 2), (t + 1, 1))),
            "repeated_factor_dropped": (t ** 2 * (t + 1), ((t + 1, 1),)),
        }[case]
        if forms:
            product = Form(product, product.degree())
            factors = tuple((Form(poly, poly.degree()), mult) for poly, mult in factors)
        with pytest.raises(ArithmeticError):
            FactorReport(input=product, unit=1, factors=factors)

    @settings(max_examples=300, deadline=None)
    @given(_canonical_factor_lists(), st.booleans())
    def test_accepts_exactly_the_pairwise_coprime_squarefree_lists(self, pairs, forms):
        expected = _pairwise_coprime_and_squarefree([poly for poly, _ in pairs])
        product = UniPoly.one(pairs[0][0].field)
        for poly, mult in pairs:
            product = product * poly ** mult
        if forms:
            product = Form(product, product.degree())
            pairs = [(Form(poly, poly.degree()), mult) for poly, mult in pairs]
        try:
            FactorReport(input=product, unit=1, factors=tuple(pairs))
            accepted = True
        except ArithmeticError:
            accepted = False
        assert accepted == expected

    def test_degree_sum_over_prime_field(self):
        for i in (5, 7, 24):
            f = sigma(i, F7)
            report = factor_over_prime_field(f, seed=2)
            assert sum(p.degree() * m for p, m in report.factors) == f.degree()


# Struct-code boundaries of the packed slots: 1, 2, 4 and 8 bytes, then bytes.
SLOT_EDGES = [c for bits in (7, 8, 15, 16, 31, 32, 63, 64)
              for c in (2 ** bits - 2, 2 ** bits - 1, 2 ** bits)]


@st.composite
def _report_cases(draw):
    # A canonical factor list, its unit and the input they reassemble, then
    # at most one corruption of the input or the list.
    p = draw(st.sampled_from((None, 2, 7, 101, BIG_PRIME)))
    field = Q if p is None else Field.prime(p)
    if p is None:
        values = st.sampled_from([-2, -1, 0, 1, 2, Fraction(-1, 2), Fraction(2, 3), CHECK_PRIME]
                                 + SLOT_EDGES + [-c for c in SLOT_EDGES])
        leads = st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 4), 2 ** 63])
        unit = draw(st.sampled_from([1, -1, 3, Fraction(-2, 3), -(2 ** 63)]))
    else:
        values, leads, unit = st.integers(0, p - 1), st.just(1), draw(st.integers(1, p - 1))
    forms = draw(st.booleans())
    pairs = []
    for k in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        poly = UniPoly(field, draw(st.lists(values, min_size=degree, max_size=degree))
                       + [draw(leads)])
        # Over F_2, one high multiplicity, as (t + 1)^127 at i = 127.
        pairs.append((poly, draw(st.integers(1, 127 if p == 2 and k == 0 else 4))))
    product = UniPoly.constant(field, unit)
    for poly, mult in pairs:
        product = product * poly ** mult
    t = UniPoly.gen(field)
    corruption = draw(st.sampled_from(["none"] * 5 + ["unit", "coefficient", "multiplicity",
                                                     "duplicate", "drop"]))
    if corruption == "unit":
        unit = field.add(field.coerce(unit), 1)
    elif corruption == "coefficient":
        product = product + t ** draw(st.integers(0, product.degree()))
    elif corruption == "multiplicity":
        pairs[0] = (pairs[0][0], pairs[0][1] + 1)
    elif corruption == "duplicate":
        product = product * pairs[0][0]
        pairs.append((pairs[0][0], 1))
    elif corruption == "drop" and len(pairs) > 1:
        pairs.pop()
    if not forms:
        return product, unit, tuple(pairs)
    degree = sum(poly.degree() * mult for poly, mult in pairs)
    pairs = [(Form(poly, poly.degree()), mult) for poly, mult in pairs]
    if draw(st.booleans()):  # s, whose part in t is 1
        mult = draw(st.integers(1, 3))
        pairs.append((Form(UniPoly.one(field), 1), mult))
        degree += mult
    return Form(product, max(degree, product.degree())), unit, tuple(pairs)


def _outcome(check, *args):
    try:
        check(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestReassemblyKernel:
    @settings(max_examples=300, deadline=None)
    @given(_report_cases())
    def test_accepts_exactly_what_the_oracle_accepts(self, case):
        assert _outcome(FactorReport, *case) == _outcome(check_factor_report, *case)

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64])
    def test_coefficients_at_the_slot_width_boundary(self, bits):
        # t + c and its powers, whose coefficients up to c^3 take wider slots.
        t = UniPoly.gen(Q)
        for c in (2 ** bits - 2, 2 ** bits - 1, 2 ** bits):
            for f in (t + c, t - c):
                for mult in (1, 2, 3):
                    report = FactorReport(input=-(f ** mult), unit=-1, factors=((f, mult),))
                    assert report.factors == ((f, mult),)
                    with pytest.raises(ArithmeticError):
                        FactorReport(input=-(f ** mult) + 1, unit=-1, factors=((f, mult),))

    @pytest.mark.parametrize("c", [0, 2 ** 7 - 1, 2 ** 8, 2 ** 31 - 1, 2 ** 32, 2 ** 64])
    def test_rejects_inputs_congruent_mod_the_packing_modulus(self, c):
        # Over Q the products are taken mod M = 2B + 1, with B = (1 + c)^mult
        # the product of the lifts' 1-norms; an input off by +-M in one
        # coefficient agrees with the product mod M, and must still fail.
        t = UniPoly.gen(Q)
        for f in {t + c, t - c}:
            for mult in (1, 2, 3):
                coeffs, modulus = list((-(f ** mult)).coeffs), 2 * (1 + c) ** mult + 1
                for k in range(mult + 1):
                    for delta in (modulus, -modulus):
                        moved = coeffs[:k] + [coeffs[k] + delta] + coeffs[k + 1:]
                        with pytest.raises(ArithmeticError):
                            FactorReport(input=UniPoly(Q, moved), unit=-1, factors=((f, mult),))

    def test_reassembles_negative_and_fractional_coefficients_over_q(self):
        f, g = UniPoly(Q, [-3, Fraction(-1, 2), 1]), UniPoly(Q, [Fraction(-5, 3), 2])
        unit = Fraction(-7, 4)
        report = FactorReport(input=f ** 2 * g * unit, unit=unit, factors=((f, 2), (g, 1)))
        assert report.unit == unit
        with pytest.raises(ArithmeticError):
            FactorReport(input=f ** 2 * g * unit, unit=-unit, factors=((f, 2), (g, 1)))

    @pytest.mark.parametrize("p", [2, 7, 101])
    def test_high_multiplicities_over_prime_fields(self, p):
        # (t - 1)^(q - 1) Phi_3^q, as in tau_i at i + 1 = 3q with q a power
        # of p; over F_7, like (t - 1)^48 Phi_4^49 at i = 195.
        field, q = Field.prime(p), {2: 64, 7: 49, 101: 101}[p]
        t = UniPoly.gen(field)
        phi = UniPoly(field, factor.cyclotomic(3).coeffs)
        factors = [(t - 1, q - 1)] + [(g, q) for g in factor._split_cyclotomic(3, field, 1)]
        product = (t - 1) ** (q - 1) * phi ** q
        assert FactorReport(input=product, unit=1, factors=tuple(factors)).factors
        with pytest.raises(ArithmeticError):
            FactorReport(input=product * t, unit=1, factors=tuple(factors))


class TestSquarefree:
    @pytest.fixture
    def no_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gcd was taken")

        monkeypatch.setattr(factor, "gcd_univariate", refuse)

    @pytest.mark.parametrize("field", [Q, F2, F7, Field.prime(101)],
                             ids=["q", "fp2", "fp7", "fp101"])
    def test_binomials_and_sigma_take_no_gcd(self, field, no_gcd):
        # sigma_(n-1) = (t^n - 1)/(t - 1) and t^n - 1, for n prime to p.
        p = field.characteristic
        for n in range(1, 80):
            if p == 0 or n % p:
                assert factor._is_squarefree(UniPoly(field, [-1] + [0] * (n - 1) + [1]))
                assert n == 1 or factor._is_squarefree(sigma(n - 1, field))

    def test_binomials_the_characteristic_divides_are_not_squarefree(self):
        # t^7 - 1 = (t - 1)^7 over F_7, and (t - 1)^6 divides it.
        t = UniPoly.gen(F7)
        assert not factor._is_squarefree(t ** 7 - 1)
        assert not factor._is_squarefree((t - 1) ** 6)
        assert not factor._is_squarefree(t ** 14 - 1)
        assert factor._is_squarefree(t ** 6 - 1)

    def test_other_polynomials_take_the_gcd(self, monkeypatch):
        gcd, calls = factor.gcd_univariate, []
        monkeypatch.setattr(factor, "gcd_univariate",
                            lambda *args: calls.append(args) or gcd(*args))
        f = UniPoly(Q, [-2, 0, 1])
        assert factor._is_squarefree(f)
        assert not factor._is_squarefree(f * f)
        assert not factor._is_squarefree(UniPoly(F7, [1, 2, 1]))
        assert len(calls) >= 3


class TestSeparability:
    def test_linear_case(self):
        cert = separability_check(3, 1)
        assert cert.index == 1 and cert.squarefree and cert.telescoping_ok

    def test_p7_matches_root_count(self):
        cert = separability_check(7, 1)
        assert cert.squarefree and cert.gcd.is_one()
        roots = {a for a in range(7) if sigma(5, F7)(a) == 0}
        assert len(roots) == 5  # p^m - 2 distinct roots

    def test_char2_squarefree(self):
        cert = separability_check(2, 2)
        assert cert.index == 2 and cert.squarefree

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            separability_check(2, 1)
        with pytest.raises(ValueError):
            separability_check(7, 0)

    def test_sweep(self):
        for p in (2, 3, 5, 7):
            m = 1
            while p ** m - 2 <= 341:
                if p ** m - 2 >= 1:
                    cert = separability_check(p, m)
                    assert cert.squarefree and cert.telescoping_ok
                m += 1


class TestAccumulate:
    def test_rational_growth_is_one_per_index(self):
        report = accumulate_distinct(range(1, 21), Q)
        assert report.final_distinct == 20
        assert report.cumulative_distinct == tuple(range(1, 21))
        # Pairwise-coprimality oracle on the parts in t of the witnesses.
        witnesses = []
        for rep in report.per_index:
            witnesses.extend(p for p, _ in rep.factors)
        unique = list(dict.fromkeys(witnesses))
        assert len(unique) == 20
        for i in range(len(unique)):
            for j in range(i + 1, len(unique)):
                g = gcd_univariate(unique[i].u, unique[j].u)
                assert g.is_one()

    def test_singleton(self):
        report = accumulate_distinct([1], F2)
        assert report.cumulative_distinct == (1,)

    def test_prime_power_ladder_mod_3(self):
        report = accumulate_distinct([1, 7, 25], F3, seed=10)
        assert report.cumulative_distinct[0] < report.cumulative_distinct[1] \
            < report.cumulative_distinct[2]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            accumulate_distinct([0, 1], Q)

    def test_report_consistency(self):
        report = accumulate_distinct([2, 5, 11], Q)
        assert len(report.per_index) == 3
        assert report.index_set == (2, 5, 11)

    def test_cumulative_never_decreases(self):
        report = accumulate_distinct([1, 3, 1, 3, 7], F3, seed=0)
        assert all(b >= a for a, b in zip(report.cumulative_distinct,
                                          report.cumulative_distinct[1:]))


class TestGrowthReportInvariants:
    def test_rejects_decreasing_cumulative(self):
        rep = factor_tau(1, Q)
        with pytest.raises(ValueError):
            GrowthReport((1, 2), (rep, rep), (1, 0), (2, 1))

    def test_rejects_misaligned_columns(self):
        rep = factor_tau(1, Q)
        with pytest.raises(ValueError):
            GrowthReport((1, 2), (rep,), (1,), (1,))


class TestPrimePowerIndexCheck:
    def test_detects_missing(self):
        assert missing_prime_power_indices([4], 2)
        assert not missing_prime_power_indices([1, 4], 3)
        assert not missing_prime_power_indices([6], 2)
