import math

import pytest

from cokerlab.arith import (
    Field,
    MultiPoly,
    UniPoly,
    dehomogenize,
    gcd_univariate,
    parse_poly,
    sigma,
    tau,
)
from cokerlab.factor import (
    FactorReport,
    GrowthReport,
    accumulate_distinct,
    cyclotomic,
    factor_homogeneous_st,
    factor_over_prime_field,
    factor_sigma_rational,
    factor_tau,
    missing_prime_power_indices,
    separability_check,
    totient,
)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F7 = Field.prime(7)


def qp(text):
    return parse_poly(text, Q)


def _brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


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

    def test_degree_is_totient(self):
        for n in range(1, 51):
            assert cyclotomic(n).degree() == totient(n) == _brute_totient(n)


class TestFactorSigmaRational:
    def test_sigma1(self):
        report = factor_sigma_rational(1)
        assert [p for p, _ in report.factors] == [cyclotomic(2)]

    def test_sigma2_is_irreducible(self):
        report = factor_sigma_rational(2)
        assert [p for p, _ in report.factors] == [cyclotomic(3)]
        # Rational-root oracle: no integer root divides the constant term 1.
        s2 = sigma(2, Q)
        assert s2(1) != 0 and s2(-1) != 0

    def test_sigma3_splits(self):
        report = factor_sigma_rational(3)
        assert [p for p, _ in report.factors] == [cyclotomic(2), cyclotomic(4)]
        assert cyclotomic(2) * cyclotomic(4) == sigma(3, Q)

    def test_degree_accounting(self):
        for i in range(1, 31):
            degrees = sum(p.degree() * m for p, m in factor_sigma_rational(i).factors)
            assert degrees == i

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            factor_sigma_rational(0)


class TestFactorOverPrimeField:
    def test_sigma5_mod_7_all_linear(self):
        report = factor_over_prime_field(sigma(5, F7), seed=7)
        assert all(p.degree() == 1 and m == 1 for p, m in report.factors)
        assert len(report.factors) == 5
        # Exhaustive-root oracle.
        roots = sorted(a for a in range(7) if sigma(5, F7)(a) == 0)
        factor_roots = sorted((7 - p.coefficient(0)) % 7 for p, _ in report.factors)
        assert factor_roots == roots == [2, 3, 4, 5, 6]

    def test_square_in_characteristic_two(self):
        f = UniPoly(F2, "t", [1, 0, 1])  # t^2+1 = (t+1)^2
        report = factor_over_prime_field(f)
        assert [(str(p), m) for p, m in report.factors] == [("t+1", 2)]

    def test_irreducible_quadratic(self):
        f = UniPoly(F3, "t", [1, 0, 1])  # t^2+1 has no roots mod 3
        assert all(f(a) != 0 for a in range(3))
        report = factor_over_prime_field(f, seed=3)
        assert [(str(p), m) for p, m in report.factors] == [("t^2+1", 1)]

    def test_prime_power_content(self):
        f = UniPoly(F2, "t", [1, 0, 0, 0, 1])  # t^4+1 = (t+1)^4 mod 2
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
                assert poly.is_homogeneous()
                assert poly.variables() <= {"s", "t"}

    def test_s_never_divides_tau(self):
        for i in range(1, 31):
            t_i = tau(i, Q)
            # The coefficient of t^i is +-1, so s cannot divide tau_i.
            assert dehomogenize(t_i).degree() == i


class TestFactorHomogeneous:
    def test_splits_off_s_content(self):
        g = qp("s^2*t+s^3")  # s^2 * (t+s)
        report = factor_homogeneous_st(g)
        assert report.factor_strings() == ["s", "t+s"]
        assert dict((str(p), m) for p, m in report.factors) == {"s": 2, "t+s": 1}

    def test_rejects_other_variables(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(qp("x*t"))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(qp("t^2+s"))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_homogeneous_st(MultiPoly.zero(Q))

    def test_non_cyclotomic_rational_input_rejected(self):
        # t^2 - 2*s^2 is irreducible with non-cyclotomic roots; the rational
        # engine only handles cyclotomic products.
        with pytest.raises(ValueError):
            factor_homogeneous_st(qp("t^2-2*s^2"))

    def test_scalar_unit(self):
        report = factor_homogeneous_st(qp("3*t+3*s"))
        assert report.unit == 3
        assert report.factor_strings() == ["t+s"]


class TestFactorReportInvariants:
    def test_product_check_rejects_wrong_unit(self):
        with pytest.raises(ArithmeticError):
            FactorReport(input=tau(1, Q), unit=1,
                         factors=((qp("t+s"), 1),))

    def test_rejects_non_canonical_factor(self):
        with pytest.raises(ValueError):
            FactorReport(input=qp("-t-s"), unit=1, factors=((qp("-t-s"), 1),))

    def test_rejects_duplicate_factors(self):
        with pytest.raises(ArithmeticError):
            FactorReport(input=qp("t^2+2*s*t+s^2"), unit=1,
                         factors=((qp("t+s"), 1), (qp("t+s"), 1)))

    def test_degree_sum_over_prime_field(self):
        for i in (5, 7, 24):
            f = sigma(i, F7)
            report = factor_over_prime_field(f, seed=2)
            assert sum(p.degree() * m for p, m in report.factors) == f.degree()


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
        # Pairwise-coprimality oracle on the dehomogenized witnesses.
        witnesses = []
        for rep in report.per_index:
            witnesses.extend(p for p, _ in rep.factors)
        unique = list(dict.fromkeys(witnesses))
        assert len(unique) == 20
        for i in range(len(unique)):
            for j in range(i + 1, len(unique)):
                g = gcd_univariate(dehomogenize(unique[i]), dehomogenize(unique[j]))
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
        payload = report.to_json_dict()
        assert payload["final_distinct"] == report.final_distinct
        assert [r["index"] for r in payload["records"]] == [2, 5, 11]

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
