"""Univariate factorization and distinct-factor growth tracking.

Over the rationals, the only inputs that ever need factoring are products
of cyclotomic polynomials, which are peeled off by exact trial division
(cyclotomic irreducibility over Q is classical and assumed; pairwise
coprimality of reported factors is re-verified instead).  Over a prime
field the engine is complete: squarefree decomposition, distinct-degree
splitting, then randomized equal-degree splitting with an optional seed.
Factor lists are sorted canonically, so reports do not depend on the
random path taken.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .arith import (
    Field,
    Monomial,
    MultiPoly,
    UniPoly,
    dehomogenize,
    exact_divide,
    gcd_univariate,
    homogenize,
    sigma,
    tau,
)

_EDF_MAX_TRIES = 512


# ----------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class FactorReport:
    """Factorization into canonically normalized irreducibles.

    unit * product(factor^multiplicity) reassembles the input exactly; this
    and pairwise coprimality are re-verified at construction.
    """

    input: Union[MultiPoly, UniPoly]
    unit: Union[int, Fraction]
    factors: tuple  # pairs (polynomial, multiplicity >= 1)

    def __post_init__(self) -> None:
        base = self.input.field
        if isinstance(self.input, MultiPoly):
            product = MultiPoly.constant(base, self.unit)
        else:
            product = UniPoly.constant(base, self.unit, self.input.var)
        for poly, mult in self.factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            if not _is_canonical_factor(poly):
                raise ValueError(f"factor {poly} is not canonically normalized")
            product = product * poly ** mult
        if product != self.input:
            raise ArithmeticError("factorization does not reassemble the input")
        dehomogenized = [_as_univariate(poly) for poly, _ in self.factors]
        for i in range(len(dehomogenized)):
            for j in range(i + 1, len(dehomogenized)):
                if not gcd_univariate(dehomogenized[i], dehomogenized[j]).is_one():
                    raise ArithmeticError("factors are not pairwise coprime")

    def factor_strings(self) -> list:
        return [str(poly) for poly, _ in self.factors]

    def distinct_factors(self) -> set:
        return {poly for poly, _ in self.factors}


def _as_univariate(poly: Union[MultiPoly, UniPoly]) -> UniPoly:
    if isinstance(poly, UniPoly):
        return poly
    return dehomogenize(poly)


def _is_canonical_factor(poly: Union[MultiPoly, UniPoly]) -> bool:
    # Monic over a prime field; positive leading coefficient (in the term
    # order) over the rationals.
    field = poly.field
    if isinstance(poly, UniPoly):
        lead = poly.lc
    else:
        lead = poly.leading_term()[1]
    if field.is_rationals:
        return lead > 0
    return lead == field.one


@dataclass(frozen=True)
class GrowthReport:
    """Distinct irreducible factors accumulated along an index set."""

    index_set: tuple
    per_index: tuple  # FactorReport per index, in order
    new_distinct: tuple
    cumulative_distinct: tuple

    def __post_init__(self) -> None:
        if not (len(self.index_set) == len(self.per_index)
                == len(self.new_distinct) == len(self.cumulative_distinct)):
            raise ValueError("misaligned growth report columns")
        if any(b < a for a, b in zip(self.cumulative_distinct, self.cumulative_distinct[1:])):
            raise ValueError("cumulative count must be non-decreasing")

    @property
    def final_distinct(self) -> int:
        return self.cumulative_distinct[-1] if self.cumulative_distinct else 0

    def to_json_dict(self) -> dict:
        records = []
        for idx, rep, new, cum in zip(self.index_set, self.per_index,
                                      self.new_distinct, self.cumulative_distinct):
            records.append({
                "index": idx,
                "unit": str(rep.unit),
                "factors": [{"factor": str(p), "multiplicity": m} for p, m in rep.factors],
                "new_distinct": new,
                "cumulative_distinct": cum,
            })
        return {"indices": list(self.index_set),
                "records": records,
                "final_distinct": self.final_distinct}


def accumulate_reports(indices: Sequence[int], reports: Sequence[FactorReport]) -> GrowthReport:
    """Deduplicate factors across reports and build the growth columns."""
    seen: set = set()
    new_counts = []
    cumulative = []
    for rep in reports:
        fresh = rep.distinct_factors() - seen
        seen |= fresh
        new_counts.append(len(fresh))
        cumulative.append(len(seen))
    return GrowthReport(tuple(indices), tuple(reports), tuple(new_counts), tuple(cumulative))


# ----------------------------------------------------------------------------
# Cyclotomic polynomials and rational factorization.

_Q = Field.rationals()


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> UniPoly:
    """n-th cyclotomic polynomial over Q, by exact division of t^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic(n) requires n >= 1")
    poly = UniPoly(_Q, "t", [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_quotient(cyclotomic(d))
    return poly


def totient(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def factor_sigma_rational(i: int) -> FactorReport:
    """sigma_i over Q is the product of the cyclotomics at divisors > 1 of i+1."""
    if i < 1:
        raise ValueError("factor_sigma_rational requires i >= 1")
    divisors = sorted(d for d in range(2, i + 2) if (i + 1) % d == 0)
    factors = tuple((cyclotomic(d), 1) for d in divisors)
    return FactorReport(input=sigma(i, _Q), unit=1, factors=factors)


def _cyclotomic_trial_division(w: UniPoly) -> list:
    # Peel cyclotomic factors off a monic rational polynomial.  Any candidate
    # index d must satisfy totient(d) <= deg(remaining); totient(d) >= sqrt(d/2)
    # bounds the search.
    factors = []
    remaining = w
    d = 1
    while not remaining.is_one():
        bound = 2 * remaining.degree() ** 2 + 1
        if d > bound:
            raise ValueError(
                "rational factorization beyond cyclotomic products is unsupported")
        if totient(d) <= remaining.degree():
            phi = cyclotomic(d)
            mult = 0
            while True:
                q, r = divmod(remaining, phi)
                if not r.is_zero():
                    break
                remaining = q
                mult += 1
            if mult:
                factors.append((phi, mult))
        d += 1
    return factors


# ----------------------------------------------------------------------------
# Factorization over a prime field.


def _pow_mod(base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    result = UniPoly.one(base.field, base.var)
    acc = base % mod
    while e:
        if e & 1:
            result = (result * acc) % mod
        acc = (acc * acc) % mod
        e >>= 1
    return result


def _pth_root(f: UniPoly) -> UniPoly:
    # Valid when f' = 0, i.e. only exponents divisible by p occur; over a
    # prime field the coefficients are their own p-th roots.
    p = f.field.p
    return UniPoly(f.field, f.var, list(f.coeffs[::p]))


def _squarefree_parts(f: UniPoly) -> list:
    """Yun-style decomposition of a monic f into (squarefree part, multiplicity)."""
    p = f.field.p
    parts = []
    n = 1
    while True:
        d = f.derivative()
        if not d.is_zero():
            g = gcd_univariate(f, d)
            h = f.exact_quotient(g)
            i = 1
            while not h.is_one():
                shared = gcd_univariate(g, h)
                outer = h.exact_quotient(shared)
                if outer.degree() > 0:
                    parts.append((outer, i * n))
                i += 1
                g = g.exact_quotient(shared)
                h = shared
            f = g
        if f.is_one():
            return parts
        f = _pth_root(f)
        n *= p


def _distinct_degree(f: UniPoly) -> list:
    """Split a monic squarefree f into (product of degree-k irreducibles, k)."""
    p = f.field.p
    x = UniPoly.gen(f.field, f.var)
    result = []
    g = f
    h = x % g
    k = 0
    while g.degree() >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, g)
        d = gcd_univariate(g, h - x)
        if not d.is_one():
            result.append((d, k))
            g = g.exact_quotient(d)
            h = h % g
    if not g.is_one():
        result.append((g, g.degree()))
    return result


def _random_poly(rng: random.Random, field: Field, var: str, degree: int) -> UniPoly:
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(degree + 1)]
        poly = UniPoly(field, var, coeffs)
        if poly.degree() >= 1:
            return poly


def _equal_degree(f: UniPoly, k: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-k
    irreducibles into the irreducibles themselves."""
    if f.degree() == k:
        return [f]
    p = f.field.p
    x_deg = f.degree()
    for _ in range(_EDF_MAX_TRIES):
        r = _random_poly(rng, f.field, f.var, x_deg - 1)
        g = gcd_univariate(f, r)
        if g.degree() == 0:
            if p == 2:
                acc = r
                power = r
                for _ in range(k - 1):
                    power = _pow_mod(power, 2, f)
                    acc = (acc + power) % f
                g = gcd_univariate(f, acc)
            else:
                e = (p ** k - 1) // 2
                g = gcd_univariate(f, _pow_mod(r, e, f) - 1)
        if 0 < g.degree() < f.degree():
            return (_equal_degree(g, k, rng)
                    + _equal_degree(f.exact_quotient(g), k, rng))
    raise ArithmeticError("equal-degree splitting failed to converge")


def factor_over_prime_field(f: UniPoly, seed: Optional[int] = None) -> FactorReport:
    """Complete factorization of a nonzero f over F_p into monic irreducibles."""
    field = f.field
    if field.is_rationals:
        raise ValueError("factor_over_prime_field requires a prime field")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    unit = f.lc
    work = f.monic()
    factors = []
    for part, mult in _squarefree_parts(work):
        for block, k in _distinct_degree(part):
            for irreducible in _equal_degree(block, k, rng):
                factors.append((irreducible, mult))
    factors.sort(key=lambda pair: pair[0].sort_key())
    return FactorReport(input=f, unit=unit, factors=tuple(factors))


# ----------------------------------------------------------------------------
# Homogeneous bivariate inputs (the tau family and the determinants).


def factor_homogeneous_st(g: MultiPoly, seed: Optional[int] = None) -> FactorReport:
    """Factor a nonzero homogeneous polynomial in s, t into canonical
    homogeneous irreducibles, by dehomogenizing, factoring in one variable,
    and homogenizing each factor back (degree-faithful once the s-content
    is split off)."""
    if g.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = g.field
    if not g.variables() <= {"s", "t"}:
        raise ValueError("input must live in k[s,t]")
    if not g.is_homogeneous():
        raise ValueError("input must be homogeneous")
    s_content = min(mono.exponent("s") for mono, _ in g.items())
    reduced = g
    if s_content:
        s_power = MultiPoly.term(field, 1, Monomial.variable("s", s_content))
        reduced = exact_divide(g, s_power)
    u = dehomogenize(reduced)
    unit = u.lc
    monic = u.monic()
    if field.is_rationals:
        pairs = _cyclotomic_trial_division(monic)
    else:
        report = factor_over_prime_field(monic, seed=seed)
        pairs = list(report.factors)
    factors = []
    if s_content:
        factors.append((MultiPoly.variable(field, "s"), s_content))
    for poly, mult in pairs:
        factors.append((homogenize(poly), mult))
    factors.sort(key=lambda pair: (pair[0].degree(), str(pair[0])))
    return FactorReport(input=g, unit=unit, factors=tuple(factors))


def factor_tau(i: int, field: Field, seed: Optional[int] = None) -> FactorReport:
    """Factor tau_i into homogeneous irreducibles over the given field."""
    return factor_homogeneous_st(tau(i, field), seed=seed)


# ----------------------------------------------------------------------------
# Separability of sigma at prime-power indices.


@dataclass(frozen=True)
class SeparabilityCertificate:
    """gcd(sigma_i, sigma_i') over F_p at the index i = p^m - 2, together
    with the squarefree verdict and the telescoping identity check
    sigma_i * (t - 1) = t^(p^m - 1) - 1."""

    p: int
    m: int
    index: int
    gcd: UniPoly
    squarefree: bool
    telescoping_ok: bool


def separability_check(p: int, m: int) -> SeparabilityCertificate:
    field = Field.prime(p)
    if m < 1:
        raise ValueError("separability_check requires m >= 1")
    index = p ** m - 2
    if index < 1:
        raise ValueError(f"p^m - 2 = {index} is below 1")
    s_poly = sigma(index, field)
    g = gcd_univariate(s_poly, s_poly.derivative())
    t = UniPoly.gen(field)
    telescoped = s_poly * (t - 1) == t ** (p ** m - 1) - 1
    return SeparabilityCertificate(p=p, m=m, index=index, gcd=g,
                                   squarefree=g.is_one(), telescoping_ok=telescoped)


# ----------------------------------------------------------------------------
# Growth of the distinct-factor set.


def accumulate_distinct(indices: Sequence[int], field: Field,
                        seed: Optional[int] = None) -> GrowthReport:
    """Factor tau_i for each index and count distinct irreducibles seen so far."""
    idx = list(indices)
    if any(i < 1 for i in idx):
        raise ValueError("indices must be >= 1")
    reports = [factor_tau(i, field, seed=seed) for i in idx]
    return accumulate_reports(idx, reports)


def missing_prime_power_indices(indices: Sequence[int], p: int) -> bool:
    """True when no index has the form p^m - 2; along such a set the
    distinct-factor count is not guaranteed to grow."""
    if not indices:
        return True
    top = max(indices)
    wanted = set()
    value = p
    while value - 2 <= top:
        if value - 2 >= 1:
            wanted.add(value - 2)
        value *= p
    return not (wanted & set(indices))
