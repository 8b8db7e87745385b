"""Univariate factorization and distinct-factor growth tracking.

tau_i is read off its cyclotomic structure: it dehomogenizes to sigma_i, the
product of the Phi_m over the divisors m > 1 of i + 1.  Over the rationals
each Phi_m is irreducible (classical and assumed).  Over F_p, with
i + 1 = p^e * n and p not dividing n, the multiplicities come from p^e, and
each Phi_m with m | n splits into phi(m)/ord_m(p) irreducibles of degree
ord_m(p); it is split once per process by equal-degree splitting with that
known degree, and every factor is proven irreducible by Rabin's test.
Each report re-verifies reassembly and the squarefree product of its factors.

Other inputs go through the generic engines, which the tests use as oracles:
exact cyclotomic trial division over Q, and over a prime field squarefree
decomposition, distinct-degree splitting, then randomized equal-degree
splitting with an optional seed.  Factor lists are sorted canonically, so
reports do not depend on the random path taken.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .arith import Field, Form, UniPoly, gcd_univariate, sigma, tau

_EDF_MAX_TRIES = 512
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot bytes -> struct format code, ascending


# ----------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class FactorReport:
    """Factorization into canonically normalized irreducibles.

    unit * product(factor^multiplicity) reassembles the input exactly; this
    and the squarefree product of the distinct factors are re-verified.
    """

    input: Union[Form, UniPoly]
    unit: Union[int, Fraction]
    factors: tuple  # pairs (polynomial, multiplicity >= 1)

    def __post_init__(self) -> None:
        homogeneous = isinstance(self.input, Form)
        # unit * prod(u^(mult-1)) * distinct multiplies each simple factor once.
        product = UniPoly.constant(self.input.field, self.unit)
        distinct = UniPoly.one(self.input.field)
        degree = s_divisible = 0
        for poly, mult in self.factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            if not _is_canonical_factor(poly):
                raise ValueError(f"factor {poly} is not canonically normalized")
            u = poly.u if homogeneous else poly
            distinct = distinct * u
            if mult > 1:
                product = product * u ** (mult - 1)
            if homogeneous:
                degree += mult * poly.degree
                s_divisible += u.degree() < poly.degree
        product = product * distinct
        # A form carries its degree, so a dropped power of s shows here.
        if (Form(product, degree) if homogeneous else product) != self.input:
            raise ArithmeticError("factorization does not reassemble the input")
        # Factors sharing a divisor h put h^2 into their product; and s, whose
        # part in t is 1, may divide one factor only.
        if s_divisible > 1 or not _is_squarefree(distinct):
            raise ArithmeticError("factors are not pairwise coprime")

    def factor_strings(self) -> list:
        return [str(poly) for poly, _ in self.factors]


def _is_squarefree(f: UniPoly) -> bool:
    """gcd(f, f') = 1; over F_p, f' = 0 leaves gcd f.  For f in Z[t] with
    lc(f) prime to the check prime p, a square h^2 | f over Q may be taken
    with h primitive in Z[t] (Gauss's lemma), so lc(h) is prime to p and
    (h mod p)^2 divides f mod p with deg(h mod p) >= 1: a gcd of 1 mod p
    proves f squarefree, and any other modular result is settled over Q."""
    if (f.field.is_rationals and all(isinstance(c, int) for c in f.coeffs)
            and f.lc % _CHECK_FIELD.p):
        reduced = UniPoly._exact(_CHECK_FIELD, list(f.coeffs))
        if gcd_univariate(reduced, reduced.derivative()).is_one():
            return True
    return gcd_univariate(f, f.derivative()).is_one()


def _is_canonical_factor(poly: Union[Form, UniPoly]) -> bool:
    # Monic over a prime field; over Q a positive leading coefficient in the
    # term order, where a form leads with its highest power of t.
    field = poly.field
    lead = poly.u.lc if isinstance(poly, Form) else poly.lc
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
        fresh = {poly for poly, _ in rep.factors} - seen
        seen |= fresh
        new_counts.append(len(fresh))
        cumulative.append(len(seen))
    return GrowthReport(tuple(indices), tuple(reports), tuple(new_counts), tuple(cumulative))


# ----------------------------------------------------------------------------
# Cyclotomic polynomials and rational factorization.

_Q = Field.rationals()
# The prime of _is_squarefree's modular test; built once, as Field.prime trial-divides.
_CHECK_FIELD = Field.prime(1_000_003)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> UniPoly:
    """n-th cyclotomic polynomial over Q, as the Moebius product of the
    (t^d - 1)^mu(n/d) over the divisors d of n, on integer coefficient lists."""
    if n < 1:
        raise ValueError("cyclotomic(n) requires n >= 1")
    binomials = [(n, 1)]  # (d, mu(n/d)) for the squarefree n/d
    for q in _prime_divisors(n):
        binomials += [(d // q, -mu) for d, mu in binomials]
    coeffs = [1]
    for d, mu in sorted(binomials, key=lambda pair: -pair[1]):
        if mu == 1:  # multiply by t^d - 1
            coeffs = [hi - lo for hi, lo in zip([0] * d + coeffs, coeffs + [0] * d)]
            continue
        rem, coeffs = coeffs, [0] * (len(coeffs) - d)  # divide from the top
        for k in range(len(rem) - 1, d - 1, -1):
            coeffs[k - d] = rem[k]
            rem[k - d] += rem[k]
        if any(rem[:d]):
            raise ArithmeticError(f"t^{d} - 1 does not divide the product for Phi_{n}")
    return UniPoly(_Q, coeffs)


def _prime_divisors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def totient(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    for q in _prime_divisors(n):
        result -= result // q
    return result


def _divisors_above_one(n: int) -> list:
    return [m for m in range(2, n + 1) if n % m == 0]


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


class _ModRing:
    """F_p[t]/(f) for a monic f of degree n, on canonical coefficient lists
    (ascending, length n) packed into ints by Kronecker substitution (Harvey,
    J. Symbolic Comput. 44, 2009).  A slot of 2*bitlen(p) + bitlen(n) + 1 bits
    holds a sum of 2n - 1 products of residues, so a product is one big-int
    multiply; slots of 1, 2, 4 or 8 bytes pack through struct."""

    def __init__(self, f: UniPoly):
        p, n = f.field.p, f.degree()
        self.f, self.p, self.n = f, p, n
        w = 2 * p.bit_length() + n.bit_length() + 1
        self.size = next((b for b in _WORDS if 8 * b >= w), -(-w // 8))
        self.code = _WORDS.get(self.size)
        # table[j - n] = x^j mod f for n <= j <= 2n - 2, from x^n = -(f - x^n).
        low = [-c % p for c in f.coeffs[:n]]
        row, self.table = low, []
        for _ in range(n - 1):
            self.table.append(self.pack(row))
            row = [(a + row[-1] * b) % p for a, b in zip([0] + row, low)]

    def pack(self, c: list) -> int:
        return int.from_bytes(struct.pack(f"<{len(c)}{self.code}", *c) if self.code else
                              b"".join(v.to_bytes(self.size, "little") for v in c), "little")

    def unpack(self, packed: int, m: int) -> list:  # the first m slots, mod p
        p, size, data = self.p, self.size, packed.to_bytes(m * self.size, "little")
        if self.code:
            return [v % p for v in struct.unpack(f"<{m}{self.code}", data)]
        return [int.from_bytes(data[i:i + size], "little") % p for i in range(0, len(data), size)]

    def dot(self, low: int, coeffs: list, rows: list) -> list:
        """unpack(low + sum c_j * rows_j): reduction mod f on the table, and
        the Frobenius map h^p = sum h_j x^(p*j) on the Frobenius rows."""
        return self.unpack(low + sum(c * row for c, row in zip(coeffs, rows) if c), self.n)

    def mul(self, a: list, b: list) -> list:
        product, split = self.pack(a) * self.pack(b), 8 * self.size * self.n
        return self.dot(product & ((1 << split) - 1),
                        self.unpack(product >> split, self.n - 1), self.table)

    def pow(self, a: list, e: int) -> list:  # e >= 1
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def elem(self, u: UniPoly) -> list:
        return list((u % self.f).coeffs + (0,) * self.n)[:self.n]

    def frobenius_rows(self) -> list:
        """f's Frobenius (Berlekamp Q-) matrix: packed rows x^(p*j) mod f, j < n."""
        xp = self.pow(self.elem(UniPoly.gen(self.f.field)), self.p)
        rows = [self.pack([1] + [0] * (self.n - 1))]
        for _ in range(self.n - 1):
            rows.append(self.pack(self.mul(self.unpack(rows[-1], self.n), xp)))
        return rows

    def conjugate_fold(self, r: list, k: int, rows: list, combine) -> list:
        """r combined with r^p, ..., r^(p^(k-1)) by an associative, commutative
        combine in O(log k) combines: S_2j = combine(S_j, S_j^(p^j)) and
        S_(j+1) = combine(r, S_j^p), with S_j the fold of the first j terms."""
        acc, j = r, 1
        for bit in bin(k)[3:]:
            shifted = acc
            for _ in range(j):
                shifted = self.dot(0, shifted, rows)
            acc, j = combine(acc, shifted), 2 * j
            if bit == "1":
                acc, j = combine(r, self.dot(0, acc, rows)), j + 1
        return acc


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
        # f' = 0, so only exponents divisible by p occur, and over a prime
        # field the coefficients are their own p-th roots.
        f = UniPoly(f.field, f.coeffs[::p])
        n *= p


def _distinct_degree(f: UniPoly) -> list:
    """Split a monic squarefree f into (product of degree-k irreducibles, k)."""
    p = f.field.p
    x = UniPoly.gen(f.field)
    result = []
    g, ring, h = f, _ModRing(f), x
    k = 0
    while g.degree() >= 2 * (k + 1):
        k += 1
        h = UniPoly._exact(f.field, ring.pow(ring.elem(h), p))
        d = gcd_univariate(g, h - x)
        if not d.is_one():
            result.append((d, k))
            g = g.exact_quotient(d)
            ring, h = _ModRing(g), h % g
    if not g.is_one():
        result.append((g, g.degree()))
    return result


def _random_poly(rng: random.Random, field: Field, degree: int) -> list:
    return [rng.randrange(field.p) for _ in range(degree + 1)]


def _equal_degree(f: UniPoly, k: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-k
    irreducibles into the irreducibles themselves, by refinement: each trial
    splits every part not yet of degree k by its gcd with one h modulo f.

    For odd p, h = r^((p^k-1)/2) - 1 =
    (r * r^p * ... * r^(p^(k-1)))^((p-1)/2) - 1, and for p = 2 the trace
    r + r^2 + ... + r^(2^(k-1)); each r^(p^j) is a vector-matrix product
    with f's Frobenius matrix (von zur Gathen and Shoup, 1992)."""
    n = f.degree()
    if n == k:
        return [f]
    p = f.field.p
    ring = _ModRing(f)
    rows = ring.frobenius_rows() if k > 1 else None
    parts = [f]
    for _ in range(_EDF_MAX_TRIES):
        r = _random_poly(rng, f.field, n - 1)
        if p == 2:
            acc = ring.conjugate_fold(r, k, rows, lambda a, b: [u ^ v for u, v in zip(a, b)])
        else:
            acc = ring.pow(ring.conjugate_fold(r, k, rows, ring.mul), (p - 1) // 2)
            acc[0] -= 1
        h = UniPoly._exact(f.field, acc)
        refined = []
        for part in parts:
            g = gcd_univariate(part, h) if part.degree() > k else part
            refined += [g, part.exact_quotient(g)] if 0 < g.degree() < part.degree() else [part]
        parts = refined
        if all(part.degree() == k for part in parts):
            return parts
    raise ArithmeticError("equal-degree splitting failed to converge")


def _is_irreducible(g: UniPoly) -> bool:
    """Rabin's test for a monic g of degree k >= 1 over F_p: g is irreducible
    iff x^(p^k) = x mod g and gcd(x^(p^(k/r)) - x, g) = 1 for every prime r
    dividing k (Rabin, SIAM J. Comput. 9, 1980).  The Frobenius matrix is
    built here from g's own x^p mod g, so a split never certifies itself."""
    k, t = g.degree(), UniPoly.gen(g.field)
    if k == 1:  # irreducible by definition; the test would only check a^p = a
        return True
    ring = _ModRing(g)
    rows, x = ring.frobenius_rows(), ring.elem(t)
    powers = [x]  # x^(p^j) mod g
    for _ in range(k):
        powers.append(ring.dot(0, powers[-1], rows))
    return powers[k] == x and all(gcd_univariate(UniPoly._exact(g.field, powers[k // r]) - t,
                                                 g).is_one() for r in _prime_divisors(k))


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


def factor_homogeneous_st(g: Form, seed: Optional[int] = None) -> FactorReport:
    """Factor a nonzero binary form into canonical irreducible forms: the
    power of s it carries, and the factors of its part in t, each as a form
    of its own degree."""
    if g.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = g.field
    s_content = g.degree - g.u.degree()
    monic = g.u.monic()
    if field.is_rationals:
        pairs = _cyclotomic_trial_division(monic)
    else:
        pairs = list(factor_over_prime_field(monic, seed=seed).factors)
    factors = [(Form(UniPoly.one(field), 1), s_content)] if s_content else []
    factors.extend((Form(poly, poly.degree()), mult) for poly, mult in pairs)
    return _homogeneous_report(g, g.u.lc, factors)


def _homogeneous_report(g: Form, unit, factors: list) -> FactorReport:
    factors.sort(key=lambda pair: (pair[0].degree, str(pair[0])))
    return FactorReport(input=g, unit=unit, factors=tuple(factors))


def factor_tau(i: int, field: Field, seed: Optional[int] = None) -> FactorReport:
    """Factor tau_i into homogeneous irreducibles over the given field.

    tau_i is (-1)^i times the homogenization of sigma_i, the product of the
    cyclotomic polynomials at the divisors m > 1 of i + 1, so the factors are
    read off that structure: over Q each Phi_m is irreducible, and over F_p
    each Phi_m with p not dividing m is split once per process.
    """
    g = tau(i, field)
    if field.is_rationals:
        pairs = [(cyclotomic(m), 1) for m in _divisors_above_one(i + 1)]
    else:
        pairs = _factor_sigma_mod_p(i, field, seed)
    factors = [(Form(phi, phi.degree()), mult) for phi, mult in pairs]
    return _homogeneous_report(g, g.u.lc, factors)


def _factor_sigma_mod_p(i: int, field: Field, seed: Optional[int]) -> list:
    # With i + 1 = p^e * n and p not dividing n, sigma_i is
    # (t^n - 1)^(p^e) / (t - 1) over F_p, and t^n - 1 is the squarefree
    # product of the Phi_m over the divisors m of n.
    p = field.p
    n, q = i + 1, 1
    while n % p == 0:
        n //= p
        q *= p
    pairs = []
    if q > 1:
        pairs.append((UniPoly(field, [-1, 1]), q - 1))
    for m in _divisors_above_one(n):
        pairs.extend((poly, q) for poly in _split_cyclotomic(m, field, seed))
    return pairs


@lru_cache(maxsize=None)
def _split_cyclotomic(m: int, field: Field, seed: Optional[int]) -> tuple:
    """Phi_m mod p, for p not dividing m, as its phi(m)/k monic irreducible
    factors of degree k = ord_m(p) (Lidl and Niederreiter, Finite Fields,
    Thm 2.47), each proven irreducible by Rabin's test."""
    p = field.p
    k, power = 1, p % m
    while power != 1:
        power = power * p % m
        k += 1
    phi = UniPoly(field, cyclotomic(m).coeffs)
    factors = _equal_degree(phi, k, random.Random(f"{seed}:{m}"))
    for poly in factors:
        if not _is_irreducible(poly):
            raise ArithmeticError(
                f"factor {poly} of Phi_{m} mod {p} fails Rabin's irreducibility test")
    return tuple(factors)


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
