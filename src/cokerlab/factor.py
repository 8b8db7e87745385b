"""Univariate factorization and distinct-factor growth tracking.

tau_i is read off its cyclotomic structure: it dehomogenizes to sigma_i, the
product of the Phi_m over the divisors m > 1 of i + 1.  Over the rationals
each Phi_m is irreducible (classical and assumed).  Over F_p, with
i + 1 = p^e * n and p not dividing n, the multiplicities come from p^e, and
each Phi_m with m | n splits into phi(m)/ord_m(p) irreducibles of degree
ord_m(p).  It is split once per process: random Frobenius-fixed elements of
F_p[x]/(x^m - 1), where Frobenius x^c -> x^(pc mod m) only permutes the
exponents, isolate one factor, and Berlekamp-Massey reads each other factor
off its traces.  Every factor is proven irreducible by Rabin's test, on
x^j mod the factor for j <= m: x^m = 1 proves that it divides x^m - 1, and
then each x^(p^j) is read off x^(p^j mod m).
Each report re-verifies its reassembly by Kronecker-packed products, and that
its distinct factors are coprime, for tau_i by one division of t^N - 1; every
way to build a report runs these checks, so its users need not divide again.

Other inputs go through the generic engines, which the tests use as oracles:
exact cyclotomic trial division over Q, and over a prime field squarefree
decomposition, distinct-degree splitting, then randomized equal-degree
splitting with an optional seed, on plain UniPoly arithmetic and no packed
ring.  Factor lists are sorted canonically, so reports do not depend on the
random path taken.
"""

from __future__ import annotations

import random
import struct
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter
from typing import Optional, Sequence

from .arith import Field, Form, UniPoly, _record, _require_same_field, gcd_univariate, sigma, tau

_EDF_MAX_TRIES = 512
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot bytes -> struct format code, ascending


# ----------------------------------------------------------------------------
# Reports.


class FactorReport(_record("FactorReport", "input unit factors")):
    """Factorization into canonically normalized irreducibles.

    ``factors`` holds pairs (polynomial, multiplicity >= 1), and
    unit * product(factor^multiplicity) reassembles the input exactly; this
    is re-verified on big-int products (_reassemble), and the product of the
    distinct factors is proven squarefree (_is_squarefree).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FactorReport:
        self = super().__new__(cls, *args, **kwargs)
        homogeneous, field = isinstance(self.input, Form), self.input.field
        unit, pairs, degree, s_divisible = field.coerce(self.unit), [], 0, 0
        for poly, mult in self.factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            u = poly.u if homogeneous else poly
            # Monic over a prime field; over Q a positive leading coefficient in
            # the term order, where a form leads with its highest power of t.
            if not (u.lc > 0 if u.field.is_rationals else u.lc == 1):
                raise ValueError(f"factor {poly} is not canonically normalized")
            _require_same_field(field, u.field)
            pairs.append((u, mult))
            if homogeneous:
                degree += mult * poly.degree
                s_divisible += u.degree() < poly.degree
        product, distinct = _reassemble(unit, pairs, field)
        # A form carries its degree, so a dropped power of s shows here.
        if (Form(product, degree) if homogeneous else product) != self.input:
            raise ArithmeticError("factorization does not reassemble the input")
        # Factors sharing a divisor h put h^2 into their product; and s, whose
        # part in t is 1, may divide one factor only.
        if s_divisible > 1 or not _is_squarefree(distinct):
            raise ArithmeticError("factors are not pairwise coprime")
        return self

    def factor_strings(self) -> list:
        return [str(poly) for poly, _ in self.factors]


def _reassemble(unit, pairs: list, field: Field) -> tuple:
    """(unit * prod(u^e), a nonzero multiple of prod(u)) over the pairs (u, e),
    in a balanced tree of Kronecker-packed products reduced mod M: over the
    u, then over their product and e - 1 more copies of each u.  Over F_p,
    M = p.  Over Q each u is lifted to Z[t] by the lcm of its denominators,
    and M = 2B + 1 for B the product of the lifts' 1-norms ||lift||_1^e: as
    ||fg||_1 <= ||f||_1 ||g||_1, each coefficient c of either product has
    |c| <= B < M/2, so the symmetric lift of its residue is c itself."""
    p, den, bound, lifts = field.p, 1, 1, []
    for u, e in pairs:
        d = 1 if p else lcm(*map(attrgetter("denominator"), u.coeffs))
        lifts.append(list((u.scale(d) if d > 1 else u).coeffs))
        den, bound = den * d ** e, bound * sum(map(abs, lifts[-1])) ** e
    modulus = p or 2 * bound + 1
    residues = [[c % modulus for c in lift] for lift in lifts]
    distinct = _product_mod(residues, modulus)
    product = _product_mod([r for r, (_, e) in zip(residues, pairs) for _ in range(e - 1)]
                           + [distinct], modulus)
    if not p:  # the residues above B stand for negative coefficients
        same = product is distinct  # every e is 1
        distinct = [c - modulus if c > bound else c for c in distinct]
        product = distinct if same else [c - modulus if c > bound else c for c in product]
    product = UniPoly._exact(field, product).scale(field.div(unit, den))
    return product, UniPoly._exact(field, distinct)


def _product_mod(lists: list, modulus: int) -> list:
    # The slots hold every product's sums; a single list needs no ring.
    ring = _CyclicRing(modulus, sum(map(len, lists))) if len(lists) > 1 else None
    while len(lists) > 1:
        products = map(int.__mul__, map(ring.pack, lists[::2]), map(ring.pack, lists[1::2]))
        sizes = map(int.__add__, map(len, lists[::2]), map(len, lists[1::2]))
        lists = list(map(ring.unpack, products, sizes)) + lists[len(lists) & -2:]
    return lists[0] if lists else [1]


def _is_squarefree(f: UniPoly) -> bool:
    """Whether f is squarefree: it is if it divides t^N - 1 for N = deg f + 1
    or deg f prime to the characteristic, as t^N - 1 is prime to N*t^(N-1).
    Every report the CLI builds, of some tau_i, returns here: its distinct
    factors multiply to t^n - 1 or (t^n - 1)/(t - 1), with n prime to p.
    Any other f is decided by gcd(f, f') = 1; over F_p, f' = 0 leaves gcd f."""
    p, n = f.field.characteristic, f.degree()
    for big in (n + 1, n):
        binomial = UniPoly._exact(f.field, [-1] + [0] * (big - 1) + [1])
        if big > 0 and (p == 0 or big % p) and (binomial % f).is_zero():
            return True
    return gcd_univariate(f, f.derivative()).is_one()


class GrowthReport(_record("GrowthReport",
                            "index_set per_index new_distinct cumulative_distinct")):
    """Distinct irreducible factors accumulated along an index set, with the
    FactorReport of each index, in order, in ``per_index``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GrowthReport:
        self = super().__new__(cls, *args, **kwargs)
        if not (len(self.index_set) == len(self.per_index)
                == len(self.new_distinct) == len(self.cumulative_distinct)):
            raise ValueError("misaligned growth report columns")
        if any(b < a for a, b in zip(self.cumulative_distinct, self.cumulative_distinct[1:])):
            raise ValueError("cumulative count must be non-decreasing")
        return self

    @property
    def final_distinct(self) -> int:
        return self.cumulative_distinct[-1] if self.cumulative_distinct else 0


def accumulate_reports(indices: Sequence[int], reports: Sequence[FactorReport]) -> GrowthReport:
    """Deduplicate factors across reports and build the growth columns."""
    seen, new_counts, cumulative = set(), [], []
    for rep in reports:
        fresh = {poly for poly, _ in rep.factors} - seen
        seen |= fresh
        new_counts.append(len(fresh))
        cumulative.append(len(seen))
    return GrowthReport(tuple(indices), tuple(reports), tuple(new_counts), tuple(cumulative))


# ----------------------------------------------------------------------------
# Cyclotomic polynomials and rational factorization.

_Q = Field.rationals()


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
    primes, q = [], 2
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


class _CyclicRing:
    """The one packed ring: F_p[x]/(x^n - 1) on canonical coefficient lists
    (ascending, length n) packed into ints by Kronecker substitution (Harvey,
    J. Symbolic Comput. 44, 2009).  A slot of 2*bitlen(p) + bitlen(n) + 1
    bits holds a sum of 2n - 1 products of residues, so a product is one
    big-int multiply, and as x^n = 1 it is reduced by adding its high slots
    onto its low ones; slots of 1, 2, 4 or 8 bytes pack through struct.  Only
    the split and _reassemble use it, the latter mod an M that need not be prime."""

    def __init__(self, p: int, n: int):
        bits = 2 * p.bit_length() + n.bit_length() + 1
        self.size = next((b for b in _WORDS if 8 * b >= bits), -(-bits // 8))
        self.p, self.n, self.code = p, n, _WORDS.get(self.size)

    def pack(self, c: list) -> int:
        return int.from_bytes(struct.pack(f"<{len(c)}{self.code}", *c) if self.code else
                              b"".join(v.to_bytes(self.size, "little") for v in c), "little")

    def unpack(self, packed: int, m: int) -> list:  # the first m slots, mod p
        p, size, data = self.p, self.size, packed.to_bytes(m * self.size, "little")
        if self.code:
            return [v % p for v in struct.unpack(f"<{m}{self.code}", data)]
        return [int.from_bytes(data[i:i + size], "little") % p for i in range(0, len(data), size)]

    def mul(self, a: list, b: list) -> list:
        return self.reduce(self.pack(a) * self.pack(b))

    def reduce(self, product: int) -> list:  # a packed product of two elements
        split = 8 * self.size * self.n
        return self.unpack((product & ((1 << split) - 1)) + (product >> split), self.n)

    def pow(self, a: list, e: int) -> list:
        """a^e for e >= 1, left to right by sliding windows of w bits over the
        odd powers a, a^3, ..., a^(2^w - 1).  From 2^15 up, w = 4 multiplies
        once per 4-5 bits instead of once per set bit, after 8 products build
        the table; below, w = 1 is square and multiply, with no table."""
        width, odd = 4 if e >> 15 else 1, [self.pack(a)]
        if width > 1:
            square = self.pack(self.mul(a, a))
            while len(odd) < 1 << width - 1:
                odd.append(self.pack(self.reduce(odd[-1] * square)))
        bits = bin(e)[2:]
        window = bits[:width].rstrip("0")
        result, i = odd[int(window, 2) >> 1], len(window)
        while i < len(bits):
            window = bits[i:i + width].rstrip("0") if bits[i] == "1" else "0"
            for _ in window:
                result = self.pack(self.reduce(result * result))
            if window != "0":
                result = self.pack(self.reduce(result * odd[int(window, 2) >> 1]))
            i += len(window)
        return self.unpack(result, self.n)


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


def _pow_mod(a: UniPoly, e: int, f: UniPoly) -> UniPoly:
    """a^e mod f for e >= 1, by square and multiply."""
    result = a = a % f
    for bit in bin(e)[3:]:
        result = result * result % f
        if bit == "1":
            result = result * a % f
    return result


def _distinct_degree(f: UniPoly) -> list:
    """Split a monic squarefree f into (product of degree-k irreducibles, k)."""
    p, x, result = f.field.p, UniPoly.gen(f.field), []
    g, h, k = f, x, 0
    while g.degree() >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, g)
        d = gcd_univariate(g, h - x)
        if not d.is_one():
            result.append((d, k))
            g = g.exact_quotient(d)
    if not g.is_one():
        result.append((g, g.degree()))
    return result


def _random_poly(rng: random.Random, field: Field, degree: int) -> list:
    return [rng.randrange(field.p) for _ in range(degree + 1)]


def _frobenius_rows(f: UniPoly) -> list:
    """f's Frobenius (Berlekamp Q-) matrix: the rows x^(p*j) mod f, j < deg f,
    so that h^p = sum h_j x^(p*j) mod f."""
    xp = _pow_mod(UniPoly.gen(f.field), f.field.p, f)
    rows = [UniPoly.one(f.field)]
    for _ in range(f.degree() - 1):
        rows.append(rows[-1] * xp % f)
    return rows


def _equal_degree(f: UniPoly, k: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-k
    irreducibles: a random r is taken into F_p at each factor by its norm h,
    the product of the r^(p^j) for j < k, or for p = 2 its trace h, their
    sum, each r^(p^j) read off f's Frobenius matrix (von zur Gathen and
    Shoup, 1992).  Each trial splits every part not yet of degree k by its
    gcd with h^((p-1)/2) - 1, or h for p = 2, the power taken mod the part."""
    field, n, parts, half = f.field, f.degree(), [f], (f.field.p - 1) // 2
    if n == k:
        return parts
    # The matrix's columns, so that each coefficient of h^p is one dot product.
    columns = list(zip(*(row.coeffs + (0,) * (n - len(row.coeffs))
                         for row in _frobenius_rows(f)))) if k > 1 else []
    combine = (lambda a, b: a * b % f) if half else UniPoly.__add__

    def conjugate(h: UniPoly, j: int) -> UniPoly:  # h^(p^j)
        for _ in range(j):
            h = UniPoly._exact(field, [sum(map(int.__mul__, h.coeffs, c)) for c in columns])
        return h

    ones = UniPoly._exact(field, [1] * n)  # h^(p^k) = h mod f for all h; this h uses each row
    if k > 1 and conjugate(ones, k) != ones:
        raise ArithmeticError("the Frobenius matrix does not fix 1 + x + ... + x^(n-1)")

    for _ in range(_EDF_MAX_TRIES):
        # h folds the first j conjugates of r: S_2j = S_j S_j^(p^j), S_(j+1) = r S_j^p.
        r = h = UniPoly._exact(field, _random_poly(rng, field, n - 1))
        j = 1
        for bit in bin(k)[3:]:
            h, j = combine(h, conjugate(h, j)), 2 * j
            if bit == "1":
                h, j = combine(r, conjugate(h, 1)), j + 1
        refined = []
        for part in parts:
            g = (gcd_univariate(part, _pow_mod(h, half, part) - 1 if half else h)
                 if part.degree() > k else part)
            refined += [g, part.exact_quotient(g)] if 0 < g.degree() < part.degree() else [part]
        parts = refined
        if all(part.degree() == k for part in parts):
            return parts
    raise ArithmeticError("equal-degree splitting failed to converge")


def _split_fixed(f: UniPoly, m: int, rng: random.Random) -> list:
    """Split f = Phi_m mod p into its irreducibles of degree k = ord_m(p),
    as _split_cyclotomic describes."""
    field, orbit, leaders = f.field, [-1] * m, []  # orbit[c]: the index of c's leader
    for c in range(m):
        if orbit[c] < 0:
            leaders.append(c)
            while orbit[c] < 0:
                orbit[c], c = len(leaders) - 1, c * field.p % m
    k, part = orbit.count(orbit[1]), f
    if f.degree() == k:
        return [f]
    ring = _CyclicRing(field.p, m)
    for _ in range(_EDF_MAX_TRIES):
        # One residue per orbit; r^((p-1)/2) - 1, or r for p = 2, splits about half.
        r = list(map(_random_poly(rng, field, len(leaders) - 1).__getitem__, orbit))
        if field.p > 2:
            r = ring.pow(r, (field.p - 1) // 2)
            r[0] -= 1
        g = gcd_univariate(part, UniPoly._exact(field, r))
        if 0 < g.degree() < part.degree():
            if f.degree() == 2 * k:
                return [g, f.exact_quotient(g)]
            part = min(g, part.exact_quotient(g), key=UniPoly.degree)
            if part.degree() == k:
                return _conjugates(part, m, orbit, leaders)
    raise ArithmeticError("equal-degree splitting failed to converge")


def _conjugates(g: UniPoly, m: int, orbit: list, leaders: list) -> list:
    """Every factor of Phi_m mod p from one, g, of degree k = ord_m(p): one
    per orbit of c -> pc on the units mod m.  For a root z of g, the factor
    vanishing at z^c has the k roots z^(c p^j), distinct as p does not
    divide m.  The sequence s_t = Tr(z^(ct)) = sum_j (z^(c p^j))^t gives
    each root weight 1, so by a Vandermonde argument the factor is its
    minimal polynomial in every characteristic, which _berlekamp_massey
    reads off 2k terms.  Tr(z^e) sums, over j < k, the constant coefficient
    of x^(e p^j) mod g: term e p^j mod m of g's linear recurrence seeded
    1, 0, ..., 0."""
    field, p, k = g.field, g.field.p, g.degree()
    low, const = g.coeffs[:k], [1] + [0] * (k - 1)
    for _ in range(k, m):
        const.append(-sum(map(int.__mul__, low, const[-k:])) % p)
    # The e p^j, j < k, run k / |orbit| times round the orbit of e.
    sums, sizes = [0] * len(leaders), [0] * len(leaders)
    for o, c in zip(orbit, const):
        sums[o] += c
        sizes[o] += 1
    trace = [sums[o] * (k // sizes[o]) % p for o in orbit]
    factors = [g]
    for c in leaders[2:]:  # leaders[:2] is [0, 1], and g vanishes at z^1
        if gcd(c, m) == 1:
            sequence = [trace[c * t % m] for t in range(2 * k)]
            factors.append(UniPoly._exact(field, _berlekamp_massey(sequence, p)))
    return factors


def _berlekamp_massey(s: list, p: int) -> list:
    """The monic minimal polynomial, ascending, of a sequence s over F_p
    that satisfies a linear recurrence of order at most len(s) / 2 (Massey,
    IEEE Trans. Inf. Theory 15, 1969)."""
    conn, prev, length, shift, last = [1], [1], 0, 1, 1
    for n in range(len(s)):
        d = sum(map(int.__mul__, conn, s[n::-1])) % p  # conn has degree <= length
        if d:
            new, scale = conn + [0] * (len(prev) + shift - len(conn)), d * pow(last, -1, p)
            for i, b in enumerate(prev, shift):
                new[i] = (new[i] - scale * b) % p
            if 2 * length <= n:
                prev, last, length, shift = conn, d, n + 1 - length, 0
            conn = new
        shift += 1
    return (conn + [0] * length)[length::-1]


def _is_irreducible(g: UniPoly, m: int) -> bool:
    """Rabin's test for a monic g of degree k >= 1 over F_p, p not dividing m:
    True iff g divides x^m - 1 and is irreducible.  g is irreducible iff
    x^(p^k) = x mod g and gcd(x^(p^(k/r)) - x, g) = 1 for every prime r
    dividing k (Rabin, SIAM J. Comput. 9, 1980).  One pass takes x^j mod g
    for j = 1, ..., m, each from the last by a shift and a reduction, and
    keeps x^(p^(k/r) mod m): x^m = 1 mod g proves g | x^m - 1, so then
    x^e = x^(e mod m) mod g.  It takes no polynomial power and no Frobenius
    matrix, and nothing from the split that found g."""
    field, k = g.field, g.degree()
    p, low = field.p, [-c for c in g.coeffs[:k]]  # x^k = low mod g
    if k == 1:  # irreducible by definition: x^j = low[0]^j mod g
        return pow(low[0], m, p) == 1
    exponents = [pow(p, k // r, m) for r in [1] + _prime_divisors(k)]
    power, kept = [1] + [0] * (k - 1), {}  # x^j mod g
    for j in range(m):
        if j in exponents:
            kept[j] = power
        top, power = power[-1], [0] + power[:-1]
        if top:
            power = [(a + top * b) % p for a, b in zip(power, low)]
    # g divides x^m - 1, and x^(p^k) - x
    if power != [1] + [0] * (k - 1) or kept[exponents[0]] != [0, 1] + [0] * (k - 2):
        return False
    for e in exponents[1:]:
        h = kept[e][:]
        h[1] -= 1  # x^(p^(k/r)) - x
        if not gcd_univariate(g, UniPoly._exact(field, h)).is_one():
            return False
    return True


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
    factors of degree k = ord_m(p), each proven irreducible by Rabin's test.

    One factor is split off in F_p[x]/(x^m - 1).  An r whose coefficients
    are constant on the orbits of c -> pc on Z/m has r^p = r, and the orbits
    are as many as the irreducible factors of x^m - 1, the product of the
    Phi_d over d | m (Lidl and Niederreiter, Finite Fields, Thm 2.47).  So
    such r make up the whole Frobenius-fixed algebra, F_p at each factor,
    and a random one is a random residue at each factor of Phi_m, drawn with
    no Frobenius matrix.  Each trial that splits the part left keeps its
    smaller piece, until one factor g is left.  The factors are the minimal
    polynomials of z^c for a root z of g and c prime to m, one per orbit,
    and each is read off g's traces with no further trial (_conjugates)."""
    phi = UniPoly(field, cyclotomic(m).coeffs)
    factors = _split_fixed(phi, m, random.Random(f"{seed}:{m}"))
    for poly in factors:
        if not _is_irreducible(poly, m):
            raise ArithmeticError(
                f"factor {poly} of Phi_{m} mod {field.p} fails Rabin's irreducibility test")
    return tuple(factors)


# ----------------------------------------------------------------------------
# Separability of sigma at prime-power indices.


class SeparabilityCertificate(namedtuple(
        "SeparabilityCertificate", "p m index gcd squarefree telescoping_ok")):
    """gcd(sigma_i, sigma_i') over F_p at the index i = p^m - 2, together
    with the squarefree verdict and the telescoping identity check
    sigma_i * (t - 1) = t^(p^m - 1) - 1."""

    __slots__ = ()


def separability_check(p: int, m: int) -> SeparabilityCertificate:
    field = Field.prime(p)
    if m < 1:
        raise ValueError("separability_check requires m >= 1")
    index = p ** m - 2
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
    reports = [factor_tau(i, field, seed=seed) for i in idx]
    return accumulate_reports(idx, reports)


def missing_prime_power_indices(indices: Sequence[int], p: int) -> bool:
    """True when no index has the form p^m - 2; along such a set the
    distinct-factor count is not guaranteed to grow."""
    # p^e - 2 <= max(indices) needs e <= bit_length + 1; p^e - 2 = 0 is no index.
    top = max(indices, default=0)
    return not set(indices) & {p ** e - 2 for e in range(1, top.bit_length() + 2)} - {0}
