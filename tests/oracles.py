"""Slow reference implementations that the tests compare fast paths against.

None of them runs on a CLI path.  Run the tests with ``PYTHONPATH=src``; the
tests import this module by name from their own directory.
"""

from cokerlab import factor
from cokerlab.arith import Field, Form, MultiPoly, UniPoly, gcd_univariate

# squarefree_by_gcd's modular pre-test prime; built once, as Field.prime trial-divides.
CHECK_FIELD = Field.prime(1_000_003)


def det_by_permutations(m) -> MultiPoly:
    """Leibniz's formula for a square PolyMatrix: the sum over permutations p
    of sign(p) * m[0, p(0)] * ... * m[n-1, p(n-1)], with nothing memoized, so
    it shares only the ring arithmetic with matrices.det.  The permutations
    are walked row by row, and one is skipped at its first zero entry."""
    n = m.rows
    if m.cols != n:
        raise ValueError("determinant of a non-square matrix")
    rows = [m.row(r) for r in range(n)]
    terms = []

    def extend(r, used, odd, product):
        if r == n:
            terms.append(-product if odd else product)
            return
        for c, entry in enumerate(rows[r]):
            if c not in used and not entry.is_zero():
                # Each column already used to the right of c is one inversion.
                flips = sum(u > c for u in used)
                extend(r + 1, used | {c}, (odd + flips) % 2, product * entry)

    extend(0, frozenset(), 0, MultiPoly.one(m.field))
    return sum(terms, MultiPoly.zero(m.field))


def rabin_by_frobenius_matrix(g: UniPoly) -> bool:
    """Rabin's test for a monic g of degree k >= 1 over F_p: g is irreducible
    iff x^(p^k) = x mod g and gcd(x^(p^(k/r)) - x, g) = 1 for every prime r
    dividing k (Rabin, SIAM J. Comput. 9, 1980).  The Frobenius matrix, rows
    x^(p*j) mod g for j < k, is built here from g's own x^p mod g by UniPoly
    products, so a split never certifies itself."""
    field, k, t = g.field, g.degree(), UniPoly.gen(g.field)
    if k == 1:  # irreducible by definition; the test would only check a^p = a
        return True
    xp, square, e = UniPoly.one(field), t, field.p
    while e:  # x^p mod g, right to left over the bits of p
        if e & 1:
            xp = xp * square % g
        square, e = square * square % g, e >> 1
    rows = [UniPoly.one(field)]
    for _ in range(k - 1):
        rows.append(rows[-1] * xp % g)
    # h^p = sum h_i x^(p*i): its coefficient c is h dotted with column c.
    columns = list(zip(*(row.coeffs + (0,) * (k - len(row.coeffs)) for row in rows)))
    powers = [t]  # x^(p^j) mod g
    for _ in range(k):
        h = powers[-1].coeffs
        powers.append(UniPoly(field, [sum(map(int.__mul__, h, column)) for column in columns]))
    return powers[k] == t and all(gcd_univariate(powers[k // r] - t, g).is_one()
                                  for r in factor._prime_divisors(k))


def check_factor_report(report_input, unit, factors) -> None:
    """FactorReport's check by schoolbook products and a gcd: raises as the
    report does unless unit * prod(factor^mult) reassembles the input and the
    distinct factors are pairwise coprime and squarefree."""
    field = report_input.field
    homogeneous = isinstance(report_input, Form)
    # unit * prod(u^(mult-1)) * distinct multiplies each simple factor once.
    product = UniPoly.constant(field, unit)
    distinct = UniPoly.one(field)
    degree = s_divisible = 0
    for poly, mult in factors:
        if mult < 1:
            raise ValueError("factor multiplicities must be >= 1")
        u = poly.u if homogeneous else poly
        # Monic over F_p; over Q a positive leading coefficient, where a form
        # leads with its highest power of t, the leading coefficient of u.
        if not (u.lc > 0 if field.is_rationals else u.lc == 1):
            raise ValueError(f"factor {poly} is not canonically normalized")
        distinct = distinct * u
        if mult > 1:
            product = product * u ** (mult - 1)
        if homogeneous:
            degree += mult * poly.degree
            s_divisible += u.degree() < poly.degree
    product = product * distinct
    if (Form(product, degree) if homogeneous else product) != report_input:
        raise ArithmeticError("factorization does not reassemble the input")
    if s_divisible > 1 or not squarefree_by_gcd(distinct):
        raise ArithmeticError("factors are not pairwise coprime")


def squarefree_by_gcd(f: UniPoly) -> bool:
    """gcd(f, f') = 1; over F_p, f' = 0 leaves gcd f.  For f in Z[t] with
    lc(f) prime to the check prime p, a square h^2 | f over Q may be taken
    with h primitive in Z[t] (Gauss's lemma), so lc(h) is prime to p and
    (h mod p)^2 divides f mod p with deg(h mod p) >= 1: a gcd of 1 mod p
    proves f squarefree, and any other modular result is settled over Q."""
    if (f.field.is_rationals and all(isinstance(c, int) for c in f.coeffs)
            and f.lc % CHECK_FIELD.p):
        reduced = UniPoly._exact(CHECK_FIELD, list(f.coeffs))
        if gcd_univariate(reduced, reduced.derivative()).is_one():
            return True
    return gcd_univariate(f, f.derivative()).is_one()
