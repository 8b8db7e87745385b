"""Slow reference implementations that the tests compare fast paths against.

None of them runs on a CLI path.  Run the tests with ``PYTHONPATH=src``; the
tests import this module by name from their own directory.
"""

from cokerlab import factor
from cokerlab.arith import UniPoly, gcd_univariate


def rabin_by_frobenius_matrix(g: UniPoly) -> bool:
    """Rabin's test for a monic g of degree k >= 1 over F_p: g is irreducible
    iff x^(p^k) = x mod g and gcd(x^(p^(k/r)) - x, g) = 1 for every prime r
    dividing k (Rabin, SIAM J. Comput. 9, 1980).  The Frobenius matrix is
    built here from g's own x^p mod g, so a split never certifies itself."""
    k, t = g.degree(), UniPoly.gen(g.field)
    if k == 1:  # irreducible by definition; the test would only check a^p = a
        return True
    ring = factor._ModRing(g)
    rows, x = ring.frobenius_rows(), ring.elem(t)
    powers = [x]  # x^(p^j) mod g
    for _ in range(k):
        powers.append(ring.dot(0, powers[-1], rows))
    return powers[k] == x and all(gcd_univariate(UniPoly._exact(g.field, powers[k // r]) - t,
                                                 g).is_one() for r in factor._prime_divisors(k))
