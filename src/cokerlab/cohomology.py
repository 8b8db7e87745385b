"""Inverse-polynomial model of the graded pieces and its certificates.

The degree -d piece of the ambient module is free over k[x,y,s,t] on the
inverse monomials u^-a * v^-b with a, b >= 1 and a + b = d; multiplication
by the defining quadric maps the degree -(d+2) piece to the degree -d
piece, and its matrix in the ordered bases reproduces the tridiagonal
builder exactly.  From the square truncation of that matrix we extract the
bidegree-(d,d) cokernel component, a torsion certificate for the first
generator, and irreducible prime witnesses from the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .arith import Field, Monomial, MultiPoly, exact_divide, tau
from .factor import FactorReport
from .matrices import (
    MembershipCertificate,
    PolyMatrix,
    build_a,
    build_b,
)

_R0_VARIABLES = {"x", "y", "s", "t"}


def multiplier_f(field: Field) -> MultiPoly:
    """The defining quadric s*x^2*v^2 - (t+s)*x*y*u*v + t*y^2*u^2."""
    terms = {
        Monomial.from_dict({"s": 1, "x": 2, "v": 2}): field.one,
        Monomial.from_dict({"t": 1, "x": 1, "y": 1, "u": 1, "v": 1}): field.minus_one,
        Monomial.from_dict({"s": 1, "x": 1, "y": 1, "u": 1, "v": 1}): field.minus_one,
        Monomial.from_dict({"t": 1, "y": 2, "u": 2}): field.one,
    }
    return MultiPoly(field, terms)


@lru_cache(maxsize=None)
def _multiplier_action(field: Field) -> tuple:
    # The quadric split by its (u, v) exponents: [(coefficient in R0, a, b)].
    grouped: dict = {}
    for mono, coeff in multiplier_f(field).items():
        a = mono.exponent("u")
        b = mono.exponent("v")
        rest = Monomial.from_dict({name: e for name, e in mono.exponents.items()
                                   if name not in ("u", "v")})
        part = grouped.setdefault((a, b), {})
        part[rest] = field.add(part.get(rest, field.zero), coeff)
    return tuple((MultiPoly(field, part), a, b) for (a, b), part in sorted(grouped.items()))


@dataclass(frozen=True)
class InverseMonomial:
    """u^-alpha * v^-beta, stored through its positive exponent parts."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("inverse monomial exponents must be >= 1")

    @property
    def degree(self) -> int:
        return -(self.alpha + self.beta)

    def __str__(self) -> str:
        return f"u^-{self.alpha}*v^-{self.beta}"


class InverseElement:
    """Finite combination of inverse monomials with coefficients in k[x,y,s,t]."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        cleaned = {}
        for im, poly in (terms or {}).items():
            if poly.field != field:
                raise ValueError("coefficient over the wrong field")
            if not poly.variables() <= _R0_VARIABLES:
                raise ValueError("coefficients must avoid u and v")
            if not poly.is_zero():
                cleaned[im] = poly
        self.field = field
        self.terms = cleaned

    @classmethod
    def basis_element(cls, field: Field, im: InverseMonomial) -> InverseElement:
        return cls(field, {im: MultiPoly.one(field)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: InverseElement) -> InverseElement:
        acc = dict(self.terms)
        for im, poly in other.terms.items():
            total = acc.get(im)
            acc[im] = poly if total is None else total + poly
        return InverseElement(self.field, acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InverseElement):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({poly})*{im}" for im, poly in sorted(
            self.terms.items(), key=lambda kv: kv[0].alpha)]
        return " + ".join(parts)


def mult_by_f(element: InverseElement) -> InverseElement:
    """Multiply by the defining quadric.

    A quadric term with u-exponent a and v-exponent b sends u^-p * v^-q to
    u^(a-p) * v^(b-q); the product is discarded whenever either exponent
    leaves the strictly negative region.
    """
    field = element.field
    acc: dict = {}
    for im, poly in element.terms.items():
        for coeff, a, b in _multiplier_action(field):
            new_alpha = im.alpha - a
            new_beta = im.beta - b
            if new_alpha < 1 or new_beta < 1:
                continue
            target = InverseMonomial(new_alpha, new_beta)
            contribution = coeff * poly
            total = acc.get(target)
            acc[target] = contribution if total is None else total + contribution
    return InverseElement(field, acc)


def inverse_basis(d: int) -> list:
    """Ordered basis of the degree -d piece: ascending stored u-exponent.

    (On the true negative exponents this is the descending order, matching
    the convention that u^-1*v^-(d-1) comes first.)
    """
    if d < 2:
        raise ValueError("the module vanishes above degree -2")
    return [InverseMonomial(alpha, d - alpha) for alpha in range(1, d)]


def matrix_of_f(d: int, field: Field) -> PolyMatrix:
    """Matrix of multiplication by the quadric from degree -(d+2) to degree -d,
    in the ordered inverse-monomial bases."""
    if d < 2:
        raise ValueError("matrix_of_f requires d >= 2")
    source = inverse_basis(d + 2)
    target = inverse_basis(d)
    position = {im: r for r, im in enumerate(target)}
    zero = MultiPoly.zero(field)
    entries = [[zero] * len(source) for _ in range(len(target))]
    for c, im in enumerate(source):
        image = mult_by_f(InverseElement.basis_element(field, im))
        for im2, poly in image.terms.items():
            entries[position[im2]][c] = poly
    return PolyMatrix(entries)


# ----------------------------------------------------------------------------
# Bigrading.


@dataclass(frozen=True)
class Bidegree:
    total: int
    weight: int

    def as_pair(self) -> tuple:
        return (self.total, self.weight)


def bidegree(mono: Monomial, j: int) -> Bidegree:
    """Bidegree of x^a * y^b * s^* * t^* against basis slot j: (a+b, b+j)."""
    if j < 1:
        raise ValueError("basis index must be >= 1")
    if mono.exponent("u") or mono.exponent("v"):
        raise ValueError("bidegree is defined on monomials in x, y, s, t")
    a = mono.exponent("x")
    b = mono.exponent("y")
    return Bidegree(a + b, b + j)


def poly_bidegree(poly: MultiPoly, j: int) -> Bidegree:
    """Common bidegree of all terms; raises when the terms disagree."""
    if poly.is_zero():
        raise ValueError("the zero polynomial has no bidegree")
    degrees = {bidegree(mono, j) for mono, _ in poly.items()}
    if len(degrees) != 1:
        raise ValueError("polynomial is not bihomogeneous")
    return degrees.pop()


def column_bidegree(matrix: PolyMatrix, col: int) -> Bidegree:
    """Common bidegree of a matrix column, reading entry rows as basis slots."""
    degrees = set()
    for r in range(matrix.rows):
        entry = matrix[r, col]
        if not entry.is_zero():
            degrees.add(poly_bidegree(entry, r + 1))
    if len(degrees) != 1:
        raise ValueError("column is not bihomogeneous")
    return degrees.pop()


# ----------------------------------------------------------------------------
# The (d,d) component.


@dataclass(frozen=True)
class Generator:
    monomial: Monomial
    index: int
    bidegree: Optional[Bidegree]


@dataclass(frozen=True)
class Presentation:
    """Ordered generators together with the relation matrix among them."""

    generators: tuple
    relations: PolyMatrix

    def __post_init__(self) -> None:
        if self.relations.rows != len(self.generators):
            raise ValueError("relation rows must match the generator count")
        marked = {g.bidegree for g in self.generators if g.bidegree is not None}
        if len(marked) > 1:
            raise ValueError("component generators must share one bidegree")


def component_dd(d: int, field: Field) -> Presentation:
    """The bidegree-(d,d) component of the cokernel of the tridiagonal map.

    Generators are x^j * y^(d-j) in slots j = 1..d-1; the relations are the
    middle columns of the rectangular matrix scaled into bidegree (d,d) with
    the x,y content stripped, leaving a square matrix over k[s,t].
    """
    if d < 2:
        raise ValueError("component_dd requires d >= 2")
    a = build_a(d - 1, field)
    generators = tuple(
        Generator(Monomial.from_dict({"x": j, "y": d - j}), j, Bidegree(d, d))
        for j in range(1, d))
    rows = d - 1
    zero = MultiPoly.zero(field)
    relations = [[zero] * (d - 1) for _ in range(rows)]
    for k in range(2, d + 1):
        scale = MultiPoly.term(field, 1,
                               Monomial.from_dict({"x": k - 2, "y": d - k}))
        for r in range(rows):
            scaled = a[r, k - 1] * scale
            if scaled.is_zero():
                continue
            gen_mono = MultiPoly.term(field, 1, generators[r].monomial)
            coefficient = exact_divide(scaled, gen_mono)
            if coefficient is None or not coefficient.variables() <= {"s", "t"}:
                raise ArithmeticError("relation column does not land on the generators")
            relations[r][k - 2] = coefficient
    return Presentation(generators, PolyMatrix(relations))


# ----------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class TorsionWitness:
    """Certifies that the class of e_1 in the square cokernel is nonzero
    torsion: the annihilator times e_1 is hit exactly, while e_1 itself is
    certified outside the image."""

    d: int
    annihilator: MultiPoly
    solution: tuple
    nonmembership: MembershipCertificate

    def __post_init__(self) -> None:
        if self.nonmembership.is_solution:
            raise ValueError("nonmembership certificate must be a NoSolution outcome")


def torsion_witness(d: int, field: Field) -> TorsionWitness:
    """Build and re-verify the torsion certificate for the degree -d piece.

    With n = d - 1 and tau_0 = 1, the solution w = adj(B_n) e_1 is written
    down from the closed form for tridiagonal inverses (R. A. Usmani, Linear
    Algebra Appl. 212/213, 1994): w_i = (-s)^i * tau_(n-1-i).  It is checked
    exactly against B w = tau_n e_1; together with B's zeros below its
    subdiagonal of s, that check proves det B = tau_n by Cramer's rule, so the
    non-membership certificate for e_1 is read off w without an elimination.
    """
    if d < 2:
        raise ValueError("torsion_witness requires d >= 2")
    n = d - 1
    b = build_b(n, field)
    annihilator = tau(n, field)
    s = MultiPoly.variable(field, "s")
    minus_s = -s
    solution = [minus_s ** i * tau(n - 1 - i, field) for i in range(n - 1)]
    solution.append(minus_s ** (n - 1))
    expected = [annihilator] + [MultiPoly.zero(field)] * (n - 1)
    if b.mul_vector(solution) != expected:
        raise ArithmeticError("torsion solution verification failed")
    if (any(not b[r, c].is_zero() for r in range(n) for c in range(r - 1))
            or any(b[r, r - 1] != s for r in range(1, n))):
        raise ArithmeticError("B is not zero below a subdiagonal of s")
    # Deleting the first row and the last column of such a B leaves a
    # triangular matrix with s on its diagonal, so
    # adj(B)[n-1][0] = (-s)^(n-1) = solution[n-1] != 0.
    # Since adj(B) B = det(B) I, applying adj(B) to B w = tau e_1 gives
    # det(B) w = tau adj(B) e_1, whose last component proves det B = tau != 0;
    # hence w = adj(B) e_1, and B with column i replaced by e_1 has
    # determinant solution[i]: these are the Cramer numerators of e_1.
    failed = next((i + 1 for i, numerator in enumerate(solution)
                   if exact_divide(numerator, annihilator) is None), None)
    if failed is None:
        raise ArithmeticError("e_1 unexpectedly lies in the image")
    return TorsionWitness(d=d, annihilator=annihilator, solution=tuple(solution),
                          nonmembership=MembershipCertificate(failed_column=failed))


@dataclass(frozen=True)
class PrimeWitness:
    """An irreducible homogeneous divisor of the determinant, generating a
    minimal prime of the component's support."""

    generator: MultiPoly
    source_d: int
    avoids_s: bool


def prime_witnesses(d: int, report: FactorReport) -> list:
    """Irreducible factors of det(B_(d-1)) = tau_(d-1), as prime witnesses,
    read off the factor report of tau_(d-1)."""
    if d < 2:
        raise ValueError("prime_witnesses requires d >= 2")
    t_poly = report.input
    field = t_poly.field
    if t_poly != tau(d - 1, field):
        raise ValueError("the report does not factor tau_(d-1)")
    s_poly = MultiPoly.variable(field, "s")
    if exact_divide(t_poly, s_poly) is not None:
        raise ArithmeticError("s unexpectedly divides the determinant")
    witnesses = []
    for poly, _ in report.factors:
        if exact_divide(t_poly, poly) is None:
            raise ArithmeticError("witness does not divide the determinant")
        witnesses.append(PrimeWitness(generator=poly, source_d=d,
                                      avoids_s=(poly != s_poly)))
    return witnesses


# ----------------------------------------------------------------------------
# Membership of tau in the irrelevant maximal ideal.


def in_irrelevant_ideal(poly: MultiPoly) -> bool:
    """True when the polynomial lies in <s,t,x,y,u,v>, i.e. has no constant term."""
    return poly.constant_term() == 0


def tau_in_irrelevant_ideal(i: int, field: Field = Field.rationals()) -> bool:
    """Whether tau_i sits inside the irrelevant maximal ideal (always true:
    tau_i is homogeneous of positive degree)."""
    return in_irrelevant_ideal(tau(i, field))
