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
from typing import Optional, Sequence

from .arith import Field, Form, Monomial, MultiPoly, UniPoly, tau
from .factor import FactorReport
from .matrices import PolyMatrix, build_b, certify_det_b

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
    entries = [{} for _ in target]
    for c, im in enumerate(source):
        image = mult_by_f(InverseElement.basis_element(field, im))
        for im2, poly in image.terms.items():
            entries[position[im2]][c] = poly
    return PolyMatrix.from_nonzeros(field, len(source), entries)


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
    for r, row in enumerate(matrix.nonzeros):
        if col in row:
            degrees.add(poly_bidegree(row[col], r + 1))
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


def component_dd(a: PolyMatrix) -> Presentation:
    """The bidegree-(d,d) component of the cokernel of the tridiagonal map
    a = A_(d-1), a (d-1) x (d+1) matrix.

    Generators are x^j * y^(d-j) in slots j = 1..d-1; the relations are the
    middle columns of the rectangular matrix scaled into bidegree (d,d) with
    the x,y content stripped, leaving a square matrix over k[s,t].  Relation
    (r, c-1) is a[r][c] * x^(c-r-2) * y^(r-c) whatever d is, so the component
    of a leading block A_(d-1) of A_N is the leading block of A_N's component.
    """
    d = a.rows + 1
    if a.cols != d + 1:
        raise ValueError("component_dd requires A_(d-1), a (d-1) x (d+1) matrix")
    field = a.field
    generators = tuple(
        Generator(Monomial.from_dict({"x": j, "y": d - j}), j, Bidegree(d, d))
        for j in range(1, d))
    # Column k of a (1-based, 2 <= k <= d) becomes relation k - 1, scaled by
    # x^(k-2) * y^(d-k).  Every stored entry of a is read, not only its band,
    # so comparing the relations with B stays a check of a.  Over a generator
    # (x, y only), a term lies in k[s,t] iff its x, y, u, v exponents agree.
    scales = [MultiPoly.term(field, 1, Monomial.from_dict({"x": k - 2, "y": d - k}))
              for k in range(2, d + 1)]
    relations = [{} for _ in generators]
    for r, row in enumerate(a.nonzeros):
        gen = generators[r].monomial
        for c, entry in row.items():
            if not 1 <= c <= d - 1:
                continue
            quotient = {}
            for mono, coeff in (entry * scales[c - 1]).items():
                if mono.exps[2:] != gen.exps[2:]:
                    raise ArithmeticError("relation column does not land on the generators")
                quotient[mono / gen] = coeff
            relations[r][c - 1] = MultiPoly(field, quotient)
    return Presentation(generators, PolyMatrix.from_nonzeros(field, d - 1, relations))


# ----------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class TorsionWitness:
    """Certifies that the class of e_1 in the cokernel of the square matrix
    ``relations`` (B_(d-1)) is nonzero torsion: the annihilator tau_(d-1)
    = det(relations) times e_1 is hit exactly, while e_1 itself is certified
    outside the image."""

    d: int
    annihilator: Form
    solution: tuple
    failed_column: int
    relations: PolyMatrix


def torsion_witness(d_set: Sequence[int], field: Field) -> list:
    """Build and verify the torsion certificate for each degree -d piece.

    With N = max(d_set) - 1, B_N is built once, and certify_det_b proves
    det(B_n) = tau_n for every n <= N and returns w = adj(B_N) e_1.  For
    n = d - 1, its proof also gives adj(B_n) e_1 as w's last n entries over
    (-s)^(N-n).  These are the Cramer numerators of e_1, so the
    non-membership certificate for e_1, the first column whose numerator
    tau_n does not divide, needs no elimination.  Each witness carries the
    leading block B_n of B_N as its ``relations``.
    """
    if not d_set or any(d < 2 for d in d_set):
        raise ValueError("torsion_witness requires a nonempty d_set with every d >= 2")
    top = max(d_set) - 1
    b = build_b(top, field)
    w = certify_det_b(b)
    witnesses = []
    for d in d_set:
        n = d - 1
        annihilator = tau(n, field)
        solution = tuple(e.times_minus_s(n - top) for e in w[top - n:])
        failed = next((i + 1 for i, numerator in enumerate(solution)
                       if not annihilator.divides(numerator)), None)
        if failed is None:
            raise ArithmeticError("e_1 unexpectedly lies in the image")
        relations = b.without_rows(range(n, top)).without_columns(range(n, top))
        witnesses.append(TorsionWitness(d=d, annihilator=annihilator, solution=solution,
                                        failed_column=failed, relations=relations))
    return witnesses


@dataclass(frozen=True)
class PrimeWitness:
    """An irreducible homogeneous divisor of the determinant, generating a
    minimal prime of the component's support."""

    generator: Form
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
    # s divides a form exactly when its coefficient of t^degree vanishes.
    if t_poly.u.degree() < t_poly.degree:
        raise ArithmeticError("s unexpectedly divides the determinant")
    witnesses = []
    for poly, _ in report.factors:
        if not poly.divides(t_poly):
            raise ArithmeticError("witness does not divide the determinant")
        witnesses.append(PrimeWitness(generator=poly, source_d=d,
                                      avoids_s=(poly != Form(UniPoly.one(field), 1))))
    return witnesses


# ----------------------------------------------------------------------------
# Membership of tau in the irrelevant maximal ideal.


def in_irrelevant_ideal(poly: MultiPoly) -> bool:
    """True when the polynomial lies in <s,t,x,y,u,v>, i.e. has no constant term."""
    return poly.constant_term() == 0


def tau_in_irrelevant_ideal(i: int, field: Field = Field.rationals()) -> bool:
    """Whether tau_i sits inside the irrelevant maximal ideal (always true:
    tau_i is homogeneous of positive degree)."""
    return in_irrelevant_ideal(tau(i, field).to_multipoly())
