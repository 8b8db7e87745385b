"""Graded components of the quotient by x^n, y^n over the quartic hypersurface.

For 4 < d < n the degree-d component is presented by the tall relation
matrix; at d = n the first and last generator rows drop, and at d = n + 1
two rows drop at each end and the presentation collapses onto the square
tridiagonal matrix B_(n-2), whose determinant drives the distinct-witness
growth.  collapse() builds and certifies B_(max n - 2) once, proving det B_m =
tau_m for each leading block B_m, and collapses the quotient of the largest n
once: every n's collapsed relations are the leading block B_(n-2) of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import Field, Monomial, MultiPoly
from .cohomology import Generator, Presentation
from .factor import GrowthReport, accumulate_reports, factor_tau
from .matrices import build_b, build_m, certify_det_b

CASE_BELOW = "below"
CASE_AT_N = "at_n"
CASE_AT_N_PLUS_1 = "at_n_plus_1"


def defining_quartic(field: Field) -> MultiPoly:
    """x*y*(x-y)*(s*x-t*y), expanded: s*x^3*y - (t+s)*x^2*y^2 + t*x*y^3."""
    x = MultiPoly.variable(field, "x")
    y = MultiPoly.variable(field, "y")
    s = MultiPoly.variable(field, "s")
    t = MultiPoly.variable(field, "t")
    return x * y * (x - y) * (s * x - t * y)


@dataclass(frozen=True)
class FrobeniusComponent:
    """One graded component, its presentation, and which truncation case
    produced it."""

    n: int
    d: int
    case: str
    presentation: Presentation

    def __post_init__(self) -> None:
        rows = self.presentation.relations.rows
        cols = self.presentation.relations.cols
        expected = {
            CASE_BELOW: (self.d + 1, self.d - 3),
            CASE_AT_N: (self.n - 1, self.n - 3),
            CASE_AT_N_PLUS_1: (self.n - 2, self.n - 2),
        }[self.case]
        if (rows, cols) != expected:
            raise ValueError(f"presentation shape {(rows, cols)} does not "
                             f"match case {self.case}")


def _monomial_generators(d: int, j_range) -> tuple:
    # Generator j is x^(j-1) * y^(d-j+1), labelling row j (1-based) of M_d;
    # the component grading lives on the component itself, so no bidegree
    # is attached.
    return tuple(
        Generator(Monomial.from_dict({"x": j - 1, "y": d - j + 1}), j, None)
        for j in j_range)


def component_t(n: int, d: int, field: Field) -> FrobeniusComponent:
    """Degree-d component of the quotient by x^n, y^n, for 4 < d <= n+1.

    Below n the presentation is the full tall matrix; at d = n the rows of
    y^n and x^n are deleted; at d = n + 1 the four boundary rows are deleted,
    which collapse() checks leaves the square tridiagonal matrix.
    """
    if n <= 5:
        raise ValueError("component_t requires n >= 6")
    if d <= 4 or d > n + 1:
        raise ValueError("component_t requires 4 < d <= n+1")
    m = build_m(d, field)
    if d < n:
        case = CASE_BELOW
        generators = _monomial_generators(d, range(1, d + 2))
        relations = m
    elif d == n:
        case = CASE_AT_N
        generators = _monomial_generators(d, range(2, d + 1))
        relations = m.without_rows([0, d])
    else:
        case = CASE_AT_N_PLUS_1
        generators = _monomial_generators(d, range(3, d))
        relations = m.without_rows([0, 1, d - 1, d])
    return FrobeniusComponent(n=n, d=d, case=case,
                              presentation=Presentation(generators, relations))


def collapse(n_set: Sequence[int], field: Field, seed: Optional[int]) -> list:
    """[(relations, report)] at d = n + 1, for each n in n_set in order.

    B_N, N = max(n_set) - 2, is built once, and certify_det_b proves
    det(B_m) = tau_m for each leading block B_m of it.  ArithmeticError is
    raised unless the largest n's collapsed relations equal B_N, so each n's
    are the block B_(n-2), whose determinant tau_(n-2) factor_tau's
    Rabin-proven splits factor: report.input is that determinant.
    """
    if not n_set or any(n < 6 for n in n_set):
        raise ValueError("collapse requires a nonempty n_set with every n >= 6")
    top = max(n_set) - 2
    b = build_b(top, field)
    certify_det_b(b)
    # Entry (r, j) of M_d is nonzero iff r - j is 1, 2 or 3, whatever d is, so
    # each n's collapsed relations are a leading block of the largest n's.
    if component_t(top + 2, top + 3, field).presentation.relations != b:
        raise ArithmeticError(f"row deletion at n = {top + 2} did not collapse onto B_{top}")
    return [(b.without_rows(range(n - 2, top)).without_columns(range(n - 2, top)),
             factor_tau(n - 2, field, seed)) for n in n_set]


def witness_growth(n_set: Sequence[int], field: Field,
                   seed: Optional[int] = None) -> GrowthReport:
    """Distinct irreducible factors of the collapsed determinants, accumulated
    across the given n values in order, from collapse()'s certified factor
    report for each n."""
    values = list(n_set)
    return accumulate_reports(values, [report for _, report in collapse(values, field, seed)])
