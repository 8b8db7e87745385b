"""Matrix builders and exact linear algebra over the polynomial ring.

The builders produce the tridiagonal family A, its x=y=1 specialization
Abar, the square truncation B, and the taller relation matrix M.  The
determinant engine is fraction-free (Bareiss), with cofactor expansion
retained as an independent small-size oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import Field, Monomial, MultiPoly, exact_divide


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries over a common field."""

    __slots__ = ("field", "rows", "cols", "_entries")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        field = rows[0][0].field
        for row in rows:
            for e in row:
                if e.field != field:
                    raise ValueError("matrix entries over mixed fields")
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self._entries = tuple(rows)

    def __getitem__(self, key) -> MultiPoly:
        i, j = key
        return self._entries[i][j]

    def row(self, i: int) -> tuple:
        return self._entries[i]

    def column(self, j: int) -> list:
        return [row[j] for row in self._entries]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._entries for e in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def mul_vector(self, v: Sequence[MultiPoly]) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        zero = MultiPoly.zero(self.field)
        out = []
        for i in range(self.rows):
            acc = zero
            for k in range(self.cols):
                a = self._entries[i][k]
                if a.is_zero() or v[k].is_zero():
                    continue
                acc = acc + a * v[k]
            out.append(acc)
        return out

    def substitute(self, values) -> PolyMatrix:
        return PolyMatrix([[e.substitute(values) for e in row] for row in self._entries])

    def without_rows(self, drop) -> PolyMatrix:
        dropped = set(drop)
        return PolyMatrix([row for i, row in enumerate(self._entries) if i not in dropped])

    def without_columns(self, drop) -> PolyMatrix:
        dropped = set(drop)
        return PolyMatrix([[e for j, e in enumerate(row) if j not in dropped]
                           for row in self._entries])

    def replace_column(self, j: int, v: Sequence[MultiPoly]) -> PolyMatrix:
        if len(v) != self.rows:
            raise ValueError("replacement column has wrong length")
        return PolyMatrix([[v[i] if k == j else e for k, e in enumerate(row)]
                           for i, row in enumerate(self._entries)])

    def to_strings(self) -> list:
        return [[str(e) for e in row] for row in self._entries]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self._entries)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over {self.field.spec})"


# ----------------------------------------------------------------------------
# Builders.


def _entry_sx2(field: Field) -> MultiPoly:
    return MultiPoly.term(field, 1, Monomial.from_dict({"s": 1, "x": 2}))


def _entry_mxyts(field: Field) -> MultiPoly:
    xy = Monomial.from_dict({"x": 1, "y": 1})
    return MultiPoly(field, {xy * Monomial.variable("t"): field.minus_one,
                             xy * Monomial.variable("s"): field.minus_one})


def _entry_ty2(field: Field) -> MultiPoly:
    return MultiPoly.term(field, 1, Monomial.from_dict({"t": 1, "y": 2}))


def build_a(dminus1: int, field: Field) -> PolyMatrix:
    """Tridiagonal (d-1) x (d+1) matrix: row i carries s*x^2, -(t+s)*x*y,
    t*y^2 in columns i, i+1, i+2 (1-based)."""
    if dminus1 < 1:
        raise ValueError("build_a requires dminus1 >= 1")
    zero = MultiPoly.zero(field)
    diag = [_entry_sx2(field), _entry_mxyts(field), _entry_ty2(field)]
    out = []
    for i in range(dminus1):
        row = [zero] * (dminus1 + 2)
        for k in range(3):
            row[i + k] = diag[k]
        out.append(row)
    return PolyMatrix(out)


def build_abar(dminus1: int, field: Field) -> PolyMatrix:
    """build_a with x and y specialized to 1; entries lie in k[s,t]."""
    return build_a(dminus1, field).substitute({"x": 1, "y": 1})


def build_b(i: int, field: Field) -> PolyMatrix:
    """Square i x i truncation: build_abar(i) minus its first and last columns."""
    if i < 1:
        raise ValueError("build_b requires i >= 1")
    return build_abar(i, field).without_columns([0, i + 1])


def build_m(d: int, field: Field) -> PolyMatrix:
    """(d+1) x (d-3) relation matrix: column j carries t, -(t+s), s in rows
    j+1, j+2, j+3 (1-based); its first and last rows are zero."""
    if d <= 4:
        raise ValueError("build_m requires d > 4")
    zero = MultiPoly.zero(field)
    t = MultiPoly.variable(field, "t")
    s = MultiPoly.variable(field, "s")
    mts = MultiPoly(field, {Monomial.variable("t"): field.minus_one,
                            Monomial.variable("s"): field.minus_one})
    out = [[zero] * (d - 3) for _ in range(d + 1)]
    for j in range(d - 3):
        out[j + 1][j] = t
        out[j + 2][j] = mts
        out[j + 3][j] = s
    return PolyMatrix(out)


# ----------------------------------------------------------------------------
# Determinants.


def det(m: PolyMatrix, method: str = "bareiss") -> MultiPoly:
    """Exact determinant of a square matrix.

    ``bareiss`` is the fraction-free default; ``cofactor`` expands along the
    first row and is kept as an independent oracle for small sizes.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if method == "bareiss":
        return _det_bareiss(m)
    if method == "cofactor":
        return _det_cofactor(m)
    raise ValueError(f"unknown determinant method {method!r}")


def _det_bareiss(m: PolyMatrix) -> MultiPoly:
    field = m.field
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    zero = MultiPoly.zero(field)
    sign = 1
    prev = MultiPoly.one(field)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        row_k = a[k]
        prev_is_one = prev.is_one()
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            aik_zero = aik.is_zero()
            for j in range(k + 1, n):
                aij = row_i[j]
                akj = row_k[j]
                if aik_zero or akj.is_zero():
                    if aij.is_zero():
                        continue
                    num = pivot * aij
                elif aij.is_zero():
                    num = -(aik * akj)
                else:
                    num = pivot * aij - aik * akj
                if prev_is_one:
                    row_i[j] = num
                else:
                    q = exact_divide(num, prev)
                    if q is None:
                        raise ArithmeticError("non-exact division in fraction-free elimination")
                    row_i[j] = q
            row_i[k] = zero
        prev = pivot
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


def _det_cofactor(m: PolyMatrix) -> MultiPoly:
    field = m.field
    n = m.rows
    cache: dict = {}

    def minor_det(r: int, cols: tuple) -> MultiPoly:
        if r == n:
            return MultiPoly.one(field)
        key = cols
        hit = cache.get(key)
        if hit is not None:
            return hit
        acc = MultiPoly.zero(field)
        for pos, c in enumerate(cols):
            entry = m[r, c]
            if entry.is_zero():
                continue
            sub = minor_det(r + 1, cols[:pos] + cols[pos + 1:])
            contrib = entry * sub
            acc = acc + contrib if pos % 2 == 0 else acc - contrib
        cache[key] = acc
        return acc

    return minor_det(0, tuple(range(n)))


def adjugate_column(m: PolyMatrix, j: int) -> list:
    """Column j (0-based) of the adjugate, i.e. adj(m) applied to e_{j+1},
    computed from the row-j cofactors alone."""
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    if n == 1:
        return [MultiPoly.one(m.field)]
    out = []
    for i in range(n):
        minor = m.without_rows([j]).without_columns([i])
        c = _det_bareiss(minor)
        out.append(c if (i + j) % 2 == 0 else -c)
    return out


# ----------------------------------------------------------------------------
# Square-system membership.


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of solving B w = v over the polynomial ring.

    Either ``solution`` holds the exact polynomial solution, or
    ``failed_column`` names the first Cramer component (1-based) whose
    exact division by det(B) fails, witnessing non-membership.
    """

    solution: Optional[tuple] = None
    failed_column: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.solution is None) == (self.failed_column is None):
            raise ValueError("certificate must carry exactly one outcome")

    @property
    def is_solution(self) -> bool:
        return self.solution is not None


def solve_square(b: PolyMatrix, v: Sequence[MultiPoly]) -> MembershipCertificate:
    """Decide whether v lies in the column span of an injective square B.

    The fraction-field solution is adj(B) v / det(B), computed per
    component as a Cramer determinant; v is in the image exactly when every
    component divides out, and any returned solution is re-verified against
    B w = v.
    """
    if not b.is_square:
        raise ValueError("solve_square requires a square matrix")
    if len(v) != b.rows:
        raise ValueError("right-hand side has wrong length")
    d = _det_bareiss(b)
    if d.is_zero():
        raise ValueError("solve_square requires det != 0")
    w = []
    for i in range(b.cols):
        numerator = _det_bareiss(b.replace_column(i, v))
        q = exact_divide(numerator, d)
        if q is None:
            return MembershipCertificate(failed_column=i + 1)
        w.append(q)
    if b.mul_vector(w) != list(v):
        raise ArithmeticError("solution verification failed")
    return MembershipCertificate(solution=tuple(w))
