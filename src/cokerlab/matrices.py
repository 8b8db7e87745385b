"""Matrix builders and exact linear algebra over the polynomial ring.

A PolyMatrix stores only its nonzero entries, so its scans cost one step per
nonzero.  The builders write the tridiagonal A, the square tridiagonal B
(A at x = y = 1 without its first and last columns) and the taller relation
matrix M from one band of entries s, -(t+s), t.  The continuant (three-term)
recurrence on binary forms returns every leading principal minor of a
tridiagonal matrix, and certify_det_b proves det(B_m) = tau_m for every
m <= n independently of it, from the closed form of adj(B_n) e_1, also on
forms.  det() (a memoized cofactor expansion), adjugate columns and
square-system membership are kept as structure-blind oracles.
"""

from __future__ import annotations

from typing import Sequence

from .arith import Field, Form, MultiPoly, UniPoly, _record, exact_divide, tau


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries over a common field.  Only
    nonzero entries are stored: ``nonzeros[i]`` maps column j to entry (i, j)
    for each nonzero entry of row i, and callers never mutate these maps."""

    __slots__ = ("field", "rows", "cols", "nonzeros")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        field = rows[0][0].field
        if any(e.field is not field and e.field != field for row in rows for e in row):
            raise ValueError("matrix entries over mixed fields")
        self._fill(field, width, [dict(enumerate(row)) for row in rows])

    @classmethod
    def from_nonzeros(cls, field: Field, cols: int, rows: Sequence[dict]) -> PolyMatrix:
        """The matrix over ``field`` with ``cols`` columns whose row i is the
        map ``rows[i]`` from column to entry; zero entries are dropped."""
        if not rows or cols < 1:
            raise ValueError("matrix must have positive dimensions")
        m = cls.__new__(cls)
        m._fill(field, cols, rows)
        return m

    def _fill(self, field: Field, cols: int, rows: Sequence[dict]) -> None:
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.nonzeros = tuple({j: e for j, e in row.items() if not e.is_zero()}
                              for row in rows)

    def __getitem__(self, key) -> MultiPoly:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        e = self.nonzeros[i].get(j)
        return MultiPoly.zero(self.field) if e is None else e

    def row(self, i: int) -> list:
        zero = MultiPoly.zero(self.field)
        return [self.nonzeros[i].get(j, zero) for j in range(self.cols)]

    def column(self, j: int) -> list:
        zero = MultiPoly.zero(self.field)
        return [row.get(j, zero) for row in self.nonzeros]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.cols == other.cols and self.nonzeros == other.nonzeros
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.cols, tuple(frozenset(row.items()) for row in self.nonzeros)))

    def mul_vector(self, v: Sequence[MultiPoly]) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        zero = MultiPoly.zero(self.field)
        return [sum((e * v[j] for j, e in row.items()), zero) for row in self.nonzeros]

    def without_rows(self, drop) -> PolyMatrix:
        dropped = set(drop)
        return PolyMatrix.from_nonzeros(
            self.field, self.cols,
            [row for i, row in enumerate(self.nonzeros) if i not in dropped])

    def without_columns(self, drop) -> PolyMatrix:
        dropped = set(drop)
        kept = {j: k for k, j in enumerate(j for j in range(self.cols) if j not in dropped)}
        return PolyMatrix.from_nonzeros(
            self.field, len(kept),
            [{kept[j]: e for j, e in row.items() if j in kept} for row in self.nonzeros])

    def replace_column(self, j: int, v: Sequence[MultiPoly]) -> PolyMatrix:
        if len(v) != self.rows:
            raise ValueError("replacement column has wrong length")
        return PolyMatrix.from_nonzeros(self.field, self.cols,
                                        [{**row, j: v_i} for row, v_i in zip(self.nonzeros, v)])

    def to_strings(self) -> list:
        return [[str(row[j]) if j in row else "0" for j in range(self.cols)]
                for row in self.nonzeros]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(row) + "]" for row in self.to_strings())

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over {self.field.spec})"


# ----------------------------------------------------------------------------
# Builders.


def _band(field: Field) -> tuple:
    # s, -(t+s), t: the band of B and M, and of A at x = y = 1.
    s = MultiPoly.variable(field, "s")
    t = MultiPoly.variable(field, "t")
    return s, -(t + s), t


def build_a(dminus1: int, field: Field) -> PolyMatrix:
    """Tridiagonal (d-1) x (d+1) matrix: row i carries s*x^2, -(t+s)*x*y,
    t*y^2 in columns i, i+1, i+2 (1-based)."""
    x, y = MultiPoly.variable(field, "x"), MultiPoly.variable(field, "y")
    diag = [e * m for e, m in zip(_band(field), (x * x, x * y, y * y))]
    return PolyMatrix.from_nonzeros(field, dminus1 + 2,
                                    [dict(zip(range(i, i + 3), diag)) for i in range(dminus1)])


def build_b(i: int, field: Field) -> PolyMatrix:
    """Square i x i tridiagonal matrix with s below the diagonal, -(t+s) on
    it and t above it: build_a(i) at x = y = 1 without its first and last
    columns."""
    band = _band(field)
    return PolyMatrix.from_nonzeros(field, i, [
        {c: band[c - r + 1] for c in range(max(r - 1, 0), min(r + 2, i))} for r in range(i)])


def build_m(d: int, field: Field) -> PolyMatrix:
    """(d+1) x (d-3) relation matrix: column j carries t, -(t+s), s in rows
    j+1, j+2, j+3 (1-based); its first and last rows are zero."""
    if d <= 4:
        raise ValueError("build_m requires d > 4")
    s, mts, t = _band(field)
    out = [{} for _ in range(d + 1)]
    for j in range(d - 3):
        out[j + 1][j] = t
        out[j + 2][j] = mts
        out[j + 3][j] = s
    return PolyMatrix.from_nonzeros(field, d - 3, out)


# ----------------------------------------------------------------------------
# Determinants.


def det(m: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square matrix by cofactor expansion along the
    first row, memoized on the columns left: the minor on the last k rows is
    expanded once per set of k columns that its rows reach through nonzero
    entries.  A band matrix so costs a few products per row, and only a
    dense matrix costs time exponential in its size."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n, rows, cache = m.rows, m.nonzeros, {}

    def minor(cols: tuple) -> MultiPoly:
        # The determinant of the last len(cols) rows on the columns cols.
        if not cols:
            return MultiPoly.one(m.field)
        hit = cache.get(cols)
        if hit is None:
            hit, row = MultiPoly.zero(m.field), rows[n - len(cols)]
            for pos, c in enumerate(cols):
                if c in row:
                    term = row[c] * minor(cols[:pos] + cols[pos + 1:])
                    hit = hit - term if pos % 2 else hit + term
            cache[cols] = hit
        return hit

    return minor(tuple(range(n)))


def continuant(m: PolyMatrix) -> list:
    """Leading principal minors [D_1, ..., D_n = det m] of a tridiagonal matrix
    of forms in s, t by the continuant recurrence
    D_k = m[k,k] D_(k-1) - m[k,k-1] m[k-1,k] D_(k-2), with D_0 = 1."""
    if not m.is_square:
        raise ValueError("continuant of a non-square matrix")
    n = m.rows
    if any(abs(c - r) > 1 for r, row in enumerate(m.nonzeros) for c in row):
        raise ValueError("continuant of a matrix with entries outside its three "
                         "central diagonals")
    form = Form.from_multipoly
    minors = [Form(UniPoly.one(m.field), 0), form(m[0, 0])]  # D_0, D_1
    for k in range(1, n):
        minors.append(form(m[k, k]) * minors[k]
                      - form(m[k, k - 1]) * form(m[k - 1, k]) * minors[k - 1])
    return minors[1:]


def certify_det_b(b: PolyMatrix) -> list:
    """Prove det(b_m) = tau_m for each leading m x m block b_m of b, m <= n = b.rows,
    and return w = adj(b) e_1.

    w is written down from the closed form for tridiagonal inverses (R. A.
    Usmani, Linear Algebra Appl. 212/213, 1994): w_i = (-s)^i * tau_(n-1-i),
    with tau_0 = 1.  Three exact checks against b's own entries make it a
    proof; ArithmeticError is raised when one fails, or when an entry is
    not a form in s, t.
    """
    if not b.is_square:
        raise ValueError("certify_det_b requires a square matrix")
    field = b.field
    n = b.rows
    s = MultiPoly.variable(field, "s")
    if (any(c < r - 1 for r, row in enumerate(b.nonzeros) for c in row)
            or any(b[r, r - 1] != s for r in range(1, n))):
        raise ArithmeticError("B is not zero below a subdiagonal of s")
    w = [tau(n - 1 - i, field).times_minus_s(i) for i in range(n - 1)]
    w.append(Form(UniPoly.one(field), 0).times_minus_s(n - 1))
    zero = Form(UniPoly.zero(field), 0)
    try:
        bw = [sum((Form.from_multipoly(e) * w[c] for c, e in row.items()), zero)
              for row in b.nonzeros]
    except ValueError as exc:  # a sum of forms raises rather than mix degrees
        raise ArithmeticError(f"an entry of B is not a form in s, t of degree 1: {exc}") from None
    if bw[0] != tau(n, field) or any(not e.is_zero() for e in bw[1:]):
        raise ArithmeticError("B w = tau e_1 does not hold")
    # Deleting row 1 and column j+1 of such a B leaves a block upper
    # triangular matrix: a j x j triangular block with s on its diagonal and
    # the trailing m x m block T_m of B, m = n-1-j.  So adj(B)[j][0] is
    # (-s)^j det T_m, which at j = n-1 is (-s)^(n-1) = w[n-1] != 0.
    # Since adj(B) B = det(B) I, applying adj(B) to B w = tau e_1 gives
    # det(B) w = tau adj(B) e_1, whose last component proves det B = tau != 0;
    # hence w = adj(B) e_1, and B with column i replaced by e_1 has
    # determinant w[i]: these are the Cramer numerators of e_1.  As k[s,t]
    # is a domain, (-s)^j det T_m = w[j] = (-s)^j tau_m gives det T_m = tau_m
    # for every m < n, and when B is tridiagonal with constant diagonals,
    # T_m equals the leading block b_m entry by entry:
    if (any(c > r + 1 for r, row in enumerate(b.nonzeros) for c in row)
            or any(b[r, r] != b[0, 0] or b[r - 1, r] != b[0, 1] for r in range(1, n))):
        raise ArithmeticError("B is not tridiagonal with constant diagonals")
    # The trailing blocks of b_m are then leading blocks of B as well, so
    # adj(b_m)[i][0] = (-s)^i tau_(m-1-i) = w[n-m+i] / (-s)^(n-m): adj(b_m) e_1
    # for each m <= n follows from this same certificate.
    return w


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
        c = det(minor)
        out.append(c if (i + j) % 2 == 0 else -c)
    return out


# ----------------------------------------------------------------------------
# Square-system membership.


class MembershipCertificate(_record("MembershipCertificate", "solution failed_column",
                                    defaults=(None, None))):
    """Outcome of solving B w = v over the polynomial ring.

    Either ``solution`` holds the exact polynomial solution, or
    ``failed_column`` names the first Cramer component (1-based) whose
    exact division by det(B) fails, witnessing non-membership.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MembershipCertificate:
        self = super().__new__(cls, *args, **kwargs)
        if (self.solution is None) == (self.failed_column is None):
            raise ValueError("certificate must carry exactly one outcome")
        return self

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
    d = det(b)
    if d.is_zero():
        raise ValueError("solve_square requires det != 0")
    w = []
    for i in range(b.cols):
        numerator = det(b.replace_column(i, v))
        q = exact_divide(numerator, d)
        if q is None:
            return MembershipCertificate(failed_column=i + 1)
        w.append(q)
    if b.mul_vector(w) != list(v):
        raise ArithmeticError("solution verification failed")
    return MembershipCertificate(solution=tuple(w))
