"""Exact coefficient arithmetic and polynomial types.

Coefficients live in the rationals or in a prime field F_p.  Multivariate
polynomials are sparse maps from monomials in x, y, u, v, s, t to nonzero
scalars; univariate polynomials are dense coefficient lists and feed the
factorization routines.  All values are immutable after construction and
every operation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Mapping, Optional, Union

Scalar = Union[int, Fraction]

# Most significant variable first; this is the precedence used by the
# graded lexicographic term order of the canonical text form.
VARIABLES = ("t", "s", "y", "x", "v", "u")
_VAR_POS = {name: i for i, name in enumerate(VARIABLES)}
_PRINT_ORDER = ("s", "t", "u", "v", "x", "y")

_PRIME_BOUND = 1 << 31


class FieldMismatchError(ValueError):
    """Operands live over different coefficient fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for q in range(3, isqrt(n) + 1, 2):
        if n % q == 0:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.p >= _PRIME_BOUND:
                raise ValueError(f"prime {self.p} exceeds the supported bound 2^31")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @classmethod
    def rationals(cls) -> Field:
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> Field:
        return cls(p)

    @classmethod
    def from_spec(cls, spec: str) -> Field:
        """Parse a field spec string: ``q`` or ``fp:<p>``."""
        s = spec.strip().lower()
        if s == "q":
            return cls.rationals()
        if s.startswith("fp:"):
            try:
                p = int(s[3:])
            except ValueError:
                raise ValueError(f"bad field spec {spec!r}") from None
            return cls.prime(p)
        raise ValueError(f"bad field spec {spec!r}")

    @property
    def spec(self) -> str:
        return "q" if self.p is None else f"fp:{self.p}"

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def zero(self) -> Scalar:
        return 0

    @property
    def one(self) -> Scalar:
        return 1

    @property
    def minus_one(self) -> Scalar:
        return -1 if self.p is None else self.p - 1

    def coerce(self, value: Union[int, Fraction]) -> Scalar:
        """Bring an int or Fraction into canonical scalar form.

        Over the rationals the canonical form is an int when the value is
        integral (int and Fraction hash and compare consistently, and plain
        int arithmetic avoids per-operation gcd normalization); otherwise a
        Fraction in lowest terms.
        """
        if self.p is None:
            if isinstance(value, int):
                return value
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes modulo p")
            return (value.numerator % self.p) * pow(den, -1, self.p) % self.p
        return value % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            r = 1 / Fraction(a)
            return r.numerator if r.denominator == 1 else r
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if self.p is None:
            if b == 0:
                raise ZeroDivisionError("division by zero")
            r = Fraction(a) / Fraction(b)
            return r.numerator if r.denominator == 1 else r
        return self.mul(a, self.inv(b))

    def pow(self, a: Scalar, e: int) -> Scalar:
        if self.p is None:
            return a ** e
        return pow(a, e, self.p)


def _require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a.spec} vs {b.spec}")


class Monomial:
    """Power product of the six ring variables.

    Exponents are stored in the order of ``VARIABLES``; the empty product
    (all exponents zero) is the monomial 1.  The total degree and hash are
    precomputed, since monomials churn through dictionary-heavy inner loops.
    """

    __slots__ = ("exps", "_degree", "_hash")

    def __init__(self, exps: tuple):
        self.exps = exps
        self._degree = sum(exps)
        self._hash = hash(exps)

    @classmethod
    def one(cls) -> Monomial:
        return _MONOMIAL_ONE

    @classmethod
    def from_dict(cls, exponents: Mapping[str, int]) -> Monomial:
        exps = [0] * len(VARIABLES)
        for name, e in exponents.items():
            if name not in _VAR_POS:
                raise ValueError(f"unknown variable {name!r}")
            if e < 0:
                raise ValueError(f"negative exponent for {name!r}")
            exps[_VAR_POS[name]] = e
        return cls(tuple(exps))

    @classmethod
    def variable(cls, name: str, power: int = 1) -> Monomial:
        return cls.from_dict({name: power})

    @property
    def exponents(self) -> dict:
        """Exponent map with zero entries omitted."""
        return {name: e for name, e in zip(VARIABLES, self.exps) if e}

    def exponent(self, name: str) -> int:
        return self.exps[_VAR_POS[name]]

    def degree(self) -> int:
        return self._degree

    def is_one(self) -> bool:
        return self._degree == 0

    def __mul__(self, other: Monomial) -> Monomial:
        a = self.exps
        b = other.exps
        exps = (a[0] + b[0], a[1] + b[1], a[2] + b[2],
                a[3] + b[3], a[4] + b[4], a[5] + b[5])
        product = object.__new__(Monomial)
        product.exps = exps
        product._degree = self._degree + other._degree
        product._hash = hash(exps)
        return product

    def divides(self, other: Monomial) -> bool:
        a = self.exps
        b = other.exps
        return (a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]
                and a[3] <= b[3] and a[4] <= b[4] and a[5] <= b[5])

    def __truediv__(self, other: Monomial) -> Monomial:
        exps = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(e < 0 for e in exps):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(exps)

    def sort_key(self) -> tuple:
        # Graded lexicographic: total degree first, then the exponent
        # vector in precedence order.
        return (self._degree, self.exps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        for name in _PRINT_ORDER:
            e = self.exps[_VAR_POS[name]]
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({str(self) or '1'})"


_MONOMIAL_ONE = Monomial((0, 0, 0, 0, 0, 0))


class MultiPoly:
    """Sparse exact multivariate polynomial over a fixed coefficient field.

    Terms map monomials to nonzero scalars; two polynomials over the same
    field are equal exactly when their term maps agree.  Instances are
    treated as immutable.
    """

    __slots__ = ("field", "_terms", "_hash")

    def __init__(self, field: Field, terms: Mapping[Monomial, Scalar]):
        cleaned = {}
        for mono, coeff in terms.items():
            c = field.coerce(coeff) if not _is_canonical_scalar(field, coeff) else coeff
            if c != 0:
                cleaned[mono] = c
        self.field = field
        self._terms = cleaned
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> MultiPoly:
        return cls(field, {})

    @classmethod
    def one(cls, field: Field) -> MultiPoly:
        return cls.constant(field, 1)

    @classmethod
    def constant(cls, field: Field, value: Union[int, Fraction]) -> MultiPoly:
        return cls(field, {Monomial.one(): field.coerce(value)})

    @classmethod
    def variable(cls, field: Field, name: str, power: int = 1) -> MultiPoly:
        return cls(field, {Monomial.variable(name, power): field.one})

    @classmethod
    def term(cls, field: Field, coeff: Union[int, Fraction], mono: Monomial) -> MultiPoly:
        return cls(field, {mono: field.coerce(coeff)})

    # -- views ---------------------------------------------------------------

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, self.field.zero)

    def constant_term(self) -> Scalar:
        return self._terms.get(Monomial.one(), self.field.zero)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return len(self._terms) == 1 and self._terms.get(Monomial.one()) == self.field.one

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree() for m in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree() for m in self._terms}
        return len(degrees) <= 1

    def variables(self) -> set:
        used = set()
        for m in self._terms:
            used.update(m.exponents)
        return used

    def leading_term(self) -> tuple:
        """Greatest (monomial, coefficient) in the graded-lex order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=Monomial.sort_key)
        return mono, self._terms[mono]

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: MultiPoly) -> None:
        _require_same_field(self.field, other.field)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._check(other)
        acc = dict(self._terms)
        get = acc.get
        for mono, c in other._terms.items():
            prev = get(mono)
            acc[mono] = c if prev is None else prev + c
        return MultiPoly(self.field, acc)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        self._check(other)
        acc = dict(self._terms)
        get = acc.get
        for mono, c in other._terms.items():
            prev = get(mono)
            acc[mono] = -c if prev is None else prev - c
        return MultiPoly(self.field, acc)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.field, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        acc: dict = {}
        get = acc.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                prev = get(m)
                acc[m] = c1 * c2 if prev is None else prev + c1 * c2
        return MultiPoly(self.field, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: Union[int, Fraction]) -> MultiPoly:
        f = self.field
        c = f.coerce(value)
        if c == 0:
            return MultiPoly.zero(f)
        return MultiPoly(f, {m: f.mul(c0, c) for m, c0 in self._terms.items()})

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.field)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def substitute(self, values: Mapping[str, Union[int, Fraction]]) -> MultiPoly:
        """Specialize some variables to scalar values."""
        f = self.field
        coerced = {name: f.coerce(v) for name, v in values.items()}
        for name in coerced:
            if name not in _VAR_POS:
                raise ValueError(f"unknown variable {name!r}")
        acc = {}
        for mono, c in self._terms.items():
            coeff = c
            exps = list(mono.exps)
            for name, val in coerced.items():
                pos = _VAR_POS[name]
                if exps[pos]:
                    coeff = f.mul(coeff, f.pow(val, exps[pos]))
                    exps[pos] = 0
            rest = Monomial(tuple(exps))
            s = f.add(acc.get(rest, f.zero), coeff)
            if s == 0:
                acc.pop(rest, None)
            else:
                acc[rest] = s
        return MultiPoly(f, acc)

    # -- comparison and display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rational = self.field.is_rationals
        pieces = []
        for mono, coeff in self.sorted_terms():
            if rational and coeff < 0:
                sign, mag = "-", -coeff
            else:
                sign, mag = "+", coeff
            var_part = str(mono)
            if not var_part:
                body = str(mag)
            elif mag == 1:
                body = var_part
            else:
                body = f"{mag}*{var_part}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = [first_body if first_sign == "+" else "-" + first_body]
        for sign, body in pieces[1:]:
            out.append(sign + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self} over {self.field.spec})"


def _is_canonical_scalar(field: Field, value) -> bool:
    if field.p is None:
        if isinstance(value, int):
            return True
        return isinstance(value, Fraction) and value.denominator != 1
    return isinstance(value, int) and 0 <= value < field.p


def exact_divide(a: MultiPoly, b: MultiPoly) -> Optional[MultiPoly]:
    """Quotient a/b in the polynomial ring, or None when b does not divide a.

    Reduction is term-wise against the leading term of b in the graded-lex
    order; any irreducible leading term certifies non-divisibility.
    """
    _require_same_field(a.field, b.field)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f = a.field
    if a.is_zero():
        return MultiPoly.zero(f)
    p = f.p
    lead_mono, lead_coeff = b.leading_term()
    divisor_terms = list(b._terms.items())
    remainder = dict(a._terms)
    quotient = {}
    sort_key = Monomial.sort_key
    while remainder:
        mono = max(remainder, key=sort_key)
        if not lead_mono.divides(mono):
            return None
        q_mono = mono / lead_mono
        q_coeff = f.div(remainder[mono], lead_coeff)
        quotient[q_mono] = q_coeff
        # The remainder dict must stay free of zero coefficients so the
        # leading-term lookup above stays truthful.
        for m2, c2 in divisor_terms:
            m = q_mono * m2
            s = remainder.get(m, 0) - q_coeff * c2
            if p is not None:
                s %= p
            if s == 0:
                remainder.pop(m, None)
            else:
                remainder[m] = s
    return MultiPoly(f, quotient)


# ----------------------------------------------------------------------------
# The tau and sigma families.


def tau(i: int, field: Field) -> MultiPoly:
    """(-1)^i * (t^i + s*t^(i-1) + ... + s^(i-1)*t + s^i), defined for i >= 1."""
    if i < 1:
        raise ValueError("tau(i) requires i >= 1")
    sign = field.one if i % 2 == 0 else field.minus_one
    terms = {}
    for j in range(i + 1):
        mono = Monomial.from_dict({"t": j, "s": i - j})
        terms[mono] = sign
    return MultiPoly(field, terms)


def sigma(i: int, field: Field) -> UniPoly:
    """t^i + t^(i-1) + ... + t + 1, defined for i >= 1."""
    if i < 1:
        raise ValueError("sigma(i) requires i >= 1")
    return UniPoly(field, "t", [1] * (i + 1))


# ----------------------------------------------------------------------------
# Univariate polynomials.


class UniPoly:
    """Dense univariate polynomial; coefficients ascend from the constant."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field: Field, var: str, coeffs):
        if var not in _VAR_POS:
            raise ValueError(f"unknown variable {var!r}")
        cleaned = [field.coerce(c) if not _is_canonical_scalar(field, c) else c
                   for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.field = field
        self.var = var
        self.coeffs = tuple(cleaned)

    @classmethod
    def zero(cls, field: Field, var: str = "t") -> UniPoly:
        return cls(field, var, [])

    @classmethod
    def one(cls, field: Field, var: str = "t") -> UniPoly:
        return cls(field, var, [1])

    @classmethod
    def constant(cls, field: Field, value, var: str = "t") -> UniPoly:
        return cls(field, var, [value])

    @classmethod
    def gen(cls, field: Field, var: str = "t") -> UniPoly:
        return cls(field, var, [0, 1])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def lc(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def _check(self, other: UniPoly) -> None:
        _require_same_field(self.field, other.field)
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _coerce_operand(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(self.field, other, self.var)
        if isinstance(other, UniPoly):
            self._check(other)
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(f, self.var,
                       [f.add(self.coefficient(k), other.coefficient(k)) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> UniPoly:
        f = self.field
        return UniPoly(f, self.var, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(f, self.var)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UniPoly(f, self.var, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> UniPoly:
        f = self.field
        c = f.coerce(value)
        return UniPoly(f, self.var, [f.mul(a, c) for a in self.coeffs])

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.field, self.var)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __divmod__(self, other: UniPoly):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dn = other.degree()
        inv_lead = f.inv(other.lc)
        quot = [f.zero] * max(len(rem) - dn, 0)
        while len(rem) - 1 >= dn and rem:
            k = len(rem) - 1 - dn
            c = f.mul(rem[-1], inv_lead)
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = f.sub(rem[k + j], f.mul(c, b))
            while rem and rem[-1] == 0:
                rem.pop()
        return (UniPoly(f, self.var, quot), UniPoly(f, self.var, rem))

    def __floordiv__(self, other: UniPoly) -> UniPoly:
        return divmod(self, other)[0]

    def __mod__(self, other: UniPoly) -> UniPoly:
        return divmod(self, other)[1]

    def exact_quotient(self, other: UniPoly) -> UniPoly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return q

    def monic(self) -> UniPoly:
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lc))

    def derivative(self) -> UniPoly:
        """Formal derivative, with coefficient arithmetic in the field."""
        f = self.field
        return UniPoly(f, self.var,
                       [f.mul(f.coerce(k), c) for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, value) -> Scalar:
        f = self.field
        x = f.coerce(value)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def to_multipoly(self) -> MultiPoly:
        terms = {}
        for k, c in enumerate(self.coeffs):
            if c != 0:
                terms[Monomial.variable(self.var, k) if k else Monomial.one()] = c
        return MultiPoly(self.field, terms)

    def sort_key(self) -> tuple:
        return (self.degree(), self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.field == other.field and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.var, self.coeffs))

    def __str__(self) -> str:
        return str(self.to_multipoly())

    def __repr__(self) -> str:
        return f"UniPoly({self} over {self.field.spec})"


def gcd_univariate(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) is monic(f)."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def homogenize(f: UniPoly, aux: str = "s") -> MultiPoly:
    """s^deg(f) * f(t/s), spreading each coefficient onto t^j * s^(deg-j)."""
    if f.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    if aux == f.var:
        raise ValueError("auxiliary variable must differ from the main one")
    d = f.degree()
    terms = {}
    for j, c in enumerate(f.coeffs):
        if c != 0:
            terms[Monomial.from_dict({f.var: j, aux: d - j})] = c
    return MultiPoly(f.field, terms)


def dehomogenize(g: MultiPoly, var: str = "t", aux: str = "s") -> UniPoly:
    """Specialize aux to 1; g must be homogeneous in {var, aux} alone."""
    if g.is_zero():
        return UniPoly.zero(g.field, var)
    if not g.variables() <= {var, aux}:
        raise ValueError(f"polynomial involves variables outside {{{var},{aux}}}")
    if not g.is_homogeneous():
        raise ValueError("polynomial is not homogeneous")
    d = g.degree()
    coeffs = [g.field.zero] * (d + 1)
    for mono, c in g.items():
        coeffs[mono.exponent(var)] = c
    return UniPoly(g.field, var, coeffs)


# ----------------------------------------------------------------------------
# Canonical text form.

_NUMBER_RE = re.compile(r"^\d+(/\d+)?$")
_VAR_RE = re.compile(r"^([a-z])(\^(\d+))?$")


def parse_poly(text: str, field: Field) -> MultiPoly:
    """Parse the canonical text form: signed terms, ``^`` powers, ``*`` products."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"malformed polynomial text {text!r}")
    acc: dict = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ValueError(f"malformed term in {text!r}")
        coeff = field.one
        mono = Monomial.one()
        for part in body.split("*"):
            if _NUMBER_RE.match(part):
                coeff = field.mul(coeff, field.coerce(Fraction(part)))
                continue
            m = _VAR_RE.match(part)
            if not m or m.group(1) not in _VAR_POS:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            mono = mono * Monomial.variable(m.group(1), int(m.group(3) or 1))
        if sign < 0:
            coeff = field.neg(coeff)
        total = field.add(acc.get(mono, field.zero), coeff)
        if total == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = total
    return MultiPoly(field, acc)
