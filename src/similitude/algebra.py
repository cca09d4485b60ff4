"""Exact arithmetic over the Gaussian rationals Q(i).

Every computation in this package bottoms out here.  The layers are:

  GaussianRational   (a + b*i)/d with integers a, b, d (the ground field)
  Poly               sparse multivariate polynomial: exponent tuple -> coefficient
  _u_* functions     dense univariate coefficient lists [c0, c1, ...] over a field
  RationalFunction   quotient of two dense coefficient lists in one variable
  PolyMatrix         dense rectangular matrix, generic over its entries

A GaussianRational keeps a canonical form (d > 0, gcd(a, b, d) = 1), so its
equality is structural.  Its parts are read as fractions.Fraction (`rat`,
`.re`, `.im`); the text grammar builds it from integers.

All values are immutable by convention: no method mutates its receiver, every
operation returns a fresh value, so instances may be shared freely between
threads.

The module also owns the polynomial text grammar used by matrix files and the
CLI.  One lexer pass cuts the text into tokens: a run of decimal digits (INT),
a run of identifier characters (NAME) or any other non-space character;
whitespace only separates tokens.  The terms are read from the tokens:

    coefficient := SIGN? RAT ("+"|"-") RAT "i" | SIGN? RAT "i"? | SIGN? "i"
    RAT         := INT ("/" INT)?
    monomial    := coefficient ("*" VAR ("^" INT)?)* | SIGN? VAR ("^" INT)? ("*" VAR ("^" INT)?)*
    polynomial  := monomial (("+"|"-") monomial)*

A VAR is a NAME from the declared variable list; the NAME "i" is the
imaginary unit.  A variable's exponent in one monomial (the sum over its
factors) is at most MAX_EXPONENT, and an INT has at most MAX_DIGITS digits.

Canonical printing emits variables in declared order and terms in descending
graded-lexicographic order with no zero terms; under that ordering a constant
term can only appear last, which keeps the coefficient grammar unambiguous
under greedy parsing.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import linalg


def rat(value, denominator=None) -> Fraction:
    """Coerce to a Fraction, sharing a Fraction (it is immutable); rat(a, b) is a/b."""
    if denominator is None:
        return value if type(value) is Fraction else Fraction(value)
    return Fraction(value) / Fraction(denominator)


# largest exponent of one variable in a parsed monomial: a dense coefficient
# list of a univariate polynomial has degree + 1 entries
MAX_EXPONENT = 256
# longest digit string of one integer in the text grammar; Python refuses to
# convert a string of more than 4300 digits to an int
MAX_DIGITS = 4096


class SimilitudeError(ValueError):
    """Base of the package's error classes: bad input or a precondition that fails."""


class AlgebraError(SimilitudeError):
    """Raised for arity mismatches, unbound variables and malformed input."""


# ---------------------------------------------------------------------------
# Gaussian rationals


class GaussianRational:
    """Exact complex scalar (a + b*i)/d with integers a, b, d.

    The form is canonical: d > 0 and gcd(a, b, d) = 1, and zero is (0, 0, 1).
    Every result is made by `_gr`, which takes one three-way gcd (none when
    d = 1) where a pair of Fractions takes a gcd per part and per operation.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = rat(re), rat(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        # already canonical: a prime of d divides p (say) as often as it divides d,
        # so it divides neither d // p nor re's numerator
        self._a, self._b, self._d = re.numerator * (d // p), im.numerator * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring / field operations -------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        d, e = self._d, o._d
        if d == e:
            return _gr(self._a + o._a, self._b + o._b, d)
        return _gr(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        d, e = self._d, o._d
        if d == e:
            return _gr(self._a - o._a, self._b - o._b, d)
        return _gr(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, e = self._a, self._b, o._a, o._b
        return _gr(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        return _quotient(GR_ONE, self)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return _quotient(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return _quotient(o, self)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent, GR_ONE)

    def sub_mul(self, c: "GaussianRational", y: "GaussianRational") -> "GaussianRational":
        """self - c*y for GaussianRationals c and y, normalised once, by _gr."""
        # c*y = (pr - qt + (pt + qr)i)/(ef), subtracted over a common denominator
        p = c._a
        q = c._b
        r = y._a
        t = y._b
        d = self._d
        e = c._d * y._d
        if d == e:
            return _gr(self._a - p * r + q * t, self._b - p * t - q * r, d)
        return _gr(self._a * e - (p * r - q * t) * d, self._b * e - (p * t + q * r) * d, d * e)

    # -- predicates / conversions ------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # an integer hashes like the int it equals
        if self._b == 0 and self._d == 1:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def to_complex(self) -> complex:
        # int / int is correctly rounded, like float(Fraction)
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            # big may pass Python's limit on printing an int; bit_length *
            # log10(2) is within one below its count of decimal digits
            big = max(abs(self._a), abs(self._b)) // self._d
            digits = int(big.bit_length() * 0.30102999566398120) + 1
            digits -= big < 10 ** (digits - 1)
            raise AlgebraError(f"a number with a {digits}-digit part is beyond float range") from None

    def __str__(self) -> str:
        return format_gaussian_rational(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in canonical form, for integers with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = object.__new__(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _power(base, e: int, one):
    """base ** e for e >= 0 by repeated squaring; `one` is the empty product."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _coerce(other):
    if isinstance(other, GaussianRational):
        return other
    if isinstance(other, int):
        return _gr(other, 0, 1)
    return NotImplemented


def _coordinates(point: Sequence, count: int) -> list[GaussianRational]:
    """The coordinates of an evaluation point, which must number count."""
    if len(point) != count:
        raise AlgebraError(f"expected {count} coordinates, got {len(point)}")
    return [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in point]


def _quotient(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """x / y = (a + b*i) f (c - e*i) / (d (c^2 + e^2)) for x = (a + b*i)/d, y = (c + e*i)/f."""
    c, e = y._a, y._b
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("division by zero Gaussian rational")
    a, b, f = x._a, x._b, y._d
    return _gr(f * (a * c + b * e), f * (b * c - a * e), x._d * n)


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def format_gaussian_rational(value: GaussianRational) -> str:
    """Canonical string: '0', '3/2', '1i', '-2i', '3/2+1/2i', '1-2i'.

    AlgebraError for an integer past Python's limit on converting int to text.
    """
    a, b, d = value._a, value._b, value._d
    try:
        if not b:
            return _format_rational(a, d)
        if not a:
            return _format_rational(b, d) + "i"
        sign = "+" if b > 0 else "-"
        return _format_rational(a, d) + sign + _format_rational(abs(b), d) + "i"
    except ValueError:
        raise AlgebraError(
            f"a result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for printing one"
        ) from None


def _format_rational(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) prints it, for d > 0."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


# One token: a run of decimal digits (INT), a run of identifier characters
# (NAME) or one other non-space character.  \d, \w and \s accept what
# str.isdecimal, str.isalnum (or "_") and str.isspace accept, so a digit such
# as a superscript 2, which int() refuses, lexes as a NAME.
_TOKEN = re.compile(r"\d+|\w+|\S")


class _Tokens:
    """Cursor over the tokens of one text; "" stands past the last token."""

    __slots__ = ("text", "toks", "k")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.k = 0

    def at(self) -> int:
        """Offset of the current token in the text, for an error message."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return starts[self.k] if self.k < len(starts) else len(self.text)

    def sign(self) -> int:
        """An optional "+" or "-", as 1 or -1."""
        tok = self.toks[self.k]
        if tok == "+" or tok == "-":
            self.k += 1
            return 1 if tok == "+" else -1
        return 1

    def integer(self, what: str = "number") -> int | None:
        """The INT at the cursor, or None with nothing taken before another token."""
        tok = self.toks[self.k]
        if not tok.isdecimal():
            return None
        if len(tok) > MAX_DIGITS:
            raise AlgebraError(
                f"{what} of {len(tok)} digits at {self.at()} exceeds {MAX_DIGITS} digits"
            )
        self.k += 1
        return int(tok)

    def rat(self) -> tuple[int, int] | None:
        """RAT as (numerator, denominator) with denominator > 0, or None before a non-INT."""
        num = self.integer()
        if num is None:
            return None
        if self.toks[self.k] != "/":
            return num, 1
        self.k += 1
        den = self.integer()
        if den is None:
            raise AlgebraError(f"expected integer after '/' at {self.at()} in {self.text!r}")
        if not den:
            raise AlgebraError(f"zero denominator in {self.text!r}")
        return num, den

    def coefficient(self, sign: int) -> GaussianRational | None:
        """Greedy coefficient, or None with nothing taken.

        The longest alternative RAT (+|-) RAT i is tried first; when the text
        does not complete it, the cursor goes back to the inner sign.
        """
        first = self.rat()
        if first is None:
            if self.toks[self.k] != "i":
                return None
            # bare 'i' (tolerated on input; canonical form writes '1i')
            self.k += 1
            return GaussianRational(0, sign)
        p, q = first
        inner = self.toks[self.k]
        if inner == "+" or inner == "-":
            mark = self.k
            self.k += 1
            second = self.rat()
            if second is not None and self.toks[self.k] == "i":
                self.k += 1
                # the sign scopes the leading RAT only; the inner sign owns the
                # imaginary part (matches the per-component canonical printer)
                r, s = second
                return _gr(sign * p * s, (r if inner == "+" else -r) * q, q * s)
            self.k = mark
        if self.toks[self.k] == "i":
            self.k += 1
            return _gr(0, sign * p, q)
        return _gr(sign * p, 0, q)

    def factor(self, index: Mapping[str, int], expo: list, expected: str):
        """VAR ("^" INT)?, adding its power to expo at the variable's index."""
        name = self.toks[self.k]
        j = index.get(name)
        if j is None:
            if name[:1].isalnum() or name[:1] == "_":  # an INT or NAME
                raise AlgebraError(f"unknown variable {name!r} in {self.text!r}")
            raise AlgebraError(f"expected {expected} at {self.at()} in {self.text!r}")
        self.k += 1
        power = 1
        if self.toks[self.k] == "^":
            self.k += 1
            power = self.integer("exponent")
            if power is None:
                raise AlgebraError(f"expected integer exponent at {self.at()} in {self.text!r}")
        expo[j] += power
        if expo[j] > MAX_EXPONENT:
            raise AlgebraError(f"exponent of {name} exceeds {MAX_EXPONENT} in {self.text!r}")


def parse_gaussian_rational(text: str) -> GaussianRational:
    tk = _Tokens(text)
    value = tk.coefficient(tk.sign())
    if value is None or tk.toks[tk.k]:
        raise AlgebraError(f"malformed Gaussian rational: {text!r}")
    return value


# ---------------------------------------------------------------------------
# Polynomials


class Poly:
    """Multivariate polynomial over GaussianRational.

    terms maps exponent tuples (one entry per variable, in declared order) to
    nonzero coefficients.  The zero polynomial has an empty term map.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, GaussianRational]):
        vs = tuple(variables)
        clean = {}
        width = len(vs)
        for expo, coeff in terms.items():
            if len(expo) != width:
                raise AlgebraError("exponent vector length does not match variables")
            if coeff:
                clean[tuple(expo)] = coeff
        self.variables = vs
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "Poly":
        return Poly(variables, {})

    @staticmethod
    def constant(variables: Sequence[str], value) -> "Poly":
        c = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return Poly(variables, {(0,) * len(tuple(variables)): c})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "Poly":
        vs = tuple(variables)
        if name not in vs:
            raise AlgebraError(f"unknown variable {name!r}")
        expo = tuple(1 if v == name else 0 for v in vs)
        return Poly(vs, {expo: GR_ONE})

    @staticmethod
    def monomial(variables: Sequence[str], expo: Sequence[int], coeff) -> "Poly":
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return Poly(variables, {tuple(expo): c})

    @staticmethod
    def parse(text: str, variables: Sequence[str]) -> "Poly":
        return parse_polynomial(text, variables)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.variables != other.variables:
            raise AlgebraError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, GaussianRational)):
            return Poly.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        self._check(o)
        out = dict(self.terms)
        for expo, coeff in o.terms.items():
            acc = out.get(expo)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[expo] = acc
            else:
                out.pop(expo, None)
        return self._raw(self.variables, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __neg__(self):
        return self._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        self._check(o)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in o.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = out.get(expo)
                acc = c if acc is None else acc + c
                if acc:
                    out[expo] = acc
                else:
                    out.pop(expo, None)
        return self._raw(self.variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient by leading-term reduction in grlex order; AlgebraError if inexact."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        self._check(o)
        if not o.terms:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(o.terms, key=_grlex_key)
        inv = o.terms[lead].inverse()
        rem, quot = self, {}
        while rem.terms:
            top = max(rem.terms, key=_grlex_key)
            shift = tuple(x - y for x, y in zip(top, lead))
            if any(e < 0 for e in shift):
                raise AlgebraError("polynomial division is not exact")
            c = quot[shift] = rem.terms[top] * inv
            rem = rem + o * self._raw(self.variables, {shift: -c})
        return self._raw(self.variables, quot)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise AlgebraError("negative power of a polynomial")
        return _power(self, exponent, Poly.constant(self.variables, GR_ONE))

    def sub_mul(self, c, y) -> "Poly":
        """self - c*y."""
        return self - c * y

    @classmethod
    def _raw(cls, variables, terms) -> "Poly":
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.variables == o.variables and self.terms == o.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial; error if non-constant."""
        if self.total_degree() > 0:
            raise AlgebraError("polynomial is not constant")
        return self.terms.get((0,) * len(self.variables), GR_ZERO)

    # -- calculus-flavoured operations ---------------------------------------

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        return self._compose(_coordinates(point, len(self.variables)), GR_ZERO)

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Compose: replace every variable by a bound polynomial.

        All variables must be bound, and all bound polynomials must share one
        variable list (which becomes the result's variable list).
        """
        for name in self.variables:
            if name not in bindings:
                raise AlgebraError(f"unbound variable {name!r}")
        bound = [bindings[name] for name in self.variables]
        target = bound[0].variables if bound else ()
        if any(b.variables != target for b in bound):
            raise AlgebraError("bound polynomials use different variable lists")
        return self._compose(bound, Poly.zero(target))

    def _compose(self, values: list, zero):
        """The sum over the terms of coeff * prod values[i] ** e, each power computed once.

        The values are scalars (evaluate) or polynomials (substitute); a
        scalar times a polynomial, or a polynomial plus a scalar, is a
        polynomial, so a coefficient needs no lift into the values' ring.
        """
        total = zero
        powers: list[dict] = [dict() for _ in values]
        for expo, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = cache[e] = values[i] ** e
                    term = term * p
            total = total + term
        return total

    def with_variables(self, variables: Sequence[str]) -> "Poly":
        """Re-express over a superset variable list (order preserved per name)."""
        vs = tuple(variables)
        index = {name: vs.index(name) for name in self.variables}
        out = {}
        for expo, coeff in self.terms.items():
            ne = [0] * len(vs)
            for name, e in zip(self.variables, expo):
                ne[index[name]] = e
            out[tuple(ne)] = coeff
        return Poly(vs, out)

    # -- univariate helpers ---------------------------------------------------

    def coefficients(self) -> list[GaussianRational]:
        """Dense coefficient list [c0, c1, ...] of a univariate polynomial."""
        if len(self.variables) != 1:
            raise AlgebraError("coefficients() requires a univariate polynomial")
        if not self.terms:
            return []
        deg = max(e[0] for e in self.terms)
        out = [GR_ZERO] * (deg + 1)
        for expo, coeff in self.terms.items():
            out[expo[0]] = coeff
        return out

    @staticmethod
    def from_coefficients(variables: Sequence[str], coeffs: Sequence[GaussianRational]) -> "Poly":
        vs = tuple(variables)
        if len(vs) != 1:
            raise AlgebraError("from_coefficients requires one variable")
        return Poly(vs, {(i,): c for i, c in enumerate(coeffs) if c})

    def valuation(self) -> int:
        """Order of vanishing at the origin (min total degree); zero poly gives a large sentinel."""
        if not self.terms:
            return 1 << 30
        return min(sum(e) for e in self.terms)

    def shift_univariate(self, offset: GaussianRational) -> "Poly":
        """p(z) -> p(z + offset) for univariate p."""
        if len(self.variables) != 1:
            raise AlgebraError("shift_univariate requires a univariate polynomial")
        z = Poly.variable(self.variables, self.variables[0])
        return self.substitute({self.variables[0]: z + Poly.constant(self.variables, offset)})

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Poly({format_polynomial(self)!r}, variables={self.variables})"


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


def format_polynomial(p: Poly) -> str:
    """Canonical text: descending graded-lex terms, no zero terms, no spaces."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for expo in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[expo]
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.variables, expo)
            if e
        ]
        if not factors:
            body = format_gaussian_rational(coeff)
        elif coeff == GR_ONE:
            body = "*".join(factors)
        elif coeff == -GR_ONE:
            body = "-" + "*".join(factors)
        else:
            body = format_gaussian_rational(coeff) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body)
        elif body.startswith("-"):
            pieces.append("-" + body[1:])
        else:
            pieces.append("+" + body)
    return "".join(pieces)


def parse_polynomial(text: str, variables: Sequence[str]) -> Poly:
    """Parse the polynomial grammar over a declared variable list.

    Each name must be an identifier other than `i` (the imaginary unit) and
    appear once, or the grammar could not read it back.
    """
    vs = tuple(variables)
    for name in vs:
        if not name.isidentifier() or name == "i":
            raise AlgebraError(f"variable {name!r} must be an identifier other than 'i'")
    if len(set(vs)) != len(vs):
        raise AlgebraError(f"variables {list(vs)} repeat a name")
    tk = _Tokens(text)
    toks = tk.toks
    if not toks[0]:
        raise AlgebraError("empty polynomial")
    index = {name: j for j, name in enumerate(vs)}
    terms: dict = {}
    sign = tk.sign()
    while True:
        coeff = tk.coefficient(sign)
        expo = [0] * len(vs)
        if coeff is None:
            coeff = GaussianRational(sign, 0)
            tk.factor(index, expo, "coefficient or variable")
        while toks[tk.k] == "*":
            tk.k += 1
            tk.factor(index, expo, "variable after '*'")
        key = tuple(expo)
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
        op = toks[tk.k]
        if not op:
            return Poly(vs, terms)
        if op != "+" and op != "-":
            raise AlgebraError(f"expected '+' or '-' at {tk.at()} in {text!r}")
        tk.k += 1
        sign = tk.sign() if op == "+" else -tk.sign()


# ---------------------------------------------------------------------------
# Univariate coefficient lists [c0, c1, ...] over any field: GaussianRational
# or RationalFunction coefficients.  Zeros are taken from the coefficients, so
# results hold no zero of another type.  Every update r <- r - c*y is one call
# of the scalars' r.sub_mul(c, y); on GaussianRationals it works on the
# integers (a, b, d) of all three values and normalises the result once, by
# _gr, where a product and then a difference would take two gcds (Knuth,
# TAOCP vol. 2, 4.5.1).  _u_mul is Q(i)-only: it works on the same
# integers, and each output coefficient sums its products over a common
# denominator and is normalised once.  So are the fraction-free (Bareiss)
# step and determinant built on it, which Q(i)[z] matrices share.


def _u_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _u_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _u_trim(out)


def _u_sub_mul(a: list, q: list, b: list) -> list:
    """a - q*b, without forming q*b."""
    if not q or not b:
        return a
    out = list(a)
    if len(out) < len(q) + len(b) - 1:
        out += [b[0] - b[0]] * (len(q) + len(b) - 1 - len(out))
    for i, x in enumerate(q):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j].sub_mul(x, y)
    return _u_trim(out)


def _u_divmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = []
    top = len(b) - 1
    # a monic divisor needs no scaling, and the step's leading term cancels
    # exactly, so only b's lower terms are subtracted
    inv_lead = None if b[top] == 1 else b[top].inverse()
    low = b[:top]
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + top] if inv_lead is None else r[k + top] * inv_lead
        q.append(c)
        if c:
            for i, bc in enumerate(low):
                if bc:
                    r[k + i] = r[k + i].sub_mul(c, bc)
    q.reverse()
    return _u_trim(q), _u_trim(r[:top])


def _u_exact_quotient(a: list, b: list) -> list:
    """a / b for coefficient lists where b divides a."""
    q, r = _u_divmod(a, b)
    if r:
        raise AssertionError("fraction-free elimination: a division left a remainder")
    return q


def _u_gcd_monic(a: list, b: list) -> list:
    a, b = list(a), list(b)
    while b:
        _, r = _u_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _u_derivative(a: list) -> list:
    return [a[i] * i for i in range(1, len(a))]


def _u_squarefree(a: list) -> list:
    """a / gcd(a, a') for nonempty a: the squarefree part, with a's leading coefficient."""
    return _u_divmod(a, _u_gcd_monic(a, _u_derivative(a)))[0]


def _u_mul(a: list, b: list) -> list:
    """a * b for lists of GaussianRational coefficients."""
    if not a or not b:
        return []
    # Q(i): (p + qi)/d * (r + ti)/e = (pr - qt + (pt + qr)i)/(de), summed as integers
    n = len(a) + len(b) - 1
    re, im, den = [0] * n, [0] * n, [1] * n
    ys = [(j, y._a, y._b, y._d) for j, y in enumerate(b) if y._a or y._b]
    for i, x in enumerate(a):
        p, q, d = x._a, x._b, x._d
        if p or q:
            for j, r, t, e in ys:
                k = i + j
                f = d * e
                g = den[k]
                if f == g:
                    re[k] += p * r - q * t
                    im[k] += p * t + q * r
                else:
                    re[k] = re[k] * f + (p * r - q * t) * g
                    im[k] = im[k] * f + (p * t + q * r) * g
                    den[k] = g * f
    return [_gr(x, y, z) for x, y, z in zip(re, im, den)]


def _u_bareiss_step(work: list, k: int, prev: list) -> None:
    """Step k of Bareiss's elimination (Math. Comp. 22, 1968) on rows of Q(i) lists, in place.

    With the pivot p = work[k][k] and prev the pivot of step k - 1 (unused at
    k = 0), each entry below and right of p becomes
    (p·B[i][j] - B[i][k]·B[k][j]) / prev, a minor of the input, so the
    division is exact; the entries B[i][k] under p are left in place.
    """
    top = work[k]
    pivot = top[k]
    for row in work[k + 1 :]:
        c = row[k]
        for j in range(k + 1, len(top)):
            x = _u_mul(pivot, row[j])
            if c:
                x = _u_sub_mul(x, c, top[j])
            row[j] = _u_exact_quotient(x, prev) if k and x else x


def _u_det(m: list) -> list:
    """Determinant of a square matrix of Q(i) coefficient lists, by Bareiss steps.

    Step k pivots on the first nonzero entry of column k from row k down; a
    row swap flips the sign, and a column with no pivot makes it zero.
    """
    work = [list(row) for row in m]
    prev, sign = [GR_ONE], 1
    for k in range(len(work)):
        i = next((i for i in range(k, len(work)) if work[i][k]), None)
        if i is None:
            return []
        if i != k:
            work[k], work[i] = work[i], work[k]
            sign = -sign
        _u_bareiss_step(work, k, prev)
        prev = work[k][k]
    return prev if sign > 0 else [-c for c in prev]


def _u_deflate(a: list, root) -> tuple[list, object]:
    """Synthetic division of nonempty a by (t - root): (quotient, a(root))."""
    minus_root = -root
    acc = a[-1]
    q = [acc]
    for c in reversed(a[:-1]):
        acc = c.sub_mul(minus_root, acc)
        q.append(acc)
    remainder = q.pop()
    q.reverse()
    return q, remainder


def _u_order(a: list, root) -> tuple[int, list]:
    """Order k of nonempty a at root, and the coefficients of a / (t - root)^k."""
    k = 0
    while True:
        quotient, remainder = _u_deflate(a, root)
        if remainder:
            return k, a
        a = quotient
        k += 1


# a prime p = 1 (mod 4) and a square root s of -1 modulo p: i -> s maps Z[i]
# onto F_p, with kernel the prime (p, i - s) of Z[i] above p
_P = 2305843009213693921
_S = 583529827753931384


def _u_mod_p(a: list) -> list | None:
    """a's image in F_p[t], (x + y*i)/d -> (x + y*s)/d, trimmed; None if p divides a denominator."""
    out = []
    for c in a:
        d = c._d
        if d == 1:
            out.append((c._a + c._b * _S) % _P)
        elif d % _P:
            out.append((c._a + c._b * _S) * pow(d, -1, _P) % _P)
        else:
            return None
    while out and not out[-1]:
        out.pop()
    return out


def _fp_gcd(a: list, b: list) -> list:
    """A gcd in F_p[t] of trimmed lists of residues, up to a unit."""
    while b:
        a = list(a)
        top = len(b) - 1
        inv = pow(b[top], -1, _P)
        for k in range(len(a) - 1 - top, -1, -1):
            c = a[k + top] * inv % _P
            if c:
                for i in range(top):
                    a[k + i] = (a[k + i] - c * b[i]) % _P
        del a[top:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _u_coprime_mod_p(f: list, others: list[list]) -> bool:
    """True only if f and the lists in others have no common factor over Q(i).

    The lists hold GaussianRational coefficients.  True when p divides no
    denominator, f keeps its degree mod p, and the gcd over F_p of the images
    is a nonzero constant; False otherwise, which proves nothing.  Why True is
    sound (Brown, J. ACM 18, 1971): the local ring R of Z[i] at the prime
    above p is a DVR, so a common factor g over Q(i) can be taken primitive
    in R[t], and f = g h with h in R[t] by Gauss's lemma.  The leading
    coefficient of f is a unit of R, hence so is g's: the image of g keeps its
    degree >= 1 and divides every image.
    """
    f = _u_trim(list(f))
    images = [_u_mod_p(a) for a in [f, *others]]
    if not f or any(image is None for image in images) or len(images[0]) != len(f):
        return False
    g = images[0]
    for image in images[1:]:
        if len(g) == 1:
            break
        g = _fp_gcd(g, image)
    return len(g) == 1


def poly_gcd_univariate(a: Poly, b: Poly) -> Poly:
    """Monic gcd of univariate polynomials over Q(i)."""
    if a.variables != b.variables or len(a.variables) != 1:
        raise AlgebraError("poly_gcd_univariate requires matching univariate inputs")
    g = _u_gcd_monic(a.coefficients(), b.coefficients())
    return Poly.from_coefficients(a.variables, g)


def poly_divmod_univariate(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    q, r = _u_divmod(a.coefficients(), b.coefficients())
    return (
        Poly.from_coefficients(a.variables, q),
        Poly.from_coefficients(a.variables, r),
    )


# ---------------------------------------------------------------------------
# Rational functions


# the denominator of every polynomial; a stored list is never mutated
_RF_ONE = [GR_ONE]


def _cancel(num: list, den: list) -> tuple[list, list]:
    """(num/g, den/g) for g the monic gcd of coefficient lists num != [] and den."""
    if len(num) > 1 and len(den) > 1:
        g = _u_gcd_monic(num, den)
        if len(g) > 1:
            return _u_divmod(num, g)[0], _u_divmod(den, g)[0]
    return num, den


def _monic(num: list, den: list) -> tuple[list, list]:
    """(num, den) scaled so den's leading coefficient is 1."""
    lead = den[-1]
    if lead == GR_ONE:
        return num, den
    inv = lead.inverse()
    return [c * inv for c in num], [c * inv for c in den]


def _normal_form(num: list, den: list) -> tuple[list, list]:
    """num/den in RationalFunction's normal form: coprime, den monic, zero as [] over [1]."""
    return _monic(*_cancel(num, den)) if num else ([], _RF_ONE)


class RationalFunction:
    """Quotient of two polynomials in one variable, as dense coefficient lists.

    The form is canonical: numerator and denominator are coprime, the
    denominator is monic, and zero is [] over [1], so equality compares the
    lists.  Arithmetic keeps that form by Henrici's rules (Knuth, TAOCP
    vol. 2, 4.5.1): a sum takes the gcd of the denominators and then of that
    gcd with the new numerator, a product cancels each numerator against the
    other denominator, and an inverse or power needs no gcd at all.
    `numerator` and `denominator` build a Poly on demand; no arithmetic reads
    them.
    """

    __slots__ = ("variables", "_num", "_den")

    def __init__(self, numerator: Poly, denominator: Poly | None = None):
        if denominator is None:
            denominator = Poly.constant(numerator.variables, GR_ONE)
        if len(numerator.variables) != 1 or numerator.variables != denominator.variables:
            raise AlgebraError("numerator and denominator must share one variable")
        if not denominator:
            raise AlgebraError("zero denominator")
        self.variables = numerator.variables
        self._num, self._den = _normal_form(numerator.coefficients(), denominator.coefficients())

    @classmethod
    def _raw(cls, variables: tuple, num: list, den: list) -> "RationalFunction":
        """num/den from trimmed lists already in normal form; zero gets denominator [1]."""
        out = object.__new__(cls)
        out.variables = variables
        out._num = num
        out._den = den if num else _RF_ONE
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(variables: Sequence[str], value) -> "RationalFunction":
        return RationalFunction(Poly.constant(variables, value))

    @property
    def numerator(self) -> Poly:
        return Poly.from_coefficients(self.variables, self._num)

    @property
    def denominator(self) -> Poly:
        return Poly.from_coefficients(self.variables, self._den)

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.variables != self.variables:
                raise AlgebraError(f"variable lists differ: {self.variables} vs {other.variables}")
            return other
        if isinstance(other, (int, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else _gr(other, 0, 1)
            return RationalFunction._raw(self.variables, [c] if c else [], _RF_ONE)
        if isinstance(other, Poly):
            return self._coerce(RationalFunction(other))
        return NotImplemented

    def _add(self, n2: list, d2: list) -> "RationalFunction":
        """self + n2/d2, where n2/d2 is in normal form."""
        vs, n1, d1 = self.variables, self._num, self._den
        if len(d1) == 1:
            if len(d2) == 1:
                return RationalFunction._raw(vs, _u_add(n1, n2), _RF_ONE)
            # d1 = 1: n1 d2 + n2 is coprime to d2 because n2 is
            return RationalFunction._raw(vs, _u_add(_u_mul(n1, d2), n2), d2)
        if len(d2) == 1:
            return RationalFunction._raw(vs, _u_add(n1, _u_mul(n2, d1)), d1)
        g = _u_gcd_monic(d1, d2)
        if len(g) == 1:
            return RationalFunction._raw(vs, _u_add(_u_mul(n1, d2), _u_mul(n2, d1)), _u_mul(d1, d2))
        d1 = _u_divmod(d1, g)[0]
        t = _u_add(_u_mul(n1, _u_divmod(d2, g)[0]), _u_mul(n2, d1))
        if not t:
            return RationalFunction._raw(vs, t, d2)
        # t is coprime to d1/g and d2/g, so only g can share a factor with it
        g2 = _u_gcd_monic(t, g)
        if len(g2) > 1:
            t = _u_divmod(t, g2)[0]
            d2 = _u_divmod(d2, g2)[0]
        return RationalFunction._raw(vs, t, _u_mul(d1, d2))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add(o._num, o._den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add([-c for c in o._num], o._den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return RationalFunction._raw(self.variables, [-c for c in self._num], self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if not n1 or not n2:
            return RationalFunction._raw(self.variables, [], _RF_ONE)
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return RationalFunction._raw(self.variables, _u_mul(n1, n2), _u_mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self._num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction._raw(self.variables, *_monic(self._den, self._num))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # coprime parts stay coprime, and a power of a monic leading term is monic
        num, den = _RF_ONE, _RF_ONE
        for _ in range(exponent):
            num, den = _u_mul(num, self._num), _u_mul(den, self._den)
        return RationalFunction._raw(self.variables, num, den)

    def sub_mul(self, c, y) -> "RationalFunction":
        """self - c*y."""
        return self - c * y

    # -- predicates -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, RationalFunction) and other.variables != self.variables:
            return False
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def is_polynomial(self) -> bool:
        return len(self._den) == 1

    # -- evaluation ------------------------------------------------------------

    def defined_at(self, point: Sequence[GaussianRational]) -> bool:
        return bool(_u_deflate(self._den, *_coordinates(point, 1))[1])

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """num(x)/den(x) by Horner's rule, the remainder of synthetic division."""
        (x,) = _coordinates(point, 1)
        d = _u_deflate(self._den, x)[1]
        if not d:
            raise AlgebraError("denominator vanishes at the evaluation point")
        return _u_deflate(self._num, x)[1] / d if self._num else GR_ZERO

    def __str__(self) -> str:
        if self.is_polynomial():
            return format_polynomial(self.numerator)
        return f"({format_polynomial(self.numerator)})/({format_polynomial(self.denominator)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# Matrices over Poly or RationalFunction


class PolyMatrix:
    """Dense rectangular matrix over one variable list.

    The arithmetic is generic over the entries, Poly or RationalFunction; a
    sum or product with a RationalFunction operand has RationalFunction
    entries.  identity and from_scalars give Poly entries, and to_func
    lifts them.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [list(row) for row in entries]
        if not grid or not grid[0]:
            raise AlgebraError("matrix must have at least one row and column")
        width = len(grid[0])
        vs = grid[0][0].variables
        for row in grid:
            if len(row) != width:
                raise AlgebraError("ragged matrix")
            for p in row:
                if p.variables != vs:
                    raise AlgebraError("matrix entries use different variable lists")
        self.rows = len(grid)
        self.cols = width
        self.entries = tuple(tuple(row) for row in grid)

    @property
    def variables(self) -> tuple:
        return self.entries[0][0].variables

    @staticmethod
    def from_strings(grid: Sequence[Sequence[str]], variables: Sequence[str]) -> "PolyMatrix":
        return PolyMatrix(
            [[parse_polynomial(s, variables) for s in row] for row in grid]
        )

    @staticmethod
    def identity(n: int, variables: Sequence[str]) -> "PolyMatrix":
        one, zero = Poly.constant(variables, GR_ONE), Poly.zero(variables)
        return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def from_scalars(grid: Sequence[Sequence[GaussianRational]], variables: Sequence[str] = ()) -> "PolyMatrix":
        return PolyMatrix([[Poly.constant(variables, c) for c in row] for row in grid])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def _elementwise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise AlgebraError("matrix shapes differ")
        return PolyMatrix([[op(x, y) for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._elementwise(other, operator.add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._elementwise(other, operator.sub)

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda p: -p)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise AlgebraError("inner dimensions differ")
            return PolyMatrix(linalg.mat_mul(self.entries, other.entries))
        if isinstance(other, (int, GaussianRational, Poly, RationalFunction)):
            return self.map(lambda p: p * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational, Poly, RationalFunction)):
            return self.map(lambda p: other * p)
        return NotImplemented

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries])

    def evaluate(self, point: Sequence[GaussianRational]) -> list[list[GaussianRational]]:
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def to_func(self) -> "PolyMatrix":
        """The same matrix with RationalFunction entries."""
        return self.map(lambda p: p if isinstance(p, RationalFunction) else RationalFunction(p))

    def is_zero(self) -> bool:
        return all(not p for row in self.entries for p in row)

    def to_strings(self) -> list[list[str]]:
        return [[str(p) for p in row] for row in self.entries]

    def __repr__(self):
        return f"{type(self).__name__}({self.to_strings()})"


def generic_rank(m: PolyMatrix) -> int:
    """Rank of m over the fraction field of the polynomial ring.

    Equals the maximum over all points of the pointwise rank.
    """
    return linalg.rank(m.entries)


__all__ = [
    "AlgebraError",
    "SimilitudeError",
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "rat",
    "Poly",
    "RationalFunction",
    "PolyMatrix",
    "generic_rank",
    "poly_gcd_univariate",
    "poly_divmod_univariate",
    "parse_polynomial",
    "format_polynomial",
    "parse_gaussian_rational",
    "format_gaussian_rational",
]
