"""Exact arithmetic over the Gaussian rationals Q(i).

Every computation in this package bottoms out here.  The layers are:

  GaussianRational   a + b*i with exact rational a, b (the ground field)
  Poly               sparse multivariate polynomial: exponent tuple -> coefficient
  RationalFunction   quotient of two Poly over the same variable list
  PolyMatrix         dense rectangular matrix, generic over its entries
  FuncMatrix         PolyMatrix whose entry ring is RationalFunction

Rationals are gmpy2.mpq when available (much faster), with a transparent
fallback to fractions.Fraction.  Both keep reduced form with positive
denominator, so equality of GaussianRational is structural.

All values are immutable by convention: no method mutates its receiver, every
operation returns a fresh value, so instances may be shared freely between
threads.

The module also owns the polynomial text grammar used by matrix files and the
CLI:

    coefficient := SIGN? RAT ("+"|"-") RAT "i" | SIGN? RAT "i"?
    RAT         := INT ("/" INT)?
    monomial    := coefficient ("*" VAR ("^" INT)?)* | SIGN? VAR ("^" INT)? ("*" VAR ("^" INT)?)*
    polynomial  := monomial (("+"|"-") monomial)*

Canonical printing emits variables in declared order and terms in descending
graded-lexicographic order with no zero terms; under that ordering a constant
term can only appear last, which keeps the coefficient grammar unambiguous
under greedy parsing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import linalg

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _mpq


def rat(value, denominator=None) -> "_mpq":
    """Coerce to the rational backend; rat(a, b) builds the fraction a/b."""
    if denominator is None:
        return _mpq(value)
    return _mpq(value) / _mpq(denominator)


_R0 = rat(0)
_R1 = rat(1)


class AlgebraError(ValueError):
    """Raised for arity mismatches, unbound variables and malformed input."""


# ---------------------------------------------------------------------------
# Gaussian rationals


class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = rat(re)
        self.im = rat(im)

    # -- ring / field operations -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

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

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- predicates / conversions ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_gaussian_rational(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def format_gaussian_rational(value: GaussianRational) -> str:
    """Canonical string: '0', '3/2', '1i', '-2i', '3/2+1/2i', '1-2i'."""
    re, im = value.re, value.im
    if im == 0:
        return str(re)
    if re == 0:
        return str(im) + "i"
    sign = "+" if im > 0 else "-"
    return str(re) + sign + str(abs(im)) + "i"


class _Scanner:
    """Minimal cursor over a coefficient / polynomial string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take_int(self) -> str | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def take_rat(self) -> str | None:
        save = self.pos
        num = self.take_int()
        if num is None:
            return None
        if self.peek() == "/":
            self.pos += 1
            den = self.take_int()
            if den is None:
                self.pos = save
                return None
            if not int(den):
                raise AlgebraError(f"zero denominator in {self.text!r}")
            return num + "/" + den
        return num

    def take_name(self) -> str | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None


def _scan_coefficient(sc: _Scanner, sign: int) -> GaussianRational | None:
    """Greedy coefficient parse; longest alternative (a+bi) is tried first."""
    save = sc.pos
    first = sc.take_rat()
    if first is None:
        # bare 'i' (tolerated on input; canonical form writes '1i')
        mark = sc.pos
        name = sc.take_name()
        if name == "i":
            return GaussianRational(0, sign)
        sc.pos = mark
        return None
    if sc.peek() in "+-":
        mark = sc.pos
        inner = 1 if sc.take() == "+" else -1
        second = sc.take_rat()
        if second is not None and sc.peek() == "i":
            nxt = sc.pos + 1
            # 'i' must not be the head of a longer identifier
            if nxt >= len(sc.text) or not (sc.text[nxt].isalnum() or sc.text[nxt] == "_"):
                sc.take()
                # the sign scopes the leading RAT only; the inner sign owns the
                # imaginary part (matches the per-component canonical printer)
                return GaussianRational(sign * rat(first), inner * rat(second))
        sc.pos = mark
    if sc.peek() == "i":
        nxt = sc.pos + 1
        if nxt >= len(sc.text) or not (sc.text[nxt].isalnum() or sc.text[nxt] == "_"):
            sc.take()
            return GaussianRational(0, sign * rat(first))
    return GaussianRational(sign * rat(first), 0)


def parse_gaussian_rational(text: str) -> GaussianRational:
    sc = _Scanner(text)
    sign = 1
    if sc.peek() in "+-":
        sign = 1 if sc.take() == "+" else -1
    value = _scan_coefficient(sc, sign)
    if value is None or not sc.done():
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
        result = Poly.constant(self.variables, GR_ONE)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    def degree_in(self, name: str) -> int:
        if name not in self.variables:
            raise AlgebraError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def constant_coefficient(self) -> GaussianRational:
        return self.terms.get((0,) * len(self.variables), GR_ZERO)

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial; error if non-constant."""
        if self.total_degree() > 0:
            raise AlgebraError("polynomial is not constant")
        return self.constant_coefficient()

    # -- calculus-flavoured operations ---------------------------------------

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        if len(point) != len(self.variables):
            raise AlgebraError(
                f"expected {len(self.variables)} coordinates, got {len(point)}"
            )
        vals = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in point]
        total = GR_ZERO
        powers: list[dict[int, GaussianRational]] = [dict() for _ in vals]
        for expo, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = vals[i] ** e
                        cache[e] = p
                    term = term * p
            total = total + term
        return total

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Compose: replace every variable by a bound polynomial.

        All variables must be bound, and all bound polynomials must share one
        variable list (which becomes the result's variable list).
        """
        for name in self.variables:
            if name not in bindings:
                raise AlgebraError(f"unbound variable {name!r}")
        bound = [bindings[name] for name in self.variables]
        if bound:
            target = bound[0].variables
            for b in bound:
                if b.variables != target:
                    raise AlgebraError("bound polynomials use different variable lists")
        else:
            target = ()
        result = Poly.zero(target)
        powers: list[dict[int, Poly]] = [dict() for _ in bound]
        for expo, coeff in self.terms.items():
            term = Poly.constant(target, coeff)
            for i, e in enumerate(expo):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = bound[i] ** e
                        cache[e] = p
                    term = term * p
            result = result + term
        return result

    def map_coefficients(self, fn) -> "Poly":
        return Poly(self.variables, {e: fn(c) for e, c in self.terms.items()})

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
    sc = _Scanner(text)
    result = Poly.zero(vs)
    first = True
    while True:
        if sc.done():
            if first:
                raise AlgebraError("empty polynomial")
            break
        sign = 1
        if first:
            if sc.peek() in "+-":
                sign = 1 if sc.take() == "+" else -1
        else:
            op = sc.take()
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                raise AlgebraError(f"expected '+' or '-' at {sc.pos} in {text!r}")
            if sc.peek() in "+-":
                sign *= 1 if sc.take() == "+" else -1
        first = False
        coeff = _scan_coefficient(sc, sign)
        expo = [0] * len(vs)
        if coeff is None:
            coeff = GaussianRational(sign, 0)
            name = sc.take_name()
            if name is None:
                raise AlgebraError(f"expected coefficient or variable at {sc.pos} in {text!r}")
            _apply_factor(sc, name, expo, vs, text)
        while sc.peek() == "*":
            sc.take()
            name = sc.take_name()
            if name is None:
                raise AlgebraError(f"expected variable after '*' at {sc.pos} in {text!r}")
            _apply_factor(sc, name, expo, vs, text)
        result = result + Poly.monomial(vs, expo, coeff)
    return result


def _apply_factor(sc: _Scanner, name: str, expo: list, vs: tuple, text: str):
    if name not in vs:
        raise AlgebraError(f"unknown variable {name!r} in {text!r}")
    power = 1
    if sc.peek() == "^":
        sc.take()
        n = sc.take_int()
        if n is None:
            raise AlgebraError(f"expected integer exponent at {sc.pos} in {text!r}")
        power = int(n)
    expo[vs.index(name)] += power


# ---------------------------------------------------------------------------
# Univariate coefficient lists [c0, c1, ...] over any field: GaussianRational
# or RationalFunction coefficients.  Zeros are taken from the coefficients, so
# results hold no zero of another type.


def _u_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _u_divmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = []
    inv_lead = b[-1].inverse()
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv_lead
        q.append(c)
        if c:
            for i, bc in enumerate(b):
                if bc:
                    r[k + i] = r[k + i] - c * bc
    q.reverse()
    return _u_trim(q), _u_trim(r[: len(b) - 1])


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
    if not a or not b:
        return []
    zero = a[0] - a[0]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _u_deflate(a: list, root) -> tuple[list, object]:
    """Synthetic division of nonempty a by (t - root): (quotient, a(root))."""
    acc = a[-1]
    q = [acc]
    for c in reversed(a[:-1]):
        acc = acc * root + c
        q.append(acc)
    remainder = q.pop()
    q.reverse()
    return q, remainder


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


class RationalFunction:
    """Quotient of two polynomials over the same variable list.

    Univariate quotients are kept fully reduced (gcd a unit) with a monic
    denominator, so the representation is canonical there.  Multivariate
    quotients are normalized only up to the denominator's leading coefficient;
    equality always falls back to exact cross-multiplication.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly | None = None):
        if denominator is None:
            denominator = Poly.constant(numerator.variables, GR_ONE)
        if numerator.variables != denominator.variables:
            raise AlgebraError("numerator and denominator variable lists differ")
        if not denominator:
            raise AlgebraError("zero denominator")
        num, den = numerator, denominator
        if not num:
            den = Poly.constant(num.variables, GR_ONE)
        elif len(num.variables) == 1:
            g = poly_gcd_univariate(num, den)
            if g.total_degree() > 0:
                num, _ = poly_divmod_univariate(num, g)
                den, _ = poly_divmod_univariate(den, g)
            lead = den.coefficients()[-1]
            if lead != GR_ONE:
                inv = lead.inverse()
                num = num.map_coefficients(lambda c: c * inv)
                den = den.map_coefficients(lambda c: c * inv)
        else:
            lead_expo = max(den.terms, key=_grlex_key)
            lead = den.terms[lead_expo]
            if lead != GR_ONE:
                inv = lead.inverse()
                num = num.map_coefficients(lambda c: c * inv)
                den = den.map_coefficients(lambda c: c * inv)
        self.numerator = num
        self.denominator = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(variables: Sequence[str], value) -> "RationalFunction":
        return RationalFunction(Poly.constant(variables, value))

    @property
    def variables(self) -> tuple:
        return self.numerator.variables

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, (int, GaussianRational)):
            return RationalFunction.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(
            self.numerator * o.denominator + o.numerator * self.denominator,
            self.denominator * o.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(
            self.numerator * o.denominator - o.numerator * self.denominator,
            self.denominator * o.denominator,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        out = object.__new__(RationalFunction)
        out.numerator = -self.numerator
        out.denominator = self.denominator
        return out

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(
            self.numerator * o.numerator, self.denominator * o.denominator
        )

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self.numerator:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction(self.denominator, self.numerator)

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
        return RationalFunction(self.numerator**exponent, self.denominator**exponent)

    # -- predicates -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.numerator)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.numerator * o.denominator == o.numerator * self.denominator

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def is_polynomial(self) -> bool:
        return self.denominator.total_degree() == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise AlgebraError("rational function has a nontrivial denominator")
        c = self.denominator.constant_value().inverse()
        return self.numerator.map_coefficients(lambda x: x * c)

    # -- evaluation ------------------------------------------------------------

    def defined_at(self, point: Sequence[GaussianRational]) -> bool:
        return bool(self.denominator.evaluate(point))

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        d = self.denominator.evaluate(point)
        if not d:
            raise AlgebraError("denominator vanishes at the evaluation point")
        return self.numerator.evaluate(point) / d

    def __str__(self) -> str:
        if self.is_polynomial():
            return format_polynomial(self.as_poly())
        return f"({format_polynomial(self.numerator)})/({format_polynomial(self.denominator)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# Matrices over Poly or RationalFunction


def _matrix(grid: list[list]) -> "PolyMatrix":
    """Wrap a grid in the matrix type of its entries."""
    if isinstance(grid[0][0], RationalFunction):
        return FuncMatrix(grid)
    return PolyMatrix(grid)


class PolyMatrix:
    """Dense rectangular matrix over one variable list.

    The arithmetic is generic over the entries: Poly here, RationalFunction in
    the FuncMatrix subclass, which supplies only its entry ring.  A result has
    the type of its entries, so any product or sum with a FuncMatrix operand
    is a FuncMatrix.
    """

    __slots__ = ("rows", "cols", "entries")
    ring = Poly

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

    @classmethod
    def identity(cls, n: int, variables: Sequence[str]) -> "PolyMatrix":
        one = cls.ring.constant(variables, GR_ONE)
        zero = cls.ring.constant(variables, GR_ZERO)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, variables: Sequence[str]) -> "PolyMatrix":
        zero = cls.ring.constant(variables, GR_ZERO)
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def from_scalars(cls, grid: Sequence[Sequence[GaussianRational]], variables: Sequence[str] = ()) -> "PolyMatrix":
        return cls([[cls.ring.constant(variables, c) for c in row] for row in grid])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return _matrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return _matrix(
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda p: -p)

    def _shape_check(self, other: "PolyMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise AlgebraError("matrix shapes differ")

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise AlgebraError("inner dimensions differ")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for k in range(1, self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return _matrix(out)
        if isinstance(other, (int, GaussianRational, Poly, RationalFunction)):
            return self.map(lambda p: p * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, GaussianRational, Poly, RationalFunction)):
            return self.map(lambda p: other * p)
        return NotImplemented

    def map(self, fn) -> "PolyMatrix":
        return _matrix([[fn(p) for p in row] for row in self.entries])

    def transpose(self) -> "PolyMatrix":
        return _matrix([list(col) for col in zip(*self.entries)])

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product (self tensor other)."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    for l in range(other.cols):
                        row.append(self.entries[i][j] * other.entries[k][l])
                out.append(row)
        return _matrix(out)

    def evaluate(self, point: Sequence[GaussianRational]) -> list[list[GaussianRational]]:
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def to_func(self) -> "FuncMatrix":
        """The same matrix with RationalFunction entries."""
        return FuncMatrix(
            [
                [p if isinstance(p, RationalFunction) else RationalFunction(p) for p in row]
                for row in self.entries
            ]
        )

    def is_zero(self) -> bool:
        return all(not p for row in self.entries for p in row)

    def to_strings(self) -> list[list[str]]:
        return [[str(p) for p in row] for row in self.entries]

    def __repr__(self):
        return f"{type(self).__name__}({self.to_strings()})"


class FuncMatrix(PolyMatrix):
    """Dense rectangular matrix of RationalFunction entries."""

    __slots__ = ()
    ring = RationalFunction

    def defined_at(self, point: Sequence[GaussianRational]) -> bool:
        return all(f.defined_at(point) for row in self.entries for f in row)


def generic_rank(m: PolyMatrix) -> int:
    """Rank of m over the fraction field of the polynomial ring.

    Equals the maximum over all points of the pointwise rank.
    """
    return linalg.rank(m.entries)


__all__ = [
    "AlgebraError",
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "rat",
    "Poly",
    "RationalFunction",
    "PolyMatrix",
    "FuncMatrix",
    "generic_rank",
    "poly_gcd_univariate",
    "poly_divmod_univariate",
    "parse_polynomial",
    "format_polynomial",
    "parse_gaussian_rational",
    "format_gaussian_rational",
]
