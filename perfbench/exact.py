"""Exact Gaussian-rational arithmetic for the benchmark's generators and oracle.

Kept apart from `similitude.algebra` on purpose: inputs and answers must not
come from the code path being timed, so the benchmark carries its own small
field, univariate polynomials (coefficient lists, index = degree), matrices
over both, and a reader/writer for the package's text grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction


class GQ:
    """a + b*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, o):
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return GQ(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i"

    __repr__ = __str__


ZERO = GQ(0)
ONE = GQ(1)


def parse_scalar(text: str) -> GQ:
    """Canonical scalar text: '3', '-1/2', '2i', '3/2-1/2i' (sign scopes the real part)."""
    p = parse_poly(text.strip())
    if len(p) > 1:
        raise ValueError(f"not a scalar: {text!r}")
    return p[0] if p else ZERO


# ---------------------------------------------------------------------------
# Univariate polynomials: lists of GQ, index = degree, no trailing zeros


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return trim(out)


def pneg(a: list) -> list:
    return [-c for c in a]


def psub(a: list, b: list) -> list:
    return padd(a, pneg(b))


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return trim(out)


def pscale(a: list, c: GQ) -> list:
    return trim([x * c for x in a])


def peval(a: list, x: GQ) -> GQ:
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pshift(a: list, x: GQ) -> list:
    """Coefficients of p(z + x)."""
    out: list = []
    for c in reversed(a):
        out = padd(pmul(out, [x, ONE]), [c] if c else [])
    return out


def pdivmod(a: list, b: list) -> tuple[list, list]:
    r = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] = r[k + i] - c * bc
    return trim(q), trim(r[: len(b) - 1])


def pgcd(a: list, b: list) -> list:
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pscale(a, a[-1].inverse()) if a else []


def pderiv(a: list) -> list:
    return trim([a[i] * GQ(i) for i in range(1, len(a))])


def valuation(a: list) -> int | None:
    for i, c in enumerate(a):
        if c:
            return i
    return None


def format_poly(p: list, var: str = "z") -> str:
    """The package's canonical text: descending degree, constant term last."""
    pieces = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if not c:
            continue
        factor = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        if not factor:
            body = str(c)
        elif c == ONE:
            body = factor
        elif c == -ONE:
            body = "-" + factor
        else:
            body = f"{c}*{factor}"
        pieces.append(body if not pieces or body.startswith("-") else "+" + body)
    return "".join(pieces) or "0"


def parse_poly(text: str, var: str = "z") -> list:
    """Read the canonical univariate text back into a coefficient list."""
    term = re.compile(
        r"(?P<sign>[+-]?)(?:(?P<re>\d+(?:/\d+)?)"
        r"(?:(?P<isign>[+-])(?P<im>\d+(?:/\d+)?)i\b|(?P<ionly>i)\b)?"
        rf"(?:\*{var}(?:\^(?P<e1>\d+))?(?P<v1>))?|{var}(?:\^(?P<e2>\d+))?(?P<v2>))"
    )
    out: list = []
    pos = 0
    while pos < len(text):
        m = term.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        pos = m.end()
        sign = -1 if m["sign"] == "-" else 1
        if m["re"] is None:
            coeff, degree = GQ(sign), int(m["e2"] or 1)
        else:
            value = Fraction(m["re"]) * sign
            if m["im"] is not None:
                coeff = GQ(value, Fraction(m["im"]) * (-1 if m["isign"] == "-" else 1))
            elif m["ionly"]:
                coeff = GQ(0, value)
            else:
                coeff = GQ(value)
            degree = 0 if m["v1"] is None else int(m["e1"] or 1)
        while len(out) <= degree:
            out.append(ZERO)
        out[degree] = out[degree] + coeff
    return trim(out)


def parse_rf(text: str, var: str = "z") -> tuple[list, list]:
    """'(num)/(den)' or a bare polynomial, as a (numerator, denominator) pair."""
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return parse_poly(num, var), parse_poly(den, var)
    return parse_poly(text, var), [ONE]


# ---------------------------------------------------------------------------
# Matrices over GQ and over GQ[z]


def mat_mul(a, b, mul=lambda x, y: x * y, add=lambda x, y: x + y, zero=ZERO):
    return [
        [_dot(row, [b[k][j] for k in range(len(b))], mul, add, zero) for j in range(len(b[0]))]
        for row in a
    ]


def _dot(u, v, mul, add, zero):
    acc = zero
    for x, y in zip(u, v):
        acc = add(acc, mul(x, y))
    return acc


def pmat_mul(a, b):
    return mat_mul(a, b, pmul, padd, [])


def pmat_eval(m, x: GQ):
    return [[peval(p, x) for p in row] for row in m]


def rank(m) -> int:
    """Rank over Q(i) by plain Gaussian elimination."""
    work = [list(r) for r in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c].inverse()
        for i in range(r + 1, rows):
            if work[i][c]:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == rows:
            break
    return r


def det(m) -> GQ:
    work = [list(r) for r in m]
    n = len(work)
    result = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            result = -result
        result = result * work[c][c]
        inv = work[c][c].inverse()
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def pdet(m) -> list:
    """Determinant of a small polynomial matrix by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total: list = []
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = pmul(m[0][j], pdet(minor))
        total = padd(total, term) if j % 2 == 0 else psub(total, term)
    return total


def sylvester_at(a, b):
    """Constant matrix of Theta -> A Theta - Theta B under column-major vec."""
    n = len(a)
    out = [[ZERO] * (n * n) for _ in range(n * n)]
    for j in range(n):
        for i in range(n):
            row = j * n + i
            for k in range(n):
                out[row][j * n + k] = out[row][j * n + k] + a[i][k]
                out[row][k * n + i] = out[row][k * n + i] - b[k][j]
    return out
