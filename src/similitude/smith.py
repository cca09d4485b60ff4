"""Local Smith factorization of univariate polynomial matrices at a point.

local_smith writes M(z) = E(z) * diag((z-xi)^k1, ..., (z-xi)^kr, 0, ...) * F(z)
with E, F invertible at xi and entries in the local ring at xi (rational
functions whose denominators do not vanish there).  The exponents are the
local invariant exponents: their prefix sums equal the (z-xi)-adic valuations
of the gcds of k x k minors, which tests verify independently.  It works at xi
itself, with no change of variables: the order of an entry of the echelon
below, and its unit part, come from repeated synthetic division by (z - xi).

Every question at one point, the Wasow test's exponents and the Jordan
blocks of A(xi) (jordan.segre_at, on the pencil tI - A(xi)) included, runs on
one fraction-free echelon (`_local_echelon`): Bareiss's elimination over
Q(i)[z] of diag(L)·M, where L_i is the lcm of row i's denominators (a unit at
xi), pivoting on an entry of least order at xi.
Its entries are minors, so every division in it is exact, and the Schur
complement S_k of step k is the Bareiss matrix over the previous pivot.
local_smith reads E's column k as S_k[:, k] / (z-xi)^k_k (row i divided by
L_i again) and F's row k as S_k[k, :] / S_k[k][k], both from the one Bareiss
matrix, and puts each entry once in RationalFunction's normal form
(algebra._normal_form).  The holomorphic idempotent P = F^-1 * diag(0, I) * F
has an image that agrees with ker M(z) away from xi and is contained in it at
xi; when all exponents vanish the agreement includes xi and
holomorphic_kernel_section extends any kernel vector at xi to an exact
polynomial-family kernel section.  P * v solves the echelon's first r rows
with the free coordinates of v: back substitution on polynomials x_k times
the leading r x r minor (exact by Cramer's rule), one division per entry at
the end.  Neither it nor kernel_projection, which builds P one column
P * e_c at a time, builds E or F.

invariant_factors is the global Smith form over Q(i)[x] (Euclidean pivoting
to a diagonal, then gcd/lcm pairs for the divisibility chain).  It serves only
pointwise similarity and the commutant jump locus.  Its valuations at xi are
the local exponents (the Smith form localizes), the tests' independent oracle
for the echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from . import linalg
from .algebra import (
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    RationalFunction,
    SimilitudeError,
    _RF_ONE,
    _normal_form,
    _u_bareiss_step,
    _u_deflate,
    _u_divmod,
    _u_exact_quotient,
    _u_gcd_monic,
    _u_mul,
    _u_order,
    _u_sub_mul,
)


class SmithError(SimilitudeError):
    """Raised for precondition violations in this module."""


@dataclass(frozen=True)
class SmithFactorization:
    """Local factorization M = E * D * F at `point` with D = diag((z-point)^k)."""

    point: GaussianRational
    E: PolyMatrix
    exponents: tuple[int, ...]
    F: PolyMatrix
    generic_rank: int

    @property
    def variables(self) -> tuple:
        return self.E.variables

    def diagonal(self) -> PolyMatrix:
        """The middle factor as an explicit polynomial matrix."""
        vs = self.variables
        n = self.E.rows
        m = self.F.rows
        shift = Poly.variable(vs, vs[0]) - Poly.constant(vs, self.point)
        zero = Poly.zero(vs)
        grid = [[zero] * m for _ in range(n)]
        for idx, k in enumerate(self.exponents):
            grid[idx][idx] = shift**k
        return PolyMatrix(grid)

    def reconstruct(self) -> PolyMatrix:
        return self.E * self.diagonal().to_func() * self.F


@dataclass(frozen=True)
class KernelProjection:
    """Holomorphic idempotent whose image is ker M away from `point`."""

    point: GaussianRational
    P: PolyMatrix
    exponents: tuple[int, ...]

    def constant_kernel_dimension(self) -> bool:
        return all(k == 0 for k in self.exponents)


@dataclass(frozen=True)
class _Echelon:
    """Fraction-free local echelon of a univariate matrix at `point`.

    `scaled` is diag(L)·M as coefficient lists, L_i the monic lcm of row i's
    denominators (a unit at the point, [1] for a polynomial row).  `rows` is
    the Bareiss matrix of its elimination with local pivoting, row i holding
    original row row_of[i] in the final column order `col_of`.  For k below
    the rank, row k at positions k.. is the Bareiss row B_k[k, :], and column
    k at rows k.. is B_k[:, k]: later steps swap only whole rows below k and
    never write column k.  B_k = p_{k-1}·S_k for the Schur complement S_k and
    the previous pivot p_{k-1}, so `orders[k]`, the order of the pivot p_k at
    the point, exceeds the order of S_k[k][k] by orders[k-1].
    """

    variables: tuple
    lcms: list
    scaled: list
    rows: list
    row_of: list
    col_of: list
    orders: list

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def det(self) -> list:
        """The last pivot p_{r-1}, the leading r x r minor of the permuted diag(L)·M."""
        r = self.rank
        return self.rows[r - 1][r - 1] if r else _RF_ONE

    def exponents(self) -> tuple[int, ...]:
        """kappa_k = ord S_k[k][k] = orders[k] - orders[k-1], nondecreasing."""
        out = tuple(b - a for a, b in zip([0, *self.orders], self.orders))
        if any(a > b for a, b in zip(out, out[1:])):
            raise AssertionError("local Smith exponents came out decreasing")
        return out


def _deflate_exactly(p: list, point: GaussianRational, times: int) -> list:
    """p / (z - point)^times, where the order of p at the point is at least times."""
    for _ in range(times):
        p, remainder = _u_deflate(p, point)
        if remainder:
            raise AssertionError("fraction-free elimination: a Schur column fell below the pivot's order")
    return p


def _local_echelon(m: PolyMatrix, point: GaussianRational) -> _Echelon:
    """Bareiss's fraction-free elimination of M over Q(i)[z] (Math. Comp. 22, 1968).

    At step k the pivot is an entry of least order at the point (ties broken
    by the smallest (row, col)), moved to (k, k), and `_u_bareiss_step` makes
    every later entry (p_k·B[i][j] - B[i][k]·B[k][j]) / p_{k-1}, an exact division:
    each B_k[i][j] is a minor of the permuted diag(L)·M.  Its order exceeds
    that of the Schur complement entry by the common offset orders[k-1], so
    the pivots are those of elimination over the local ring.
    """
    if len(m.variables) != 1:
        raise SmithError("local_smith requires a univariate matrix")
    lcms, scaled = [], []
    for row in m.entries:
        pairs = [(f._num, f._den) if isinstance(f, RationalFunction) else (f.coefficients(), _RF_ONE) for f in row]
        if any(len(den) > 1 and not _u_deflate(den, point)[1] for _, den in pairs):
            raise SmithError("matrix entries must lie in the local ring at the point")
        lcm = _RF_ONE
        for _, den in pairs:
            if len(den) > 1:
                lcm = _u_mul(lcm, _u_exact_quotient(den, _u_gcd_monic(lcm, den)))
        lcms.append(lcm)
        scaled.append([num if len(lcm) == 1 else _u_mul(num, _u_exact_quotient(lcm, den)) for num, den in pairs])

    n, cols = m.rows, m.cols
    work = [list(row) for row in scaled]
    row_of, col_of = list(range(n)), list(range(cols))
    orders = []
    prev, offset = _RF_ONE, 0  # the previous pivot and its order
    for k in range(min(n, cols)):
        best = None
        for i, j in product(range(k, n), range(k, cols)):
            p = work[i][j]
            if p:
                order = _u_order(p, point)[0]
                if order < offset:
                    raise AssertionError("fraction-free elimination: an entry fell below the previous pivot's order")
                if best is None or order < best[0]:
                    best = (order, i, j)
                    if order == offset:
                        break
        if best is None:
            break
        offset, pi, pj = best
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            row_of[k], row_of[pi] = row_of[pi], row_of[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            col_of[k], col_of[pj] = col_of[pj], col_of[k]
        orders.append(offset)

        _u_bareiss_step(work, k, prev)
        prev = work[k][k]
    return _Echelon(m.variables, lcms, scaled, work, row_of, col_of, orders)


def local_smith(m: PolyMatrix, point: GaussianRational) -> SmithFactorization:
    """Local Smith factorization of a univariate matrix family at `point`.

    Accepts polynomial entries or rational-function entries from the local
    ring at the point (denominators nonvanishing there).  From the echelon of
    `_local_echelon`, E's column k is the Schur column S_k[:, k] / (z-xi)^k_k
    and F's row k is S_k[k, :] / S_k[k][k], both read from the one Bareiss
    matrix (S_k = B_k / p_{k-1}) and each entry normalised once; E's row i is
    divided by the row's denominator lcm L_i again.  Past the rank, E's
    columns and F's rows are unit vectors of the final permutations.
    """
    ech = _local_echelon(m, point)
    vs, r = ech.variables, ech.rank
    n, cols = m.rows, m.cols
    zero = RationalFunction._raw(vs, [], _RF_ONE)
    one = RationalFunction._raw(vs, [GR_ONE], _RF_ONE)
    e = [[zero] * n for _ in range(n)]
    f = [[zero] * cols for _ in range(cols)]
    below = _RF_ONE  # the unit part of the previous pivot
    for k in range(r):
        # E[row][k] = B_k[i][k] / ((z - xi)^orders[k] · below · L_row), row = row_of[i]
        for i in range(k, n):
            p = ech.rows[i][k]
            if p:
                row = ech.row_of[i]
                num = _deflate_exactly(p, point, ech.orders[k])
                e[row][k] = RationalFunction._raw(vs, *_normal_form(num, _u_mul(below, ech.lcms[row])))
        top = ech.rows[k]
        f[k][ech.col_of[k]] = one
        for j in range(k + 1, cols):
            f[k][ech.col_of[j]] = RationalFunction._raw(vs, *_normal_form(top[j], top[k]))
        below = _deflate_exactly(top[k], point, ech.orders[k])
    for k in range(r, n):
        e[ech.row_of[k]][k] = one
    for k in range(r, cols):
        f[k][ech.col_of[k]] = one
    return SmithFactorization(
        point=point,
        E=PolyMatrix(e),
        exponents=ech.exponents(),
        F=PolyMatrix(f),
        generic_rank=r,
    )


def _kernel_numerators(ech: _Echelon, v: list) -> list:
    """N_k = x_k·p_{r-1} for the x with R x = 0 and x_j = v[col_of[j]], j >= r.

    R is the echelon's r x cols upper trapezoid, whose rows span the rows of
    diag(L)·M over Q(i)(z), and p_{r-1} = R[r-1][r-1] is the leading r x r
    minor of the permuted matrix, so each N_k is a polynomial by Cramer's rule
    and N_k = -(p_{r-1}·sum_{j>=r} R[k][j] v_j + sum_{k<j<r} R[k][j] N_j) / R[k][k]
    is an exact division.  x is Π·P·v for the idempotent P = F^-1 diag(0, I) F.
    """
    r, rows = ech.rank, ech.rows
    cols = len(ech.col_of)
    tail = [(j, v[ech.col_of[j]]) for j in range(r, cols) if v[ech.col_of[j]]]
    det = ech.det
    out = [None] * r
    for k in range(r - 1, -1, -1):
        row = rows[k]
        acc = []
        for j, x in tail:
            if row[j]:
                acc = _u_sub_mul(acc, [x], row[j])
        acc = _u_mul(det, acc)
        for j in range(k + 1, r):
            acc = _u_sub_mul(acc, row[j], out[j])
        out[k] = _u_exact_quotient(acc, row[k]) if acc else acc
    return out


def _kernel_vector(ech: _Echelon, v: list) -> list[RationalFunction]:
    """P·v as rational functions, each entry normalised once."""
    vs, r = ech.variables, ech.rank
    h = [None] * len(ech.col_of)
    for k, num in enumerate(_kernel_numerators(ech, v)):
        h[ech.col_of[k]] = RationalFunction._raw(vs, *_normal_form(num, ech.det))
    for k in range(r, len(ech.col_of)):
        x = v[ech.col_of[k]]
        h[ech.col_of[k]] = RationalFunction._raw(vs, [x] if x else [], _RF_ONE)
    return h


def kernel_projection(m: PolyMatrix, point: GaussianRational) -> KernelProjection:
    """The idempotent P = F^-1 diag(0_r, I_{m-r}) F from the local factorization.

    Built one column P·e_c at a time by fraction-free back substitution
    through the echelon (see `_kernel_numerators`); F itself is never built.
    """
    ech = _local_echelon(m, point)
    columns = [
        _kernel_vector(ech, [GR_ONE if i == c else GR_ZERO for i in range(m.cols)])
        for c in range(m.cols)
    ]
    p = [[col[i] for col in columns] for i in range(m.cols)]
    return KernelProjection(point=point, P=PolyMatrix(p), exponents=ech.exponents())


def holomorphic_kernel_section(
    m: PolyMatrix, point: GaussianRational, v: Sequence[GaussianRational]
) -> list[RationalFunction]:
    """Extend v in ker M(point) to h(z) with M h = 0 exactly and h(point) = v.

    h = P·v for the idempotent P of `kernel_projection`, by fraction-free
    back substitution through the echelon, without building P, E or F.  When
    the kernel dimension is constant near the point (all local Smith
    exponents zero) success is guaranteed.  With a dimension jump the
    projection is still applied and the result certified a posteriori: if it
    fails to fix v at the point, the jump error is raised.
    """
    if len(v) != m.cols:
        raise SmithError("vector length does not match matrix columns")
    ech = _local_echelon(m, point)
    # diag(L)·M at the point, by Horner; L(point) != 0, so it has M(point)'s kernel
    for row in ech.scaled:
        acc = GR_ZERO
        for p, x in zip(row, v):
            if p and x:
                acc = acc + _u_deflate(p, point)[1] * x
        if acc:
            raise SmithError("v not in kernel: M(point)·v is nonzero")
    h = _kernel_vector(ech, list(v))
    if any(entry.evaluate([point]) != x for entry, x in zip(h, v)):
        if not any(ech.exponents()):
            raise AssertionError("projection failed to fix a kernel vector despite constant dimension")
        raise SmithError("kernel dimension jumps at the point")
    return h


# ---------------------------------------------------------------------------
# Global Smith form over Q(i)[x]


def invariant_factors(m: PolyMatrix) -> list[Poly]:
    """Monic invariant factors s_1 | s_2 | ... of a univariate polynomial matrix.

    Euclidean reduction over Q(i)[x] to a diagonal, on dense coefficient
    lists: pivot on an entry of least degree (of least coefficient height
    among those), reduce its row and column by polynomial division, and
    re-pivot while a remainder is left.  The diagonal fixes the factors,
    since diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)) (the
    elementary divisors of a diagonal matrix are those of its entries;
    Gantmacher, vol. 1, ch. VI), so one gcd/lcm pass over the pairs i < j
    sorts every prime's exponents into the divisibility chain.
    """
    if len(m.variables) != 1 or any(isinstance(p, RationalFunction) for row in m.entries for p in row):
        raise SmithError("invariant_factors requires a univariate polynomial matrix")
    work = [[p.coefficients() for p in row] for row in m.entries]
    n, cols = m.rows, m.cols
    diagonal: list[list] = []
    for k in range(min(n, cols)):
        if not _move_min_degree_pivot(work, k, n, cols):
            break
        dirty = True
        while dirty:
            dirty = False
            pivot = work[k][k]
            for i in range(k + 1, n):
                if work[i][k]:
                    q, r = _u_divmod(work[i][k], pivot)
                    work[i][k] = r
                    for j in range(k + 1, cols):
                        work[i][j] = _u_sub_mul(work[i][j], q, work[k][j])
                    if r:
                        dirty = True
            for j in range(k + 1, cols):
                if work[k][j]:
                    q, r = _u_divmod(work[k][j], pivot)
                    work[k][j] = r
                    for i in range(k + 1, n):
                        work[i][j] = _u_sub_mul(work[i][j], q, work[i][k])
                    if r:
                        dirty = True
            if dirty:
                _move_min_degree_pivot(work, k, n, cols)
        diagonal.append(work[k][k])
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = _u_gcd_monic(diagonal[i], diagonal[j])
            diagonal[j] = _u_mul(_u_divmod(diagonal[i], g)[0], diagonal[j])
            diagonal[i] = g
    out = []
    for d in diagonal:
        inv = d[-1].inverse()
        out.append(Poly.from_coefficients(m.variables, [c * inv for c in d]))
    return out


def _height(p: list) -> int:
    """Total bit length of the integers (a, b, d) of a coefficient list."""
    return sum(c._a.bit_length() + c._b.bit_length() + c._d.bit_length() for c in p)


def _move_min_degree_pivot(work: list[list[list]], k: int, n: int, cols: int) -> bool:
    """Move an entry of least (degree, height) of the block work[k:][k:] to (k, k).

    Among entries of one degree, short integers tend to keep the remainders
    short.  The invariant factors are unique, so the choice cannot move them.
    False when the block is zero.
    """
    best = None
    for i in range(k, n):
        for j in range(k, cols):
            p = work[i][j]
            if p and (best is None or len(p) <= best[0]):
                key = (len(p), _height(p))
                if best is None or key < best[:2]:
                    best = (*key, i, j)
    if best is None:
        return False
    *_, pi, pj = best
    if pi != k:
        work[k], work[pi] = work[pi], work[k]
    if pj != k:
        for row in work:
            row[k], row[pj] = row[pj], row[k]
    return True


def minor_gcd_valuation(m: PolyMatrix, point: GaussianRational, k: int) -> int | None:
    """(z-point)-adic valuation of the gcd of all k x k minors, or None if all vanish.

    Independent oracle for the local Smith exponents: the sum k_1 + ... + k_j
    must equal this valuation for every j up to the generic rank.
    """
    if len(m.variables) != 1:
        raise SmithError("minor_gcd_valuation requires a univariate matrix")
    if k < 0:
        raise SmithError(f"minor size must be nonnegative, got {k}")
    if k == 0:
        return 0  # the empty minor is 1
    shifted = m.map(lambda p: p.shift_univariate(point))
    best: int | None = None
    rows = range(shifted.rows)
    cols = range(shifted.cols)
    for rsel in combinations(rows, k):
        for csel in combinations(cols, k):
            d = linalg.det([[shifted.entries[i][j] for j in csel] for i in rsel])
            if d:
                v = d.valuation()
                if best is None or v < best:
                    best = v
                if best == 0:
                    return 0
    return best
