"""Local Smith factorization of univariate polynomial matrices at a point.

local_smith writes M(z) = E(z) * diag((z-xi)^k1, ..., (z-xi)^kr, 0, ...) * F(z)
with E, F invertible at xi and entries in the local ring at xi (rational
functions whose denominators do not vanish there).  The exponents are the
local invariant exponents: their prefix sums equal the (z-xi)-adic valuations
of the gcds of k x k minors, which tests verify independently.  It works at xi
itself, with no change of variables: an entry's valuation, and its unit part,
come from repeated synthetic division of its numerator by (z - xi).

The holomorphic idempotent P = F^-1 * diag(0, I) * F has an image that agrees
with ker M(z) away from xi and is contained in it at xi; when all exponents
vanish the agreement includes xi and holomorphic_kernel_section extends any
kernel vector at xi to an exact polynomial-family kernel section.  F is never
inverted: local_smith's F is U * Pi, a permutation followed by a unit
upper-triangular U whose rows r.. are unit vectors (each row operation adds
rows that are still unit vectors), so P * v is one back substitution through
F.  holomorphic_kernel_section applies P to its vector that way without
building P, and kernel_projection builds P one column P * e_c at a time.

invariant_factors is the global Smith form over Q(i)[x] (Euclidean pivoting
to a diagonal, then gcd/lcm pairs for the divisibility chain); it serves the
pointwise similarity test, rank-drop loci and the Wasow test, whose local
exponents at xi are the (x-xi)-adic valuations of the invariant factors (the
Smith form localizes).
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
    _u_divmod,
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


def _order_at(p: Poly, pt: GaussianRational) -> tuple[int, list] | None:
    """Vanishing order k of a univariate p at pt and the coefficients of p / (z-pt)^k.

    None for the zero polynomial.  A rational function in the local ring at pt
    has its numerator's order.
    """
    return _u_order(p.coefficients(), pt) if p else None


def local_smith(m: PolyMatrix, point: GaussianRational) -> SmithFactorization:
    """Local Smith factorization of a univariate matrix family at `point`.

    Accepts polynomial entries or rational-function entries from the local
    ring at the point (denominators nonvanishing there).  Pivots on a
    minimal-valuation entry (ties broken by smallest (row, col)) and clears
    with row/column operations that are invertible over the local ring, so E
    and F are exact units at the point.  The zeros the clearing creates are
    set, not computed: after the row sweep column k is zero off the pivot
    (rows below were just cleared, rows above at their own steps), so the
    column sweep changes row k of the work matrix only.
    """
    if len(m.variables) != 1:
        raise SmithError("local_smith requires a univariate matrix")
    vs = m.variables
    m = m.to_func()
    if not all(f.defined_at([point]) for row in m.entries for f in row):
        raise SmithError("matrix entries must lie in the local ring at the point")

    n, cols = m.rows, m.cols
    work = [list(row) for row in m.entries]
    e = [list(row) for row in PolyMatrix.identity(n, vs).to_func().entries]
    f = [list(row) for row in PolyMatrix.identity(cols, vs).to_func().entries]
    zero = RationalFunction.constant(vs, GR_ZERO)

    exponents: list[int] = []
    for k in range(min(n, cols)):
        best = None
        for i, j in product(range(k, n), range(k, cols)):
            num = work[i][j]._num
            if num:
                order = _u_order(num, point)
                if best is None or order[0] < best[0][0]:
                    best = (order, i, j)
                    if order[0] == 0:
                        break
        if best is None:
            break
        (kappa, unit_coeffs), pi, pj = best
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            for row in e:
                row[k], row[pi] = row[pi], row[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            f[k], f[pj] = f[pj], f[k]

        # the pivot's numerator over (z - point)^kappa stays coprime to its denominator
        unit = RationalFunction._raw(vs, unit_coeffs, work[k][k]._den)
        inv_unit = unit.inverse()
        for j in range(k, cols):
            work[k][j] = work[k][j] * inv_unit
        for r in range(n):
            e[r][k] = e[r][k] * unit

        pivot_inv = work[k][k].inverse()
        for i in range(k + 1, n):
            if work[i][k]:
                factor = work[i][k] * pivot_inv
                work[i][k] = zero
                for j in range(k + 1, cols):
                    if work[k][j]:
                        work[i][j] = work[i][j] - factor * work[k][j]
                for r in range(n):
                    if e[r][i]:
                        e[r][k] = e[r][k] + factor * e[r][i]
        for j in range(k + 1, cols):
            if work[k][j]:
                factor = work[k][j] * pivot_inv
                work[k][j] = zero
                for c in range(cols):
                    if f[j][c]:
                        f[k][c] = f[k][c] + factor * f[j][c]
        exponents.append(kappa)

    if any(a > b for a, b in zip(exponents, exponents[1:])):
        raise AssertionError("local Smith exponents came out decreasing")
    if any(work[i][j] for i in range(n) for j in range(cols) if i != j):
        raise AssertionError("local Smith elimination left an entry off the diagonal")

    return SmithFactorization(
        point=point,
        E=PolyMatrix(e),
        exponents=tuple(exponents),
        F=PolyMatrix(f),
        generic_rank=len(exponents),
    )


def _apply_idempotent(f: list[list], r: int, v: list) -> list:
    """P·v for P = F^-1 diag(0_r, I) F, by back substitution through F.

    local_smith starts from F = I, swaps rows k and pj at step k and then
    adds multiples of rows j > k to row k, while those rows are still unit
    vectors.  So F = U·Π: row k is e_π(k) plus multiples of the e_π(j), j > k,
    and rows r.. are unit vectors.  Read bottom-up, each row has exactly one
    nonzero column that no lower row owns, and that entry is 1.  Then
    x = Π·P·v solves U x = diag(0_r, I)·F·v: x_k = v_π(k) for k >= r and
    x_k = -sum_{j>k} F[k][π(j)]·x_j below, and h_π(k) = x_k.  No inverse,
    echelon form or P is built.
    """
    m = len(f)
    pi = [0] * m
    owned: set[int] = set()
    for k in range(m - 1, -1, -1):
        row = f[k]
        free = [c for c in range(m) if c not in owned and row[c]]
        if len(free) != 1 or row[free[0]] != 1 or (k >= r and any(row[c] for c in owned)):
            raise AssertionError("Smith factor F is not a permuted unit upper-triangular matrix")
        pi[k] = free[0]
        owned.add(free[0])
    x = [v[pi[k]] for k in range(m)]
    for k in range(r - 1, -1, -1):
        row = f[k]
        acc = x[k] - x[k]
        for j in range(k + 1, m):
            c = row[pi[j]]
            if c and x[j]:
                acc = acc - c * x[j]
        x[k] = acc
    h = [None] * m
    for k in range(m):
        h[pi[k]] = x[k]
    return h


def kernel_projection(m: PolyMatrix, point: GaussianRational) -> KernelProjection:
    """The idempotent P = F^-1 diag(0_r, I_{m-r}) F from the local factorization.

    Built one column P·e_c at a time by back substitution through F = U·Π
    (see `_apply_idempotent`).
    """
    fact = local_smith(m, point)
    f = fact.F.entries
    one = RationalFunction.constant(m.variables, GR_ONE)
    zero = RationalFunction.constant(m.variables, GR_ZERO)
    columns = [
        _apply_idempotent(f, fact.generic_rank, [one if i == c else zero for i in range(m.cols)])
        for c in range(m.cols)
    ]
    p = [[col[i] for col in columns] for i in range(m.cols)]
    return KernelProjection(point=fact.point, P=PolyMatrix(p), exponents=fact.exponents)


def holomorphic_kernel_section(
    m: PolyMatrix, point: GaussianRational, v: Sequence[GaussianRational]
) -> list[RationalFunction]:
    """Extend v in ker M(point) to h(z) with M h = 0 exactly and h(point) = v.

    h = P·v for the idempotent P of `kernel_projection`, computed by back
    substitution through the Smith factor F = U·Π without building P.  When
    the kernel dimension is constant near the point (all local Smith
    exponents zero) success is guaranteed.  With a dimension jump the
    projection is still applied and the result certified a posteriori: if it
    fails to fix v at the point, the jump error is raised.
    """
    if len(v) != m.cols:
        raise SmithError("vector length does not match matrix columns")
    at_pt = m.evaluate([point])
    image = linalg.mat_vec(at_pt, v)
    if any(image):
        raise SmithError("v not in kernel: M(point)·v is nonzero")
    fact = local_smith(m, point)
    const = [RationalFunction.constant(m.variables, x) for x in v]
    h = _apply_idempotent(fact.F.entries, fact.generic_rank, const)
    at_point = [entry.evaluate([point]) for entry in h]
    if any(a != b for a, b in zip(at_point, v)):
        if not any(fact.exponents):
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
