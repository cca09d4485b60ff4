"""The intertwiner operator Theta -> A Theta - Theta B and its kernel data.

Under column-major vectorization the operator has representation matrix
M = I_n (x) A - B^T (x) I_n, so M vec(Theta) = vec(A Theta - Theta B) holds
identically in the family parameter; one builder fills M's entries straight
from A and B, over the polynomials or at a point.  Kernel dimensions of M at
a point and over the function field drive the similarity criteria; the
nullspace at a point gives commutant bases; and path_to_identity realizes
the connectivity of the invertible commutant by an explicit piecewise path,
whose invertibility between samples rests on an exact Sturm count and whose
samples are checked with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import (
    AlgebraError,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    PolyMatrix,
    RationalFunction,
    SimilitudeError,
    _u_derivative,
    _u_det,
    _u_divmod,
    _u_gcd_monic,
    _u_trim,
    generic_rank,
    rat,
)

ConstMatrix = list[list[GaussianRational]]


class SylvesterError(SimilitudeError):
    """Raised for shape mismatches and path precondition violations."""


@dataclass(frozen=True)
class CommutantBasis:
    """Exact basis of {Theta : A(point) Theta = Theta A(point)}."""

    point: GaussianRational
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def vec(matrix: Sequence[Sequence]) -> list:
    """Column-major vectorization."""
    n = len(matrix)
    cols = len(matrix[0])
    return [matrix[i][j] for j in range(cols) for i in range(n)]


def unvec(vector: Sequence, n: int) -> list[list]:
    """Inverse of column-major vec for an n x n matrix."""
    if len(vector) != n * n:
        raise SylvesterError("vector length is not n^2")
    return [[vector[j * n + i] for j in range(n)] for i in range(n)]


def _sylvester_entries(a: Sequence[Sequence], b: Sequence[Sequence], point=None) -> list[list]:
    """Rows of M = I (x) A - B^T (x) I from square grids A, B of equal size.

    Row j n + i of M holds entry (i, j) of A Theta - Theta B under
    column-major vec: a[i][k] multiplies Theta[k][j], at column j n + k, and
    -b[l][j] multiplies Theta[i][l], at column l n + i.  The entries may be
    scalars, Poly or RationalFunction; when either grid has RationalFunction
    entries every entry of M is one.  With a point, A and B are evaluated
    there first, so M(point) costs n^2 evaluations per operand, not n^4.
    """
    n = len(a)
    if any(len(row) != n for row in a) or any(len(row) != len(b) for row in b):
        raise SylvesterError("A and B must be square")
    if len(b) != n:
        raise SylvesterError("A and B must have the same size")
    vs = getattr(a[0][0], "variables", ())
    if getattr(b[0][0], "variables", ()) != vs:
        raise AlgebraError("A and B must share one variable list")
    if point is not None:
        at = [point] * len(vs)
        a = [[p.evaluate(at) for p in row] for row in a]
        b = [[p.evaluate(at) for p in row] for row in b]
    elif any(isinstance(p, RationalFunction) for grid in (a, b) for row in grid for p in row):
        a, b = PolyMatrix(a).to_func().entries, PolyMatrix(b).to_func().entries
    zero = a[0][0] * 0
    rows = []
    for j in range(n):
        for i in range(n):
            row = [zero] * (n * n)
            row[j * n : j * n + n] = a[i]
            row[i::n] = [-b[l][j] for l in range(n)]
            row[j * n + i] = a[i][i] - b[j][j]
            rows.append(row)
    return rows


def sylvester_matrix(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """M = I (x) A - B^T (x) I for square A, B of equal size, as a PolyMatrix."""
    return PolyMatrix(_sylvester_entries(a.entries, b.entries))


def intertwiner_dim_at(a: PolyMatrix, b: PolyMatrix, point: GaussianRational) -> int:
    """dim {Theta : Theta B(point) = A(point) Theta}, by exact elimination."""
    return a.rows * a.rows - linalg.rank(_sylvester_entries(a.entries, b.entries, point))


def generic_intertwiner_dim(a: PolyMatrix, b: PolyMatrix) -> int:
    """Kernel dimension of the intertwiner over the function field."""
    return a.rows * a.rows - generic_rank(sylvester_matrix(a, b))


def commutant_basis_at(a: PolyMatrix, point: GaussianRational) -> CommutantBasis:
    """Basis of the commutant of A(point) via the exact Sylvester nullspace."""
    kernel = linalg.nullspace(_sylvester_entries(a.entries, a.entries, point))
    n = a.rows
    basis = tuple(unvec(v, n) for v in kernel)
    return CommutantBasis(point=point, basis=basis)


# ---------------------------------------------------------------------------
# Connectivity path inside the invertible commutant


def _commutes(phi: ConstMatrix, theta: ConstMatrix) -> bool:
    lhs = linalg.mat_mul(phi, theta)
    rhs = linalg.mat_mul(theta, phi)
    return all(
        lhs[i][j] == rhs[i][j] for i in range(len(phi)) for j in range(len(phi))
    )


def _sign_changes(values: list[GaussianRational]) -> int:
    signs = [v.re > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _ray_blocked(theta: ConstMatrix, mu: GaussianRational) -> bool:
    """Whether det(Theta + s mu I) vanishes at some real s > 0, for invertible Theta.

    The real roots of p(s) = det(Theta + s mu I) are those of
    g = gcd(Re p, Im p), the real and imaginary parts taken coefficientwise.
    Sturm's theorem counts the distinct roots of g in (0, inf) as the drop in
    sign changes along its Sturm chain from s = 0 to s = inf; g(0) != 0
    because p(0) = det Theta.
    """
    # Theta + s mu I as Q(i)[s] coefficient lists
    grid = [
        [[x, mu] if i == j else [x] if x else [] for j, x in enumerate(row)]
        for i, row in enumerate(theta)
    ]
    p = _u_det(grid)
    g = _u_gcd_monic(
        _u_trim([GaussianRational(c.re) for c in p]), _u_trim([GaussianRational(c.im) for c in p])
    )
    chain = [g, _u_derivative(g)]
    while chain[-1]:
        chain.append([-c for c in _u_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return _sign_changes([c[0] for c in chain]) > _sign_changes([c[-1] for c in chain])


def _shape(m: ConstMatrix) -> str:
    """Rows x columns of the first row, for error messages."""
    return f"{len(m)}x{len(m[0]) if m else 0}"


def path_to_identity(
    phi: ConstMatrix, theta: ConstMatrix, steps: int
) -> list[ConstMatrix]:
    """Sampled path from Theta to I inside the invertible commutant of Phi.

    Two straight segments over t in [0, 2]: (1 - t) Theta + t mu I, then the
    scalar (2 - t) mu + (t - 1).  A point of the first segment is singular
    exactly when -s mu is an eigenvalue of Theta for some s > 0, so mu is the
    first of 1 + k i (k = 0..n) whose ray _ray_blocked clears; one exists,
    since each eigenvalue lies on at most one of these n + 1 rays.  The
    scalar has real part 1, so the second segment is invertible too.  Every
    sample is a polynomial in Theta and is still re-checked exactly: it
    commutes with Phi and its determinant is nonzero.
    """
    n = len(theta)
    if not n or len(phi) != n or any(len(row) != n for row in (*phi, *theta)):
        shapes = f"{_shape(phi)} and {_shape(theta)}"
        raise SylvesterError(f"Phi and Theta must be nonempty square matrices of one size, got {shapes}")
    if steps < 1:
        raise SylvesterError("steps must be positive")
    if not _commutes(phi, theta):
        raise SylvesterError("Theta does not commute with Phi")
    if not linalg.det(theta):
        raise SylvesterError("Theta is not invertible")

    for k in range(n + 1):
        mu = GaussianRational(1, k)
        if not _ray_blocked(theta, mu):
            break
    else:
        raise AssertionError("an eigenvalue lies on two rays -s(1 + k i)")

    samples = []
    for k in range(steps + 1):
        t = GaussianRational(rat(2 * k, steps))
        if 2 * k <= steps:
            g = [
                [x * (GR_ONE - t) + (mu * t if i == j else GR_ZERO) for j, x in enumerate(row)]
                for i, row in enumerate(theta)
            ]
        else:
            s = mu * (2 - t) + (t - 1)
            g = [[s if i == j else GR_ZERO for j in range(n)] for i in range(n)]
        if not linalg.det(g):
            raise AssertionError("path sample is singular")
        if not _commutes(phi, g):
            raise AssertionError("path sample stopped commuting with Phi")
        samples.append(g)
    return samples
