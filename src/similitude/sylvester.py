"""The intertwiner operator Theta -> A Theta - Theta B and its kernel data.

Under column-major vectorization the operator has representation matrix
M = I_n (x) A - B^T (x) I_n, so M vec(Theta) = vec(A Theta - Theta B) holds
identically in the family parameter.  Kernel dimensions of M at a point and
over the function field drive the similarity criteria; the nullspace at a
point gives commutant bases; and path_to_identity realizes the connectivity
of the invertible commutant by an explicit piecewise path, certified sample
by sample with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import (
    AlgebraError,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    PolyMatrix,
    generic_rank,
    rat,
)

ConstMatrix = list[list[GaussianRational]]


class SylvesterError(ValueError):
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


def sylvester_matrix(a, b) -> PolyMatrix:
    """Build M = I (x) A - B^T (x) I for square A, B of equal size.

    Either family may carry rational-function entries (FuncMatrix), in which
    case M is a FuncMatrix as well.
    """
    if a.rows != a.cols or b.rows != b.cols:
        raise SylvesterError("A and B must be square")
    if a.rows != b.rows:
        raise SylvesterError("A and B must have the same size")
    if a.variables != b.variables:
        raise AlgebraError("A and B must share one variable list")
    eye = PolyMatrix.identity(a.rows, a.variables)
    return eye.kron(a) - b.transpose().kron(eye)


def intertwiner_dim_at(a: PolyMatrix, b: PolyMatrix, point: GaussianRational) -> int:
    """dim {Theta : Theta B(point) = A(point) Theta}, by exact elimination."""
    pt = point if isinstance(point, GaussianRational) else GaussianRational(point)
    m_at = sylvester_matrix(a, b).evaluate([pt] * len(a.variables))
    return a.rows * a.rows - linalg.rank(m_at)


def generic_intertwiner_dim(a: PolyMatrix, b: PolyMatrix) -> int:
    """Kernel dimension of the intertwiner over the function field."""
    return a.rows * a.rows - generic_rank(sylvester_matrix(a, b))


def commutant_basis_at(a: PolyMatrix, point: GaussianRational) -> CommutantBasis:
    """Basis of the commutant of A(point) via the exact Sylvester nullspace."""
    pt = point if isinstance(point, GaussianRational) else GaussianRational(point)
    m_at = sylvester_matrix(a, a).evaluate([pt] * len(a.variables))
    kernel = linalg.nullspace(m_at, GR_ONE, GR_ZERO)
    n = a.rows
    basis = tuple(unvec(v, n) for v in kernel)
    return CommutantBasis(point=pt, basis=basis)


# ---------------------------------------------------------------------------
# Connectivity path inside the invertible commutant


def _commutes(phi: ConstMatrix, theta: ConstMatrix) -> bool:
    lhs = linalg.mat_mul(phi, theta, GR_ZERO)
    rhs = linalg.mat_mul(theta, phi, GR_ZERO)
    return all(
        lhs[i][j] == rhs[i][j] for i in range(len(phi)) for j in range(len(phi))
    )


def _norm_bound(theta: ConstMatrix):
    """Rational upper bound for the operator norm (max absolute row sum)."""
    best = rat(0)
    for row in theta:
        total = rat(0)
        for x in row:
            total += abs(x.re) + abs(x.im)
        if total > best:
            best = total
    return best


def _segment_point(start: GaussianRational, end: GaussianRational, frac) -> GaussianRational:
    t = GaussianRational(frac)
    return start + (end - start) * t


def path_to_identity(
    phi: ConstMatrix, theta: ConstMatrix, steps: int
) -> list[ConstMatrix]:
    """Sampled path from Theta to I inside the invertible commutant of Phi.

    Three segments over t in [0, 3]: first Theta + lambda(t) I with lambda
    running 0 -> 1 + rho along a rectangle that dodges the eigenvalues of
    -Theta (rho is a rational bound for ||Theta||), then (2 - t) Theta +
    (1 + rho) I, then the scalar ramp down to I.  Eigenvalues are located
    numerically only to pick the rectangle height; every emitted sample is
    re-certified exactly (commutes with Phi, determinant nonzero), so the
    numeric step cannot corrupt the result.
    """
    n = len(theta)
    if steps < 1:
        raise SylvesterError("steps must be positive")
    if not _commutes(phi, theta):
        raise SylvesterError("Theta does not commute with Phi")
    if not linalg.det(theta, GR_ONE, GR_ZERO):
        raise SylvesterError("Theta is not invertible")

    rho = _norm_bound(theta)
    lam_end = GaussianRational(1 + rho)

    eigs = np.linalg.eigvals(
        np.array([[x.to_complex() for x in row] for row in theta])
    )
    bad = [-e for e in eigs]

    for height in (rat(1), rat(1, 2), rat(2), rat(1, 3), rat(3), rat(1, 4), rat(5)):
        samples = _try_rectangle_path(phi, theta, rho, lam_end, height, bad, steps)
        if samples is not None:
            return samples
    raise SylvesterError("could not certify an eigenvalue-avoiding path")


def _try_rectangle_path(phi, theta, rho, lam_end, height, bad_eigs, steps):
    n = len(theta)
    beta = GaussianRational(0, height)
    corners = [GaussianRational(0), beta, lam_end + beta, lam_end]

    # quick numeric screen of the rectangle against the bad eigenvalue set
    pts = [c.to_complex() for c in corners]
    for b in bad_eigs:
        for (p, q) in zip(pts, pts[1:]):
            if _segment_distance(p, q, b) < 1e-9:
                return None

    def lam(frac3):
        # frac3 in [0, 1] along the three rectangle legs, equal thirds
        if frac3 <= rat(1, 3):
            return _segment_point(corners[0], corners[1], frac3 * 3)
        if frac3 <= rat(2, 3):
            return _segment_point(corners[1], corners[2], (frac3 - rat(1, 3)) * 3)
        return _segment_point(corners[2], corners[3], (frac3 - rat(2, 3)) * 3)

    samples = []
    for k in range(steps + 1):
        t = rat(3) * rat(k, steps)
        if t <= 1:
            l = lam(t)
            g = [
                [theta[i][j] + (l if i == j else GR_ZERO) for j in range(n)]
                for i in range(n)
            ]
        elif t <= 2:
            s = GaussianRational(2 - t)
            g = [
                [theta[i][j] * s + ((GR_ONE + GaussianRational(rho)) if i == j else GR_ZERO) for j in range(n)]
                for i in range(n)
            ]
        else:
            s = GR_ONE + GaussianRational((rat(3) - t) * rho)
            g = [[s if i == j else GR_ZERO for j in range(n)] for i in range(n)]
        if not linalg.det(g, GR_ONE, GR_ZERO):
            return None
        if not _commutes(phi, g):
            raise AssertionError("path sample stopped commuting with Phi")
        samples.append(g)
    return samples


def _segment_distance(p: complex, q: complex, x: complex) -> float:
    d = q - p
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(x - p)
    t = ((x - p) * d.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(x - (p + t * d))
