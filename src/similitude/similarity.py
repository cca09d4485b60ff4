"""Pointwise and local holomorphic similarity of polynomial matrix families.

pointwise_similar decides similarity of two constant matrices through the
invariant factors of their characteristic pencils (exact Smith form over
Q(i)[lambda]) and can produce an explicit conjugating witness by seeded random
sampling of the intertwiner kernel.

wasow_check operationalizes the constancy criterion: the kernel dimension of
the intertwiner representation matrix is constant near a point exactly when
all its local Smith exponents there vanish.  They come from the local echelon
behind local_smith (smith._local_echelon), not from a global Smith form, and
the rank at the point over Q(i) cross-checks them.

local_similarity builds the holomorphic solution H of A H = H B with
H(point) = Phi by projecting vec(Phi) through the kernel-bundle idempotent.
The identity A H = H B always holds exactly by construction; H(point) = Phi is
guaranteed in the constant-dimension case and certified a posteriori
otherwise, mirroring the continuity argument that underlies the topological
criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .algebra import (
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    SimilitudeError,
)
from .smith import SmithError, _local_echelon, holomorphic_kernel_section, invariant_factors
from .sylvester import ConstMatrix, _shape, _sylvester_entries, intertwiner_dim_at, sylvester_matrix, unvec, vec

WITNESS_RETRIES = 32


class SimilarityError(SimilitudeError):
    """Raised for shape and precondition violations."""


class ConstructionError(SimilarityError):
    """Raised when local_similarity cannot certify H(point) = Phi."""


@dataclass(frozen=True)
class PointwiseVerdict:
    similar: bool
    invariant_factors_a: tuple[Poly, ...]
    invariant_factors_b: tuple[Poly, ...]
    witness: ConstMatrix | None
    witness_note: str | None = None


@dataclass(frozen=True)
class WasowReport:
    point: GaussianRational
    dim_at_point: int
    dim_generic: int
    constant_near_point: bool
    smith_exponents: tuple[int, ...]


@dataclass(frozen=True)
class LocalSimilarity:
    point: GaussianRational
    H: PolyMatrix
    seed: ConstMatrix


def characteristic_pencil(a0: ConstMatrix) -> PolyMatrix:
    """The pencil lambda I - A0 as a polynomial matrix in the one variable lambda."""
    n = len(a0)
    vs = ("lambda",)
    lam = Poly.variable(vs, "lambda")
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            c = Poly.constant(vs, a0[i][j])
            row.append(lam - c if i == j else -c)
        grid.append(row)
    return PolyMatrix(grid)


def pointwise_similar(
    a0: ConstMatrix,
    b0: ConstMatrix,
    want_witness: bool = False,
    seed: int = 0,
) -> PointwiseVerdict:
    """Decide similarity of constant matrices via invariant factors.

    The verdict is exact and authoritative.  The witness search samples random
    rational combinations of an intertwiner-kernel basis (coefficients in
    -5..5, deterministic for a fixed seed); exhaustion after 32 draws signals
    bad luck only and is reported without affecting the verdict.
    """
    n = len(a0)
    if len(b0) != n or any(len(r) != n for r in a0) or any(len(r) != n for r in b0):
        raise SimilarityError("matrices must be square and of equal size")
    fa = tuple(invariant_factors(characteristic_pencil(a0)))
    fb = tuple(invariant_factors(characteristic_pencil(b0)))
    similar = fa == fb
    witness = None
    note = None
    if similar and want_witness:
        witness, note = _witness_search(a0, b0, seed)
    return PointwiseVerdict(
        similar=similar,
        invariant_factors_a=fa,
        invariant_factors_b=fb,
        witness=witness,
        witness_note=note,
    )


def _witness_search(a0: ConstMatrix, b0: ConstMatrix, seed: int):
    n = len(a0)
    if a0 == b0:
        return linalg.identity(n, GR_ONE, GR_ZERO), None
    kernel = linalg.nullspace(_sylvester_entries(a0, b0))
    rng = random.Random(seed)
    for _ in range(WITNESS_RETRIES):
        combo = [GR_ZERO] * (n * n)
        for basis_vec in kernel:
            c = GaussianRational(rng.randint(-5, 5), 0)
            combo = [x + c * y for x, y in zip(combo, basis_vec)]
        candidate = unvec(combo, n)
        if linalg.det(candidate):
            return candidate, None
    return None, f"witness search exhausted after {WITNESS_RETRIES} draws"


def wasow_check(a: PolyMatrix, b: PolyMatrix, point: GaussianRational) -> WasowReport:
    """Constancy report for the intertwiner-kernel dimension near a point.

    Entries of A and B must lie in the local ring at the point (polynomials,
    or rational functions with no pole there); a pole raises SmithError.
    """
    if len(a.variables) != 1:
        raise SimilarityError("wasow_check requires univariate families")
    n2 = a.rows * a.rows
    exponents = _local_echelon(sylvester_matrix(a, b), point).exponents()
    dim_at = intertwiner_dim_at(a, b, point)
    # M = E diag((z-point)^k) F, E and F invertible at the point: rank M(point) counts k = 0
    if dim_at != n2 - exponents.count(0):
        raise AssertionError("rank at the point disagrees with the local Smith exponents")
    return WasowReport(
        point=point,
        dim_at_point=dim_at,
        dim_generic=n2 - len(exponents),
        constant_near_point=not any(exponents),
        smith_exponents=exponents,
    )


def local_similarity(
    a: PolyMatrix, b: PolyMatrix, point: GaussianRational, phi: ConstMatrix
) -> LocalSimilarity:
    """Holomorphic H with A H = H B exactly and H(point) = Phi.

    Requires A(point) Phi = Phi B(point).  H is unvec(P vec(Phi)) for the
    kernel-bundle idempotent P of the intertwiner matrix at the point; the
    intertwining identity holds automatically, and H(point) = Phi is
    guaranteed when the kernel dimension is constant (all Smith exponents
    zero) and certified exactly otherwise.
    """
    if len(a.variables) != 1:
        raise SimilarityError("local_similarity requires univariate families")
    n = a.rows
    if len(phi) != n or any(len(row) != n for row in phi):
        raise SimilarityError(f"Phi must be {n}x{n} like the families, got {_shape(phi)}")
    m = sylvester_matrix(a, b)  # checks that A and B are square of one size
    lhs = linalg.mat_mul(a.evaluate([point]), phi)
    rhs = linalg.mat_mul(phi, b.evaluate([point]))
    if lhs != rhs:
        raise SimilarityError("Phi does not intertwine at the point")

    try:
        h_vec = holomorphic_kernel_section(m, point, vec(phi))
    except SmithError as exc:
        raise ConstructionError(
            "construction fails: P(point) vec(Phi) differs from vec(Phi)"
        ) from exc
    return LocalSimilarity(point=point, H=PolyMatrix(unvec(h_vec, n)), seed=phi)
