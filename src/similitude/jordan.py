"""Jordan structure of matrix families: profiles, stability loci, normalization.

segre_at recovers the per-eigenvalue Jordan block multisets of A(point) from
the rank sequence of powers: with r_k = rank (A - lambda I)^k and r_0 = n, the
number of blocks of size k is r_{k-1} - 2 r_k + r_{k+1}.  Exact mode needs the
characteristic polynomial to split over Q(i); numeric mode clusters floating
eigenvalues within a tolerance and reports cluster radii.

jordan_instability_candidates returns a finite superset of the points where a
univariate family can fail to be Jordan stable: (a) the roots of the
discriminant of the squarefree part of the characteristic polynomial (where
eigenvalue functions collide or branch) and (b) the roots of the last
invariant factor of the self-intertwiner matrix (where the commutant
dimension jumps).  Outside both loci, holomorphic eigenvalue functions exist
and every nearby block change would strictly raise the commutant dimension
(sums of squares of conjugate-partition parts are strictly Schur-convex), so
non-candidates are provably stable.  Probing candidates can refute stability
but never certify it, hence the honest "undetermined" verdict.

stable_normalization realizes the conjugation H with
H^-1 Com A(z) H = Com A(point) near a stable point from caller-supplied,
exactly verified eigenvalue functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import (
    FuncMatrix,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    RationalFunction,
    _u_deflate,
    _u_derivative,
    _u_mul,
    _u_squarefree,
    rat,
)
from .similarity import local_similarity, pointwise_similar
from .smith import invariant_factors
from .sylvester import ConstMatrix, commutant_basis_at, sylvester_matrix, unvec

DEFAULT_TOLERANCE = 1e-9
DEFAULT_PROBES = 4


class JordanError(ValueError):
    """Raised for splitting failures and verification failures."""


# ---------------------------------------------------------------------------
# Exact Gaussian-rational root extraction


def _rationalize(x: float, bound: int):
    return rat(Fraction(x).limit_denominator(bound))


def gaussian_rational_roots(p: Poly) -> tuple[list[tuple[GaussianRational, int]], Poly]:
    """All roots of a univariate p lying in Q(i), with multiplicities.

    Numeric root candidates (of the squarefree part) are snapped to nearby
    Gaussian rationals of growing denominator and accepted only when they
    satisfy p exactly; multiplicities come from exact deflation.  Returns the
    roots and the (monic) cofactor with no Q(i) roots of small height.
    """
    if len(p.variables) != 1 or not p:
        raise JordanError("root extraction requires a nonzero univariate polynomial")
    coeffs = p.coefficients()
    lead_inv = coeffs[-1].inverse()
    work = [c * lead_inv for c in coeffs]

    squarefree = _u_squarefree(work)

    numeric = np.roots([c.to_complex() for c in reversed(squarefree)]) if len(squarefree) > 1 else []
    roots: list[tuple[GaussianRational, int]] = []
    seen: set = set()
    for approx in numeric:
        cand = None
        for bound in (1, 10, 100, 10**4, 10**6, 10**9, 10**12):
            c = GaussianRational(_rationalize(approx.real, bound), _rationalize(approx.imag, bound))
            if c in seen:
                cand = None
                break
            if not _u_deflate(work, c)[1]:
                cand = c
                break
        if cand is None:
            continue
        seen.add(cand)
        mult = 0
        while len(work) > 1:
            quotient, remainder = _u_deflate(work, cand)
            if remainder:
                break
            work = quotient
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    cofactor = Poly.from_coefficients(p.variables, work)
    return roots, cofactor


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, division-free up to integers)


def char_poly_coeffs(a: PolyMatrix) -> list[Poly]:
    """Coefficients [c_1, ..., c_n] of det(tI - A) = t^n + c_1 t^{n-1} + ... + c_n.

    Entries are polynomials in the family parameters; the recurrence divides
    only by integers, so everything stays exact.
    """
    if a.rows != a.cols:
        raise JordanError(f"Jordan data needs a square family, got {a.rows}x{a.cols}")
    n = a.rows
    vs = a.variables
    eye = PolyMatrix.identity(n, vs)
    coeffs: list[Poly] = []
    m = PolyMatrix.zeros(n, n, vs)
    c = Poly.constant(vs, GR_ONE)
    for k in range(1, n + 1):
        m = a * (m + eye * c)
        trace = Poly.zero(vs)
        for i in range(n):
            trace = trace + m.entries[i][i]
        c = trace.map_coefficients(lambda x: x * GaussianRational(rat(-1, k)))
        coeffs.append(c)
    return coeffs


def char_poly_at(a0: ConstMatrix) -> Poly:
    """det(tI - A0) as a univariate polynomial over Q(i)."""
    coeffs = [c.constant_value() for c in reversed(char_poly_coeffs(PolyMatrix.from_scalars(a0)))]
    return Poly.from_coefficients(("t",), coeffs + [GR_ONE])


# ---------------------------------------------------------------------------
# Jordan profiles


@dataclass(frozen=True)
class EigenvalueBlocks:
    """One eigenvalue with algebraic multiplicity and Jordan block counts."""

    value: object  # GaussianRational (exact) or complex (numeric)
    multiplicity: int
    blocks: tuple[tuple[int, int], ...]  # (size, count), size ascending
    radius: float | None = None  # cluster radius in numeric mode

    def block_sizes(self) -> list[int]:
        out = []
        for size, count in self.blocks:
            out.extend([size] * count)
        return out


@dataclass(frozen=True)
class JordanProfile:
    """Eigenvalue-wise Segre data of one constant matrix."""

    size: int
    eigenvalues: tuple[EigenvalueBlocks, ...]
    mode: str  # "exact" | "numeric"

    def commutant_dimension(self) -> int:
        """Pairwise-min formula: sum over eigenvalues of sum min(s_i, s_j)."""
        total = 0
        for ev in self.eigenvalues:
            sizes = ev.block_sizes()
            total += sum(min(s, t) for s in sizes for t in sizes)
        return total

    def shape(self) -> tuple:
        """Eigenvalue-free comparison key: sorted block multisets."""
        return tuple(sorted(ev.blocks for ev in self.eigenvalues))


def _blocks_from_ranks(ranks: list[int]) -> tuple[tuple[int, int], ...]:
    # ranks[k] = rank (A - lambda I)^k, ranks[0] = n; stabilized at the end
    blocks = []
    for k in range(1, len(ranks)):
        before = ranks[k - 1]
        at = ranks[k]
        after = ranks[k + 1] if k + 1 < len(ranks) else ranks[-1]
        count = before - 2 * at + after
        if count:
            blocks.append((k, count))
    return tuple(blocks)


def segre_at(
    a: PolyMatrix | ConstMatrix,
    point: GaussianRational | None = None,
    mode: str = "exact",
    tolerance: float = DEFAULT_TOLERANCE,
) -> JordanProfile:
    """Jordan profile of A(point) (or of a constant matrix when point is None)."""
    _check_settings(tolerance)
    if isinstance(a, PolyMatrix):
        if point is None:
            raise JordanError("a family needs an evaluation point")
        pt = point if isinstance(point, GaussianRational) else GaussianRational(point)
        a0 = a.evaluate([pt] * len(a.variables))
    else:
        a0 = [list(row) for row in a]
    n = len(a0)
    if mode == "exact":
        return _segre_exact(a0, n)
    if mode == "numeric":
        return _segre_numeric(a0, n, tolerance)
    raise JordanError(f"unknown mode {mode!r}")


def _segre_exact(a0: ConstMatrix, n: int) -> JordanProfile:
    char = char_poly_at(a0)
    roots, cofactor = gaussian_rational_roots(char)
    if sum(m for _, m in roots) != n or cofactor.total_degree() > 0:
        raise JordanError("characteristic polynomial does not split over Q(i)")
    out = []
    for value, mult in roots:
        shifted = [
            [a0[i][j] - (value if i == j else GR_ZERO) for j in range(n)]
            for i in range(n)
        ]
        ranks = [n]
        power = linalg.identity(n, GR_ONE, GR_ZERO)
        k = 0
        while True:
            k += 1
            power = linalg.mat_mul(power, shifted, GR_ZERO)
            ranks.append(linalg.rank(power))
            if ranks[-1] == ranks[-2] or k > n:
                break
        out.append(
            EigenvalueBlocks(value=value, multiplicity=mult, blocks=_blocks_from_ranks(ranks))
        )
    return JordanProfile(size=n, eigenvalues=tuple(out), mode="exact")


def _segre_numeric(a0: ConstMatrix, n: int, tolerance: float) -> JordanProfile:
    arr = np.array([[x.to_complex() for x in row] for row in a0])
    eigs = sorted(np.linalg.eigvals(arr), key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for e in eigs:
        placed = False
        for cluster in clusters:
            if any(abs(e - other) <= tolerance for other in cluster):
                cluster.append(e)
                placed = True
                break
        if not placed:
            clusters.append([e])
    scale = max(1.0, float(np.linalg.norm(arr, 2)))
    out = []
    for cluster in clusters:
        rep = sum(cluster) / len(cluster)
        radius = max(abs(e - rep) for e in cluster)
        shifted = arr - rep * np.eye(n)
        ranks = [n]
        power = np.eye(n, dtype=complex)
        k = 0
        while True:
            k += 1
            power = power @ shifted
            ranks.append(int(np.linalg.matrix_rank(power, tol=tolerance * scale)))
            if ranks[-1] == ranks[-2] or k > n:
                break
        out.append(
            EigenvalueBlocks(
                value=rep,
                multiplicity=len(cluster),
                blocks=_blocks_from_ranks(ranks),
                radius=radius,
            )
        )
    return JordanProfile(size=n, eigenvalues=tuple(out), mode="numeric")


# ---------------------------------------------------------------------------
# Instability candidates


@dataclass(frozen=True)
class CandidatePoint:
    """One point of the candidate locus, exact or isolated."""

    exact: GaussianRational | None
    approx: complex | None = None
    radius: float | None = None
    min_poly: Poly | None = None


@dataclass(frozen=True)
class InstabilityCandidates:
    points: tuple[CandidatePoint, ...]
    defining_polynomials: tuple[Poly, ...]

    def contains(self, point: GaussianRational) -> bool:
        """Exact membership in the candidate locus."""
        return any(not q.evaluate([point]) for q in self.defining_polynomials if q)


def _resultant(a: list, b: list, one, zero):
    """Resultant via the Sylvester matrix determinant (coefficients in a domain)."""
    m = len(a) - 1
    n = len(b) - 1
    if m < 0 or n < 0:
        return zero
    size = m + n
    if size == 0:
        return one
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return linalg.det(rows, one, zero)


def jordan_instability_candidates(a: PolyMatrix) -> InstabilityCandidates:
    """Finite superset of the Jordan-unstable points of a univariate family.

    Union of the branching locus (discriminant of the squarefree part of the
    characteristic polynomial) and the commutant-jump locus (zeros of the last
    invariant factor of the self-intertwiner matrix).
    """
    if len(a.variables) != 1:
        raise JordanError("candidates require a univariate family")
    vs = a.variables
    one = RationalFunction.constant(vs, GR_ONE)

    defining: list[Poly] = []

    # (a) branching locus
    char = [RationalFunction(c) for c in reversed(char_poly_coeffs(a))] + [one]
    # the squarefree part of a monic polynomial over Q(i)[z] lies in Q(i)[z][x]
    # (Gauss's lemma), so as_poly cannot raise and the resultant stays in Q(i)[z]
    squarefree = [c.as_poly() for c in _u_squarefree(char)]
    disc = _resultant(
        squarefree, _u_derivative(squarefree), Poly.constant(vs, GR_ONE), Poly.zero(vs)
    )
    if disc.total_degree() > 0:
        defining.append(disc)

    # (b) commutant-jump locus
    factors = invariant_factors(sylvester_matrix(a, a))
    if factors:
        last = factors[-1]
        if last.total_degree() > 0:
            defining.append(last)

    points: list[CandidatePoint] = []
    seen: set = set()
    for q in defining:
        roots, cofactor = gaussian_rational_roots(q)
        for value, _mult in roots:
            if value not in seen:
                seen.add(value)
                points.append(CandidatePoint(exact=value))
        if cofactor.total_degree() > 0:
            for approx, radius in _isolating_boxes(cofactor):
                points.append(
                    CandidatePoint(exact=None, approx=approx, radius=radius, min_poly=cofactor)
                )
    points.sort(
        key=lambda c: (
            0 if c.exact is not None else 1,
            (c.exact.re, c.exact.im) if c.exact is not None else (rat(0), rat(0)),
            (c.approx.real, c.approx.imag) if c.approx is not None else (0.0, 0.0),
        )
    )
    return InstabilityCandidates(points=tuple(points), defining_polynomials=tuple(defining))


def _isolating_boxes(p: Poly) -> list[tuple[complex, float]]:
    roots = np.roots([c.to_complex() for c in reversed(p.coefficients())])
    out = []
    for i, r in enumerate(roots):
        others = [abs(r - s) for j, s in enumerate(roots) if j != i]
        radius = min(others) / 2 if others else 1.0
        out.append((complex(r), float(max(radius, 1e-12))))
    return out


# ---------------------------------------------------------------------------
# Stability verdicts


@dataclass(frozen=True)
class StabilityVerdict:
    point: GaussianRational
    verdict: str  # "stable" | "unstable" | "undetermined"
    profile_at_point: JordanProfile | None
    probe_profiles: tuple[JordanProfile, ...]
    probe_points: tuple[GaussianRational, ...]
    candidates: InstabilityCandidates


@dataclass(frozen=True)
class StabilityReport:
    """Candidate locus plus per-point verdicts; only candidates can be unstable."""

    candidate_points: tuple[CandidatePoint, ...]
    verdicts: tuple[StabilityVerdict, ...]


def stability_report(
    a: PolyMatrix,
    points: list[GaussianRational],
    probes: int = DEFAULT_PROBES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> StabilityReport:
    """Verdicts for several query points against one shared candidate locus."""
    _check_settings(tolerance, probes)
    cands = jordan_instability_candidates(a)
    verdicts = tuple(_stability_verdict(a, p, cands, probes, tolerance) for p in points)
    return StabilityReport(candidate_points=cands.points, verdicts=verdicts)


def _check_settings(tolerance: float, probes: int = 1) -> None:
    """Reject a tolerance that is not finite and positive, or fewer than one probe."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise JordanError(f"tolerance must be finite and greater than 0, got {tolerance}")
    if probes < 1:
        raise JordanError(f"probes must be at least 1, got {probes}")


def _probe_offsets(count: int) -> list[GaussianRational]:
    """Rational approximations of (1/1000) * k-th roots of unity."""
    out = []
    for k in range(count):
        angle = 2.0 * np.pi * k / count
        re = rat(Fraction(np.cos(angle) / 1000.0).limit_denominator(10**7))
        im = rat(Fraction(np.sin(angle) / 1000.0).limit_denominator(10**7))
        out.append(GaussianRational(re, im))
    return out


def is_jordan_stable(
    a: PolyMatrix,
    point: GaussianRational,
    probes: int = DEFAULT_PROBES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> StabilityVerdict:
    """Sound stability for non-candidates; probe-based refutation at candidates.

    Probes compare the Jordan shape at the point with numeric-mode shapes at
    nearby offsets; a difference refutes stability, agreement leaves the point
    undetermined (a finite probe cannot quantify over a neighborhood).
    """
    _check_settings(tolerance, probes)
    return _stability_verdict(a, point, jordan_instability_candidates(a), probes, tolerance)


def _stability_verdict(
    a: PolyMatrix,
    point: GaussianRational,
    cands: InstabilityCandidates,
    probes: int,
    tolerance: float,
) -> StabilityVerdict:
    pt = point if isinstance(point, GaussianRational) else GaussianRational(point)
    if not cands.contains(pt):
        return StabilityVerdict(
            point=pt,
            verdict="stable",
            profile_at_point=None,
            probe_profiles=(),
            probe_points=(),
            candidates=cands,
        )
    try:
        base = segre_at(a, pt, mode="exact")
    except JordanError:
        base = segre_at(a, pt, mode="numeric", tolerance=tolerance)
    probe_pts = []
    for delta in _probe_offsets(probes):
        candidate = pt + delta
        shrink = 0
        while cands.contains(candidate) and shrink < 8:
            delta = delta * GaussianRational(rat(1, 7))
            candidate = pt + delta
            shrink += 1
        probe_pts.append(candidate)
    profiles = tuple(
        segre_at(a, q, mode="numeric", tolerance=tolerance) for q in probe_pts
    )
    differs = any(p.shape() != base.shape() for p in profiles)
    return StabilityVerdict(
        point=pt,
        verdict="unstable" if differs else "undetermined",
        profile_at_point=base,
        probe_profiles=profiles,
        probe_points=tuple(probe_pts),
        candidates=cands,
    )


# ---------------------------------------------------------------------------
# Stable-point normalization


def stable_normalization(
    a: PolyMatrix,
    point: GaussianRational,
    eigenfunctions: list[RationalFunction],
) -> FuncMatrix:
    """H with H(z)^-1 Com A(z) H(z) = Com A(point), certified on a basis.

    The eigenvalue functions are caller-supplied and verified exactly:
    char(A(z)) must equal the product of (t - lambda_j(z))^{k_j} with k_j the
    algebraic multiplicities at the point.  The model family J(z) is the
    block-diagonal Jordan form with those eigenvalue functions; H is the
    kernel-bundle solution of A h = h J renormalized by the constant seed.
    """
    if len(a.variables) != 1:
        raise JordanError("stable_normalization requires a univariate family")
    pt = point if isinstance(point, GaussianRational) else GaussianRational(point)
    vs = a.variables
    n = a.rows

    profile = segre_at(a, pt, mode="exact")
    for f in eigenfunctions:
        if not f.defined_at([pt]):
            raise JordanError("eigenvalue function not defined at the point")
    values = [f.evaluate([pt]) for f in eigenfunctions]
    if len(set((v.re, v.im) for v in values)) != len(values):
        raise JordanError("eigenvalue functions must take distinct values at the point")
    by_value = {(ev.value.re, ev.value.im): ev for ev in profile.eigenvalues}
    matched = []
    for f, v in zip(eigenfunctions, values):
        key = (v.re, v.im)
        if key not in by_value:
            raise JordanError("eigenvalue function does not match an eigenvalue at the point")
        matched.append((f, by_value.pop(key)))
    if by_value:
        raise JordanError("eigenvalue functions do not cover all eigenvalues at the point")

    # verify char(A(z)) = prod (t - lambda_j(z))^{k_j} exactly
    char_coeffs = char_poly_coeffs(a)
    one = RationalFunction.constant(vs, GR_ONE)
    product = [one]
    for f, ev in matched:
        for _ in range(ev.multiplicity):
            product = _u_mul(product, [-f, one])
    expected = [RationalFunction(c) for c in reversed(char_coeffs)] + [one]
    if len(product) != len(expected) or any(
        product[i] != expected[i] for i in range(len(expected))
    ):
        raise JordanError("eigenfunction verification fails: product of factors is not char(A)")

    j = _model_family(matched, vs, n)
    j_at = j.evaluate([pt])
    a_at = a.evaluate([pt])
    seed = pointwise_similar(a_at, j_at, want_witness=True, seed=0)
    if not seed.similar or seed.witness is None:
        raise JordanError("seed construction fails: A(point) and J(point) are not similar")
    phi = seed.witness

    h = local_similarity(a, j, pt, phi).H
    phi_inv = linalg.invert(phi, GR_ONE, GR_ZERO)
    result = h * FuncMatrix.from_scalars(phi_inv, vs)

    _certify_commutant_conjugation(a, pt, result)
    return result


def _model_family(matched, vs, n) -> FuncMatrix:
    zero = RationalFunction.constant(vs, GR_ZERO)
    one = RationalFunction.constant(vs, GR_ONE)
    grid = [[zero for _ in range(n)] for _ in range(n)]
    offset = 0
    for f, ev in matched:
        sizes = sorted(ev.block_sizes(), reverse=True)
        for size in sizes:
            for i in range(size):
                grid[offset + i][offset + i] = f
                if i + 1 < size:
                    grid[offset + i][offset + i + 1] = one
            offset += size
    return FuncMatrix(grid)


def _certify_commutant_conjugation(a: PolyMatrix, pt: GaussianRational, h: FuncMatrix):
    """Exact membership of H^-1 C H in Com A(point) for a generic commutant basis C."""
    vs = a.variables
    n = a.rows
    one = RationalFunction.constant(vs, GR_ONE)
    zero = RationalFunction.constant(vs, GR_ZERO)
    generic_kernel = linalg.nullspace(sylvester_matrix(a, a).to_func().entries, one, zero)
    target = commutant_basis_at(a, pt)
    h_inv_rows = linalg.invert([list(r) for r in h.entries], one, zero)
    if h_inv_rows is None:
        raise JordanError("normalization is singular as a function family")
    h_inv = FuncMatrix(h_inv_rows)
    columns = [
        [RationalFunction.constant(vs, theta[i][jj]) for theta in target.basis]
        for i in range(n)
        for jj in range(n)
    ]
    # rows indexed like vec over (i, jj) row-major; consistent with rhs below
    for kernel_vec in generic_kernel:
        c = FuncMatrix(unvec(kernel_vec, n))
        x = h_inv * c * h
        rhs = [x.entries[i][jj] for i in range(n) for jj in range(n)]
        sol = linalg.solve(columns, rhs, zero)
        if sol is None:
            raise JordanError(
                "certification fails: conjugated commutant leaves Com A(point)"
            )
