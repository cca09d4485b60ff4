"""Jordan structure of matrix families: profiles, stability loci, normalization.

segre_at recovers the per-eigenvalue Jordan block multisets of A(point).
Exact mode reads them from local data of the pencil tI - A(point): its
determinant char(A(point)) must split over Q(i), and the blocks of an
eigenvalue lambda are the nonzero local Smith exponents of the pencil at
lambda (smith._local_echelon), lambda's orders in the invariant factors
(Gantmacher, The Theory of Matrices, vol. 1, ch. VI).  Numeric mode clusters
floating eigenvalues within a tolerance, reports cluster radii, and counts
blocks from the rank sequence of powers: with r_k = rank (A - lambda I)^k
and r_0 = n, the number of blocks of size k is r_{k-1} - 2 r_k + r_{k+1}.

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

The locus is computed on Q(i)[z] coefficient lists: the characteristic
polynomial by Faddeev-LeVerrier, the discriminants and cyclic-vector minors
as fraction-free determinants (algebra._u_det).  Q(i)(z) is used only in the
squarefree step below.

Three exact certificates shortcut the locus; each falls back to the general
path when it does not hold, so the answers are the same either way:
  - a nonzero discriminant of the characteristic polynomial itself proves it
    squarefree, and is then the branching discriminant; otherwise the
    squarefree part is taken over Q(i)(z);
  - when it is squarefree and has no common root with the cyclic-vector
    minors det[e_j, A e_j, ..., A^{n-1} e_j], A(xi) is non-derogatory at every
    xi and the jump locus is empty (jordan_instability_candidates), with no
    Smith form of the self-intertwiner matrix; otherwise that Smith form runs;
  - in root extraction, a trivial gcd of p and p' modulo a prime proves p
    squarefree (algebra._u_coprime_mod_p); otherwise the Euclidean squarefree
    part is taken.

stable_normalization realizes the conjugation H with
H^-1 Com A(z) H = Com A(point) near a stable point from caller-supplied,
exactly verified eigenvalue functions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

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
    _u_add,
    _u_coprime_mod_p,
    _u_deflate,
    _u_derivative,
    _u_det,
    _u_mul,
    _u_order,
    _u_squarefree,
    rat,
)
from .similarity import characteristic_pencil, local_similarity, pointwise_similar
from .smith import _local_echelon, invariant_factors
from .sylvester import ConstMatrix, sylvester_matrix, unvec

DEFAULT_TOLERANCE = 1e-9
DEFAULT_PROBES = 4
# each probe is one more numeric Jordan profile of the family
MAX_PROBES = 64


class JordanError(SimilitudeError):
    """Raised for splitting failures and verification failures."""


# ---------------------------------------------------------------------------
# Exact Gaussian-rational root extraction


_SNAP_BOUNDS = (1, 10, 100, 10**4, 10**6, 10**9, 10**12)


def gaussian_rational_roots(p: Poly) -> tuple[list[tuple[GaussianRational, int]], Poly]:
    """All roots of a univariate p lying in Q(i), with multiplicities.

    Numeric root candidates (of the squarefree part) are snapped to nearby
    Gaussian rationals: each coordinate's best approximations of denominator
    at most 1, 10, ..., 10^12, all read from one continued-fraction expansion
    (_snaps).  A snap is accepted only when it lies within half the distance
    from its approximation to the nearest other approximation, and when it
    satisfies p exactly; multiplicities come from exact deflation.  Each
    accepted root is deflated from the squarefree part too, and when what is
    left of that is linear, its root is read exactly as -c_0 / c_1.  Returns
    the roots and the (monic) cofactor with no Q(i) roots of small height.
    """
    if len(p.variables) != 1 or not p:
        raise JordanError("root extraction requires a nonzero univariate polynomial")
    coeffs = p.coefficients()
    lead_inv = coeffs[-1].inverse()
    work = [c * lead_inv for c in coeffs]

    # most inputs are squarefree, which one reduction modulo a prime proves
    squarefree = work if _u_coprime_mod_p(work, [_u_derivative(work)]) else _u_squarefree(work)
    # D * work lies in Z[i][t] with leading coefficient D, so a root u/v in
    # lowest terms has v | D, and its reduced denominator divides N(v) | D^2:
    # a snap whose denominator does not divide D^2 is no root
    clear = math.lcm(*(c._d for c in work))
    clear *= clear

    roots: list[tuple[GaussianRational, int]] = []
    numeric = []
    if len(squarefree) > 2:
        import numpy as np

        numeric = np.roots([c.to_complex() for c in reversed(squarefree)])
    for idx, approx in enumerate(numeric):
        # every other root lies next to its own approximation, at least
        # 2 * reach from this one, so a snap within reach cannot be one of them
        reach = min((abs(approx - x) for j, x in enumerate(numeric) if j != idx), default=math.inf) / 2
        snaps = zip(_SNAP_BOUNDS, _snaps(approx.real), _snaps(approx.imag))
        for bound, (re_num, re_den), (im_num, im_den) in snaps:
            if (
                abs(complex(re_num / re_den, im_num / im_den) - approx) < reach
                and not clear % re_den
                and not clear % im_den
            ):
                c = GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
                if not _u_deflate(work, c)[1]:
                    mult, work = _u_order(work, c)
                    squarefree = _u_deflate(squarefree, c)[0]
                    roots.append((c, mult))
                    break
            if bound >= clear:  # a part that moves past here has a denominator above D^2
                break
    if len(squarefree) == 2:  # one distinct root left: no snap is needed
        root = -squarefree[0] / squarefree[1]
        mult, work = _u_order(work, root)
        roots.append((root, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    cofactor = Poly.from_coefficients(p.variables, work)
    return roots, cofactor


def _snaps(x: float):
    """For each bound of _SNAP_BOUNDS in turn, Fraction(x).limit_denominator(bound) as (p, q).

    One continued-fraction expansion of x serves every bound (Knuth, TAOCP
    vol. 2, 4.5.3): the convergents p0/q0, p1/q1 and the complete quotient
    n/d reached under one bound are where the expansion resumes under the
    next.  Within a bound the answer is x itself when its denominator fits,
    else the closer of the last convergent p1/q1 and the semiconvergent
    (p0 + k p1)/(q0 + k q1) with the largest k that fits, p1/q1 on a tie.
    x lies between the two, which are 1/(q1 q) apart, q = q0 + k q1, and
    |x - p1/q1| = d / (q1 den); so p1/q1 is the closer or tied exactly when
    2 d q <= den.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    for bound in _SNAP_BOUNDS:
        if den <= bound:
            yield num, den
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        q = q0 + k * q1
        yield (p1, q1) if 2 * d * q <= den else (p0 + k * p1, q)


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier on coefficient lists)


def char_poly_coeffs(a: PolyMatrix) -> list[list[GaussianRational]]:
    """det(tI - A) of a univariate family as a list over t, constant term first.

    Each coefficient is a Q(i)[z] coefficient list, the last one [1].  With
    M_0 = 0 and c_0 = 1, M_k = A (M_{k-1} + c_{k-1} I) and c_k = -tr(M_k) / k
    (Faddeev-LeVerrier); the recurrence divides only by integers.  Only the
    trace of the last product M_n is read, so only its diagonal is formed.
    """
    if a.rows != a.cols:
        raise JordanError(f"Jordan data needs a square family, got {a.rows}x{a.cols}")
    lists = [[p.coefficients() for p in row] for row in a.entries]
    m = [[[] for _ in lists] for _ in lists]
    coeffs = [[GR_ONE]]
    for k in range(1, a.rows + 1):
        for i, row in enumerate(m):
            row[i] = _u_add(row[i], coeffs[-1])
        if k < a.rows:
            m = _mat_mul(lists, m)
            trace = reduce(_u_add, (row[i] for i, row in enumerate(m)))
        else:
            trace = reduce(_u_add, (_u_mul(x, y[i]) for i, row in enumerate(lists) for x, y in zip(row, m)))
        scale = GaussianRational(rat(-1, k))
        coeffs.append([c * scale for c in trace])
    return coeffs[::-1]


def _mat_mul(a: list, b: list) -> list:
    """A·B for square matrices of coefficient lists."""
    return [[reduce(_u_add, (_u_mul(x, y[j]) for x, y in zip(row, b))) for j in range(len(b))] for row in a]


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
    """Jordan profile of A(point) (or of a constant matrix when point is None).

    Exact mode takes char = det(tI - A(point)) as a fraction-free determinant
    (algebra._u_det) and its Q(i) roots with their multiplicities; it raises
    JordanError when char does not split over Q(i).  An eigenvalue's block
    sizes are the nonzero exponents of the local echelon of tI - A(point)
    there, and they must add up to its multiplicity.  Numeric mode needs no
    splitting.
    """
    _check_settings(tolerance)
    if isinstance(a, PolyMatrix):
        if point is None:
            raise JordanError("a family needs an evaluation point")
        a0 = a.evaluate([point] * len(a.variables))
    else:
        a0 = [list(row) for row in a]
    n = len(a0)
    if mode == "exact":
        return _segre_exact(a0, n)
    if mode == "numeric":
        return _segre_numeric(a0, n, tolerance)
    raise JordanError(f"unknown mode {mode!r}")


def _segre_exact(a0: ConstMatrix, n: int) -> JordanProfile:
    pencil = characteristic_pencil(a0)
    char = _u_det([[p.coefficients() for p in row] for row in pencil.entries])
    roots, cofactor = gaussian_rational_roots(Poly.from_coefficients(pencil.variables, char))
    if cofactor.total_degree() > 0:
        raise JordanError("characteristic polynomial does not split over Q(i)")
    out = []
    for value, multiplicity in roots:
        sizes = [k for k in _local_echelon(pencil, value).exponents() if k]
        if sum(sizes) != multiplicity:
            raise AssertionError(f"the Jordan blocks of {value} do not add up to its multiplicity")
        out.append(
            EigenvalueBlocks(
                value=value,
                multiplicity=multiplicity,
                blocks=tuple(sorted(Counter(sizes).items())),
            )
        )
    return JordanProfile(size=n, eigenvalues=tuple(out), mode="exact")


def _segre_numeric(a0: ConstMatrix, n: int, tolerance: float) -> JordanProfile:
    import numpy as np

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


def _t_derivative(p: list) -> list:
    """d/dt of a polynomial in t over Q(i)[z], as a list over t of coefficient lists."""
    return [[c * k for c in p[k]] for k in range(1, len(p))]


def _resultant(a: list, b: list) -> list:
    """Resultant in t of nonempty a and b over Q(i)[z], as lists over t of coefficient lists.

    The determinant of their Sylvester matrix, a Q(i)[z] coefficient list.
    """
    m = len(a) - 1
    n = len(b) - 1
    size = m + n
    if size == 0:
        return [GR_ONE]
    rows = []
    # n shifted copies of a's coefficients, then m of b's, highest degree first
    for count, coeffs in ((n, a), (m, b)):
        for i in range(count):
            row = [[]] * size
            row[i : i + len(coeffs)] = coeffs[::-1]
            rows.append(row)
    return _u_det(rows)


def jordan_instability_candidates(a: PolyMatrix) -> InstabilityCandidates:
    """Finite superset of the Jordan-unstable points of a univariate family.

    Union of the branching locus (discriminant of the squarefree part of the
    characteristic polynomial) and the commutant-jump locus (zeros of the last
    invariant factor of the self-intertwiner matrix M).

    Computed on Q(i)[z] coefficient lists: the resultants and the minors
    below are fraction-free (Bareiss) determinants, each division exact and
    asserted.  Q(i)(z) is used only in the Euclidean squarefree step, which
    runs only when the discriminant of char itself is zero.

    When char is squarefree, the Smith form of M is skipped on a certificate.
    Let kappa_j = det[e_j, A e_j, ..., A^{n-1} e_j] for the basis vectors e_j.
    Off the roots of disc, A(xi) has n distinct eigenvalues; if disc and the
    kappa_j have no common root, then at each root of disc some e_j is a
    cyclic vector of A(xi).  Either way A(xi) is non-derogatory, so its
    commutant has dimension n and rank M(xi) = n^2 - n at every xi.  The gcd
    of the (n^2 - n)-minors of M then has no root, so every invariant factor
    of M is 1 and the jump locus is empty.
    """
    if len(a.variables) != 1:
        raise JordanError("candidates require a univariate family")

    defining: list[Poly] = []

    # (a) branching locus
    vs = a.variables
    char = char_poly_coeffs(a)
    disc = _resultant(char, _t_derivative(char))
    squarefree = bool(disc)
    if not squarefree:
        part = _u_squarefree([RationalFunction._raw(vs, c, _RF_ONE) for c in char])
        # a monic polynomial's squarefree part lies in Q(i)[z][t] (Gauss's lemma)
        if any(len(c._den) > 1 for c in part):
            raise AssertionError("the squarefree part of char is not over Q(i)[z]")
        part = [c._num for c in part]
        disc = _resultant(part, _t_derivative(part))
    if len(disc) > 1:
        defining.append(Poly.from_coefficients(vs, disc))

    # (b) commutant-jump locus
    if not (squarefree and _u_coprime_mod_p(disc, _cyclic_minors(a))):
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


def _cyclic_minors(a: PolyMatrix) -> list[list[GaussianRational]]:
    """Coefficient lists of kappa_j = det[e_j, A e_j, ..., A^{n-1} e_j], one per j."""
    n = a.rows
    lists = [[p.coefficients() for p in row] for row in a.entries]
    # column j of A^k is A^k e_j
    powers = [[[[GR_ONE] if i == j else [] for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        powers.append(_mat_mul(lists, powers[-1]))
    return [_u_det([[pk[i][j] for pk in powers] for i in range(n)]) for j in range(n)]


def _isolating_boxes(p: Poly) -> list[tuple[complex, float]]:
    import numpy as np

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


def _check_settings(tolerance: float, probes: int = 1) -> None:
    """Reject a tolerance that is not finite and positive, or a probe count outside 1..MAX_PROBES."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise JordanError(f"tolerance must be finite and greater than 0, got {tolerance}")
    if not 1 <= probes <= MAX_PROBES:
        raise JordanError(f"probes must be between 1 and {MAX_PROBES}, got {probes}")


def _probe_offsets(count: int) -> list[GaussianRational]:
    """Rational approximations of (1/1000) * k-th roots of unity."""
    out = []
    for k in range(count):
        angle = 2.0 * math.pi * k / count
        re = Fraction(math.cos(angle) / 1000.0).limit_denominator(10**7)
        im = Fraction(math.sin(angle) / 1000.0).limit_denominator(10**7)
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
    cands = jordan_instability_candidates(a)
    if not cands.contains(point):
        return StabilityVerdict(
            point=point,
            verdict="stable",
            profile_at_point=None,
            probe_profiles=(),
            probe_points=(),
            candidates=cands,
        )
    try:
        base = segre_at(a, point, mode="exact")
    except JordanError:
        base = segre_at(a, point, mode="numeric", tolerance=tolerance)
    probe_pts = []
    for delta in _probe_offsets(probes):
        candidate = point + delta
        shrink = 0
        while cands.contains(candidate) and shrink < 8:
            delta = delta * GaussianRational(rat(1, 7))
            candidate = point + delta
            shrink += 1
        probe_pts.append(candidate)
    profiles = tuple(
        segre_at(a, q, mode="numeric", tolerance=tolerance) for q in probe_pts
    )
    differs = any(p.shape() != base.shape() for p in profiles)
    return StabilityVerdict(
        point=point,
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
) -> PolyMatrix:
    """H with H(z)^-1 Com A(z) H(z) = Com A(point), certified on a basis.

    The eigenvalue functions are caller-supplied and verified exactly:
    char(A(z)) must equal the product of (t - lambda_j(z))^{k_j} with k_j the
    algebraic multiplicities at the point.  The model family J(z) is the
    block-diagonal Jordan form with those eigenvalue functions; H is the
    kernel-bundle solution of A h = h J renormalized by the constant seed.
    """
    if len(a.variables) != 1:
        raise JordanError("stable_normalization requires a univariate family")
    vs = a.variables
    n = a.rows

    profile = segre_at(a, point, mode="exact")
    for f in eigenfunctions:
        if not f.defined_at([point]):
            raise JordanError("eigenvalue function not defined at the point")
    values = [f.evaluate([point]) for f in eigenfunctions]
    if len(set(values)) != len(values):
        raise JordanError("eigenvalue functions must take distinct values at the point")
    by_value = {ev.value: ev for ev in profile.eigenvalues}
    matched = []
    for f, v in zip(eigenfunctions, values):
        if v not in by_value:
            raise JordanError("eigenvalue function does not match an eigenvalue at the point")
        matched.append((f, by_value.pop(v)))
    if by_value:
        raise JordanError("eigenvalue functions do not cover all eigenvalues at the point")

    # verify char(A(z)) = prod (t - lambda_j(z))^{k_j} exactly, by deflation
    rest = [RationalFunction._raw(vs, c, _RF_ONE) for c in char_poly_coeffs(a)]
    for f, ev in matched:
        order, rest = _u_order(rest, f)
        if order != ev.multiplicity:
            raise JordanError(
                f"eigenfunction verification fails: t = {f} is a root of char(A) "
                f"of order {order}, not {ev.multiplicity}"
            )
    # the multiplicities add up to n, so what is left of the monic char(A) is 1
    if len(rest) != 1:
        raise AssertionError("multiplicities do not add up to the degree of char(A)")

    j = _model_family(matched, vs, n)
    j_at = j.evaluate([point])
    a_at = a.evaluate([point])
    seed = pointwise_similar(a_at, j_at, want_witness=True, seed=0)
    if not seed.similar or seed.witness is None:
        raise JordanError("seed construction fails: A(point) and J(point) are not similar")
    phi = seed.witness

    h = local_similarity(a, j, point, phi).H
    phi_inv = linalg.invert(phi)
    result = h * PolyMatrix.from_scalars(phi_inv, vs)

    _certify_commutant_conjugation(a, point, result)
    return result


def _model_family(matched, vs, n) -> PolyMatrix:
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
    return PolyMatrix(grid)


def _certify_commutant_conjugation(a: PolyMatrix, pt: GaussianRational, h: PolyMatrix):
    """Exact membership of X = H^-1 C H in Com A(point) for a generic commutant basis C.

    A constant basis of Com A(point) spans every solution of A(point) X =
    X A(point) over Q(i)(z), so X is a member exactly when it commutes.
    """
    generic_kernel = linalg.nullspace(sylvester_matrix(a, a).to_func().entries)
    h_inv_rows = linalg.invert(h.entries)
    if h_inv_rows is None:
        raise JordanError("normalization is singular as a function family")
    h_inv = PolyMatrix(h_inv_rows)
    a_at = PolyMatrix.from_scalars(a.evaluate([pt]), a.variables)
    for kernel_vec in generic_kernel:
        x = h_inv * PolyMatrix(unvec(kernel_vec, a.rows)) * h
        if a_at * x != x * a_at:
            raise JordanError("certification fails: conjugated commutant leaves Com A(point)")
