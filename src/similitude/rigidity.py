"""Machine verification of the explicit counterexample family and obstructions.

The family, for a rigidity level ell >= 0 in coordinates (z, w) with formal
conjugates (u, v):

    A = [[z^(2+l) w^(2+l), z^(3+l)], [w^(3+l), 0]]
    B = [[0, z^(3+l)], [w^(3+l), z^(2+l) w^(2+l)]]
    S = [[1, c_w], [-c_z, 1]],  c_z = u w^(2+l)/(zu+wv),  c_w = v z^(2+l)/(zu+wv)

S conjugates B to A with limited smoothness; the division identity
c_z z^(3+l) + c_w w^(3+l) = z^(2+l) w^(2+l) is an exact polynomial statement
once conjugates are formal variables.

jet_rigidity decides what truncated power-series solutions of a matrix
relation can look like at the origin.  The unknown n x n jet H is assembled
into an exact linear system on its Taylor coefficients; restriction to a
variety (full plane, the cusp z^p = w^q via z -> t^q, w -> t^p, or a union of
lines w = t_j z) is a re-keying of monomials.  Each equation is a sparse row
({column: coefficient}) and goes to linalg's sparse reduced echelon form as
it is.  The H(0) unknowns are numbered last, so that one form yields both the
jet nullity and, from its last block, the admissible values of H(0), without
a kernel basis of the whole jet.  Every retained equation up to the
truncation order is a complete constraint on a true holomorphic solution, so
a trivial projected solution space is a proof that H(0) is forced.

index_sets enumerates the exponent-collision sets of the cusp comparison
argument, winding_number certifies discrete curve indices, and
clutching_invertibility checks the explicit clutching matrix on the sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import (
    FuncMatrix,
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    RationalFunction,
    parse_gaussian_rational,
    rat,
)

FAMILY_VARS = ("z", "w")
CONJ_VARS = ("z", "w", "u", "v")


class RigidityError(ValueError):
    """Raised for invalid varieties, orders and curve data."""


# ---------------------------------------------------------------------------
# The counterexample family


@dataclass(frozen=True)
class CounterexampleFamily:
    ell: int
    A: PolyMatrix
    B: PolyMatrix
    S: FuncMatrix

    @property
    def c_z(self) -> RationalFunction:
        return -self.S.entries[1][0]

    @property
    def c_w(self) -> RationalFunction:
        return self.S.entries[0][1]


def build_family(ell: int) -> CounterexampleFamily:
    if ell < 0:
        raise RigidityError("ell must be nonnegative")
    z = Poly.variable(FAMILY_VARS, "z")
    w = Poly.variable(FAMILY_VARS, "w")
    zero = Poly.zero(FAMILY_VARS)
    zw = z ** (2 + ell) * w ** (2 + ell)
    a = PolyMatrix([[zw, z ** (3 + ell)], [w ** (3 + ell), zero]])
    b = PolyMatrix([[zero, z ** (3 + ell)], [w ** (3 + ell), zw]])

    z4, w4, u4, v4 = (Poly.variable(CONJ_VARS, name) for name in CONJ_VARS)
    denom = z4 * u4 + w4 * v4
    c_z = RationalFunction(u4 * w4 ** (2 + ell), denom)
    c_w = RationalFunction(v4 * z4 ** (2 + ell), denom)
    one = RationalFunction.constant(CONJ_VARS, GR_ONE)
    s = FuncMatrix([[one, c_w], [-c_z, one]])
    return CounterexampleFamily(ell=ell, A=a, B=b, S=s)


def verify_division_identity(ell: int) -> bool:
    """c_z z^(3+l) + c_w w^(3+l) = z^(2+l) w^(2+l), exactly, conjugates formal."""
    if ell < 0:
        raise RigidityError("ell must be nonnegative")
    z, w, u, v = (Poly.variable(CONJ_VARS, name) for name in CONJ_VARS)
    lhs = u * w ** (2 + ell) * z ** (3 + ell) + v * z ** (2 + ell) * w ** (3 + ell)
    rhs = z ** (2 + ell) * w ** (2 + ell) * (z * u + w * v)
    return not (lhs - rhs)


@dataclass(frozen=True)
class SmoothSimilarityReport:
    ell: int
    conjugation_exact: bool
    grid_points: int
    max_abs_czcw: float
    min_abs_det: float
    determinant_nonvanishing: bool
    degree_gap: int
    smoothness_class: int


def verify_smooth_similarity(ell: int, grid_points: int = 100) -> SmoothSimilarityReport:
    """Exactness of S B = A S after clearing the denominator, plus grid sanity.

    The grid substitutes u = conj(z), v = conj(w) numerically on a sample of
    the open unit ball and checks |c_z c_w| < 1, hence det S = 1 + c_z c_w is
    nonvanishing there.  The degree gap (numerator minus denominator total
    degree of c_z, c_w) records the algebraic skeleton of the smoothness
    class.
    """
    fam = build_family(ell)
    z, w, u, v = (Poly.variable(CONJ_VARS, name) for name in CONJ_VARS)
    denom = z * u + w * v
    one = Poly.constant(CONJ_VARS, GR_ONE)
    s_cleared = PolyMatrix(
        [
            [denom, v * z ** (2 + ell)],
            [-(u * w ** (2 + ell)), denom],
        ]
    )
    a4 = fam.A.map(lambda p: p.with_variables(CONJ_VARS))
    b4 = fam.B.map(lambda p: p.with_variables(CONJ_VARS))
    exact = (s_cleared * b4 - a4 * s_cleared).is_zero()

    side = max(1, int(math.isqrt(grid_points)))
    max_czcw = 0.0
    min_det = math.inf
    count = 0
    for jz in range(side):
        for jw in range(side):
            zz = 0.6 * cmath.exp(2j * math.pi * jz / side)
            ww = 0.5 * cmath.exp(2j * math.pi * (jw + 0.3) / side)
            norm2 = abs(zz) ** 2 + abs(ww) ** 2
            cz = zz.conjugate() * ww ** (2 + ell) / norm2
            cw = ww.conjugate() * zz ** (2 + ell) / norm2
            prod = abs(cz * cw)
            detval = abs(1 + cz * cw)
            max_czcw = max(max_czcw, prod)
            min_det = min(min_det, detval)
            count += 1

    gap_cz = fam.c_z.numerator.total_degree() - fam.c_z.denominator.total_degree()
    gap_cw = fam.c_w.numerator.total_degree() - fam.c_w.denominator.total_degree()
    if gap_cz != gap_cw:
        raise AssertionError("c_z and c_w degree gaps differ")
    return SmoothSimilarityReport(
        ell=ell,
        conjugation_exact=exact,
        grid_points=count,
        max_abs_czcw=max_czcw,
        min_abs_det=min_det,
        determinant_nonvanishing=max_czcw < 1.0,
        degree_gap=gap_cz,
        smoothness_class=ell,
    )


# ---------------------------------------------------------------------------
# Varieties


@dataclass(frozen=True)
class FullPlane:
    kind: str = "full_plane"

    def describe(self) -> str:
        return "full_plane"


@dataclass(frozen=True)
class Cusp:
    p: int
    q: int
    kind: str = "cusp"

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise RigidityError("cusp exponents must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise RigidityError("cusp exponents p, q must be coprime")

    def describe(self) -> str:
        return f"cusp({self.p},{self.q})"


@dataclass(frozen=True)
class Lines:
    slopes: tuple[GaussianRational, ...]
    kind: str = "lines"

    def __post_init__(self):
        keys = {(t.re, t.im) for t in self.slopes}
        if len(keys) != len(self.slopes):
            raise RigidityError("line slopes must be pairwise distinct")
        if not self.slopes:
            raise RigidityError("at least one line is required")

    def describe(self) -> str:
        return "lines(" + ",".join(str(t) for t in self.slopes) + ")"


Variety = FullPlane | Cusp | Lines


def parse_variety(text: str) -> Variety:
    """CLI grammar: 'full', 'cusp:P,Q', or 'lines:t1,t2,...'."""
    if text in ("full", "full_plane"):
        return FullPlane()
    if text.startswith("cusp:"):
        parts = text[len("cusp:"):].split(",")
        if len(parts) != 2:
            raise RigidityError("cusp variety needs exactly two exponents")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise RigidityError(f"cusp exponents must be integers: {text!r}") from None
        return Cusp(p=p, q=q)
    if text.startswith("lines:"):
        slopes = tuple(
            parse_gaussian_rational(s) for s in text[len("lines:"):].split(",") if s
        )
        return Lines(slopes=slopes)
    raise RigidityError(f"unknown variety {text!r}")


def default_order(variety: Variety, ell: int) -> int:
    """Smallest truncation at which the coefficient-isolation comparisons exist."""
    if isinstance(variety, Cusp):
        return (ell + 3) * (variety.p + variety.q)
    return 2 * ell + 4


# ---------------------------------------------------------------------------
# Jet rigidity


RELATIONS = ("AHeqHB", "HAeqBH", "AHeqHA")


@dataclass(frozen=True)
class JetRigidityResult:
    relation: str
    variety: Variety
    order: int
    solution_space: tuple[tuple[GaussianRational, ...], ...]
    jet_nullity: int
    n: int

    def is_zero_space(self) -> bool:
        return not self.solution_space

    def dimension(self) -> int:
        return len(self.solution_space)

    def is_scalar_line(self) -> bool:
        """True iff the admissible values of H(0) are exactly the multiples of I."""
        if len(self.solution_space) != 1:
            return False
        v = self.solution_space[0]
        n = self.n
        eye = [GR_ONE if (i % n) == (i // n) else GR_ZERO for i in range(n * n)]
        pivot = next((x for x in v if x), None)
        if pivot is None:
            return False
        scaled = [x / pivot for x in v]
        return scaled == eye

    def contains_invertible(self) -> bool:
        """Whether some admissible H(0) is invertible (det not identically zero on the span)."""
        if not self.solution_space:
            return False
        k = len(self.solution_space)
        xs = tuple(f"x{i}" for i in range(k))
        units = [tuple(int(s == t) for s in range(k)) for t in range(k)]
        n = self.n
        entries = [
            [Poly(xs, {e: v[i * n + j] for e, v in zip(units, self.solution_space)}) for j in range(n)]
            for i in range(n)
        ]
        return bool(linalg.det(entries, Poly.constant(xs, GR_ONE), Poly.zero(xs)))


def _unknown_monomials(variety: Variety, order: int) -> list[tuple[int, int]]:
    out = []
    if isinstance(variety, Cusp):
        for j in range(order // variety.q + 1):
            for k in range((order - j * variety.q) // variety.p + 1):
                out.append((j, k))
    else:
        for j in range(order + 1):
            for k in range(order - j + 1):
                out.append((j, k))
    out.sort(key=lambda jk: (jk[0] + jk[1], jk))
    return out


def jet_rigidity(
    a: PolyMatrix,
    b: PolyMatrix,
    relation: str,
    variety: Variety,
    order: int,
) -> JetRigidityResult:
    """Exact solution space of the truncated matrix relation on a variety.

    Builds the linear system on the Taylor coefficients of the unknown jet H
    (coefficients h_{jk} with j+k <= order, or weighted degree jq+kp <= order
    on the cusp), restricts the relation to the variety, retains every
    monomial constraint up to the order, eliminates exactly and reads the H(0)
    projection from the last echelon block (`linalg.projected_nullspace`).
    """
    if order < 1:
        raise RigidityError("order must be at least 1")
    if relation not in RELATIONS:
        raise RigidityError(f"unknown relation {relation!r}")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise RigidityError("A and B must be square and of equal size")
    if len(a.variables) != 2 or a.variables != b.variables:
        raise RigidityError("A and B must share one two-variable list")
    n = a.rows

    monos = _unknown_monomials(variety, order)
    # monos starts with (0, 0): moving it last gives the H(0) unknowns the
    # last n^2 columns, where projected_nullspace reads them
    col_index: dict[tuple, int] = {}
    for jk in monos[1:] + monos[:1]:
        for r in range(n):
            for c in range(n):
                col_index[(r, c, jk[0], jk[1])] = len(col_index)

    rows: dict[tuple, dict[int, GaussianRational]] = {}

    slope_powers: list[dict[int, GaussianRational]] = []
    if isinstance(variety, Lines):
        slope_powers = [dict() for _ in variety.slopes]

    def slope_pow(line: int, e: int) -> GaussianRational:
        cache = slope_powers[line]
        val = cache.get(e)
        if val is None:
            val = variety.slopes[line] ** e
            cache[e] = val
        return val

    def contribute(entry_rc, h_row, h_col, factor: Poly, sign: int):
        for mu, gamma in factor.terms.items():
            coeff = gamma if sign > 0 else -gamma
            for (j, k) in monos:
                dz = mu[0] + j
                dw = mu[1] + k
                col = col_index[(h_row, h_col, j, k)]
                if isinstance(variety, FullPlane):
                    if dz + dw > order:
                        continue
                    _row_add(rows, (entry_rc, dz + dw, dz, dw), col, coeff)
                elif isinstance(variety, Cusp):
                    e = variety.q * dz + variety.p * dw
                    if e > order:
                        continue
                    _row_add(rows, (entry_rc, e), col, coeff)
                else:
                    if dz + dw > order:
                        continue
                    for line in range(len(variety.slopes)):
                        scaled = coeff * slope_pow(line, dw)
                        if scaled:
                            _row_add(rows, (entry_rc, line, dz + dw), col, scaled)

    for r in range(n):
        for c in range(n):
            entry_rc = (r, c)
            for s in range(n):
                if relation == "AHeqHB":
                    contribute(entry_rc, s, c, a.entries[r][s], +1)
                    contribute(entry_rc, r, s, b.entries[s][c], -1)
                elif relation == "AHeqHA":
                    contribute(entry_rc, s, c, a.entries[r][s], +1)
                    contribute(entry_rc, r, s, a.entries[s][c], -1)
                else:  # HAeqBH
                    contribute(entry_rc, r, s, a.entries[s][c], +1)
                    contribute(entry_rc, s, c, b.entries[r][s], -1)

    width = len(col_index)
    rank, basis = linalg.projected_nullspace(
        [rows[key] for key in sorted(rows)], width, n * n, GR_ONE, GR_ZERO
    )
    return JetRigidityResult(
        relation=relation,
        variety=variety,
        order=order,
        solution_space=tuple(tuple(v) for v in basis),
        jet_nullity=width - rank,
        n=n,
    )


def _row_add(rows, key, col, coeff):
    row = rows.get(key)
    if row is None:
        row = {}
        rows[key] = row
    acc = row.get(col)
    row[col] = coeff if acc is None else acc + coeff


# ---------------------------------------------------------------------------
# Index sets of the cusp comparison argument


@dataclass(frozen=True)
class IndexSets:
    p: int
    q: int
    ell: int
    A_beta: frozenset
    A_gamma: frozenset
    B_alpha: frozenset
    B_gamma: frozenset
    C_alpha: frozenset
    C_beta: frozenset

    def all_empty(self) -> bool:
        return not (
            self.A_beta
            or self.A_gamma
            or self.B_alpha
            or self.B_gamma
            or self.C_alpha
            or self.C_beta
        )

    def as_dict(self) -> dict:
        return {
            "A_beta": sorted(self.A_beta),
            "A_gamma": sorted(self.A_gamma),
            "B_alpha": sorted(self.B_alpha),
            "B_gamma": sorted(self.B_gamma),
            "C_alpha": sorted(self.C_alpha),
            "C_beta": sorted(self.C_beta),
        }


def _solve_exponent_equation(target: int, jq_offset: int, kp_offset: int, p: int, q: int):
    """Nonnegative (j, k) with (j + jq_offset) q + (k + kp_offset) p = target."""
    out = set()
    j = 0
    while (j + jq_offset) * q <= target:
        rem = target - (j + jq_offset) * q - kp_offset * p
        if rem >= 0 and rem % p == 0:
            out.add((j, rem // p))
        j += 1
    return frozenset(out)


def index_sets(p: int, q: int, ell: int) -> IndexSets:
    """Exhaustive enumeration of the six exponent-collision sets.

    Each set collects the (j, k) whose monomial, restricted to z = t^q,
    w = t^p, lands on one of the three compared powers t^{(l+3)q}, t^{(l+3)p},
    t^{(l+2)(p+q)} from the wrong summand.
    """
    if p < 1 or q < 1:
        raise RigidityError("p and q must be positive")
    if ell < 0:
        raise RigidityError("ell must be nonnegative")
    t_a = (ell + 3) * q
    t_b = (ell + 3) * p
    t_c = (ell + 2) * (p + q)
    return IndexSets(
        p=p,
        q=q,
        ell=ell,
        # alpha-terms carry z^{l+3}: exponent (j+l+3) q + k p
        # beta-terms carry w^{l+3}: exponent j q + (k+l+3) p
        # gamma-terms carry z^{l+2} w^{l+2}: exponent (j+l+2) q + (k+l+2) p
        A_beta=_solve_exponent_equation(t_a, 0, ell + 3, p, q),
        A_gamma=_solve_exponent_equation(t_a, ell + 2, ell + 2, p, q),
        B_alpha=_solve_exponent_equation(t_b, ell + 3, 0, p, q),
        B_gamma=_solve_exponent_equation(t_b, ell + 2, ell + 2, p, q),
        C_alpha=_solve_exponent_equation(t_c, ell + 3, 0, p, q),
        C_beta=_solve_exponent_equation(t_c, 0, ell + 3, p, q),
    )


def cusp_coefficient_support(p: int, q: int, ell: int) -> dict:
    """Direct enumeration of which Taylor coefficients hit the three compared powers.

    Independent cross-check of index_sets: scans all (j, k) up to the target
    exponent instead of solving the collision equations.
    """
    targets = {
        "t_alpha": (ell + 3) * q,
        "t_beta": (ell + 3) * p,
        "t_gamma": (ell + 2) * (p + q),
    }
    out = {}
    for name, target in targets.items():
        support = {"alpha": set(), "beta": set(), "gamma": set()}
        for j in range(target + 1):
            for k in range(target + 1):
                if (j + ell + 3) * q + k * p == target:
                    support["alpha"].add((j, k))
                if j * q + (k + ell + 3) * p == target:
                    support["beta"].add((j, k))
                if (j + ell + 2) * q + (k + ell + 2) * p == target:
                    support["gamma"].add((j, k))
        out[name] = {k2: frozenset(v) for k2, v in support.items()}
    return out


# ---------------------------------------------------------------------------
# Vandermonde determinant


def vandermonde_check(t_list: Sequence[GaussianRational]) -> tuple[bool, GaussianRational]:
    """Exact determinant of [t_i^j]; nonzero iff the nodes are pairwise distinct."""
    nodes = [t if isinstance(t, GaussianRational) else GaussianRational(t) for t in t_list]
    m = len(nodes)
    if m == 0:
        return True, GR_ONE
    grid = [[nodes[i] ** j for j in range(m)] for i in range(m)]
    d = linalg.det(grid, GR_ONE, GR_ZERO)
    return bool(d), d


def vandermonde_product(t_list: Sequence[GaussianRational]) -> GaussianRational:
    """The closed form prod_{i<j} (t_j - t_i) of the same determinant."""
    nodes = [t if isinstance(t, GaussianRational) else GaussianRational(t) for t in t_list]
    acc = GR_ONE
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            acc = acc * (nodes[j] - nodes[i])
    return acc


# ---------------------------------------------------------------------------
# Winding numbers


def winding_number(samples: Sequence[complex]) -> int:
    """Certified index of a sampled closed curve that never hits zero.

    Sums principal-branch argument increments around the loop (the closure
    segment is implied); each increment must stay strictly below pi in
    magnitude and the total must land near an integer multiple of 2 pi,
    otherwise the curve is undersampled.
    """
    pts = [complex(s) for s in samples]
    if not pts:
        raise RigidityError("empty curve")
    for s in pts:
        if s == 0:
            raise RigidityError("zero sample on the curve")
    total = 0.0
    count = len(pts)
    for i in range(count):
        a = pts[i]
        b = pts[(i + 1) % count]
        step = cmath.phase(b / a)
        if abs(step) >= math.pi - 1e-9:
            raise RigidityError("density violation: consecutive arguments differ by >= pi")
        total += step
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.25:
        raise RigidityError("density violation: accumulated argument is far from an integer")
    return int(nearest)


# ---------------------------------------------------------------------------
# Clutching matrix on the sphere


@dataclass(frozen=True)
class ClutchingReport:
    epsilon: object
    grid: int
    min_re_det: float
    min_re_det_transition_band: float
    chi_zero_band_all_one: bool
    bound_holds: bool
    min_re_det_exact: str
    samples: int


def clutching_invertibility(epsilon, grid_density: int) -> ClutchingReport:
    """Exact evaluation of det C_+ on a grid of the real-sphere part of U_+.

    C_+ = [[chi h, 1 - chi], [chi - 1, chi h*]] with the piecewise-linear cap
    function chi (1 below epsilon, 0 above 2 epsilon in the third coordinate).
    On the real sphere h h* = x1^2 + x2^2 = 1 - x3^2 exactly, so
    det C_+ = chi^2 (1 - x3^2) + (1 - chi)^2 is a rational number at rational
    grid heights; the reported minima are exact.  The verified mechanism:
    det = 1 where chi = 0, and the real part of det stays above 1/2 on the
    chi in (0, 1] band at the pinned grid.
    """
    eps = rat(epsilon)
    if not (0 < eps < rat(1, 4)):
        raise RigidityError("epsilon must satisfy 0 < epsilon < 1/4")
    if grid_density < 2:
        raise RigidityError("grid density must be at least 2")

    n = grid_density
    min_det = None
    min_band = None
    chi_zero_ok = True
    samples = 0
    for k in range(n):
        # midpoint heights in (-eps, 1): strictly inside the chart
        x3 = -eps + (1 + eps) * rat(2 * k + 1, 2 * n)
        if x3 <= eps:
            chi = rat(1)
        elif x3 < 2 * eps:
            chi = (2 * eps - x3) / eps
        else:
            chi = rat(0)
        hh = 1 - x3 * x3
        detval = chi * chi * hh + (1 - chi) * (1 - chi)
        # the angular grid dimension: det C_+ is angle-independent on the
        # real sphere, so the n angle samples share one exact value
        samples += n
        if min_det is None or detval < min_det:
            min_det = detval
        if chi > 0:
            if min_band is None or detval < min_band:
                min_band = detval
        else:
            if detval != 1:
                chi_zero_ok = False
    bound = chi_zero_ok and min_band is not None and min_band >= rat(1, 2)
    return ClutchingReport(
        epsilon=eps,
        grid=n,
        min_re_det=float(min_det),
        min_re_det_transition_band=float(min_band) if min_band is not None else float("nan"),
        chi_zero_band_all_one=chi_zero_ok,
        bound_holds=bound,
        min_re_det_exact=str(min_det),
        samples=samples,
    )
