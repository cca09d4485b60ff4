"""Machine verification of the explicit counterexample family and obstructions.

The family, for a rigidity level ell >= 0 in coordinates (z, w) with formal
conjugates (u, v):

    A = [[z^(2+l) w^(2+l), z^(3+l)], [w^(3+l), 0]]
    B = [[0, z^(3+l)], [w^(3+l), z^(2+l) w^(2+l)]]
    S = [[1, c_w], [-c_z, 1]],  c_z = u w^(2+l)/(zu+wv),  c_w = v z^(2+l)/(zu+wv)

S conjugates B to A with limited smoothness.  It is kept as one polynomial
matrix over one denominator, (zu+wv) S, so the division identity
c_z z^(3+l) + c_w w^(3+l) = z^(2+l) w^(2+l) and S B = A S are exact
polynomial statements once conjugates are formal variables.

jet_rigidity decides what truncated power-series solutions of a matrix
relation can look like at the origin.  Each relation reads L H - H R = 0
for one pair (L, R) of A and B, so its equations are the rows of
M = I (x) L - R^T (x) I from sylvester's one builder.  The unknown n x n jet
H is assembled into an exact linear system on its Taylor coefficients.  Each
variety has one weight (a, b): the cusp z^p = w^q is the one branch
(t^q, t^p), a union of lines w = s z has one branch (t, s t) per slope, and
the full plane is the weight (1, 1).  The unknowns are listed by weight, so
each term of M meets only the unknowns whose product with it stays within
the order.  On the plane each monomial z^j w^k keeps its own row.  On a
curve z^j w^k restricts to s^k t^(aj+bk) on each branch, and the branch
rows of one power of t are replaced by the rows whose coefficients are the
remainders of s^k mod prod (s - s_b): they span the same space, at most
one row per branch (a cusp is the one slope 1).  Each equation is a sparse
row ({column: coefficient}), and linalg eliminates the rows forward only.
The H(0) unknowns are numbered last, so that the rows leading in their
columns yield the admissible values of H(0), and the number of leading rows
the jet nullity, without a kernel basis of the whole jet.  Every retained
equation up to the truncation order is a complete constraint on a true
holomorphic solution, so a trivial projected solution space is a proof that
H(0) is forced.

index_sets enumerates the exponent-collision sets of the cusp comparison
argument, winding_number certifies discrete curve indices, and
clutching_invertibility checks the explicit clutching matrix on the sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import (
    GaussianRational,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    SimilitudeError,
    parse_gaussian_rational,
    rat,
)
from .sylvester import _sylvester_entries, invertible_member

FAMILY_VARS = ("z", "w")
CONJ_VARS = ("z", "w", "u", "v")

# Input caps, checked before any work.  MAX_ORDER admits the default order
# (ell+3)(p+q) of every cusp with p <= 30 and ell <= 4 (at most 413).  On a
# 2-vCPU Xeon the full plane at order 256 took 0.8-1.0 s and verify-paper at
# ell = 32 took 3.2-3.4 s; the clutching grid costs one exact evaluation per
# height.
MAX_ELL = 32
MAX_ORDER = 512
MAX_GRID = 4096


class RigidityError(SimilitudeError):
    """Raised for invalid varieties, orders and curve data."""


# ---------------------------------------------------------------------------
# The counterexample family


@dataclass(frozen=True)
class CounterexampleFamily:
    """A, B over FAMILY_VARS; S = S_cleared / denominator over CONJ_VARS."""

    ell: int
    A: PolyMatrix
    B: PolyMatrix
    S_cleared: PolyMatrix
    denominator: Poly


def _check_ell(ell: int) -> None:
    if not 0 <= ell <= MAX_ELL:
        raise RigidityError(f"ell must be between 0 and {MAX_ELL}, got {ell}")


def _mono(*expo: int, coeff=1) -> Poly:
    """The monomial with these exponents over FAMILY_VARS (two of them) or CONJ_VARS (four)."""
    return Poly.monomial(FAMILY_VARS if len(expo) == 2 else CONJ_VARS, expo, coeff)


def build_family(ell: int) -> CounterexampleFamily:
    _check_ell(ell)
    e, f = 2 + ell, 3 + ell
    zero = Poly.zero(FAMILY_VARS)
    a = PolyMatrix([[_mono(e, e), _mono(f, 0)], [_mono(0, f), zero]])
    b = PolyMatrix([[zero, _mono(f, 0)], [_mono(0, f), _mono(e, e)]])
    # (zu + wv) S = [[zu + wv, v z^e], [-u w^e, zu + wv]]
    denom = _mono(1, 0, 1, 0) + _mono(0, 1, 0, 1)
    s_cleared = PolyMatrix([[denom, _mono(e, 0, 0, 1)], [_mono(0, e, 1, 0, coeff=-1), denom]])
    return CounterexampleFamily(ell=ell, A=a, B=b, S_cleared=s_cleared, denominator=denom)


def verify_division_identity(ell: int) -> bool:
    """c_z z^(3+l) + c_w w^(3+l) = z^(2+l) w^(2+l), exactly, conjugates formal."""
    _check_ell(ell)
    e, f = 2 + ell, 3 + ell
    # (u w^e) z^f + (v z^e) w^f against z^e w^e (zu + wv), over (z, w, u, v)
    lhs = _mono(0, e, 1, 0) * _mono(f, 0, 0, 0) + _mono(e, 0, 0, 1) * _mono(0, f, 0, 0)
    rhs = _mono(e, e, 0, 0) * (_mono(1, 0, 1, 0) + _mono(0, 1, 0, 1))
    return not (lhs - rhs)


@dataclass(frozen=True)
class SmoothSimilarityReport:
    ell: int
    conjugation_exact: bool
    max_abs_czcw: float
    czcw_bound: Fraction
    determinant_nonvanishing: bool
    degree_gap: int
    smoothness_class: int


def verify_smooth_similarity(ell: int) -> SmoothSimilarityReport:
    """Exactness of S B = A S after clearing the denominator, and det S != 0.

    With u = conj(z), v = conj(w), |c_z c_w| = |z|^(3+l) |w|^(3+l) / (|z|^2 + |w|^2)^2,
    and AM-GM (|z| |w| <= (|z|^2 + |w|^2) / 2) bounds it by
    (|z|^2 + |w|^2)^(1+l) / 2^(3+l) <= 2^-(3+l) < 1 on the unit ball.  So
    det S = 1 + c_z c_w is nonvanishing there, decided by that exact bound.
    A 10 x 10 grid on the circles |z| = 0.6, |w| = 0.5 only screens it: a
    float value above the bound is a program error.  The degree gap
    (numerator minus denominator total degree of c_z, c_w) records the
    algebraic skeleton of the smoothness class.
    """
    fam = build_family(ell)
    s_cleared = fam.S_cleared
    a4 = fam.A.map(lambda p: p.with_variables(CONJ_VARS))
    b4 = fam.B.map(lambda p: p.with_variables(CONJ_VARS))
    exact = (s_cleared * b4 - a4 * s_cleared).is_zero()

    side = 10
    max_czcw = 0.0
    for jz in range(side):
        for jw in range(side):
            zz = 0.6 * cmath.exp(2j * math.pi * jz / side)
            ww = 0.5 * cmath.exp(2j * math.pi * (jw + 0.3) / side)
            norm2 = abs(zz) ** 2 + abs(ww) ** 2
            cz = zz.conjugate() * ww ** (2 + ell) / norm2
            cw = ww.conjugate() * zz ** (2 + ell) / norm2
            max_czcw = max(max_czcw, abs(cz * cw))

    bound = Fraction(1, 2 ** (3 + ell))
    if max_czcw > bound:
        raise AssertionError("|c_z c_w| on the grid exceeds its proven bound")

    gap_cz = s_cleared.entries[1][0].total_degree() - fam.denominator.total_degree()
    gap_cw = s_cleared.entries[0][1].total_degree() - fam.denominator.total_degree()
    if gap_cz != gap_cw:
        raise AssertionError("c_z and c_w degree gaps differ")
    return SmoothSimilarityReport(
        ell=ell,
        conjugation_exact=exact,
        max_abs_czcw=max_czcw,
        czcw_bound=bound,
        determinant_nonvanishing=bound < 1,
        degree_gap=gap_cz,
        smoothness_class=ell,
    )


# ---------------------------------------------------------------------------
# Varieties


@dataclass(frozen=True)
class FullPlane:
    weight = (1, 1)  # one row per monomial z^j w^k

    def describe(self) -> str:
        return "full_plane"


@dataclass(frozen=True)
class Cusp:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise RigidityError("cusp exponents must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise RigidityError("cusp exponents p, q must be coprime")

    def describe(self) -> str:
        return f"cusp({self.p},{self.q})"

    # the one branch t -> (t^q, 1 t^p)
    @property
    def weight(self) -> tuple[int, int]:
        return (self.q, self.p)

    @property
    def slopes(self) -> tuple[GaussianRational, ...]:
        return (GR_ONE,)


@dataclass(frozen=True)
class Lines:
    slopes: tuple[GaussianRational, ...]
    weight = (1, 1)  # the branches t -> (t, s t)

    def __post_init__(self):
        if len(set(self.slopes)) != len(self.slopes):
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
        items = text[len("lines:"):].split(",")
        if "" in items:
            raise RigidityError(f"empty line slope in {text!r}")
        return Lines(slopes=tuple(parse_gaussian_rational(s) for s in items))
    raise RigidityError(f"unknown variety {text!r}")


def default_order(variety: Variety, ell: int) -> int:
    """Smallest truncation at which the coefficient-isolation comparisons exist."""
    if isinstance(variety, Cusp):
        return (ell + 3) * (variety.p + variety.q)
    return 2 * ell + 4


# ---------------------------------------------------------------------------
# Jet rigidity


# (L, R) of each relation, read as L H - H R = 0: H A = B H is B H - H A = 0
_OPERANDS = {"AHeqHB": "AB", "HAeqBH": "BA", "AHeqHA": "AA"}
RELATIONS = tuple(_OPERANDS)


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
        """Whether some admissible H(0) is invertible, by sylvester.invertible_member."""
        n = self.n
        grids = [[v[i * n : i * n + n] for i in range(n)] for v in self.solution_space]
        return invertible_member(grids) is not None


def _unknown_monomials(a: int, b: int, order: int) -> list[tuple[int, int, int]]:
    """(a j + b k, j, k) of the unknowns h_jk with a j + b k <= order, by weight."""
    return sorted(
        (a * j + b * k, j, k) for j in range(order // a + 1) for k in range((order - a * j) // b + 1)
    )


def _remainders(slopes: Sequence[GaussianRational], top: int) -> list[list[tuple[int, GaussianRational]]]:
    """Coefficients of s^d mod P, P = prod (s - s_b), for d = 0..top, as sparse (i, c) lists.

    s_b^d = sum_i [s^d mod P]_i s_b^i at every root s_b of P, so the rows
    sum_d s_b^d C_d of the branches and the rows sum_d [s^d mod P]_i C_d span
    the same space: [s_b^i] is an invertible Vandermonde matrix.
    """
    # P, monic, from its constant term up
    poly = [GR_ONE]
    for s in slopes:
        poly = [-s * poly[0]] + [x - s * y for x, y in zip(poly, poly[1:])] + [GR_ONE]
    m = len(slopes)
    rem = [GR_ONE] + [GR_ZERO] * (m - 1)
    table = []
    for _ in range(top + 1):
        table.append([(i, x) for i, x in enumerate(rem) if x])
        # s * rem mod P: the term lead s^m becomes lead (s^m - P)
        lead = rem[-1]
        rem = [GR_ZERO] + rem[:-1]
        if lead:
            rem = [x.sub_mul(lead, c) for x, c in zip(rem, poly)]
    return table


def jet_rigidity(
    a: PolyMatrix,
    b: PolyMatrix,
    relation: str,
    variety: Variety,
    order: int,
) -> JetRigidityResult:
    """Exact solution space of the truncated matrix relation on a variety.

    Each relation reads L H - H R = 0 with (L, R) = _OPERANDS[relation], so
    its equations are the rows of M = I (x) L - R^T (x) I from the one
    builder in `sylvester`.  The jet holds the h_jk with a j + b k <= order
    for the variety's weight (a, b), listed by weight, so each term gamma
    z^mu of an entry of M walks the list only up to order - weight(mu).  On
    the plane, the term's product with h_jk is one row per monomial
    z^dz w^dw.  On a curve of branches t -> (t^a, s_b t^b) it lands on
    s_b^dw t^e, e = a dz + b dw, and the branch rows of one t^e are replaced
    by the rows i with coefficients [s^dw mod P]_i (`_remainders`).  The
    system is eliminated exactly and the H(0) projection is read from the
    rows that pivot in its columns (`linalg.projected_nullspace`).
    """
    if not 1 <= order <= MAX_ORDER:
        raise RigidityError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    if relation not in RELATIONS:
        raise RigidityError(f"unknown relation {relation!r}")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise RigidityError("A and B must be square and of equal size")
    if len(a.variables) != 2 or a.variables != b.variables:
        raise RigidityError("A and B must share one two-variable list")
    n = a.rows
    left, right = ({"A": a, "B": b}[name].entries for name in _OPERANDS[relation])

    plane = isinstance(variety, FullPlane)
    wz, ww = variety.weight
    monos = _unknown_monomials(wz, ww, order)
    # monos runs by weight from (0, 0), so numbering its blocks of n^2
    # columns heaviest first gives the H(0) unknowns the last n^2 columns,
    # where projected_nullspace reads them
    last = len(monos) - 1
    unknowns = [(wt, j, k, (last - index) * n * n) for index, (wt, j, k) in enumerate(monos)]
    table = None if plane else _remainders(variety.slopes, order // ww)

    rows: dict[tuple, dict[int, GaussianRational]] = {}
    # row rho of M is entry (rho % n, rho // n) of L H - H R, and its column
    # kappa multiplies H[kappa % n][kappa // n], at column block + (kappa % n) n + kappa // n
    for rho, m_row in enumerate(_sylvester_entries(left, right)):
        entry = (rho % n, rho // n)
        for kappa, factor in enumerate(m_row):
            offset = (kappa % n) * n + kappa // n
            for (mz, mw), gamma in factor.terms.items():
                weight = wz * mz + ww * mw
                budget = order - weight
                if not plane:
                    # gamma [s^dw mod P] for dw = mw + k, k = 0..budget // ww
                    scaled = [[(i, gamma * r) for i, r in rem] for rem in table[mw : mw + budget // ww + 1]]
                for wt, j, k, block in unknowns:
                    if wt > budget:
                        break
                    col = block + offset
                    if plane:
                        _row_add(rows, (entry, weight + wt, mz + j, mw + k), col, gamma)
                    else:
                        for i, c in scaled[k]:
                            _row_add(rows, (entry, weight + wt, i), col, c)

    width = len(monos) * n * n
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
    _check_ell(ell)
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
    m = len(t_list)
    if m == 0:
        return True, GR_ONE
    grid = [[t_list[i] ** j for j in range(m)] for i in range(m)]
    d = linalg.det(grid)
    return bool(d), d


def vandermonde_product(t_list: Sequence[GaussianRational]) -> GaussianRational:
    """The closed form prod_{i<j} (t_j - t_i) of the same determinant."""
    acc = GR_ONE
    for i in range(len(t_list)):
        for j in range(i + 1, len(t_list)):
            acc = acc * (t_list[j] - t_list[i])
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
    det_lower_bound: Fraction
    invertible_on_chart: bool


def clutching_invertibility(epsilon, grid_density: int) -> ClutchingReport:
    """Exact evaluation of det C_+ on a grid of the real-sphere part of U_+.

    C_+ = [[chi h, 1 - chi], [chi - 1, chi h*]] with the piecewise-linear cap
    function chi (1 below epsilon, 0 above 2 epsilon in the third coordinate).
    On the real sphere h h* = x1^2 + x2^2 = 1 - x3^2 exactly, so
    det C_+ = chi^2 (1 - x3^2) + (1 - chi)^2 is a rational number at rational
    grid heights; the reported minima are exact.  `min_re_det`,
    `min_re_det_transition_band` and `bound_holds` describe the grid: det = 1
    where chi = 0, and at the pinned grid det stays above 1/2 on the
    chi in (0, 1] band.  Its infimum on the band is below 1/2, so other grids
    miss that bound.

    `det_lower_bound` = (1 - 4 eps^2)/(2 - 4 eps^2) holds on the whole chart,
    not only on the grid: for h = 1 - x3^2 the minimum over chi of
    chi^2 h + (1 - chi)^2 is h/(1 + h), which grows with h, and h > 1 - 4 eps^2
    on the band; chi = 1 gives 1 - x3^2 >= 1 - eps^2 and chi = 0 gives 1, both
    larger.  `invertible_on_chart` is decided by that bound being positive.
    """
    eps = rat(epsilon)
    if not (0 < eps < rat(1, 4)):
        raise RigidityError("epsilon must satisfy 0 < epsilon < 1/4")
    if not 2 <= grid_density <= MAX_GRID:
        raise RigidityError(f"grid density must be between 2 and {MAX_GRID}, got {grid_density}")

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
    h = 1 - 4 * eps * eps
    lower = h / (1 + h)
    return ClutchingReport(
        epsilon=eps,
        grid=n,
        min_re_det=float(min_det),
        min_re_det_transition_band=float(min_band) if min_band is not None else float("nan"),
        chi_zero_band_all_one=chi_zero_ok,
        bound_holds=bound,
        min_re_det_exact=str(min_det),
        samples=samples,
        det_lower_bound=lower,
        invertible_on_chart=lower > 0,
    )
