"""Seeded input generators: one list of CLI operations per workload.

Every instance is a function of the seed alone.  Nothing here calls the
package, so no input (and no expected answer recorded next to it) comes from
the code being timed.  Matrix payloads use the package's JSON matrix format.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from exact import GQ, ONE, ZERO, format_poly, mat_mul, padd, pmat_eval, pmat_mul, pneg

I = GQ(0, 1)
# criterion-8 evaluation points and criterion-9a candidate points
SMITH_POINTS = [GQ(0), GQ(1), GQ(-1), GQ(2), I, GQ(1, 1), GQ(Fraction(1, 2))]
PAIR_POINTS = [GQ(0), GQ(1), GQ(-1), GQ(2), GQ(-2), GQ(3), I, GQ(1, 1)]
EIGEN_POOL = [GQ(0), GQ(1), GQ(-1), GQ(2), I, GQ(Fraction(1, 2)), GQ(Fraction(1, 3))]
JUMP_POOL = [GQ(0), GQ(1), GQ(-1), GQ(2), I, GQ(Fraction(1, 2)), GQ(-1, 1)]
# ROADMAP D5: the (unimodular) basis change of the family on which numeric
# segre_at misreads a Jordan block, and its inverse
D5_P = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
D5_P_INV = [[-24, 18, 5], [20, -15, -4], [-5, 4, 1]]


class Op:
    """One CLI call: argv with file placeholders, its input files, its expectations."""

    __slots__ = ("op_id", "kind", "argv", "files", "expect")

    def __init__(self, op_id, kind, argv, files=None, expect=None):
        self.op_id = op_id
        self.kind = kind
        self.argv = argv
        self.files = files or {}
        self.expect = expect or {}

    def resolved_argv(self, workdir: str) -> list[str]:
        return [f"{workdir}/{a[1:]}" if a.startswith("@") else a for a in self.argv]


def matrix_payload(m, var="z") -> dict:
    """JSON matrix file for a polynomial (list-of-coefficient) matrix."""
    return {"variables": [var], "matrix": [[format_poly(p, var) for p in row] for row in m]}


def const_payload(m) -> dict:
    return {"variables": [], "matrix": [[str(x) for x in row] for row in m]}


def _gq(rng, re_span, im_span) -> GQ:
    return GQ(rng.randint(-re_span, re_span), rng.randint(-im_span, im_span))


def _const(x: GQ) -> list:
    return [x] if x else []


def _poly_mat(m) -> list:
    return [[_const(x) for x in row] for row in m]


def unimodular(rng, n: int, steps: int):
    """Integer matrix U = product of elementary row operations, with U^-1."""
    u = [[GQ(int(i == j)) for j in range(n)] for i in range(n)]
    ui = [list(r) for r in u]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        c = GQ(rng.randint(-2, 2))
        if i == j or not c:
            continue
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        # (E_ij(c) U)^-1 = U^-1 E_ij(-c): column j of U^-1 loses c * column i
        for row in ui:
            row[j] = row[j] - c * row[i]
    return u, ui


def balanced(rng, pool, n: int) -> list:
    """n draws from pool in seeded order, each value as often as any other (within one)."""
    out: list = []
    while len(out) < n:
        block = list(pool)
        rng.shuffle(block)
        out += block
    return out[:n]


def jordan_matrix(blocks) -> list:
    """Constant Jordan matrix from [(eigenvalue, size), ...]."""
    n = sum(size for _, size in blocks)
    out = [[ZERO] * n for _ in range(n)]
    offset = 0
    for lam, size in blocks:
        for k in range(size):
            out[offset + k][offset + k] = lam
            if k + 1 < size:
                out[offset + k][offset + k + 1] = ONE
        offset += size
    return out


# ---------------------------------------------------------------------------
# smith-wasow


# criterion-8 shapes grouped by cost, cheapest first; each cycle of the
# workload takes one shape from every tier, rotating within the tier.  The
# four cheapest shapes (1x1, 1x2, 2x1, 3x1; a few ms each) are left out: as a
# third of the ops they pulled the median op off the pair ops.
SMITH_TIERS = [
    [(4, 1), (1, 3), (2, 2), (1, 4)],
    [(3, 2), (2, 3), (4, 2), (2, 4)],
    [(3, 3), (3, 4), (4, 3), (4, 4)],
]


def smith_matrix(rng, rows: int, cols: int) -> list:
    """Criterion-8 draw of a given shape: degree <=4, coefficients in [-3,3] + [-2,2]i."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            coeffs = [ZERO] * 5
            for d in range(rng.randint(0, 4) + 1):
                if rng.random() < 0.8:
                    coeffs[d] = _gq(rng, 3, 2)
            row.append(padd(coeffs, []))
        out.append(row)
    return out


def conjugated_pair(rng, linear):
    """Criterion-9a draw: 2x2 degree-2 A, B = H0^-1 A H0 with H0 = [[1,top],[0,1]] [[1,0],[bot,1]].

    `linear` says which of top and bot have degree 1; a constant one keeps B
    at a lower degree, and B's degree sets most of the pair's cost.
    """
    a = [[padd([_gq(rng, 2, 1) for _ in range(3)], []) for _ in range(2)] for _ in range(2)]
    top, bot = ([GQ(rng.randint(-1, 1)), GQ(rng.choice([-2, -1, 1, 2]) if lin else 0)] for lin in linear)
    upper = [[[ONE], padd(top, [])], [[], [ONE]]]
    lower = [[[ONE], []], [padd(bot, []), [ONE]]]
    h0 = pmat_mul(upper, lower)
    h0_inv = pmat_mul(_unitri_inverse(lower), _unitri_inverse(upper))
    return a, pmat_mul(pmat_mul(h0_inv, a), h0), h0


def _unitri_inverse(t):
    """Inverse of a 2x2 unit triangular polynomial matrix: negate the off-diagonal."""
    return [[p if i == j else pneg(p) for j, p in enumerate(row)] for i, row in enumerate(t)]


def smith_wasow(seed: int) -> list[Op]:
    rng = random.Random(f"smith-wasow:{seed}")
    ops: list[Op] = []

    def smith(shape):
        m = smith_matrix(rng, *shape)
        xi = rng.choice(SMITH_POINTS)
        name = f"smith{len(ops)}.json"
        ops.append(Op(len(ops), "smith", ["smith", "--matrix", "@" + name, "--point=" + str(xi)],
                      {name: matrix_payload(m)}, {"matrix": m, "point": xi}))

    def pair(xi, linear):
        a, b, h0 = conjugated_pair(rng, linear)
        tag = len(ops)
        phi = pmat_eval(h0, xi)
        files = {f"a{tag}.json": matrix_payload(a), f"b{tag}.json": matrix_payload(b),
                 f"phi{tag}.json": const_payload(phi)}
        expect = {"a": a, "b": b, "point": xi, "phi": phi, "n": 2}
        common = ["--a", f"@a{tag}.json", "--b", f"@b{tag}.json", "--point=" + str(xi)]
        ops.append(Op(tag, "wasow", ["wasow", *common], files, expect))
        ops.append(Op(tag + 1, "local-similarity", ["local-similarity", *common, "--phi", f"@phi{tag}.json"],
                      None, expect))

    # One cycle: a smith op from each cost tier, each followed by a pair
    # (wasow, then local-similarity at the same point).  Pair points rotate
    # through the criterion-9a pool, so every run sees the same mix.  The
    # criterion-9a draw makes each of top and bot linear with probability
    # 4/5; here two pairs of a cycle have both linear and one has one of
    # them linear, since B's degree moved a pair's cost by 3x and, drawn
    # freely, moved a run's throughput with the seed.  3x3 pairs are left
    # out: one op cost 0.3-3.6 s, and with even one in four cycles a run's
    # throughput and median moved with the seed.
    for cycle in range(40):
        for slot in range(3):
            smith(SMITH_TIERS[2 - slot][(cycle + slot) % 4])
            linear = (True, True) if slot != 1 else ((True, False) if cycle % 2 else (False, True))
            pair(PAIR_POINTS[(3 * cycle + slot) % len(PAIR_POINTS)], linear)
    return ops


# ---------------------------------------------------------------------------
# jet-rigidity

# One cycle of the workload: (variety, order range) slots in a fixed order.
# Orders sit inside full 8-12, cusp:5,4 40-60 and lines 6-8 but in narrow
# slices where one system takes about as long as verify-paper --ell 1, so the
# median op falls on a plateau of similar costs; over the whole ranges a run's
# median and throughput moved with the seed and with how many ops fit.  The
# seed draws the relation and ell on the plane and the orders in each slice.
RIGIDITY_CYCLE = [
    ("full", (9, 9)),
    ("cusp:5,4", (46, 48)),
    ("lines:1,2,3,4,5", (7, 7)),
    ("full", (9, 10)),
    ("cusp:4,3", (21, 21)),
    ("cusp:5,4", (44, 47)),
    ("full", (9, 9)),
]


def rigidity_expectation(relation: str, variety: str) -> dict:
    """(dimension, scalar_line, contains_invertible) from the paper and README.

    Full plane: A H = H B and H A = B H force H(0) = 0, and A H = H A leaves
    the scalar line (the identity always solves it).  Cusp (5,4) at ell = 0 is
    an interior instance and five lines at ell = 0 are criterion 4b: both
    rigid.  Cusp (4,3) at ell = 0 is the q = ell + 3 boundary, where
    H = [[0,1],[z,0]] solves the relation and H(0) spans the line through
    [[0,1],[0,0]].
    """
    if variety == "full" and relation == "AHeqHA":
        return {"dimension": 1, "scalar_line": True, "contains_invertible": True}
    if variety == "cusp:4,3":
        return {"dimension": 1, "scalar_line": False, "contains_invertible": False,
                "space": [["0", "1", "0", "0"]]}
    return {"dimension": 0, "scalar_line": False, "contains_invertible": False}


def jet_rigidity(seed: int) -> list[Op]:
    rng = random.Random(f"jet-rigidity:{seed}")
    ops: list[Op] = []
    # every (relation, ell) on the plane equally often, in seeded order
    plane = iter(balanced(rng, [(r, e) for r in ("AHeqHB", "AHeqHA", "HAeqBH") for e in (0, 1)], 12 * 3))
    for _ in range(12):
        for variety, (lo, hi) in RIGIDITY_CYCLE:
            relation, ell = "AHeqHB", 0
            if variety == "full":
                relation, ell = next(plane)
            # off the full plane only ell = 0, A H = H B has an answer that does
            # not come from the package, so the other draws are left out
            argv = ["rigidity", "--ell", str(ell), "--relation", relation,
                    "--variety", variety, "--order", str(rng.randint(lo, hi))]
            expect = dict(rigidity_expectation(relation, variety), relation=relation)
            ops.append(Op(len(ops), "rigidity", argv, expect=expect))
        for ell in (0, 1):
            # README: at ell = 0 checks 4 and 5 fail on the q = ell + 3
            # boundary; ell = 1 uses the interior pair (6, 5) and passes
            failing = ["4-variety-rigidity", "5-index-sets"] if ell == 0 else []
            ops.append(Op(len(ops), "verify-paper", ["verify-paper", "--ell", str(ell)],
                          expect={"failing": failing}))
    return ops


# ---------------------------------------------------------------------------
# jordan-locus


def random_family(rng, n: int, quadratic: int | None = None) -> list:
    """Random n x n family of degree <= 2 with low-height coefficients.

    Each coefficient is nonzero with probability 0.7, except that with
    `quadratic` given, exactly that many entries have a z^2 term.
    """
    cells = set(rng.sample(range(n * n), quadratic)) if quadratic is not None else None
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [_gq(rng, 2, 1) if rng.random() < 0.7 else ZERO for _ in range(3)]
            if cells is not None:
                coeffs[2] = _gq_nonzero(rng) if i * n + j in cells else ZERO
            row.append(padd(coeffs, []))
        out.append(row)
    return out


def _gq_nonzero(rng) -> GQ:
    while True:
        x = _gq(rng, 2, 1)
        if x:
            return x


def conjugate_family(j, u, ui):
    """U J(z) U^-1 for a constant U."""
    return pmat_mul(pmat_mul(_poly_mat(u), j), _poly_mat(ui))


def jump_family(rng, shape: str, lam: GQ, c: GQ):
    """P J(z) P^-1 whose Jordan type changes exactly at z = c, with eigenvalue lam.

    Returns (family, c).  Shapes: 'split2' J = [[l, z-c],[0, l]];
    'collide2' J = [[l+(z-c), 1],[0, l-(z-c)]]; 'split3m' J = [[l, z-c, 0],[0, l, 0],[0, 0, m]].
    """
    zc = padd([-c, ONE], [])
    lam_p = _const(lam)
    if shape == "split2":
        j = [[lam_p, zc], [[], lam_p]]
    elif shape == "collide2":
        j = [[padd(lam_p, zc), [ONE]], [[], padd(lam_p, pneg(zc))]]
    else:
        mu = rng.choice([x for x in EIGEN_POOL if x != lam])
        j = [[lam_p, zc, []], [[], lam_p, []], [[], [], _const(mu)]]
    u, ui = unimodular(rng, len(j), 2 * len(j))
    return conjugate_family(j, u, ui), c


def d5_family():
    """P [[1/3,1,0],[0,1/3,z],[0,0,1/3]] P^-1, whose Jordan type changes at z = 0."""
    third = _const(GQ(Fraction(1, 3)))
    j = [[third, [ONE], []], [[], third, [ZERO, ONE]], [[], [], third]]
    p, p_inv = ([[GQ(x) for x in row] for row in m] for m in (D5_P, D5_P_INV))
    return conjugate_family(j, p, p_inv), ZERO


def similar_pair(rng, n: int, similar: bool):
    """Constant n x n A0, B0 that are similar (or not) by construction.

    A0 has an eigenvalue with at least two Jordan blocks; B0 repeats A0's
    blocks, or merges those two into one, and the two get different bases.
    """
    lam = rng.choice(EIGEN_POOL)
    first = rng.randint(1, n - 1)
    second = rng.randint(1, n - first)
    blocks = [(lam, first), (lam, second)]
    rest = n - first - second
    while rest:
        size = rng.randint(1, rest)
        blocks.append((rng.choice(EIGEN_POOL), size))
        rest -= size
    other = blocks if similar else [(lam, first + second)] + blocks[2:]
    u, ui = unimodular(rng, n, 2 * n)
    v, vi = unimodular(rng, n, 2 * n)
    a0 = mat_mul(mat_mul(u, jordan_matrix(blocks)), ui)
    b0 = mat_mul(mat_mul(v, jordan_matrix(other)), vi)
    return a0, b0


JORDAN_SHAPES = ["split2", "collide2", "split3m", "split2"]


def jordan_locus(seed: int) -> list[Op]:
    rng = random.Random(f"jordan-locus:{seed}")
    ops: list[Op] = []

    def add(kind, argv, files=None, expect=None):
        ops.append(Op(len(ops), kind, argv, files, expect))

    # eigenvalues and jump points of the jump families, each pool value
    # equally often: their heights set the cost of the exact Jordan checks.
    # A random 3x3 family's candidates cost 0.4-1.4 s, rising with its number
    # of z^2 entries (binomial, mean 6.3 of 9 when drawn freely); the slowest
    # of them make the tail, so that number is held at 6 or 7.  Enough cycles
    # that a run does not come round to the first op again.
    cycles = 60
    lams, jumps = balanced(rng, EIGEN_POOL, cycles), balanced(rng, JUMP_POOL, cycles)
    quadratic = iter(balanced(rng, [6, 6, 7], cycles))
    for cycle in range(cycles):
        # candidates on a random 2x2 or 3x3 family
        n = 2 if cycle % 3 else 3
        fam = random_family(rng, n, None if n == 2 else next(quadratic))
        name = f"r{len(ops)}.json"
        add("jordan-candidates", ["jordan", "candidates", "--matrix", "@" + name],
            {name: matrix_payload(fam)}, {"family": fam})
        # a family whose type changes at c: candidates, then check at c and off c
        if cycle % 8 == 7:
            fam, c = d5_family()
        else:
            fam, c = jump_family(rng, JORDAN_SHAPES[cycle % len(JORDAN_SHAPES)], lams[cycle], jumps[cycle])
        name = f"j{len(ops)}.json"
        files = {name: matrix_payload(fam)}
        add("jordan-candidates", ["jordan", "candidates", "--matrix", "@" + name], files,
            {"family": fam, "jump": c})
        off = rng.choice([x for x in JUMP_POOL if x != c])
        for point, at_jump in ((c, True), (off, False)):
            add("jordan-check", ["jordan", "check", "--matrix", "@" + name, "--point=" + str(point)],
                None, {"family": fam, "jump": c, "point": point, "at_jump": at_jump})
        # commutant at a Q(i) point of the same family
        add("commutant", ["commutant", "--matrix", "@" + name, "--point=" + str(off)],
            None, {"family": fam, "point": off})
        # pointwise similarity of constant matrices, alternating verdicts
        similar = cycle % 2 == 0
        a0, b0 = similar_pair(rng, 2 + cycle % 5, similar)
        tag = len(ops)
        add("pointwise", ["pointwise", "--a", f"@pa{tag}.json", "--b", f"@pb{tag}.json", "--witness"],
            {f"pa{tag}.json": const_payload(a0), f"pb{tag}.json": const_payload(b0)},
            {"a": a0, "b": b0, "similar": similar})
    return ops


def warmup(workload: str) -> list[Op]:
    """Small calls on every code path of a workload, run at set-up and not timed."""
    ex45 = [[[ZERO, ONE], [ONE]], [[], []]]
    files = {
        "warm.json": matrix_payload(ex45),
        "warm_eye.json": const_payload([[ONE, ZERO], [ZERO, ONE]]),
        "warm_nil.json": const_payload([[ZERO, ONE], [ZERO, ZERO]]),
    }
    pair = ["--a", "@warm.json", "--b", "@warm.json", "--point=1"]
    argvs = {
        "smith-wasow": [
            ["smith", "--matrix", "@warm.json", "--point=0"],
            ["wasow", *pair],
            ["local-similarity", *pair, "--phi", "@warm_eye.json"],
        ],
        "jet-rigidity": [
            ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "cusp:4,3", "--order", "21"],
            ["rigidity", "--ell", "0", "--relation", "HAeqBH", "--variety", "full", "--order", "4"],
        ],
        "jordan-locus": [
            ["jordan", "candidates", "--matrix", "@warm.json"],
            ["jordan", "check", "--matrix", "@warm.json", "--point=0"],
            ["commutant", "--matrix", "@warm.json", "--point=1"],
            ["pointwise", "--a", "@warm_nil.json", "--b", "@warm_nil.json", "--witness"],
        ],
    }[workload]
    return [Op(-1 - i, "warmup", argv, files if i == 0 else None) for i, argv in enumerate(argvs)]


WORKLOADS = {
    "smith-wasow": smith_wasow,
    "jet-rigidity": jet_rigidity,
    "jordan-locus": jordan_locus,
}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)


def write_inputs(ops: list[Op], workdir: str) -> int:
    """Write every op's input files; returns the byte count written."""
    total = 0
    for op in ops:
        for name, payload in op.files.items():
            data = json.dumps(payload, sort_keys=True).encode()
            with open(f"{workdir}/{name}", "wb") as fh:
                fh.write(data)
            total += len(data)
    return total
