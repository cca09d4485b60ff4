"""Intertwiner representation, commutant bases, connectivity paths."""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import similitude
import similitude.linalg as linalg
from similitude.algebra import GR_ONE, GR_ZERO, GaussianRational, Poly, PolyMatrix, RationalFunction
from similitude.sylvester import (
    SylvesterError,
    _ray_blocked,
    _sylvester_entries,
    commutant_basis_at,
    generic_intertwiner_dim,
    intertwiner_dim_at,
    path_to_identity,
    sylvester_matrix,
    unvec,
    vec,
)

g = GaussianRational
EX45 = PolyMatrix.from_strings([["z", "1"], ["0", "0"]], ["z"])


def rand_const(rng, n, span=3):
    return [
        [g(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
        for _ in range(n)
    ]


def rand_family(rng, n, vs):
    def entry():
        p = Poly.constant(vs, g(rng.randint(-2, 2), rng.randint(-1, 1)))
        for v in vs:
            p = p + Poly.variable(vs, v) ** rng.randint(1, 2) * g(rng.randint(-2, 2))
        return p

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, n):
    while True:
        m = rand_const(rng, n)
        if linalg.det(m):
            return m


class TestSylvesterMatrix:
    def test_one_by_one_zero(self):
        z0 = PolyMatrix.from_strings([["0"]], ["z"])
        assert sylvester_matrix(z0, z0) == PolyMatrix.from_strings([["0"]], ["z"])

    def test_one_by_one_scalar(self):
        az = PolyMatrix.from_strings([["z"]], ["z"])
        b0 = PolyMatrix.from_strings([["0"]], ["z"])
        assert sylvester_matrix(az, b0) == PolyMatrix.from_strings([["z"]], ["z"])

    def test_identity_in_kernel_identically(self):
        m = sylvester_matrix(EX45, EX45)
        v = vec(linalg.identity(2, GR_ONE, GR_ZERO))
        for i in range(4):
            acc = Poly.zero(("z",))
            for j in range(4):
                acc = acc + m.entries[i][j] * v[j]
            assert not acc

    def test_size_mismatch(self):
        a = PolyMatrix.identity(2, ("z",))
        b = PolyMatrix.identity(3, ("z",))
        with pytest.raises(SylvesterError):
            sylvester_matrix(a, b)

    def test_vectorization_law(self):
        rng = random.Random(41)
        a = EX45
        b = PolyMatrix.from_strings([["0", "z"], ["1", "z^2"]], ["z"])
        m = sylvester_matrix(a, b)
        # rational-function entries in either operand make every entry of M one
        for mixed in (sylvester_matrix(a.to_func(), b), sylvester_matrix(a, b.to_func())):
            assert all(isinstance(f, RationalFunction) for row in mixed.entries for f in row)
            assert mixed == m.to_func()
        for _ in range(100):
            theta = rand_const(rng, 2)
            pt = g(rng.randint(-4, 4), rng.randint(-2, 2))
            lhs = linalg.mat_vec(m.evaluate([pt]), vec(theta))
            a_at, b_at = a.evaluate([pt]), b.evaluate([pt])
            left = linalg.mat_mul(a_at, theta)
            right = linalg.mat_mul(theta, b_at)
            rhs = vec([[x - y for x, y in zip(r, s)] for r, s in zip(left, right)])
            assert lhs == rhs


    def test_entries_at_a_point_are_m_at_the_point(self):
        # M(point) is built from A(point) and B(point); it must be M evaluated there
        rng = random.Random(61)
        z = ("z",)
        pole = RationalFunction(Poly.parse("z-5", z)).inverse()
        pairs = [(rand_family(rng, n, z), rand_family(rng, n, z)) for n in range(1, 5)]
        pairs.append((rand_family(rng, 3, ("z", "w")), rand_family(rng, 3, ("z", "w"))))
        pairs.append((rand_family(rng, 2, z), rand_family(rng, 2, z).to_func() * pole))
        for a, b in pairs:
            m = sylvester_matrix(a, b)
            for _ in range(3):
                pt = g(rng.randint(-3, 3), rng.randint(-2, 2))
                at = m.evaluate([pt] * len(a.variables))
                assert _sylvester_entries(a.entries, b.entries, pt) == at
                assert intertwiner_dim_at(a, b, pt) == a.rows ** 2 - linalg.rank(at)
        # a constant pair needs no point
        a0, b0 = rand_const(rng, 3), rand_const(rng, 3)
        assert _sylvester_entries(a0, b0) == sylvester_matrix(
            PolyMatrix.from_scalars(a0), PolyMatrix.from_scalars(b0)
        ).evaluate([])

    def test_shape_checks_hold_at_a_point(self):
        wide = PolyMatrix.from_strings([["z", "1"]], ["z"])
        with pytest.raises(SylvesterError, match="square"):
            commutant_basis_at(wide, GR_ZERO)
        with pytest.raises(SylvesterError, match="same size"):
            intertwiner_dim_at(EX45, PolyMatrix.identity(3, ("z",)), GR_ZERO)
        with pytest.raises(ValueError, match="variable"):
            intertwiner_dim_at(EX45, PolyMatrix.identity(2, ("w",)), GR_ZERO)


class TestIntertwinerDims:
    def test_identity_pair(self):
        eye = PolyMatrix.identity(2, ("z",))
        assert intertwiner_dim_at(eye, eye, g(7)) == 4
        assert generic_intertwiner_dim(eye, eye) == 4

    def test_commutant_of_jordan_family_is_two_dimensional(self):
        assert intertwiner_dim_at(EX45, EX45, g(5)) == 2
        assert generic_intertwiner_dim(EX45, EX45) == 2

    def test_nilpotent_pair_dimensions(self):
        # A = [[0,1],[0,0]], B = [[0,z],[0,0]]: the intertwiner equations are
        # c = 0, d = a z at every point, so the dimension is 2 everywhere
        # (including z = 0, where they read c = d = 0).
        a = PolyMatrix.from_strings([["0", "1"], ["0", "0"]], ["z"])
        b = PolyMatrix.from_strings([["0", "z"], ["0", "0"]], ["z"])
        assert generic_intertwiner_dim(a, b) == 2
        assert intertwiner_dim_at(a, b, GR_ZERO) == 2

    def test_semicontinuity(self):
        rng = random.Random(43)
        a = PolyMatrix.from_strings([["z", "1"], ["z^2", "0"]], ["z"])
        b = PolyMatrix.from_strings([["0", "z"], ["1", "z"]], ["z"])
        generic = generic_intertwiner_dim(a, b)
        for _ in range(20):
            pt = g(rng.randint(-5, 5), rng.randint(-3, 3))
            assert generic <= intertwiner_dim_at(a, b, pt)

    def test_similarity_invariance(self):
        rng = random.Random(47)
        a = EX45
        b = PolyMatrix.from_strings([["z", "0"], ["1", "z^2"]], ["z"])
        for _ in range(10):
            gamma = rand_invertible(rng, 2)
            delta = rand_invertible(rng, 2)
            gi = linalg.invert(gamma)
            di = linalg.invert(delta)
            to_poly = lambda m: PolyMatrix.from_scalars(m, ("z",))
            a2 = to_poly(gi) * a * to_poly(gamma)
            b2 = to_poly(di) * b * to_poly(delta)
            pt = g(rng.randint(-3, 3))
            assert intertwiner_dim_at(a, b, pt) == intertwiner_dim_at(a2, b2, pt)


class TestCommutantBasis:
    def test_zero_matrix_full_basis(self):
        zero = PolyMatrix.from_strings([["0", "0"]] * 2, ["z"])
        basis = commutant_basis_at(zero, GR_ZERO)
        assert basis.dimension == 4

    def test_jordan_family_at_origin(self):
        basis = commutant_basis_at(EX45, GR_ZERO)
        assert basis.dimension == 2
        # every basis element is upper-triangular Toeplitz: [[a, b], [0, a]]
        for theta in basis.basis:
            assert theta[1][0] == GR_ZERO
            assert theta[0][0] == theta[1][1]

    def test_distinct_eigenvalues_diagonal_commutant(self):
        d = PolyMatrix.from_scalars([[g(1), g(0)], [g(0), g(2)]], ("z",))
        basis = commutant_basis_at(d, g(9))
        assert basis.dimension == 2
        for theta in basis.basis:
            assert theta[0][1] == GR_ZERO and theta[1][0] == GR_ZERO

    def test_basis_spans_an_algebra(self):
        rng = random.Random(53)
        for _ in range(5):
            a = PolyMatrix.from_scalars(rand_const(rng, 3), ("z",))
            basis = commutant_basis_at(a, GR_ZERO)
            vectors = [vec(theta) for theta in basis.basis]
            for left in basis.basis:
                for right in basis.basis:
                    # the product lies in the span: adding it leaves the rank alone
                    prod = linalg.mat_mul(left, right)
                    assert linalg.rank(vectors + [vec(prod)]) == basis.dimension


class TestPathToIdentity:
    EYE = [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]

    def _check(self, phi, theta, steps=16):
        path = path_to_identity(phi, theta, steps)
        assert len(path) == steps + 1
        assert path[0] == theta
        assert path[-1] == self.EYE
        for sample in path:
            assert linalg.det(sample)
            lhs = linalg.mat_mul(phi, sample)
            rhs = linalg.mat_mul(sample, phi)
            assert lhs == rhs
        return path

    def test_identity_start(self):
        self._check([[g(3), g(1)], [g(0), g(2)]], self.EYE)

    def test_sign_flip(self):
        self._check(self.EYE, [[g(1), g(0)], [g(0), g(-1)]])

    def test_nilpotent_commutant_stays_toeplitz(self):
        phi = [[GR_ZERO, GR_ONE], [GR_ZERO, GR_ZERO]]
        theta = [[GR_ONE, g(5)], [GR_ZERO, GR_ONE]]
        path = self._check(phi, theta)
        for sample in path:
            assert sample[1][0] == GR_ZERO
            assert sample[0][0] == sample[1][1]

    def test_first_two_directions_blocked(self):
        # eigenvalue -2 lies on the ray of mu = 1, and -3(1+i) on that of 1 + i
        theta = conjugate(diagonal([g(-2), g(-3, -3)]))
        phi = conjugate(diagonal([g(1), g(2)]))
        path = self._check(phi, theta)
        mu = g(1, 2)
        assert path[8] == [[mu, GR_ZERO], [GR_ZERO, mu]]

    def test_random_commutants(self):
        rng = random.Random(61)
        for trial in range(12):
            n = 2 + trial % 3
            theta = rand_invertible(rng, n)
            path = path_to_identity(theta, theta, 6)
            assert path[0] == theta and path[-1] == linalg.identity(n, GR_ONE, GR_ZERO)

    def test_rejects_noncommuting(self):
        phi = [[GR_ZERO, GR_ONE], [GR_ZERO, GR_ZERO]]
        theta = [[g(1), g(0)], [g(1), g(1)]]
        with pytest.raises(SylvesterError):
            path_to_identity(phi, theta, 8)

    def test_rejects_singular(self):
        with pytest.raises(SylvesterError):
            path_to_identity(self.EYE, [[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]], 8)

    @pytest.mark.parametrize("phi_size, theta_size", [(2, 3), (3, 2)])
    def test_rejects_sizes_that_differ(self, phi_size, theta_size):
        phi = linalg.identity(phi_size, GR_ONE, GR_ZERO)
        theta = linalg.identity(theta_size, GR_ONE, GR_ZERO)
        shapes = f"{phi_size}x{phi_size} and {theta_size}x{theta_size}"
        with pytest.raises(SylvesterError, match=shapes):
            path_to_identity(phi, theta, 8)

    def test_rejects_a_non_square_theta(self):
        theta = [[GR_ONE, GR_ZERO, GR_ZERO], [GR_ZERO, GR_ONE, GR_ZERO]]
        with pytest.raises(SylvesterError, match="2x2 and 2x3"):
            path_to_identity(self.EYE, theta, 8)

    def test_vec_unvec_round_trip(self):
        rng = random.Random(59)
        m = rand_const(rng, 3)
        assert unvec(vec(m), 3) == m


P3 = [[g(1), g(2), g(0)], [g(1), g(3), g(1)], [g(0), g(1), g(2)]]


def diagonal(values):
    return [[x if i == j else GR_ZERO for j in range(len(values))] for i, x in enumerate(values)]


def conjugate(d):
    """P d P^-1 with P a unimodular integer matrix of the size of d."""
    n = len(d)
    p = [row[:n] for row in P3[:n]]
    return linalg.mat_mul(linalg.mat_mul(p, d), linalg.invert(p))


class TestRayPredicate:
    """_ray_blocked(theta, mu) iff -s mu is an eigenvalue of theta for some s > 0."""

    MU = [g(1), g(1, 1), g(1, 2)]

    @pytest.mark.parametrize(
        "spectrum, blocked",
        [
            ([g(-2), g(5)], [True, False, False]),
            ([g(-3, -3), g(5)], [False, True, False]),
            ([g(-2), g(-3, -3)], [True, True, False]),
            # the opposite ray, s < 0, blocks nothing
            ([g(2), g(3, 3)], [False, False, False]),
            ([g(-1, -2), g(1, 7), g(4)], [False, False, True]),
        ],
    )
    def test_known_spectra(self, spectrum, blocked):
        theta = conjugate(diagonal(spectrum))
        assert [_ray_blocked(theta, mu) for mu in self.MU] == blocked

    def test_repeated_eigenvalue_in_a_jordan_block(self):
        block = [[g(-2), GR_ONE, GR_ZERO], [GR_ZERO, g(-2), GR_ZERO], [GR_ZERO, GR_ZERO, g(-2)]]
        theta = conjugate(block)
        assert [_ray_blocked(theta, mu) for mu in self.MU] == [True, False, False]


MODULES = sorted(
    {"similitude"} | {f"similitude.{m.name}" for m in pkgutil.iter_modules(similitude.__path__)}
)


def numpy_modules(name):
    module = importlib.import_module(name)
    return [
        v for v in vars(module).values()
        if isinstance(v, types.ModuleType) and v.__name__.split(".")[0] == "numpy"
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_holds_no_numpy(name):
    # jordan's float paths import numpy when they run
    assert not numpy_modules(name)


def test_reports_need_no_numpy(tmp_path):
    """With numpy unimportable, the CLI loads and smith, wasow and rigidity report as with it."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"variables": ["z"], "matrix": [["z", "1"], ["0", "0"]]}))
    b.write_text(json.dumps({"variables": ["z"], "matrix": [["0", "z"], ["0", "0"]]}))
    argvs = [
        ["smith", "--matrix", str(a), "--point", "0"],
        ["wasow", "--a", str(a), "--b", str(b), "--point", "0"],
        ["rigidity", "--ell", "0", "--relation", "AHeqHB", "--variety", "lines:1,2,3", "--order", "4"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from similitude.cli import run\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = run(argv)\n"
        "    print(json.dumps([code, out.getvalue()]))\n"
    )
    src = str(Path(similitude.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    from similitude.cli import run

    def without_timings(code, text):
        report = json.loads(text)
        report.pop("timings")
        return code, report

    blocked = [without_timings(*json.loads(line)) for line in done.stdout.splitlines()]
    expected = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        expected.append(without_timings(code, out.getvalue()))
    assert blocked == expected
