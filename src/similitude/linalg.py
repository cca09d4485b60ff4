"""Exact elimination with duck-typed scalars; matrices are plain nested lists.

Scalars must support +, -, *, /, unary minus and truthiness (falsy iff zero).
Callers own copies: every function here copies its input first.

`rank` and `det` run `_bareiss`, fraction-free elimination whose divisions
are all exact, so they need only an exact `/`: they work over the fields
Q(i) (GaussianRational) and Q(i)(z) (RationalFunction) and over the rings
Q(i)[z, ...] (Poly), where `/` is exact division.  `nullspace`,
`projected_nullspace`, `solve`, `left_divide` (`invert` is its b = I case)
and `reduced_basis` need a reduced row echelon form and hence a field;
`_echelon` computes it touching only the nonzero entries of each pivot row, so
sparse systems cost what their fill-in costs.  `projected_nullspace` reads the
projection of the kernel onto the last columns straight from that form,
without a kernel basis of the whole matrix.  There is never roundoff; pivots
are topmost-then-leftmost nonzero entries, so output is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


def _copy(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in m]


def _echelon(work: list[list]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list.

    Only the pivot row's nonzero columns are divided and subtracted: a
    skipped update would be 0 / p or x - f * 0.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        inv = row_r[c]
        nz = [j for j in range(c, cols) if row_r[j]]
        for j in nz:
            row_r[j] = row_r[j] / inv
        for i in range(rows):
            row_i = work[i]
            f = row_i[c]
            if f and i != r:
                for j in nz:
                    row_i[j] = row_i[j] - f * row_r[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _bareiss(work: list[list]) -> tuple[int, object, int]:
    """In-place fraction-free forward elimination (Bareiss 1968).

    Below each pivot, a_ij becomes (pivot * a_ij - a_ic * a_rj) / previous
    pivot: a minor of the input, so the division is exact.  Zero columns are
    skipped and entries under a pivot are left stale.  Returns (rank, last
    pivot or None, row swaps); the last pivot of a square matrix of full rank
    is its determinant up to the sign of the swaps.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    r = 0
    prev = None
    swaps = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            swaps += 1
        row_r = work[r]
        piv = row_r[c]
        for i in range(r + 1, rows):
            row_i = work[i]
            f = row_i[c]
            for j in range(c + 1, cols):
                x = piv * row_i[j] - f * row_r[j] if f else piv * row_i[j]
                row_i[j] = x / prev if prev is not None and x else x
        prev = piv
        r += 1
        if r == rows:
            break
    return r, prev, swaps


def rank(m: Sequence[Sequence]) -> int:
    return _bareiss(_copy(m))[0]


def _kernel(rref: Sequence[Sequence], pivots: Sequence[int], cols: int, one, zero) -> list[list]:
    """Kernel basis read from a reduced row echelon form, one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def nullspace(m: Sequence[Sequence], one, zero) -> list[list]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector has `one` in its free coordinate, in increasing column
    order, so the result is deterministic.
    """
    work = _copy(m)
    cols = len(work[0]) if work else 0
    return _kernel(work, _echelon(work), cols, one, zero)


def projected_nullspace(m: Sequence[Sequence], k: int, one, zero) -> tuple[int, list[list]]:
    """(rank of m, `reduced_basis` of its kernel projected onto the last k columns).

    In the reduced row echelon form, a row whose pivot lies before the last k
    columns can be solved for its pivot whatever the other coordinates are.
    So the projection is the kernel of the rows that pivot in the last k
    columns; those rows are zero on every earlier column and already reduced.
    No kernel vector of m itself is built.  An empty m constrains nothing.
    """
    work = _copy(m)
    cols = len(work[0]) if work else k
    if not 0 <= k <= cols:
        raise ValueError("k must lie between 0 and the number of columns")
    start = cols - k
    pivots = _echelon(work)
    first = bisect_left(pivots, start)
    block = [row[start:] for row in work[first:len(pivots)]]
    kernel = _kernel(block, [pc - start for pc in pivots[first:]], k, one, zero)
    return len(pivots), reduced_basis(kernel)


def solve(m: Sequence[Sequence], rhs: Sequence, zero) -> list | None:
    """One solution of m x = rhs, or None if inconsistent.

    Free coordinates are set to zero.
    """
    work = [list(row) + [b] for row, b in zip(m, rhs)]
    cols = len(m[0]) if m else 0
    pivots = _echelon(work)
    if pivots and pivots[-1] == cols:
        return None
    # rows below the last pivot must have zero RHS
    for r in range(len(pivots), len(work)):
        if work[r][cols]:
            return None
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][cols]
    return x


def det(m: Sequence[Sequence], one, zero):
    """Exact determinant: the last Bareiss pivot, signed by the row swaps."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return one
    r, last, swaps = _bareiss(_copy(m))
    if r < n:
        return zero
    return -last if swaps % 2 else last


def left_divide(m: Sequence[Sequence], b: Sequence[Sequence]) -> list[list] | None:
    """m^-1 b, the right block of the reduced echelon form of [m | b]; None if m is singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("left division requires a square matrix and as many rows in b")
    work = [list(row) + list(rhs) for row, rhs in zip(m, b)]
    return [row[n:] for row in work] if _echelon(work) == list(range(n)) else None


def invert(m: Sequence[Sequence], one, zero) -> list[list] | None:
    """Exact inverse, or None when singular."""
    return left_divide(m, identity(len(m), one, zero))


def reduced_basis(vectors: Sequence[Sequence]) -> list[list]:
    """Canonical basis of the span of the given vectors (nonzero RREF rows)."""
    if not vectors:
        return []
    work = _copy(vectors)
    _echelon(work)
    return [row for row in work if any(row)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> list[list]:
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    return [
        [a[i][j] - b[i][j] for j in range(len(a[0]))]
        for i in range(len(a))
    ]


def identity(n: int, one, zero) -> list[list]:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence], v: Sequence, zero) -> list:
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out
