"""Exact elimination with duck-typed scalars; matrices are plain nested lists.

Scalars must support +, -, *, /, unary minus and truthiness (falsy iff zero).
Callers own copies: every function here copies its input first.

`rank` and `det` run `_bareiss`, fraction-free elimination whose divisions
are all exact, so they need only an exact `/`: they work over the fields
Q(i) (GaussianRational) and Q(i)(z) (RationalFunction) and over the rings
Q(i)[z, ...] (Poly), where `/` is exact division.  `nullspace`, `solve`,
`invert` and `reduced_basis` need a reduced row echelon form and hence a
field.  There is never roundoff; pivots are topmost-then-leftmost nonzero
entries, so output is deterministic.
"""

from __future__ import annotations

from typing import Sequence


def _copy(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in m]


def _echelon(work: list[list]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
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
        inv = work[r][c]
        row_r = work[r]
        for j in range(c, cols):
            row_r[j] = row_r[j] / inv
        for i in range(rows):
            if i != r and work[i][c]:
                f = work[i][c]
                row_i = work[i]
                for j in range(c, cols):
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


def nullspace(m: Sequence[Sequence], one, zero) -> list[list]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector has `one` in its free coordinate, in increasing column
    order, so the result is deterministic.
    """
    work = _copy(m)
    cols = len(work[0]) if work else 0
    pivots = _echelon(work)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


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


def invert(m: Sequence[Sequence], one, zero) -> list[list] | None:
    """Exact inverse, or None when singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    work = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m)]
    pivots = _echelon(work)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in work]


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
