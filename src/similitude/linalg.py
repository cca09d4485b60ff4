"""Exact elimination with duck-typed scalars; matrices are plain nested lists.

Scalars must support +, -, *, /, unary minus and truthiness (falsy iff zero),
and `x * 0` and `x ** 0` must give the zero and the one of x's ring, so the
constants an answer needs are read from the entries.  The row update of
both sparse eliminations, `_subtract`, also needs the fused update
`x.sub_mul(c, y)` = x - c*y, its only update of a stored entry:
GaussianRational computes it on its integers with one normalisation, and
RationalFunction and Poly as `x - c * y`.  Only
`projected_nullspace` and `identity` take `one` and `zero`: their answers can
hold values that no entry provides (an empty row list, or no entries at all).
Callers own copies: every function here copies its input first.

`rank` and `det` run `_bareiss`, fraction-free elimination whose divisions
are all exact, so they need only an exact `/`: they work over the fields
Q(i) (GaussianRational) and Q(i)(z) (RationalFunction) and over the rings
Q(i)[z, ...] (Poly), where `/` is exact division.  `nullspace`,
`projected_nullspace`, `invert` and `reduced_basis` need a field.
`nullspace`, `invert` and `reduced_basis` read their answers from `_rref`,
the reduced row echelon form of sparse {column: entry} rows, which touches
only stored nonzeros; dense inputs become sparse rows on entry.
`projected_nullspace` takes sparse rows, eliminates them forward only, and
runs `_rref` on the at most k rows that lead in the last k columns, which
are all it reads.  There is never roundoff, and a matrix has exactly one
reduced row echelon form, so output is deterministic.
"""

from __future__ import annotations

import operator
from itertools import starmap
from typing import Iterable, Mapping, Sequence


def _copy(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in m]


def _sparse(m: Sequence[Sequence]) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _subtract(row: dict, f, other: Mapping) -> None:
    """row -= f * other in place, deleting the entries that cancel."""
    for j, x in other.items():
        y = row.get(j)
        y = -(f * x) if y is None else y.sub_mul(f, x)
        if y:
            row[j] = y
        else:
            del row[j]


def _rref(rows: Iterable[Mapping]) -> list[tuple[int, dict]]:
    """Reduced row echelon form of sparse rows, as (pivot column, row) pairs by pivot.

    Rows are taken one at a time.  Each is reduced by the pivot rows found so
    far; one pass suffices, because every pivot row is zero in the other
    pivot columns.  What is left is scaled to a leading one and subtracted
    from the earlier rows that are nonzero in its pivot column.  Stored rows
    hold nonzero entries only; zero values in the input are dropped.
    """
    pivots: dict[int, dict] = {}
    for given in rows:
        row = {j: x for j, x in given.items() if x}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row[c], pivots[c])
        if not row:
            continue
        p = min(row)
        inv = row[p]
        row = {j: x / inv for j, x in row.items()}
        for other in pivots.values():
            f = other.get(p)
            if f is not None:
                _subtract(other, f, row)
        pivots[p] = row
    return sorted(pivots.items())


def _dense(form: list[tuple[int, dict]], start: int, stop: int) -> list[list]:
    """Columns start..stop-1 of a reduced form's rows; the zero is a leading one minus itself."""
    if not form:
        return []
    pc, row = form[0]
    zero = row[pc] - row[pc]
    return [[row.get(j, zero) for j in range(start, stop)] for _, row in form]


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


def _kernel(form: list[tuple[int, dict]], cols: int, one, zero) -> list[list]:
    """Kernel basis read from a reduced row echelon form, one vector per free column."""
    free = {c: [zero] * cols for c in range(cols)}
    for pc, _ in form:
        del free[pc]
    for c, vec in free.items():
        vec[c] = one
    for pc, row in form:
        for j, x in row.items():
            if j != pc:
                free[j][pc] = -x
    return list(free.values())


def nullspace(m: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector has a one in its free coordinate, in increasing column
    order, so the result is deterministic.
    """
    if not m or not m[0]:
        return []
    x = m[0][0]
    return _kernel(_rref(_sparse(m)), len(m[0]), x ** 0, x * 0)


def projected_nullspace(rows: Iterable[Mapping], cols: int, k: int, one, zero) -> tuple[int, list]:
    """(rank, `reduced_basis` of the kernel projected onto the last k columns).

    `rows` are the sparse rows of a matrix with `cols` columns (a column may
    appear in no row).  Elimination runs forward only: each row's leading
    entry is cleared by the stored row that leads in its column, if there is
    one, until the row is zero or leads in a new column, where it is stored
    as it is.  The rank is the number of stored rows.  A stored row that
    leads before the last k columns can be solved for its leading unknown
    whatever the later unknowns are (back substitution), so the projection
    is the kernel of the rows that lead in the last k columns, which lie
    inside them.  Only those rows, at most k, go to `_rref`; no kernel
    vector of the whole matrix is built, and an empty row list constrains
    nothing.
    """
    if not 0 <= k <= cols:
        raise ValueError("k must lie between 0 and the number of columns")
    start = cols - k
    pivots: dict[int, dict] = {}
    for given in rows:
        row = {j: x for j, x in given.items() if x}
        while row:
            p = min(row)
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = row
                break
            _subtract(row, row[p] / pivot[p], pivot)
    block = _rref({j - start: x for j, x in r.items()} for p, r in pivots.items() if p >= start)
    return len(pivots), reduced_basis(_kernel(block, k, one, zero))


def det(m: Sequence[Sequence]):
    """Exact determinant: the last Bareiss pivot, signed by the row swaps."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("determinant requires a nonempty square matrix")
    r, last, swaps = _bareiss(_copy(m))
    if r < n:
        return m[0][0] * 0
    return -last if swaps % 2 else last


def invert(m: Sequence[Sequence]) -> list[list] | None:
    """Exact inverse, the right block of the reduced echelon form of [m | I]; None when singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    rows = _sparse(m)
    for i, row in enumerate(rows):
        row[n + i] = m[i][0] ** 0
    form = _rref(rows)
    if [pc for pc, _ in form] != list(range(n)):
        return None
    return _dense(form, n, 2 * n)


def reduced_basis(vectors: Sequence[Sequence]) -> list[list]:
    """Canonical basis of the span of the given vectors (nonzero RREF rows)."""
    return _dense(_rref(_sparse(vectors)), 0, len(vectors[0]) if vectors else 0)


def _dot(xs: Iterable, ys: Iterable):
    """Sum of the products x * y, accumulated from the first; xs and ys are nonempty, of one length."""
    products = starmap(operator.mul, zip(xs, ys, strict=True))
    return sum(products, next(products))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    columns = list(zip(*b, strict=True))
    return [[_dot(row, col) for col in columns] for row in a]


def identity(n: int, one, zero) -> list[list]:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [_dot(row, v) for row in a]
