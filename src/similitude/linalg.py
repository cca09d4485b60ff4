"""Exact elimination with duck-typed scalars; matrices are plain nested lists.

Scalars must support +, -, *, /, unary minus and truthiness (falsy iff zero).
Callers own copies: every function here copies its input first.

`rank` and `det` run `_bareiss`, fraction-free elimination whose divisions
are all exact, so they need only an exact `/`: they work over the fields
Q(i) (GaussianRational) and Q(i)(z) (RationalFunction) and over the rings
Q(i)[z, ...] (Poly), where `/` is exact division.  `nullspace`,
`projected_nullspace`, `solve`, `left_divide` (`invert` is its b = I case)
and `reduced_basis` need a field: they read their answers from `_rref`, the
reduced row echelon form of sparse {column: entry} rows, which touches only
stored nonzeros.  Dense inputs become sparse rows on entry; callers of
`projected_nullspace` pass sparse rows.  There is never roundoff, and a
matrix has exactly one reduced row echelon form, so output is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _copy(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in m]


def _sparse(m: Sequence[Sequence]) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _subtract(row: dict, f, other: Mapping) -> None:
    """row -= f * other in place, deleting the entries that cancel."""
    for j, x in other.items():
        y = row.get(j)
        y = -(f * x) if y is None else y - f * x
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


def nullspace(m: Sequence[Sequence], one, zero) -> list[list]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector has `one` in its free coordinate, in increasing column
    order, so the result is deterministic.
    """
    cols = len(m[0]) if m else 0
    return _kernel(_rref(_sparse(m)), cols, one, zero)


def projected_nullspace(rows: Iterable[Mapping], cols: int, k: int, one, zero) -> tuple[int, list]:
    """(rank, `reduced_basis` of the kernel projected onto the last k columns).

    `rows` are the sparse rows of a matrix with `cols` columns (a column may
    appear in no row).  In the reduced row echelon form, a row whose pivot
    lies before the last k columns can be solved for its pivot whatever the
    other coordinates are.  So the projection is the kernel of the rows that
    pivot in the last k columns; those rows are zero on every earlier column
    and already reduced.  No kernel vector of the whole matrix is built, and
    an empty row list constrains nothing.
    """
    if not 0 <= k <= cols:
        raise ValueError("k must lie between 0 and the number of columns")
    start = cols - k
    form = _rref(rows)
    block = [(pc - start, {j - start: x for j, x in r.items()}) for pc, r in form if pc >= start]
    return len(form), reduced_basis(_kernel(block, k, one, zero))


def solve(m: Sequence[Sequence], rhs: Sequence, zero) -> list | None:
    """One solution of m x = rhs, or None if inconsistent.

    Free coordinates are set to zero.  The system is inconsistent exactly
    when the reduced form of [m | rhs] has a pivot in the last column.
    """
    cols = len(m[0]) if m else 0
    form = _rref(_sparse([list(row) + [b] for row, b in zip(m, rhs)]))
    if form and form[-1][0] == cols:
        return None
    x = [zero] * cols
    for pc, row in form:
        x[pc] = row.get(cols, zero)
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
    form = _rref(_sparse([list(row) + list(rhs) for row, rhs in zip(m, b)]))
    if [pc for pc, _ in form] != list(range(n)):
        return None
    return _dense(form, n, n + (len(b[0]) if b else 0))


def invert(m: Sequence[Sequence], one, zero) -> list[list] | None:
    """Exact inverse, or None when singular."""
    return left_divide(m, identity(len(m), one, zero))


def reduced_basis(vectors: Sequence[Sequence]) -> list[list]:
    """Canonical basis of the span of the given vectors (nonzero RREF rows)."""
    return _dense(_rref(_sparse(vectors)), 0, len(vectors[0]) if vectors else 0)


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
