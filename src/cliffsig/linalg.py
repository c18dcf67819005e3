"""Exact linear algebra over rational matrices (lists of rows).

There is one elimination, ``nullspace``: fraction-exact Gauss-Jordan on
sparse rows, which needs no pivoting heuristics since nothing rounds.
It gives involution validation its eigenspaces.  The symmetric-signature
routine diagonalizes by congruence (Schur complements plus the
hyperbolic row/column trick for zero diagonals) and never computes
eigenvalues; involution validation reads the signatures of the even and
odd spaces from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

Matrix = list[list[Fraction]]
Rational = Fraction | int


def to_fractions(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _subtract(row: dict[int, Rational], f: Rational, piv: Mapping[int, Rational]) -> None:
    """row -= f * piv in place, dropping the entries that cancel."""
    for c, v in piv.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def nullspace(rows: Iterable[Mapping[int, Rational]], dim: int) -> list[list[Rational]]:
    """Basis of {x : row . x = 0 for every row} over ``dim`` coordinates.

    Each row is sparse, {column: nonzero value}.  Gauss-Jordan elimination
    on dict rows keeps the reduced row-echelon form as each row arrives:
    the row is reduced by the pivot rows, normalised at its lowest column,
    and that column is cleared from the other pivot rows.  A pivot row
    keeps its entries beyond the pivot, whose 1 is implicit.  The basis
    has one vector per free column f, with 1 at f and minus the pivot
    rows' f entries at the pivot columns.  That basis is unique, whatever
    the row order.  Entries are ints where integral (every 0 and every
    free-column 1) and Fractions otherwise.
    """
    pivots: dict[int, dict[int, Rational]] = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c])
        if not row:
            continue
        c = min(row)
        d = row.pop(c)
        new = {cc: Fraction(v, d) for cc, v in row.items()}
        for piv in pivots.values():
            if c in piv:
                _subtract(piv, piv.pop(c), new)
        pivots[c] = new
    basis = []
    for fcol in range(dim):
        if fcol in pivots:
            continue
        v: list[Rational] = [0] * dim
        v[fcol] = 1
        for pc, prow in pivots.items():
            val = prow.get(fcol)
            if val:
                v[pc] = -val
        basis.append(v)
    return basis


def symmetric_signature(s) -> tuple[int, int, int]:
    """Signature (pos, neg, zero) of a symmetric matrix, by congruence.

    Repeatedly takes a Schur complement at a nonzero diagonal pivot; when
    the active diagonal is all zero but some off-diagonal entry s_ij is
    not, adding row/column j to row/column i manufactures the pivot
    2*s_ij (a congruence, so the signature is unchanged).
    """
    a = to_fractions(s)
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
    active = list(range(n))
    pos = neg = 0
    while active:
        k = next((i for i in active if a[i][i]), None)
        if k is None:
            hyper = None
            for i in active:
                for j in active:
                    if j > i and a[i][j]:
                        hyper = (i, j)
                        break
                if hyper:
                    break
            if hyper is None:
                break  # remaining block is identically zero
            i, j = hyper
            for c in active:
                a[i][c] += a[j][c]
            for r in active:
                a[r][i] += a[r][j]
            continue
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        pivot_row = a[k]
        for i in active:
            f = a[i][k]
            if f:
                f /= d
                row = a[i]
                for j in active:
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
                row[k] = Fraction(0)
    return pos, neg, n - pos - neg
