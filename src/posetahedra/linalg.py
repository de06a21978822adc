"""Small exact linear algebra over Fraction and over the integers.

Everything here is deterministic: pivots are chosen as the first nonzero
entry in column order, so identical inputs give identical bases.  Matrices
are lists of row lists; no numpy because all arithmetic must stay rational.
Ranks and hyperplanes are taken over the integers, on points cleared of
denominators to homogeneous rows (``homogeneous``); ``rref`` and the
solves built on it stay on Fraction for the affine charts.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list[Fraction]


class LinAlgError(Exception):
    pass


def _copy(rows) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows, ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    mat = _copy(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of the kernel; one vector per free column, free entry set to 1."""
    mat, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def solve_unique(rows, rhs) -> Row:
    """Solve A x = b when the solution exists and is unique."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        raise LinAlgError("inconsistent system")
    if len(pivots) < ncols:
        raise LinAlgError("underdetermined system")
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = mat[r][ncols]
    return sol


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (-1 for none).

    The rank of the homogenized points (v, 1), less one.  Scaling a row
    leaves the rank alone, so each point is cleared of denominators on its
    own and the rank is taken over the integers.
    """
    return integer_rank(homogeneous(p) for p in points) - 1


def homogeneous(point) -> list[int]:
    """The integer row D * (point, 1), D > 0 the least common denominator.

    Entries may be ints or Fractions.
    """
    den = math.lcm(*(x.denominator for x in point))
    return [x.numerator * (den // x.denominator) for x in point] + [den]


def integer_rank(rows) -> int:
    """Rank of integer rows by fraction-free elimination.

    Each row is reduced against an echelon basis built from the rows before
    it, then divided by the gcd of its entries, which keeps the integers
    small and the result exact.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in rows:
        for c, b in basis:
            if row[c]:
                row = _eliminate(row, b, c)
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
            if len(basis) == len(row):
                break
    return len(basis)


def _eliminate(row: list[int], b: list[int], c: int) -> list[int]:
    """b[c] * row - row[c] * b, which is 0 in column c, over the gcd of its entries."""
    row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def hyperplane_through(rows) -> tuple[list[int], int] | None:
    """The hyperplane <n, v> = b through the points with the given rows, or None.

    ``rows`` holds each point as its homogeneous row D * (v, 1).  The
    vector (n, -b) spans the kernel of those rows; it is found by
    fraction-free Gauss-Jordan elimination and returned as a primitive
    integer (n, b).  Returns None when the kernel is not a line, that is
    when the points do not affinely span a hyperplane, or when its normal
    is zero.  The orientation of (n, b) is arbitrary.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row, 0 in every other pivot column
    width = 0
    for row in rows:
        width = len(row)
        for c, b in basis.items():
            if row[c]:
                row = _eliminate(row, b, c)
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        for c, b in basis.items():
            if b[pivot]:
                basis[c] = _eliminate(b, row, pivot)
        basis[pivot] = row
    free = [c for c in range(width) if c not in basis]
    if len(free) != 1:
        return None
    # each basis row is a * e_c + r * e_free, so the kernel is spanned by
    # L * e_free - sum_c (r L / a) e_c, L the lcm of the pivots
    f = free[0]
    lcm = math.lcm(*(b[c] for c, b in basis.items()))
    vec = [0] * width
    vec[f] = lcm
    for c, b in basis.items():
        vec[c] = -b[f] * (lcm // b[c])
    g = math.gcd(*vec)
    *normal, neg_offset = (x // g for x in vec)
    if not any(normal):
        return None
    return normal, -neg_offset
