"""Small exact linear algebra over Fraction.

Everything here is deterministic: pivots are chosen as the first nonzero
entry in column order, so identical inputs give identical bases.  Matrices
are lists of row lists; no numpy because all arithmetic must stay rational.
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
                row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
                g = math.gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
            if len(basis) == len(row):
                break
    return len(basis)


def hyperplane_through(points) -> tuple[Row, Fraction] | None:
    """The unique hyperplane n.x = b through the points, or None.

    Returns None when the points do not affinely span a hyperplane
    (codimension != 1).  The scale/orientation of (n, b) is arbitrary.
    """
    points = list(points)
    if not points:
        return None
    d = len(points[0])
    rows = [list(p) + [Fraction(-1)] for p in points]
    basis = nullspace(rows, d + 1)
    if len(basis) != 1:
        return None
    vec = basis[0]
    normal, offset = vec[:d], vec[d]
    if all(x == 0 for x in normal):
        return None
    return normal, offset


def primitive(normal, offset) -> tuple[Row, Fraction]:
    """Scale (n, b) by a positive rational so entries are coprime integers."""
    entries = list(normal) + [offset]
    lcm = 1
    for e in entries:
        if e != 0:
            d = e.denominator
            lcm = lcm * d // _gcd(lcm, d)
    scaled = [e * lcm for e in entries]
    g = 0
    for e in scaled:
        g = _gcd(g, abs(e.numerator))
    if g > 1:
        scaled = [e / g for e in scaled]
    return scaled[:-1], scaled[-1]


def _gcd(a, b):
    a, b = int(a), int(b)
    while b:
        a, b = b, a % b
    return a
