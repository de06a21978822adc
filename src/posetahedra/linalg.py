"""Small exact linear algebra over the integers.

Everything here is deterministic: pivots are chosen as the first nonzero
entry of a reduced row, so identical inputs give identical bases.
Matrices are lists of row lists; no numpy because all arithmetic must stay
exact.  Ranks, kernels, unique solves and hyperplanes are all read off one
fraction-free Gauss-Jordan elimination (``_gauss_jordan``) of rows cleared
of denominators.  Its rows are positive multiples of the rows of
the reduced row echelon form, which is unique, so the answers equal those
of Fraction row reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list[Fraction]


class LinAlgError(Exception):
    pass


def _gauss_jordan(rows) -> dict[int, list[int]]:
    """Per pivot column c of the integer rows, a row of their span that is
    nonzero at c and zero left of c and at every other pivot column."""
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
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
        if len(basis) == len(row):  # every column a pivot: later rows reduce to 0
            break
    return basis


def _cleared(rows) -> list[list[int]]:
    """Each row of ints or Fractions times its least common denominator."""
    return [homogeneous(row)[:-1] for row in rows]


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of the kernel; one vector per free column, free entry set to 1."""
    basis = _gauss_jordan(_cleared(rows))
    kernel = []
    for fc in range(ncols):
        if fc in basis:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for c, b in basis.items():
            vec[c] = Fraction(-b[fc], b[c])
        kernel.append(vec)
    return kernel


def solve_unique(rows, rhs) -> Row:
    """Solve A x = b when the solution exists and is unique."""
    ncols = len(rows[0]) if rows else 0
    basis = _gauss_jordan(_cleared([*row, b] for row, b in zip(rows, rhs)))
    if ncols in basis:
        raise LinAlgError("inconsistent system")
    if len(basis) < ncols:
        raise LinAlgError("underdetermined system")
    return [Fraction(basis[c][ncols], basis[c][c]) for c in range(ncols)]


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (-1 for none).

    The rank of the homogenized points (v, 1), less one.  Scaling a row
    leaves the rank alone, so each point is cleared of denominators on its
    own and the rank is taken over the integers.
    """
    return integer_rank(homogeneous(p) for p in points) - 1


def homogeneous(point) -> tuple[int, ...]:
    """The integer row D * (point, 1), D > 0 the least common denominator.

    Entries may be ints or Fractions.  A tuple, so that rows can be keys.
    """
    den = math.lcm(*(x.denominator for x in point))
    return (*[x.numerator * (den // x.denominator) for x in point], den)


def integer_rank(rows) -> int:
    """Rank of integer rows: the number of pivots of their elimination."""
    return len(_gauss_jordan(rows))


def _eliminate(row: list[int], b: list[int], c: int) -> list[int]:
    """b[c] * row - row[c] * b, which is 0 in column c, over the gcd of its entries."""
    row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def hyperplane_through(rows) -> tuple[list[int], int] | None:
    """The hyperplane <n, v> = b through the points with the given rows, or None.

    ``rows`` holds each point as its homogeneous row D * (v, 1).  The
    vector (n, -b) spans the kernel of those rows; it is read off their
    Gauss-Jordan elimination and returned as a primitive integer (n, b).
    Returns None when the kernel is not a line, that is when the points do
    not affinely span a hyperplane, or when its normal is zero.  The
    orientation of (n, b) is arbitrary.
    """
    width = len(rows[0]) if rows else 0
    basis = _gauss_jordan(rows)
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
