"""Exact Gauss-Jordan elimination over the rationals.

The one elimination routine of the package: the transform matrix and its
inverse direction are solved with it, and matrix determinants are read off
it.
"""

from __future__ import annotations

from fractions import Fraction


def row_reduce(matrix) -> tuple[list[list[Fraction]], tuple[int, ...], Fraction]:
    """Reduce ``matrix`` (rows of integers or Fractions) to reduced row echelon form.

    Returns (the nonzero reduced rows, the pivot column of each, the
    determinant of the leading square block, i.e. of the first len(matrix)
    columns).  The determinant is 0 exactly when that block is singular,
    so a square system is solvable exactly when it is nonzero.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        det *= lead
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    if pivots != list(range(n)):
        det = Fraction(0)
    return rows[: len(pivots)], tuple(pivots), det


__all__ = ["row_reduce"]
