"""Exact Gauss-Jordan elimination, fraction-free.

The one elimination routine of the package: the transform matrix and its
inverse direction are solved with it, and matrix determinants are read off
it.  It eliminates on integers (Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968) and builds
``Fraction``s only for what it returns.
"""

from __future__ import annotations

from fractions import Fraction


def row_reduce(matrix) -> tuple[list[list[Fraction]], tuple[int, ...], Fraction]:
    """Reduce ``matrix`` (rows of integers) to reduced row echelon form.

    Returns (the nonzero reduced rows, the pivot column of each, the
    determinant of the leading square block, i.e. of the first len(matrix)
    columns).  The determinant is 0 exactly when that block is singular,
    so a square system is solvable exactly when it is nonzero.

    Each step with pivot p replaces every other row x by (p.x - f.y) / q,
    with y the pivot row, f the entry of x in the pivot column and q the
    previous pivot (1 at the start).  Every entry stays a minor of the
    row-permuted matrix, so the division is exact; after the last step each
    pivot entry equals the last pivot, which is the determinant up to the
    sign of the row swaps when the leading block is the pivot block.
    """
    rows = [list(row) for row in matrix]
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("row_reduce eliminates on rows of integers")
    n = len(rows)
    pivots: list[int] = []
    prev = 1
    sign = 1
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        y = rows[rank]
        lead = y[col]
        for i in range(n):
            if i != rank:
                f = rows[i][col]
                rows[i] = [(lead * a - f * b) // prev for a, b in zip(rows[i], y)]
        prev = lead
        pivots.append(col)
    reduced = [[Fraction(a, prev) for a in row] for row in rows[: len(pivots)]]
    det = Fraction(sign * prev) if pivots == list(range(n)) else Fraction(0)
    return reduced, tuple(pivots), det


__all__ = ["row_reduce"]
