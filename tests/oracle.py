"""Fraction-arithmetic reference kernel, kept as the slow oracle.

The package computes over integers only (``int_rref``); these are the
textbook rational versions it is checked against: Gauss-Jordan RREF, the
nullspace-based affine hull, the homogeneous affine rank, the all-pairs
vertex degrees of a slope/intercept line grid, and the incidence pass that
tests every spanned flat against every point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence


def rref(rows):
    """Reduced row echelon form with exact arithmetic.

    Returns (nonzero rows, pivot column indices). Pivot entries are 1 and are
    the only nonzero entries in their columns, so the output is a canonical
    basis of the input row space.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [v / inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {w : M·w = 0} for the matrix with the given rows."""
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(tuple(v))
    return basis


def hull_rows(points) -> tuple[tuple[Fraction, ...], ...]:
    """Rational RREF of the constraints [A | b] of the points' affine hull:
    the nullspace of the homogeneous point matrix [p | 1], since a·x = b
    vanishes on every p exactly when (a, -b) kills every row."""
    d = points[0].dim
    homog = [list(p.coords) + [Fraction(1)] for p in points]
    return rref([w[:d] + (-w[d],) for w in nullspace(homog, d + 1)])[0]


def meet_rows(rows1, rows2, d: int):
    """Rational RREF of the meet of two constraint systems, or None when
    it is empty."""
    red, pivots = rref(list(rows1) + list(rows2))
    return None if d in pivots else red


def contains(rows, point) -> bool:
    d = point.dim
    return all(sum(row[i] * point.coords[i] for i in range(d)) == row[d] for row in rows)


def affine_rank(points) -> int:
    return len(rref([list(p.coords) + [Fraction(1)] for p in points])[0])


def grid_vertex_degrees(
    pairs: Sequence[tuple[int, int]]
) -> dict[tuple[Fraction, Fraction], int]:
    """All pairwise intersection points of the lines y = a*x + b, with the
    number of lines through each."""
    vertices: set[tuple[Fraction, Fraction]] = set()
    for (a1, b1), (a2, b2) in combinations(pairs, 2):
        if a1 == a2:
            continue
        x = Fraction(b2 - b1, a1 - a2)
        vertices.add((x, a1 * x + b1))
    return {
        (x, y): sum(1 for a, b in pairs if a * x + b == y) for x, y in vertices
    }


def attach_incidences(flats, points) -> tuple[tuple[int, ...], ...]:
    """Indices of the points on each flat, by testing every flat against
    every point (duplicates included, in input order)."""
    return tuple(
        tuple(i for i, p in enumerate(points) if flat.contains(p)) for flat in flats
    )
