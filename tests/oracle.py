"""Slow reference versions of the package's fast paths, kept as oracles.

The package computes over integers only (``int_rref``); these are the
textbook rational versions it is checked against: Gauss-Jordan RREF, the
nullspace-based affine hull (and the integer one the tests build flats
with), the homogeneous affine rank, the all-pairs
vertex degrees of a slope/intercept line grid and their Fraction-keyed
ranking, the incidence pass that tests every spanned flat against every
point, the bichromatic count that tests every vertex against every
hyperplane, the arrangement vertices from the RREF of every d-subset of
hyperplanes, and a flat's sample points: one point on it, and dim + 1
affinely independent points spanning it, from which two lines are tested
for skewness. Flats are read and built only through their printed form,
the constraint rows [A | b] of ``Flat.serialize_rows`` and
``Flat.parse_rows``, so no oracle shares the package's stored form. The
meet of two flats, which the package does not need,
serves the tests' dedups and generators. Beside them are the exhaustive
forms of the prefix-sharing walks: the scan that eliminates every
(f+1)-subset from scratch, and the general-position check that ranks
every configuration of lines and picks on its own. Last come the full,
unpruned set of cover candidates (every spanned flat of dimension
1..d-1, then a point flat or an axis line per point, each mask by testing
every point), the cover search that tries every combination of
candidates within the budget, and the rank-budget cover that acceptance
criterion 2 asks about, which no command runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, product
from math import gcd, lcm
from typing import Sequence

from spanflats.incidence import CountReport, _check_arrangement
from spanflats.kernel import Flat, GeometryError, Point, common_dim, format_rational, int_rref
from spanflats.kernel import nullspace_rows
from spanflats.kernel import affine_rank as int_affine_rank
from spanflats.spans import SpannedSet, _best_cover


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


def printed_rows(flat: Flat) -> list[list[Fraction]]:
    """The flat's constraint rows [a | b] (a·x = b on it), as printed."""
    return [[Fraction(v) for v in row] for row in flat.serialize_rows()]


def flat_of(d: int, rows) -> Flat:
    """The flat of rational constraint rows [a | b], through the parser of
    the printed form."""
    return Flat.parse_rows(d, [[format_rational(v) for v in row] for row in rows])


def hull_rows(points) -> tuple[tuple[Fraction, ...], ...]:
    """Rational RREF of the constraints [A | b] of the points' affine hull:
    the nullspace of the homogeneous point matrix [p | 1], since a·x = b
    vanishes on every p exactly when (a, -b) kills every row."""
    d = points[0].dim
    homog = [list(p.coords) + [Fraction(1)] for p in points]
    return rref([w[:d] + (-w[d],) for w in nullspace(homog, d + 1)])[0]


def affine_hull(points) -> Flat:
    """Smallest flat containing all the points: the canonical Flat of the
    integer nullspace of their homogeneous rows, the hull the tests build
    flats with."""
    d = common_dim(points)
    rows, pivots = int_rref([p.hom for p in points])
    return Flat(d, nullspace_rows(rows, pivots, d + 1))


def meet_rows(rows1, rows2, d: int):
    """Rational RREF of the meet of two constraint systems, or None when
    it is empty."""
    red, pivots = rref(list(rows1) + list(rows2))
    return None if d in pivots else red


def meet(f1: Flat, f2: Flat) -> Flat | None:
    """f1 ∩ f2 as a canonical Flat, from the int_rref of both constraint
    systems stacked, or None when the intersection is empty."""
    try:
        return Flat(f1.ambient_dim, f1.rows + f2.rows)
    except GeometryError:
        return None


def contains(rows, point) -> bool:
    d = point.dim
    return all(sum(row[i] * point.coords[i] for i in range(d)) == row[d] for row in rows)


def affine_rank(points) -> int:
    return len(rref([list(p.coords) + [Fraction(1)] for p in points])[0])


def any_point(flat: Flat) -> Point:
    """Some point on the flat: free coordinates 0, pivots from b."""
    coords = [Fraction(0)] * flat.ambient_dim
    for row in printed_rows(flat):
        pc = next(i for i, v in enumerate(row) if v)
        coords[pc] = row[-1] / row[pc]
    return Point(coords)


def spanning_points(flat: Flat) -> list[Point]:
    """dim+1 affinely independent points whose hull is the flat: any_point,
    then one step along each free coordinate."""
    rows = printed_rows(flat)
    pivots = [next(i for i, v in enumerate(row) if v) for row in rows]
    base = any_point(flat)
    pts = [base]
    for free in range(flat.ambient_dim):
        if free in pivots:
            continue
        coords = list(base.coords)
        coords[free] += 1
        for row, pc in zip(rows, pivots):
            coords[pc] -= row[free] / row[pc]
        pts.append(Point(coords))
    return pts


def skew(l1: Flat, l2: Flat) -> bool:
    """Whether two lines are skew: their join is 3-dimensional (meeting or
    parallel lines span a plane at most)."""
    return affine_hull(spanning_points(l1) + spanning_points(l2)).dim == 3


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


def ranked_vertices(
    degrees: dict[tuple[Fraction, Fraction], int]
) -> list[tuple[int, tuple[Fraction, Fraction]]]:
    """Grid vertices as (degree, (x, y)), richest first, ties by coordinates,
    sorted on their Fraction keys."""
    return sorted(((deg, v) for v, deg in degrees.items()), key=lambda t: (-t[0], t[1]))


def count_bichromatic(a) -> CountReport:
    """Exact incidence counts between the vertex set and the red (and all)
    hyperplanes, by testing every vertex against every hyperplane."""
    _check_arrangement(a)
    red_degrees = []
    total = 0
    for v in a.vertices:
        deg = sum(1 for h in a.red if h.contains(v))
        total += deg + sum(1 for h in a.blue if h.contains(v))
        red_degrees.append(deg)
    return CountReport(
        red_incidences=sum(red_degrees),
        total_incidences=total,
        per_point_red_degree=tuple(red_degrees),
        red_incident_vertex_count=sum(1 for deg in red_degrees if deg > 0),
    )


def arrangement_vertices(hyperplanes) -> list[Point]:
    """The points where some d of the hyperplanes meet in exactly one point,
    by the rational RREF of every d-subset's constraint rows; sorted."""
    d = hyperplanes[0].ambient_dim
    seen = set()
    for combo in combinations(hyperplanes, d):
        red, pivots = rref([row for h in combo for row in printed_rows(h)])
        if len(red) == d and d not in pivots:
            seen.add(Point(row[d] for row in red))
    return sorted(seen, key=lambda p: p.coords)


def attach_incidences(flats, points) -> tuple[tuple[int, ...], ...]:
    """Indices of the points on each flat, by testing every flat against
    every point (duplicates included, in input order)."""
    return tuple(
        tuple(i for i, p in enumerate(points) if flat.contains(p)) for flat in flats
    )


def right_reduced(rows) -> tuple[tuple[int, ...], ...]:
    """The rational row space of ``rows`` reduced from the right: the RREF of
    the columns read backwards, read forwards again, each row scaled to a
    primitive integer vector (its last nonzero entry positive), rows in
    order of that entry's column."""
    red, _ = rref([row[::-1] for row in rows])
    out = []
    for row in reversed(red):
        ints = [int(x * lcm(*(y.denominator for y in row))) for x in row[::-1]]
        out.append(tuple(x // gcd(*ints) for x in ints))
    return tuple(out)


def subset_scan(points, f: int) -> SpannedSet:
    """spanned_flats by eliminating every (f+1)-subset of the distinct points
    on its own: full-rank subsets keyed by their int_rref basis or, on the
    levels of codim 1 and 2 (f = d-1 and d-2), by the rational nullspace of
    the subset reduced from the right, a hyperplane by its one row; the
    masks of the subsets with one key OR-ed together, sorted by
    key."""
    bits: dict = {}
    for i, p in enumerate(points):
        bits[p] = bits.get(p, 0) | 1 << i
    d = points[0].dim
    found: dict[tuple, int] = {}
    for combo, combo_bits in zip(
        combinations([p.hom for p in bits], f + 1), combinations(bits.values(), f + 1)
    ):
        key = int_rref(combo)
        if len(key[0]) != f + 1:
            continue
        if f >= d - 2:
            key = right_reduced(nullspace(combo, d + 1))
            if f == d - 1:
                (key,) = key
        found[key] = found.get(key, 0) | sum(combo_bits)
    keys = tuple(sorted(found))
    return SpannedSet(f, keys, tuple(found[key] for key in keys))


def flats_and_points(points, masks):
    """The flat and the point indices of each mask: the indices are its set
    bits, and the flat is their hull by the rational nullspace."""
    idxs = tuple(tuple(i for i in range(len(points)) if mask >> i & 1) for mask in masks)
    d = points[0].dim
    return tuple(flat_of(d, hull_rows([points[i] for i in ix])) for ix in idxs), idxs


def verify_covering_lines(d: int, line_points) -> bool:
    """True when every configuration has full rank: each subset S of lines
    and each choice T of one point on each of some other lines with
    2|S| + |T| <= d+2, ranked on its own by affine_rank, must reach
    min(2|S| + |T|, d+1)."""
    nlines = len(line_points)
    for j in range(nlines + 1):
        for subset in combinations(range(nlines), j):
            others = [i for i in range(nlines) if i not in subset]
            for t in range(min(len(others), d + 2 - 2 * j) + 1):
                for chosen_lines in combinations(others, t):
                    for picks in product(*(line_points[i] for i in chosen_lines)):
                        pts = list(picks)
                        for i in subset:
                            pts.extend(line_points[i][:2])
                        if int_affine_rank(pts) != min(2 * j + t, d + 1):
                            return False
    return True


def _fixing(p, free: int) -> Flat:
    """The flat through p on which x_i is free for i < free and fixed for
    the others; its dimension is free."""
    d = p.dim
    return flat_of(
        d, tuple(tuple(int(j == i) for j in range(d)) + (p.coords[i],) for i in range(free, d))
    )


def cover_candidates(points, include_point_flats: bool):
    """Every cover candidate as (flat, dim, mask), none pruned: each spanned
    flat of dimension 1..d-1 from the subset scan, then the point flat of
    each distinct point when points are allowed, else the line through it
    with x_1 free. A flat met twice is kept once; masks come from testing
    every flat against every point."""
    d = points[0].dim
    unique = list(dict.fromkeys(points))
    dims: dict[Flat, int] = {}
    for f in range(1, min(d, len(unique))):
        for flat in flats_and_points(points, subset_scan(points, f).masks)[0]:
            dims[flat] = f
    free = 0 if include_point_flats else 1  # the point flat, or the axis line
    for p in unique:
        dims.setdefault(_fixing(p, free), free)
    flats = list(dims)
    incident = attach_incidences(flats, points)
    return [
        (flat, dims[flat], sum(1 << i for i in idxs)) for flat, idxs in zip(flats, incident)
    ]


def best_cover_counts(candidates, budget: int, cost_of) -> list[int]:
    """For each b in 0..budget, the most points that (flat, dim, mask)
    candidates of total cost <= b cover, trying every combination of
    candidates whose costs fit the budget."""
    cands = [(mask, cost_of(dim)) for _, dim, mask in candidates]
    best = [0] * (budget + 1)  # by the exact cost spent

    def extend(start: int, covered: int, spent: int) -> None:
        best[spent] = max(best[spent], covered.bit_count())
        for i in range(start, len(cands)):
            mask, cost = cands[i]
            if spent + cost <= budget:
                extend(i + 1, covered | mask, spent + cost)

    extend(0, 0, 0)
    return list(accumulate(best, max))


def rank_sum_cover(points, budget: int) -> bool:
    """Whether flats of any dimension, points allowed, whose ranks (dim + 1)
    sum to <= budget cover every point: the package's exact cover search,
    where only a full cover beats the floor, over the unpruned candidates."""
    n = len(points)
    cands = [(dim + 1, mask) for _, dim, mask in cover_candidates(points, include_point_flats=True)]
    return _best_cover(cands, n, budget, floor=n - 1) == n
