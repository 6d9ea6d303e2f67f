"""Enumeration of flats spanned by point sets and related cover searches.

Spanned flats are found by a pruned prefix walk: the (f+1)-subsets of the
distinct points are visited depth-first in lexicographic order, each prefix
carrying its canonical row space (``extend_rref`` adds one point per level),
and a rank-deficient prefix is dropped with its whole subtree. Each full-rank
subset is keyed by its canonical form, so equal flats deduplicate, and the
points on a flat, the union of the subsets spanning it, are gathered as a
bitmask. Hyperplanes come from the dual side of the codim-2 subsets, so one
walk yields both top levels. A ``SpannedSet`` keeps the keys and masks in
canonical (key) order, identical however the work is split; a flat's
constraint system is built only where one is printed or certified.

The cover queries (``is_r_degenerate``, ``max_degenerate_subset``,
``rank_sum_cover`` and ``max_cover_plane_or_two_lines``) are one exact
cover search, ``_best_cover``, over candidates that carry their cost (a
flat's dimension, or its rank where point flats are allowed; decided in
``_candidate_flats``) and their mask: it finds the most points that flats
of total cost within a budget cover, pruning with the best size/cost
ratio, and a query is the same search with a floor that only a better
cover beats (a full cover, for a decision). Only the flats of the cover it
returns are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .kernel import (
    Basis,
    Flat,
    GeometryError,
    Point,
    affine_hull,
    common_dim,
    extend_rref,
    nullspace_rows,
    rowspace_constraints,
)


@dataclass(frozen=True)
class SpannedSet:
    """All f-flats spanned by a point set, as the walk finds them: each
    flat's canonical point basis (the ``int_rref`` rows and pivots of its
    homogeneous points; sorted) and the bitmask of the point indices on it.
    The ``Flat`` of a key and the index tuples are derived on request."""

    f: int
    keys: tuple[Basis, ...]
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.masks)

    def flat(self, i: int) -> Flat:
        """The constraint system of the i-th flat."""
        rows, pivots = self.keys[i]
        d = len(rows[0]) - 1
        return Flat(d, rowspace_constraints(d, rows, pivots))

    @property
    def flats(self) -> tuple[Flat, ...]:
        return tuple(map(self.flat, range(self.count)))

    @property
    def per_flat_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            for mask in self.masks
        )

    def to_json_dict(self) -> dict:
        return {
            "f": self.f,
            "count": self.count,
            "flats": [
                {"constraints": flat.serialize_rows(), "point_indices": list(idxs)}
                for flat, idxs in zip(self.flats, self.per_flat_points)
            ],
        }


def _index_masks(points: Sequence[Point]) -> dict[Point, int]:
    """Each distinct point (in first-seen order) -> bitmask of its indices."""
    masks: dict[Point, int] = {}
    for i, p in enumerate(points):
        masks[p] = masks.get(p, 0) | 1 << i
    return masks


def spanned_flats(points: Sequence[Point], f: int) -> SpannedSet:
    """The set of f-flats that are affine hulls of f+1 of the points.

    The distinct points' (f+1)-subsets are walked depth-first in
    lexicographic order; each prefix carries the canonical primitive-integer
    form of its homogeneous point row space, extended by one point per
    level, and a prefix that loses rank is pruned with every subset below
    it. A full-rank subset is keyed by that form with its pivots. By the
    exchange lemma the points on a spanned f-flat are exactly the union of
    the (f+1)-subsets with its key, so the walk itself gathers them, as a
    bitmask over the indices. For f = d-1 the walk gives the (d-2)-flats
    too (``_walk_levels``); the last point sequence's levels are memoized.
    """
    d = common_dim(points)
    if not 0 <= f <= d - 1:
        raise GeometryError(f"flat dimension {f} out of range 0..{d - 1}")
    points = tuple(points)
    levels = _LEVELS.get(points)
    if levels is None:
        _LEVELS.clear()
        levels = _LEVELS[points] = {}
    if f not in levels:
        levels.update(_walk_levels(points, f))
    return levels[f]


# Keyed on the point sequence (indices are never served to a reordering): every
# workload asks for two levels of one set at a time, and one walk gives both.
_LEVELS: dict[tuple[Point, ...], dict[int, SpannedSet]] = {}


# Admits the Purdy cells (9, 3), C(24, 9) = 1,307,504 subsets, and (10, 2).
MAX_WALK_SUBSETS = 2_000_000


def check_walk_size(n: int, f: int) -> None:
    """Raise GeometryError when the walk for the f-flats of n points has more
    than ``MAX_WALK_SUBSETS`` subsets on either of its last two levels: C(n, f)
    (the codim-2 keys of a hyperplane walk) or C(n, f+1). These are its
    widest: a walk to depth t extends a prefix of j points only while the
    t-j still to pick fit after it, so level j holds C(n-t+j, j) prefixes,
    which grows with j. As C(n, r) >= 2^r for r = min(j, n-j), r > 20 is
    over without a product."""
    for j in (f, f + 1):
        r = max(min(j, n - j), 0)
        if r > 20 or comb(n, r) > MAX_WALK_SUBSETS:
            raise GeometryError(f"walk of C({n}, {j}) subsets exceeds the cap {MAX_WALK_SUBSETS:,}")


def _walk(
    homs: list, bits: list, found: dict, start: int, basis: Basis, mask: int, left: int, leaf=None
) -> None:
    """Extend the prefix (row space ``basis``, index mask ``mask``) by each
    row from ``start`` on, with ``left`` rows still to pick, and OR each
    full-rank subset's mask into ``found`` under its canonical key; then call
    ``leaf``, if given, with that key, mask and the next index, if any."""
    for i in range(start, len(homs) - left + 1):
        ext = extend_rref(basis, homs[i])
        if ext is None:
            continue  # rank-deficient prefix: no subset below it spans an f-flat
        if left > 1:
            _walk(homs, bits, found, i + 1, ext, mask | bits[i], left - 1, leaf)
            continue
        found[ext] = found.get(ext, 0) | mask | bits[i]
        if leaf and i + 1 < len(homs):
            leaf(ext, mask | bits[i], i + 1)


def _hyperplane_key(w: Sequence[int]) -> Basis:
    """The walk's key of the hyperplane with primitive normal w, last nonzero
    entry w_j > 0: pivot i != j has row (w_j e_i - w_i e_j)/content, e_i if i > j."""
    n, j = len(w), max(c for c, x in enumerate(w) if x)
    rows = []
    for i in (c for c in range(n) if c != j):
        g, row = gcd(w[j], w[i]), [0] * n
        row[i], row[j] = w[j] // g, -w[i] // g
        rows.append(tuple(row))
    return tuple(rows), tuple(c for c in range(n) if c != j)


def _sorted_set(f: int, found: dict[Basis, int]) -> SpannedSet:
    keys = tuple(sorted(found))
    return SpannedSet(f, keys, tuple(found[key] for key in keys))


def _walk_levels(points: tuple[Point, ...], f: int) -> dict[int, SpannedSet]:
    """The f-flats; for f = d-1 >= 1 also the (d-2)-flats where the walk
    stops, whose nullspace rows (u, v) give each later point p off one the
    hyperplane normal (v·p)u - (u·p)v, primitive, last nonzero entry > 0."""
    bits = _index_masks(points)
    homs, masks = [p.hom for p in bits], list(bits.values())
    found: dict[Basis, int] = {}  # canonical key -> mask of incident indices
    if f != len(homs[0]) - 2 or f < 1:
        _walk(homs, masks, found, 0, ((), ()), 0, f + 1)
        return {f: _sorted_set(f, found)}
    normals: dict[tuple[int, ...], int] = {}

    def pencil(basis: Basis, mask: int, start: int) -> None:
        u, v = nullspace_rows(*basis, len(homs[0]))
        for p, bit in zip(homs[start:], masks[start:]):
            a, b = sum(map(mul, u, p)), sum(map(mul, v, p))
            if a or b:  # else p is on the codim-2 flat
                w = [b * x - a * y for x, y in zip(u, v)]
                g = gcd(*w) if next(x for x in reversed(w) if x) > 0 else -gcd(*w)
                w = tuple([x // g for x in w])
                normals[w] = normals.get(w, 0) | mask | bit

    _walk(homs, masks, found, 0, ((), ()), 0, f, pencil)
    hyperplanes = {}
    while normals:  # popped, so that the two tables are never both whole
        w, mask = normals.popitem()
        hyperplanes[_hyperplane_key(w)] = mask
    return {f - 1: _sorted_set(f - 1, found), f: _sorted_set(f, hyperplanes)}


def arrangement_vertices(hyperplanes: Sequence[Flat]) -> list[Point]:
    """Deduplicated points where d of the hyperplanes meet 0-dimensionally.

    The d-subsets of the distinct constraint rows [a | b] are walked like
    point subsets. A subset meets in one point exactly when its key has no
    pivot in column d; its row i is then c_i x_i = b_i, so x_i = b_i / c_i.
    The d independent constraints through a point span all the constraints
    through it, so each vertex has one key.
    """
    if not hyperplanes:
        return []
    d = hyperplanes[0].ambient_dim
    for h in hyperplanes:
        if h.ambient_dim != d or h.dim != d - 1:
            raise GeometryError(f"non-hyperplane input (dim {h.dim} in E^{h.ambient_dim})")
    rows = list(dict.fromkeys(h.rows[0] for h in hyperplanes))
    found: dict[Basis, int] = {}
    _walk(rows, [0] * len(rows), found, 0, ((), ()), 0, d)
    vertices = []
    for key, pivots in found:
        if pivots[-1] < d:  # else the d hyperplanes have no common point
            den = lcm(*(row[i] for i, row in enumerate(key)))
            nums = (row[d] * (den // row[i]) for i, row in enumerate(key))
            vertices.append(Point.from_hom((*nums, den)))
    return sorted(vertices, key=lambda p: p.coords)


def max_collinear(points: Sequence[Point]) -> int:
    """Size of the largest collinear subset (duplicates count once)."""
    if not points:
        raise GeometryError("empty point set")
    unique = list(dict.fromkeys(points))
    if len(unique) <= 2 or common_dim(unique) == 1:  # in E^1 every point is on the one line
        return len(unique)
    return max(mask.bit_count() for mask in spanned_flats(unique, 1).masks)


@dataclass(frozen=True)
class CoverCertificate:
    """Witness that a set of nonzero-dimension flats covers some points."""

    flats: tuple[Flat, ...]
    covered_count: int

    @property
    def dims_sum(self) -> int:
        return sum(flat.dim for flat in self.flats)


def _axis_line_through(p: Point) -> Flat:
    """The line through p in the first coordinate direction (x_1 free)."""
    return affine_hull([p, Point((p[0] + 1, *p.coords[1:]))])


Candidate = tuple[int, int, Callable[[], Flat]]  # cost, incidence mask, builder


def _candidate_flats(points: Sequence[Point], by_rank: bool) -> list[Candidate]:
    """(cost, incidence mask, flat builder) candidates for cover searches: a
    flat costs its dimension, or its rank when ``by_rank``.

    Covering flats can always be shrunk to the hull of the points they
    cover, so the spanned flats of dimension 1..d-1 are exhaustive
    candidates, with the point flat of each point (its copies) when flats
    cost their rank. Otherwise a point on no spanned line needs a line of
    its own; that happens only for a single distinct point, or in E^1,
    where the one line is the whole space. With two distinct points in E^2
    and up, a spanned line through a point costs what any line through it
    costs and holds a superset of its points, so no other line can improve
    a cover. No points give no candidates.
    """
    d = points[0].dim if points else 0
    copies = _index_masks(points)
    out: list[Candidate] = []
    for f in range(min(d, len(copies)) - 1, 0, -1):  # d-1 first: its walk gives d-2 too
        spanned = spanned_flats(points, f)
        out.extend(
            (f + by_rank, mask, partial(spanned.flat, i)) for i, mask in enumerate(spanned.masks)
        )
    if by_rank:
        out.extend((1, mask, partial(affine_hull, [p])) for p, mask in copies.items())
    elif d == 1 or len(copies) == 1:
        out.append((1, (1 << len(points)) - 1, partial(_axis_line_through, points[0])))
    return out


def _best_cover(
    candidates: list[Candidate], n: int, budget: int, floor: int = 0
) -> tuple[int, list[Callable[[], Flat]] | None]:
    """The most of the n points that candidates of total cost <= budget
    cover, and the builders of one cover that reaches it; (floor, None)
    when no cover takes more than floor points.

    Branch on the lowest open point (neither covered nor given up): take a
    candidate through it, cheapest and then largest first, or give it up.
    Any optimal cover is followed this way, so the search is exact. A state
    is pruned when covered + min(open, remaining * ratio) cannot beat the
    best so far, ratio being the largest size/cost of a candidate (exact, in
    integers; tested at the root before the per-point index is built), or
    when its (open, remaining) pair was explored with at least as many
    points covered: the best only grows, so that visit tried every
    completion this one could make.
    """
    cands = [c for c in candidates if c[0] <= budget]
    num, den = 0, 1  # the largest size/cost, compared in integers
    for cost, mask, _ in cands:
        if mask.bit_count() * den > num * cost:
            num, den = mask.bit_count(), cost
    if min(n, budget * num // den) <= floor:
        return floor, None
    by_point: list[list[Candidate]] = [[] for _ in range(n)]
    for c in sorted(cands, key=lambda c: (c[0], -c[1].bit_count())):
        mask = c[1]
        while mask:
            by_point[(mask & -mask).bit_length() - 1].append(c)
            mask &= mask - 1
    best, cover = floor, None
    chosen: list[Callable[[], Flat]] = []
    explored: dict[tuple[int, int], int] = {}  # (open, remaining) -> covered

    def go(open_: int, covered: int, remaining: int) -> None:
        nonlocal best, cover
        if covered > best:
            best, cover = covered, list(chosen)
        if covered + min(open_.bit_count(), remaining * num // den) <= best:
            return
        if explored.get((open_, remaining), -1) >= covered:
            return
        explored[open_, remaining] = covered
        for cost, mask, build in by_point[(open_ & -open_).bit_length() - 1]:
            if cost <= remaining:
                chosen.append(build)
                go(open_ & ~mask, covered + (open_ & mask).bit_count(), remaining - cost)
                chosen.pop()
        go(open_ & (open_ - 1), covered, remaining)

    go((1 << n) - 1, 0, budget)
    return best, cover


def is_r_degenerate(
    points: Sequence[Point], r: int
) -> tuple[bool, CoverCertificate | None]:
    """Whether flats of nonzero dimension with dimensions summing to < r
    cover all the points; with a witnessing certificate when they do. The
    cover search at cost = dimension, where only a full cover beats the
    floor."""
    if r < 1:
        raise GeometryError(f"r must be >= 1, got {r}")
    n = len(points)
    _, cover = _best_cover(_candidate_flats(points, by_rank=False), n, r - 1, floor=n - 1)
    if cover is None:
        return False, None
    return True, CoverCertificate(tuple(build() for build in cover), n)


def rank_sum_cover(points: Sequence[Point], budget: int) -> list[Flat] | None:
    """A cover by flats (any dimension, points allowed) whose ranks sum to
    <= budget, or None when no such cover exists. The cover search at
    cost = rank, where only a full cover beats the floor."""
    n = len(points)
    _, cover = _best_cover(_candidate_flats(points, by_rank=True), n, budget, floor=n - 1)
    return None if cover is None else [build() for build in cover]


def max_degenerate_subset(points: Sequence[Point], dim_budget: int) -> int:
    """Largest number of points coverable by flats of nonzero dimension with
    dimensions summing to <= dim_budget: the cover search at cost =
    dimension."""
    return _best_cover(_candidate_flats(points, by_rank=False), len(points), dim_budget)[0]


def max_cover_plane_or_two_lines(points: Sequence[Point]) -> CoverCertificate:
    """The most input points on a single plane or on a pair of spanned lines,
    with a witnessing certificate.

    Two distinct coplanar spanned lines hold three affinely independent
    points, and the plane those span is a spanned plane holding every point
    of both lines. A pair of lines that beats every plane is therefore
    skew, and no skew test is needed. It is the cover search over the
    spanned lines at cost = dimension and budget 2, with the richest plane
    as its floor: the plane is the certificate unless lines beat it.
    """
    if points and points[0].dim != 3:
        raise GeometryError("ambient dimension must be 3")
    if not points:
        return CoverCertificate((), 0)
    if len(set(points)) == 1:
        return CoverCertificate((_axis_line_through(points[0]),), len(points))
    planes = spanned_flats(points, 2)  # the walk gives the lines too
    lines = spanned_flats(points, 1)
    candidates = [(1, mask, partial(lines.flat, i)) for i, mask in enumerate(lines.masks)]
    on_plane = [mask.bit_count() for mask in planes.masks]
    floor = max(on_plane, default=0)
    best, cover = _best_cover(candidates, len(points), 2, floor=floor)
    if cover is None:
        return CoverCertificate((planes.flat(on_plane.index(floor)),), floor)
    return CoverCertificate(tuple(build() for build in cover), best)


# The columns of a conjecture-search row, in output order, each with the
# value a degenerate sample keeps (None: every row sets it).
CONJECTURE_COLUMNS = {
    "sample": None, "d": None, "n": None, "r": None, "seed": None, "floor": None,
    "degenerate": None, "k": 0, "hyperplanes": 0, "codim2_flats": 0,
    "max_point_degree": 0, "incidence_ratio": 0.0, "span_ratio": 0.0, "flagged": False,
}


def conjecture_row(params: tuple, points: list[Point] | None = None) -> dict:
    """One conjecture-search row for (sample, d, n, r, seed, floor): the
    degeneracy and span statistics of the given ``points``, or else of n
    distinct points with uniform integer coordinates in -99..99, seeded by
    (d, n, seed, sample). They are whether the set is r-degenerate, k = n
    minus the largest (r-1)-degenerate subset, the hyperplane and codim-2
    counts, and the two ratios the conjectures bound below, flagged when
    one falls under the floor. A degenerate sample keeps the other columns'
    ``CONJECTURE_COLUMNS`` values; a given set gets every statistic."""
    sample, d, n, r, seed, floor_value = params
    given = points is not None
    if not given:
        rng = random.Random(f"conjecture:{d}:{n}:{seed}:{sample}")
        points = []
        while len(points) < n:
            candidate = Point(rng.randint(-99, 99) for _ in range(d))
            if candidate not in points:
                points.append(candidate)
    degenerate, _ = is_r_degenerate(points, r)
    row = {
        **CONJECTURE_COLUMNS, "sample": sample, "d": d, "n": n, "r": r, "seed": seed,
        "floor": floor_value, "degenerate": degenerate,
    }
    if degenerate and not given:
        return row
    hyps = spanned_flats(points, d - 1)
    codim2 = spanned_flats(points, d - 2)
    max_degree = max(sum(mask >> i & 1 for mask in hyps.masks) for i in range(n))
    k = n - max_degenerate_subset(points, r - 1)
    incidence_ratio = max_degree / codim2.count if codim2.count else 0.0
    span_ratio = hyps.count / (n * k ** (d - 1)) if k else 0.0
    return {
        **row, "k": k, "hyperplanes": hyps.count, "codim2_flats": codim2.count,
        "max_point_degree": max_degree, "incidence_ratio": incidence_ratio,
        "span_ratio": span_ratio,
        "flagged": 0.0 < span_ratio < floor_value or 0.0 < incidence_ratio < floor_value,
    }


def read_point_file(lines: Iterable[str]) -> list[Point]:
    """Parse the point-set format: one point per line, '#' lines ignored."""
    points: list[Point] = []
    dim: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pt = Point.parse(line, dim)
        except GeometryError as exc:
            raise GeometryError(f"line {lineno}: {exc}") from exc
        dim = pt.dim
        points.append(pt)
    return points


def write_point_file(points: Sequence[Point], header: Sequence[str] = ()) -> str:
    out = [f"# {h}" for h in header]
    out.extend(p.serialize() for p in points)
    return "\n".join(out) + "\n"
