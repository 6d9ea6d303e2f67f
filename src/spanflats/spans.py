"""Enumeration of flats spanned by point sets and related cover searches.

Spanned flats are found by a pruned prefix walk: the (f+1)-subsets of the
distinct points are visited depth-first in lexicographic order, each prefix
carrying its canonical row space (``extend_rref`` adds one point per level),
and a rank-deficient prefix is dropped with its whole subtree. Each full-rank
subset is keyed by its canonical form, so equal flats deduplicate. The
points on each flat are the union of the subsets that span it, gathered
during the same walk as a bitmask. A ``SpannedSet`` keeps just those keys
and masks, in canonical order (sorted by key) so results are identical
however the work is split; counts and incidences need nothing more, and a
flat's constraint system is built only where one is printed or certified.

The degeneracy questions (``is_r_degenerate``, ``max_degenerate_subset``
and ``rank_sum_cover``) are one exact cover search, ``_best_cover``, over
the spanned flats' masks: it finds the most points that flats of total cost
within a budget cover, pruning with the best size/cost ratio, and a
decision query is the same search with a floor that only a full cover
beats. Only the flats of the cover it returns are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .kernel import (
    Basis,
    Flat,
    GeometryError,
    Point,
    affine_hull,
    affine_rank,
    common_dim,
    extend_rref,
    rowspace_constraints,
    solve_unique,
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


def dedupe_points(points: Sequence[Point]) -> list[Point]:
    return list(dict.fromkeys(points))


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
    bitmask over the indices. No constraint system is built here. The last
    two results are memoized per point sequence and f.
    """
    d = common_dim(points)
    if not 0 <= f <= d - 1:
        raise GeometryError(f"flat dimension {f} out of range 0..{d - 1}")
    return _spanned_flats(tuple(points), f)


def _walk(
    homs: list, bits: list, found: dict, start: int, basis: Basis, mask: int, left: int
) -> None:
    """Extend the prefix (row space ``basis``, index mask ``mask``) by each
    point from ``start`` on, with ``left`` points still to pick, and OR each
    full-rank subset's mask into ``found`` under its canonical key."""
    for i in range(start, len(homs) - left + 1):
        ext = extend_rref(basis, homs[i])
        if ext is None:
            continue  # rank-deficient prefix: no subset below it spans an f-flat
        if left == 1:
            found[ext] = found.get(ext, 0) | mask | bits[i]
        else:
            _walk(homs, bits, found, i + 1, ext, mask | bits[i], left - 1)


# Keyed on the point sequence, so indices are never served to a reordering.
# Two entries cover the traffic: beck3 alternates the planes and lines of one
# instance, and conjecture-search at d = 3 alternates f = 1 and 2.
@lru_cache(maxsize=2)
def _spanned_flats(points: tuple[Point, ...], f: int) -> SpannedSet:
    bits = _index_masks(points)
    found: dict[Basis, int] = {}  # canonical key -> mask of incident indices
    _walk([p.hom for p in bits], list(bits.values()), found, 0, ((), ()), 0, f + 1)
    keys = tuple(sorted(found))
    return SpannedSet(f, keys, tuple(found[key] for key in keys))


def arrangement_vertices(hyperplanes: Sequence[Flat]) -> list[Point]:
    """Deduplicated points where d of the hyperplanes meet 0-dimensionally."""
    if not hyperplanes:
        return []
    d = hyperplanes[0].ambient_dim
    for h in hyperplanes:
        if h.ambient_dim != d or h.dim != d - 1:
            raise GeometryError(f"non-hyperplane input (dim {h.dim} in E^{h.ambient_dim})")
    seen = {solve_unique(combo) for combo in combinations(hyperplanes, d)}
    seen.discard(None)
    return sorted(seen, key=lambda p: p.coords)


def max_collinear(points: Sequence[Point]) -> int:
    """Size of the largest collinear subset (duplicates count once)."""
    if not points:
        raise GeometryError("empty point set")
    unique = dedupe_points(points)
    if len(unique) <= 2:
        return len(unique)
    return max(mask.bit_count() for mask in spanned_flats(unique, 1).masks)


@dataclass(frozen=True)
class CoverCertificate:
    """Witness that a set of nonzero-dimension flats covers some points."""

    flats: tuple[Flat, ...]
    covered_count: int
    dims_sum: int


def _axis_line_through(p: Point) -> Flat:
    """A line through p in the first coordinate direction (x_1 free)."""
    d = p.dim
    rows = []
    for i in range(1, d):
        row = [0] * (d + 1)
        row[i] = p.hom[d]
        row[d] = p.hom[i]
        rows.append(tuple(row))
    return Flat(d, tuple(rows))


Candidate = tuple[int, int, Callable[[], Flat]]  # dim, incidence mask, builder


def _candidate_flats(points: Sequence[Point], include_point_flats: bool) -> list[Candidate]:
    """(dim, incidence mask, flat builder) candidates for cover searches.

    Covering flats can always be shrunk to the hull of the points they
    cover, so the spanned flats of dimension 1..d-1 are exhaustive
    candidates, with the point flat of each point (its copies) when points
    are allowed. Otherwise a point on no spanned line needs a line of its
    own; that happens only for a single distinct point, or in E^1, where the
    one line is the whole space. With two distinct points in E^2 and up, a
    spanned line through a point costs what any line through it costs and
    holds a superset of its points, so no other line can improve a cover.
    """
    d = points[0].dim
    copies = _index_masks(points)
    out: list[Candidate] = []
    for f in range(1, min(d, len(copies))):
        spanned = spanned_flats(points, f)
        out.extend((f, mask, partial(spanned.flat, i)) for i, mask in enumerate(spanned.masks))
    if include_point_flats:
        out.extend((0, mask, partial(affine_hull, [p])) for p, mask in copies.items())
    elif d == 1 or len(copies) == 1:
        out.append((1, (1 << len(points)) - 1, partial(_axis_line_through, points[0])))
    return out


def _best_cover(
    candidates: list[Candidate],
    n: int,
    budget: int,
    cost_of: Callable[[int], int],
    floor: int = 0,
) -> tuple[int, list[tuple[int, Callable[[], Flat]]] | None]:
    """The most of the n points that candidates of total cost <= budget
    cover, and the (dim, builder) pairs of one cover that reaches it;
    (floor, None) when no cover takes more than floor points.

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
    cands = [(dim, mask, build, cost_of(dim)) for dim, mask, build in candidates]
    cands = [c for c in cands if c[3] <= budget]
    num, den = 0, 1  # the largest size/cost, compared in integers
    for _, mask, _, cost in cands:
        if mask.bit_count() * den > num * cost:
            num, den = mask.bit_count(), cost
    if min(n, budget * num // den) <= floor:
        return floor, None
    by_point: list[list] = [[] for _ in range(n)]
    for c in sorted(cands, key=lambda c: (c[3], -c[1].bit_count())):
        mask = c[1]
        while mask:
            by_point[(mask & -mask).bit_length() - 1].append(c)
            mask &= mask - 1
    best, cover = floor, None
    chosen: list[tuple[int, Callable[[], Flat]]] = []
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
        for dim, mask, build, cost in by_point[(open_ & -open_).bit_length() - 1]:
            if cost <= remaining:
                chosen.append((dim, build))
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
    if not points:
        return True, CoverCertificate((), 0, 0)
    n = len(points)
    candidates = _candidate_flats(points, include_point_flats=False)
    _, cover = _best_cover(candidates, n, r - 1, cost_of=lambda dim: dim, floor=n - 1)
    if cover is None:
        return False, None
    flats = tuple(build() for _, build in cover)
    return True, CoverCertificate(flats, n, sum(dim for dim, _ in cover))


def rank_sum_cover(points: Sequence[Point], budget: int) -> list[Flat] | None:
    """A cover by flats (any dimension, points allowed) whose ranks sum to
    <= budget, or None when no such cover exists. The cover search at
    cost = dimension + 1, where only a full cover beats the floor."""
    if not points:
        return []
    n = len(points)
    candidates = _candidate_flats(points, include_point_flats=True)
    _, cover = _best_cover(candidates, n, budget, cost_of=lambda dim: dim + 1, floor=n - 1)
    return None if cover is None else [build() for _, build in cover]


def max_degenerate_subset(points: Sequence[Point], dim_budget: int) -> int:
    """Largest number of points coverable by flats of nonzero dimension with
    dimensions summing to <= dim_budget: the cover search at cost =
    dimension."""
    if not points:
        return 0
    candidates = _candidate_flats(points, include_point_flats=False)
    return _best_cover(candidates, len(points), dim_budget, cost_of=lambda dim: dim)[0]


def max_cover_plane_or_two_lines(points: Sequence[Point]) -> CoverCertificate:
    """The most input points on a single plane or on a pair of spanned lines,
    with a witnessing certificate.

    Two distinct coplanar spanned lines hold three affinely independent
    points, and the plane those span is a spanned plane holding every point
    of both lines. A pair of lines that beats every plane is therefore
    skew, and no skew test is needed. Lines are scanned by
    decreasing size and a pair is skipped once |a| + |b| cannot reach the
    best size; of the pairs that beat every plane, the one with the largest
    (size, a, b) over line indices a < b is the certificate.
    """
    if points and points[0].dim != 3:
        raise GeometryError("ambient dimension must be 3")
    unique = dedupe_points(points)
    n = len(points)
    if not unique:
        return CoverCertificate((), 0, 0)
    if len(unique) == 1:
        return CoverCertificate((_axis_line_through(unique[0]),), n, 1)
    rank = affine_rank(unique)
    if rank <= 3:  # the hull is a line or a plane
        return CoverCertificate((affine_hull(unique),), n, rank - 1)

    planes = spanned_flats(points, 2)
    on_plane = [mask.bit_count() for mask in planes.masks]
    richest = on_plane.index(max(on_plane))

    lines = spanned_flats(points, 1)
    masks = lines.masks
    sizes = [mask.bit_count() for mask in masks]
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    best = (on_plane[richest] + 1, -1, -1)  # a pair must beat the plane
    for x, a in enumerate(order[:-1]):
        if sizes[a] + sizes[order[x + 1]] < best[0]:
            break
        for b in order[x + 1 :]:
            if sizes[a] + sizes[b] < best[0]:
                break
            best = max(best, ((masks[a] | masks[b]).bit_count(), min(a, b), max(a, b)))
    size, a, b = best
    if a < 0:
        return CoverCertificate((planes.flat(richest),), on_plane[richest], 2)
    return CoverCertificate((lines.flat(a), lines.flat(b)), size, 2)


# The columns of a conjecture-search row, in output order.
CONJECTURE_COLUMNS = (
    "sample",
    "d",
    "n",
    "r",
    "seed",
    "floor",
    "degenerate",
    "k",
    "hyperplanes",
    "codim2_flats",
    "max_point_degree",
    "incidence_ratio",
    "span_ratio",
    "flagged",
)


def conjecture_stats(
    points: list[Point], r: int, floor_value: float, keep_degenerate: bool = False
) -> dict:
    """The degeneracy and span statistics of one point set: whether it is
    r-degenerate, k = n minus the largest (r-1)-degenerate subset, the
    hyperplane and codim-2 counts, and the two ratios the conjectures bound
    below, flagged when one falls under ``floor_value``. A degenerate set
    gets zeros unless ``keep_degenerate``."""
    d = points[0].dim
    n = len(points)
    degenerate, _ = is_r_degenerate(points, r)
    if degenerate and not keep_degenerate:
        return dict(
            degenerate=True, k=0, hyperplanes=0, codim2_flats=0,
            max_point_degree=0, incidence_ratio=0.0, span_ratio=0.0, flagged=False,
        )
    hyps = spanned_flats(points, d - 1)
    codim2 = spanned_flats(points, d - 2)
    max_degree = max(sum(mask >> i & 1 for mask in hyps.masks) for i in range(n))
    k = n - max_degenerate_subset(points, r - 1)
    incidence_ratio = max_degree / codim2.count if codim2.count else 0.0
    span_ratio = hyps.count / (n * k ** (d - 1)) if k else 0.0
    return dict(
        degenerate=degenerate,
        k=k,
        hyperplanes=hyps.count,
        codim2_flats=codim2.count,
        max_point_degree=max_degree,
        incidence_ratio=incidence_ratio,
        span_ratio=span_ratio,
        flagged=0.0 < span_ratio < floor_value or 0.0 < incidence_ratio < floor_value,
    )


def conjecture_row(params: tuple) -> dict:
    """One conjecture-search row for (sample, d, n, r, seed, floor): n
    distinct points with uniform integer coordinates in -99..99, seeded by
    (d, n, seed, sample), and their ``conjecture_stats``."""
    sample, d, n, r, seed, floor_value = params
    rng = random.Random(f"conjecture:{d}:{n}:{seed}:{sample}")
    points: list[Point] = []
    while len(points) < n:
        candidate = Point(rng.randint(-99, 99) for _ in range(d))
        if candidate not in points:
            points.append(candidate)
    row = {"sample": sample, "d": d, "n": n, "r": r, "seed": seed, "floor": floor_value}
    row.update(conjecture_stats(points, r, floor_value))
    return row


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
