"""Enumeration of flats spanned by point sets and related cover searches.

Spanned flats are found by a pruned prefix walk: the (f+1)-subsets of the
distinct points are visited depth-first in lexicographic order, each prefix
carrying its canonical row space (``extend_rref`` adds one point per level),
and a rank-deficient prefix is dropped with its whole subtree. Each full-rank
subset is keyed by its canonical form, so equal flats deduplicate. The
points on each flat are the union of the subsets that span it, gathered
during the same walk. Output order is canonical (sorted by constraint rows)
so results are identical however the work is split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .kernel import (
    Basis,
    Flat,
    GeometryError,
    Point,
    affine_hull,
    common_dim,
    extend_rref,
    rowspace_constraints,
    solve_unique,
)


@dataclass(frozen=True)
class SpannedSet:
    """All f-flats spanned by a point set, with their incident point indices
    (also as bitmasks over the indices)."""

    f: int
    flats: tuple[Flat, ...]
    per_flat_points: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.flats)

    def to_json_dict(self) -> dict:
        return {
            "f": self.f,
            "count": self.count,
            "flats": [
                {"constraints": flat.serialize_rows(), "point_indices": list(idxs)}
                for flat, idxs in zip(self.flats, self.per_flat_points)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


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
    it. A full-rank subset is keyed by that form; constraint systems are
    materialized once per distinct flat. By the exchange lemma the points on
    a spanned f-flat are exactly the union of the (f+1)-subsets with its
    key, so the walk itself gathers them, as a bitmask over the indices. The
    last two results are memoized per point sequence and f.
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
            found[ext[0]] = found.get(ext[0], 0) | mask | bits[i]
        else:
            _walk(homs, bits, found, i + 1, ext, mask | bits[i], left - 1)


# Keyed on the point sequence, so indices are never served to a reordering.
# Two entries cover the traffic: beck3 alternates the planes and lines of one
# instance, and conjecture-search at d = 3 alternates f = 1 and 2.
@lru_cache(maxsize=2)
def _spanned_flats(points: tuple[Point, ...], f: int) -> SpannedSet:
    d = points[0].dim
    bits = _index_masks(points)
    found: dict[tuple, int] = {}  # canonical key -> mask of incident indices
    _walk([p.hom for p in bits], list(bits.values()), found, 0, ((), ()), 0, f + 1)
    keys = sorted(found)
    flats = []
    for key in keys:
        pivots = [next(c for c, v in enumerate(row) if v) for row in key]
        flats.append(Flat(d, rowspace_constraints(d, key, pivots)))
    masks = tuple(found[key] for key in keys)
    incident = tuple(
        tuple(i for i in range(len(points)) if mask >> i & 1) for mask in masks
    )
    return SpannedSet(f, tuple(flats), incident, masks)


def spanned_hyperplane_count(points: Sequence[Point]) -> int:
    return spanned_flats(points, common_dim(points) - 1).count


def spanned_codim2_count(points: Sequence[Point]) -> int:
    return spanned_flats(points, common_dim(points) - 2).count


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
    best = 2
    lines = spanned_flats(unique, 1)
    for idxs in lines.per_flat_points:
        best = max(best, len(idxs))
    return best


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


def _candidate_flats(
    points: Sequence[Point], dims: Iterable[int], include_point_flats: bool
) -> list[tuple[Flat, int, int]]:
    """(flat, dim, incidence mask) candidates for cover searches.

    Covering flats can always be shrunk to the hull of the points they
    cover, so spanned flats (plus an arbitrary line per point, for
    singleton groups) are exhaustive candidates. The point flat of p holds
    exactly the copies of p, and the axis line through p exactly the points
    with the same axis line, so both masks come from grouping.
    """
    d = points[0].dim
    copies = _index_masks(points)
    out: list[tuple[Flat, int, int]] = []
    seen: set[tuple] = set()
    for f in dims:
        if not 1 <= f <= d - 1 or f + 1 > len(copies):
            continue
        spanned = spanned_flats(points, f)
        for flat, mask in zip(spanned.flats, spanned.masks):
            if flat.rows not in seen:
                seen.add(flat.rows)
                out.append((flat, f, mask))
    if include_point_flats:
        for p, mask in copies.items():
            out.append((affine_hull([p]), 0, mask))
    else:
        lines = [_axis_line_through(p) for p in copies]
        on_axis: dict[tuple, int] = {}  # axis line rows -> mask of its points
        for line, mask in zip(lines, copies.values()):
            on_axis[line.rows] = on_axis.get(line.rows, 0) | mask
        for line in lines:
            if line.rows not in seen:
                seen.add(line.rows)
                out.append((line, 1, on_axis[line.rows]))
    return out


def _search_cover(
    candidates: list[tuple[Flat, int, int]],
    full_mask: int,
    budget: int,
    cost_of: Callable[[int], int],
) -> list[tuple[Flat, int]] | None:
    """Depth-first search for a cover with total cost <= budget."""
    cands = [(flat, dim, mask, cost_of(dim)) for flat, dim, mask in candidates]
    cands = [c for c in cands if c[3] <= budget and c[2]]
    if not cands:
        return [] if full_mask == 0 else None
    best_ratio = max(c[2].bit_count() / c[3] for c in cands)
    by_point: dict[int, list] = {}
    for c in cands:
        mask = c[2]
        i = 0
        while mask:
            if mask & 1:
                by_point.setdefault(i, []).append(c)
            mask >>= 1
            i += 1
    for opts in by_point.values():
        opts.sort(key=lambda c: (c[3], -c[2].bit_count()))
    failed: set[tuple[int, int]] = set()

    def go(uncovered: int, remaining: int) -> list[tuple[Flat, int]] | None:
        if uncovered == 0:
            return []
        if remaining <= 0 or uncovered.bit_count() > remaining * best_ratio:
            return None
        key = (uncovered, remaining)
        if key in failed:
            return None
        lowest = (uncovered & -uncovered).bit_length() - 1
        for flat, dim, mask, cost in by_point.get(lowest, ()):
            if cost > remaining:
                continue
            sub = go(uncovered & ~mask, remaining - cost)
            if sub is not None:
                return [(flat, dim)] + sub
        failed.add(key)
        return None

    return go(full_mask, budget)


def is_r_degenerate(
    points: Sequence[Point], r: int
) -> tuple[bool, CoverCertificate | None]:
    """Whether flats of nonzero dimension with dimensions summing to < r
    cover all the points; with a witnessing certificate when they do."""
    if r < 1:
        raise GeometryError(f"r must be >= 1, got {r}")
    if not points:
        return True, CoverCertificate((), 0, 0)
    d = points[0].dim
    full_mask = (1 << len(points)) - 1
    candidates = _candidate_flats(points, range(1, d), include_point_flats=False)
    cover = _search_cover(candidates, full_mask, r - 1, cost_of=lambda dim: dim)
    if cover is None:
        return False, None
    flats = tuple(flat for flat, _ in cover)
    covered = 0
    for flat, _, mask in candidates:
        if flat in flats:
            covered |= mask
    return True, CoverCertificate(
        flats, covered.bit_count(), sum(dim for _, dim in cover)
    )


def rank_sum_cover(points: Sequence[Point], budget: int) -> list[Flat] | None:
    """A cover by flats (any dimension, points allowed) whose ranks sum to
    <= budget, or None when no such cover exists."""
    if not points:
        return []
    d = points[0].dim
    full_mask = (1 << len(points)) - 1
    candidates = _candidate_flats(points, range(1, d), include_point_flats=True)
    cover = _search_cover(candidates, full_mask, budget, cost_of=lambda dim: dim + 1)
    if cover is None:
        return None
    return [flat for flat, _ in cover]


def max_degenerate_subset(points: Sequence[Point], dim_budget: int) -> int:
    """Largest number of points coverable by flats of nonzero dimension with
    dimensions summing to <= dim_budget."""
    if not points:
        return 0
    d = points[0].dim
    candidates = _candidate_flats(points, range(1, d), include_point_flats=False)
    cands = sorted(
        ((mask, dim) for _, dim, mask in candidates if dim <= dim_budget),
        key=lambda c: -c[0].bit_count(),
    )
    best = 0

    def go(idx: int, covered: int, remaining: int) -> None:
        nonlocal best
        best = max(best, covered.bit_count())
        if idx >= len(cands) or remaining <= 0:
            return
        bound = covered.bit_count() + sum(
            c[0].bit_count() for c in cands[idx : idx + remaining]
        )
        if bound <= best:
            return
        mask, dim = cands[idx]
        if dim <= remaining and mask & ~covered:
            go(idx + 1, covered | mask, remaining - dim)
        go(idx + 1, covered, remaining)

    go(0, 0, dim_budget)
    return best


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
    hull = affine_hull(unique)
    if hull.dim in (1, 2):
        return CoverCertificate((hull,), n, hull.dim)

    planes = spanned_flats(points, 2)
    on_plane = [mask.bit_count() for mask in planes.masks]
    richest = on_plane.index(max(on_plane))
    best_plane = CoverCertificate((planes.flats[richest],), on_plane[richest], 2)

    lines = spanned_flats(points, 1)
    masks = lines.masks
    sizes = [mask.bit_count() for mask in masks]
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    best = (best_plane.covered_count + 1, -1, -1)  # a pair must beat the plane
    for x, a in enumerate(order[:-1]):
        if sizes[a] + sizes[order[x + 1]] < best[0]:
            break
        for b in order[x + 1 :]:
            if sizes[a] + sizes[b] < best[0]:
                break
            best = max(best, ((masks[a] | masks[b]).bit_count(), min(a, b), max(a, b)))
    size, a, b = best
    if a < 0:
        return best_plane
    return CoverCertificate((lines.flats[a], lines.flats[b]), size, 2)


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
