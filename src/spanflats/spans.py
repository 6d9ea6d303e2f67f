"""Enumeration of flats spanned by point sets and related cover searches.

Spanned flats are found by the naive subset scan: hull every (f+1)-subset,
keep the hulls of dimension exactly f and deduplicate by canonical form. The
points on each flat are the union of the subsets that span it, gathered
during the same scan. Output order is canonical (sorted by constraint rows)
so results are identical however the work is split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .kernel import (
    Flat,
    GeometryError,
    Point,
    affine_hull,
    common_dim,
    int_rref,
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


def spanned_flats(points: Sequence[Point], f: int) -> SpannedSet:
    """The set of f-flats that are affine hulls of f+1 of the points.

    The subset scan keys each hull by the canonical primitive-integer form
    of its homogeneous point row space; constraint systems are materialized
    once per distinct flat. By the exchange lemma the points on a spanned
    f-flat are exactly the union of the (f+1)-subsets with its key, so the
    scan itself gathers them, as a bitmask over the indices. The last two
    results are memoized per point sequence and f.
    """
    d = common_dim(points)
    if not 0 <= f <= d - 1:
        raise GeometryError(f"flat dimension {f} out of range 0..{d - 1}")
    return _spanned_flats(tuple(points), f)


# Keyed on the point sequence, so indices are never served to a reordering.
# Two entries cover the traffic: beck3 alternates the planes and lines of one
# instance, and conjecture-search at d = 3 alternates f = 1 and 2.
@lru_cache(maxsize=2)
def _spanned_flats(points: tuple[Point, ...], f: int) -> SpannedSet:
    d = points[0].dim
    bits: dict[Point, int] = {}  # distinct point -> mask of its indices
    for i, p in enumerate(points):
        bits[p] = bits.get(p, 0) | 1 << i
    found: dict[tuple, int] = {}  # canonical key -> mask of incident indices
    for combo, combo_bits in zip(
        combinations([p.hom for p in bits], f + 1), combinations(bits.values(), f + 1)
    ):
        key = int_rref(combo)[0]
        if len(key) == f + 1:
            found[key] = found.get(key, 0) | sum(combo_bits)
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


def _incidence_mask(flat: Flat, points: Sequence[Point]) -> int:
    mask = 0
    for i, p in enumerate(points):
        if flat.contains(p):
            mask |= 1 << i
    return mask


def _candidate_flats(
    points: Sequence[Point], dims: Iterable[int], include_point_flats: bool
) -> list[tuple[Flat, int, int]]:
    """(flat, dim, incidence mask) candidates for cover searches.

    Covering flats can always be shrunk to the hull of the points they
    cover, so spanned flats (plus an arbitrary line per point, for
    singleton groups) are exhaustive candidates.
    """
    d = points[0].dim
    unique = dedupe_points(points)
    out: list[tuple[Flat, int, int]] = []
    seen: set[tuple] = set()
    for f in dims:
        if not 1 <= f <= d - 1 or f + 1 > len(unique):
            continue
        spanned = spanned_flats(points, f)
        for flat, mask in zip(spanned.flats, spanned.masks):
            if flat.rows not in seen:
                seen.add(flat.rows)
                out.append((flat, f, mask))
    if include_point_flats:
        for p in unique:
            flat = affine_hull([p])
            out.append((flat, 0, _incidence_mask(flat, points)))
    else:
        for p in unique:
            line = _axis_line_through(p)
            if line.rows not in seen:
                seen.add(line.rows)
                out.append((line, 1, _incidence_mask(line, points)))
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


@dataclass(frozen=True)
class PlaneOrLinePairCover:
    """Best covers of an E^3 point set by one plane or a pair of spanned
    lines; the skew-restricted and unrestricted pair maxima are both kept."""

    size: int
    certificate: CoverCertificate
    size_any_pair: int
    certificate_any_pair: CoverCertificate


def _pair_is_skew(points_a: Sequence[Point], points_b: Sequence[Point]) -> bool:
    from .kernel import affine_rank

    return affine_rank(list(points_a[:2]) + list(points_b[:2])) == 4


def max_cover_plane_or_two_lines(points: Sequence[Point]) -> PlaneOrLinePairCover:
    """Maximum number of input points on a single plane or on a pair of
    spanned lines, with witnessing certificates (skew pairs vs all pairs)."""
    if points and points[0].dim != 3:
        raise GeometryError("ambient dimension must be 3")
    unique = dedupe_points(points)
    n = len(points)
    if len(unique) < 2:
        if not unique:
            cert = CoverCertificate((), 0, 0)
        else:
            line = _axis_line_through(unique[0])
            cert = CoverCertificate((line,), n, 1)
        return PlaneOrLinePairCover(n, cert, n, cert)

    best_single = -1
    best_single_cert: CoverCertificate | None = None

    hull = affine_hull(unique)
    if hull.dim in (1, 2):
        best_single = n
        best_single_cert = CoverCertificate((hull,), n, hull.dim)
    else:
        planes = spanned_flats(points, 2)
        for flat, idxs in zip(planes.flats, planes.per_flat_points):
            if len(idxs) > best_single:
                best_single = len(idxs)
                best_single_cert = CoverCertificate((flat,), len(idxs), 2)

    lines = spanned_flats(points, 1)

    # only pairs beating the single-flat covers matter; collecting those
    # rather than ranking every pair keeps the scan linear in practice
    threshold = best_single
    candidates = []
    masks = lines.masks
    for a in range(len(masks)):
        ma = masks[a]
        for b in range(a + 1, len(masks)):
            size = (ma | masks[b]).bit_count()
            if size > threshold:
                candidates.append((size, a, b))
    candidates.sort(reverse=True)

    best_any, cert_any = best_single, best_single_cert
    best_skew, cert_skew = best_single, best_single_cert
    line_points = [
        dedupe_points([points[i] for i in idxs]) for idxs in lines.per_flat_points
    ]
    for size, a, b in candidates:
        if size <= best_any and size <= best_skew:
            break
        fa, fb = lines.flats[a], lines.flats[b]
        cert = CoverCertificate((fa, fb), size, 2)
        if size > best_any:
            best_any, cert_any = size, cert
        if size > best_skew and _pair_is_skew(line_points[a], line_points[b]):
            best_skew, cert_skew = size, cert
    assert cert_any is not None and cert_skew is not None
    return PlaneOrLinePairCover(best_skew, cert_skew, best_any, cert_any)


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
