"""Enumeration of flats spanned by point sets and related cover searches.

Spanned flats are found by a pruned prefix walk, ``_walk``: prefixes of the
distinct points are extended depth-first in lexicographic order, one point
per level, and a rank-deficient prefix is dropped with its whole subtree.
Every level keeps a table of the flats it has reached (by key on a level the
walk returns, by the key's hash below them, confirmed by containment), so
each flat of each level is extended once, from the first prefix that reaches
it; a later prefix that lands on a known flat only adds its last point's
bit, and then skips every later point that flat already holds: such a point
would only land on it again (or on the prefix itself), so the skip reaches
no new flat and drops no bit. The first prefix is the flat's
lexicographically first basis, so a flat's points, as a bitmask, are
completed from its own bits and its first parent's mask, level by level. A
level's step follows from its codimension: below codim 2 a point joins the
parent's canonical point basis (``extend_rref``); at codim 2 it cuts the
parent's three constraint rows (the homogeneous functionals w, w·(x, 1) = 0
on the flat, that a ``Flat`` stores), reduced from the right, to two by one
fraction-free step (``_cut``), and at codim 1 those two to a hyperplane's
normal (``_normal``). Rows and point basis are each other's
``nullspace_rows``. A walk to the hyperplanes returns the codim-2 level too,
so one walk yields both. Levels of codim 1 and 2 are keyed by their
constraint rows, the ones below by canonical point basis. A ``SpannedSet``
keeps the keys and masks in its level's key order, identical however the
work is split; a ``Flat`` is built only where one is printed, and the
point basis of a flat keyed by rows (``_point_basis``) only where an
output reads that order: the export lists every level in point-basis
order, and the covering-lines check names the first failing flat in it.

The cover queries (``is_r_degenerate``, ``max_degenerate_subset`` and
``max_cover_plane_or_two_lines``) answer with a count or a yes/no, from
one exact cover search, ``_best_cover``, over (cost, mask) candidates: a
spanned flat's dimension and the bitmask of its points (``_candidate_flats``).
It finds the most points that flats of total cost within a budget cover,
pruning with the best size/cost ratio, and a query is the same search
with a floor that only a better cover beats (a full cover, for a
decision). No query builds a flat.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from math import comb, gcd, isfinite
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    Basis,
    Flat,
    GeometryError,
    Point,
    common_dim,
    extend_rref,
    nullspace_rows,
)


@dataclass(frozen=True)
class SpannedSet:
    """All f-flats spanned by a point set, as the walk finds them: each
    flat's key and the bitmask of the point indices on it, in key order.
    On the levels of codim 1 and 2 a key is the flat's constraint rows w,
    w·(x, 1) = 0 on it, reduced from the right (each row's last nonzero
    entry positive, the other row zero there): a hyperplane (f = d-1) by its
    primitive normal, a codim-2 flat (f = d-2) by the pair (u, v). Below
    them it is the flat's canonical point basis (the ``int_rref`` rows and
    pivots of its homogeneous points). The ``Flat`` of a key, its
    point basis and the index tuples are derived on request, and the export
    lists every level in point-basis order."""

    f: int
    keys: tuple[Basis | tuple[int, ...] | tuple[tuple[int, ...], ...], ...]
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.masks)

    def _rows(self, i: int) -> tuple | None:
        """The i-th key's constraint rows, or None for a point basis."""
        key = self.keys[i]
        if type(key[0]) is int:  # a normal
            return (key,)
        return key if type(key[0][0]) is int else None

    def flat(self, i: int) -> Flat:
        """The i-th flat, from its constraint rows."""
        key, rows = self.keys[i], self._rows(i)
        if rows is None:
            rows = nullspace_rows(*key, len(key[0][0]))
        return Flat(len(rows[0]) - 1, rows)

    def basis(self, i: int) -> Basis:
        """The canonical point basis of the i-th flat."""
        rows = self._rows(i)
        return self.keys[i] if rows is None else _point_basis(rows)

    @property
    def per_flat_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            for mask in self.masks
        )

    def to_json_dict(self) -> dict:
        idxs = self.per_flat_points
        return {
            "f": self.f,
            "count": self.count,
            "flats": [
                {"constraints": self.flat(i).serialize_rows(), "point_indices": list(idxs[i])}
                for i in sorted(range(self.count), key=self.basis)
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

    The distinct points' prefixes are walked depth-first in lexicographic
    order; each carries the canonical primitive-integer form of its
    homogeneous point row space, extended by one point per level, and a
    prefix that loses rank is pruned with every subset below it. A flat is
    keyed by that form with its pivots, or on the levels of codim 1 and 2 by
    its constraint rows, and only the first prefix of each key is extended
    (``_walk``), so the walk gathers the points on each flat, as a bitmask
    over the indices, without visiting every subset that spans it. For f =
    d-1 >= 1 the walk gives the (d-2)-flats too (``_walk_levels``); the
    last point sequence's levels are memoized.
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


MAX_BYTES, MAX_OPS = 1 << 30, 200_000_000  # the work cap admits the Purdy cell (9, 3), 1.8e8


def admit(what: str, nbytes: int, ops: int) -> None:
    """Raise GeometryError when the bytes held or entry operations estimated for
    ``what`` are over a cap; every command prices its largest row so, before any work."""
    for amount, cap, unit in ((nbytes, MAX_BYTES, "bytes"), (ops, MAX_OPS, "entry operations")):
        if amount > cap:
            about = f"{amount:,}" if amount < 10**15 else f"2^{amount.bit_length() - 1}"
            raise GeometryError(f"{what} needs about {about} {unit}, over the cap of {cap:,}")


def walk_cost(
    n: int, d: int, levels: Iterable[int], bits: int, flats: Callable | None = None, extra: int = 0
) -> tuple[int, int]:
    """Estimated (bytes, entry operations) of walking n distinct points of E^d
    with ``bits``-bit homogeneous entries while the memo holds the levels f.
    A held rank r = f + 1 flat's key holds c tuples of d + 1 slots and
    c(d + 2 - c) nonzero ints of r * bits bits (24 bytes and 4 a 30-bit
    digit): c = r point rows, or, on the levels of codim 1 and 2,
    c = d + 1 - r constraint rows (a hyperplane's normal, a codim-2 flat's
    pair); the flat also holds its mask, 360 bytes of headers, slots and
    walk entry and ``extra`` (a cover candidate, an export). A held level
    has C(n, r) flats, each r-subset costing r(d + 1) operations. The
    deepest walk, to rank L = f + 1 (d - 1 for the hyperplanes, which come
    with the codim-2 level), also keeps every level below until it ends,
    with no more flats than the C(n - L + r, r) r-subsets of the first
    n - L + r points, the prefixes that leave room for the rest (none when
    n < L), each a key's hash, its mask and 160 bytes of ints and slots; it
    walks them within the held levels' operations. ``flats(f)``, where given, is a
    level's exact flat count or a bound on it, taken when lower. A binomial
    past 2^40 is over both caps: formed at 40, it ends the sum."""
    held = set(levels)
    deepest = min(max(held, default=-1) + 1, max(d - 1, 1))
    nbytes = ops = 0
    for r in range(1, d + 1):
        if r - 1 in held:
            top = n
            digits = 24 + 4 * -(-r * bits // 30)
            rows = d + 1 - r if r >= d - 1 else r  # constraint rows, else point rows
            flat = 360 + extra + rows * (56 + 8 * (d + 1)) + rows * (d + 2 - rows) * digits
        elif r <= deepest:
            top = max(n - deepest + r, 0)
            flat = 160
        else:
            continue
        clipped = min(r, top - r) > 40
        subsets = comb(top, 40 if clipped else r)
        if r - 1 in held:
            ops += subsets * r * (d + 1)
        flat += 4 * -(-n // 30)
        nbytes += (min(flats(r - 1), subsets) if flats and not clipped else subsets) * flat
        if clipped:
            break
    return nbytes, ops


def entry_bits(points: Sequence[Point]) -> int:
    """The bit length of the points' largest homogeneous entry (0 for no points)."""
    return max((abs(x).bit_length() for p in points for x in p.hom), default=0)


def check_enumerate(points: Sequence[Point], f: int, export: bool) -> None:
    """Raise unless the walk of the points' levels f - 1 and f is admitted, each
    flat with its JSON export (d - f rows and f + 1 points) when ``export``."""
    n, bits, d = len(set(points)), entry_bits(points), common_dim(points)
    extra = 1024 + 64 * (f + 1) + 256 * (d - f) * (d + 1) if export else 0
    admit(f"walk of {n} points", *walk_cost(n, d, (f - 1, f), bits, extra=extra))


def _walk(homs: list, bits: list, depth: int) -> list[dict[tuple, int]]:
    """The row spaces of rank ``depth`` that ``depth`` of the rows ``homs``
    span, each by its key, with the OR of the ``bits`` of the rows in it; a
    walk to rank ncols - 1 >= 2, the hyperplanes, returns the codim-2 level
    first. A level's step follows from its codim: below 2 a row joins the
    parent's basis (``extend_rref``); at 2 it cuts the parent's three
    constraint rows (``nullspace_rows`` of its basis, once per parent) to
    two (``_cut``), and at 1 those two to a normal (``_normal``). The root of
    E^1 has codim 2: it is given by its two rows.

    Prefixes are extended depth-first in lexicographic order; a
    rank-deficient extension is dropped with its subtree. Each level numbers
    its flats in the order first found and keeps their own bits and their
    first parent (the flat of the prefix that first reached them). An
    extension that lands on a known flat ORs its row's bit in and goes no
    further: the flat's first prefix walks that subtree. That prefix is the
    flat's lexicographically first basis b_1 < ... < b_r, the greedy one,
    and the first-parent chain is F_j = span(b_1..b_j). A point p of the
    flat that first lies on F_m is b_m, or else, at the first level j >= m
    whose range reaches p, the prefix b_1..b_j without b_m is a first prefix
    in range, and p extends it onto F_j. So every point is an own bit of the
    chain, and a mask completed level by level, own bits OR the first
    parent's completed mask, is the flat's.

    A prefix P that lands on a known flat F also ORs F's own bits into its
    mask ``seen``, and skips every later row in ``seen`` before any step: a
    row on F spans F with P when it is off P, adding a bit F already holds,
    and fails the step when it is on P. So a skipped row reaches no new
    flat, and first prefixes, first parents, ``lasts`` and the masks are as
    without the skip, on every level.

    One loop walks every level; only the key a level's table maps to a flat
    number differs. A returned level takes every later row and maps the
    whole key. A level below the first returned one takes only the rows
    that leave room to reach it and maps the key's hash, so that a set in
    general position, whose flats each have one spanning subset, costs
    little memory. It also keeps the last row of each flat's first prefix
    (``lasts``) and confirms a known hash by containment: the new flat, of
    the same rank, is the known one exactly when it holds the last rows of
    the known flat's first-parent chain above the flat where that chain
    meets the new prefix's, which lies in the new prefix's flat. A flat
    whose hash another flat holds keeps its whole key in ``spilled``, one
    table for all hashed levels, as keys of different ranks never meet.
    When the walk ends, one pass completes the masks level by level and
    writes each returned flat's mask over its number, in place.
    """
    n, ncols = len(homs), len(homs[0])
    first = depth - 2 if depth == ncols - 1 > 1 else depth - 1  # the first returned level
    index: list[dict] = [{} for _ in range(depth)]  # hash (below first) or key -> flat
    spilled: dict = {}  # a key whose hash is taken -> flat; the ranks keep levels apart
    owns: list[list] = [[] for _ in range(depth)]
    parents, lasts = [array("l") for _ in range(depth)], [array("l") for _ in range(first)]

    def holds(basis: Basis, i: int) -> bool:
        v = homs[i]
        for b, pc in zip(*basis):
            f = v[pc]
            if f:
                p = b[pc]
                v = [x * p - f * y for x, y in zip(v, b)]
        return not any(v)

    def known(ext: Basis, level: int, t: int, parent: int) -> bool:
        if not holds(ext, lasts[level][t]):
            return False
        a, b = parents[level][t], parent
        while a != b:  # the two chains meet at the root at the latest
            level -= 1
            if not holds(ext, lasts[level][a]):
                return False
            a, b = parents[level][a], parents[level][b]
        return True

    def extend(level: int, start: int, basis: tuple, parent: int) -> None:
        table, own, up = index[level], owns[level], parents[level]
        hashed, deeper, codim = level < first, level + 1 < depth, ncols - 1 - level
        stop = n - first + level if hashed else n  # a hashed level leaves room for the first
        if codim > 2:
            step = extend_rref
        elif codim == 2:
            step, basis = _cut, nullspace_rows(*basis, ncols)
        else:
            step = _normal
        seen = 0  # the points of the known flats this prefix reached
        for i, row in enumerate(homs[start:stop], start):
            if bits[i] & seen:
                continue  # on a flat it reached: that flat holds its bit
            ext = step(basis, row)
            if ext is None:
                continue  # rank-deficient prefix: no subset below it is full rank
            key = hash(ext) if hashed else ext
            t = table.get(key)
            if hashed and t is not None and not known(ext, level, t, parent):
                t = spilled.get(ext)
            if t is not None:
                own[t] |= bits[i]
                seen |= own[t]
                continue
            t = len(own)
            if table.setdefault(key, t) != t:
                spilled[ext] = t  # its hash is another flat's
            own.append(bits[i])
            up.append(parent)
            if hashed:
                lasts[level].append(i)
            if deeper:
                extend(level + 1, i + 1, ext, t)

    extend(0, 0, ((), ()) if ncols > 2 else nullspace_rows((), (), 2), 0)
    del extend  # it refers to itself: the tables go when this returns, not at a collection
    found = index[first:]
    for table in (index, spilled, lasts):
        table.clear()  # own bits and first parents complete the masks
    masks = [0]
    for level, (own, up) in enumerate(zip(owns, parents)):
        masks = [o | masks[j] for o, j in zip(own, up)]
        if level >= first:  # each flat number, in its key's place, becomes its mask
            table = found[level - first]
            table.update(zip(table, masks))
    return found


def _point_basis(rows: Sequence[Sequence[int]]) -> Basis:
    """The ``int_rref`` point basis of the flat whose constraint rows, reduced
    from the right, are ``rows``: with L the lcm of the rows' last nonzero
    entries C_r[p_r], column i off the p_r gets L e_i - sum_r (C_r[i] /
    C_r[p_r]) L e_{p_r}, made primitive."""
    ncols = len(rows[0])
    pivots = [max(i for i, x in enumerate(row) if x) for row in rows]
    return nullspace_rows(rows, pivots, ncols), tuple(i for i in range(ncols) if i not in pivots)


def _cut(rows: tuple, p: Sequence[int]) -> tuple | None:
    """The constraint rows, reduced from the right, of the flat that ``rows``
    (so reduced) cut out, joined with the homogeneous point p; None when p
    lies on it. With s = rows·p and j the first i with s_i != 0, row i < j is
    kept and row i > j becomes s_j·row_i - s_i·row_j, made primitive with
    the sign of s_j: its last nonzero entry stays row_i's pivot, positive,
    where every other row is zero."""
    s = [sum(map(mul, row, p)) for row in rows]
    for j, sj in enumerate(s):
        if sj:
            break
    else:
        return None
    rj, out = rows[j], list(rows[:j])
    for si, ri in zip(s[j + 1:], rows[j + 1:]):
        if si:
            w = [sj * x - si * y for x, y in zip(ri, rj)]
            g = gcd(*w) if sj > 0 else -gcd(*w)
            ri = tuple(w) if g == 1 else tuple([x // g for x in w])
        out.append(ri)
    return tuple(out)


def _normal(rows: tuple, p: Sequence[int]) -> tuple[int, ...] | None:
    """The normal, primitive with its last nonzero entry positive, of the
    hyperplane that the codim-2 flat with rows (u, v), reduced from the
    right, spans with the homogeneous point p: (v·p)u - (u·p)v; None when p
    is on the flat. ``_cut``'s step written out for two rows, as it runs per
    codim-2 flat and later point (a ``_cut`` call each cost beck3-plane a
    fifth of its time). u's pivot comes first, so the normal's last nonzero
    entry is -(u·p) times v's pivot entry, or else (v·p) times u's."""
    u, v = rows
    a, b = sum(map(mul, u, p)), sum(map(mul, v, p))
    if not (a or b):
        return None
    w = [b * x - a * y for x, y in zip(u, v)]
    g = -gcd(*w) if a > 0 or not a and b < 0 else gcd(*w)
    return tuple([x // g for x in w])


def _walk_levels(points: tuple[Point, ...], f: int) -> dict[int, SpannedSet]:
    """The f-flats, and for f = d-1 >= 1 the (d-2)-flats that their walk
    passes, each level sorted by its keys."""
    bits = _index_masks(points)
    found = _walk([p.hom for p in bits], list(bits.values()), f + 1)
    levels = {}
    for g, level in enumerate(found, f + 1 - len(found)):
        keys = tuple(sorted(level))
        levels[g] = SpannedSet(g, keys, tuple(map(level.__getitem__, keys)))
    return levels


def _candidate_flats(points: Sequence[Point]) -> list[tuple[int, int]]:
    """(dimension, incidence mask) candidates for the cover searches.

    Covering flats can always be shrunk to the hull of the points they
    cover, so the spanned flats of dimension 1..d-1 are exhaustive
    candidates, but a point on no spanned line needs a line of its own;
    that happens only for a single distinct point, or in E^1, where one
    line holds every point. With two distinct points in E^2 and up, a
    spanned line through a point costs what any line through it costs and
    holds a superset of its points, so no other line can improve a cover.
    No points give no candidates.
    """
    d = points[0].dim if points else 0
    distinct = len(set(points))
    out: list[tuple[int, int]] = []
    for f in range(min(d, distinct) - 1, 0, -1):  # d-1 first: its walk gives d-2 too
        out.extend((f, mask) for mask in spanned_flats(points, f).masks)
    if d == 1 or distinct == 1:
        out.append((1, (1 << len(points)) - 1))
    return out


def _best_cover(candidates: Sequence[tuple[int, int]], n: int, budget: int, floor: int = 0) -> int:
    """The most of the n points that (cost, mask) candidates of total cost
    <= budget cover, or floor when no cover takes more.

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
    for cost, mask in cands:
        if mask.bit_count() * den > num * cost:
            num, den = mask.bit_count(), cost
    if min(n, budget * num // den) <= floor:
        return floor
    by_point: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for c in sorted(cands, key=lambda c: (c[0], -c[1].bit_count())):
        mask = c[1]
        while mask:
            by_point[(mask & -mask).bit_length() - 1].append(c)
            mask &= mask - 1
    best = floor
    explored: dict[tuple[int, int], int] = {}  # (open, remaining) -> covered

    def go(open_: int, covered: int, remaining: int) -> None:
        nonlocal best
        if covered > best:
            best = covered
        if covered + min(open_.bit_count(), remaining * num // den) <= best:
            return
        if explored.get((open_, remaining), -1) >= covered:
            return
        explored[open_, remaining] = covered
        for cost, mask in by_point[(open_ & -open_).bit_length() - 1]:
            if cost <= remaining:
                go(open_ & ~mask, covered + (open_ & mask).bit_count(), remaining - cost)
        go(open_ & (open_ - 1), covered, remaining)

    go((1 << n) - 1, 0, budget)
    return best


def is_r_degenerate(points: Sequence[Point], r: int) -> bool:
    """Whether flats of nonzero dimension with dimensions summing to < r
    cover all the points: the cover search at cost = dimension, where only
    a full cover beats the floor."""
    if r < 1:
        raise GeometryError(f"r must be >= 1, got {r}")
    n = len(points)
    return _best_cover(_candidate_flats(points), n, r - 1, floor=n - 1) == n


def max_degenerate_subset(points: Sequence[Point], dim_budget: int) -> int:
    """Largest number of points coverable by flats of nonzero dimension with
    dimensions summing to <= dim_budget: the cover search at cost =
    dimension."""
    return _best_cover(_candidate_flats(points), len(points), dim_budget)


def max_cover_plane_or_two_lines(points: Sequence[Point]) -> int:
    """The most input points on a single plane or on a pair of spanned lines.

    Two distinct coplanar spanned lines hold three affinely independent
    points, and the plane those span is a spanned plane holding every point
    of both lines. A pair of lines that beats every plane is therefore
    skew, and no skew test is needed. It is the cover search over the
    spanned lines at cost = dimension and budget 2, with the richest plane
    as its floor. No points, or copies of one point, lie on one line.
    """
    if points and points[0].dim != 3:
        raise GeometryError("ambient dimension must be 3")
    if len(set(points)) <= 1:
        return len(points)
    planes = spanned_flats(points, 2)  # the walk gives the lines too
    lines = [(1, mask) for mask in spanned_flats(points, 1).masks]
    floor = max((mask.bit_count() for mask in planes.masks), default=0)
    return _best_cover(lines, len(points), 2, floor=floor)


SAMPLE_SPAN = 99  # conjecture_row draws each coordinate in -99..99


def check_conjecture_search(
    d: int, n: int, r: int, floor: float, samples: int, fmt: str, path: str | None = None
) -> list[Point] | None:
    """The points of the file at ``path``, in E^d (None: sampled); raises unless
    d >= 3, n, r >= 1, the floor is finite, and the ``samples`` >= 1 rows in
    ``fmt`` and the walk to levels 1..d - 1 (each flat a cover candidate of
    about 90-130 bytes) are admitted."""
    if d < 3:
        raise GeometryError("d >= 3 required")
    if n < 1:
        raise GeometryError(f"--n must be >= 1, got {n}")
    if r < 1:
        raise GeometryError(f"--r must be >= 1, got {r}")
    if not isfinite(floor):
        raise GeometryError(f"--floor must be finite, got {floor}")
    points = None
    if path:
        with open(path) as fh:
            points = read_point_file(fh)
        if common_dim(points) != d:
            raise GeometryError(f"point file is E^{points[0].dim}, --d is {d}")
        n, bits = len(set(points)), entry_bits(points)
    elif samples < 1:
        raise GeometryError(f"--samples must be >= 1, got {samples}")
    else:  # a sample's cell and row as formatted, per row under tracemalloc
        # at 4,000 samples of n = 8: 3,650 bytes in JSON, 840 in CSV
        admit(f"a table of {samples:,} rows", samples * (3700 if fmt == "json" else 850), 0)
        bits = SAMPLE_SPAN.bit_length()
    admit(f"walk of {n} points", *walk_cost(n, d, range(1, min(d, n)), bits, extra=160))
    return points


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
            candidate = Point(rng.randint(-SAMPLE_SPAN, SAMPLE_SPAN) for _ in range(d))
            if candidate not in points:
                points.append(candidate)
    degenerate = is_r_degenerate(points, r)
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


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The numbered (from 1), stripped lines that are neither blank nor '#' comments."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_point_file(lines: Iterable[str]) -> list[Point]:
    """Parse the point-set format: one point per line, '#' lines ignored."""
    points: list[Point] = []
    dim: int | None = None
    for lineno, line in data_lines(lines):
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
