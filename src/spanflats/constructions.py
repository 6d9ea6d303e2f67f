"""Deterministic generators for the extremal configurations, with exact
rational coordinates and exact self-verification.

Every generator is a pure function of its parameters (and seed); outputs are
re-checkable by the enumeration and counting modules, and the generators
raise rather than return anything that fails its own structural predicates.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import comb, gcd, isqrt, lcm
from typing import Sequence

from .formulas import check_purdy_domain, iroot, purdy_counts, purdy_flats
from .incidence import BiArrangement, arrangement_cost, bound_envelope, count_bichromatic
from .kernel import Flat, GeometryError, Point, affine_rank, hyperplane
from .spans import admit, max_cover_plane_or_two_lines, spanned_flats, walk_cost

# Fresh draws each generator makes before it gives up with a GeometryError.
PURDY_ATTEMPTS = 64
BECK3_ATTEMPTS = 32
# The draws' ranges, -x..x: a Purdy line's base and direction; a beck3 plane's
# base, skew line's base, their directions, t or (alpha, beta), and the rest.
# A Purdy base in -9..9 and direction in -3..3 keep the walk's integers small;
# that is safe because every draw is checked exactly and redrawn on failure.
LINE_BASE, LINE_STEP = 9, 3
PLANE_BASE, SKEW_BASE, PLANT_STEP, PLANT_SPAN, FILL_SPAN = 20, 40, 9, 60, 999
BECK3_BITS = max(  # the largest coordinate: a plane's 20 + 2 * 60 * 9 = 1,100
    PLANE_BASE + 2 * PLANT_SPAN * PLANT_STEP, SKEW_BASE + PLANT_SPAN * PLANT_STEP, FILL_SPAN
).bit_length()


@dataclass(frozen=True)
class LineGrid2D:
    """A slope/intercept grid of lines with its windowed vertex set."""

    lines: tuple[Flat, ...]
    vertices: tuple[Point, ...]
    incidences: int


def _grid_vertices(
    pairs: Sequence[tuple[int, int]], window: tuple[int, int] | None = None
) -> list[tuple[int, int, int, int]]:
    """(count, p, q, key) for each vertex (x, y) = (p/q, key/q) of the lines
    y = a*x + b with the count of lines through it, p/q in lowest terms and
    q > 0; with ``window = (x_max, y_max)`` only those with |x| <= x_max and
    0 <= y < y_max. Each vertex is listed once, in (x, y) order.

    Two lines meet at x = beta/delta for a slope difference delta and an
    intercept difference beta, so those fractions are the only candidate x
    values and the cost is (candidates) * (lines) rather than all-pairs
    times all-lines; a candidate no two lines share is never promoted to a
    vertex. At a given x = p/q every line value y = (a*p + b*q)/q shares
    the denominator q, so collision counting is pure integer work. The
    order is on integers too: every q divides L = lcm of all the q, and
    (x*L, y*L) = (p*L/q, key*L/q) order the vertices as (x, y) do.
    """
    slopes = {a for a, _ in pairs}
    intercepts = {b for _, b in pairs}
    candidates: set[tuple[int, int]] = set()
    for delta in {a1 - a2 for a1 in slopes for a2 in slopes if a1 > a2}:
        for beta in {b1 - b2 for b1 in intercepts for b2 in intercepts}:
            if window is None or abs(beta) <= delta * window[0]:
                g = gcd(beta, delta)
                candidates.add((beta // g, delta // g))
    vertices = []
    for p, q in candidates:
        at_x = Counter(a * p + b * q for a, b in pairs)
        for key, count in at_x.items():
            if count >= 2 and (window is None or 0 <= key < window[1] * q):
                vertices.append((count, p, q, key))
    L = lcm(*(q for _, _, q, _ in vertices))
    return sorted(vertices, key=lambda v: (v[1] * (L // v[2]), v[3] * (L // v[2])))


def erdos_grid_2d(r: int, s: int) -> LineGrid2D:
    """The r*s lines {y = a*x + b : 0 <= a < r, 0 <= b < s} together with the
    arrangement vertices inside the reporting window |x| <= ceil(s/r),
    0 <= y < r*ceil(s/r) + s, and the exact vertex-line incidence count."""
    if r < 1 or s < 1:
        raise GeometryError("r and s must be >= 1")
    x_max = -(-s // r)
    candidates = (r - 1) * min(2 * s - 1, r * x_max + 1)  # x = beta/delta, half the lines on each
    admit("erdos2d", *arrangement_cost(r * s, 2, candidates * r * s // 2, 0))
    pairs = [(a, b) for a in range(r) for b in range(s)]
    vertices = _grid_vertices(pairs, (x_max, r * x_max + s))
    return LineGrid2D(
        lines=tuple(hyperplane((-a, 1), b) for a, b in pairs),  # y = a*x + b
        vertices=tuple(Point.from_hom((p, key, q)) for _, p, q, key in vertices),
        incidences=sum(count for count, *_ in vertices),
    )


def _rich_line_config(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int]]]:
    """k grid lines plus their arrangement vertices ``(count, p, q, key)``
    (see ``_grid_vertices``) sorted richest-first.

    The slope range is floor(sqrt(k)) so vertex degrees grow with k, but at
    least 2 slopes whenever k >= 2 (a single-slope pencil has no vertices);
    the sort is stable, so equally rich vertices keep their (x, y) order and
    the selection is deterministic.
    """
    r = max(min(k, 2), isqrt(k))
    s = -(-k // r)
    pairs = [(a, b) for a in range(r) for b in range(s)][:k]
    return pairs, sorted(_grid_vertices(pairs), key=lambda v: -v[0])


@dataclass(frozen=True)
class BichromaticConstruction:
    """Red hyperplanes normal to a coordinate plane, blue axis pencils, and
    the replicated 2-D vertex set, with the incidence count it guarantees."""

    arrangement: BiArrangement
    red_incidences: int
    p: int
    family_size: int
    plane_incidences: int


def bichromatic_lower_construction(
    d: int, n: int, k: int, m: int, c0: Fraction | int = 1
) -> BichromaticConstruction:
    """Arrangement whose red incidence count realizes the mixed envelope
    term: a rich 2-D line configuration lifted normal to the plane
    x_1 = ... = x_{d-2} = 0 and replicated at every meet of d-2 blue
    coordinate pencils."""
    if d < 3:
        raise GeometryError("d must be >= 3")
    if k < 2:
        raise GeometryError("k must be >= 2 (a single red hyperplane has no 2-D vertices)")
    if k >= n:
        raise GeometryError("k must be < n")
    family = (n - k) // (d - 2)
    if family < 1:
        raise GeometryError(f"(n-k) = {n - k} leaves no blue hyperplanes per family")
    p = int(Fraction(c0) * (m // n ** (d - 2)))
    if p < 1:
        raise GeometryError(f"p = {p}: m too small relative to n^(d-2)")
    pairs, ranked = _rich_line_config(k)
    if p > len(ranked):
        raise GeometryError(
            f"p = {p} exceeds the {len(ranked)} vertices of the {k}-line configuration"
        )
    chosen = ranked[:p]
    plane_incidences = sum(count for count, *_ in chosen)

    zeros = [0] * (d - 2)
    red = tuple(
        hyperplane(zeros + [-a, 1], b) for a, b in pairs
    )
    blue = tuple(
        hyperplane([1 if i == axis else 0 for i in range(d)], j)
        for axis in range(d - 2)
        for j in range(family)
    )
    # (meet, x/q, y/q) is the primitive vector (q·meet, x, y, q): gcd(x, q) = 1
    vertices = tuple(
        Point.from_hom((*(c * q for c in meet), x, y, q))
        for meet in product(range(family), repeat=d - 2)
        for _, x, q, y in chosen
    )
    return BichromaticConstruction(
        arrangement=BiArrangement(d, red, blue, vertices),
        red_incidences=plane_incidences * family ** (d - 2),
        p=p,
        family_size=family,
        plane_incidences=plane_incidences,
    )


@dataclass(frozen=True)
class ThetaMkConstruction:
    """Axis pencil grid plus a bundle of hyperplanes through the common
    (d-2)-flat, with the greedy red coloring and its exact count."""

    arrangement: BiArrangement
    red_incidences: int
    total_incidences: int
    p: int
    bundle_size: int


def theta_mk_construction(d: int, n: int, k: int, m: int) -> ThetaMkConstruction:
    """Arrangement realizing m*k red incidences in the small-m regime.

    With p = floor(m^{1/(d-2)}) (p = 1 for d = 2), the grid hyperplanes
    x_a = b (a = 1..d-2, b = 0..p-1) pin p^{d-2} vertices on the flat
    x_{d-1} = x_d = 0, and the bundle hyperplanes x_{d-1} + i*x_d = 0
    contain that whole flat. So a grid hyperplane holds p^{d-3} vertices and
    a bundle hyperplane all p^{d-2}; the k of largest degree (ties by
    construction index) are colored red. For d = 2 the grid is empty and the
    bundle is a pencil through the one vertex.
    """
    if d < 2:
        raise GeometryError("d must be >= 2")
    if not 1 <= k <= n:
        raise GeometryError(f"k = {k} outside 1..{n}")
    if m < 1:
        raise GeometryError("m must be >= 1")
    p = iroot(m, d - 2) if d > 2 else 1
    grid_count = (d - 2) * p
    if grid_count + 2 > n:
        raise GeometryError(f"need n >= {grid_count + 2} hyperplanes for p = {p}, got {n}")
    hyps = [
        hyperplane([1 if i == axis else 0 for i in range(d)], b)
        for axis in range(d - 2)
        for b in range(p)
    ]
    hyps.extend(hyperplane([0] * (d - 2) + [1, i], 0) for i in range(grid_count, n))
    vertices = tuple(Point(list(coords) + [0, 0]) for coords in product(range(p), repeat=d - 2))
    degrees = [len(vertices) // p] * grid_count + [len(vertices)] * (n - grid_count)
    order = sorted(range(n), key=lambda i: (-degrees[i], i))
    red_idx = set(order[:k])
    red = tuple(hyps[i] for i in range(n) if i in red_idx)
    blue = tuple(hyps[i] for i in range(n) if i not in red_idx)
    return ThetaMkConstruction(
        arrangement=BiArrangement(d, red, blue, vertices),
        red_incidences=sum(degrees[i] for i in red_idx),
        total_incidences=sum(degrees),
        p=p,
        bundle_size=n - grid_count,
    )


def verify_covering_lines(
    d: int, line_points: Sequence[Sequence[Point]]
) -> str | None:
    """None when the points on covering lines are in general position, else
    a description of the spanned flat, first in point-basis order, that
    shows they are not.

    A configuration is a set S of lines (two points each) and one point on
    each line of a set T of other lines. General position asks each with
    2|S| + |T| <= d+2 for rank min(2|S| + |T|, d+1), and those of size
    s = min(d+1, 2*#lines) decide it: a smaller one grows to size s (add a
    point from an unused line, or promote a T line to S), and one of d+2
    points contains one of d+1. A flat holds a line whole when it holds two
    of its points, and so all. Lemma: some configuration of size s has rank
    < s exactly when no (s-2)-flat is spanned or a spanned one holds w whole
    lines and single points of p others with 2w + p >= s. Extended by points
    of the set to rank s-1, such a configuration spans an (s-2)-flat holding
    its S lines whole and a point of each T line; conversely such a flat
    holds min(w, s//2) whole lines and s - 2 min(w, s//2) more points, one
    on each of other lines (a spare whole line's if s is odd). For a Purdy
    set s-2 = d-1, and the hyperplane walk leaves the (d-2)-flats memoized.
    """
    points = tuple(p for line in line_points for p in line)
    s = min(d + 1, 2 * len(line_points))
    flats = spanned_flats(points, s - 2)
    if not flats.count:
        return f"the points span no {s - 2}-flat"
    ends = list(accumulate(map(len, line_points), initial=0))
    lines = [(1 << b) - (1 << a) for a, b in zip(ends, ends[1:])]

    def held(mask: int) -> list[int]:
        return [min((mask & line).bit_count(), 2) for line in lines]

    failing = [i for i, mask in enumerate(flats.masks) if sum(held(mask)) >= s]
    if not failing:
        return None
    first = held(flats.masks[min(failing, key=flats.basis)])  # named in point-basis order
    whole, single = ([i for i, h in enumerate(first) if h == c] for c in (2, 1))
    return (
        f"lines {whole} whole and a point of lines {single} lie on one"
        f" spanned {s - 2}-flat: 2*{len(whole)} + {len(single)} >= {s}"
    )


def check_purdy_cell(d: int, k: int) -> None:
    """Raise unless the Purdy cell (d, k) can be built and counted: d >= 4,
    k >= 2, and the hyperplane walk of its n = k(d-1) points, with its
    (d-2)-flats and the lower levels it keeps, admitted at the exact flat
    counts ``purdy_flats`` gives."""
    check_purdy_domain(d, k)
    bits = (LINE_BASE + LINE_STEP * k).bit_length()  # purdy_counterexample's largest coordinate
    def flats(f: int) -> int:  # formed only for cells walk_cost counts exactly
        return purdy_flats(d, k, f + 1)
    admit(f"Purdy cell ({d}, {k})", *walk_cost(k * (d - 1), d, (d - 2, d - 1), bits, flats))


def purdy_counterexample(d: int, k: int, seed: int = 0) -> tuple[Point, ...]:
    """k points on each of d-1 random rational lines in verified general
    position: the family spanning ~n^{d-2} hyperplanes but ~n^{d-1}
    (d-2)-flats, refuting the more-hyperplanes-than-flats conjecture.

    Each line's points are base + t * direction for t = 1..k, the base's
    coordinates drawn in -9..9 (``LINE_BASE``) and the direction's in -3..3
    (``LINE_STEP``). Ranges this small do meet degenerate draws, and that is
    safe: every draw is checked exactly, and the generator, deterministic
    for fixed (d, k, seed), retries with fresh coordinates until
    ``verify_covering_lines`` finds no spanned hyperplane holding w whole
    lines and single points of p others with 2w + p >= d+1. Refuses, before
    any draw, a cell that ``check_purdy_cell`` rejects.
    """
    check_purdy_cell(d, k)
    last_failure = "no attempts made"
    for attempt in range(PURDY_ATTEMPTS):
        rng = random.Random(f"covering-lines:{d}:{k}:{seed}:{attempt}")
        line_points: list[list[Point]] = []
        for _ in range(d - 1):
            base = [rng.randint(-LINE_BASE, LINE_BASE) for _ in range(d)]
            direction = [rng.randint(-LINE_STEP, LINE_STEP) for _ in range(d)]
            if all(v == 0 for v in direction):
                direction[0] = 1
            line_points.append(
                [
                    Point(b + t * v for b, v in zip(base, direction))
                    for t in range(1, k + 1)
                ]
            )
        failure = verify_covering_lines(d, line_points)
        if failure is None:
            return tuple(p for line in line_points for p in line)
        last_failure = failure
    raise GeometryError(
        f"general position not reached after {PURDY_ATTEMPTS} attempts: {last_failure}"
    )


def check_beck3_plant(n: int, k: int, plant: str) -> None:
    """Raise GeometryError unless k >= 1 and 4 <= n-k <= what the plant
    holds. Any 4 points are coplanar or span two skew lines, so 3 planted
    points are always beaten; a plant's points come from distinct draws,
    (alpha, beta) on the plane, t on each skew line (the first takes more)."""
    if k < 1 or n - k < 4:
        raise GeometryError(f"k >= 1 and n-k >= 4 required, got n={n}, k={k}")
    values = 2 * PLANT_SPAN + 1
    limit = values * values if plant == "plane" else 2 * values
    if n - k > limit:
        raise GeometryError(
            f"n - k = {n - k} exceeds the {limit} points the {plant} plant can hold"
        )


def check_beck3(
    n_values: Sequence[int], k_values: Sequence[int], seeds: int, seed: int, plant: str, fmt: str
) -> list[tuple[int, int, int, str]]:
    """The grid's (n, k, seed, plant) cells, ``mix`` alternating plane and skew;
    raises unless seeds >= 1, the rows (priced in ``fmt`` before the cells are
    listed) and the largest walk are admitted, and every plant holds its cell."""
    if seeds < 1:
        raise GeometryError(f"--seeds must be >= 1, got {seeds}")
    count = len(n_values) * len(k_values) * seeds
    # a cell and its row as formatted, per row under tracemalloc at 4,000 rows
    # of n = 6 and 1,200 of n = 20: 2,300-2,470 bytes in JSON, 400-540 in CSV
    admit(f"a table of {count:,} rows", count * (2500 if fmt == "json" else 550), 0)
    cells = [
        (n, k, s, ("plane", "skew")[s % 2] if plant == "mix" else plant)
        for n in n_values for k in k_values for s in range(seed, seed + seeds)
    ]
    n, planes = max(n_values), 0
    for m, k, _, kind in cells:
        check_beck3_plant(m, k, kind)
        # the planted points' triples span one plane (plane) or none (two lines)
        on = (m - k,) if kind == "plane" else ((m - k + 1) // 2, (m - k) // 2)
        planes = max(planes, comb(m, 3) - sum(comb(j, 3) for j in on) + (kind == "plane"))
    def flats(f: int) -> int:
        return planes if f == 2 else comb(n, f + 1)
    admit("beck3's largest walk", *walk_cost(n, 3, (1, 2), BECK3_BITS, flats))
    return cells


def beck3_instance(n: int, k: int, seed: int, plant: str) -> tuple[list[Point], int]:
    """n distinct points in E^3 with exactly n-k on the planted plane (or
    pair of skew lines) and no plane or pair of spanned lines covering more,
    with the count the check measured (``max_cover_plane_or_two_lines``);
    regenerated on failure.
    Parameters the plant cannot meet are refused (``check_beck3_plant``).
    """
    check_beck3_plant(n, k, plant)
    planted = n - k
    for attempt in range(BECK3_ATTEMPTS):
        rng = random.Random(f"beck3:{plant}:{n}:{k}:{seed}:{attempt}")
        points: list[Point] = []
        if plant == "plane":
            base = [rng.randint(-PLANE_BASE, PLANE_BASE) for _ in range(3)]
            u = [rng.randint(-PLANT_STEP, PLANT_STEP) for _ in range(3)]
            v = [rng.randint(-PLANT_STEP, PLANT_STEP) for _ in range(3)]
            coeffs = set()
            while len(coeffs) < planted:
                coeffs.add(
                    (rng.randint(-PLANT_SPAN, PLANT_SPAN), rng.randint(-PLANT_SPAN, PLANT_SPAN))
                )
            for alpha, beta in sorted(coeffs):
                points.append(
                    Point(b + alpha * uu + beta * vv for b, uu, vv in zip(base, u, v))
                )
            if affine_rank(points) != 3:  # plant degenerated to a line
                continue
        else:
            sizes = (planted - planted // 2, planted // 2)
            for which in range(2):
                base = [rng.randint(-SKEW_BASE, SKEW_BASE) for _ in range(3)]
                direction = [rng.randint(-PLANT_STEP, PLANT_STEP) for _ in range(3)]
                ts = set()
                while len(ts) < sizes[which]:
                    ts.add(rng.randint(-PLANT_SPAN, PLANT_SPAN))
                for t in sorted(ts):
                    points.append(Point(b + t * dd for b, dd in zip(base, direction)))
            if affine_rank(points[:2] + points[sizes[0] : sizes[0] + 2]) != 4:  # not skew
                continue
        while len(points) < n:
            candidate = Point(rng.randint(-FILL_SPAN, FILL_SPAN) for _ in range(3))
            if candidate not in points:
                points.append(candidate)
        if len(set(points)) != n:
            continue
        covered = max_cover_plane_or_two_lines(points)
        if covered == planted:
            return points, covered
    raise GeometryError(
        f"no admissible instance after {BECK3_ATTEMPTS} attempts (n={n}, k={k}, plant={plant})"
    )


def check_construction(kind: str, d: int, n: int, k: int, m: int, c0: Fraction | int = 1) -> None:
    """Raise unless the bichromatic or thetamk arrangement is admitted: p *
    n^(d-2) <= c0 * m vertices after the k^2 of its grid, or p^(d-2) <= m."""
    vertices = int(c0 * m) + k**2 if kind == "bichromatic" else m
    admit(kind, *arrangement_cost(n, d, vertices, 0))


def check_envelope_sweep(
    construction: str, d: int, n0: int, doublings: int, k_frac: float, p: int
) -> None:
    """Raise unless the options are in range and the last rung, n = n0 * 2^doublings,
    is admitted: theta_mk lays out p^(d - 2) vertices in at most n classes,
    bichromatic p * ((n - k) // (d - 2))^(d - 2) after the C(k, 2) of its grid, in
    isqrt(k) + d; with d > n, n - k < d - 2 leaves it no blue hyperplane. Shifts
    and powers clip at 64."""
    if not 0 < k_frac <= 1:
        raise GeometryError(f"--k-frac must be in (0, 1], got {k_frac}")
    min_d = 3 if construction == "bichromatic" else 2
    if d < min_d:
        raise GeometryError(f"d >= {min_d} required for {construction}")
    if n0 < 1 or p < 1:
        raise GeometryError("--n0 and --p must be >= 1")
    if doublings < 0:
        raise GeometryError(f"--doublings must be >= 0, got {doublings}")
    n = n0 << min(doublings, 64)
    k = max(2, int(n * k_frac))
    if construction == "thetamk":
        vertices, classes = p ** min(d - 2, 64), n
    elif d > n:
        raise GeometryError(f"d = {d} > n = {n}: no rung has room for a blue hyperplane")
    else:
        vertices, classes = p * ((n - k) // (d - 2)) ** min(d - 2, 64) + comb(k, 2), isqrt(k) + d
    admit(f"last rung n = {n0} * 2^{doublings}", *arrangement_cost(n, d, vertices, classes))


# Experiment rows, one per parameter tuple: a generator's output checked
# against the closed form or bound it realizes. Each column table maps a
# column to the value it keeps when the generator fails and nothing is
# measured (None: every row sets it); such a row's status starts "error: "
# (sweeps: "skipped: ").

PURDY_COLUMNS = {
    "d": None, "k": None, "n": None, "seed": None,
    "h_formula": None, "h_enumerated": -1, "g_formula": None, "g_enumerated": -1,
    "h_match": False, "g_match": False, "g_gt_h": None, "status": None,
}


def purdy_row(params: tuple[int, int, int]) -> dict:
    """Closed-form vs enumerated hyperplane and codim-2 counts of the
    (d, k, seed) covering-lines counterexample."""
    d, k, seed = params
    counts = purdy_counts(d, k)
    row = {
        **PURDY_COLUMNS, "d": d, "k": k, "n": k * (d - 1), "seed": seed,
        "h_formula": counts.h_total, "g_formula": counts.g_total,
        "g_gt_h": counts.g_total > counts.h_total,
    }
    try:
        points = purdy_counterexample(d, k, seed)
        h_enum = spanned_flats(points, d - 1).count
        g_enum = spanned_flats(points, d - 2).count
    except GeometryError as exc:
        return {**row, "status": f"error: {exc}"}
    return {
        **row, "h_enumerated": h_enum, "g_enumerated": g_enum,
        "h_match": h_enum == counts.h_total, "g_match": g_enum == counts.g_total,
        "status": "ok",
    }


ENVELOPE_COLUMNS = {
    "step": None, "construction": None, "d": None, "n_requested": None, "k_frac": None,
    "p": None, "n": -1, "k": None, "m": -1, "red_measured": -1, "term_mixed": 0.0,
    "term_kn": 0, "term_m": 0, "envelope": 0.0, "ratio": 0.0, "dominant": "",
    "seed": None, "status": None,
}


def envelope_row(params: tuple) -> dict:
    """Measured red incidences of one rung's bichromatic or theta_mk
    arrangement against the bound envelope's terms."""
    construction, d, step, n_req, k_frac, p, seed = params
    k = max(2, int(n_req * k_frac))
    row = {
        **ENVELOPE_COLUMNS, "step": step, "construction": construction, "d": d,
        "n_requested": n_req, "k_frac": k_frac, "p": p, "k": k, "seed": seed,
    }
    try:
        if construction == "bichromatic":
            built = bichromatic_lower_construction(d, n_req, k, m=p * n_req ** (d - 2))
        else:
            built = theta_mk_construction(d, n_req, k, m=p ** (d - 2))
        arrangement = built.arrangement
        report = count_bichromatic(arrangement)
        env = bound_envelope(arrangement.m, arrangement.k, arrangement.n, d)
    except GeometryError as exc:
        return {**row, "status": f"skipped: {exc}"}
    return {
        **row, "n": arrangement.n, "k": arrangement.k, "m": arrangement.m,
        "red_measured": report.red_incidences, "term_mixed": env.term_mixed,
        "term_kn": env.term_kn, "term_m": env.term_m, "envelope": env.total,
        "ratio": report.red_incidences / env.total, "dominant": env.dominant,
        "status": "ok",
    }


BECK3_COLUMNS = {
    "n": None, "k": None, "seed": None, "plant": None,
    "hypothesis_ok": False, "max_cover": -1, "planes": -1, "ratio": 0.0, "status": None,
}


def beck3_row(params: tuple) -> dict:
    """The (n, k, seed, plant) beck3 instance's hypothesis check and its
    spanned planes against n k^2."""
    n, k, seed, plant = params
    row = {**BECK3_COLUMNS, "n": n, "k": k, "seed": seed, "plant": plant}
    try:
        points, covered = beck3_instance(n, k, seed, plant)
    except GeometryError as exc:
        return {**row, "status": f"error: {exc}"}
    planes = spanned_flats(points, 2)
    return {
        **row, "hypothesis_ok": covered == n - k, "max_cover": covered, "planes": planes.count,
        "ratio": planes.count / (n * k * k), "status": "ok",
    }
