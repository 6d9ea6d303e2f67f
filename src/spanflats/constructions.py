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
from math import gcd, isqrt, lcm
from typing import Sequence

from .formulas import iroot, purdy_counts
from .incidence import BiArrangement, bound_envelope, count_bichromatic
from .kernel import Flat, GeometryError, Point, affine_rank, hyperplane
from .spans import CoverCertificate, check_walk_size, max_cover_plane_or_two_lines, spanned_flats

# Fresh draws each generator makes before it gives up with ConstructionError.
PURDY_ATTEMPTS = 64
BECK3_ATTEMPTS = 32
PLANT_SPAN = 60  # beck3 plants draw t (skew) or (alpha, beta) (plane) in -60..60


class ConstructionError(ValueError):
    """Raised when requested parameters are infeasible or verification of a
    generated configuration fails."""


@dataclass(frozen=True)
class LineGrid2D:
    """A slope/intercept grid of lines with its windowed vertex set."""

    lines: tuple[Flat, ...]
    vertices: tuple[Point, ...]
    incidences: int


def _grid_lines(pairs: Sequence[tuple[int, int]]) -> list[Flat]:
    # y = a*x + b  <=>  -a*x + y = b
    return [hyperplane((-a, 1), b) for a, b in pairs]


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
        raise ConstructionError("r and s must be >= 1")
    pairs = [(a, b) for a in range(r) for b in range(s)]
    x_max = -(-s // r)
    vertices = _grid_vertices(pairs, (x_max, r * x_max + s))
    return LineGrid2D(
        lines=tuple(_grid_lines(pairs)),
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
        raise ConstructionError("d must be >= 3")
    if k < 2:
        raise ConstructionError("k must be >= 2 (a single red hyperplane has no 2-D vertices)")
    if k >= n:
        raise ConstructionError("k must be < n")
    family = (n - k) // (d - 2)
    if family < 1:
        raise ConstructionError(f"(n-k) = {n - k} leaves no blue hyperplanes per family")
    p = int(Fraction(c0) * (m // n ** (d - 2)))
    if p < 1:
        raise ConstructionError(f"p = {p}: m too small relative to n^(d-2)")
    pairs, ranked = _rich_line_config(k)
    if p > len(ranked):
        raise ConstructionError(
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
        raise ConstructionError("d must be >= 2")
    if not 1 <= k <= n:
        raise ConstructionError(f"k = {k} outside 1..{n}")
    if m < 1:
        raise ConstructionError("m must be >= 1")
    p = iroot(m, d - 2) if d > 2 else 1
    grid_count = (d - 2) * p
    if grid_count + 2 > n:
        raise ConstructionError(f"need n >= {grid_count + 2} hyperplanes for p = {p}, got {n}")
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
    a description of a spanned flat that shows they are not.

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
    for mask in flats.masks:
        held = [min((mask & line).bit_count(), 2) for line in lines]
        if sum(held) >= s:
            whole, single = ([i for i, h in enumerate(held) if h == c] for c in (2, 1))
            return (
                f"lines {whole} whole and a point of lines {single} lie on one"
                f" spanned {s - 2}-flat: 2*{len(whole)} + {len(single)} >= {s}"
            )
    return None


def check_purdy_cell(d: int, k: int) -> None:
    """Raise unless the Purdy cell (d, k) can be built and counted: d >= 4,
    k >= 2, and the hyperplane walk of its n = k(d-1) points, which gives
    the (d-2)-flats too, within ``check_walk_size``."""
    if d < 4:
        raise ConstructionError(f"d >= 4 required, got {d}")
    if k < 2:
        raise ConstructionError(f"k >= 2 required, got {k}")
    check_walk_size(k * (d - 1), d - 1)


def purdy_counterexample(d: int, k: int, seed: int = 0) -> tuple[Point, ...]:
    """k points on each of d-1 random rational lines in verified general
    position: the family spanning ~n^{d-2} hyperplanes but ~n^{d-1}
    (d-2)-flats, refuting the more-hyperplanes-than-flats conjecture.

    Deterministic for fixed (d, k, seed); retries with fresh coordinates
    until ``verify_covering_lines`` finds no spanned hyperplane holding w
    whole lines and single points of p others with 2w + p >= d+1. Refuses,
    before any draw, a cell that ``check_purdy_cell`` rejects.
    """
    check_purdy_cell(d, k)
    last_failure = "no attempts made"
    for attempt in range(PURDY_ATTEMPTS):
        rng = random.Random(f"covering-lines:{d}:{k}:{seed}:{attempt}")
        line_points: list[list[Point]] = []
        for _ in range(d - 1):
            base = [rng.randint(-999, 999) for _ in range(d)]
            direction = [rng.randint(-99, 99) for _ in range(d)]
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
    raise ConstructionError(
        f"general position not reached after {PURDY_ATTEMPTS} attempts: {last_failure}"
    )


def check_beck3_plant(n: int, k: int, plant: str) -> None:
    """Raise ConstructionError unless k >= 1 and 4 <= n-k <= what the plant
    holds. Any 4 points are coplanar or span two skew lines, so 3 planted
    points are always beaten; a plant's points come from distinct draws,
    (alpha, beta) on the plane, t on each skew line (the first takes more)."""
    if k < 1 or n - k < 4:
        raise ConstructionError(f"k >= 1 and n-k >= 4 required, got n={n}, k={k}")
    values = 2 * PLANT_SPAN + 1
    limit = values * values if plant == "plane" else 2 * values
    if n - k > limit:
        raise ConstructionError(
            f"n - k = {n - k} exceeds the {limit} points the {plant} plant can hold"
        )


def beck3_instance(
    n: int, k: int, seed: int, plant: str
) -> tuple[list[Point], CoverCertificate]:
    """n distinct points in E^3 with exactly n-k on the planted plane (or
    pair of skew lines) and no plane or pair of spanned lines covering more,
    with the cover certificate that verified it; regenerated on failure.
    Parameters the plant cannot meet are refused (``check_beck3_plant``).
    """
    check_beck3_plant(n, k, plant)
    planted = n - k
    for attempt in range(BECK3_ATTEMPTS):
        rng = random.Random(f"beck3:{plant}:{n}:{k}:{seed}:{attempt}")
        points: list[Point] = []
        if plant == "plane":
            base = [rng.randint(-20, 20) for _ in range(3)]
            u = [rng.randint(-9, 9) for _ in range(3)]
            v = [rng.randint(-9, 9) for _ in range(3)]
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
                base = [rng.randint(-40, 40) for _ in range(3)]
                direction = [rng.randint(-9, 9) for _ in range(3)]
                ts = set()
                while len(ts) < sizes[which]:
                    ts.add(rng.randint(-PLANT_SPAN, PLANT_SPAN))
                for t in sorted(ts):
                    points.append(Point(b + t * dd for b, dd in zip(base, direction)))
            if affine_rank(points[:2] + points[sizes[0] : sizes[0] + 2]) != 4:  # not skew
                continue
        while len(points) < n:
            candidate = Point(rng.randint(-999, 999) for _ in range(3))
            if candidate not in points:
                points.append(candidate)
        if len(set(points)) != n:
            continue
        cover = max_cover_plane_or_two_lines(points)
        if cover.covered_count == planted:
            return points, cover
    raise ConstructionError(
        f"no admissible instance after {BECK3_ATTEMPTS} attempts (n={n}, k={k}, plant={plant})"
    )


# The last rung envelope-sweep admits, per construction: at most this many
# hyperplanes, and this many vertex-hyperplane pairs (hyperplanes times the
# vertices the generator lays out), which the count's work scales with.
ENVELOPE_CAPS = {"bichromatic": (2048, 10**7), "thetamk": (65536, 10**6)}


def check_envelope_sweep(
    construction: str, d: int, n0: int, doublings: int, k_frac: float, p: int
) -> None:
    """Raise unless the last and largest rung of a sweep, n = n0 * 2^doublings,
    is within ``ENVELOPE_CAPS``. The bichromatic generator lays out
    p * ((n - k) // (d - 2))^(d - 2) vertices, after listing the vertices
    of its k-line grid (about k^2/2; k < n), and the theta_mk one p^(d - 2).
    A bichromatic sweep with d > n is refused too: n - k <= n - 2 < d - 2
    leaves no blue hyperplane on any rung. n is bounded before it is formed
    and the exponent clipped at 64, so the check is instant for any
    doublings, d and p."""
    max_n, max_pairs = ENVELOPE_CAPS[construction]
    if doublings >= max_n.bit_length() or n0 << doublings > max_n:
        raise ConstructionError(
            f"last rung n0 * 2^{doublings} exceeds the {construction} cap of {max_n:,} hyperplanes"
        )
    n = n0 << doublings
    if construction == "bichromatic":
        if d > n:
            raise ConstructionError(f"d = {d} > n = {n}: no rung has room for a blue hyperplane")
        family = max(n - max(2, int(n * k_frac)), 0) // (d - 2)
        vertices = p * family ** min(d - 2, 64)
    else:
        vertices = p ** min(d - 2, 64)
    if n * vertices > max_pairs:
        raise ConstructionError(
            f"last rung n = {n} exceeds the {construction} cap of {max_pairs:,}"
            " vertex-hyperplane pairs"
        )


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
    except (ConstructionError, GeometryError) as exc:
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
    except (ConstructionError, GeometryError) as exc:
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
        points, cover = beck3_instance(n, k, seed, plant)
    except ConstructionError as exc:
        return {**row, "status": f"error: {exc}"}
    planes = spanned_flats(points, 2)
    return {
        **row, "hypothesis_ok": cover.covered_count == n - k,
        "max_cover": cover.covered_count, "planes": planes.count,
        "ratio": planes.count / (n * k * k), "status": "ok",
    }
