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
from itertools import combinations, product
from math import gcd, isqrt, lcm
from typing import Iterator, Sequence

from .formulas import iroot
from .incidence import BiArrangement, hyperplane_degrees
from .kernel import Basis, Flat, Point, extend_rref, hyperplane, int_rref
from .kernel import affine_rank  # noqa: F401  (bench/test_bench.py traces this copy)


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
) -> Iterator[tuple[int, int, int, int]]:
    """(count, p, q, key) for each vertex (x, y) = (p/q, key/q) of the lines
    y = a*x + b with the count of lines through it, p/q in lowest terms and
    q > 0; with ``window = (x_max, y_max)`` only those with |x| <= x_max and
    0 <= y < y_max. Each vertex is yielded once.

    Two lines meet at x = beta/delta for a slope difference delta and an
    intercept difference beta, so those fractions are the only candidate x
    values and the cost is (candidates) * (lines) rather than all-pairs
    times all-lines; a candidate no two lines share is never promoted to a
    vertex. At a given x = p/q every line value y = (a*p + b*q)/q shares
    the denominator q, so collision counting is pure integer work.
    """
    slopes = {a for a, _ in pairs}
    intercepts = {b for _, b in pairs}
    candidates: set[tuple[int, int]] = set()
    for delta in {a1 - a2 for a1 in slopes for a2 in slopes if a1 > a2}:
        for beta in {b1 - b2 for b1 in intercepts for b2 in intercepts}:
            if window is None or abs(beta) <= delta * window[0]:
                g = gcd(beta, delta)
                candidates.add((beta // g, delta // g))
    for p, q in candidates:
        at_x = Counter(a * p + b * q for a, b in pairs)
        for key, count in at_x.items():
            if count >= 2 and (window is None or 0 <= key < window[1] * q):
                yield count, p, q, key


def windowed_grid_degrees(
    pairs: Sequence[tuple[int, int]], window: tuple[int, int] | None = None
) -> dict[tuple[Fraction, Fraction], int]:
    """Vertices of the lines y = a*x + b as Fraction pairs, with the number
    of lines through each; with ``window = (x_max, y_max)`` only those with
    |x| <= x_max and 0 <= y < y_max.

    A view over the integer vertices of ``_grid_vertices``: the vertex
    (p/q, key/q) is exact, and Fractions are made only here, at the edge.
    """
    return {
        (Fraction(p, q), Fraction(key, q)): count
        for count, p, q, key in _grid_vertices(pairs, window)
    }


def erdos_grid_2d(r: int, s: int) -> LineGrid2D:
    """The r*s lines {y = a*x + b : 0 <= a < r, 0 <= b < s} together with the
    arrangement vertices inside the reporting window |x| <= ceil(s/r),
    0 <= y < r*ceil(s/r) + s, and the exact vertex-line incidence count."""
    if r < 1 or s < 1:
        raise ConstructionError("r and s must be >= 1")
    pairs = [(a, b) for a in range(r) for b in range(s)]
    x_max = -(-s // r)
    degrees = windowed_grid_degrees(pairs, (x_max, r * x_max + s))
    return LineGrid2D(
        lines=tuple(_grid_lines(pairs)),
        vertices=tuple(Point(v) for v in sorted(degrees)),
        incidences=sum(degrees.values()),
    )


def _rich_line_config(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """k grid lines plus their arrangement vertices sorted richest-first.

    The slope range is floor(sqrt(k)) so vertex degrees grow with k, but at
    least 2 slopes whenever k >= 2 (a single-slope pencil has no vertices);
    ties between equally rich vertices break on coordinates, keeping the
    selection deterministic.

    The ranking is on integers. Every vertex (p/q, key/q) has q dividing
    L = lcm of all the q, so (x*L, y*L) = (p*L/q, key*L/q) are integers and,
    L being positive, order the vertices as their Fraction coordinates do.
    Each entry is (-count, x*L, y*L, p, q, key); no two vertices share
    (x*L, y*L), so the sort never compares past the third item, and
    ``_ranked_vertex`` turns an entry back into (count, (x, y)).
    """
    r = max(min(k, 2), isqrt(k))
    s = -(-k // r)
    pairs = [(a, b) for a in range(r) for b in range(s)][:k]
    vertices = list(_grid_vertices(pairs))
    L = lcm(*(q for _, _, q, _ in vertices))
    ranked = sorted(
        (-count, p * (L // q), key * (L // q), p, q, key) for count, p, q, key in vertices
    )
    return pairs, ranked


def _ranked_vertex(entry: tuple[int, ...]) -> tuple[int, tuple[Fraction, Fraction]]:
    """A ``_rich_line_config`` entry as (count, (x, y)) with exact Fractions."""
    neg_count, _, _, p, q, key = entry
    return -neg_count, (Fraction(p, q), Fraction(key, q))


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
    chosen = [_ranked_vertex(entry) for entry in ranked[:p]]
    plane_incidences = sum(deg for deg, _ in chosen)

    zeros = [0] * (d - 2)
    red = tuple(
        hyperplane(zeros + [-a, 1], b) for a, b in pairs
    )
    blue = tuple(
        hyperplane([1 if i == axis else 0 for i in range(d)], j)
        for axis in range(d - 2)
        for j in range(family)
    )
    vertices = tuple(
        Point(list(meet) + [x, y])
        for meet in product(range(family), repeat=d - 2)
        for _, (x, y) in chosen
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

    For d >= 3, the grid hyperplanes x_a = b (a = 1..d-2, b = 0..p-1) pin
    p^{d-2} vertices on the flat x_{d-1} = x_d = 0 and the remaining
    hyperplanes x_{d-1} + i*x_d = 0 all contain that flat; the k hyperplanes
    of largest vertex degree (ties by construction index) are colored red.
    d = 2 degenerates to a pencil through one vertex.
    """
    if d < 2:
        raise ConstructionError("d must be >= 2")
    if not 1 <= k <= n:
        raise ConstructionError(f"k = {k} outside 1..{n}")
    if m < 1:
        raise ConstructionError("m must be >= 1")
    if d == 2:
        if n < 2:
            raise ConstructionError("need at least 2 lines")
        hyps = [hyperplane((1, i), 0) for i in range(n)]
        grid_count = 0
        p = 1
    else:
        p = iroot(m, d - 2)
        if p < 1:
            raise ConstructionError("m too small")
        grid_count = (d - 2) * p
        if grid_count + 2 > n:
            raise ConstructionError(
                f"need n >= {grid_count + 2} hyperplanes for p = {p}, got {n}"
            )
        hyps = [
            hyperplane([1 if i == axis else 0 for i in range(d)], b)
            for axis in range(d - 2)
            for b in range(p)
        ]
        hyps.extend(
            hyperplane([0] * (d - 2) + [1, i], 0) for i in range(grid_count, n)
        )

    if d == 2:
        vertices = [Point((0, 0))]
    else:
        vertices = [
            Point(list(coords) + [0, 0]) for coords in product(range(p), repeat=d - 2)
        ]
    degrees = hyperplane_degrees(hyps, vertices)
    order = sorted(range(n), key=lambda i: (-degrees[i], i))
    red_idx = set(order[:k])
    red = tuple(hyps[i] for i in range(n) if i in red_idx)
    blue = tuple(hyps[i] for i in range(n) if i not in red_idx)
    return ThetaMkConstruction(
        arrangement=BiArrangement(d, red, blue, tuple(vertices)),
        red_incidences=sum(degrees[i] for i in red_idx),
        total_incidences=sum(degrees),
        p=p,
        bundle_size=n - grid_count,
    )


def _first_rank_failure(
    basis: Basis, lines: Sequence[Sequence[Point]], expected: int, picks: tuple = ()
) -> tuple[int, tuple[Point, ...]] | None:
    """The rank and the picks of the first choice in ``product(*lines)``
    (in its order) whose points, added to ``basis``, do not span rank
    ``expected``; None when every choice does. Each level extends its
    prefix's basis by one point."""
    if not lines:
        rank = len(basis[0])
        return None if rank == expected else (rank, picks)
    for p in lines[0]:
        failure = _first_rank_failure(
            extend_rref(basis, p.hom) or basis, lines[1:], expected, picks + (p,)
        )
        if failure is not None:
            return failure
    return None


def verify_covering_lines(
    d: int, line_points: Sequence[Sequence[Point]]
) -> str | None:
    """Check the general-position predicates for points on covering lines.

    For every subset S of lines and every choice T of at most one point per
    remaining line with 2|S| + |T| <= d+2, the hull of S and T must have
    rank exactly min(2|S| + |T|, d+1). Returns None when everything holds,
    else a description of the first failed predicate. The named special
    cases: |T| = 0 is line general position (no flat of rank 2j covers more
    than j lines, hence no hyperplane holds more than floor(d/2) of them);
    |S| = 0, |T| = d-1 is transversal affine independence. The row space of
    the first two points of each line in S is eliminated once per S, and
    the choices T extend it depth-first, sharing each prefix.
    """
    nlines = len(line_points)
    for j in range(nlines + 1):
        for subset in combinations(range(nlines), j):
            others = [i for i in range(nlines) if i not in subset]
            max_t = min(len(others), d + 2 - 2 * j)
            if max_t < 0:
                continue
            basis = int_rref([p.hom for i in subset for p in line_points[i][:2]])
            for t in range(max_t + 1):
                if j == 0 and t < 2:
                    continue
                expected = min(2 * j + t, d + 1)
                for chosen_lines in combinations(others, t):
                    failure = _first_rank_failure(
                        basis, [line_points[i] for i in chosen_lines], expected
                    )
                    if failure is None:
                        continue
                    got, picks = failure
                    if t == 0:
                        return (
                            f"lines {subset} lie in a flat of rank {got}"
                            f" (general position needs {expected})"
                        )
                    if j == 0 and t == d - 1:
                        return (
                            f"transversal {[p.serialize() for p in picks]}"
                            " is affinely dependent"
                        )
                    return (
                        f"lines {subset} with points"
                        f" {[p.serialize() for p in picks]} span rank {got},"
                        f" expected {expected}"
                    )
    return None


def purdy_counterexample(
    d: int, k: int, seed: int = 0, max_attempts: int = 64
) -> tuple[Point, ...]:
    """k points on each of d-1 random rational lines in verified general
    position: the family spanning ~n^{d-2} hyperplanes but ~n^{d-1}
    (d-2)-flats, refuting the more-hyperplanes-than-flats conjecture.

    Deterministic for fixed (d, k, seed); retries with fresh coordinates
    until the general-position predicates verify exactly.
    """
    if d < 4:
        raise ConstructionError(f"d >= 4 required, got {d}")
    if k < 2:
        raise ConstructionError(f"k >= 2 required, got {k}")
    last_failure = "no attempts made"
    for attempt in range(max_attempts):
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
        f"general position not reached after {max_attempts} attempts: {last_failure}"
    )
