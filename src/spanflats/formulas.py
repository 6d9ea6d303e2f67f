"""Closed-form counts for the covering-lines construction, the modified
pigeonhole checker, and the log-log fit of measured growth series.

The counts and checks are exact: binomials are integer, and comparisons
against c*k^a with fractional a are carried out by raising both sides to the
exponent's denominator, never through floating point. Only the fit, a
least-squares slope of measured data, works in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, log
from typing import Sequence

from .kernel import GeometryError


@dataclass(frozen=True)
class PurdyCounts:
    """Spanned hyperplane and (d-2)-flat totals for k points on each of d-1
    general-position lines."""

    d: int
    k: int
    h_total: int
    g_total: int


def check_purdy_domain(d: int, k: int) -> None:
    """Raise unless d >= 4 and k >= 2, the cells the covering-lines family
    and its counts are defined on."""
    if d < 4:
        raise GeometryError(f"d >= 4 required, got {d}")
    if k < 2:
        raise GeometryError(f"k >= 2 required, got {k}")


def purdy_counts(d: int, k: int) -> PurdyCounts:
    """Exact spanned-hyperplane and spanned-(d-2)-flat totals: the rank d and
    d - 1 counts of ``purdy_flats``. Valid for d >= 4 and k >= 2 (with one
    point per line the covering lines are not spanned and the decomposition
    breaks down).
    """
    check_purdy_domain(d, k)
    return PurdyCounts(d, k, purdy_flats(d, k, d), purdy_flats(d, k, d - 1))


def purdy_flats(d: int, k: int, r: int, j: int | None = None) -> int:
    """Spanned rank-r flats (affine dimension r - 1) of k >= 2 points on each
    of d-1 general-position lines that contain exactly j whole lines: they
    take one point from each of r - 2j other lines. With j None, the total
    over every j (r = d and d - 1 give ``purdy_counts``' two totals)."""
    if j is None:
        return sum(purdy_flats(d, k, r, w) for w in range(r // 2 + 1))
    return comb(d - 1, j) * comb(d - 1 - j, r - 2 * j) * k ** (r - 2 * j)


def purdy_crossover(d: int) -> int:
    """Smallest k >= 2 at which the construction spans more (d-2)-flats than
    hyperplanes; exists because g grows as k^{d-1} against h's k^{d-2}.
    Raises unless d >= 4 (``purdy_counts`` at k = 2 checks it)."""
    k = 2
    while True:
        counts = purdy_counts(d, k)
        if counts.g_total > counts.h_total:
            return k
        k += 1


def iroot(x: int, e: int) -> int:
    """Largest r with r**e <= x, for x >= 0 and e >= 1, in integers only.

    Newton's iteration from the power of two above the root decreases
    strictly until it reaches floor(x**(1/e)), at any size of x.
    """
    if x < 0 or e < 1:
        raise ValueError(f"iroot needs x >= 0 and e >= 1, got x = {x}, e = {e}")
    if x < 2 or e == 1:
        return x
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def floor_scaled_power(c: Fraction, k: int, a: Fraction) -> int:
    """floor(c * k**a) computed exactly: the integer q-th root of
    floor(u^q * k^p / v^q) for c = u/v, a = p/q."""
    p, q = a.numerator, a.denominator
    u, v = c.numerator, c.denominator
    return iroot(u**q * k**p // v**q, q)


def ceil_scaled_power(c: Fraction, k: int, a: Fraction) -> int:
    """ceil(c * k**a) computed exactly: the floor, plus one unless it is exact."""
    f = floor_scaled_power(c, k, a)
    p, q = a.numerator, a.denominator
    return f if (f * c.denominator) ** q == c.numerator**q * k**p else f + 1


def pigeonhole_check(
    allocation: Sequence[int], c: Fraction | str | int, a: Fraction | str | int
) -> bool:
    """Check the modified pigeonhole conclusion on an admissible allocation.

    Preconditions (violations raise GeometryError): 0 < c <= 1, every entry
    a nonnegative integer at most k^{a-1}, and the entries sum to at least
    ceil(c * k^a) where k is the number of containers. Returns whether at
    least c*k/2 containers hold at least floor(c * k^{a-1} / 2) objects;
    this always holds for admissible inputs.
    """
    c = Fraction(c)
    a = Fraction(a)
    k = len(allocation)
    if k < 1:
        raise GeometryError("no containers")
    if not 0 < c <= 1:
        raise GeometryError(f"c = {c} outside (0, 1]")
    if a < 1:
        raise GeometryError(f"a = {a} must be >= 1")
    cap = floor_scaled_power(Fraction(1), k, a - 1)  # integer e <= k^(a-1) iff e <= cap
    for i, entry in enumerate(allocation):
        if entry < 0:
            raise GeometryError(f"allocation[{i}] = {entry} negative")
        if entry > cap:
            raise GeometryError(f"allocation[{i}] = {entry} exceeds k^(a-1)")
    needed = ceil_scaled_power(c, k, a)
    if sum(allocation) < needed:
        raise GeometryError(f"allocation sums to {sum(allocation)} < ceil(c*k^a) = {needed}")
    threshold = floor_scaled_power(c / 2, k, a - 1)
    qualifying = sum(1 for entry in allocation if entry >= threshold)
    return Fraction(2 * qualifying) >= c * k


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fit_loglog(pairs: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(count) against log(x)."""
    if len(pairs) < 2:
        raise GeometryError("need at least 2 pairs")
    if not all(0 < v < inf for pair in pairs for v in pair):
        raise GeometryError("fit requires finite positive values")
    xs = [log(x) for x, _ in pairs]
    ys = [log(y) for _, y in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0:
        raise GeometryError("fit requires at least 2 distinct x values")
    slope = sxy / sxx
    r_squared = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return FitResult(slope, my - slope * mx, r_squared, len(pairs))
