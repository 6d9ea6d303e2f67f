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


class FormulaDomainError(ValueError):
    """Raised when (d, k) is outside the domain the formulas are valid on."""


class AllocationPreconditionError(ValueError):
    """Raised when an allocation violates the pigeonhole preconditions; test
    harnesses treat this as a discarded sample, not a failure."""


@dataclass(frozen=True)
class PurdyCounts:
    """Hyperplane and (d-2)-flat counts for k points on each of d-1
    general-position lines, broken down by the number j of whole lines the
    flat contains."""

    d: int
    k: int
    h_by_j: dict[int, int]
    g_by_j: dict[int, int]

    @property
    def h_total(self) -> int:
        return sum(self.h_by_j.values())

    @property
    def g_total(self) -> int:
        return sum(self.g_by_j.values())


def purdy_counts(d: int, k: int) -> PurdyCounts:
    """Exact spanned-hyperplane and spanned-(d-2)-flat totals.

    A hyperplane containing exactly j of the d-1 covering lines picks up
    d-2j single points from as many other lines; a (d-2)-flat picks up
    d-1-2j. Valid for k >= 2 (with one point per line the covering lines
    are not spanned and the decomposition breaks down).
    """
    if d < 4:
        raise FormulaDomainError(f"d >= 4 required, got {d}")
    if k < 2:
        raise FormulaDomainError(f"k >= 2 required, got {k}")
    h = {
        j: comb(d - 1, j) * comb(d - 1 - j, d - 2 * j) * k ** (d - 2 * j)
        for j in range(1, d // 2 + 1)
    }
    g = {
        j: comb(d - 1, j) * comb(d - 1 - j, d - 1 - 2 * j) * k ** (d - 1 - 2 * j)
        for j in range(0, (d - 1) // 2 + 1)
    }
    return PurdyCounts(d, k, h, g)


def purdy_crossover(d: int) -> int:
    """Smallest k >= 2 at which the construction spans more (d-2)-flats than
    hyperplanes; exists because g grows as k^{d-1} against h's k^{d-2}."""
    if d < 4:
        raise FormulaDomainError(f"d >= 4 required, got {d}")
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

    Preconditions (violations raise AllocationPreconditionError): 0 < c <= 1,
    every entry a nonnegative integer at most k^{a-1}, and the entries sum to
    at least ceil(c * k^a) where k is the number of containers. Returns
    whether at least c*k/2 containers hold at least floor(c * k^{a-1} / 2)
    objects; this always holds for admissible inputs.
    """
    c = Fraction(c)
    a = Fraction(a)
    k = len(allocation)
    if k < 1:
        raise AllocationPreconditionError("no containers")
    if not 0 < c <= 1:
        raise AllocationPreconditionError(f"c = {c} outside (0, 1]")
    if a < 1:
        raise AllocationPreconditionError(f"a = {a} must be >= 1")
    cap = floor_scaled_power(Fraction(1), k, a - 1)  # integer e <= k^(a-1) iff e <= cap
    for i, entry in enumerate(allocation):
        if entry < 0:
            raise AllocationPreconditionError(f"allocation[{i}] = {entry} negative")
        if entry > cap:
            raise AllocationPreconditionError(
                f"allocation[{i}] = {entry} exceeds k^(a-1)"
            )
    needed = ceil_scaled_power(c, k, a)
    if sum(allocation) < needed:
        raise AllocationPreconditionError(
            f"allocation sums to {sum(allocation)} < ceil(c*k^a) = {needed}"
        )
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
