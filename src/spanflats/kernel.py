"""Exact affine geometry over the integers: points, canonical flats, hulls, meets.

A point of E^d is stored as its primitive homogeneous integer vector: the
coordinate numerators over their lcm denominator, then that denominator. A
flat is stored as the primitive-integer row echelon form that ``int_rref``
gives for its constraint system ``A·x = b``: each row is the rational RREF
row scaled to a primitive integer vector with a positive pivot. Both forms
are unique, so structural equality is geometric equality and enumeration
code deduplicates flats with a plain dict. The one elimination step is
``extend_rref``, which adds one row to a canonical basis (or reports it
dependent); ``int_rref`` is its fold over the rows, and callers that walk
subsets with a common prefix extend the prefix's basis instead of starting
over. Rationals appear only at the edges: parsing, the constructors (which
take ints or Fractions) and the formatted outputs. There is no floating
point in this module.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class GeometryError(ValueError):
    """Raised for dimension mismatches and other malformed geometric input."""


Scalar = int | Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the serialization "p" or "p/q" (q positive) into a Fraction."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise GeometryError(f"bad rational {text!r}")
    return Fraction(s)


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q"; inverse of parse_rational."""
    return str(Fraction(value))


def _scaled(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """The values as integer numerators over their lcm denominator, and that
    denominator. Anything but an int or a Fraction is refused: Fraction()
    would turn a float into its binary value and parse a string."""
    vals = list(values)
    for v in vals:
        if not isinstance(v, (int, Fraction)):
            raise GeometryError(f"not an int or a Fraction: {v!r}")
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


@dataclass(frozen=True)
class Point:
    """A point of E^d with exact rational coordinates, stored as ``hom``:
    the coordinate numerators over their lcm denominator, then that
    denominator (a primitive integer vector with positive last entry)."""

    hom: tuple[int, ...]

    def __init__(self, coords: Iterable[Scalar]):
        nums, den = _scaled(coords)
        object.__setattr__(self, "hom", (*nums, den))

    @classmethod
    def from_hom(cls, hom: Sequence[int]) -> "Point":
        """The point of a primitive integer ``hom`` (last entry positive)."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "hom", tuple(hom))
        return pt

    @property
    def dim(self) -> int:
        return len(self.hom) - 1

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.hom[-1]
        return tuple(Fraction(v, den) for v in self.hom[:-1])

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def serialize(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)

    @classmethod
    def parse(cls, text: str, ambient_dim: int | None = None) -> "Point":
        parts = text.split(",")
        if any(not p.strip() for p in parts):
            raise GeometryError(f"bad point {text!r}")
        pt = cls(parse_rational(p) for p in parts)
        if ambient_dim is not None and pt.dim != ambient_dim:
            raise GeometryError(
                f"dimension mismatch: point {text!r} has {pt.dim} coords, expected {ambient_dim}"
            )
        return pt


def common_dim(points: Sequence[Point]) -> int:
    """The common dimension of a nonempty point list."""
    if not points:
        raise GeometryError("empty hull")
    d = points[0].dim
    for p in points:
        if p.dim != d:
            raise GeometryError("dimension mismatch: points of different ambient dimension")
    return d


Basis = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _primitive(row: Sequence[int], pc: int) -> tuple[int, ...]:
    """The row divided by its content, signed so that entry pc is positive."""
    g = gcd(*row)
    if row[pc] < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([v // g for v in row])


def extend_rref(basis: Basis, row: Sequence[int]) -> Basis | None:
    """The int_rref form of the row space of ``basis`` plus one row, or None
    when the row lies in that space already.

    ``basis`` is an int_rref result (rows, pivots). The row is reduced
    against each basis row (they are zero in each other's pivot columns, so
    one fraction-free step per row clears its pivot); what remains is zero
    exactly when the row is dependent. Otherwise it becomes the basis row of
    its first nonzero column, that column is cleared from the other rows,
    and every row touched is scaled back to a primitive integer vector with
    positive pivot. Subsets sharing a prefix can thus share its elimination.
    """
    rows, pivots = basis
    v = row
    for b, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            p = b[pc]
            v = [x * p - f * y for x, y in zip(v, b)]
    for c, x in enumerate(v):
        if x:
            break
    else:
        return None
    v = _primitive(v, c)
    pv = v[c]
    out = [
        _primitive([x * pv - f * y for x, y in zip(b, v)], pc) if (f := b[c]) else b
        for b, pc in zip(rows, pivots)
    ]
    at = bisect_left(pivots, c)
    out.insert(at, v)
    return tuple(out), (*pivots[:at], c, *pivots[at:])


def int_rref(rows: Sequence[Sequence[int]]) -> Basis:
    """Canonical primitive-integer form of the row space of an integer matrix.

    The rows are the rational RREF rows each scaled to a primitive integer
    vector with positive pivot, which is likewise unique per row space but
    needs no Fraction arithmetic; the second entry is the pivot columns.
    This is the fold of ``extend_rref`` over the rows.
    """
    basis: Basis = ((), ())
    for row in rows:
        basis = extend_rref(basis, row) or basis
    return basis


def nullspace_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> list:
    """Integer basis of {w : row·w = 0 for every row} of an int_rref basis:
    one w per free column, the pivots' lcm there and 0 at the other ones."""
    scale = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        w = [0] * ncols
        w[free] = scale
        for row, pc in zip(rows, pivots):
            w[pc] = -row[free] * (scale // row[pc])
        out.append(w)
    return out


def rowspace_constraints(d: int, rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> tuple:
    """Constraint rows [a | b] of the flat whose homogeneous points span the
    row space given in int_rref form: a·x = b on it iff (a, -b) kills it."""
    return tuple((*w[:d], -w[d]) for w in nullspace_rows(rows, pivots, d + 1))


@dataclass(frozen=True)
class Flat:
    """An affine subspace of E^d as a canonical constraint system.

    ``rows`` is the int_rref form of the augmented matrix [A | b] of a
    consistent system A·x = b whose solution set is the flat; the
    constructor takes rows of ints or Fractions and scales each to
    integers. Because the row space of [A | b] is exactly the space of
    affine functionals vanishing on the flat, two Flats are equal iff their
    rows are identical. ``dim`` ranges over 0..d; d (no constraints) only
    occurs as the hull of a full-dimensional point set and is filtered out
    by every enumeration that wants proper flats.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        if not all(type(v) is int for row in rows for v in row):
            rows = [_scaled(row)[0] for row in rows]
        canon, pivots = int_rref(rows)
        if self.ambient_dim in pivots:
            raise GeometryError("inconsistent constraint system (empty flat)")
        object.__setattr__(self, "rows", canon)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def rank(self) -> int:
        return self.dim + 1

    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.rows)

    def contains(self, p: Point) -> bool:
        if p.dim != self.ambient_dim:
            raise GeometryError(
                f"dimension mismatch: point in E^{p.dim}, flat in E^{self.ambient_dim}"
            )
        *num, den = p.hom
        return all(sum(map(mul, row, num)) == row[-1] * den for row in self.rows)

    def serialize_rows(self) -> list[list[str]]:
        """The rational RREF rows: each row divided by its pivot."""
        return [
            [format_rational(Fraction(v, row[pc])) for v in row]
            for row, pc in zip(self.rows, self._pivots())
        ]

    @classmethod
    def parse_rows(cls, ambient_dim: int, rows: Sequence[Sequence[str]]) -> "Flat":
        parsed = [[parse_rational(v) for v in row] for row in rows]
        for row in parsed:
            if len(row) != ambient_dim + 1:
                raise GeometryError(
                    f"constraint row has {len(row)} entries, expected {ambient_dim + 1}"
                )
        return cls(ambient_dim, tuple(tuple(r) for r in parsed))


def hyperplane(coeffs: Sequence[Scalar], rhs: Scalar) -> Flat:
    """The hyperplane {x : coeffs·x = rhs}; coeffs must not be all zero."""
    if not any(coeffs):
        raise GeometryError("zero normal vector")
    return Flat(len(coeffs), (tuple(coeffs) + (rhs,),))


def affine_hull(points: Sequence[Point]) -> Flat:
    """Smallest flat containing all the points."""
    d = common_dim(points)
    rows, pivots = int_rref([p.hom for p in points])
    return Flat(d, rowspace_constraints(d, rows, pivots))


def meet(f1: Flat, f2: Flat) -> Flat | None:
    """f1 ∩ f2 as a canonical Flat, or None when the intersection is empty."""
    if f1.ambient_dim != f2.ambient_dim:
        raise GeometryError("dimension mismatch: flats of different ambient dimension")
    try:
        return Flat(f1.ambient_dim, f1.rows + f2.rows)
    except GeometryError:
        return None


def affine_rank(points: Sequence[Point]) -> int:
    """Rank (dim + 1) of the hull of the points, via the homogeneous matrix."""
    if not points:
        return 0
    return len(int_rref([p.hom for p in points])[0])
