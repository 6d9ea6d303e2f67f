"""Exact affine geometry over the integers: points, canonical flats, ranks.

A point of E^d is stored as its primitive homogeneous integer vector
``hom``: the coordinate numerators over their lcm denominator, then that
denominator. A flat is stored as the primitive-integer row echelon form that
``int_rref`` gives for its homogeneous functionals, the rows w with
w·hom = 0 for every point on it: each row is the rational RREF row scaled to
a primitive integer vector with a positive pivot. A constraint a·x = b is
the functional (a, -b); only ``hyperplane``, ``Flat.parse_rows`` and
``Flat.serialize_rows`` read or write that [A | b] form. Both stored forms
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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class GeometryError(ValueError):
    """The package's one error type: malformed input (a bad rational, point
    or dimension), refusals (a parameter out of range, a run over the caps)
    and generator failures (no admissible instance within the attempts)."""


Scalar = int | Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _over_digit_limit(action: str) -> GeometryError:
    limit = sys.get_int_max_str_digits()  # Python caps int <-> str, quadratic in the digits
    return GeometryError(f"cannot {action} a rational with a part of more than {limit} digits")


def parse_rational(text: str) -> Fraction:
    """Parse the serialization "p" or "p/q" (q positive) into a Fraction."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise GeometryError(f"bad rational {text!r}")
    try:
        return Fraction(s)
    except ValueError:  # the only one a matched string raises: the digit limit
        raise _over_digit_limit("parse") from None


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q"; inverse of parse_rational."""
    try:
        return str(Fraction(value))
    except ValueError:
        raise _over_digit_limit("write") from None


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


def nullspace_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> tuple:
    """Primitive integer basis of {w : row·w = 0 for every row} of rows that
    are zero at each other's pivots (an int_rref basis, or rows reduced from
    the right): one w per free column, positive there and 0 at the other
    free columns. Of a point basis it is the flat's functionals reduced from
    the right (each row's last nonzero entry is its free column); of such
    functionals it is the point basis, in ``int_rref`` form."""
    scale = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        w = [0] * ncols
        w[free] = scale
        for row, pc in zip(rows, pivots):
            w[pc] = -row[free] * (scale // row[pc])
        g = gcd(*w)
        out.append(tuple(w) if g == 1 else tuple([x // g for x in w]))
    return tuple(out)


@dataclass(frozen=True)
class Flat:
    """An affine subspace of E^d as its canonical homogeneous functionals.

    ``rows`` is the int_rref form of the functionals w with w·hom = 0 for
    every point on the flat, which span all such functionals; the
    constructor takes rows of ints or Fractions and scales each to
    integers, and refuses rows that no point satisfies. So two Flats are
    equal iff their rows are identical. ``dim`` ranges over 0..d; d (no
    functionals) only occurs as the hull of a full-dimensional point set
    and is filtered out by every enumeration that wants proper flats.
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

    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.rows)

    def contains(self, p: Point) -> bool:
        if p.dim != self.ambient_dim:
            raise GeometryError(
                f"dimension mismatch: point in E^{p.dim}, flat in E^{self.ambient_dim}"
            )
        hom = p.hom
        return not any(sum(map(mul, row, hom)) for row in self.rows)

    def serialize_rows(self) -> list[list[str]]:
        """The constraint rows [a | b] of a·x = b: each functional (a, -b)
        divided by its pivot, the rational RREF rows of [A | b]."""
        return [
            [format_rational(Fraction(v, row[pc])) for v in row[:-1]]
            + [format_rational(Fraction(-row[-1], row[pc]))]
            for row, pc in zip(self.rows, self._pivots())
        ]

    @classmethod
    def parse_rows(cls, ambient_dim: int, rows: Sequence[Sequence[str]]) -> "Flat":
        """The flat of the constraint rows [a | b] that serialize_rows writes."""
        parsed = [[parse_rational(v) for v in row] for row in rows]
        for row in parsed:
            if len(row) != ambient_dim + 1:
                raise GeometryError(
                    f"constraint row has {len(row)} entries, expected {ambient_dim + 1}"
                )
        return cls(ambient_dim, tuple((*row[:-1], -row[-1]) for row in parsed))


def hyperplane(coeffs: Sequence[Scalar], rhs: Scalar) -> Flat:
    """The hyperplane {x : coeffs·x = rhs}; coeffs must not be all zero."""
    if not any(coeffs):
        raise GeometryError("zero normal vector")
    b = -rhs if isinstance(rhs, (int, Fraction)) else rhs  # the constructor refuses the rest
    return Flat(len(coeffs), ((*coeffs, b),))


def affine_rank(points: Sequence[Point]) -> int:
    """Rank (dim + 1) of the hull of the points, via the homogeneous matrix."""
    if not points:
        return 0
    return len(int_rref([p.hom for p in points])[0])
