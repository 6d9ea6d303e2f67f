"""Bichromatic point-hyperplane incidence counting and the bound envelope.

Incidences are counted by parallel class, exactly. A hyperplane's canonical
functional (a, c) (a·x = -c on it) is primitive, so with g = gcd(a) its
primitive normal a' = a/g and its offset -c/g (already in lowest terms,
since gcd(g, c) = 1) name it uniquely: hyperplanes with one normal a' form a class, told apart by offset.
A vertex with homogeneous vector (num, den) lies on a'·x = beta exactly when
a'·num / den = beta, so one dot product per vertex per class, reduced to
lowest terms, is looked up in the class's offset counts. The cost is
classes × vertices + hyperplanes instead of vertices × hyperplanes, and every
count equals the all-pairs predicate scan (kept as the oracle in the tests).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Sequence

from .formulas import iroot
from .kernel import Flat, GeometryError, Point
from .spans import admit


@dataclass(frozen=True)
class BiArrangement:
    """Red and blue hyperplanes in E^d plus a chosen vertex subset."""

    d: int
    red: tuple[Flat, ...]
    blue: tuple[Flat, ...]
    vertices: tuple[Point, ...]

    @property
    def k(self) -> int:
        return len(self.red)

    @property
    def n(self) -> int:
        return len(self.red) + len(self.blue)

    @property
    def m(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "red": [h.serialize_rows() for h in self.red],
            "blue": [h.serialize_rows() for h in self.blue],
            "vertices": [p.serialize() for p in self.vertices],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BiArrangement":
        """The arrangement of a JSON document; an error in a list or one of
        its entries names it: ``red[i]: bad rational '1/0'``."""
        where, parsed = "", {"red": [], "blue": [], "vertices": []}
        try:
            d = data["d"]
            if type(d) is not int or d < 1:
                raise GeometryError(
                    f"malformed arrangement: d must be a positive integer, got {d!r}"
                )
            for name, out in parsed.items():
                where = f"{name}: "
                for i, entry in enumerate(data[name]):
                    where = f"{name}[{i}]: "
                    out.append(Point.parse(entry, d) if name == "vertices" else Flat.parse_rows(d, entry))
        except GeometryError as exc:
            raise GeometryError(f"{where}{exc}") from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise GeometryError(f"malformed arrangement: {where}{exc!r}") from None
        return cls(d, *map(tuple, parsed.values()))


@dataclass(frozen=True)
class CountReport:
    red_incidences: int
    total_incidences: int
    per_point_red_degree: tuple[int, ...]
    red_incident_vertex_count: int

    def to_json_dict(self) -> dict:
        return {
            "red_incidences": self.red_incidences,
            "total_incidences": self.total_incidences,
            "per_point_red_degree": list(self.per_point_red_degree),
            "red_incident_vertex_count": self.red_incident_vertex_count,
        }


def arrangement_cost(hyperplanes: int, d: int, vertices: int, classes: int) -> tuple[int, int]:
    """Estimated (bytes, entry operations) of an arrangement in E^d: 160 bytes an
    entry (objects, strings, ``construct``'s JSON), 1,024 more a hyperplane; an
    operation an entry, and d + 1 per vertex per class counted (0: no count)."""
    entries = (hyperplanes + vertices) * (d + 1)
    return 160 * entries + 1024 * hyperplanes, entries + classes * vertices * (d + 1)


def check_incidences(a: BiArrangement) -> None:
    """Raise unless counting the arrangement's incidences is admitted, at a
    parallel class per hyperplane at most."""
    admit("incidences", *arrangement_cost(a.n, a.d, a.m, a.n))


def _check_arrangement(a: BiArrangement) -> None:
    """Raise unless every red and blue entry is a hyperplane of E^d and every
    vertex a point of it, and no entry repeats one of its list or a red one."""
    first: dict[tuple, tuple[str, int]] = {}  # rows or hom -> its first entry
    for name, group in (("red", a.red), ("blue", a.blue), ("vertices", a.vertices)):
        for i, x in enumerate(group):
            if name == "vertices":
                if x.dim != a.d:
                    raise GeometryError(f"vertex {x.serialize()} is not in E^{a.d}")
                key = x.hom
            elif x.ambient_dim != a.d or x.dim != a.d - 1:
                raise GeometryError(f"{name}[{i}]: not a hyperplane of E^{a.d} (dim {x.dim})")
            else:
                key = x.rows
            other, j = first.setdefault(key, (name, i))
            if other != name:
                raise GeometryError(f"red[{j}] and blue[{i}] are the same hyperplane")
            if j != i:
                raise GeometryError(f"{name}[{i}]: repeats {name}[{j}]")


Normal = tuple[int, ...]
Offset = tuple[int, int]


def hyperplane_class(h: Flat) -> tuple[Normal, Offset]:
    """The primitive normal a' and the offset (num, den) of a hyperplane
    a'·x = num/den, in lowest terms with den > 0; equal exactly for equal
    hyperplanes."""
    *normal, c = h.rows[0]
    g = gcd(*normal)
    return tuple(v // g for v in normal), (-c, g)


def vertex_offset(normal: Normal, hom: Sequence[int]) -> Offset:
    """The offset (num, den) in lowest terms of the hyperplane with this
    primitive normal through the point with homogeneous vector ``hom``."""
    *num, den = hom
    s = sum(map(mul, normal, num))
    g = gcd(s, den)
    return s // g, den // g


def count_bichromatic(a: BiArrangement) -> CountReport:
    """Exact incidence counts between the vertex set and the red (and all)
    hyperplanes, by parallel class.

    Each class (primitive normal a') keeps a Counter of the red offsets and
    one of the blue. A vertex's offset under a' is a'·num / den in lowest
    terms, and the hyperplanes of the class through the vertex are exactly
    those with that offset, so two lookups per class give its red and blue
    degrees. Equal to testing every vertex against every hyperplane.
    """
    _check_arrangement(a)
    classes: dict[Normal, tuple[Counter, Counter]] = {}
    for color, group in enumerate((a.red, a.blue)):
        for h in group:
            normal, offset = hyperplane_class(h)
            classes.setdefault(normal, (Counter(), Counter()))[color][offset] += 1
    red_degrees = []
    total = 0
    for v in a.vertices:
        red = blue = 0
        for normal, (reds, blues) in classes.items():
            offset = vertex_offset(normal, v.hom)
            red += reds.get(offset, 0)
            blue += blues.get(offset, 0)
        red_degrees.append(red)
        total += red + blue
    return CountReport(
        red_incidences=sum(red_degrees),
        total_incidences=total,
        per_point_red_degree=tuple(red_degrees),
        red_incident_vertex_count=sum(1 for deg in red_degrees if deg > 0),
    )


@dataclass(frozen=True)
class EnvelopeTerms:
    """The three comparison terms m^{2/3}k^{2/3}n^{(d-2)/3}, k·n^{d-2}, m.

    Only the first term can be irrational; it is exact whenever the cube
    m^2 k^2 n^{d-2} is perfect and a double-precision cube root otherwise.
    Used for ratio and envelope checks only, never as a claimed count.
    """

    term_mixed: float
    term_kn: int
    term_m: int

    @property
    def total(self) -> float:
        return self.term_mixed + self.term_kn + self.term_m

    @property
    def dominant(self) -> str:
        terms = {"mixed": self.term_mixed, "kn": float(self.term_kn), "m": float(self.term_m)}
        return max(terms, key=lambda name: (terms[name], name))

    def to_json_dict(self) -> dict:
        return {
            "term_mixed": self.term_mixed,
            "term_kn": self.term_kn,
            "term_m": self.term_m,
            "total": self.total,
            "dominant": self.dominant,
        }


def bound_envelope(m: int, k: int, n: int, d: int) -> EnvelopeTerms:
    """Evaluate the incidence bound envelope at (m, k, n, d); raises
    GeometryError when a term or their sum does not fit a float."""
    if m < 1 or k < 1 or n < 1:
        raise GeometryError("m, k, n must be >= 1")
    if d < 2:
        raise GeometryError("d must be >= 2")
    if k > n:
        raise GeometryError(f"k = {k} exceeds n = {n}")
    cube = m * m * k * k * n ** (d - 2)
    root = iroot(cube, 3)
    term_kn = k * n ** (d - 2)
    try:
        mixed = float(root) if root**3 == cube else math.exp(math.log(cube) / 3.0)
        fits = math.isfinite(mixed + float(term_kn) + float(m))
    except OverflowError:
        fits = False
    if not fits:
        raise GeometryError(f"envelope terms at (m={m}, k={k}, n={n}, d={d}) overflow a float")
    return EnvelopeTerms(term_mixed=mixed, term_kn=term_kn, term_m=m)
