"""Bichromatic point-hyperplane incidence counting and the bound envelope.

The counter is the exact all-pairs predicate scan; it is the reference
semantics, not an approximation, so every optimized caller must agree with
it bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .formulas import iroot
from .kernel import Flat, GeometryError, Point
from .spans import arrangement_vertices


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
        try:
            d = int(data["d"])
            red = tuple(Flat.parse_rows(d, rows) for rows in data["red"])
            blue = tuple(Flat.parse_rows(d, rows) for rows in data["blue"])
            vertices = tuple(Point.parse(s, d) for s in data["vertices"])
        except GeometryError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise GeometryError(f"malformed arrangement: {exc!r}") from None
        return cls(d, red, blue, vertices)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


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


def _check_arrangement(a: BiArrangement) -> None:
    for group, name in ((a.red, "red"), (a.blue, "blue")):
        for h in group:
            if h.ambient_dim != a.d or h.dim != a.d - 1:
                raise GeometryError(
                    f"{name} entry is not a hyperplane of E^{a.d} (dim {h.dim})"
                )
    red_rows = {h.rows: i for i, h in enumerate(a.red)}
    for j, h in enumerate(a.blue):
        if h.rows in red_rows:
            raise GeometryError(
                f"red[{red_rows[h.rows]}] and blue[{j}] are the same hyperplane"
            )
    for v in a.vertices:
        if v.dim != a.d:
            raise GeometryError(f"vertex {v.serialize()} is not in E^{a.d}")


def count_bichromatic(a: BiArrangement) -> CountReport:
    """Exact incidence counts between the vertex set and the red (and all)
    hyperplanes, by direct predicate evaluation."""
    _check_arrangement(a)
    red_degrees = []
    total = 0
    for v in a.vertices:
        deg = sum(1 for h in a.red if h.contains(v))
        total += deg + sum(1 for h in a.blue if h.contains(v))
        red_degrees.append(deg)
    return CountReport(
        red_incidences=sum(red_degrees),
        total_incidences=total,
        per_point_red_degree=tuple(red_degrees),
        red_incident_vertex_count=sum(1 for deg in red_degrees if deg > 0),
    )


def validate_vertices(a: BiArrangement) -> tuple[bool, bool]:
    """(every listed vertex is a true arrangement vertex,
    every listed vertex touches at least one red hyperplane)."""
    _check_arrangement(a)
    true_vertices = set(arrangement_vertices(a.red + a.blue))
    all_true = all(v in true_vertices for v in a.vertices)
    all_red = all(any(h.contains(v) for h in a.red) for v in a.vertices)
    return all_true, all_red


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
