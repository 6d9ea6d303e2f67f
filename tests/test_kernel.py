import sys
from fractions import Fraction as F
from math import gcd

import pytest
import oracle
from oracle import affine_hull, meet
from conftest import point_lists, points, rationals
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats.kernel import (
    Flat,
    GeometryError,
    Point,
    affine_rank,
    extend_rref,
    format_rational,
    hyperplane,
    int_rref,
    parse_rational,
)


def test_rational_round_trip():
    for text in ["3", "-2/5", "0", "7/3"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(F(6, 4)) == "3/2"


@pytest.mark.parametrize("bad", ["", "1.5", "2/0", "1/-3", "a", "1/2/3"])
def test_rational_rejects(bad):
    with pytest.raises(GeometryError):
        parse_rational(bad)


def test_rational_past_the_digit_limit_is_a_geometry_error():
    limit = sys.get_int_max_str_digits()
    for text in ("9" * limit, f"-1/{'9' * limit}"):
        assert format_rational(parse_rational(text)) == text
    for text in ("1" * (limit + 1), f"1/{'1' * (limit + 1)}"):
        with pytest.raises(GeometryError, match=f"cannot parse .* more than {limit} digits"):
            parse_rational(text)
    for value in (10**limit, F(1, 10**limit)):
        with pytest.raises(GeometryError, match=f"cannot write .* more than {limit} digits"):
            format_rational(value)


def test_point_serialization():
    p = Point((F(1, 2), -3, 0))
    assert p.serialize() == "1/2,-3,0"
    assert Point.parse("1/2,-3,0") == p
    with pytest.raises(GeometryError):
        Point.parse("1,2", ambient_dim=3)


@pytest.mark.parametrize("bad", ["", ",", "1,,0,0", "1,2,", ",1,2", "1, ,2"])
def test_point_parse_rejects_empty_fields(bad):
    with pytest.raises(GeometryError, match="bad point"):
        Point.parse(bad)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", None])
def test_constructors_refuse_values_that_are_not_int_or_fraction(bad):
    with pytest.raises(GeometryError, match="not an int or a Fraction"):
        Point((bad, 1))
    with pytest.raises(GeometryError, match="not an int or a Fraction"):
        hyperplane((1, bad), 0)
    with pytest.raises(GeometryError, match="not an int or a Fraction"):
        hyperplane((1, 0), bad)


def test_hull_two_points_is_line():
    line = affine_hull([Point((0, 0)), Point((1, 0))])
    assert line.dim == 1
    assert line.rows == ((F(0), F(1), F(0)),)  # y = 0


def test_hull_single_point():
    flat = affine_hull([Point((0, 0, 0))])
    assert flat.dim == 0


def test_hull_coplanar_quadruple():
    # difference vectors (1,0,0), (0,1,0), (1,1,0) have rank 2 by hand
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((1, 1, 0))]
    flat = affine_hull(pts)
    assert flat.dim == 2
    assert flat.rows == ((F(0), F(0), F(1), F(0)),)  # z = 0


def test_hull_errors():
    with pytest.raises(GeometryError, match="empty hull"):
        affine_hull([])
    with pytest.raises(GeometryError, match="dimension mismatch"):
        affine_hull([Point((0, 0)), Point((0, 0, 0))])


def test_hull_ignores_duplicates():
    flat = affine_hull([Point((1, 2)), Point((1, 2)), Point((1, 2))])
    assert flat.dim == 0


def test_contains():
    z0 = hyperplane((0, 0, 1), 0)
    assert z0.contains(Point((1, 1, 0)))
    assert not z0.contains(Point((0, 0, F(1, 2))))
    diag = affine_hull([Point((0, 0, 0)), Point((1, 1, 1))])
    assert diag.contains(Point((2, 2, 2)))
    with pytest.raises(GeometryError):
        z0.contains(Point((0, 0)))


def test_meet():
    x0 = hyperplane((1, 0, 0), 0)
    y0 = hyperplane((0, 1, 0), 0)
    line = meet(x0, y0)
    assert line is not None and line.dim == 1
    assert line.contains(Point((0, 0, 5)))

    z0 = hyperplane((0, 0, 1), 0)
    z1 = hyperplane((0, 0, 1), 1)
    assert meet(z0, z1) is None

    yx = affine_hull([Point((0, 0)), Point((1, 1))])
    ymx = affine_hull([Point((0, 0)), Point((1, -1))])
    origin = meet(yx, ymx)
    assert origin is not None and origin.dim == 0
    assert origin.contains(Point((0, 0)))


def test_rank_of():
    # a flat's rank is dim + 1
    line = affine_hull([Point((0, 0, 0)), Point((1, 0, 0))])
    assert line.dim + 1 == 2
    h4 = hyperplane((1, 0, 0, 0), 3)
    assert h4.dim + 1 == 4
    assert affine_hull([Point((2, 2))]).dim + 1 == 1


def test_flat_rejects_inconsistent_system():
    with pytest.raises(GeometryError):
        Flat(2, ((F(0), F(0), F(1)),))  # 0 = 1


@given(point_lists(3, 1, 6))
@settings(max_examples=80)
def test_hull_contains_all_inputs(pts):
    hull = affine_hull(pts)
    assert all(hull.contains(p) for p in pts)


@given(point_lists(2, 1, 5), point_lists(2, 1, 5))
@settings(max_examples=60)
def test_canonicalization_idempotent(pts_a, pts_b):
    f = affine_hull(pts_a + pts_b)
    again, _ = int_rref(f.rows)
    assert again == f.rows
    assert Flat(f.ambient_dim, f.rows) == f


@given(point_lists(3, 1, 4), point_lists(3, 1, 4))
@settings(max_examples=60)
def test_meet_commutes_and_is_contained(pts_a, pts_b):
    f1, f2 = affine_hull(pts_a), affine_hull(pts_b)
    m12, m21 = meet(f1, f2), meet(f2, f1)
    assert m12 == m21
    if m12 is not None:
        assert m12.dim <= min(f1.dim, f2.dim)
        probe = oracle.any_point(m12)
        assert f1.contains(probe) and f2.contains(probe)


@given(point_lists(3, 1, 5), points(3))
@settings(max_examples=60)
def test_hull_monotone_in_points(pts, extra):
    assert affine_hull(pts + [extra]).dim >= affine_hull(pts).dim


@given(point_lists(4, 1, 6))
@settings(max_examples=60)
def test_affine_rank_matches_hull(pts):
    assert affine_rank(pts) == affine_hull(pts).dim + 1


def _formatted(rows):
    return [[format_rational(v) for v in row] for row in rows]


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(point_lists(d, 1, 5), point_lists(d, 1, 5))
    )
)
@settings(max_examples=150)
def test_integer_kernel_matches_fraction_oracle(pair):
    pts_a, pts_b = pair
    d = pts_a[0].dim
    f1, f2 = affine_hull(pts_a), affine_hull(pts_b)
    rows1, rows2 = oracle.hull_rows(pts_a), oracle.hull_rows(pts_b)
    assert f1.serialize_rows() == _formatted(rows1)
    assert f2.serialize_rows() == _formatted(rows2)
    expected = oracle.meet_rows(rows1, rows2, d)
    got = meet(f1, f2)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.serialize_rows() == _formatted(expected)
    assert affine_rank(pts_a + pts_b) == oracle.affine_rank(pts_a + pts_b)
    assert [f1.contains(p) for p in pts_b] == [oracle.contains(rows1, p) for p in pts_b]


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            point_lists(d, 1, 5),
            st.lists(rationals(), min_size=d, max_size=d).filter(any),
            rationals(),
            points(d),
        )
    )
)
@settings(max_examples=150)
def test_constraint_rows_round_trip_at_the_edges(case):
    # the rows [a | b] of a·x = b are read or written only by hyperplane,
    # Flat.parse_rows and Flat.serialize_rows; each is checked against a·x = b
    # itself, so a sign slip at any one of them fails here
    pts, a, b, p = case
    d = len(a)
    h = hyperplane(a, b)
    for flat in (affine_hull(pts), h):
        assert Flat.parse_rows(d, flat.serialize_rows()) == flat
    assert h == Flat.parse_rows(d, [[format_rational(v) for v in (*a, b)]])
    pc = next(i for i, v in enumerate(a) if v)
    assert h.serialize_rows() == [[format_rational(v / a[pc]) for v in (*a, b)]]
    dot = sum(x * y for x, y in zip(a, p.coords))
    on = list(p.coords)
    on[pc] += (b - dot) / a[pc]
    assert h.contains(p) == (dot == b) and h.contains(Point(on))


@st.composite
def integer_matrices(draw):
    """Integer rows of one width, with zero rows, repeats and integer
    combinations of earlier rows mixed in."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4) | st.integers(-10**9, 10**9)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@given(integer_matrices())
@settings(max_examples=300)
def test_extend_rref_fold_matches_fraction_oracle(rows):
    basis = ((), ())
    for n, row in enumerate(rows, start=1):
        grown = extend_rref(basis, row)
        rank = len(oracle.rref(rows[:n])[0])
        assert (grown is None) == (rank == len(basis[0]))
        basis = grown or basis
        assert len(basis[0]) == rank
    assert int_rref(rows) == basis
    red, pivots = oracle.rref(rows)
    assert basis[1] == pivots
    for got, want, pc in zip(basis[0], red, pivots):
        assert got[pc] > 0 and gcd(*got) == 1
        assert [F(v, got[pc]) for v in got] == list(want)
