from fractions import Fraction as F
from itertools import combinations

import oracle
import pytest
from conftest import point_lists
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import (
    GeometryError,
    Point,
    affine_hull,
    arrangement_vertices,
    hyperplane,
    is_r_degenerate,
    max_collinear,
    max_cover_plane_or_two_lines,
    max_degenerate_subset,
    meet,
    rank_sum_cover,
    spanned_codim2_count,
    spanned_flats,
    spanned_hyperplane_count,
)
from spanflats.spans import _candidate_flats, read_point_file, write_point_file


# --- independent oracles ----------------------------------------------------


def oracle_spanned_flats(points, f):
    """Quadratic all-pairs dedup: flats compared by mutual meet dimension,
    never by canonical form."""
    unique = []
    for p in points:
        if p not in unique:
            unique.append(p)
    flats = []
    for combo in combinations(unique, f + 1):
        hull = affine_hull(combo)
        if hull.dim != f:
            continue
        for known in flats:
            common = meet(known, hull)
            if common is not None and common.dim == f:
                break
        else:
            flats.append(hull)
    return flats


def oracle_best_plane_or_pair(points):
    """Direct brute force over triples (planes) and line pairs."""
    unique = list(dict.fromkeys(points))
    best_plane = 0
    hull = affine_hull(unique)
    if hull.dim <= 2:
        best_plane = len(points)
    for trio in combinations(unique, 3):
        plane = affine_hull(trio)
        if plane.dim == 2:
            best_plane = max(best_plane, sum(1 for p in points if plane.contains(p)))
    lines = oracle_spanned_flats(points, 1)
    best_any = best_plane
    best_skew = best_plane
    for l1, l2 in combinations(lines, 2):
        covered = sum(1 for p in points if l1.contains(p) or l2.contains(p))
        best_any = max(best_any, covered)
        disjoint = meet(l1, l2) is None
        from spanflats import join

        if disjoint and join(l1, l2).dim == 3:
            best_skew = max(best_skew, covered)
    return best_skew, best_any


# --- spanned_flats ----------------------------------------------------------


def test_four_generic_points_span_four_planes():
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((0, 0, 1))]
    assert spanned_flats(pts, 2).count == 4


def test_collinear_points_span_no_plane():
    pts = [Point((t, 0, 0)) for t in range(4)]
    assert spanned_flats(pts, 2).count == 0


def test_planar_example_four_lines():
    pts = [Point((0, 0)), Point((1, 0)), Point((2, 0)), Point((0, 1))]
    result = spanned_flats(pts, 1)
    assert result.count == 4
    assert result.count == len(oracle_spanned_flats(pts, 1))


def test_five_generic_points_span_ten_planes():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    assert spanned_hyperplane_count(pts) == 10


def test_spanned_flats_range_check():
    pts = [Point((0, 0)), Point((1, 0))]
    with pytest.raises(GeometryError):
        spanned_flats(pts, 2)
    with pytest.raises(GeometryError):
        spanned_flats(pts, -1)


def test_empty_counts_are_empty_hull_errors():
    for count in (spanned_hyperplane_count, spanned_codim2_count):
        with pytest.raises(GeometryError, match="empty hull"):
            count([])


def test_spanned_flats_attaches_points():
    pts = [Point((0, 0)), Point((1, 0)), Point((2, 0)), Point((0, 1))]
    result = spanned_flats(pts, 1)
    for flat, idxs in zip(result.flats, result.per_flat_points):
        assert len(idxs) >= 2
        assert all(flat.contains(pts[i]) for i in idxs)
        assert affine_hull([pts[i] for i in idxs]) == flat


def test_spanned_set_export_shape():
    pts = [Point((0, 0)), Point((1, 0)), Point((0, 1))]
    doc = spanned_flats(pts, 1).to_json_dict()
    assert doc["f"] == 1 and doc["count"] == 3
    assert {"constraints", "point_indices"} <= set(doc["flats"][0])


@given(point_lists(3, 1, 7, lo=-3, hi=3, max_den=2))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_planes(pts):
    mine = spanned_flats(pts, 2)
    other = oracle_spanned_flats(pts, 2)
    assert mine.count == len(other)


@given(point_lists(2, 1, 8, lo=-3, hi=3, max_den=2))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_lines(pts):
    mine = spanned_flats(pts, 1)
    other = oracle_spanned_flats(pts, 1)
    assert mine.count == len(other)


@given(
    point_lists(3, 1, 6, lo=-2, hi=2, max_den=2),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_incidences_match_attach_oracle(pts, f, data):
    # repeat some points so the indices must cover every duplicate
    pts = pts + data.draw(st.lists(st.sampled_from(pts), max_size=3))
    perm = data.draw(st.permutations(pts))
    for points in (pts, perm):
        mine = spanned_flats(points, f)
        expected = oracle.attach_incidences(mine.flats, points)
        assert mine.per_flat_points == expected
        assert mine.masks == tuple(sum(1 << i for i in idxs) for idxs in expected)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            point_lists(d, 1, 7, lo=-2, hi=2, max_den=2), st.integers(0, d - 1)
        )
    ),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_prefix_walk_matches_subset_scan_oracle(case, data):
    pts, f = case
    pts = pts + data.draw(st.lists(st.sampled_from(pts), max_size=3))
    assert spanned_flats(pts, f) == oracle.subset_scan(pts, f)


@given(
    st.integers(1, 4).flatmap(lambda d: point_lists(d, 1, 6, lo=-2, hi=2, max_den=3)),
    st.booleans(),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_candidate_masks_match_contains_oracle(pts, point_flats, data):
    pts = pts + data.draw(st.lists(st.sampled_from(pts), max_size=3))
    candidates = _candidate_flats(pts, range(1, pts[0].dim), point_flats)
    flats = [flat for flat, _, _ in candidates]
    expected = oracle.attach_incidences(flats, pts)
    assert [mask for _, _, mask in candidates] == [
        sum(1 << i for i in idxs) for idxs in expected
    ]


@given(point_lists(3, 2, 6, lo=-3, hi=3, max_den=2))
@settings(max_examples=40, deadline=None)
def test_hyperplane_count_monotone(pts):
    base = spanned_hyperplane_count(pts[:-1]) if len(pts) > 2 else 0
    assert spanned_hyperplane_count(pts) >= base


@given(point_lists(3, 1, 6, lo=-3, hi=3, max_den=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_every_spanned_flat_is_hull_of_its_points(pts, f):
    result = spanned_flats(pts, f)
    for flat, idxs in zip(result.flats, result.per_flat_points):
        assert len(idxs) >= f + 1
        assert all(flat.contains(pts[i]) for i in idxs)
        assert affine_hull([pts[i] for i in idxs]) == flat


@given(point_lists(3, 1, 6, lo=-2, hi=2, max_den=1), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_r_degenerate_implies_next_r(pts, r):
    if is_r_degenerate(pts, r)[0]:
        assert is_r_degenerate(pts, r + 1)[0]


# --- arrangement vertices ---------------------------------------------------


def test_axis_planes_meet_at_origin():
    hyps = [hyperplane((1, 0, 0), 0), hyperplane((0, 1, 0), 0), hyperplane((0, 0, 1), 0)]
    assert [v.serialize() for v in arrangement_vertices(hyps)] == ["0,0,0"]


def test_three_generic_lines_three_vertices():
    hyps = [hyperplane((0, 1), 0), hyperplane((1, 0), 0), hyperplane((1, 1), 2)]
    assert len(arrangement_vertices(hyps)) == 3


def test_four_line_vertices_by_hand():
    hyps = [
        hyperplane((0, 1), 0),   # y = 0
        hyperplane((0, 1), 1),   # y = 1
        hyperplane((-1, 1), 0),  # y = x
        hyperplane((-1, 1), 1),  # y = x + 1
    ]
    got = sorted(v.serialize() for v in arrangement_vertices(hyps))
    assert got == ["-1,0", "0,0", "0,1", "1,1"]


def test_arrangement_vertices_rejects_non_hyperplane():
    line = affine_hull([Point((0, 0, 0)), Point((1, 0, 0))])
    with pytest.raises(GeometryError, match="non-hyperplane"):
        arrangement_vertices([line])


# --- plane / two-line covers ------------------------------------------------


def test_two_skew_lines_cover_everything():
    pts = [Point((t, 0, 0)) for t in range(3)] + [Point((0, t, 1)) for t in range(3)]
    cover = max_cover_plane_or_two_lines(pts)
    assert cover.covered_count == 6
    assert cover.dims_sum == 2


def test_five_generic_points_cover_four():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    skew_oracle, any_oracle = oracle_best_plane_or_pair(pts)
    cover = max_cover_plane_or_two_lines(pts)
    assert cover.covered_count == skew_oracle == any_oracle == 4


def test_coplanar_points_cover_all():
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((3, 5, 0))]
    assert max_cover_plane_or_two_lines(pts).covered_count == 4


def test_tiny_inputs_trivial_certificate():
    assert max_cover_plane_or_two_lines([]).covered_count == 0
    one = max_cover_plane_or_two_lines([Point((1, 2, 3))])
    assert one.covered_count == 1 and one.dims_sum == 1


@st.composite
def cover_inputs(draw):
    """E^3 point lists mixing generic points, points on the plane z = 0 and
    points on two skew lines, with some points repeated."""
    c = st.integers(-2, 2)
    t = st.integers(-3, 3)
    parts = (
        st.tuples(c, c, c),
        st.tuples(c, c, st.just(0)),
        t.map(lambda v: (v, 2 * v, -v)),
        t.map(lambda v: (1, v, 3)),
    )
    coords = [xyz for part in parts for xyz in draw(st.lists(part, max_size=4))]
    coords = coords[:8] or [draw(parts[0])]
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return [Point(xyz) for xyz in coords]


@given(st.one_of(point_lists(3, 2, 7, lo=-2, hi=2, max_den=1), cover_inputs()))
@settings(max_examples=80, deadline=None)
def test_cover_matches_oracle(pts):
    skew_oracle, any_oracle = oracle_best_plane_or_pair(pts)
    cover = max_cover_plane_or_two_lines(pts)
    assert cover.covered_count == skew_oracle
    assert cover.covered_count == any_oracle


@given(cover_inputs())
@settings(max_examples=80, deadline=None)
def test_cover_certificate_is_the_ranked_pair_oracle_skew_and_any_pair(pts):
    # two coplanar lines lie on a spanned plane, so the best pair is skew
    skew_cert, any_cert = oracle.ranked_pair_cover(pts)
    assert skew_cert == any_cert == max_cover_plane_or_two_lines(pts)


# --- degeneracy -------------------------------------------------------------


@st.composite
def degeneracy_inputs(draw):
    d = draw(st.integers(2, 4))
    c = st.integers(-2, 2)
    coords = draw(st.lists(st.tuples(*[c] * d), min_size=1, max_size=7))
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return [Point(xs) for xs in coords], draw(st.integers(1, d + 1))


@given(degeneracy_inputs())
@settings(max_examples=100, deadline=None)
def test_r_degenerate_iff_max_degenerate_subset_covers_all(case):
    # both search the same flats at cost = dimension, and both are exact
    pts, r = case
    assert is_r_degenerate(pts, r)[0] == (max_degenerate_subset(pts, r - 1) == len(pts))


@st.composite
def cover_search_inputs(draw):
    """Point lists in E^2..E^4 with coordinates in -1..1, so that rich lines
    and planes are common: up to six drawn points and two repeats."""
    d = draw(st.integers(2, 4))
    c = st.integers(-1, 1)
    coords = draw(st.lists(st.tuples(*[c] * d), min_size=1, max_size=6))
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return [Point(xs) for xs in coords]


def assert_cover(flats, candidates, pts, cost_of, budget):
    """The flats are candidates, their costs fit the budget and they hold
    every point."""
    dims = {flat: dim for flat, dim, _ in candidates}
    assert all(flat in dims for flat in flats)
    assert sum(cost_of(dims[flat]) for flat in flats) <= budget
    assert all(any(flat.contains(p) for flat in flats) for p in pts)


@given(cover_search_inputs())
@settings(max_examples=150, deadline=None)
def test_cover_searches_match_brute_force_oracle(pts):
    d, n = pts[0].dim, len(pts)
    lines_up = _candidate_flats(pts, range(1, d), include_point_flats=False)
    with_points = _candidate_flats(pts, range(1, d), include_point_flats=True)
    by_dim, by_rank = (lambda dim: dim), (lambda dim: dim + 1)
    best = oracle.best_cover_counts(lines_up, d + 1, by_dim)
    best_with_points = oracle.best_cover_counts(with_points, d + 1, by_rank)
    for budget in range(d + 2):
        assert max_degenerate_subset(pts, budget) == best[budget]
        ok, cert = is_r_degenerate(pts, budget + 1)
        assert ok == (best[budget] == n)
        if ok:
            assert cert.covered_count == n
            assert cert.dims_sum == sum(dim for f, dim, _ in lines_up if f in cert.flats)
            assert_cover(cert.flats, lines_up, pts, by_dim, budget)
        cover = rank_sum_cover(pts, budget)
        assert (cover is not None) == (best_with_points[budget] == n)
        if cover is not None:
            assert_cover(cover, with_points, pts, by_rank, budget)


def test_coplanar_set_is_3_degenerate():
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((1, 1, 0))]
    ok, cert = is_r_degenerate(pts, 3)
    assert ok and cert is not None and cert.dims_sum < 3
    assert cert.covered_count == 4


def test_two_skew_lines_are_3_degenerate():
    pts = [Point((t, 0, 0)) for t in range(3)] + [Point((0, t, 1)) for t in range(3)]
    ok, cert = is_r_degenerate(pts, 3)
    assert ok and cert.dims_sum == 2


def test_five_generic_points_not_3_degenerate():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    ok, cert = is_r_degenerate(pts, 3)
    assert not ok and cert is None


def test_r_degenerate_monotone_in_r():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    results = [is_r_degenerate(pts, r)[0] for r in range(1, 6)]
    assert results == sorted(results)  # False ... True, never back


def test_rank_sum_cover_finds_cheap_cover():
    pts = [Point((t, 0, 0)) for t in range(4)]
    cover = rank_sum_cover(pts, 2)  # one line, rank 2
    assert cover is not None and len(cover) == 1


def test_max_degenerate_subset():
    pts = [Point((t, 0, 0)) for t in range(4)] + [Point((1, 2, 3)), Point((3, 1, 2))]
    # budget 1: a single line takes the 4 collinear points
    assert max_degenerate_subset(pts, 1) == 4
    # budget 2: the collinear line plus a line through the two leftovers
    assert max_degenerate_subset(pts, 2) == 6


# --- collinearity -----------------------------------------------------------


def test_max_collinear_examples():
    pts = [Point((t, 0, 0)) for t in range(4)] + [Point((0, 1, 0))]
    assert max_collinear(pts) == 4
    triangle = [Point((0, 0)), Point((1, 0)), Point((0, 1))]
    assert max_collinear(triangle) == 2
    assert max_collinear([Point((5, 5))]) == 1


# --- point file format ------------------------------------------------------


def test_point_file_round_trip():
    pts = [Point((F(1, 2), -3, 0)), Point((0, 0, 7))]
    text = write_point_file(pts, header=["generated for a test"])
    assert text.startswith("# generated")
    assert read_point_file(text.splitlines()) == pts


def test_point_file_reports_line_numbers():
    with pytest.raises(GeometryError, match="line 2"):
        read_point_file(["1,2,3", "1,oops,3"])
    with pytest.raises(GeometryError, match="line 3"):
        read_point_file(["1,2,3", "# fine", "1,2"])
