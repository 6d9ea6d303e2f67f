from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import oracle
import pytest
from conftest import point_lists, rationals
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
    spanned_flats,
)
from spanflats import constructions, spans
from spanflats.kernel import Flat, int_rref
from spanflats.spans import (
    _candidate_flats,
    conjecture_row,
    read_point_file,
    write_point_file,
)


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
        if oracle.skew(l1, l2):
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
    assert spanned_flats(pts, 2).count == 10


def test_spanned_flats_range_check():
    pts = [Point((0, 0)), Point((1, 0))]
    with pytest.raises(GeometryError):
        spanned_flats(pts, 2)
    with pytest.raises(GeometryError):
        spanned_flats(pts, -1)


def test_empty_counts_are_empty_hull_errors():
    for f in (0, 1):
        with pytest.raises(GeometryError, match="empty hull"):
            spanned_flats([], f)


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
    mine, scan = spanned_flats(pts, f), oracle.subset_scan(pts, f)
    assert mine == scan
    assert (mine.flats, mine.per_flat_points) == oracle.flats_and_points(pts, scan.masks)


@st.composite
def degenerate_sets(draw):
    """(d, points) for d = 1..5: a few points, then points on the lines and
    planes through drawn ones, then repeats, shuffled; often fewer than d
    distinct points."""
    d = draw(st.integers(1, 5))
    pts = draw(point_lists(d, 1, 5, lo=-2, hi=2, max_den=2))
    for _ in range(draw(st.integers(0, 4))):
        base, *others = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3))
        ts = [draw(rationals(-2, 2, 2)) for _ in others]
        pts.append(Point(
            a + sum(t * (o[i] - a) for t, o in zip(ts, others)) for i, a in enumerate(base)
        ))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return d, draw(st.permutations(pts))


@given(degenerate_sets())
@settings(max_examples=150, deadline=None)
def test_both_top_levels_match_subset_scan_in_either_order(case):
    # an f = d-1 request walks both levels; an f = d-2 request on a cold
    # memo walks only its own, and the other is walked when asked for
    d, pts = case
    expected = {f: oracle.subset_scan(pts, f) for f in (d - 1, d - 2) if f >= 0}
    for order in (sorted(expected, reverse=True), sorted(expected)):
        spans._LEVELS.clear()
        for f in order:
            assert spanned_flats(pts, f) == expected[f]


@given(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=2, max_size=7).filter(any)
)
@settings(max_examples=300, deadline=None)
def test_hyperplane_key_is_int_rref_of_the_normals_complement(w):
    # w primitive with its last nonzero entry positive, as the walk keys it
    last = next(x for x in reversed(w) if x)
    w = [x // (gcd(*w) if last > 0 else -gcd(*w)) for x in w]
    complement = [
        [int(x * lcm(*(y.denominator for y in row))) for x in row]
        for row in oracle.nullspace([w], len(w))
    ]
    assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in complement)
    assert spans._hyperplane_key(w) == int_rref(complement)


@given(
    st.integers(1, 4).flatmap(lambda d: point_lists(d, 1, 6, lo=-2, hi=2, max_den=3)),
    st.booleans(),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_candidate_masks_match_contains_oracle(pts, point_flats, data):
    pts = pts + data.draw(st.lists(st.sampled_from(pts), max_size=3))
    candidates = _candidate_flats(pts, point_flats)
    flats = [build() for _, _, build in candidates]
    expected = oracle.attach_incidences(flats, pts)
    assert [mask for _, mask, _ in candidates] == [
        sum(1 << i for i in idxs) for idxs in expected
    ]
    assert [cost for cost, _, _ in candidates] == [flat.dim + point_flats for flat in flats]
    assert len(set(flats)) == len(flats)
    full = {flat for flat, _, _ in oracle.cover_candidates(pts, point_flats)}
    assert set(flats) <= full


@given(point_lists(3, 2, 6, lo=-3, hi=3, max_den=2))
@settings(max_examples=40, deadline=None)
def test_hyperplane_count_monotone(pts):
    base = spanned_flats(pts[:-1], 2).count if len(pts) > 2 else 0
    assert spanned_flats(pts, 2).count >= base


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


@st.composite
def hyperplane_families(draw):
    """Hyperplanes of E^d, d = 1..4, with rational offsets; after the first,
    each is new, a repeat of an earlier one, parallel to one, or through a
    common pencil point."""
    d = draw(st.integers(min_value=1, max_value=4))
    normals = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    pencil = draw(st.lists(rationals(max_den=3), min_size=d, max_size=d))
    hyps = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kinds = ["new", "pencil"] + (["repeat", "parallel"] if hyps else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            hyps.append(draw(st.sampled_from(hyps)))
            continue
        normal = draw(st.sampled_from(hyps)).rows[0][:d] if kind == "parallel" else draw(normals)
        if kind == "pencil":
            offset = sum(a * x for a, x in zip(normal, pencil))
        else:
            offset = draw(rationals(max_den=3))
        hyps.append(hyperplane(normal, offset))
    return hyps


@given(hyperplane_families())
@settings(max_examples=200, deadline=None)
def test_arrangement_vertices_match_subset_rref_oracle(hyps):
    assert arrangement_vertices(hyps) == oracle.arrangement_vertices(hyps)


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
    assert cover.covered_count == max_degenerate_subset(pts, 2)


@given(cover_inputs())
@settings(max_examples=80, deadline=None)
def test_cover_certificate_is_a_plane_or_lines_holding_the_count(pts):
    cover = max_cover_plane_or_two_lines(pts)
    assert all(flat.dim in (1, 2) for flat in cover.flats)
    assert cover.dims_sum == sum(flat.dim for flat in cover.flats) <= 2
    on = sum(1 for p in pts if any(flat.contains(p) for flat in cover.flats))
    assert on == cover.covered_count


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
    # the package prunes the candidates; the oracle keeps them all
    d, n = pts[0].dim, len(pts)
    lines_up = oracle.cover_candidates(pts, include_point_flats=False)
    with_points = oracle.cover_candidates(pts, include_point_flats=True)
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


def test_cover_queries_edge_answers():
    # the empty set is covered by no flats at all; a threshold below 1 and
    # inputs outside a query's domain are errors
    ok, cert = is_r_degenerate([], 1)
    assert ok and (cert.flats, cert.covered_count, cert.dims_sum) == ((), 0, 0)
    assert rank_sum_cover([], 0) == rank_sum_cover([], 3) == []
    assert max_degenerate_subset([], 0) == max_degenerate_subset([], 2) == 0
    assert arrangement_vertices([]) == []
    with pytest.raises(GeometryError, match="r must be >= 1, got 0"):
        is_r_degenerate([Point((0, 0))], 0)
    with pytest.raises(GeometryError, match="empty point set"):
        max_collinear([])
    with pytest.raises(GeometryError, match="ambient dimension must be 3"):
        max_cover_plane_or_two_lines([Point((0, 0)), Point((1, 2))])


def test_max_degenerate_subset():
    pts = [Point((t, 0, 0)) for t in range(4)] + [Point((1, 2, 3)), Point((3, 1, 2))]
    # budget 1: a single line takes the 4 collinear points
    assert max_degenerate_subset(pts, 1) == 4
    # budget 2: the collinear line plus a line through the two leftovers
    assert max_degenerate_subset(pts, 2) == 6


# --- flats built ------------------------------------------------------------


@pytest.fixture
def flat_builds(monkeypatch):
    """A one-item list holding the number of Flats constructed so far, with
    the enumeration memo emptied so that every walk runs."""
    built = [0]
    post_init = Flat.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Flat, "__post_init__", counting)
    spans._LEVELS.clear()
    return built


def test_counts_masks_and_cover_searches_build_no_flat(flat_builds):
    pts = [Point((t, t * t, t**3)) for t in range(8)]  # no 4 coplanar, no 3 collinear
    assert spanned_flats(pts, 2).count == 56
    assert [mask.bit_count() for mask in spanned_flats(pts, 1).masks] == [2] * 28
    assert max_degenerate_subset(pts, 2) == 4
    assert is_r_degenerate(pts, 3) == (False, None)
    assert not conjecture_row((0, 3, 8, 3, 0, 0.0))["degenerate"]
    assert flat_builds[0] == 0


def test_beck3_instance_builds_only_hull_and_certificate(flat_builds, monkeypatch):
    covers = []

    def recording_cover(points):
        covers.append(max_cover_plane_or_two_lines(points))
        return covers[-1]

    monkeypatch.setattr(constructions, "max_cover_plane_or_two_lines", recording_cover)
    for plant in ("plane", "skew"):
        constructions.beck3_instance(40, 7, 0, plant)
    assert covers and flat_builds[0] <= sum(1 + len(cover.flats) for cover in covers)


# --- collinearity -----------------------------------------------------------


def test_max_collinear_examples():
    pts = [Point((t, 0, 0)) for t in range(4)] + [Point((0, 1, 0))]
    assert max_collinear(pts) == 4
    triangle = [Point((0, 0)), Point((1, 0)), Point((0, 1))]
    assert max_collinear(triangle) == 2
    assert max_collinear([Point((5, 5))]) == 1
    # in E^1 every point is on the one line; duplicates count once
    assert max_collinear([Point((1,)), Point((2,)), Point((3,)), Point((2,))]) == 3


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
