import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb, gcd, lcm

import oracle
from oracle import affine_hull, meet
import pytest
from conftest import point_lists, rationals
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import constructions, kernel, spans
from spanflats.kernel import Flat, GeometryError, Point, hyperplane, int_rref, nullspace_rows
from spanflats.spans import (
    _candidate_flats,
    conjecture_row,
    is_r_degenerate,
    max_cover_plane_or_two_lines,
    max_degenerate_subset,
    read_point_file,
    spanned_flats,
    write_point_file,
)


def flats_of(result):
    """The Flat of every key of a SpannedSet, in its key order."""
    return tuple(map(result.flat, range(result.count)))


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
    for flat, idxs in zip(flats_of(result), result.per_flat_points):
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
        expected = oracle.attach_incidences(flats_of(mine), points)
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
    assert (flats_of(mine), mine.per_flat_points) == oracle.flats_and_points(pts, scan.masks)


@st.composite
def degenerate_sets(draw, dims=(1, 5)):
    """(d, points) for d in ``dims`` (1..5): a few points, then points on the
    lines and planes through drawn ones, then repeats, shuffled; often fewer
    than d distinct points."""
    d = draw(st.integers(*dims))
    pts = draw(point_lists(d, 1, 5, lo=-2, hi=2, max_den=2))
    for _ in range(draw(st.integers(0, 4))):
        base, *others = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3))
        ts = [draw(rationals(-2, 2, 2)) for _ in others]
        pts.append(Point(
            a + sum(t * (o.coords[i] - a) for t, o in zip(ts, others))
            for i, a in enumerate(base.coords)
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


@given(degenerate_sets())
@settings(max_examples=120, deadline=None)
def test_hyperplanes_keyed_by_normal_build_their_flat_and_export_in_basis_order(case):
    # the levels of codim 1 and 2 key a flat by its constraint rows
    # reduced from the right (a hyperplane by its normal, a codim-2 flat by
    # two rows): its flat is the hull of its points and its point basis
    # their int_rref, and every level's export lists its flats in
    # point-basis order
    d, pts = case
    for f in range(d):
        result = spanned_flats(pts, f)
        hulls, idxs = oracle.flats_and_points(pts, result.masks)
        bases = [int_rref([pts[i].hom for i in ix]) for ix in idxs]
        assert [result.basis(i) for i in range(result.count)] == bases
        assert flats_of(result) == tuple(hulls)
        if f >= d - 2:
            for i, key in enumerate(result.keys):
                rows = (key,) if f == d - 1 else key
                assert len(rows) == d - f
                assert rows == oracle.right_reduced(rows)
                primal = Flat(d, nullspace_rows(*spans._point_basis(rows), d + 1))
                assert primal == hulls[i]
        else:
            assert list(result.keys) == bases
        exported = result.to_json_dict()["flats"]
        order = sorted(range(result.count), key=bases.__getitem__)
        assert [e["point_indices"] for e in exported] == [list(idxs[i]) for i in order]
        assert [e["constraints"] for e in exported] == [hulls[i].serialize_rows() for i in order]


@st.composite
def line_configurations(draw):
    """(d, points) for d = 3..6: k = 2..4 points on each of 2..4 lines drawn
    from small coordinates, so that lines often meet or share a plane, then
    up to two free points and two repeats, shuffled: flats spanned by many
    subsets, as in a Purdy set."""
    d = draw(st.integers(3, 6))
    coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    pts = []
    for _ in range(draw(st.integers(2, 4))):
        base, direction = draw(coords), draw(coords.filter(any))
        pts += [
            Point(b + t * v for b, v in zip(base, direction)) for t in range(draw(st.integers(2, 4)))
        ]
    pts += draw(st.lists(coords.map(Point), max_size=2))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return d, draw(st.permutations(pts))


@given(line_configurations())
@settings(max_examples=25, deadline=None)
def test_walk_of_line_configurations_matches_subset_scan(case):
    # every level on a cold memo, and both top levels in either order
    d, pts = case
    expected = [oracle.subset_scan(pts, f) for f in range(d)]
    for f in range(d):
        spans._LEVELS.clear()
        assert spanned_flats(pts, f) == expected[f]
    for order in ((d - 1, d - 2), (d - 2, d - 1)):
        spans._LEVELS.clear()
        for f in order:
            assert spanned_flats(pts, f) == expected[f]


@given(line_configurations(), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_walk_is_exact_when_keys_share_hashes(case, values):
    # a level below the last keeps only its keys' hashes, confirms a known
    # hash by containment and keeps the whole key of a flat whose hash is
    # taken: with at most `values` hashes a level, each level is still the
    # subset scan's
    d, pts = case
    expected = [oracle.subset_scan(pts, f) for f in range(d)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans, "hash", lambda key: key[1][-1] % values, raising=False)
        for f in range(d):
            spans._LEVELS.clear()
            assert spanned_flats(pts, f) == expected[f]
    spans._LEVELS.clear()


@st.composite
def flat_configurations(draw):
    """(d, points) for d = 3..5: 3 to 5 points on each of 1..3 planes or
    3-flats, each a base plus small integer combinations of two or three
    drawn directions, then up to two free points and two repeats, shuffled:
    flats that hold points a prefix reaches them by, so that a prefix skips
    the later points of a flat it landed on, on the levels the walk returns
    and on those below them."""
    d = draw(st.integers(3, 5))
    coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        base, rank = draw(coords), draw(st.integers(2, min(3, d - 1)))
        directions = [draw(coords) for _ in range(rank)]
        for _ in range(draw(st.integers(3, 5))):
            ts = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
            pts.append(Point(
                b + sum(t * v[i] for t, v in zip(ts, directions)) for i, b in enumerate(base)
            ))
    pts += draw(st.lists(coords.map(Point), max_size=2))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return d, draw(st.permutations(pts))


@given(flat_configurations(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_walk_of_flat_configurations_matches_subset_scan(case, values):
    # every level on a cold memo, with the real hash and with at most
    # `values` hashes a level below the returned ones
    d, pts = case
    expected = [oracle.subset_scan(pts, f) for f in range(d)]
    for f in range(d):
        spans._LEVELS.clear()
        assert spanned_flats(pts, f) == expected[f]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans, "hash", lambda key: key[1][-1] % values, raising=False)
        for f in range(d):
            spans._LEVELS.clear()
            assert spanned_flats(pts, f) == expected[f]
    spans._LEVELS.clear()


@pytest.mark.parametrize("m", [5, 6, 8, 10])
def test_walk_skips_the_points_of_a_flat_a_prefix_reached(monkeypatch, m):
    # m coplanar points in general position in E^3 span one plane: the first
    # line reaches it from each of its m - 2 later points, and every other
    # line but those through the last point lands on it from its first later
    # point and skips the rest, which the plane already holds: C(m, 2) - 2
    # normals, where one per (line, later point) pair is C(m, 3)
    pts = [Point((t, t * t, t + t * t)) for t in range(m)]
    normals = 0

    def _normal(rows, p, real=spans._normal):
        nonlocal normals
        normals += 1
        return real(rows, p)

    monkeypatch.setattr(spans, "_normal", _normal)
    spans._LEVELS.clear()
    planes, lines = spanned_flats(pts, 2), spanned_flats(pts, 1)
    spans._LEVELS.clear()
    assert (planes.count, planes.masks, lines.count) == (1, ((1 << m) - 1,), comb(m, 2))
    assert normals == comb(m, 2) - 2 < comb(m, 3)


def test_walk_extends_each_flat_once(monkeypatch):
    # at the Purdy cell (6, 3), 2,673 full-rank 5-subsets span 873 (d-2)-flats:
    # only a flat's first prefix is extended, so no (basis, row) pair repeats,
    # and the (d-3)-flat's constraint rows (one nullspace) are taken once per
    # (d-3)-flat that a point follows, as the parent of the (d-2)-flats' rows
    pts = constructions.purdy_counterexample(6, 3)
    extended, complements = Counter(), Counter()

    def extend_rref(basis, row):
        extended[basis, tuple(row)] += 1
        return kernel.extend_rref(basis, row)

    def nullspace_rows(rows, pivots, ncols):
        complements[rows, pivots] += 1
        return kernel.nullspace_rows(rows, pivots, ncols)

    monkeypatch.setattr(spans, "extend_rref", extend_rref)
    monkeypatch.setattr(spans, "nullspace_rows", nullspace_rows)
    spans._LEVELS.clear()
    hyperplanes, codim2 = spanned_flats(pts, 5), spanned_flats(pts, 4)
    counts = constructions.purdy_counts(6, 3)
    assert (hyperplanes.count, codim2.count) == (counts.h_total, counts.g_total) == (685, 873)
    assert set(extended.values()) == {1}
    assert set(complements.values()) == {1}

    def last_of_greedy_basis(mask):
        basis = []
        for i in range(len(pts)):
            if mask >> i & 1 and len(int_rref([*basis, pts[i].hom])[0]) > len(basis):
                basis.append(pts[i].hom)
                last = i
        return last

    # a parent is extended at its first prefix, its greedy basis, if a point follows
    parents = oracle.subset_scan(pts, 3)
    followed = [last_of_greedy_basis(mask) < len(pts) - 1 for mask in parents.masks]
    assert set(complements) == {key for key, yes in zip(parents.keys, followed) if yes}
    assert len(complements) < parents.count < codim2.count


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
    assert spans._point_basis([w]) == int_rref(complement)


@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(st.just(d + 1), st.integers(1, d)).flatmap(
            lambda nc: st.lists(
                st.lists(st.one_of(st.just(0), st.integers(-3, 3)), min_size=nc[0], max_size=nc[0]),
                min_size=nc[1], max_size=nc[1],
            )
        )
    ).filter(lambda m: len(int_rref(m)[0]) == len(m))
)
@settings(max_examples=300, deadline=None)
def test_point_basis_is_int_rref_of_the_constraint_rows_nullspace(matrix):
    # c = 1..d constraint rows of E^d, reduced from the right as the walk
    # keys them: the closed form gives the int_rref of their nullspace
    rows = oracle.right_reduced(matrix)
    nullspace = [
        [int(x * lcm(*(y.denominator for y in row))) for x in row]
        for row in oracle.nullspace(rows, len(rows[0]))
    ]
    assert spans._point_basis(rows) == int_rref(nullspace)


@given(degenerate_sets(dims=(2, 6)), st.data())
@settings(max_examples=150, deadline=None)
def test_cut_adds_a_point_to_constraint_rows_as_the_oracle_does(case, data):
    # a prefix's constraint rows (the complement of its point basis, repeats
    # and dependent points included) cut by a point: None when the point is
    # on the prefix's flat, else the nullspace of the prefix and the point
    # reduced from the right
    d, pts = case
    homs = [p.hom for p in pts]
    prefix = homs[: data.draw(st.integers(0, min(len(homs), d)))]
    basis = int_rref(prefix)
    rows = nullspace_rows(*basis, d + 1)
    assert rows == oracle.right_reduced(oracle.nullspace(prefix, d + 1))
    for p in homs:
        joined = [*prefix, p]
        if len(int_rref(joined)[0]) == len(basis[0]):
            assert spans._cut(rows, p) is None
        else:
            assert spans._cut(rows, p) == oracle.right_reduced(oracle.nullspace(joined, d + 1))


@given(
    st.integers(1, 4).flatmap(lambda d: point_lists(d, 1, 6, lo=-2, hi=2, max_den=3)),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_candidate_masks_match_contains_oracle(pts, data):
    # the oracle's spanned candidates, each mask by testing every point; its
    # axis line through a point joins them only where no spanned line holds
    # that point: for a single distinct point, or in E^1
    pts = pts + data.draw(st.lists(st.sampled_from(pts), max_size=3))
    d, n, alone = pts[0].dim, len(pts), len(set(pts)) == 1

    def spanned(dim, mask):
        return oracle.affine_rank([p for i, p in enumerate(pts) if mask >> i & 1]) == dim + 1

    expected = [
        (dim, mask)
        for _, dim, mask in oracle.cover_candidates(pts, include_point_flats=False)
        if d == 1 or alone or spanned(dim, mask)
    ]
    candidates = _candidate_flats(pts)
    assert sorted(candidates) == sorted(expected)
    assert all(any(mask >> i & 1 for _, mask in candidates) for i in range(n))


@given(point_lists(3, 2, 6, lo=-3, hi=3, max_den=2))
@settings(max_examples=40, deadline=None)
def test_hyperplane_count_monotone(pts):
    base = spanned_flats(pts[:-1], 2).count if len(pts) > 2 else 0
    assert spanned_flats(pts, 2).count >= base


@given(point_lists(3, 1, 6, lo=-3, hi=3, max_den=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_every_spanned_flat_is_hull_of_its_points(pts, f):
    result = spanned_flats(pts, f)
    for flat, idxs in zip(flats_of(result), result.per_flat_points):
        assert len(idxs) >= f + 1
        assert all(flat.contains(pts[i]) for i in idxs)
        assert affine_hull([pts[i] for i in idxs]) == flat


@given(point_lists(3, 1, 6, lo=-2, hi=2, max_den=1), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_r_degenerate_implies_next_r(pts, r):
    if is_r_degenerate(pts, r):
        assert is_r_degenerate(pts, r + 1)


# --- invariances ------------------------------------------------------------


def test_walk_follows_a_permutation_and_ignores_an_affine_map():
    # 18 points in E^7 are past every subset-scan oracle: on both levels the
    # hyperplane walk returns, the masks of permuted points are the masks
    # with their bits permuted, and those of mapped points are the masks
    pts = constructions.purdy_counterexample(7, 3)
    rng = random.Random("invariance")

    def levels(points):
        return [sorted(spanned_flats(points, f).masks) for f in (6, 5)]

    order = rng.sample(range(len(pts)), len(pts))
    moved = [
        sorted(sum(1 << order[j] for j in range(len(pts)) if mask >> j & 1) for mask in masks)
        for masks in levels([pts[i] for i in order])
    ]
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(7)]
        if len(int_rref(matrix)[0]) == 7:
            break
    shift = [rng.randint(-5, 5) for _ in range(7)]
    mapped = [
        Point(sum(m * x for m, x in zip(row, p.coords)) + c for row, c in zip(matrix, shift))
        for p in pts
    ]
    assert levels(pts) == moved == levels(mapped)


# --- the arrangement-vertex oracle -------------------------------------------
# the incidence and construction tests take their vertices from it


def test_axis_planes_meet_at_origin():
    hyps = [hyperplane((1, 0, 0), 0), hyperplane((0, 1, 0), 0), hyperplane((0, 0, 1), 0)]
    assert [v.serialize() for v in oracle.arrangement_vertices(hyps)] == ["0,0,0"]


def test_three_generic_lines_three_vertices():
    hyps = [hyperplane((0, 1), 0), hyperplane((1, 0), 0), hyperplane((1, 1), 2)]
    assert len(oracle.arrangement_vertices(hyps)) == 3


def test_four_line_vertices_by_hand():
    hyps = [
        hyperplane((0, 1), 0),   # y = 0
        hyperplane((0, 1), 1),   # y = 1
        hyperplane((-1, 1), 0),  # y = x
        hyperplane((-1, 1), 1),  # y = x + 1
    ]
    got = sorted(v.serialize() for v in oracle.arrangement_vertices(hyps))
    assert got == ["-1,0", "0,0", "0,1", "1,1"]
    # in E^1 each hyperplane is a point, and a vertex of its own
    points = [hyperplane((2,), 1), hyperplane((1,), -3)]  # x = 1/2, x = -3
    assert [v.serialize() for v in oracle.arrangement_vertices(points)] == ["-3", "1/2"]


# --- plane / two-line covers ------------------------------------------------


def test_two_skew_lines_cover_everything():
    pts = [Point((t, 0, 0)) for t in range(3)] + [Point((0, t, 1)) for t in range(3)]
    assert max_cover_plane_or_two_lines(pts) == 6
    assert max_degenerate_subset(pts, 1) == 3  # one line is not enough


def test_five_generic_points_cover_four():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    skew_oracle, any_oracle = oracle_best_plane_or_pair(pts)
    assert max_cover_plane_or_two_lines(pts) == skew_oracle == any_oracle == 4


def test_coplanar_points_cover_all():
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((3, 5, 0))]
    assert max_cover_plane_or_two_lines(pts) == 4


def test_tiny_inputs_trivial_cover():
    # no points, or copies of one point, which one line holds
    assert max_cover_plane_or_two_lines([]) == 0
    assert max_cover_plane_or_two_lines([Point((1, 2, 3))]) == 1
    assert max_cover_plane_or_two_lines([Point((1, 2, 3))] * 3) == 3


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
    covered = max_cover_plane_or_two_lines(pts)
    assert covered == skew_oracle
    assert covered == any_oracle
    assert covered == max_degenerate_subset(pts, 2)


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
    assert is_r_degenerate(pts, r) == (max_degenerate_subset(pts, r - 1) == len(pts))


@st.composite
def cover_search_inputs(draw):
    """Point lists in E^2..E^4 with coordinates in -1..1, so that rich lines
    and planes are common: up to six drawn points and two repeats."""
    d = draw(st.integers(2, 4))
    c = st.integers(-1, 1)
    coords = draw(st.lists(st.tuples(*[c] * d), min_size=1, max_size=6))
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return [Point(xs) for xs in coords]


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
        assert is_r_degenerate(pts, budget + 1) == (best[budget] == n)
        assert oracle.rank_sum_cover(pts, budget) == (best_with_points[budget] == n)


def test_coplanar_set_is_3_degenerate():
    pts = [Point((0, 0, 0)), Point((1, 0, 0)), Point((0, 1, 0)), Point((1, 1, 0))]
    assert is_r_degenerate(pts, 3) is True
    assert is_r_degenerate(pts, 2) is False  # not collinear


def test_two_skew_lines_are_3_degenerate():
    pts = [Point((t, 0, 0)) for t in range(3)] + [Point((0, t, 1)) for t in range(3)]
    assert is_r_degenerate(pts, 3) is True
    assert is_r_degenerate(pts, 2) is False  # not one line


def test_five_generic_points_not_3_degenerate():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    assert is_r_degenerate(pts, 3) is False


def test_r_degenerate_monotone_in_r():
    pts = [
        Point((0, 0, 0)),
        Point((1, 0, 0)),
        Point((0, 1, 0)),
        Point((0, 0, 1)),
        Point((1, 2, 3)),
    ]
    results = [is_r_degenerate(pts, r) for r in range(1, 6)]
    assert results == sorted(results)  # False ... True, never back


def test_rank_sum_cover_finds_cheap_cover():
    # the oracle criterion 2 checks with: one line, rank 2, and no point alone
    pts = [Point((t, 0, 0)) for t in range(4)]
    assert oracle.rank_sum_cover(pts, 2) is True
    assert oracle.rank_sum_cover(pts, 1) is False


def test_cover_queries_edge_answers():
    # the empty set is covered by no flats at all; a threshold below 1 and
    # inputs outside a query's domain are errors
    assert is_r_degenerate([], 1) is True
    assert max_degenerate_subset([], 0) == max_degenerate_subset([], 2) == 0
    with pytest.raises(GeometryError, match="r must be >= 1, got 0"):
        is_r_degenerate([Point((0, 0))], 0)
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
    assert is_r_degenerate(pts, 3) is False
    assert not conjecture_row((0, 3, 8, 3, 0, 0.0))["degenerate"]
    assert flat_builds[0] == 0


def test_beck3_instance_builds_no_flat(flat_builds):
    # its check reads the count of the plane-or-two-lines search alone
    for plant in ("plane", "skew"):
        assert constructions.beck3_instance(40, 7, 0, plant)[1] == 33
    assert flat_builds[0] == 0


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
