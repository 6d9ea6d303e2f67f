from fractions import Fraction
from math import comb

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import constructions, spans
from spanflats.constructions import (
    _grid_vertices,
    _rich_line_config,
    bichromatic_lower_construction,
    erdos_grid_2d,
    purdy_counterexample,
    purdy_row,
    theta_mk_construction,
    verify_covering_lines,
)
from spanflats.formulas import fit_loglog, purdy_counts
from spanflats.incidence import count_bichromatic
from spanflats.kernel import GeometryError, Point
from spanflats.spans import spanned_flats


# --- 2-D grid ---------------------------------------------------------------


def test_grid_2x2_by_hand():
    grid = erdos_grid_2d(2, 2)
    assert len(grid.lines) == 4
    assert sorted(v.serialize() for v in grid.vertices) == ["-1,0", "0,0", "0,1", "1,1"]
    assert grid.incidences == 8


def test_parallel_pencil_has_no_vertices():
    grid = erdos_grid_2d(1, 7)
    assert len(grid.lines) == 7
    assert grid.vertices == ()
    assert grid.incidences == 0


def test_grid_rejects_bad_params():
    with pytest.raises(GeometryError, match="r and s must be >= 1"):
        erdos_grid_2d(0, 3)


def _degrees(vertices):
    # the Fraction view of (count, p, q, key) that the oracles speak
    return {(Fraction(p, q), Fraction(key, q)): count for count, p, q, key in vertices}


def test_windowed_degrees_match_pairwise_path():
    for r, s in [(2, 2), (3, 4), (4, 3), (5, 5)]:
        pairs = [(a, b) for a in range(r) for b in range(s)]
        full = oracle.grid_vertex_degrees(pairs)
        x_max = -(-s // r)
        y_max = r * x_max + s
        expected = {
            v: deg
            for v, deg in full.items()
            if abs(v[0]) <= x_max and 0 <= v[1] < y_max
        }
        degrees = _degrees(_grid_vertices(pairs, (x_max, y_max)))
        assert degrees == expected and list(degrees) == sorted(degrees)


def test_unwindowed_degrees_match_pairwise_oracle():
    # the prefix-of-grid line sets the bichromatic construction draws from
    for k in range(2, 41):
        pairs, _ = _rich_line_config(k)
        degrees = _degrees(_grid_vertices(pairs))
        assert degrees == oracle.grid_vertex_degrees(pairs) and list(degrees) == sorted(degrees)


def _assert_ranking_equals_fraction_sort(k):
    # the stable count sort of the (x, y)-ordered vertices orders them as the
    # Fraction keys (-count, x, y) do, so every prefix ranked[:p] agrees
    pairs, ranked = _rich_line_config(k)
    expected = oracle.ranked_vertices(_degrees(_grid_vertices(pairs)))
    assert [
        (count, (Fraction(p, q), Fraction(key, q))) for count, p, q, key in ranked
    ] == expected, k


@pytest.mark.parametrize("k", [*range(2, 61), 299, 300])
def test_integer_ranking_equals_fraction_sort(k):
    _assert_ranking_equals_fraction_sort(k)


# all of k = 2..300 takes about a minute; each run draws from it
@given(st.integers(min_value=61, max_value=298))
@settings(max_examples=8, deadline=None)
def test_integer_ranking_equals_fraction_sort_sampled(k):
    _assert_ranking_equals_fraction_sort(k)

def test_grid_incidence_growth_slope():
    # richest-n vertex selection per rung keeps m = Theta(n); the incidence
    # count then grows with log-log slope near 4/3
    series = []
    for i in range(1, 6):
        r = s = 2**i
        pairs = [(a, b) for a in range(r) for b in range(s)]
        vertices = _grid_vertices(pairs, (1, r + s))
        n = r * s
        top = sorted((count for count, *_ in vertices), reverse=True)[:n]
        series.append((n, sum(top)))
    slope = fit_loglog(series).slope
    assert 1.2 <= slope <= 1.45


# --- bichromatic lower construction ------------------------------------------


def test_bichromatic_d3_example():
    built = bichromatic_lower_construction(3, 8, 4, 32)
    assert built.p == 4
    assert built.family_size == 4
    assert built.red_incidences == 32  # 4 copies of the 8-incidence 2-D grid
    report = count_bichromatic(built.arrangement)
    assert report.red_incidences == built.red_incidences
    assert built.red_incidences == built.plane_incidences * built.family_size


def test_bichromatic_d4_product_structure():
    built = bichromatic_lower_construction(4, 12, 4, 4 * 12**2)
    assert built.family_size == 4
    report = count_bichromatic(built.arrangement)
    assert report.red_incidences == built.plane_incidences * built.family_size**2
    assert report.red_incidences == built.red_incidences


def test_bichromatic_rejects_degenerate_params():
    with pytest.raises(GeometryError, match="k must be >= 2"):
        bichromatic_lower_construction(3, 8, 1, 32)  # single red hyperplane
    with pytest.raises(GeometryError, match="p = 0: m too small"):
        bichromatic_lower_construction(3, 8, 4, 7)  # p = 0
    with pytest.raises(GeometryError, match=r"\(n-k\) = 1 leaves no blue hyperplanes"):
        bichromatic_lower_construction(4, 5, 4, 625)  # no blue family members
    with pytest.raises(GeometryError, match="k must be < n"):
        bichromatic_lower_construction(3, 8, 8, 64)  # k = n


def test_bichromatic_colors_disjoint_and_counts_consistent():
    built = bichromatic_lower_construction(3, 10, 4, 40)
    a = built.arrangement
    assert set(h.rows for h in a.red).isdisjoint(h.rows for h in a.blue)
    assert a.k == 4
    assert a.m == built.p * built.family_size


@pytest.mark.parametrize(
    "d,n,k,p",
    [
        (3, 8, 2, 1),
        (3, 10, 5, 4),
        (3, 12, 6, 6),
        (3, 16, 8, 8),
        (4, 10, 4, 2),
        (4, 12, 6, 4),
    ],
)
def test_bichromatic_prediction_matches_count(d, n, k, p):
    built = bichromatic_lower_construction(d, n, k, m=p * n ** (d - 2))
    report = count_bichromatic(built.arrangement)
    meets = built.family_size ** (d - 2)
    assert built.red_incidences == built.plane_incidences * meets
    assert report.red_incidences == built.red_incidences


@pytest.mark.parametrize(
    "d,n,k,m",
    [
        (3, 8, 3, 4), (3, 12, 5, 6), (4, 10, 3, 4), (4, 12, 7, 9), (5, 12, 4, 8),
        # p = 1: every degree is 1, so the grid hyperplanes are red first by index
        (3, 6, 2, 1), (5, 8, 3, 1), (5, 8, 6, 1),
        # d = 2: an empty grid and a pencil through the one vertex
        (2, 5, 3, 1), (2, 4, 4, 7),
    ],
)
def test_thetamk_prediction_matches_count(d, n, k, m):
    built = theta_mk_construction(d, n, k, m)
    report = count_bichromatic(built.arrangement)
    assert report.red_incidences == built.red_incidences
    assert report.total_incidences == built.total_incidences
    assert built.red_incidences >= built.arrangement.m * min(k, built.bundle_size)


# --- theta-mk construction ----------------------------------------------------


def test_thetamk_d3_small():
    built = theta_mk_construction(3, 6, 2, 2)
    assert built.p == 2
    assert built.bundle_size == 4
    assert built.arrangement.m == 2
    assert built.red_incidences == 4  # m*k
    assert count_bichromatic(built.arrangement).red_incidences == 4


def test_thetamk_d3_all_bundle_red():
    built = theta_mk_construction(3, 6, 4, 2)
    assert built.red_incidences == 8
    assert count_bichromatic(built.arrangement).red_incidences == 8


def test_thetamk_k_equals_n():
    built = theta_mk_construction(3, 6, 6, 2)
    report = count_bichromatic(built.arrangement)
    assert report.red_incidences == report.total_incidences


def test_thetamk_d2_degenerates_to_pencil():
    built = theta_mk_construction(2, 5, 3, 1)
    assert built.arrangement.m == 1
    assert built.red_incidences == 3


def test_thetamk_red_floor():
    for n in (6, 10):
        for m in (2, 3):
            for k in range(1, n + 1):
                built = theta_mk_construction(3, n, k, m)
                assert built.red_incidences >= m * min(k, built.bundle_size)


def test_thetamk_infeasible():
    with pytest.raises(GeometryError, match="need n >= 7 hyperplanes for p = 5, got 5"):
        theta_mk_construction(3, 5, 2, 5)  # grid of 5 + 2 bundle > 5


def test_thetamk_vertices_are_true_vertices():
    a = theta_mk_construction(3, 6, 2, 2).arrangement
    assert set(a.vertices) <= set(oracle.arrangement_vertices(a.red + a.blue))
    assert all(count_bichromatic(a).per_point_red_degree)


# --- covering-lines counterexample -------------------------------------------


def test_purdy_d4_k2_counts():
    pts = purdy_counterexample(4, 2, seed=0)
    assert len(pts) == 6
    assert spanned_flats(pts, 3).count == 15
    assert spanned_flats(pts, 2).count == 20


def test_purdy_matches_formulas_on_small_grid():
    for d, k in [(4, 2), (4, 3), (5, 2)]:
        pts = purdy_counterexample(d, k, seed=0)
        counts = purdy_counts(d, k)
        assert spanned_flats(pts, d - 1).count == counts.h_total
        assert spanned_flats(pts, d - 2).count == counts.g_total


def test_purdy_deterministic():
    assert purdy_counterexample(4, 3, seed=5) == purdy_counterexample(4, 3, seed=5)
    assert purdy_counterexample(4, 3, seed=5) != purdy_counterexample(4, 3, seed=6)


def test_purdy_max_collinear_is_k():
    pts = purdy_counterexample(4, 3, seed=0)
    assert max(mask.bit_count() for mask in spanned_flats(pts, 1).masks) == 3


def test_purdy_output_passes_own_predicates():
    for d, k in [(4, 2), (5, 2)]:
        pts = purdy_counterexample(d, k, seed=1)
        lines = [list(pts[i * k : (i + 1) * k]) for i in range(d - 1)]
        assert verify_covering_lines(d, lines) is None


def test_purdy_domain_errors():
    with pytest.raises(GeometryError, match="d >= 4 required, got 3"):
        purdy_counterexample(3, 2)
    with pytest.raises(GeometryError, match="k >= 2 required, got 1"):
        purdy_counterexample(4, 1)


def test_purdy_cap_is_the_walk_cap_on_both_levels(monkeypatch):
    # a cell is priced as the walk of its two top levels and the lower levels
    # the walk keeps, at each level's exact flat count (the formulas' g_total
    # and h_total on top), with the work of the top two levels only; it is
    # refused one below its estimate on either cap, before any draw
    priced, cost = [], spans.walk_cost
    monkeypatch.setattr(constructions, "walk_cost", lambda *a: priced.append(a) or cost(*a))
    for d, k in ((6, 3), (6, 2)):
        pts = purdy_counterexample(d, k)
        n, _, levels, bits, flats = priced[-1]
        counts = purdy_counts(d, k)
        assert (n, levels, bits) == (k * (d - 1), (d - 2, d - 1), (999 + 99 * k).bit_length())
        assert [flats(f) for f in range(d)] == [oracle.subset_scan(pts, f).count for f in range(d)]
        assert (flats(d - 2), flats(d - 1)) == (counts.g_total, counts.h_total)
        estimate = spans.walk_cost(n, d, levels, bits, flats)
        tops = spans.walk_cost(n, d, levels, bits, lambda f: flats(f) if f in levels else 0)
        assert estimate[0] > tops[0]
        assert estimate[1] == sum(comb(n, r) * r * (d + 1) for r in (d - 1, d))
        for cap, value in zip(("MAX_BYTES", "MAX_OPS"), estimate):
            monkeypatch.setattr(spans, cap, value - 1)
            with pytest.raises(GeometryError, match=rf"Purdy cell \({d}, {k}\) needs about {value:,} "):
                purdy_counterexample(d, k)
            monkeypatch.setattr(spans, cap, value)
            assert purdy_counterexample(d, k) == pts


def test_verify_covering_lines_catches_degeneracies():
    # two lines meeting at a point are not in general position in E^4
    a = [Point((0, 0, 0, 0)), Point((1, 0, 0, 0))]
    b = [Point((0, 0, 0, 0)), Point((0, 1, 0, 0))]
    c = [Point((5, 0, 0, 1)), Point((5, 0, 1, 0))]
    assert verify_covering_lines(4, [a, b, c]) == (
        "lines [0, 2] whole and a point of lines [1] lie on one spanned 3-flat: 2*2 + 1 >= 5"
    )
    # six points on one line span no plane
    assert verify_covering_lines(4, [[Point((t, 0, 0, 0)) for t in (1, 2, 3)]] * 2) == (
        "the points span no 2-flat"
    )


def test_one_walk_serves_the_check_and_both_counts(monkeypatch):
    # the check's hyperplane walk leaves both levels memoized for the row
    calls = []
    walk = spans._walk_levels
    monkeypatch.setattr(spans, "_LEVELS", {})
    monkeypatch.setattr(spans, "_walk_levels", lambda *args: calls.append(args) or walk(*args))
    row = purdy_row((6, 2, 0))
    assert row["h_match"] and row["g_match"]
    assert len(calls) == 1


@st.composite
def covering_line_configs(draw):
    """k points base + t*direction (t = 1..k) on each of 1..d-1 lines, from
    coordinate ranges small enough that degeneracies are common; with fewer
    than (d+1)/2 lines the largest configuration is every line."""
    d, k = draw(st.integers(4, 5)), draw(st.integers(2, 3))
    span = draw(st.sampled_from([1, 2, 60]))
    coord = st.integers(-span, span)
    lines = []
    for _ in range(draw(st.integers(1, d - 1))):
        base = draw(st.lists(coord, min_size=d, max_size=d))
        direction = draw(st.lists(coord, min_size=d, max_size=d))
        lines.append(
            [Point(b + t * v for b, v in zip(base, direction)) for t in range(1, k + 1)]
        )
    return d, lines


@given(covering_line_configs())
@settings(max_examples=150, deadline=None)
def test_verify_covering_lines_matches_exhaustive_oracle(config):
    d, lines = config
    assert (verify_covering_lines(d, lines) is None) == oracle.verify_covering_lines(d, lines)


@st.composite
def purdy_shaped_configs(draw):
    """k points on each of exactly d-1 lines in general coordinates, with
    line 1 forced through a point of line 0 or parallel to it."""
    d, k = draw(st.integers(4, 5)), draw(st.integers(2, 3))
    coord = st.integers(-60, 60)
    bases = [draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(d - 1)]
    directions = [draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(d - 1)]
    t = draw(st.integers(1, k))
    if draw(st.booleans()):  # line 1 at its parameter 1 meets line 0 at parameter t
        bases[1] = [b + t * v - w for b, v, w in zip(bases[0], directions[0], directions[1])]
    else:
        directions[1] = [t * v for v in directions[0]]
    return d, [
        [Point(b + s * v for b, v in zip(base, direction)) for s in range(1, k + 1)]
        for base, direction in zip(bases, directions)
    ]


@given(purdy_shaped_configs())
@settings(max_examples=60, deadline=None)
def test_verify_covering_lines_with_a_shared_point_or_parallel_pair(config):
    d, lines = config
    assert (verify_covering_lines(d, lines) is None) == oracle.verify_covering_lines(d, lines)


def test_theta_mk_huge_m_is_infeasible_not_overflow():
    # p = floor(m^(1/3)) for m = 10^400 is past float range
    with pytest.raises(GeometryError, match="need n >="):
        theta_mk_construction(5, 10, 2, 10**400)
