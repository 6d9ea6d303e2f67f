import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import (
    ConstructionError,
    Point,
    bichromatic_lower_construction,
    count_bichromatic,
    erdos_grid_2d,
    max_collinear,
    purdy_counterexample,
    purdy_counts,
    spanned_flats,
    theta_mk_construction,
    verify_covering_lines,
)
from spanflats.constructions import _rich_line_config, _ranked_vertex, windowed_grid_degrees
from spanflats.formulas import fit_loglog


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
    with pytest.raises(ConstructionError):
        erdos_grid_2d(0, 3)


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
        assert windowed_grid_degrees(pairs, (x_max, y_max)) == expected


def test_unwindowed_degrees_match_pairwise_oracle():
    # the prefix-of-grid line sets the bichromatic construction draws from
    for k in range(2, 41):
        pairs, _ = _rich_line_config(k)
        assert windowed_grid_degrees(pairs) == oracle.grid_vertex_degrees(pairs)



def _assert_ranking_equals_fraction_sort(k):
    # the integer keys (-count, x*L, y*L) order the vertices as the
    # Fraction keys (-count, x, y) do, so every prefix ranked[:p] agrees
    pairs, ranked = _rich_line_config(k)
    expected = oracle.ranked_vertices(windowed_grid_degrees(pairs))
    assert [_ranked_vertex(entry) for entry in ranked] == expected, k


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
        degrees = windowed_grid_degrees(pairs, (1, r + s))
        n = r * s
        top = sorted(degrees.values(), reverse=True)[:n]
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
    with pytest.raises(ConstructionError):
        bichromatic_lower_construction(3, 8, 1, 32)  # single red hyperplane
    with pytest.raises(ConstructionError):
        bichromatic_lower_construction(3, 8, 4, 7)  # p = 0
    with pytest.raises(ConstructionError):
        bichromatic_lower_construction(4, 5, 4, 625)  # no blue family members
    with pytest.raises(ConstructionError):
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
    [(3, 8, 3, 4), (3, 12, 5, 6), (4, 10, 3, 4), (4, 12, 7, 9), (5, 12, 4, 8)],
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
    with pytest.raises(ConstructionError):
        theta_mk_construction(3, 5, 2, 5)  # grid of 5 + 2 bundle > 5


def test_thetamk_vertices_are_true_vertices():
    from spanflats import validate_vertices

    built = theta_mk_construction(3, 6, 2, 2)
    assert validate_vertices(built.arrangement) == (True, True)


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
    assert max_collinear(pts) == 3


def test_purdy_output_passes_own_predicates():
    for d, k in [(4, 2), (5, 2)]:
        pts = purdy_counterexample(d, k, seed=1)
        lines = [list(pts[i * k : (i + 1) * k]) for i in range(d - 1)]
        assert verify_covering_lines(d, lines) is None


def test_purdy_domain_errors():
    with pytest.raises(ConstructionError):
        purdy_counterexample(3, 2)
    with pytest.raises(ConstructionError):
        purdy_counterexample(4, 1)


def test_verify_covering_lines_catches_degeneracies():
    # two lines meeting at a point are not in general position in E^4
    a = [Point((0, 0, 0, 0)), Point((1, 0, 0, 0))]
    b = [Point((0, 0, 0, 0)), Point((0, 1, 0, 0))]
    c = [Point((5, 0, 0, 1)), Point((5, 0, 1, 0))]
    failure = verify_covering_lines(4, [a, b, c])
    assert failure is not None and "rank" in failure


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
    failure = verify_covering_lines(d, lines)
    assert (failure is None) == oracle.verify_covering_lines(d, lines)
    assert failure == oracle.first_maximal_failure(d, lines)


def test_theta_mk_huge_m_is_infeasible_not_overflow():
    # p = floor(m^(1/3)) for m = 10^400 is past float range
    with pytest.raises(ConstructionError, match="need n >="):
        theta_mk_construction(5, 10, 2, 10**400)
