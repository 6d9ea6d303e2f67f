import json
import re
from fractions import Fraction

import oracle
from oracle import meet
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats.constructions import bichromatic_lower_construction
from spanflats.incidence import BiArrangement, bound_envelope, count_bichromatic
from spanflats.kernel import GeometryError, Point, hyperplane


def axes3():
    return (
        hyperplane((1, 0, 0), 0),
        hyperplane((0, 1, 0), 0),
        hyperplane((0, 0, 1), 0),
    )


def naive_red_count(arrangement):
    return sum(
        1
        for p in arrangement.vertices
        for h in arrangement.red
        if h.contains(p)
    )


def test_all_red_axes():
    a = BiArrangement(3, axes3(), (), (Point((0, 0, 0)),))
    report = count_bichromatic(a)
    assert report.red_incidences == 3
    assert report.total_incidences == 3
    assert report.per_point_red_degree == (3,)
    assert report.red_incident_vertex_count == 1


def test_one_red_two_blue():
    x0, y0, z0 = axes3()
    a = BiArrangement(3, (z0,), (x0, y0), (Point((0, 0, 0)),))
    report = count_bichromatic(a)
    assert report.red_incidences == 1
    assert report.total_incidences == 3


def test_construction_matches_naive_oracle():
    built = bichromatic_lower_construction(3, 8, 4, 32)
    report = count_bichromatic(built.arrangement)
    assert report.red_incidences == naive_red_count(built.arrangement)
    assert report.red_incidences == built.red_incidences


def test_monochromatic_total_equals_red():
    built = bichromatic_lower_construction(3, 8, 4, 32)
    mono = BiArrangement(
        3, built.arrangement.red, (), built.arrangement.vertices
    )
    report = count_bichromatic(mono)
    assert report.red_incidences == report.total_incidences


def test_duplicate_across_colors_identified():
    x0, y0, _ = axes3()
    dup = BiArrangement(3, (x0, y0), (y0,), ())
    with pytest.raises(GeometryError, match=r"red\[1\] and blue\[0\]"):
        count_bichromatic(dup)


def test_non_hyperplane_rejected():
    a = BiArrangement(3, (hyperplane((1, 0), 0),), (), ())
    with pytest.raises(GeometryError, match=r"^red\[0\]: not a hyperplane of E\^3"):
        count_bichromatic(a)


@pytest.mark.parametrize("where, red, blue, vertices", [
    ("red[2]: repeats red[0]", (0, 1, 0), (), ()),
    ("blue[1]: repeats blue[0]", (), (2, 2), ()),
    ("vertices[1]: repeats vertices[0]", (0,), (1,), ((0, 0, 0), (0, 0, 0))),
])
def test_repeated_entry_rejected(where, red, blue, vertices):
    # counted once each, a repeat would add its incidences again
    axes = axes3()
    a = BiArrangement(3, tuple(axes[i] for i in red), tuple(axes[i] for i in blue),
                      tuple(map(Point, vertices)))
    with pytest.raises(GeometryError, match=f"^{re.escape(where)}$"):
        count_bichromatic(a)


def _vertex_flags(a: BiArrangement) -> tuple[bool, bool]:
    """(every listed vertex is a true arrangement vertex, every listed vertex
    is on a red hyperplane)."""
    true_vertices = set(oracle.arrangement_vertices(a.red + a.blue))
    return set(a.vertices) <= true_vertices, all(count_bichromatic(a).per_point_red_degree)


def test_validate_vertices_flags():
    x0, y0, z0 = axes3()
    good = BiArrangement(3, (x0, y0, z0), (), (Point((0, 0, 0)),))
    assert _vertex_flags(good) == (True, True)

    not_vertex = BiArrangement(3, (x0, y0, z0), (), (Point((1, 1, 1)),))
    assert _vertex_flags(not_vertex)[0] is False

    built = bichromatic_lower_construction(3, 8, 4, 32)
    assert _vertex_flags(built.arrangement) == (True, True)


def test_validate_red_incidence_flag_separately():
    x0, y0, z0 = axes3()
    w = hyperplane((1, 1, 1), 3)
    # (0,0,0) is a vertex of the blue arrangement but touches no red
    a = BiArrangement(3, (w,), (x0, y0, z0), (Point((0, 0, 0)),))
    assert _vertex_flags(a) == (True, False)


def test_biarrangement_json_round_trip():
    built = bichromatic_lower_construction(3, 8, 4, 32)
    doc = json.loads(json.dumps(built.arrangement.to_json_dict()))
    again = BiArrangement.from_json_dict(doc)
    assert again == built.arrangement


@st.composite
def small_arrangements(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    hyps = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        coeffs = tuple(
            draw(st.integers(min_value=-2, max_value=2)) for _ in range(d)
        )
        if not any(coeffs):
            continue
        h = hyperplane(coeffs, draw(st.integers(min_value=-2, max_value=2)))
        if h not in hyps:
            hyps.append(h)
    if len(hyps) < 2:
        hyps = [hyperplane((1,) + (0,) * (d - 1), 0), hyperplane((0,) * (d - 1) + (1,), 0)]
    split = draw(st.integers(min_value=1, max_value=len(hyps)))
    vertices = tuple(oracle.arrangement_vertices(hyps))
    return BiArrangement(d, tuple(hyps[:split]), tuple(hyps[split:]), vertices)


@given(small_arrangements())
@settings(max_examples=50, deadline=None)
def test_count_matches_inline_scan(arrangement):
    report = count_bichromatic(arrangement)
    red = sum(1 for p in arrangement.vertices for h in arrangement.red if h.contains(p))
    total = red + sum(
        1 for p in arrangement.vertices for h in arrangement.blue if h.contains(p)
    )
    assert report.red_incidences == red
    assert report.total_incidences == total
    assert sum(report.per_point_red_degree) == red
    assert report.red_incident_vertex_count <= arrangement.m



SCALES = st.sampled_from([Fraction(s) for s in (1, 2, 3, -1, -2, "1/2", "-1/3", "2/3", "-3/2")])
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def parallel_family_arrangements(draw):
    """Parallel families whose members have normals scaled by negative and
    fractional factors and rational offsets (so parallel canonical rows
    differ), any red/blue split, and rational vertices drawn on meets of
    up to d of the hyperplanes and off them."""
    d = draw(st.integers(min_value=2, max_value=4))
    normals = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=-3, max_value=3)] * d).filter(any),
            min_size=1,
            max_size=3,
        )
    )
    hyps = []
    for normal in normals:
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            scale = draw(SCALES)
            h = hyperplane([scale * c for c in normal], draw(RATIONALS) * scale)
            if h not in hyps:
                hyps.append(h)
    hyps = draw(st.permutations(hyps))
    split = draw(st.integers(min_value=0, max_value=len(hyps)))
    vertices = []  # distinct: an arrangement that repeats a vertex is refused
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if draw(st.booleans()):
            vertex = Point([draw(RATIONALS) for _ in range(d)])
        else:
            chosen = draw(st.lists(st.sampled_from(hyps), min_size=1, max_size=d, unique=True))
            flat = chosen[0]
            for h in chosen[1:]:
                flat = meet(flat, h) or flat  # a parallel member leaves the flat as is
            spanning = oracle.spanning_points(flat)
            weights = [draw(RATIONALS) for _ in spanning[1:]]
            weights.insert(0, 1 - sum(weights))
            vertex = Point(
                sum(w * p.coords[i] for w, p in zip(weights, spanning)) for i in range(d)
            )
        if vertex not in vertices:
            vertices.append(vertex)
    return BiArrangement(d, tuple(hyps[:split]), tuple(hyps[split:]), tuple(vertices))


@given(parallel_family_arrangements())
@settings(max_examples=300, deadline=None)
def test_class_count_equals_all_pairs_scan(arrangement):
    assert count_bichromatic(arrangement) == oracle.count_bichromatic(arrangement)


def test_parallel_rows_with_different_normals_are_one_class():
    # x + 2y = 1 and x + 2y = 1/2 have canonical rows (1, 2 | 1) and (2, 4 | 1)
    h1, h2 = hyperplane((1, 2), 1), hyperplane((1, 2), Fraction(1, 2))
    assert h1.rows[0][:2] != h2.rows[0][:2]
    v1, v2, off = Point((1, 0)), Point((Fraction(1, 2), 0)), Point((0, 0))
    a = BiArrangement(2, (h1,), (h2,), (v1, v2, off))
    report = count_bichromatic(a)
    assert report.per_point_red_degree == (1, 0, 0)
    assert report.total_incidences == 2
    assert report == oracle.count_bichromatic(a)

# --- envelope ---------------------------------------------------------------


def test_envelope_unit_terms():
    env = bound_envelope(1, 1, 1, 2)
    assert (env.term_mixed, env.term_kn, env.term_m) == (1.0, 1, 1)
    assert env.total == 3.0


def test_envelope_hand_computed():
    env = bound_envelope(8, 4, 4, 3)
    assert env.term_mixed == 16.0  # (64*16*4)^(1/3) exactly
    assert env.term_kn == 16
    assert env.term_m == 8


def test_envelope_m_dominant_regime_flagged():
    # m beyond k^2 n^(d-2) puts the vertex-count term on top
    env = bound_envelope(2 * 4 * 9, 2, 3, 3)  # m = 2 k^2 n
    assert env.term_m > env.term_kn and env.term_m > env.term_mixed
    assert env.dominant == "m"


def test_envelope_rejects_bad_input():
    with pytest.raises(GeometryError):
        bound_envelope(4, 5, 4, 3)
    with pytest.raises(GeometryError):
        bound_envelope(0, 1, 1, 3)
    with pytest.raises(GeometryError):
        bound_envelope(1, 1, 1, 1)


def test_envelope_perfect_cube_is_exact():
    env = bound_envelope(27, 8, 8, 2)  # 27^2 * 8^2 * 8^0 = 46656 = 36^3
    assert env.term_mixed == 36.0


def test_envelope_huge_exact_cube_root():
    # the mixed term's cube 10^600 is past float range; its root is not
    env = bound_envelope(10**150, 10**150, 10**150, 2)
    assert env.term_mixed == 1e200 and env.dominant == "mixed"
    env = bound_envelope(10**150, 10**50, 10**50, 2)  # cube 10^400, not perfect
    assert env.term_mixed == pytest.approx(10 ** (400 / 3))


def test_envelope_term_past_float_range_is_input_error():
    with pytest.raises(GeometryError, match="overflow"):
        bound_envelope(10**60, 10**60, 10**60, 8)
