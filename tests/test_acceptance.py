"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import statistics
from fractions import Fraction as F
from itertools import combinations

from spanflats import (
    BiArrangement,
    Point,
    affine_hull,
    bichromatic_lower_construction,
    bound_envelope,
    count_bichromatic,
    hyperplane,
    meet,
    pigeonhole_check,
    purdy_counterexample,
    purdy_counts,
    rank_sum_cover,
    spanned_flats,
    theta_mk_construction,
)
from spanflats.cli import beck3_instance
from spanflats.formulas import ceil_scaled_power, fit_loglog, floor_scaled_power
from spanflats.spans import max_cover_plane_or_two_lines

PURDY_GRID = [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)]

# Spanned-plane/(n k^2) floor for plane-planted instances, recorded from the
# calibration run pinned in this suite; the asymptotic constant itself is
# nonconstructive and not reproducible.
BECK3_RATIO_FLOOR = 0.5


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_purdy_formula_exactness():
    failures = []
    for d, k in PURDY_GRID:
        counts = purdy_counts(d, k)
        points = purdy_counterexample(d, k, seed=0)
        h_enum = spanned_flats(points, d - 1).count
        g_enum = spanned_flats(points, d - 2).count
        if (h_enum, g_enum) != (counts.h_total, counts.g_total):
            failures.append((d, k, h_enum, counts.h_total, g_enum, counts.g_total))
    _report(
        "criterion 1: formula/enumeration exactness on the (d,k) grid",
        not failures,
        f"grid {PURDY_GRID}" if not failures else f"mismatches {failures}",
    )


def test_criterion_2_counterexample_property():
    bad_ratio = []
    coverable = []
    for d, k in PURDY_GRID:
        counts = purdy_counts(d, k)
        if counts.g_total <= counts.h_total:
            bad_ratio.append((d, k))
        points = purdy_counterexample(d, k, seed=0)
        if rank_sum_cover(points, d + 1) is not None:
            coverable.append((d, k))
    _report(
        "criterion 2: g > h and no cover of total rank <= d+1",
        not bad_ratio and not coverable,
        f"g<=h at {bad_ratio}; coverable at {coverable}" if bad_ratio or coverable else "",
    )


def test_criterion_3_growth_exponents():
    # An OLS fit reads the leading exponent only where the lower-order terms
    # are negligible. For d=4, h = 3k^2 + 3 and g = k^3 + 6k, and with n = 3k
    # the local log-log slopes are
    #   h: 2 - 2/(k^2 + 1),   >= 1.7 exactly when k >= 3;
    #   g: 3 - 12/(k^2 + 6),  >= 2.7 exactly when k >= 6 (1.8 at k=2).
    # Both stay below 2 and 3 for every k, since every lower-order
    # coefficient is positive. If the local slope lies in [a, b] over the
    # whole window, so does the OLS slope: y - a*x never decreases as x
    # grows, so its covariance with x is >= 0 (likewise for b). The doublings
    # k = 8..256 keep every point at k >= 6, evenly spaced in log n; they
    # give h 1.9963, g 2.9785. A g growing as k^2 would fit near 2 and fail.
    h_series = []
    g_series = []
    for k in (8, 16, 32, 64, 128, 256):
        counts = purdy_counts(4, k)
        n = k * 3
        h_series.append((n, counts.h_total))
        g_series.append((n, counts.g_total))
    h_slope = fit_loglog(h_series).slope
    g_slope = fit_loglog(g_series).slope
    ok = 1.7 <= h_slope <= 2.05 and 2.7 <= g_slope <= 3.05
    _report(
        "criterion 3: growth exponents of the closed-form series",
        ok,
        f"h slope {h_slope:.4f}, g slope {g_slope:.4f}",
    )


def test_criterion_4_theta_mk_regime():
    checked = 0
    failures = []
    for n in (6, 10, 14):
        for m in range(2, n // 2 + 1):
            built = theta_mk_construction(3, n, 1, m)
            bundle = built.bundle_size
            for k in range(1, bundle + 1):
                built = theta_mk_construction(3, n, k, m)
                arrangement = built.arrangement
                # naive O(mn) oracle, written out directly
                oracle = 0
                for p in arrangement.vertices:
                    for h in arrangement.red:
                        if h.contains(p):
                            oracle += 1
                if oracle != m * k or built.red_incidences != oracle:
                    failures.append((n, m, k, oracle))
                checked += 1
    _report(
        "criterion 4: red incidences equal m*k in the small-m regime",
        not failures,
        f"{checked} instances" if not failures else f"failures {failures}",
    )


def test_criterion_5_bichromatic_envelope_band():
    ratios = []
    for i in range(4):  # three doublings
        n = 8 * 2**i
        k = n // 2
        built = bichromatic_lower_construction(3, n, k, m=4 * n)
        arrangement = built.arrangement
        measured = count_bichromatic(arrangement).red_incidences
        env = bound_envelope(arrangement.m, arrangement.k, arrangement.n, 3)
        ratios.append(measured / env.total)
    band = max(ratios) / min(ratios)
    monotone_growth = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = band <= 4.0 and not monotone_growth
    _report(
        "criterion 5: envelope ratio stays in a 4x band over three doublings",
        ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f"; band {band:.2f}x",
    )


def _oracle_spanned(points, f):
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


def test_criterion_6_oracle_equivalence():
    rng = random.Random("acceptance-oracles")
    span_checked = count_checked = 0
    for instance in range(200):
        d = rng.choice((2, 3, 4))
        n = rng.randint(3, 10)
        points = [
            Point(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
            for _ in range(n)
        ]
        f = rng.randint(0, d - 1)
        mine = spanned_flats(points, f)
        oracle = _oracle_spanned(points, f)
        assert mine.count == len(oracle), (instance, d, f)
        span_checked += 1

        hyps = []
        while len(hyps) < min(8, rng.randint(2, 8)):
            coeffs = [rng.randint(-3, 3) for _ in range(d)]
            if any(coeffs):
                h = hyperplane(coeffs, rng.randint(-3, 3))
                if h not in hyps:
                    hyps.append(h)
        split = rng.randint(1, len(hyps))
        red, blue = tuple(hyps[:split]), tuple(hyps[split:])
        from spanflats.spans import arrangement_vertices

        vertices = tuple(arrangement_vertices(hyps)[: rng.randint(0, 6)])
        arrangement = BiArrangement(d, red, blue, vertices)
        report = count_bichromatic(arrangement)
        naive_red = sum(1 for p in vertices for h in red if h.contains(p))
        naive_total = sum(1 for p in vertices for h in hyps if h.contains(p))
        assert report.red_incidences == naive_red
        assert report.total_incidences == naive_total
        assert report.per_point_red_degree == tuple(
            sum(1 for h in red if h.contains(p)) for p in vertices
        )
        count_checked += 1
    _report(
        "criterion 6: oracle equivalence on 200 random instances",
        span_checked == 200 and count_checked == 200,
        f"{span_checked} enumeration and {count_checked} counting checks",
    )


def test_criterion_7_pigeonhole_property():
    rng = random.Random("acceptance-pigeonhole")
    exponents = (F(3, 2), F(2), F(3))
    constants = (F(1, 4), F(1, 2), F(1))
    checked = 0
    while checked < 1000:
        k = rng.randint(1, 64)
        a = rng.choice(exponents)
        c = rng.choice(constants)
        cap = floor_scaled_power(F(1), k, a - 1)
        target = ceil_scaled_power(c, k, a)
        if cap * k < target:
            continue  # no admissible allocation at this corner
        remaining = target
        entries = []
        for i in range(k):
            slots_left = k - 1 - i
            lo = max(0, remaining - cap * slots_left)
            hi = min(cap, remaining)
            entry = rng.randint(lo, hi)
            entries.append(entry)
            remaining -= entry
        if remaining != 0:
            continue
        assert pigeonhole_check(entries, c, a) is True, (k, a, c, entries)
        checked += 1
    _report("criterion 7: pigeonhole conclusion on 1000 admissible allocations", True)


def test_criterion_8_beck_erdos_3d():
    cells = {}
    hypothesis_failures = []
    for n in (20, 30, 40):
        for k in (3, 5, 7):
            ratios = []
            for seed in range(5):
                points, _ = beck3_instance(n, k, seed, "plane")
                cover = max_cover_plane_or_two_lines(points)
                if cover.covered_count != n - k:
                    hypothesis_failures.append((n, k, seed, cover.covered_count))
                planes = spanned_flats(points, 2).count
                ratios.append(planes / (n * k * k))
            cells[(n, k)] = ratios
    all_ratios = [r for cell in cells.values() for r in cell]
    floor_value = min(all_ratios)
    median_value = statistics.median(all_ratios)
    stable = median_value / floor_value < 3.0
    ok = (
        not hypothesis_failures
        and floor_value > 0
        and floor_value >= BECK3_RATIO_FLOOR
        and stable
    )
    _report(
        "criterion 8: planted spanned-plane ratios have a stable positive floor",
        ok,
        f"min {floor_value:.3f}, median {median_value:.3f}, "
        f"median/min {median_value / floor_value:.2f}x, "
        f"hypothesis failures {hypothesis_failures}",
    )
