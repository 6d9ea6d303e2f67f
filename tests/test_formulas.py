from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanflats import (
    AllocationPreconditionError,
    FormulaDomainError,
    pigeonhole_check,
    purdy_counts,
    purdy_crossover,
)
from spanflats.formulas import ceil_scaled_power, floor_scaled_power, iroot


def test_counts_d4_k2():
    c = purdy_counts(4, 2)
    assert c.h_by_j == {1: 12, 2: 3}
    assert c.g_by_j == {0: 8, 1: 12}
    assert (c.h_total, c.g_total) == (15, 20)


def test_counts_d4_k3():
    c = purdy_counts(4, 3)
    assert (c.h_total, c.g_total) == (30, 45)


def test_counts_d5_k2():
    c = purdy_counts(5, 2)
    assert c.h_by_j == {1: 32, 2: 24}
    assert c.g_by_j == {0: 16, 1: 48, 2: 6}
    assert (c.h_total, c.g_total) == (56, 70)


def test_counts_domain():
    with pytest.raises(FormulaDomainError):
        purdy_counts(3, 2)
    with pytest.raises(FormulaDomainError):
        purdy_counts(4, 1)


def test_counts_json_shape():
    doc = purdy_counts(4, 2).to_json_dict()
    assert doc == {
        "d": 4,
        "k": 2,
        "h": {"1": 12, "2": 3},
        "g": {"0": 8, "1": 12},
        "h_total": 15,
        "g_total": 20,
    }


@pytest.mark.parametrize("d,expected", [(4, 2), (5, 2)])
def test_crossover(d, expected):
    assert purdy_crossover(d) == expected


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_crossover_minimality(d):
    k = purdy_crossover(d)
    assert purdy_counts(d, k).g_total > purdy_counts(d, k).h_total
    if k > 2:
        prev = purdy_counts(d, k - 1)
        assert prev.g_total <= prev.h_total


# --- pigeonhole -------------------------------------------------------------


def test_pigeonhole_full_allocation():
    assert pigeonhole_check([4, 4, 4, 4], 1, 2) is True


def test_pigeonhole_half_constant():
    # ceil(1/2 * 16) = 8 objects; threshold floor(1/2 * 4 / 2) = 1;
    # 2 containers qualify >= c*k/2 = 1
    assert pigeonhole_check([4, 4, 0, 0], F(1, 2), 2) is True


def test_pigeonhole_preconditions_are_distinct_errors():
    with pytest.raises(AllocationPreconditionError):
        pigeonhole_check([5, 0, 0, 0], 1, 2)  # entry above k^(a-1)
    with pytest.raises(AllocationPreconditionError):
        pigeonhole_check([1, 1, 1, 1], 1, 2)  # sums below ceil(c*k^a)
    with pytest.raises(AllocationPreconditionError):
        pigeonhole_check([1, 1], 2, 1.5)  # c > 1
    with pytest.raises(AllocationPreconditionError):
        pigeonhole_check([], 1, 2)


def admissible_allocations():
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=32))
        a = draw(st.sampled_from([F(3, 2), F(2), F(3)]))
        c = draw(st.sampled_from([F(1, 4), F(1, 2), F(1)]))
        cap = floor_scaled_power(F(1), k, a - 1)
        target = ceil_scaled_power(c, k, a)
        if cap * k < target:
            return None  # no admissible allocation exists for this corner
        remaining = target
        entries = []
        for i in range(k):
            slots_left = k - 1 - i
            lo = max(0, remaining - cap * slots_left)
            hi = min(cap, remaining)
            entry = draw(st.integers(min_value=lo, max_value=hi))
            entries.append(entry)
            remaining -= entry
        if remaining > 0:
            return None
        return entries, c, a

    return st.composite(build)()


@given(admissible_allocations())
@settings(max_examples=200, deadline=None)
def test_pigeonhole_always_holds(sample):
    if sample is None:
        return
    entries, c, a = sample
    assert pigeonhole_check(entries, c, a) is True


# --- exact power helpers ----------------------------------------------------


@given(
    st.integers(min_value=1, max_value=64),
    st.sampled_from([F(1, 4), F(1, 2), F(1)]),
    st.sampled_from([F(3, 2), F(2), F(3)]),
)
def test_floor_ceil_bracket_true_value(k, c, a):
    value = float(c) * k ** float(a)
    lo = floor_scaled_power(c, k, a)
    hi = ceil_scaled_power(c, k, a)
    assert lo <= value + 1e-9
    assert hi >= value - 1e-9
    assert hi - lo in (0, 1)


def test_floor_exact_values():
    assert floor_scaled_power(F(1), 4, F(3, 2)) == 8
    assert ceil_scaled_power(F(1), 2, F(3, 2)) == 3  # 2*sqrt(2) = 2.828
    assert floor_scaled_power(F(1, 2), 4, F(2)) == 8


@given(st.integers(0, 10**400), st.integers(1, 12))
@settings(max_examples=300)
def test_iroot_brackets_the_root(x, e):
    r = iroot(x, e)
    assert r**e <= x < (r + 1) ** e


def test_iroot_small_and_perfect_powers():
    assert [iroot(x, 2) for x in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    assert iroot(10**600, 3) == 10**200
    assert iroot(2**1000 - 1, 10) == 2**100 - 1
    with pytest.raises(ValueError):
        iroot(-1, 2)


def test_floor_scaled_power_beyond_float_range():
    # the float guess overflowed for k past 1e308
    assert floor_scaled_power(F(1), 10**400, F(1, 2)) == 10**200
    assert ceil_scaled_power(F(1), 10**400, F(1, 2)) == 10**200
