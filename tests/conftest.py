from fractions import Fraction

from hypothesis import strategies as st

from spanflats.kernel import Point


def rationals(lo: int = -5, hi: int = 5, max_den: int = 4):
    return st.fractions(min_value=Fraction(lo), max_value=Fraction(hi), max_denominator=max_den)


def points(dim: int, lo: int = -5, hi: int = 5, max_den: int = 4):
    return st.builds(
        lambda coords: Point(coords),
        st.tuples(*([rationals(lo, hi, max_den)] * dim)),
    )


def point_lists(dim: int, min_size: int, max_size: int, **kw):
    return st.lists(points(dim, **kw), min_size=min_size, max_size=max_size)
