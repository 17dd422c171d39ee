"""The packed reading of a difference: threshold and leading sign off one
integer, against the coefficient lists it stands for."""

from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycorder.comparator import difference_threshold
from cycorder.cyclotomic import PACK_WIDTH, packed_value, pair_width


@st.composite
def coefficient_tuples(draw):
    """Up to 40 integers of absolute value at most a height in [1, 10^6]."""
    height = draw(st.integers(1, 10**6))
    return tuple(draw(st.lists(st.integers(-height, height), min_size=1, max_size=40)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(coefficient_tuples(), coefficient_tuples())
@example((63,), (0,))  # the largest height read at PACK_WIDTH
@example((63,), (-1,))  # the smallest one that needs a wider packing
@example((0, 0, 10**6), (-(10**6), 0, 10**6))
@example((5, -2), (5, -2))  # equal operands: threshold 0, sign 0
def test_difference_threshold_matches_coefficients(a, b):
    bound = max(map(abs, a)) + max(map(abs, b))
    width = pair_width(bound)
    assert width % 8 == 0 and 4 * bound < 2**width
    assert width == PACK_WIDTH or 4 * bound >= 2 ** (width - 8)  # the smallest such width
    x = packed_value(a, width) - packed_value(b, width)
    diff = [u - v for u, v in zip_longest(a, b, fillvalue=0)]
    assert difference_threshold(x, width, len(diff), bound) == max(map(abs, diff))
    top = next((d for d in reversed(diff) if d), 0)
    assert (x > 0) - (x < 0) == (top > 0) - (top < 0)


def test_difference_threshold_rejects_a_bound_below_the_coefficients():
    x = packed_value((1, 5), PACK_WIDTH) - packed_value((0, 1), PACK_WIDTH)  # D = 1 + 4t
    assert difference_threshold(x, PACK_WIDTH, 2, 4) == 4
    with pytest.raises(ArithmeticError):
        difference_threshold(x, PACK_WIDTH, 2, 3)
