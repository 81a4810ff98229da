"""The closed-form min/max leakage expressions against the paper's case table."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from corrleak.leakage import minmax_curves
from oracle import minmax_case_table
from test_leakage import random_systematic_scheme

#: The case table's four cases of the maximum and two of the minimum.
MAX_CASES = {"info only", "x over info", "y over info", "both over info"}
MIN_CASES = {"parity only", "side past parity"}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 7), parity=st.integers(1, 5), data=st.data())
def test_minmax_expressions_equal_the_case_table_over_random_schemes(k, parity, data):
    # Random systematic schemes with the complementary split (u2 = a1, the
    # complement of v1): at every grid point the three expressions equal the
    # written-out case table, and every grid reaches all six of its cases.
    v1 = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="v1")))
    u2 = tuple(p for p in range(k) if p not in v1)
    s = random_systematic_scheme(k, k + parity, v1, u2, seed=data.draw(st.integers(0, 999)))
    cases = set()
    for size in itertools.product(range(s.syndrome_len("x") + 1), range(s.syndrome_len("y") + 1)):
        f = minmax_curves(s, *size)
        values, case = minmax_case_table(s, *size)
        assert (f.min_bits, f.max_bits_corrected, f.max_bits_verbatim) == values, (size, case)
        cases.add(case)
    assert {c for c, _ in cases} == MAX_CASES and {c for _, c in cases} == MIN_CASES
