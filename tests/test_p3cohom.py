"""The four-line cohomology table on P^3 and linearity over direct sums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moduli_numerics.arith import binom_poly
from moduli_numerics.p3cohom import FreeSheafSum, chi_free_sum, chi_line, h_free_sum, h_line


def test_table_examples():
    assert h_line(0, 2) == 10
    assert h_line(3, -4) == 1
    assert all(h_line(1, n) == 0 for n in range(-10, 11))
    assert all(h_line(2, n) == 0 for n in range(-10, 11))


def test_index_out_of_range():
    with pytest.raises(ValueError):
        h_line(4, 0)
    with pytest.raises(ValueError):
        h_line(-1, 0)


@given(st.integers(-60, 60), st.integers(0, 3))
def test_serre_duality(n, i):
    assert h_line(i, n) == h_line(3 - i, -n - 4)


def test_euler_identity_sweep():
    # chi comes from the polynomial binomial; the truncated table must agree.
    for n in range(-30, 31):
        alternating = sum((-1) ** i * h_line(i, n) for i in range(4))
        assert alternating == binom_poly(n + 3, 3) == chi_line(n)


def test_h0_nondecreasing():
    values = [h_line(0, n) for n in range(-10, 31)]
    assert values == sorted(values)


def test_free_sum_examples():
    assert h_free_sum(0, FreeSheafSum.of([(-2, 3)]), 2) == 3
    assert chi_free_sum(FreeSheafSum.of([(-4, 1)]), 0) == -1
    s = 3
    assert h_free_sum(3, FreeSheafSum.of([(-s - 1, s)]), s - 3) == 3


def test_zero_sheaf():
    zero = FreeSheafSum.of([])
    assert zero.terms == ()
    assert h_free_sum(0, zero, 5) == 0
    assert chi_free_sum(zero, 5) == 0


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        FreeSheafSum.of([(-1, 0)])


terms = st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 4)), max_size=4)


@given(terms, st.integers(-10, 10))
def test_linearity_over_terms(term_list, n):
    sheaf = FreeSheafSum.of(term_list)
    for i in range(4):
        assert h_free_sum(i, sheaf, n) == sum(m * h_line(i, t + n) for t, m in term_list)
    assert chi_free_sum(sheaf, n) == sum(m * chi_line(t + n) for t, m in term_list)
    assert sheaf.terms == tuple(term_list)


@given(terms, st.integers(-12, 12))
def test_chi_equals_alternating_truncated_sum(term_list, n):
    sheaf = FreeSheafSum.of(term_list)
    alternating = sum((-1) ** i * h_free_sum(i, sheaf, n) for i in range(4))
    assert alternating == chi_free_sum(sheaf, n)
