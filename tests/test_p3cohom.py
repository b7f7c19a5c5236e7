"""The four-line cohomology table on P^3 and the free sums O(t)^r."""

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
    assert h_free_sum(0, FreeSheafSum(-2, 3), 2) == 3
    assert chi_free_sum(FreeSheafSum(-4, 1), 0) == -1
    s = 3
    assert h_free_sum(3, FreeSheafSum(-s - 1, s), s - 3) == 3


@given(st.integers(-8, 8), st.integers(-4, 0))
def test_multiplicity_validation(twist, rank):
    with pytest.raises(ValueError, match=f"rank must be >= 1, got {rank}"):
        FreeSheafSum(twist, rank)


@given(st.integers(-8, 8), st.integers(1, 4), st.integers(-10, 10))
def test_linearity_over_terms(twist, rank, n):
    sheaf = FreeSheafSum(twist, rank)
    for i in range(4):
        assert h_free_sum(i, sheaf, n) == rank * h_line(i, twist + n)
    assert chi_free_sum(sheaf, n) == rank * chi_line(twist + n)


@given(st.integers(-8, 8), st.integers(1, 4), st.integers(-12, 12))
def test_chi_equals_alternating_truncated_sum(twist, rank, n):
    sheaf = FreeSheafSum(twist, rank)
    alternating = sum((-1) ** i * h_free_sum(i, sheaf, n) for i in range(4))
    assert alternating == chi_free_sum(sheaf, n)
