"""Natural-cohomology bounds and predicted Hilbert profiles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_numerics import natcohom
from moduli_numerics.arith import PreconditionError
from moduli_numerics.natcohom import (
    beta_for_hypersurface,
    gamma,
    hilbert_profile,
    natural_cohomology_threshold,
)
from moduli_numerics.surfaces import chi_E, chi_OX, hypersurface


def test_beta_examples():
    assert beta_for_hypersurface(4) == 3
    assert beta_for_hypersurface(5) == 4
    assert beta_for_hypersurface(6) == 6


@given(st.integers(4, 300))
def test_beta_is_smallest_integer_past_the_bound(delta):
    beta = beta_for_hypersurface(delta)
    # strictly above 3*delta/2 - 4, and the integer below is not
    assert 2 * beta > 3 * delta - 8 >= 2 * (beta - 1)
    assert 2 * beta >= delta - 4


def test_gamma_examples():
    assert gamma(hypersurface(4), 3) == 40
    assert gamma(hypersurface(4), 2) == 20
    assert gamma(hypersurface(6), 6) == 166


def test_gamma_rejects_beta_below_midpoint():
    with pytest.raises(ValueError):
        gamma(hypersurface(10), 2)  # k = 6, need 2*beta >= 6


def test_threshold_examples():
    assert natural_cohomology_threshold(4) == 40 == gamma(hypersurface(4), 3)
    assert natural_cohomology_threshold(6) == 166
    five = natural_cohomology_threshold(5)
    assert five == Fraction(1065, 12)
    assert five.denominator != 1  # strict rational bound for odd degree


def test_threshold_dominates_gamma():
    for delta in range(4, 61):
        surface = hypersurface(delta)
        bound = natural_cohomology_threshold(delta)
        g = gamma(surface, beta_for_hypersurface(delta))
        assert g <= bound
        if delta % 2 == 0:
            assert g == bound == 2 * chi_OX(surface, 3 * delta // 2 - 3)
        else:
            assert g < bound


def test_threshold_identity_failure_raises_runtime_error(monkeypatch):
    real = natcohom.chi_OX_poly
    monkeypatch.setattr(natcohom, "chi_OX_poly", lambda surface, t: real(surface, t) + 1)
    with pytest.raises(RuntimeError, match="delta=6"):
        natural_cohomology_threshold(6)


def test_threshold_off_chi_at_an_integer_raises_runtime_error(monkeypatch):
    # The rational-point check reads chi_OX_poly, so only the even-degree one sees this.
    real = natcohom.chi_OX
    monkeypatch.setattr(natcohom, "chi_OX", lambda surface, n: real(surface, n) + 1)
    with pytest.raises(RuntimeError, match=r"even delta=6 is not 2\*chi\(O_X\) at an integer"):
        natural_cohomology_threshold(6)
    natural_cohomology_threshold(5)


def test_gamma_above_threshold_raises_runtime_error(monkeypatch):
    real = natcohom.gamma
    monkeypatch.setattr(natcohom, "gamma", lambda surface, beta: real(surface, beta) + 1)
    with pytest.raises(RuntimeError, match="gamma exceeds the threshold at delta=6"):
        natural_cohomology_threshold(6)


def test_profile_positive_chi_at_midpoint_raises_runtime_error(monkeypatch):
    real = natcohom.chi_E
    monkeypatch.setattr(natcohom, "chi_E", lambda surface, c2, n: real(surface, c2, n) + 10**6)
    with pytest.raises(RuntimeError, match=r"chi\(E\(0\)\) > 0 at the midpoint with c2=41"):
        hilbert_profile(hypersurface(4), 41, -2, 4)


def test_profile_mirror_failure_raises_runtime_error(monkeypatch):
    real = natcohom.chi_E
    monkeypatch.setattr(natcohom, "chi_E", lambda surface, c2, n: real(surface, c2, n) + n)
    with pytest.raises(RuntimeError, match="mirror"):
        hilbert_profile(hypersurface(5), 200, -2, 4)


def test_profile_rows_for_quartic():
    profile = hilbert_profile(hypersurface(4), 41, -6, 10)
    rows = {row.n: (row.h0, row.h1, row.h2) for row in profile.rows}
    assert rows[3] == (0, 1, 0)
    assert rows[0] == (0, 37, 0)
    assert rows[5] == (63, 0, 0)
    assert profile.beta == 3 and profile.gamma == 40


def test_profile_refused_at_or_below_gamma():
    with pytest.raises(ValueError):
        hilbert_profile(hypersurface(4), 40, -2, 6)
    with pytest.raises(ValueError):
        hilbert_profile(hypersurface(4), 12, -2, 6)


def test_profile_duality_for_trivial_canonical():
    profile = hilbert_profile(hypersurface(4), 41, -8, 8)
    by_n = {row.n: row for row in profile.rows}
    for n in range(-8, 9):
        row, mirror = by_n[n], by_n[-n]
        assert (row.h0, row.h1, row.h2) == (mirror.h2, mirror.h1, mirror.h0)


def test_profile_rejects_empty_range():
    with pytest.raises(ValueError):
        hilbert_profile(hypersurface(4), 41, 5, 4)
    # A range over the row cap is refused too, before any row is built.
    with pytest.raises(PreconditionError, match="has 1000000001 rows, more than 100000"):
        hilbert_profile(hypersurface(4), 41, 0, 10**9)


@settings(deadline=None)
@given(st.integers(4, 12), st.integers(1, 60))
def test_profile_structure(delta, extra):
    surface = hypersurface(delta)
    c2 = gamma(surface, beta_for_hypersurface(delta)) + extra
    k = surface.k
    profile = hilbert_profile(surface, c2, -6, k + 8)
    by_n = {row.n: row for row in profile.rows}
    for row in profile.rows:
        # at most one nonzero group, chi bookkeeping, h^2 clean above midpoint
        assert row.h0 * row.h1 == 0 and row.h1 * row.h2 == 0 and row.h0 * row.h2 == 0
        assert row.h0 - row.h1 + row.h2 == row.chi == chi_E(surface, c2, row.n)
        if 2 * row.n >= k:
            assert row.h2 == 0
        mirror = by_n.get(k - row.n)
        if mirror is not None:
            assert (row.h0, row.h1, row.h2) == (mirror.h2, mirror.h1, mirror.h0)
    # single crossover: h^1 rows precede h^0 rows in the upper half
    upper = [row for row in profile.rows if 2 * row.n >= k]
    kinds = ["h1" if row.h1 else ("h0" if row.h0 else "zero") for row in upper]
    order = {"h1": 0, "zero": 1, "h0": 2}
    assert kinds == sorted(kinds, key=order.__getitem__)
    assert kinds.count("zero") <= 1
