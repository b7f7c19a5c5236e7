"""Hypersurface Hilbert-polynomial numerics and their dualities."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import moduli_numerics
from moduli_numerics.arith import binom_poly
from moduli_numerics.surfaces import (
    SurfaceNumerics,
    chi_E,
    chi_OX,
    chi_OX_poly,
    expected_dim,
    hypersurface,
)


def test_hypersurface_examples():
    assert hypersurface(4) == SurfaceNumerics(4, 0, 2, delta=4)
    assert hypersurface(5) == SurfaceNumerics(5, 1, 5, delta=5)
    assert hypersurface(6) == SurfaceNumerics(6, 2, 11, delta=6)


def test_chi_examples():
    assert chi_OX(hypersurface(4), 3) == 20
    assert chi_OX(hypersurface(4), 0) == 2
    assert chi_OX(hypersurface(5), 1) == 5


def test_expected_dim_examples():
    assert expected_dim(hypersurface(4), 8) == 26
    assert expected_dim(hypersurface(4), 0) == -6
    assert expected_dim(hypersurface(5), 10) == 25


def test_chi_E_examples():
    assert chi_E(hypersurface(4), 41, 3) == -1
    assert chi_E(hypersurface(4), 4, 0) == 0
    assert chi_E(hypersurface(4), 8, 2) == 12


def test_restriction_and_riemann_roch_agree():
    # Two derivations of chi(O_X(n)): restriction from P^3 vs Riemann-Roch.
    for delta in range(4, 31):
        surface = hypersurface(delta)
        for n in range(-20, 21):
            restriction = binom_poly(n + 3, 3) - binom_poly(n - delta + 3, 3)
            assert chi_OX(surface, n) == restriction


def test_duality_symmetry():
    for delta in range(4, 31):
        surface = hypersurface(delta)
        for n in range(-20, 21):
            assert chi_OX(surface, n) == chi_OX(surface, surface.k - n)


@given(st.integers(4, 60), st.integers(-10**6, 10**6))
def test_expected_dim_step(delta, c2):
    surface = hypersurface(delta)
    assert expected_dim(surface, c2 + 1) - expected_dim(surface, c2) == 4


def test_polynomial_evaluation_matches_integers():
    surface = hypersurface(7)
    for n in range(-6, 7):
        assert chi_OX_poly(surface, n) == chi_OX(surface, n)
    half = Fraction(1, 2)
    assert chi_OX_poly(surface, half) == surface.chi0 + Fraction(7, 2) * half * (half - 3)


def test_validation():
    with pytest.raises(ValueError):
        hypersurface(3)


def test_chi_OX_parity_check_raises_runtime_error():
    # A hypersurface has H^2 * (k + 1) even; a surface altered with ``_replace``
    # to break that must still not yield a silently floored chi, also under python -O.
    surface = hypersurface(5)._replace(k=0)
    with pytest.raises(RuntimeError, match="adjunction parity"):
        chi_OX(surface, 1)


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no library check may be one.
    package = Path(moduli_numerics.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
