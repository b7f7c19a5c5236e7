"""Determinantal-curve cohomology: resolution route against restriction route."""

import dataclasses
import math

import pytest

from moduli_numerics import curves
from moduli_numerics.arith import binom_poly
from moduli_numerics.curves import (
    chi_ideal,
    curve_invariants,
    determinantal_curve,
    h_curve_structure,
    h_ideal,
)
from moduli_numerics.p3cohom import h_free_sum, h_line


def test_degree_genus_small():
    expected = {1: (1, 0), 2: (3, 0), 3: (6, 3), 4: (10, 11), 5: (15, 26)}
    for s, (degree, genus) in expected.items():
        curve = determinantal_curve(s)
        assert (curve.degree, curve.genus) == (degree, genus)


def test_degree_genus_closed_forms():
    for s in range(1, 13):
        curve = determinantal_curve(s)
        assert curve.degree == s * (s + 1) // 2
        assert 6 * curve.genus == (s - 1) * (s - 2) * (2 * s + 3)


def test_resolution_terms():
    curve = determinantal_curve(4)
    assert curve.syzygies.terms == ((-5, 4),)
    assert curve.generators.terms == ((-4, 5),)


def test_ideal_h0_examples():
    assert h_ideal(determinantal_curve(2), 0, 1) == 0
    # the three quadrics through a twisted cubic
    assert h_ideal(determinantal_curve(2), 0, 2) == 3
    assert h_ideal(determinantal_curve(3), 2, 0) == 3


def test_structure_sheaf_examples():
    assert h_curve_structure(determinantal_curve(3), 1, 0) == 3
    assert h_curve_structure(determinantal_curve(2), 1, 0) == 0
    assert h_curve_structure(determinantal_curve(4), 1, 1) == 4


def test_invariants_examples():
    inv4 = curve_invariants(determinantal_curve(4))
    assert (inv4.s_of_c, inv4.e_of_c, inv4.nstar_bound, inv4.jsq_bound) == (4, 1, 4, 8)
    assert math.isinf(inv4.t_of_c)
    inv1 = curve_invariants(determinantal_curve(1))
    assert (inv1.s_of_c, inv1.e_of_c, inv1.nstar_bound, inv1.jsq_bound) == (1, -2, 1, 2)
    inv3 = curve_invariants(determinantal_curve(3))
    assert (inv3.s_of_c, inv3.e_of_c) == (3, 0)
    # the canonical sextic: h^1(O_C) jumps at 0 and is gone at 1
    assert h_curve_structure(determinantal_curve(3), 1, 0) != 0
    assert h_curve_structure(determinantal_curve(3), 1, 1) == 0


@pytest.mark.parametrize("s", range(1, 13))
def test_scanned_invariants_match_closed_forms(s):
    inv = curve_invariants(determinantal_curve(s))
    assert inv.s_of_c == s
    assert inv.e_of_c == s - 3


def reference_e_of_c(curve):
    """e(C) by the Riemann-Roch scan: h^1(O_C(n)) = 0 once degree * n > 2g - 2.

    Starts at max(2g, s) and reads h^1 off degree, genus and line-bundle h^0
    alone, with no call into the curves module.
    """
    s = curve.s

    def h1(n):
        h0_ideal = (s + 1) * h_line(0, n - s) - s * h_line(0, n - s - 1)
        return h_line(0, n) - h0_ideal - (curve.degree * n + 1 - curve.genus)

    n = max(2 * curve.genus, s)
    while h1(n) == 0:
        n -= 1
    return n


def test_e_of_c_matches_riemann_roch_scan():
    for s in range(1, 41):
        curve = determinantal_curve(s)
        assert curve_invariants(curve).e_of_c == reference_e_of_c(curve), s


@pytest.mark.parametrize("s", [10, 50, 200])
def test_e_of_c_scan_makes_constant_work(monkeypatch, s):
    calls = []
    real = curves.h_curve_structure

    def counting(curve, i, n):
        calls.append(n)
        return real(curve, i, n)

    monkeypatch.setattr(curves, "h_curve_structure", counting)
    assert curve_invariants(determinantal_curve(s)).e_of_c == s - 3
    assert len(calls) <= 4, calls


@pytest.mark.parametrize("shift", [-1, 1])
def test_tampered_genus_raises_runtime_error(shift):
    curve = determinantal_curve(5)
    tampered = dataclasses.replace(curve, genus=curve.genus + shift)
    with pytest.raises(RuntimeError, match="s=5"):
        curve_invariants(tampered)


@pytest.mark.parametrize("s", range(1, 13))
def test_euler_closure(s):
    curve = determinantal_curve(s)
    for n in range(-10, 3 * s + 1):
        alternating = sum((-1) ** i * h_ideal(curve, i, n) for i in range(4))
        chi_structure = curve.degree * n + 1 - curve.genus
        assert alternating == binom_poly(n + 3, 3) - chi_structure
        assert chi_ideal(curve, n) == alternating


@pytest.mark.parametrize("s", range(1, 13))
def test_h2_against_long_exact_sequence(s):
    # 0 -> H^2(J) -> H^3(syzygies) -> H^3(generators) -> H^3(J) -> 0
    curve = determinantal_curve(s)
    for n in range(-8, 3 * s + 1):
        cross = (
            h_free_sum(3, curve.syzygies, n)
            - h_free_sum(3, curve.generators, n)
            + h_ideal(curve, 3, n)
        )
        assert h_ideal(curve, 2, n) == cross


@pytest.mark.parametrize("s", range(1, 13))
def test_h1_ideal_vanishes_everywhere(s):
    curve = determinantal_curve(s)
    assert all(h_ideal(curve, 1, n) == 0 for n in range(-5, 3 * s + 1))


@pytest.mark.parametrize("s", range(1, 13))
def test_h1_structure_at_last_nonzero_twist(s):
    assert h_curve_structure(determinantal_curve(s), 1, s - 3) == s


@pytest.mark.parametrize("s", range(1, 9))
def test_h0_ideal_nondecreasing(s):
    curve = determinantal_curve(s)
    values = [h_ideal(curve, 0, n) for n in range(-5, 3 * s + 1)]
    assert values == sorted(values)


def test_rejects_bad_parameter():
    with pytest.raises(ValueError):
        determinantal_curve(0)


def test_rejects_bad_index():
    curve = determinantal_curve(2)
    with pytest.raises(ValueError):
        h_ideal(curve, 4, 0)
    with pytest.raises(ValueError):
        h_curve_structure(curve, 2, 0)
