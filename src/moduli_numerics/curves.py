"""Determinantal space curves and the cohomology of their ideal sheaves.

A determinantal curve with parameter s >= 1 is cut out by the maximal minors
of a generic s x (s+1) matrix of linear forms on P^3.  Its ideal sheaf J has
the Hilbert-Burch resolution

    0 -> O(-s-1)^s -> O(-s)^(s+1) -> J -> 0,

and every number in this module is read off that resolution together with the
restriction sequence 0 -> J(n) -> O(n) -> O_C(n) -> 0.  Smooth curves with
this resolution exist for every s; smoothness itself is never checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import binom_poly
from .p3cohom import FreeSheafSum, chi_free_sum, h_free_sum, h_line


@dataclass(frozen=True)
class DeterminantalCurve:
    """The degree, genus and two-term resolution of a determinantal curve.

    ``syzygies`` is the kernel term O(-s-1)^s and ``generators`` the middle
    term O(-s)^(s+1) of the Hilbert-Burch resolution of the ideal sheaf.
    """

    s: int
    degree: int
    genus: int
    syzygies: FreeSheafSum
    generators: FreeSheafSum


@dataclass(frozen=True)
class CurveInvariants:
    """Least-twist invariants of a space curve.

    s_of_c: first twist n with h^0(J(n)) != 0 (a surface through the curve).
    e_of_c: last twist n with h^1(O_C(n)) != 0.
    t_of_c: first twist with h^1(J) != 0, infinity when h^1(J) vanishes always.
    nstar_bound: h^0 of the twisted conormal bundle N* vanishes below this twist.
    jsq_bound: h^0 of the twisted squared ideal J^2 vanishes below this twist.
    """

    s_of_c: int
    e_of_c: int
    t_of_c: float
    nstar_bound: int
    jsq_bound: int


def determinantal_curve(s: int) -> DeterminantalCurve:
    """Build the determinantal curve with parameter s >= 1.

    Degree and genus are derived from the Hilbert polynomial of the
    resolution; the degree is cross-checked against the closed form
    s(s+1)/2 for the locus of maximal minors.
    """
    if s < 1:
        raise ValueError(f"determinantal parameter must be >= 1, got {s}")
    syzygies = FreeSheafSum.of([(-s - 1, s)])
    generators = FreeSheafSum.of([(-s, s + 1)])

    def chi_structure(n: int) -> int:
        chi_ideal_n = chi_free_sum(generators, n) - chi_free_sum(syzygies, n)
        return binom_poly(n + 3, 3) - chi_ideal_n

    # chi(O_C(n)) = degree * n + 1 - genus, so two values pin both constants.
    degree = chi_structure(1) - chi_structure(0)
    genus = 1 - chi_structure(0)
    if degree != s * (s + 1) // 2:
        raise RuntimeError(f"degree {degree} at s={s} differs from its closed form s(s+1)/2")
    return DeterminantalCurve(
        s=s, degree=degree, genus=genus, syzygies=syzygies, generators=generators
    )


def chi_ideal(curve: DeterminantalCurve, n: int) -> int:
    """chi(J(n)) from the resolution, valid at every integer n."""
    return chi_free_sum(curve.generators, n) - chi_free_sum(curve.syzygies, n)


def h_ideal(curve: DeterminantalCurve, i: int, n: int) -> int:
    """h^i(P^3, J(n)) for the ideal sheaf of a determinantal curve.

    h^0 is h^0(generators) - h^0(syzygies): the resolution's first map is
    injective on global sections, so the difference is exact.  h^1 vanishes
    identically (the middle term has no h^1 and the kernel no h^2).  h^2 is
    routed through h^1(O_C(n)), which is determined by chi and h^0; the rank
    of the dual matrix map would not be determined by the resolution shape
    alone.  h^3 agrees with h^3(O(n)) because the curve has no cohomology in
    degrees 2 and 3.
    """
    if i == 0:
        value = h_free_sum(0, curve.generators, n) - h_free_sum(0, curve.syzygies, n)
        if value < 0:
            raise RuntimeError(f"negative h^0(J({n})) = {value} for s={curve.s}")
        return value
    if i == 1:
        return 0
    if i == 2:
        return h_curve_structure(curve, 1, n)
    if i == 3:
        return h_line(3, n)
    raise ValueError(f"cohomology index must be in 0..3, got {i}")


def h_curve_structure(curve: DeterminantalCurve, i: int, n: int) -> int:
    """h^i(C, O_C(n)) for i in {0, 1}.

    h^0 comes from the restriction sequence (exact because h^1(J(n)) = 0),
    h^1 from Riemann-Roch on the curve: chi(O_C(n)) = degree*n + 1 - genus.
    """
    if i not in (0, 1):
        raise ValueError(f"curve cohomology index must be 0 or 1, got {i}")
    h0_ideal_n = h_free_sum(0, curve.generators, n) - h_free_sum(0, curve.syzygies, n)
    h0 = h_line(0, n) - h0_ideal_n
    if h0 < 0:
        raise RuntimeError(f"negative h^0(O_C({n})) = {h0} for s={curve.s}")
    if i == 0:
        return h0
    h1 = h0 - (curve.degree * n + 1 - curve.genus)
    if h1 < 0:
        raise RuntimeError(f"negative h^1(O_C({n})) = {h1} for s={curve.s}")
    return h1


def curve_invariants(curve: DeterminantalCurve) -> CurveInvariants:
    """Scan the cohomology tables for the least-twist invariants.

    s_of_c scans h^0(J(n)) upward from 0.  e_of_c scans h^1(O_C(n)) downward
    from s - 2, where the resolution proves it vanishes: h^1(O_C(n)) =
    h^2(J(n)) because O(n) has no h^1 or h^2, and the long exact sequence of
    0 -> O(-s-1)^s -> O(-s)^(s+1) -> J -> 0 injects h^2(J(n)) into
    h^3(O(n-s-1))^s, which is zero once n-s-1 >= -3.  The start is checked,
    so a wrong bound raises instead of being returned as e_of_c, and the scan
    takes a constant number of steps at every s.
    t_of_c is reported as infinity after sweeping h^1(J(n)) = 0.
    The conormal and squared-ideal vanishing ranges are the established ones
    for the determinantal family: twists below s and below 2s respectively.
    """
    s_scan = 0
    while h_ideal(curve, 0, s_scan) == 0:
        s_scan += 1
        if s_scan > 4 * curve.s + 8:
            raise RuntimeError(f"h^0(J(n)) stayed zero far past expectation for s={curve.s}")

    e_scan = curve.s - 2
    if h_curve_structure(curve, 1, e_scan) != 0:
        raise RuntimeError(
            f"h^1(O_C({e_scan})) != 0 for s={curve.s}, against the resolution's vanishing"
        )
    e_scan -= 1
    while h_curve_structure(curve, 1, e_scan) == 0:
        e_scan -= 1
        if e_scan < -(curve.genus + 6):
            raise RuntimeError(f"h^1(O_C(n)) never became nonzero for s={curve.s}")

    for n in range(-5, 3 * curve.s + 1):
        if h_ideal(curve, 1, n) != 0:
            raise RuntimeError(f"unexpected h^1(J({n})) != 0 for s={curve.s}")

    return CurveInvariants(
        s_of_c=s_scan,
        e_of_c=e_scan,
        t_of_c=math.inf,
        nstar_bound=curve.s,
        jsq_bound=2 * curve.s,
    )
