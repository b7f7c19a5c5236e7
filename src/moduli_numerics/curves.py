"""Determinantal space curves and the cohomology of their ideal sheaves.

A determinantal curve with parameter s >= 1 is cut out by the maximal minors
of a generic s x (s+1) matrix of linear forms on P^3.  Its ideal sheaf J has
the Hilbert-Burch resolution

    0 -> O(-s-1)^s -> O(-s)^(s+1) -> J -> 0,

and every number in this module is read off that resolution together with the
restriction sequence 0 -> J(n) -> O(n) -> O_C(n) -> 0.  The least-twist
invariants come from the resolution's shape alone, s(C) = s, e(C) = s - 3 and
t(C) = infinity, and are confirmed against the tables rather than scanned.
Smooth curves with this resolution exist for every s; smoothness itself is
never checked here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import PreconditionError
from .p3cohom import FreeSheafSum, chi_free_sum, chi_line, h_free_sum, h_line


class DeterminantalCurve(NamedTuple):
    """The degree, genus and two-term resolution of a determinantal curve.

    ``syzygies`` is the kernel term O(-s-1)^s and ``generators`` the middle
    term O(-s)^(s+1) of the Hilbert-Burch resolution of the ideal sheaf.
    """

    s: int
    degree: int
    genus: int
    syzygies: FreeSheafSum
    generators: FreeSheafSum


class CurveInvariants(NamedTuple):
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


def check_parameter(s: int) -> None:
    """The input check shared by every function of a determinantal parameter: s >= 1."""
    if s < 1:
        raise PreconditionError(f"determinantal parameter must be >= 1, got {s}")


def determinantal_curve(s: int) -> DeterminantalCurve:
    """Build the determinantal curve with parameter s >= 1.

    Degree and genus are derived from the Hilbert polynomial of the
    resolution; the degree is cross-checked against the closed form
    s(s+1)/2 for the locus of maximal minors.
    """
    check_parameter(s)
    syzygies = FreeSheafSum(-s - 1, s)
    generators = FreeSheafSum(-s, s + 1)

    def chi_structure(n: int) -> int:
        chi_ideal_n = chi_free_sum(generators, n) - chi_free_sum(syzygies, n)
        return chi_line(n) - chi_ideal_n

    # chi(O_C(n)) = degree * n + 1 - genus, so two values pin both constants.
    chi_0 = chi_structure(0)
    degree = chi_structure(1) - chi_0
    genus = 1 - chi_0
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
    raise PreconditionError(f"cohomology index must be in 0..3, got {i}")


def h_curve_structure(curve: DeterminantalCurve, i: int, n: int) -> int:
    """h^i(C, O_C(n)) for i in {0, 1}.

    h^0 comes from the restriction sequence (exact because h^1(J(n)) = 0),
    h^1 from Riemann-Roch on the curve: chi(O_C(n)) = degree*n + 1 - genus.
    """
    if i not in (0, 1):
        raise PreconditionError(f"curve cohomology index must be 0 or 1, got {i}")
    h0 = h_line(0, n) - h_ideal(curve, 0, n)
    if h0 < 0:
        raise RuntimeError(f"negative h^0(O_C({n})) = {h0} for s={curve.s}")
    if i == 0:
        return h0
    h1 = h0 - (curve.degree * n + 1 - curve.genus)
    if h1 < 0:
        raise RuntimeError(f"negative h^1(O_C({n})) = {h1} for s={curve.s}")
    return h1


def h0_ideal_square(curve: DeterminantalCurve, n: int) -> int:
    """h^0(P^3, J^2(n)) from Weyman's resolution of the squared ideal.

    With F the generators and G the syzygies of the Hilbert-Burch resolution,
    the complex 0 -> ^2 G -> G (x) F -> Sym^2 F -> J^2 -> 0 (Weyman, J. Algebra
    1979) has the free sums O(-2s)^C(s+2,2), O(-2s-1)^(s(s+1)) and
    O(-2s-2)^C(s,2).  It is exact, and h^0 therefore their alternating sum,
    when C is a smooth, codimension-2 ACM curve: the free sums have no h^1 or
    h^2, so taking sections keeps it exact.
    """
    f, r = curve.generators.twist, curve.generators.rank
    g, t = curve.syzygies.twist, curve.syzygies.rank
    value = (
        math.comb(r + 1, 2) * h_line(0, 2 * f + n)
        - r * t * h_line(0, f + g + n)
        + math.comb(t, 2) * h_line(0, 2 * g + n)
    )
    if value < 0:
        raise RuntimeError(f"negative h^0(J^2({n})) = {value} for s={curve.s}")
    return value


def curve_invariants(curve: DeterminantalCurve) -> CurveInvariants:
    """Read the least-twist invariants off the Hilbert-Burch resolution.

    s_of_c = s: h^0(J(n)) is nondecreasing in n (multiplying by a linear form
    is injective on sections) and starts at the generators' twist s.
    e_of_c = s - 3: h^1(O_C(n)) = h^2(J(n)) because O(n) has no h^1 or h^2,
    and the resolution injects h^2(J(n)) into h^3(O(n-s-1))^s, which is zero
    for n >= s - 2 and has dimension s at n = s - 3, where the generators'
    h^3(O(-3)) vanishes.
    t_of_c = infinity: h^1(J(n)) sits between h^1 of the generators and h^2 of
    the syzygies, and both of those are zero.
    jsq_bound = 2s: h^0(J^2(n)) is nondecreasing in n, vanishes at 2s - 1 and
    at 2s counts the C(s+2, 2) products of two generators.
    The conormal vanishing range is the established one for the determinantal
    family: twists below s.
    The boundaries are confirmed from the tables, so curve data that
    disagrees with its resolution raises instead of being returned.
    """
    s = curve.s
    if h_ideal(curve, 0, s - 1) != 0 or h_ideal(curve, 0, s) == 0:
        raise RuntimeError(f"h^0(J(n)) does not start at twist {s} for s={s}")
    if h_curve_structure(curve, 1, s - 2) != 0 or h_curve_structure(curve, 1, s - 3) == 0:
        raise RuntimeError(f"h^1(O_C(n)) does not end at twist {s - 3} for s={s}")
    products = math.comb(s + 2, 2)
    if h0_ideal_square(curve, 2 * s - 1) != 0 or h0_ideal_square(curve, 2 * s) != products:
        raise RuntimeError(f"h^0(J^2(n)) does not start at twist {2 * s} with C(s+2, 2) for s={s}")
    return CurveInvariants(
        s_of_c=s, e_of_c=s - 3, t_of_c=math.inf, nstar_bound=s, jsq_bound=2 * s
    )
