"""Natural-cohomology numerics for the constructed component.

A bundle has natural cohomology when at most one of h^0, h^1, h^2 of E(n) is
nonzero for every twist n; all three are then forced by chi(E(n)) =
2*chi(O_X(n)) - c2 together with Serre duality h^2(E(n)) = h^0(E(k-n)).
This module computes the twist bound beta from which the constructed bundle
is known to behave, the resulting c2 bound gamma = 2*chi(O_X(beta)), the
closed-form threshold (13*delta^3 - 24*delta^2 + 8*delta)/12 dominating gamma
for hypersurfaces, and the predicted Hilbert profiles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import PreconditionError, twist_range
from .surfaces import SurfaceNumerics, chi_E, chi_OX, chi_OX_poly, check_degree, hypersurface


def beta_for_hypersurface(delta: int) -> int:
    """Smallest integer strictly greater than 3*delta/2 - 4.

    Equals 3*delta/2 - 3 for even delta and (3*delta - 7)/2 for odd delta,
    and always sits at or above the Serre-duality midpoint k/2.
    """
    check_degree(delta)
    return (3 * delta - 8) // 2 + 1


def gamma(surface: SurfaceNumerics, beta: int) -> int:
    """The c2 bound 2*chi(O_X(beta)); beta must sit at or above k/2."""
    if 2 * beta < surface.k:
        raise PreconditionError(f"beta must satisfy 2*beta >= k, got beta={beta}, k={surface.k}")
    return 2 * chi_OX(surface, beta)


def natural_cohomology_threshold(delta: int) -> Fraction:
    """(13*delta^3 - 24*delta^2 + 8*delta)/12, the closed form dominating gamma.

    For even delta this is exactly 2*chi(O_X(3*delta/2 - 3)); for odd delta it
    is the value of the same polynomial at the non-integral point, still an
    upper bound for gamma because the polynomial increases beyond k/2.  Both
    facts are checked, and a failed check raises RuntimeError.
    """
    check_degree(delta)
    value = Fraction(13 * delta**3 - 24 * delta**2 + 8 * delta, 12)
    surface = hypersurface(delta)
    if value != 2 * chi_OX_poly(surface, Fraction(3 * delta - 6, 2)):
        raise RuntimeError(f"threshold at delta={delta} is not 2*chi(O_X(3*delta/2 - 3))")
    if delta % 2 == 0 and value != 2 * chi_OX(surface, 3 * delta // 2 - 3):
        raise RuntimeError(f"threshold at even delta={delta} is not 2*chi(O_X) at an integer")
    if gamma(surface, beta_for_hypersurface(delta)) > value:
        raise RuntimeError(f"gamma exceeds the threshold at delta={delta}")
    return value


class ProfileRow(NamedTuple):
    n: int
    h0: int
    h1: int
    h2: int
    chi: int


class NaturalCohomologyProfile(NamedTuple):
    """Predicted (h^0, h^1, h^2) per twist for the general bundle."""

    beta: int
    gamma: int
    rows: tuple[ProfileRow, ...]


def hilbert_profile(
    surface: SurfaceNumerics, c2: int, n_min: int, n_max: int
) -> NaturalCohomologyProfile:
    """Hilbert profile of the general bundle of the constructed component.

    Each row is read off chi = chi(E(n)).  At 2n >= k, h^2(E(n)) = h^0(E(k-n))
    vanishes and the row is (max(chi, 0), max(-chi, 0), 0).  Below the
    midpoint the row is the Serre dual of its mirror k - n, whose chi is
    checked to be the same: (0, max(-chi, 0), max(chi, 0)).  Requires
    c2 > gamma: below that bound nothing is guaranteed, and emitting a
    profile would present unproven cohomology as fact, so the call is refused
    instead.

    beta is derived from the hypersurface degree.  The twists n_min..n_max
    follow ``twist_range``: nonempty and at most MAX_TWIST_ROWS of them.
    """
    twists = twist_range(n_min, n_max)
    beta = beta_for_hypersurface(surface.delta)
    bound = gamma(surface, beta)
    if c2 <= bound:
        raise PreconditionError(
            f"natural cohomology is only certified for c2 > gamma = {bound}, got c2 = {c2}"
        )
    k = surface.k
    if k % 2 == 0:
        # Unreachable once c2 > gamma, since 2*chi(O_X(t)) increases for 2t >= k;
        # a positive value here would rule natural cohomology out entirely.
        if chi_E(surface, c2, k // 2) > 0:
            raise RuntimeError(f"chi(E({k // 2})) > 0 at the midpoint with c2={c2} > gamma")

    rows = []
    for n in twists:
        chi = chi_E(surface, c2, n)
        if 2 * n >= k:
            rows.append(ProfileRow(n=n, h0=max(chi, 0), h1=max(-chi, 0), h2=0, chi=chi))
        else:
            mirror = chi_E(surface, c2, k - n)
            if chi != mirror:
                raise RuntimeError(
                    f"chi(E({n})) = {chi} differs from its mirror chi(E({k - n})) = {mirror}"
                )
            rows.append(ProfileRow(n=n, h0=0, h1=max(-chi, 0), h2=max(chi, 0), chi=chi))
    return NaturalCohomologyProfile(beta, bound, tuple(rows))
