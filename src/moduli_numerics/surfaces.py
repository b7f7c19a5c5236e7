"""Polarized-surface numerics: Hilbert polynomial, expected dimension, chi(E(n)).

A surface enters only through three integers: the self-intersection of the
polarization, the canonical twist k with K_X = O_X(k), and chi(O_X).  A
smooth hypersurface of degree delta in P^3 has all three, and ``hypersurface``
derives them and checks delta.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .arith import PreconditionError, binom_poly

if TYPE_CHECKING:
    from fractions import Fraction


class SurfaceNumerics(NamedTuple):
    """(H^2, canonical twist, chi(O_X)) of the degree-delta hypersurface."""

    h_square: int
    k: int
    chi0: int
    delta: int


def check_degree(delta: int) -> None:
    """The input check shared by every function of a hypersurface degree: delta >= 4."""
    if delta < 4:
        raise PreconditionError(f"hypersurface degree must be >= 4, got {delta}")


def hypersurface(delta: int) -> SurfaceNumerics:
    """Numerics of a smooth degree-delta hypersurface in P^3, delta >= 4.

    The canonical twist is delta - 4; chi(O_X) follows from the restriction
    sequence of O on P^3: 1 - chi(O(-delta)) = 1 + C(delta-1, 3).
    """
    check_degree(delta)
    return SurfaceNumerics(
        h_square=delta,
        k=delta - 4,
        chi0=1 + binom_poly(delta - 1, 3),
        delta=delta,
    )


def chi_OX(surface: SurfaceNumerics, n: int) -> int:
    """chi(O_X(n)) by Riemann-Roch: chi0 + H^2 * n(n-k)/2."""
    twice = surface.h_square * n * (n - surface.k)
    if twice % 2 != 0:
        raise RuntimeError(f"H^2 * n(n-k) = {twice} is odd at n={n}, against adjunction parity")
    return surface.chi0 + twice // 2


def chi_OX_poly(surface: SurfaceNumerics, t: Fraction | int) -> Fraction:
    """The Riemann-Roch polynomial of chi_OX evaluated at a rational point."""
    from fractions import Fraction  # only natcohom's threshold needs a rational point

    t = Fraction(t)
    return surface.chi0 + Fraction(surface.h_square, 2) * t * (t - surface.k)


def expected_dim(surface: SurfaceNumerics, c2: int) -> int:
    """Expected dimension 4*c2 - 3*chi(O_X) of the rank-2, c1 = 0 moduli space."""
    return 4 * c2 - 3 * surface.chi0


def chi_E(surface: SurfaceNumerics, c2: int, n: int) -> int:
    """chi(E(n)) = 2*chi(O_X(n)) - c2 for a rank-2 bundle with c1 = 0."""
    return 2 * chi_OX(surface, n) - c2
