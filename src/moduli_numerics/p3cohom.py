"""Cohomology of twisted line bundles and of O(t)^r on P^3.

Everything here is the four-line table for O(n) on projective 3-space:
h^0 and h^3 are binomial counts, h^1 and h^2 vanish identically, and the
free sum O(t)^r has r times the table of O(t).  Euler characteristics are
computed from the polynomial binomial directly, never by summing truncated
h's; the test suite cross-asserts that both routes agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import PreconditionError, binom_poly, binom_trunc


class _FreeSheafSum(NamedTuple):
    twist: int
    rank: int


class FreeSheafSum(_FreeSheafSum):
    """The free sum O(twist)^rank of one line bundle, rank >= 1.

    Construction checks the rank; ``_replace`` and ``_make`` build the tuple
    directly and skip the check.
    """

    __slots__ = ()

    def __new__(cls, twist: int, rank: int) -> FreeSheafSum:
        if rank < 1:
            raise PreconditionError(f"rank must be >= 1, got {rank} for twist {twist}")
        return super().__new__(cls, twist, rank)


def h_line(i: int, n: int) -> int:
    """h^i(P^3, O(n)): counting h^0, vanishing middle, Serre-dual h^3."""
    if i == 0:
        return binom_trunc(n + 3, 3)
    if i in (1, 2):
        return 0
    if i == 3:
        return binom_trunc(-n - 1, 3)
    raise PreconditionError(f"cohomology index must be in 0..3, got {i}")


def chi_line(n: int) -> int:
    """chi(P^3, O(n)) = (n+1)(n+2)(n+3)/6, valid at every integer n."""
    return binom_poly(n + 3, 3)


def h_free_sum(i: int, sheaf: FreeSheafSum, n: int) -> int:
    """h^i of O(twist)^rank, twisted by n."""
    return sheaf.rank * h_line(i, sheaf.twist + n)


def chi_free_sum(sheaf: FreeSheafSum, n: int) -> int:
    """Euler characteristic of O(twist)^rank, twisted by n."""
    return sheaf.rank * chi_line(sheaf.twist + n)
