"""Exact integer and rational arithmetic.

Python integers are already sign/magnitude bignums and ``fractions.Fraction``
already keeps a reduced numerator over a positive denominator, so this module
adds only the error type of the library's input checks, the one twist-range
rule of every per-twist table, and the pair of binomial conventions the
cohomology formulas rely on:

* ``binom_trunc`` is the counting binomial: it vanishes as soon as the top
  argument drops below the bottom one (in particular for every negative top).
  It measures dimensions and is never negative.
* ``binom_poly`` is the degree-k polynomial m(m-1)...(m-k+1)/k! evaluated at
  an arbitrary integer.  It computes Euler characteristics and may be
  negative.

The two agree on m >= 0 and nowhere else; conflating them silently corrupts
every downstream number, hence two names and no switching flag.
"""

from __future__ import annotations

from math import comb, factorial


class PreconditionError(ValueError):
    """An argument outside the domain a function is defined on.

    The CLI reports these as bad input (exit 3); any other ``ValueError`` that
    escapes the library is a bug and is reported as an internal error.
    """


# One table row per twist; far above the default range of curve --s 40, 123 rows.
MAX_TWIST_ROWS = 10**5


def twist_range(n_min: int, n_max: int) -> range:
    """The twists n_min..n_max, refused before any row is built if empty or over MAX_TWIST_ROWS."""
    if n_min > n_max:
        raise PreconditionError(f"empty twist range {n_min}..{n_max}")
    if n_max - n_min >= MAX_TWIST_ROWS:
        raise PreconditionError(
            f"twist range {n_min}..{n_max} has {n_max - n_min + 1} rows,"
            f" more than {MAX_TWIST_ROWS}"
        )
    return range(n_min, n_max + 1)


def binom_trunc(m: int, k: int) -> int:
    """Binomial coefficient C(m, k), truncated to 0 whenever m < k."""
    if k < 0:
        raise PreconditionError(f"k must be non-negative, got {k}")
    if m < k:
        return 0
    return comb(m, k)


def binom_poly(m: int, k: int) -> int:
    """The polynomial m(m-1)...(m-k+1)/k! at an arbitrary integer m."""
    if k < 0:
        raise PreconditionError(f"k must be non-negative, got {k}")
    num = 1
    for j in range(k):
        num *= m - j
    # A product of k consecutive integers is divisible by k!, so this is exact.
    return num // factorial(k)
