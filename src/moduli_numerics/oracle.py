"""Brute-force oracles for the resolution-derived cohomology dimensions.

Nothing here touches the resolution formulas: h^0 of a line bundle is an
honest monomial count, and h^0 of a twisted determinantal ideal is the rank,
over Z/p, of the span of minor-times-monomial products for a seeded random
matrix of linear forms.  Ranks over a finite field can only disagree with the
generic characteristic-zero value on a thin set of (p, seed) pairs, so checks
run several seeds and take a majority.  Every value is reproducible from
(s, n, p, seed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Sequence

import numpy as np

from .arith import PreconditionError

Exponent = tuple[int, int, int, int]
Poly = dict[Exponent, int]

_MAX_PRIME = 2**31  # keeps pivot products inside int64


def _require_prime(p: int) -> None:
    if p < 2 or p > _MAX_PRIME:
        raise PreconditionError(f"modulus must be a prime in 2..2^31, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise PreconditionError(f"modulus must be prime, got {p} = {d} * {p // d}")
        d += 1


def monomials(degree: int) -> list[Exponent]:
    """All exponent vectors of the given total degree in 4 variables."""
    if degree < 0:
        return []
    out = []
    for a in range(degree + 1):
        for b in range(degree - a + 1):
            for c in range(degree - a - b + 1):
                out.append((a, b, c, degree - a - b - c))
    return out


def h0_line_oracle(n: int) -> int:
    """Monomial count of degree n in 4 variables; 0 for negative n."""
    return len(monomials(n))


@dataclass
class FiniteFieldMatrix:
    """A dense matrix over Z/p with a naive vectorized row-echelon rank."""

    p: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _require_prime(self.p)
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 2:
            raise PreconditionError(f"matrix must be 2-dimensional, got shape {entries.shape}")
        self.entries = entries % self.p

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def rank(self) -> int:
        """Gaussian elimination, eliminating below each pivot only."""
        p = self.p
        a = self.entries.copy()
        nrows, ncols = a.shape
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            pivot = r + int(nz[0])
            if pivot != r:
                a[[r, pivot]] = a[[pivot, r]]
            inv = pow(int(a[r, c]), -1, p)
            a[r, c:] = (a[r, c:] * inv) % p
            below = np.nonzero(a[r + 1 :, c])[0]
            if below.size:
                idx = below + r + 1
                a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
            r += 1
        return r


def _poly_mul(f: Poly, g: Poly, p: int) -> Poly:
    out: Poly = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2], ef[3] + eg[3])
            out[e] = (out.get(e, 0) + cf * cg) % p
    return {e: c for e, c in out.items() if c}


def _det(rows: list[list[Poly]], p: int) -> Poly:
    # Laplace expansion along the first row; matrices here are at most s x s.
    n = len(rows)
    if n == 1:
        return dict(rows[0][0])
    acc: Poly = {}
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        term = _poly_mul(entry, _det(minor, p), p)
        sign = -1 if j % 2 else 1
        for e, c in term.items():
            acc[e] = (acc.get(e, 0) + sign * c) % p
    return {e: c for e, c in acc.items() if c}


@lru_cache(maxsize=128)
def _maximal_minors(s: int, p: int, seed: int) -> tuple[Poly, ...]:
    """The s+1 maximal minors of a seeded random s x (s+1) matrix of linear forms."""
    rng = Random(seed)
    units: list[Exponent] = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    matrix = [
        [
            {e: c for e, c in zip(units, (rng.randrange(p) for _ in range(4))) if c}
            for _ in range(s + 1)
        ]
        for _ in range(s)
    ]
    minors = []
    for drop in range(s + 1):
        sub = [[row[j] for j in range(s + 1) if j != drop] for row in matrix]
        minors.append(_det(sub, p))
    return tuple(minors)


def _span_rank(forms: Sequence[Poly], shift_degree: int, total_degree: int, p: int) -> int:
    """Rank of {form * monomial} inside the degree-``total_degree`` space."""
    multipliers = monomials(shift_degree)
    basis = {mon: idx for idx, mon in enumerate(monomials(total_degree))}
    if not multipliers or not forms:
        return 0
    rows = np.zeros((len(forms) * len(multipliers), len(basis)), dtype=np.int64)
    r = 0
    for form in forms:
        for mu in multipliers:
            for e, c in form.items():
                shifted = (e[0] + mu[0], e[1] + mu[1], e[2] + mu[2], e[3] + mu[3])
                rows[r, basis[shifted]] = c
            r += 1
    return FiniteFieldMatrix(p, rows).rank()


def h0_ideal_oracle(s: int, n: int, p: int, seed: int) -> int:
    """h^0(J(n)) measured as the rank of degree-n multiples of the minors."""
    _require_prime(p)
    if s < 1:
        raise PreconditionError(f"determinantal parameter must be >= 1, got {s}")
    if n < s:
        return 0
    return _span_rank(_maximal_minors(s, p, seed), n - s, n, p)


def h0_ideal_square_oracle(s: int, n: int, p: int, seed: int) -> int:
    """Degree-n dimension of the square of the minor ideal, measured as a rank.

    The products of two minors have degree exactly 2s, so the value is 0 for
    every n < 2s; values at n >= 2s are measurements, recorded as found.
    """
    _require_prime(p)
    if s < 1:
        raise PreconditionError(f"determinantal parameter must be >= 1, got {s}")
    if n < 2 * s:
        return 0
    minors = _maximal_minors(s, p, seed)
    products = [
        _poly_mul(minors[i], minors[j], p)
        for i in range(len(minors))
        for j in range(i, len(minors))
    ]
    return _span_rank(products, n - 2 * s, n, p)


def majority(values: Sequence[int]) -> int | None:
    """The strict-majority value of a sequence, or None when there is none."""
    if not values:
        return None
    value, count = Counter(values).most_common(1)[0]
    return value if 2 * count > len(values) else None
