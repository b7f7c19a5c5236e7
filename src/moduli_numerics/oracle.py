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
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from random import Random
from typing import Sequence

import numpy as np

from .arith import PreconditionError
from .curves import check_parameter

Exponent = tuple[int, int, int, int]
Poly = dict[Exponent, int]

_MAX_PRIME = 2**31  # leaves int64 room for at least two unreduced rank updates


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
    """A dense matrix over Z/p whose rank is taken by int64 row elimination."""

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
        """Gaussian elimination below each pivot, with delayed reduction mod p.

        Rows are first stable-sorted by leading column.  Each pivot reads its
        column and row mod p, so an update subtracts at most (p-1)^2 from an
        entry; the block below is reduced only after as many unreduced updates
        as int64 can absorb (2 at p = 2^31 - 1, vastly more for small p).
        """
        p = self.p
        a = self.entries
        nrows, ncols = a.shape
        # A trailing all-true column gives a zero row the leading column ncols.
        lead = np.argmax(np.column_stack([a != 0, np.ones(nrows, dtype=bool)]), axis=1)
        a = a[np.argsort(lead, kind="stable")]
        budget = (2**63 - 1 - p) // (p - 1) ** 2
        pending = 0
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            column = a[r:, c] % p
            nz = np.flatnonzero(column)
            if nz.size == 0:
                continue
            pivot = r + int(nz[0])
            if pivot != r:
                a[[r, pivot]] = a[[pivot, r]]
            row = a[r, c:] % p
            row = row * pow(int(row[0]), -1, p) % p
            if nz.size > 1:
                a[r + nz[1:], c:] -= np.outer(column[nz[1:]], row)
                pending += 1
                if pending == budget:
                    a[r + 1 :, c:] %= p
                    pending = 0
            r += 1
        return r


def _poly_mul(f: Poly, g: Poly, p: int) -> Poly:
    out: Poly = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2], ef[3] + eg[3])
            out[e] = (out.get(e, 0) + cf * cg) % p
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=128)
def _maximal_minors(s: int, p: int, seed: int) -> tuple[Poly, ...]:
    """The s+1 maximal minors of a seeded random s x (s+1) matrix of linear forms.

    One Laplace expansion runs up the rows from the empty minor 1.  After row
    s - t, ``minors`` maps each t-set of columns to the minor on those columns
    and the last t rows, so every smaller minor is computed once and shared by
    all that contain it.
    """
    rng = Random(seed)
    units: list[Exponent] = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    matrix = [
        [
            {e: c for e, c in zip(units, (rng.randrange(p) for _ in range(4))) if c}
            for _ in range(s + 1)
        ]
        for _ in range(s)
    ]
    minors: dict[tuple[int, ...], Poly] = {(): {(0, 0, 0, 0): 1}}
    for t in range(1, s + 1):
        row, larger = matrix[s - t], {}
        for cols in combinations(range(s + 1), t):
            acc: Poly = {}
            for i, j in enumerate(cols):
                for e, c in _poly_mul(row[j], minors[cols[:i] + cols[i + 1 :]], p).items():
                    acc[e] = (acc.get(e, 0) + (-c if i % 2 else c)) % p
            larger[cols] = {e: c for e, c in acc.items() if c}
        minors = larger
    # combinations() yields the set without column s first and without column 0 last.
    return tuple(reversed(minors.values()))


def _macaulay_matrix(forms: Sequence[Poly], shift_degree: int, total_degree: int) -> np.ndarray:
    """Coefficient rows of {form * monomial} over the degree-``total_degree`` monomials.

    Row ``i * len(multipliers) + j`` is forms[i] times monomials(shift_degree)[j];
    columns follow monomials(total_degree).
    """
    multipliers = np.array(monomials(shift_degree), dtype=np.intp)
    basis = np.array(monomials(total_degree), dtype=np.intp)
    # An exponent of degree d is fixed by its first three entries.
    column_of = np.zeros((total_degree + 1,) * 3, dtype=np.intp)
    column_of[basis[:, 0], basis[:, 1], basis[:, 2]] = np.arange(len(basis))
    owner = np.array([i for i, form in enumerate(forms) for _ in form], dtype=np.intp)
    exponents = np.array([e for form in forms for e in form], dtype=np.intp).reshape(-1, 4)
    coefficients = np.array([c for form in forms for c in form.values()], dtype=np.int64)
    shifted = multipliers[:, None, :] + exponents[None, :, :]
    rows = owner[None, :] * len(multipliers) + np.arange(len(multipliers))[:, None]
    matrix = np.zeros((len(forms) * len(multipliers), len(basis)), dtype=np.int64)
    matrix[rows, column_of[shifted[..., 0], shifted[..., 1], shifted[..., 2]]] = coefficients
    return matrix


def _power_rank(s: int, n: int, p: int, seed: int, power: int) -> int:
    """Degree-n dimension of the ``power``-th power of the minor ideal, as a rank.

    Its forms are the products of ``power`` minors, of degree exactly
    power * s, so the value is 0 for every n below that.
    """
    _require_prime(p)
    check_parameter(s)
    if n < power * s:
        return 0
    forms = [
        reduce(lambda f, g: _poly_mul(f, g, p), factors)
        for factors in combinations_with_replacement(_maximal_minors(s, p, seed), power)
    ]
    return FiniteFieldMatrix(p, _macaulay_matrix(forms, n - power * s, n)).rank()


def h0_ideal_oracle(s: int, n: int, p: int, seed: int) -> int:
    """h^0(J(n)) measured as the rank of degree-n multiples of the minors."""
    return _power_rank(s, n, p, seed, 1)


def h0_ideal_square_oracle(s: int, n: int, p: int, seed: int) -> int:
    """Degree-n dimension of the square of the minor ideal, measured as a rank.

    The value is 0 for every n < 2s; values at n >= 2s are measurements,
    recorded as found.
    """
    return _power_rank(s, n, p, seed, 2)


def majority(values: Sequence[int]) -> int | None:
    """The strict-majority value of a sequence, or None when there is none."""
    if not values:
        return None
    value, count = Counter(values).most_common(1)[0]
    return value if 2 * count > len(values) else None
