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

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from math import comb
from random import Random
from typing import Sequence

import numpy as np

from .arith import PreconditionError
from .curves import check_parameter

Exponent = tuple[int, int, int, int]
Poly = dict[Exponent, int]

_MAX_PRIME = 2**31  # leaves int64 room for at least two unreduced rank updates


@lru_cache(maxsize=None)
def _require_prime(p: int) -> None:
    """Raise unless p is a prime in 2..2^31; each prime is trial-divided once per process."""
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
    """A dense matrix over Z/p, reduced by int64 Gauss-Jordan elimination."""

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
        """The number of pivots of the reduced echelon form."""
        return len(self.reduced_echelon()[0])

    def reduced_echelon(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Jordan elimination over Z/p, with delayed reduction mod p.

        Returns the pivot columns, increasing, and the reduced rows: row i is
        1 at pivots[i] and 0 at every other pivot column.  Rows are first
        stable-sorted by leading column.  Each pivot reads its column and row
        mod p, so an update subtracts at most (p-1)^2 from an entry; the
        matrix is reduced only after as many unreduced updates as int64 can
        absorb (2 at p = 2^31 - 1, vastly more for small p).
        """
        p = self.p
        a = self.entries
        nrows, ncols = a.shape
        # A trailing all-true column gives a zero row the leading column ncols.
        lead = np.argmax(np.column_stack([a != 0, np.ones(nrows, dtype=bool)]), axis=1)
        a = a[np.argsort(lead, kind="stable")]
        budget = (2**63 - 1 - p) // (p - 1) ** 2
        pending = 0
        pivots: list[int] = []
        for c in range(ncols):
            r = len(pivots)
            if r == nrows:
                break
            column = a[:, c] % p
            nz = column[r:].nonzero()[0]
            if nz.size == 0:
                continue
            pivot = r + int(nz[0])
            if pivot != r:
                a[[r, pivot]] = a[[pivot, r]]
                column[[r, pivot]] = column[[pivot, r]]
            row = a[r, c:] % p
            a[r, c:] = row = row * pow(int(row[0]), -1, p) % p
            column[r] = 0
            others = column.nonzero()[0]
            if others.size:
                a[others, c:] -= np.outer(column[others], row)
                pending += 1
                if pending == budget:
                    a[:, c:] %= p
                    pending = 0
            pivots.append(c)
        return np.array(pivots, dtype=np.intp), a[: len(pivots)] % p


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for int64 matrices with entries in 0..p-1, exact in int64.

    When k (p-1)^2 could overflow, a is split into 16-bit limbs and the inner
    dimension into chunks of 2^15, so every partial sum stays below 2^62.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 < 2**63:
        return a @ b % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(0, k, 2**15):
        lo, hi, part = a[:, i : i + 2**15] & 0xFFFF, a[:, i : i + 2**15] >> 16, b[i : i + 2**15]
        out = (out + lo @ part % p + (hi @ part % p << 16)) % p
    return out


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


@lru_cache(maxsize=64)
def _column_of(degree: int) -> np.ndarray:
    """Index of each exponent in monomials(degree), looked up by its first three entries."""
    basis = np.array(monomials(degree), dtype=np.intp).reshape(-1, 4)
    column_of = np.zeros((degree + 1,) * 3, dtype=np.intp)
    column_of[basis[:, 0], basis[:, 1], basis[:, 2]] = np.arange(len(basis))
    column_of.flags.writeable = False
    return column_of


@lru_cache(maxsize=256)
def _shifted_columns(multipliers: tuple[Exponent, ...], total_degree: int) -> np.ndarray:
    """Entry [j, k]: the degree-``total_degree`` column of multipliers[j] * monomials(d)[k]."""
    shift = np.array(multipliers, dtype=np.intp)
    basis = np.array(monomials(total_degree - sum(multipliers[0])), dtype=np.intp).reshape(-1, 4)
    shifted = shift[:, None, :] + basis[None, :, :]
    columns = _column_of(total_degree)[shifted[..., 0], shifted[..., 1], shifted[..., 2]]
    columns.flags.writeable = False
    return columns


def _coefficient_rows(forms: Sequence[Poly], degree: int) -> np.ndarray:
    """Dense coefficient rows of degree-``degree`` forms, columns following monomials(degree)."""
    column = {e: i for i, e in enumerate(monomials(degree))}
    rows = np.zeros((len(forms), len(column)), dtype=np.int64)
    for i, form in enumerate(forms):
        for e, c in form.items():
            rows[i, column[e]] = c
    return rows


def _macaulay_matrix(
    forms: np.ndarray, multipliers: Sequence[Exponent], total_degree: int
) -> np.ndarray:
    """Coefficient rows of {form * multiplier} over the degree-``total_degree`` monomials.

    ``forms`` holds coefficient rows over monomials(d), and every multiplier
    has degree total_degree - d.  Row ``i * len(multipliers) + j`` is forms[i]
    times multipliers[j]; columns follow monomials(total_degree).
    """
    columns = _shifted_columns(tuple(multipliers), total_degree)
    m = len(multipliers)
    rows = np.arange(len(forms) * m).reshape(len(forms), m)
    matrix = np.zeros((len(forms) * m, comb(total_degree + 3, 3)), dtype=np.int64)
    matrix[rows[:, :, None], columns[None, :, :]] = forms[:, None, :]
    return matrix


_X0, _X1 = (1, 0, 0, 0), (0, 1, 0, 0)


class _Chain:
    """The reduced basis B_n of one power ideal in its last twist n.

    Row i of B_n is 1 at column ``pivots[i]``, 0 at every other pivot column,
    and ``block[i]`` on the remaining columns ``free`` (increasing).  The last
    ``added`` rows are E_n, the rows that the step to n added.

    A step to n + 1 uses I_{n+1} = x0*I_n + x1*<E_n> + k[x2,x3]_{n+1-d}*F,
    where F is the list of forms, all of degree d, and E_d is the reduced F.
    Proof, by induction on n: every basis product m*f of I_{n+1} lies in
    x0*I_n if x0 | m, in x1*I_n if x1 | m, and in k[x2,x3]_{n+1-d}*F
    otherwise.  A step builds B_n so that I_n = x0*I_{n-1} + <E_n> (for
    n = d, I_{d-1} = 0), hence x1*I_n lies in x0*(x1*I_{n-1}) + x1*<E_n>,
    inside x0*I_n + x1*<E_n>.  Nothing here needs x0 to be a nonzerodivisor,
    so the rank is still measured on the span of the form-times-monomial
    products.
    """

    def __init__(self, p: int, forms: np.ndarray, d: int) -> None:
        self.p, self.forms, self.d = p, forms, d  # forms: coefficient rows of F over monomials(d)
        self.restart()

    def restart(self) -> None:
        """Back to twist d - 1, where the ideal is zero."""
        width = comb(self.d + 2, 3)
        self.n, self.added = self.d - 1, 0
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(width)
        self.block = np.zeros((0, width), dtype=np.int64)

    def advance(self) -> None:
        """Step from B_n to B_{n+1}, eliminating only the rows that x0*B_n misses.

        x0*B_n is already reduced: one product clears the new rows on its
        pivot columns, Gauss-Jordan reduces what remains on the other
        columns (x0-free columns first), and a second product
        back-substitutes the new pivots into x0*B_n.
        """
        p, n = self.p, self.n + 1
        last = np.zeros((self.added, comb(n + 2, 3)), dtype=np.int64)  # E_n, all columns
        last[np.arange(self.added), self.pivots[len(self.pivots) - self.added :]] = 1
        last[:, self.free] = self.block[len(self.block) - self.added :]
        x2x3 = [(0, 0, c, n - self.d - c) for c in range(n - self.d + 1)]
        new_rows = np.vstack(
            [_macaulay_matrix(last, [_X1], n), _macaulay_matrix(self.forms, x2x3, n)]
        )
        x0 = _shifted_columns((_X0,), n)[0]
        # Monomials without x0 come first in monomials(n); x0 maps the rest in order.
        x0_free = comb(n + 2, 2)
        free = np.concatenate([np.arange(x0_free), x0[self.free]])
        pending = new_rows[:, free]
        pending[:, x0_free:] -= _matmul_mod(new_rows[:, x0[self.pivots]], self.block, p)
        found, reduced = FiniteFieldMatrix(p, pending).reduced_echelon()
        keep = np.ones(len(free), dtype=bool)
        keep[found] = False
        # x0*B_n on the columns left over; it is zero on the x0-free ones.
        shifted = np.zeros((len(self.block), len(free)), dtype=np.int64)
        shifted[:, x0_free:] = self.block
        top = shifted[:, keep]
        back = found >= x0_free
        if back.any():
            top = (top - _matmul_mod(shifted[:, found[back]], reduced[back][:, keep], p)) % p
        self.pivots = np.concatenate([x0[self.pivots], free[found]])
        self.free = free[keep]
        self.block = np.vstack([top, reduced[:, keep]])
        self.n, self.added = n, len(found)


# verify and the oracle benchmark interleave three seeds and both powers.
_CHAIN_CAPACITY = 6
_chains: OrderedDict[tuple[int, int, int, int], _Chain] = OrderedDict()


def _power_rank(s: int, n: int, p: int, seed: int, power: int) -> int:
    """Degree-n dimension of the ``power``-th power of the minor ideal, as a rank.

    Its forms are the products of ``power`` minors, of degree exactly
    power * s, so the value is 0 for every n below that.  Each (s, p, seed,
    power) keeps its reduced basis in the last twist reached and advances it
    one twist at a time; a twist below that restarts the chain.
    """
    _require_prime(p)
    check_parameter(s)
    d = power * s
    if n < d:
        return 0
    key = (s, p, seed, power)
    chain = _chains.pop(key, None)
    if chain is None:
        forms = [
            reduce(lambda f, g: _poly_mul(f, g, p), factors)
            for factors in combinations_with_replacement(_maximal_minors(s, p, seed), power)
        ]
        chain = _Chain(p, _coefficient_rows(forms, d), d)
    elif n < chain.n:
        chain.restart()
    _chains[key] = chain
    if len(_chains) > _CHAIN_CAPACITY:
        _chains.popitem(last=False)
    while chain.n < n:
        chain.advance()
    return len(chain.pivots)


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
