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
from itertools import combinations
from math import comb
from random import Random
from typing import Sequence

import numpy as np

from .arith import PreconditionError
from .curves import check_parameter

Exponent = tuple[int, int, int, int]

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
        1 at pivots[i] and 0 at every other pivot column.  Each pivot reads
        its column and row mod p, so an update subtracts at most (p-1)^2 from
        an entry; the matrix is reduced only after as many unreduced updates
        as int64 can absorb (2 at p = 2^31 - 1, vastly more for small p).  At
        the first pivot-free column of each run of them, the loop stops if
        the unpivoted rows are zero mod p from there on: no later column can
        hold a pivot, so the result is the one a full sweep gives.  Testing
        once per run makes at most one test per pivot, each over no more
        entries than a rank update that touches every row.
        """
        p = self.p
        a = self.entries.copy()
        nrows, ncols = a.shape
        budget = (2**63 - 1 - p) // (p - 1) ** 2
        pending = 0
        pivots: list[int] = []
        test_rest = True
        for c in range(ncols):
            r = len(pivots)
            if r == nrows:
                break
            column = a[:, c] % p
            nz = column[r:].nonzero()[0]
            if nz.size == 0:
                if test_rest and not (a[r:, c + 1 :] % p).any():
                    break
                test_rest = False
                continue
            test_rest = True
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
    """(a @ b) mod p for int64 matrices with entries in 0..p-1, computed exactly.

    a is split into base-2^w digits.  With inner dimension k, every partial
    sum of a digit's product is a nonnegative integer at most
    k (2^w - 1)(p - 1); w is the widest width, up to the bit length of p - 1,
    that keeps it below 2^53, where float64 holds each one exactly, whatever
    order BLAS adds them in.  Each digit's product runs in float64, is reduced
    after the cast back to int64 (float64 remainder is slower) and is added
    in at its shift.  At p = 101 and 32003 that is one digit, a itself.
    """
    k, bits = a.shape[1], (p - 1).bit_length()
    w = min(bits, ((2**53 - 1) // (k * (p - 1) or 1) + 1).bit_length() - 1)
    if w < 1:
        raise RuntimeError(f"no exact float64 product mod {p} with inner dimension {k}")
    out = 0
    for shift in range(0, bits, w):
        digit = a if w == bits else a >> shift & (1 << w) - 1
        part = np.matmul(digit, b, dtype=np.float64).astype(np.int64)
        part %= p
        if shift:
            part *= pow(2, shift, p)
            part += out
            part %= p
        out = part
    return out


@lru_cache(maxsize=64)
def _column_of(degree: int) -> np.ndarray:
    """Index of each exponent in monomials(degree), looked up by its first three entries."""
    basis = np.array(monomials(degree), dtype=np.intp).reshape(-1, 4)
    column_of = np.zeros((degree + 1,) * 3, dtype=np.intp)
    column_of[basis[:, 0], basis[:, 1], basis[:, 2]] = np.arange(len(basis))
    column_of.flags.writeable = False
    return column_of


@lru_cache(maxsize=256)
def _product_columns(multipliers: tuple[Exponent, ...], total_degree: int) -> np.ndarray:
    """Entry [j, k]: the degree-``total_degree`` column of multipliers[j] * monomials(d)[k]."""
    shift = np.array(multipliers, dtype=np.intp)
    basis = np.array(monomials(total_degree - sum(multipliers[0])), dtype=np.intp).reshape(-1, 4)
    products = shift[:, None, :] + basis[None, :, :]
    columns = _column_of(total_degree)[products[..., 0], products[..., 1], products[..., 2]]
    columns.flags.writeable = False
    return columns


def _macaulay_matrix(
    forms: np.ndarray, multipliers: Sequence[Exponent], total_degree: int
) -> np.ndarray:
    """Coefficient rows of {form * multiplier} over the degree-``total_degree`` monomials.

    ``forms`` holds coefficient rows over monomials(d), and every multiplier
    has degree total_degree - d.  Row ``i * len(multipliers) + j`` is forms[i]
    times multipliers[j]; columns follow monomials(total_degree).
    """
    columns = _product_columns(tuple(multipliers), total_degree)
    m = len(multipliers)
    rows = np.arange(len(forms) * m).reshape(len(forms), m)
    matrix = np.zeros((len(forms) * m, comb(total_degree + 3, 3)), dtype=np.int64)
    matrix[rows[:, :, None], columns[None, :, :]] = forms[:, None, :]
    return matrix


_UNITS: tuple[Exponent, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_X1 = _UNITS[1]


@lru_cache(maxsize=128)
def _maximal_minors(s: int, p: int, seed: int) -> np.ndarray:
    """The s+1 maximal minors of a seeded random s x (s+1) matrix of linear forms.

    Row i holds the coefficients, over monomials(s), of the minor without
    column i.  One Laplace expansion runs up the rows from the empty minor 1.
    After row s - t, ``minors`` holds the minor on each t-set of columns and
    the last t rows, in combinations() order, so every smaller minor is
    computed once and shared by all that contain it.  A level is one product
    mod p: the signed entries of row s - t, placed at (t-set, (t-1)-subset,
    variable), times the (t-1)-minors multiplied by each variable.
    """
    rng = Random(seed)
    # Entry [row, column, k] is the coefficient of x_k.
    matrix = np.array([rng.randrange(p) for _ in range(4 * s * (s + 1))], dtype=np.int64)
    matrix = matrix.reshape(s, s + 1, 4)
    minors, index = np.ones((1, 1), dtype=np.int64), {(): 0}
    for t in range(1, s + 1):
        signed = np.stack([matrix[s - t], -matrix[s - t] % p])
        sets = list(combinations(range(s + 1), t))
        weights = np.zeros((len(sets), len(index), 4), dtype=np.int64)
        for k, cols in enumerate(sets):
            for i, j in enumerate(cols):
                weights[k, index[cols[:i] + cols[i + 1 :]]] = signed[i % 2, j]
        multiples = _macaulay_matrix(minors, _UNITS, t)
        minors = _matmul_mod(weights.reshape(len(sets), -1), multiples, p)
        index = {cols: k for k, cols in enumerate(sets)}
    # combinations() yields the set without column s first and without column 0 last.
    minors = minors[::-1]
    minors.flags.writeable = False
    return minors


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
        # Twist d - 1, where the ideal is zero; ranks[i] is the rank at twist d - 1 + i.
        self.n, self.added, self.ranks = d - 1, 0, [0]
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(comb(d + 2, 3))
        self.block = np.zeros((0, len(self.free)), dtype=np.int64)

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
        # Monomials without x0 come first in monomials(n); x0 maps monomials(n - 1)
        # onto the rest in order, so column c of twist n - 1 is x0_free + c here.
        x0_free = comb(n + 2, 2)
        free = np.concatenate([np.arange(x0_free), x0_free + self.free])
        pending = new_rows[:, free]
        pending[:, x0_free:] -= _matmul_mod(new_rows[:, x0_free + self.pivots], self.block, p)
        found, reduced = FiniteFieldMatrix(p, pending).reduced_echelon()
        keep = np.ones(len(free), dtype=bool)
        keep[found] = False
        # B_{n+1}: x0*B_n, zero on the x0-free columns, over the reduced new rows.
        old = len(self.block)
        block = np.zeros((old + len(found), len(free) - len(found)), dtype=np.int64)
        top = block[:old]
        top[:, np.count_nonzero(keep[:x0_free]) :] = self.block[:, keep[x0_free:]]
        back = found >= x0_free
        if back.any():
            top -= _matmul_mod(self.block[:, found[back] - x0_free], reduced[back][:, keep], p)
            top %= p
        block[old:] = reduced[:, keep]
        self.pivots = np.concatenate([x0_free + self.pivots, free[found]])
        self.free, self.block = free[keep], block
        self.n, self.added = n, len(found)
        self.ranks.append(len(self.pivots))


# verify runs each chain to its last twist before building the next, so one slot
# would serve it; the oracle benchmark interleaves three seeds and both powers.
@lru_cache(maxsize=6)
def _chain(s: int, p: int, seed: int, power: int) -> _Chain:
    """A chain of the minor ideal (power 1) or its square (power 2), built at twist power*s - 1.

    Its forms are the minors, or the products f_i * f_j (i <= j) of minors,
    of degree exactly power * s.  The cache hands the same chain to every
    later call, which advances it in place.
    """
    forms = minors = _maximal_minors(s, p, seed)
    if power == 2:
        # f_i * f_j for i <= j, from one Macaulay block f_i * monomials(s) at a time.
        blocks = (_macaulay_matrix(minors[i : i + 1], monomials(s), 2 * s) for i in range(s + 1))
        forms = np.vstack([_matmul_mod(minors[i:], b, p) for i, b in enumerate(blocks)])
    return _Chain(p, forms, power * s)


def _power_rank(s: int, n: int, p: int, seed: int, power: int) -> int:
    """Degree-n dimension of the minor ideal (power 1) or its square (power 2), as a rank.

    The value is 0 for every n below the forms' degree power * s.  Each
    cached chain advances one twist at a time and keeps the rank at every
    twist it passes, so a lower twist is read back.
    """
    _require_prime(p)
    check_parameter(s)
    d = power * s
    if n < d:
        return 0
    chain = _chain(s, p, seed, power)
    while chain.n < n:
        chain.advance()
    return chain.ranks[n - d + 1]


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
