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


def monomials(degree: int) -> list[tuple[int, int, int, int]]:
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


def _reduced_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination over Z/p, in place on a C-ordered int64 array a.

    Returns the pivot columns, increasing, and the reduced rows: row i is 1
    at pivots[i] and 0 at every other pivot column.  Entries of a lie in
    (-p, p).  Each pivot reads its column and row mod p, so an update
    subtracts a value in 0..(p-1)^2, and a is reduced only after ``budget``
    updates (2 at p = 2^31 - 1, vastly more for small p), which leave every
    entry above -(p-1) - (2^63-1-p) > -2^63.  At the first pivot-free column
    of each run of them, the loop stops if the unpivoted rows are zero mod p
    from there on: no later column can hold a pivot, so the result is the
    one a full sweep gives.  Testing once per run makes at most one test per
    pivot, each over no more entries than a rank update that touches every
    row.
    """
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


@dataclass
class FiniteFieldMatrix:
    """A validated dense matrix over Z/p; ``rank`` reduces a copy of its entries."""

    p: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _require_prime(self.p)
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or not np.can_cast(entries.dtype, np.int64):
            raise PreconditionError(f"not a 2-D int64 matrix: {entries.dtype} {entries.shape}")
        self.entries = entries.astype(np.int64) % self.p

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def rank(self) -> int:
        """The number of pivots of the reduced echelon form."""
        return len(_reduced_echelon(self.entries.copy(), self.p)[0])


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


@lru_cache(maxsize=256)
def _product_columns(m: int, n: int) -> np.ndarray:
    """Entry [j, k]: the column of monomials(m)[j] * monomials(n - m)[k] in monomials(n)."""
    basis = np.array(monomials(n), dtype=np.intp).reshape(-1, 4)
    column_of = np.zeros((n + 1,) * 3, dtype=np.intp)  # looked up by the first three exponents
    column_of[basis[:, 0], basis[:, 1], basis[:, 2]] = np.arange(len(basis))
    shift, rest = (np.array(monomials(k), dtype=np.intp).reshape(-1, 4) for k in (m, n - m))
    products = shift[:, None, :3] + rest[None, :, :3]
    columns = column_of[products[..., 0], products[..., 1], products[..., 2]]
    columns.flags.writeable = False
    return columns


def _macaulay_matrix(forms: np.ndarray, m: int, n: int) -> np.ndarray:
    """Coefficient rows of every form times every monomial of degree m, over monomials(n).

    ``forms`` holds coefficient rows over monomials(n - m).  Row
    ``i * len(monomials(m)) + j`` is forms[i] times monomials(m)[j].
    """
    columns = _product_columns(m, n)
    rows = np.arange(len(forms) * len(columns)).reshape(len(forms), len(columns))
    matrix = np.zeros((rows.size, comb(n + 3, 3)), dtype=np.int64)
    matrix[rows[:, :, None], columns[None, :, :]] = forms[:, None, :]
    return matrix


@lru_cache(maxsize=128)
def _maximal_minors(s: int, p: int, seed: int) -> np.ndarray:
    """The s+1 maximal minors of a seeded random s x (s+1) matrix of linear forms.

    Row i holds the coefficients, over monomials(s), of the minor without
    column i.  One Laplace expansion runs up the rows from the empty minor 1.
    After row s - t, ``minors`` holds the minor on each t-set of columns and
    the last t rows, in combinations() order, so every smaller minor is
    computed once and shared by all that contain it.  A level is one gather:
    the signed entries of row s - t at each t-set's columns, times the
    multiples by each variable of the (t-1)-minors that drop those columns,
    4t products summed and the sum reduced mod p.  A product is at most
    (p - 1)^2, so the int64 sum is exact while 4t (p - 1)^2 fits; past that
    (only at primes above 1.5e9, such as 2^31 - 1) each product is reduced
    mod p before the sum.
    """
    check_inputs(s)
    rng = Random(seed)
    # Entry [row, column, k] is the coefficient of x_k.
    matrix = np.array([rng.randrange(p) for _ in range(4 * s * (s + 1))], dtype=np.int64)
    # monomials(1) lists x3, x2, x1, x0, the order of each minor's multiples.
    matrix = matrix.reshape(s, s + 1, 4)[..., ::-1]
    minors, index = np.ones((1, 1), dtype=np.int64), {(): 0}
    for t in range(1, s + 1):
        sets = list(combinations(range(s + 1), t))
        entries = matrix[s - t][np.array(sets)]
        entries[:, 1::2] = -entries[:, 1::2] % p  # the sign of each column's position
        without = np.array([[index[cols[:i] + cols[i + 1 :]] for i in range(t)] for cols in sets])
        multiples = _macaulay_matrix(minors, 1, t).reshape(len(minors), 4, -1)
        terms = multiples[without]
        terms *= entries[..., None]
        if 4 * t * (p - 1) ** 2 > 2**63 - 1:
            terms %= p
        minors = terms.sum(axis=(1, 2)) % p
        del multiples, terms  # the largest arrays, freed before the next level gathers
        index = {cols: k for k, cols in enumerate(sets)}
    # combinations() yields the set without column s first and without column 0 last.
    minors = minors[::-1]
    minors.flags.writeable = False
    return minors


def expansion_bytes(s: int) -> int:
    """The bytes of the largest Laplace level that ``_maximal_minors`` allocates at s.

    Level t holds, in int64, the 4 multiples over monomials(t) of each of the
    C(s+1, t-1) smaller minors, and their gather, t columns of them for each of
    the C(s+1, t) t-sets.  Pure arithmetic: nothing is built.
    """
    return max(
        (32 * comb(t + 3, 3) * (t * comb(s + 1, t) + comb(s + 1, t - 1)) for t in range(1, s + 1)),
        default=0,
    )


def check_inputs(max_s: int, primes: Sequence[int] = ()) -> None:
    """Raise ``PreconditionError`` on a modulus that is not a prime in 2..2^31, on
    max_s < 1, or at the first s <= max_s whose minor expansion would take over
    1 GiB in one level.

    The expansion grows with s, so the walk stops by s = 16, whatever max_s is.
    """
    for p in primes:
        _require_prime(p)
    check_parameter(max_s)
    for s in range(1, max_s + 1):
        if (need := expansion_bytes(s)) > 2**30:
            raise PreconditionError(f"the oracle supports s <= {s - 1}: one level of the s = {s}"
                                    f" minor expansion would take {need / 2**20:.1f} MiB, over 1024 MiB")


def _forms(s: int, p: int, seed: int, power: int) -> np.ndarray:
    """The forms of a chain, of degree power * s: the minors (power 1) or the products
    f_i * f_j (i <= j) of minors (power 2)."""
    minors = _maximal_minors(s, p, seed)
    if power == 1:
        return minors
    # f_i * f_j for i <= j, from one Macaulay block f_i * monomials(s) at a time.
    blocks = (_macaulay_matrix(minors[i : i + 1], s, 2 * s) for i in range(s + 1))
    return np.vstack([_matmul_mod(minors[i:], b, p) for i, b in enumerate(blocks)])


class _Chain:
    """The reduced basis B_n of one power ideal in its last twist n.

    Row i of B_n is 1 at column ``pivots[i]``, 0 at every other pivot column,
    and ``block[i]`` on the remaining columns ``free`` (increasing).  The last
    ``added`` rows are E_n, the rows that the step to n added, so that
    I_n = x0*I_{n-1} + <E_n>.  Each row of E_n has a class k in {1, 2, 3}, the
    variable that made it: x1*e and x2*e rows are classes 1 and 2, and x3*e
    rows are class 3, as are the rows that ``_reduced_echelon`` found (E_d,
    the reduced F at the forms' degree d, among them).  A step to n + 1
    multiplies each row only by the variables that may follow it:

        I_{n+1} = x0*I_n + x1*<E_n> + x2*<E_n of class >= 2> + x3*<E_n of class 3>.

    Proof, for every F and every prime, with no genericity assumption.  Call
    the right-hand side R; it lies in I_{n+1}.  Every basis product of
    I_{n+1} is x_j times a basis product of I_n, so it suffices that
    x_j*I_n lies in R for each j.
    1. A class-k row of E_n is x_k*e' for some e' in E_{n-1}, plus an element
       of x0*I_{n-1} (clearing on x0*B_{n-1}), plus rows of E_n of lower class
       (clearing on the earlier groups) and class-3 rows of E_n
       (back-substitution).
    2. So for j > k, x_j times it lies in x0*I_n + x_k*I_n + x_j*<E_n of
       class < k> + x_j*<E_n of class 3>, as x_j*e' lies in I_n.
    3. x0*I_n lies in R, and x_k*I_n = x0*(x_k*I_{n-1}) + x_k*<E_n> lies in
       x0*I_n + x_k*<E_n>.  x_k times a row of class >= k is in R by
       definition, and x_k times a row of lower class is in R by 2 and
       induction on k.  Hence x_k*I_n lies in R for k = 1, 2, 3.
    Nothing here needs x0 to be a nonzerodivisor, so the rank is still
    measured on the span of the form-times-monomial products, and F enters
    once, at twist d, where the chain starts.

    B_n is the reduced row echelon form of I_n, columns in monomials(n)
    order: each row's first nonzero entry is its pivot.  That order is
    lexicographic in the exponents of x0, x1 and x2, so the first
    C(n+3-k, 3-k) columns are the monomials free of x0..x_{k-1}, and each x_k
    maps monomials(n) into monomials(n+1) in order, x0 onto the last columns;
    x0*B_n is in echelon form.  For e of class >= k whose pivot c is free of
    x0..x_{k-1}, the reused row x_k*e has pivot x_k*c, free of x0..x_{k-1}
    and divisible by x_k, so the pivots of the three groups k are distinct
    and none is an x0-column.  x_k*e is zero before x_k*c, 1 there and 0 at
    x_k times every other pivot of B_n.  Clearing it on x0*B_n's pivots
    changes only x0-columns.  A group-j row then lies on columns divisible
    by one of x0..x_j, all past x_k*c for k > j, and zero at every later
    group's pivots.  So clearing group k on the earlier groups' pivots
    (group 2 on group 1, then group 3 on groups 1 and 2) changes only columns
    past x_k*c, keeps it zero at its own group's other pivots and keeps it
    on columns divisible by one of x0..x_k.  The rest (x_k*e for the other
    e) is cleared on x0*B_n's and all groups' pivots and reduced on the
    columns left.  Back-substituting its pivots changes no row at or before
    the row's own pivot: the row is zero at any earlier pivot, and a row of
    the rest is zero before its own.  So the result is the reduced echelon
    form of I_{n+1}, which is unique: a full elimination of the whole
    Macaulay matrix gives the same rows.

    E_n is stored as [class 1 | class 2 | class 3], class 3 in increasing
    pivot order (group 3 holds at most the row with pivot x3^n, column 0,
    ahead of the rest's pivots); ``starts`` holds the row of E_n where
    classes 1, 2 and 3 begin.  Class-1 pivots are free of x0 and class-2
    pivots free of x0 and x1, so among the rows that x_k multiplies, E_n from
    starts[k-1] on, those with a pivot free of x0..x_{k-1} lead: a step reads
    E_n in the order the last step wrote it, with no sort.

    Counting.  Call a row of class k admissible when its pivot is free of
    x0..x_{k-1}.  Once every row of E_n is, the step has no rest, and E_n is
    a Pommaret basis (Gerdt and Blinkov 1998; Seiler, Involution, 2010):
    x0*B_n and the rows x_k*e (class(e) >= k) have pairwise distinct pivots,
    since x0*B_n's are x0-columns, x_k*c is free of x0 and divisible by x_k
    but free of x_j for j < k, and each x_k is injective on monomials.  So
    they are independent, and by the identity above they span I_{n+1}.  Each
    new pivot x_k*c is free of x0..x_{k-1}, so E_{n+1} is admissible too, and
    by induction so is every later E_n.  From then on the chain drops
    ``pivots``, ``free`` and ``block`` and keeps only the class sizes: class k
    of E_{n+1} is x_k times E_n's classes >= k, so (c1, c2, c3) becomes
    (c1 + c2 + c3, c2 + c3, c3), and the rank grows by the new c1 + c2 + c3.
    A chain that never meets the condition (x0 a zero divisor modulo I, or
    coordinates that are not generic for I) eliminates at every step.
    """

    def __init__(self, p: int, forms: np.ndarray, d: int) -> None:
        self.p = p
        # B_d is the reduced F, all of class 3; ranks[i] is the rank at twist d - 1 + i.
        pivots, reduced = _reduced_echelon(forms.copy(), p)
        keep = np.ones(forms.shape[1], dtype=bool)
        keep[pivots] = False
        self.n, self.added, self.starts = d, len(pivots), (0, 0, 0)
        self.pivots, self.free, self.block = pivots, np.flatnonzero(keep), reduced[:, keep]
        self.ranks = [0, len(pivots)]

    def advance(self) -> None:
        """Step from B_n to B_{n+1}, eliminating only the rows that x0*B_n and the reused rows miss.

        x_k multiplies E_n from starts[k-1] on, and reuses the leading rows,
        those with a pivot free of x0..x_{k-1} (see the class docstring).
        When it would reuse every row, the chain counts from then on and keeps
        no basis.  Otherwise no form is multiplied again.  One product clears
        the new rows on the pivots of x0*B_n that they hit.  One product each
        then clears group 2 on group 1, group 3 on groups 1 and 2, and the
        rest on all three.  The rest is Gauss-Jordan reduced on the other
        columns (x0-free columns first), and, when it has pivots, one product
        back-substitutes them into the groups, another into x0*B_n when some
        of them are x0-columns.  E_{n+1} is written as groups 1, 2 and 3, then
        the rest's pivots in increasing order.
        """
        p, n, added = self.p, self.n + 1, self.added
        if self.block is not None:
            last = len(self.pivots) - added
            pivots, rows = self.pivots[last:], self.block[last:]  # E_n
            # x_k multiplies E_n[starts[k - 1]:] and reuses its leading rows, whose
            # pivots are among the C(n + 2 - k, 3 - k) columns free of x0..x_{k-1}.
            leads = [
                start + np.count_nonzero(pivots[start:] < comb(n + 2 - k, 3 - k))
                for k, start in zip((1, 2, 3), self.starts)
            ]
            if leads == [added] * 3:  # E_n is a Pommaret basis: count from here on
                self.pivots = self.free = self.block = None
        if self.block is None:
            # Class k of E_{n+1} is x_k times E_n[starts[k - 1]:]: the sizes
            # (c1, c2, c3) become (c1 + c2 + c3, c2 + c3, c3).
            sizes = [added - start for start in self.starts]
            self.n, self.added, self.starts = n, sum(sizes), (0, sizes[0], sizes[0] + sizes[1])
            self.ranks.append(self.ranks[-1] + self.added)
            return
        # New rows: groups 1, 2 and 3 (reused), then the rest from x1, x2 and x3.
        reused = list(zip((1, 2, 3), self.starts, leads))
        spans = reused + [(k, lead, added) for k, _, lead in reused]
        bounds = np.cumsum([0] + [stop - start for _, start, stop in spans]).tolist()
        new_rows = np.zeros((bounds[-1], comb(n + 3, 3)), dtype=np.int64)
        new_pivots = []  # column of x_k times the pivot, for each new row
        for (k, start, stop), row in zip(spans, bounds):
            xk = _product_columns(1, n)[3 - k]  # column of x_k * monomials(n - 1)[c]
            new_pivots.append(xk[pivots[start:stop]])
            new_rows[row + np.arange(stop - start), new_pivots[-1]] = 1
            new_rows[row : row + stop - start, xk[self.free]] = rows[start:stop]
        # Monomials without x0 come first in monomials(n); x0 maps monomials(n - 1)
        # onto the rest in order, so column c of twist n - 1 is x0_free + c here.
        x0_free = comb(n + 2, 2)
        free = np.concatenate([np.arange(x0_free), x0_free + self.free])
        # take() gathers in C order; the echelon runs 1.5x slower on new_rows[:, free] (Fortran).
        pending = new_rows.take(free, axis=1)
        on_pivots = new_rows.take(x0_free + self.pivots, axis=1)
        del new_rows  # nothing full-width stays alive through the clearing product
        # Only the rows of B_n whose pivots the new rows hit enter the product, as
        # in F4's symbolic preprocessing, and only the rows that hit one change.
        # This serves the chains that never count, such as many at p = 2: at
        # s = 6, n = 18 (seed 1) the new rows hit 113 of the 832 rows of B_n.
        hit, held = on_pivots.any(axis=0), on_pivots.any(axis=1)
        cleared = pending[:, x0_free:]
        on_hit = on_pivots[held][:, hit]
        cleared[held] = (cleared[held] - _matmul_mod(on_hit, self.block[hit], p)) % p
        del on_pivots, on_hit, cleared
        # The groups' pivots are x0-free, so they keep their columns in pending.
        # Clear group 2 on group 1, group 3 on groups 1 and 2, the rest on all three.
        used, edges = np.concatenate(new_pivots[:3]), [*bounds[1:4], bounds[-1]]
        for lo, hi in zip(edges, edges[1:]):
            part = pending[lo:hi]
            part -= _matmul_mod(part[:, used[:lo]], pending[:lo], p)
            part %= p  # the next part's product takes these rows as reducers
        t = edges[2]
        groups, rest = pending[:t], pending[t:]
        found, reduced = _reduced_echelon(rest, p)
        keep = np.ones(len(free), dtype=bool)
        keep[used] = False
        keep[found] = False
        kept = np.flatnonzero(keep)
        # B_{n+1}: x0*B_n, zero on the x0-free columns, over the groups' rows and the rest's.
        # take() into out= gathers without a temporary, twice as fast as a boolean mask.
        old, x0_kept = len(self.block), np.searchsorted(kept, x0_free)
        block = np.zeros((old + t + len(found), len(kept)), dtype=np.int64)
        bottom = block[old:]
        groups.take(kept, axis=1, out=bottom[:t], mode="clip")
        reduced.take(kept, axis=1, out=bottom[t:], mode="clip")
        on_found = groups[:, found]
        del pending, groups, rest, reduced  # none stays alive through the products below
        if len(found):
            bottom[:t] -= _matmul_mod(on_found, bottom[t:], p)
            bottom[:t] %= p
        top = block[:old]
        self.block.take(kept[x0_kept:] - x0_free, axis=1, out=top[:, x0_kept:], mode="clip")
        back = found >= x0_free
        if back.any():
            top -= _matmul_mod(self.block[:, found[back] - x0_free], bottom[t:][back], p)
            top %= p
        self.pivots = np.concatenate([x0_free + self.pivots, used, free[found]])
        self.free, self.block = free[kept], block
        self.n, self.added, self.starts = n, t + len(found), (0, *edges[:2])
        self.ranks.append(len(self.pivots))


# verify runs each chain to its last twist before building the next, so one slot
# would serve it; the oracle benchmark interleaves three seeds and both powers.
@lru_cache(maxsize=6)
def _chain(s: int, p: int, seed: int, power: int) -> _Chain:
    """A chain of the minor ideal (power 1) or its square (power 2), built at twist power*s.

    The cache hands the same chain to every later call, which advances it in
    place.
    """
    return _Chain(p, _forms(s, p, seed, power), power * s)


def _power_rank(s: int, n: int, p: int, seed: int, power: int) -> int:
    """Degree-n dimension of the minor ideal (power 1) or its square (power 2), as a rank.

    The value is 0 for every n below the forms' degree power * s.  Each
    cached chain advances one twist at a time and keeps the rank at every
    twist it passes, so a lower twist is read back.  At the default primes,
    every chain that ``verify --max-s 12`` builds eliminates only to build
    itself and on its first step: from power*s + 2 on, each rank is counted
    from the class sizes of E_n (see ``_Chain``).
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

    The value is 0 for every n < 2s.  ``verify`` asserts the value at n = 2s
    against C(s+2, 2), the number of products f_i * f_j.
    """
    return _power_rank(s, n, p, seed, 2)


def majority(values: Sequence[int]) -> int | None:
    """The strict-majority value of a sequence, or None when there is none."""
    if not values:
        return None
    value, count = Counter(values).most_common(1)[0]
    return value if 2 * count > len(values) else None
