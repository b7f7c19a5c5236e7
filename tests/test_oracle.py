"""Finite-field oracles: the rank kernel and the minor-span measurements."""

from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_numerics import oracle
from moduli_numerics.arith import binom_trunc
from moduli_numerics.curves import determinantal_curve, h_ideal
from moduli_numerics.oracle import (
    FiniteFieldMatrix,
    _macaulay_matrix,
    _matmul_mod,
    _maximal_minors,
    _require_prime,
    h0_ideal_oracle,
    h0_ideal_square_oracle,
    h0_line_oracle,
    majority,
    monomials,
)


def test_monomial_enumeration():
    for n in range(0, 16):
        mons = monomials(n)
        assert len(mons) == binom_trunc(n + 3, 3)
        assert len(set(mons)) == len(mons)
        assert all(sum(e) == n for e in mons)
    assert monomials(-2) == []


def test_x0_multiples_come_last_in_order():
    # _Chain.advance reads column c of twist n - 1 as column C(n + 2, 2) + c of twist n.
    for n in range(1, 25):
        tail = monomials(n)[comb(n + 2, 2) :]
        assert tail == [(a + 1, b, c, d) for a, b, c, d in monomials(n - 1)], n


def test_line_oracle_examples():
    assert h0_line_oracle(0) == 1
    assert h0_line_oracle(2) == 10
    assert h0_line_oracle(7) == 120
    assert h0_line_oracle(-3) == 0


def _det_mod_p(rows, p):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i, j in enumerate(perm):
            prod = prod * rows[i][j] % p
        total = (total + sign * prod) % p
    return total


def _rank_by_minors(matrix, p):
    m, n = len(matrix), len(matrix[0])
    for r in range(min(m, n), 0, -1):
        for row_idx in combinations(range(m), r):
            for col_idx in combinations(range(n), r):
                sub = [[matrix[i][j] for j in col_idx] for i in row_idx]
                if _det_mod_p(sub, p) != 0:
                    return r
    return 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rank_against_minor_oracle(m, n, data):
    # 2^31 - 1, the largest accepted prime, pins the int64 headroom of the kernel.
    p = data.draw(st.sampled_from([101, 2**31 - 1]))
    entries = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    got = FiniteFieldMatrix(p, np.array(entries)).rank()
    assert got == _rank_by_minors(entries, p)


def _rank_reference(entries, p):
    """Row-echelon rank over Z/p that reduces the whole trailing block after every pivot."""
    a = np.array(entries, dtype=np.int64).reshape(len(entries), -1) % p
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


def _low_rank(rng, m, n, k, p):
    """An m x n matrix over Z/p of rank at most k, as Python ints."""
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    right = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    return [[sum(row[t] * right[t][j] for t in range(k)) % p for j in range(n)] for row in left]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 101, 32003, 2**31 - 1]),
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(0, 24),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 23), max_size=6),
    st.lists(st.integers(0, 23), max_size=6),
)
def test_rank_matches_reference_kernel(p, m, n, k, seed, zero_at, repeat_at):
    rng = Random(seed)
    entries = _low_rank(rng, m, n, k, p)
    for i in zero_at:
        entries.insert(i % (len(entries) + 1), [0] * n)
    for i in repeat_at:
        entries.insert(i % (len(entries) + 1), list(entries[i % len(entries)]))
    assert FiniteFieldMatrix(p, np.array(entries)).rank() == _rank_reference(entries, p)


def _rref_reference(entries, p):
    """Pivot columns and reduced rows of the reduced echelon form over Z/p, in Python ints."""
    a = [[x % p for x in row] for row in entries]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, a[: len(pivots)]


def _assert_echelon_matches(entries, p):
    pivots, rows = FiniteFieldMatrix(p, np.array(entries, dtype=np.int64)).reduced_echelon()
    want_pivots, want_rows = _rref_reference(entries, p)
    assert pivots.tolist() == want_pivots
    assert rows.tolist() == want_rows


def test_echelon_runs_past_pivot_free_columns():
    # Column 1 is pivot-free while row 1 is still nonzero in column 3, and so is
    # column 2; the loop must not stop at either.
    _assert_echelon_matches([[1, 0, 0, 2], [0, 0, 0, 3]], 101)
    _assert_echelon_matches([[0, 0, 5], [0, 0, 7]], 101)
    _assert_echelon_matches([[1, 1, 0, 0], [2, 2, 0, 1], [3, 3, 0, 1]], 101)
    # At 2^31 - 1 the update by the first pivot leaves the last row's column 3
    # at -p(p-7), a nonzero multiple of p, still unreduced when the stopping
    # test runs at the pivot-free column 1.
    p = 2**31 - 1
    _assert_echelon_matches([[p - 1, 3, 0, 5], [1, p - 3, 0, p - 5], [p - 2, 6, 0, 10]], p)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 101, 32003, 2**31 - 1]),
    st.integers(1, 16),
    st.integers(1, 16),
    st.integers(0, 16),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 31), max_size=6),
    st.lists(st.integers(0, 31), max_size=6),
)
def test_echelon_matches_reference(p, m, n, k, seed, zero_at, repeat_at):
    # Zero and repeated columns are pivot-free, and can sit between pivots
    # while rows further down are still nonzero to their right.
    rng = Random(seed)
    columns = [list(col) for col in zip(*_low_rank(rng, m, n, k, p))]
    for i in zero_at:
        columns.insert(i % (len(columns) + 1), [0] * m)
    for i in repeat_at:
        columns.insert(i % (len(columns) + 1), list(columns[i % len(columns)]))
    _assert_echelon_matches([list(row) for row in zip(*columns)], p)


def test_rank_near_int64_limit():
    # At the largest accepted prime int64 absorbs only two unreduced updates;
    # a kernel that delays reduction further overflows on these matrices.
    p = 2**31 - 1
    for k in (2, 3, 5):
        entries = _low_rank(Random(k), 12, 10, k, p)
        assert _rank_reference(entries, p) == k
        assert FiniteFieldMatrix(p, np.array(entries)).rank() == k


def test_rank_leaves_entries_unchanged():
    entries = np.array([[0, 3, 1], [2, 0, 5], [0, 0, 7], [4, 0, 10]])
    matrix = FiniteFieldMatrix(11, entries)
    before = matrix.entries.copy()
    assert matrix.rank() == _rank_reference(entries.tolist(), 11) == 3
    assert np.array_equal(matrix.entries, before)


def test_rank_of_empty_matrices():
    for shape in ((3, 0), (0, 3), (0, 0)):
        assert FiniteFieldMatrix(101, np.zeros(shape, dtype=np.int64)).rank() == 0


# The dict-of-exponents arithmetic below is the independent reference that the
# library's dense coefficient rows are compared against.


def _poly_mul(f, g, p):
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2], ef[3] + eg[3])
            out[e] = (out.get(e, 0) + cf * cg) % p
    return {e: c for e, c in out.items() if c}


def _coefficient_rows(forms, degree):
    """Dense coefficient rows of degree-``degree`` forms, columns following monomials(degree)."""
    column = {e: i for i, e in enumerate(monomials(degree))}
    rows = np.zeros((len(forms), len(column)), dtype=np.int64)
    for i, form in enumerate(forms):
        for e, c in form.items():
            rows[i, column[e]] = c
    return rows


def _macaulay_reference(forms, shift_degree, total_degree):
    multipliers = monomials(shift_degree)
    basis = {mon: idx for idx, mon in enumerate(monomials(total_degree))}
    rows = np.zeros((len(forms) * len(multipliers), len(basis)), dtype=np.int64)
    r = 0
    for form in forms:
        for mu in multipliers:
            for e, c in form.items():
                shifted = (e[0] + mu[0], e[1] + mu[1], e[2] + mu[2], e[3] + mu[3])
                rows[r, basis[shifted]] = c
            r += 1
    return rows


def _laplace_det(rows, p):
    """Determinant by Laplace expansion along the first row, each minor expanded afresh."""
    n = len(rows)
    if n == 1:
        return dict(rows[0][0])
    acc = {}
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        for e, c in _poly_mul(rows[0][j], _laplace_det(minor, p), p).items():
            acc[e] = (acc.get(e, 0) + (-c if j % 2 else c)) % p
    return {e: c for e, c in acc.items() if c}


def _maximal_minors_reference(s, p, seed):
    """Each maximal minor of the seeded matrix expanded on its own, in drop-index order."""
    rng = Random(seed)
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    matrix = [
        [
            {e: c for e, c in zip(units, (rng.randrange(p) for _ in range(4))) if c}
            for _ in range(s + 1)
        ]
        for _ in range(s)
    ]
    return tuple(
        _laplace_det([[row[j] for j in range(s + 1) if j != drop] for row in matrix], p)
        for drop in range(s + 1)
    )


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_shared_expansion_matches_per_minor_laplace(p):
    for s in range(1, 6):
        for seed in (1, 2, 3):
            got = _maximal_minors(s, p, seed)
            assert got.dtype == np.int64
            want = _coefficient_rows(_maximal_minors_reference(s, p, seed), s)
            assert np.array_equal(got, want), (s, seed)


def test_shared_expansion_multiplies_each_minor_once(monkeypatch):
    # One product mod p per level of the expansion: s = 6 products at s = 6.
    calls = []

    def counting_matmul(a, b, p):
        calls.append(None)
        return _matmul_mod(a, b, p)

    monkeypatch.setattr(oracle, "_matmul_mod", counting_matmul)
    _maximal_minors.__wrapped__(6, 101, 1)
    assert len(calls) == 6


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_square_forms_match_dict_products(p):
    # At 2^31 - 1 both products of the minor expansion and of the squares
    # take several digits in _matmul_mod.
    for s in range(1, 6):
        for seed in (1, 2, 3):
            minors = _maximal_minors_reference(s, p, seed)
            products = [_poly_mul(f, g, p) for i, f in enumerate(minors) for g in minors[i:]]
            got = oracle._chain.__wrapped__(s, p, seed, 2).forms
            assert np.array_equal(got, _coefficient_rows(products, 2 * s)), (s, seed)


def test_macaulay_matrix_matches_dict_loop():
    for s in (1, 2, 3):
        for p in (101, 32003):
            minors = _maximal_minors_reference(s, p, 1)
            products = [_poly_mul(f, g, p) for i, f in enumerate(minors) for g in minors[i:]]
            for n in range(s, 3 * s + 1):
                built = _macaulay_matrix(_coefficient_rows(minors, s), monomials(n - s), n)
                assert built.dtype == np.int64
                assert np.array_equal(built, _macaulay_reference(minors, n - s, n)), (s, p, n)
                if n >= 2 * s:
                    rows = _coefficient_rows(products, 2 * s)
                    built = _macaulay_matrix(rows, monomials(n - 2 * s), n)
                    assert np.array_equal(built, _macaulay_reference(products, n - 2 * s, n))


def test_rank_edge_cases():
    assert FiniteFieldMatrix(101, np.zeros((3, 4), dtype=np.int64)).rank() == 0
    assert FiniteFieldMatrix(101, np.eye(5, dtype=np.int64)).rank() == 5
    # entries reduce mod p: the second row is 101 * first
    reduced = FiniteFieldMatrix(101, np.array([[1, 2], [101, 202]]))
    assert reduced.rank() == 1


def test_prime_validation():
    with pytest.raises(ValueError):
        FiniteFieldMatrix(100, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        h0_ideal_oracle(2, 2, 1, 3)
    with pytest.raises(ValueError):
        h0_ideal_oracle(0, 2, 101, 3)


def test_prime_check_caches_primes_only():
    _require_prime.cache_clear()
    for p in (101, 2**31 - 1):
        _require_prime(p)
        _require_prime(p)
    assert _require_prime.cache_info().hits == 2
    with pytest.raises(ValueError, match=r"prime, got 100 = 2 \* 50"):
        _require_prime(100)
    with pytest.raises(ValueError, match=r"prime in 2..2\^31, got 2147483649"):
        _require_prime(2**31 + 1)
    with pytest.raises(ValueError, match="prime, got 100"):
        FiniteFieldMatrix(100, np.zeros((1, 1), dtype=np.int64))
    assert _require_prime.cache_info().currsize == 2


@pytest.mark.parametrize("p", [2, 101, 32003, 67108859, 2**31 - 1])
def test_matmul_mod_is_exact(p):
    # a is one digit at p <= 32003; at p = 67108859 the shapes with k = 7 and
    # 40,000 split it into 2 and 3 digits, and at 2^31 - 1 into 2 and 6.
    rng = np.random.default_rng(p)
    for m, k, q in ((3, 1, 4), (5, 7, 2), (2, 40_000, 1), (4, 0, 2)):
        a = rng.integers(0, p, (m, k), dtype=np.int64)
        b = rng.integers(0, p, (k, q), dtype=np.int64)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        assert _matmul_mod(a, b, p).tolist() == want


def test_matmul_mod_float64_bound_at_its_edge():
    p = 67108859  # 2^26 - 5
    # At k = 2 one product of a itself is exact (test_matmul_mod_at_the_digit_edge).
    # At k = 3, entries p - 2, the sum 3 (p-2)^2 is odd and above 2^53, where
    # float64 rounds it, so this product must split a into digits.
    a = np.full((1, 3), p - 2, dtype=np.int64)
    want = 3 * (p - 2) ** 2 % p
    assert (np.matmul(a, a.T, dtype=np.float64).astype(np.int64) % p).tolist() != [[want]]
    assert _matmul_mod(a, a.T, p).tolist() == [[want]]


@pytest.mark.parametrize(
    "p, w", [(67108859, 26), (67108859, 20), (67108859, 13), (2**31 - 1, 22), (2**31 - 1, 9)]
)
def test_matmul_mod_at_the_digit_edge(p, w):
    # k is the largest inner dimension with w-bit digits: a digit product of
    # entries p - 1 sums to at most k (2^w - 1)(p - 1), just below 2^53.
    k = (2**53 - 1) // ((2**w - 1) * (p - 1))
    assert k * (2**w - 1) * (p - 1) < 2**53 <= (k + 1) * (2**w - 1) * (p - 1)
    a = np.full((2, k), p - 1, dtype=np.int64)
    assert _matmul_mod(a, a.T, p).tolist() == [[k * (p - 1) ** 2 % p] * 2] * 2
    # Entries 2^(w+1) - 1 times p - 2 at odd k: one (w+1)-bit digit would sum
    # an odd integer above 2^53, which float64 rounds.
    if 2 ** (w + 1) < p:
        k -= 1 - k % 2
        a = np.full((1, k), 2 ** (w + 1) - 1, dtype=np.int64)
        b = np.full((k, 1), p - 2, dtype=np.int64)
        want = k * (2 ** (w + 1) - 1) * (p - 2)
        assert want > 2**53 and want % 2
        assert int(np.matmul(a, b, dtype=np.float64)[0, 0]) != want
        assert _matmul_mod(a, b, p).tolist() == [[want % p]]


@pytest.mark.parametrize("p", [101, 32003])
def test_matmul_mod_default_primes_take_one_product(p, monkeypatch):
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (4, 3000), dtype=np.int64)
    b = rng.integers(0, p, (3000, 5), dtype=np.int64)
    operands = []
    matmul = np.matmul

    def counting(x, y, **kwargs):
        operands.append(x)
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    got = _matmul_mod(a, b, p)
    monkeypatch.undo()
    # One float64 product, of a itself.
    assert len(operands) == 1 and operands[0] is a
    assert got.tolist() == (a @ b % p).tolist()


def test_matmul_mod_refuses_an_inexact_product():
    # At p = 2^31 - 1, k (p - 1) stays below 2^53 up to k = 2^22, so 1-bit
    # digits are exact; at k = 2^23 no width is.  Zero-size operands allocate
    # nothing.
    p = 2**31 - 1
    a, b = np.zeros((0, 2**22), dtype=np.int64), np.zeros((2**22, 0), dtype=np.int64)
    assert _matmul_mod(a, b, p).shape == (0, 0)
    a, b = np.zeros((0, 2**23), dtype=np.int64), np.zeros((2**23, 0), dtype=np.int64)
    with pytest.raises(RuntimeError):
        _matmul_mod(a, b, p)


def _full_rank(s, n, p, seed, power):
    """The rank of the whole Macaulay matrix of the power ideal, built and reduced afresh."""
    if n < power * s:
        return 0
    forms = [
        reduce(lambda f, g: _poly_mul(f, g, p), factors)
        for factors in combinations_with_replacement(_maximal_minors_reference(s, p, seed), power)
    ]
    return _rank_reference(_macaulay_reference(forms, n - power * s, n), p)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_chained_ranks_match_full_matrix_ranks(p):
    # Ten chains, more than the cache holds: ascending twists advance each
    # chain, descending ones read lower twists back, and the shuffled order
    # interleaves all ten, so chains are evicted and rebuilt.
    chains = [
        (s, seed, power)
        for s in (1, 2, 3)
        for seed in (1, 2)
        for power in (1, 2)
        if s < 3 or seed == 1
    ]
    want = {
        (chain, n): _full_rank(chain[0], n, p, chain[1], chain[2])
        for chain in chains
        for n in range(3 * chain[0] + 1)
    }
    ascending = list(want)
    shuffled = list(want)
    Random(p).shuffle(shuffled)
    oracle._chain.cache_clear()
    for order in (ascending, ascending[::-1], shuffled):
        for (s, seed, power), n in order:
            got = (h0_ideal_oracle if power == 1 else h0_ideal_square_oracle)(s, n, p, seed)
            assert got == want[(s, seed, power), n], (s, seed, power, n)
        info = oracle._chain.cache_info()
        assert info.currsize == info.maxsize


@pytest.fixture
def eliminated(monkeypatch):
    """Row counts of the matrices reduced from here on, with no chain cached."""
    oracle._chain.cache_clear()
    rows = []
    echelon = FiniteFieldMatrix.reduced_echelon

    def counting(matrix):
        rows.append(matrix.rows)
        return echelon(matrix)

    monkeypatch.setattr(FiniteFieldMatrix, "reduced_echelon", counting)
    return rows


def test_step_eliminates_only_the_rows_x0_misses(eliminated):
    # From n = 11 to 12 at s = 4: 68 rows of x1 * E_11 and 9 * 5 generator
    # multiples; the whole Macaulay matrix has 825 rows.
    h0_ideal_oracle(4, 11, 101, 1)
    eliminated.clear()
    assert h0_ideal_oracle(4, 12, 101, 1) == h_ideal(determinantal_curve(4), 0, 12)
    assert 0 < sum(eliminated) <= 113
    eliminated.clear()
    assert h0_ideal_oracle(4, 12, 101, 1) == h_ideal(determinantal_curve(4), 0, 12)
    assert eliminated == []


def test_lower_twists_are_read_back(eliminated):
    h0_ideal_oracle(4, 12, 101, 1)
    eliminated.clear()
    for n in range(4, 12):
        assert h0_ideal_oracle(4, n, 101, 1) == h_ideal(determinantal_curve(4), 0, n), n
    assert eliminated == []


@pytest.mark.parametrize("p", [101, 2**31 - 1])
@pytest.mark.parametrize("control", ["x0x1-x0x2", "x0l-q"])
def test_back_substitution_on_x0_torsion_controls(p, control, monkeypatch):
    # x0 is a zero divisor modulo both ideals, so every step finds pivots on
    # x0-columns and makes two products mod p: the clearing and the
    # back-substitution.  I = (x0 x1, x0 x2) = x0 (x1, x2) has dimension
    # C(n + 2, 3) - n, and x0*B_n vanishes on its new pivot columns.  The
    # complete intersection of x0 l and q, for a seeded linear form l and
    # quadric q, has dimension 2 C(n + 1, 3) - C(n - 1, 3); from n = 3 on, its
    # back-substitution changes x0*B_n.
    rng = Random(p)
    quadrics = monomials(2)
    x0_x = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]  # x0 * x_k, k = 0..3
    x0_times = [quadrics.index(e) for e in x0_x]
    forms = np.zeros((2, len(quadrics)), dtype=np.int64)
    if control == "x0x1-x0x2":
        forms[:, x0_times] = [[0, 1, 0, 0], [0, 0, 1, 0]]
        want = [comb(n + 2, 3) - n for n in range(2, 9)]
    else:
        forms[0, x0_times] = [rng.randrange(p) for _ in range(4)]
        forms[1] = [rng.randrange(p) for _ in quadrics]
        want = [2 * comb(n + 1, 3) - comb(n - 1, 3) for n in range(2, 9)]
    calls = []

    def counting(a, b, q):
        calls.append(None)
        return _matmul_mod(a, b, q)

    monkeypatch.setattr(oracle, "_matmul_mod", counting)
    chain = oracle._Chain(p, forms, 2)
    for n, dim in zip(range(2, 9), want):
        calls.clear()
        chain.advance()
        assert len(calls) == 2, n
        assert chain.ranks[-1] == len(chain.block) == dim, n
        assert ((chain.block >= 0) & (chain.block < p)).all(), n
        # B_n lies in I_n: it adds nothing to the rank of the full Macaulay matrix.
        basis = np.zeros((dim, len(monomials(n))), dtype=np.int64)
        basis[np.arange(dim), chain.pivots] = 1
        basis[:, chain.free] = chain.block
        full = _macaulay_matrix(forms, monomials(n - 2), n)
        assert FiniteFieldMatrix(p, np.vstack([full, basis])).rank() == dim, n


def test_oracle_examples():
    assert h0_ideal_oracle(2, 2, 101, seed=1) == 3
    assert h0_ideal_oracle(3, 2, 101, seed=1) == 0  # minors have degree 3
    assert h0_ideal_oracle(2, 1, 101, seed=1) == 0  # n < s short-circuits
    # resolution formula gives 4*C(4,3) - 3*C(3,3) = 13 here; both routes agree
    assert h0_ideal_oracle(3, 4, 101, seed=1) == 13
    assert h_ideal(determinantal_curve(3), 0, 4) == 13


def test_oracle_matches_formula_small_sweep():
    for s in (1, 2, 3):
        curve = determinantal_curve(s)
        for n in range(0, 2 * s + 1):
            values = [h0_ideal_oracle(s, n, 101, seed) for seed in (1, 2, 3)]
            assert majority(values) == h_ideal(curve, 0, n), (s, n, values)


def test_square_oracle_vanishes_below_double_degree():
    for s in (1, 2, 3):
        for n in range(0, 2 * s):
            assert h0_ideal_square_oracle(s, n, 101, 1) == 0


def test_square_oracle_first_twist_positive():
    assert h0_ideal_square_oracle(2, 4, 101, 1) >= 1


def test_oracle_is_deterministic():
    assert h0_ideal_oracle(3, 5, 101, 7) == h0_ideal_oracle(3, 5, 101, 7)
    assert h0_ideal_square_oracle(2, 5, 101, 7) == h0_ideal_square_oracle(2, 5, 101, 7)


def test_majority_rule():
    assert majority([3, 3, 5]) == 3
    assert majority([1, 2, 3]) is None
    assert majority([]) is None
    assert majority([4]) == 4


def test_degree_and_genus_recovered_from_oracle():
    # Past the h^1 range, h^0(O_C(n)) equals degree*n + 1 - genus; two twists
    # measured purely through the oracle recover both constants.
    for s in (1, 2, 3):
        curve = determinantal_curve(s)
        n1, n2 = 2 * s + 1, 2 * s + 2
        h0_1 = binom_trunc(n1 + 3, 3) - h0_ideal_oracle(s, n1, 101, seed=2)
        h0_2 = binom_trunc(n2 + 3, 3) - h0_ideal_oracle(s, n2, 101, seed=2)
        degree = h0_2 - h0_1
        genus = degree * n1 + 1 - h0_1
        assert (degree, genus) == (curve.degree, curve.genus)
