"""Finite-field oracles: the rank kernel and the minor-span measurements."""

import re
import tracemalloc
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_numerics import cli, oracle
from moduli_numerics.arith import PreconditionError, binom_trunc
from moduli_numerics.curves import determinantal_curve, h0_ideal_square, h_ideal
from moduli_numerics.oracle import (
    FiniteFieldMatrix,
    _macaulay_matrix,
    _matmul_mod,
    _maximal_minors,
    _require_prime,
    check_inputs,
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
    pivots, rows = oracle._reduced_echelon(np.array(entries, dtype=np.int64), p)
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
    entries = [list(row) for row in zip(*columns)]
    _assert_echelon_matches(entries, p)
    # A chain step hands the kernel entries in (-p, p): shift about half the
    # nonzero ones down by p.
    shifted = [[x - p if x and rng.random() < 0.5 else x for x in row] for row in entries]
    _assert_echelon_matches(shifted, p)


def test_rank_near_int64_limit():
    # At the largest accepted prime int64 absorbs only two unreduced updates;
    # a kernel that delays reduction further overflows on these matrices.
    p = 2**31 - 1
    for k in (2, 3, 5):
        entries = _low_rank(Random(k), 12, 10, k, p)
        assert _rank_reference(entries, p) == k
        assert FiniteFieldMatrix(p, np.array(entries)).rank() == k
        # Every nonzero entry at its lowest admissible value, x - p > -p.
        shifted = np.array(entries, dtype=np.int64)
        shifted[shifted != 0] -= p
        assert len(oracle._reduced_echelon(shifted, p)[0]) == k


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


@pytest.mark.parametrize("p", [101, 32003, 1518500213, 2**31 - 1])
def test_expansion_reduces_products_only_where_their_sum_can_overflow(p):
    # A level sums its 4t products unreduced while 4t (p - 1)^2 <= 2^63 - 1: at
    # every level for 101 and 32003, at t = 1 only for 1518500213 (the largest
    # such prime), and at no level for 2^31 - 1.
    got = _maximal_minors.__wrapped__(6, p, 1)
    assert np.array_equal(got, _coefficient_rows(_maximal_minors_reference(6, p, 1), 6))


def test_shared_expansion_multiplies_each_minor_once(monkeypatch):
    # One Macaulay matrix per level of the expansion, the minors times each
    # variable: s = 6 of them at s = 6, and no product mod p.
    calls = []

    def counting_macaulay(forms, m, n):
        calls.append((len(forms), m, n))
        return _macaulay_matrix(forms, m, n)

    monkeypatch.setattr(oracle, "_macaulay_matrix", counting_macaulay)
    monkeypatch.setattr(oracle, "_matmul_mod", lambda *args: calls.append("_matmul_mod"))
    _maximal_minors.__wrapped__(6, 101, 1)
    assert calls == [(comb(7, t - 1), 1, t) for t in range(1, 7)]


def test_shared_expansion_traces_no_quadratic_array():
    # A level gathers 4t multiples per t-set of columns: at s = 11, p = 2^31 - 1
    # the largest is 792 x 7 x 4 x 120 int64, 20.3 MiB.  The dense
    # C(12, t) x C(12, t - 1) x 4 operators and their float64 copies traced 76.2 MiB.
    _maximal_minors.__wrapped__(2, 2**31 - 1, 1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        _maximal_minors.__wrapped__(11, 2**31 - 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20, peak / 2**20


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_square_forms_match_dict_products(p):
    # At 2^31 - 1 both products of the minor expansion and of the squares
    # take several digits in _matmul_mod.
    for s in range(1, 6):
        for seed in (1, 2, 3):
            minors = _maximal_minors_reference(s, p, seed)
            products = [_poly_mul(f, g, p) for i, f in enumerate(minors) for g in minors[i:]]
            got = oracle._forms(s, p, seed, 2)
            assert np.array_equal(got, _coefficient_rows(products, 2 * s)), (s, seed)


def test_macaulay_matrix_matches_dict_loop():
    for s in (1, 2, 3):
        for p in (101, 32003):
            minors = _maximal_minors_reference(s, p, 1)
            products = [_poly_mul(f, g, p) for i, f in enumerate(minors) for g in minors[i:]]
            for n in range(s, 3 * s + 1):
                built = _macaulay_matrix(_coefficient_rows(minors, s), n - s, n)
                assert built.dtype == np.int64
                assert np.array_equal(built, _macaulay_reference(minors, n - s, n)), (s, p, n)
                if n >= 2 * s:
                    rows = _coefficient_rows(products, 2 * s)
                    built = _macaulay_matrix(rows, n - 2 * s, n)
                    assert np.array_equal(built, _macaulay_reference(products, n - 2 * s, n))


def test_rank_edge_cases():
    assert FiniteFieldMatrix(101, np.zeros((3, 4), dtype=np.int64)).rank() == 0
    assert FiniteFieldMatrix(101, np.eye(5, dtype=np.int64)).rank() == 5
    # entries reduce mod p: the second row is 101 * first
    reduced = FiniteFieldMatrix(101, np.array([[1, 2], [101, 202]]))
    assert reduced.rank() == 1


@pytest.mark.parametrize(
    "entries", [[[1.5, 2.7]], [[1.0, 2.0]], [[1 + 2j]], [[2**63]], [[2**64, 1]], [[1, 2**63]]]
)
def test_matrix_rejects_entries_that_are_not_int64_integers(entries):
    with pytest.raises(PreconditionError, match="2-D int64 matrix"):
        FiniteFieldMatrix(101, entries)


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


def test_oracle_refuses_a_minor_expansion_over_its_budget(monkeypatch):
    # A library call meets the refusal that verify meets, before any Laplace level is built.
    def refused(*args):
        raise AssertionError("a Laplace level was built")

    monkeypatch.setattr(oracle, "_macaulay_matrix", refused)
    message = re.escape("the s = 16 minor expansion would take 1909.6 MiB, over 1024 MiB")
    with pytest.raises(PreconditionError, match=message):
        h0_ideal_oracle(16, 16, 101, 1)
    with pytest.raises(PreconditionError, match=message):
        h0_ideal_square_oracle(16, 32, 101, 1)
    assert h0_ideal_oracle(16, 15, 101, 1) == 0  # below the forms' degree nothing is built
    check_inputs(15, [101, 32003, 2**31 - 1])
    with pytest.raises(PreconditionError, match="prime, got 100"):
        check_inputs(15, [101, 100])
    with pytest.raises(PreconditionError, match="parameter must be >= 1, got 0"):
        check_inputs(0, [101])
    with pytest.raises(PreconditionError, match="prime, got 100"):  # primes first
        check_inputs(0, [100])


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


def _leads(mask: np.ndarray) -> bool:
    """Whether the True entries of a boolean row mask are its leading entries."""
    return not (mask[1:] > mask[:-1]).any()


def _prolong(pivots, classes, n):
    """The pivots of B_n and the classes of E_n, from those of B_{n-1} and E_{n-1}:
    x0 times every pivot, then x_k times each pivot of E_{n-1} of class >= k,
    made class k.  Each class-k pivot must be free of x0..x_{k-1}, the first
    C(n + 2 - k, 3 - k) columns at twist n - 1."""
    last = pivots[len(pivots) - len(classes) :]
    for k in (1, 2, 3):
        assert (last[classes == k] < comb(n + 2 - k, 3 - k)).all(), (n, k)
    x = oracle._product_columns(1, n)[::-1]  # monomials(1) lists x3, x2, x1, x0
    groups = [x[k][last[classes >= k]] for k in (1, 2, 3)]
    return np.concatenate([x[0][pivots], *groups]), np.repeat([1, 2, 3], [len(g) for g in groups])


def _assert_whole_matrix_basis(chain, forms, d, p, prolonged, label):
    """The chain at its twist n against the whole Macaulay matrix of its degree-d forms.

    Its rank must be the whole matrix's.  While the chain eliminates, its
    basis must be that matrix's reduced echelon form, stored in the layout
    the next step reads: x_k multiplies E_n from starts[k - 1] on, and those
    rows with a pivot free of x0..x_{k-1}, the first C(n + 3 - k, 3 - k)
    columns, must lead them; class 3 is in increasing pivot order.  Once it
    counts, the reduced echelon form's pivots must be the prolongation
    (``_prolong``) of the last basis it held, and E_n's class sizes those of
    the prolongation.  Returns the pivots and classes to prolong next.
    """
    n = chain.n
    whole = _macaulay_matrix(forms, n - d, n)
    want_pivots, want_rows = oracle._reduced_echelon(whole, p)
    assert chain.ranks[-1] == len(want_pivots), label
    if chain.block is None:
        pivots, classes = _prolong(*prolonged, n)
        assert np.array_equal(np.sort(pivots), want_pivots), label
        sizes = np.bincount(classes, minlength=4)[1:].tolist()
        assert chain.added == len(classes), label
        assert chain.starts == (0, sizes[0], sizes[0] + sizes[1]), label
        return pivots, classes
    # The block holds exactly the columns that are not pivots.
    columns = np.sort(np.concatenate([chain.pivots, chain.free]))
    assert np.array_equal(columns, np.arange(len(monomials(n)))), label
    order = np.argsort(chain.pivots)
    rows = np.zeros((len(order), len(monomials(n))), dtype=np.int64)
    rows[np.arange(len(order)), chain.pivots] = 1
    rows[:, chain.free] = chain.block
    assert np.array_equal(chain.pivots[order], want_pivots), label
    assert np.array_equal(rows[order], want_rows), label
    last = chain.pivots[len(chain.pivots) - chain.added :]
    for k, start in zip((1, 2, 3), chain.starts):
        assert _leads(last[start:] < comb(n + 3 - k, 3 - k)), (label, k)
    assert (np.diff(last[chain.starts[2] :]) > 0).all(), label
    first, second = chain.starts[1:]
    return chain.pivots, np.repeat([1, 2, 3], [first, second - first, chain.added - second])


@pytest.mark.parametrize("p", [2, 101, 32003, 2**31 - 1])
def test_chain_basis_is_the_reduced_echelon_form_of_the_whole_matrix(p):
    # The reduced echelon form of I_n is unique, and chain steps eliminate
    # only part of it, so while a chain eliminates it must hold exactly the
    # rows that reducing the whole Macaulay matrix gives, at every twist up
    # to 3s.  Once it counts, its ranks must still be the whole matrix's, and
    # that matrix's pivots the prolongation of its last basis.
    for s in (1, 2, 3, 4):
        for power in (1, 2):
            forms = oracle._forms(s, p, 1, power)
            chain = oracle._Chain(p, forms, power * s)  # uncached, at twist power * s
            prolonged = None
            for n in range(power * s, 3 * s + 1):
                while chain.n < n:
                    chain.advance()
                label = (s, power, n)
                prolonged = _assert_whole_matrix_basis(chain, forms, power * s, p, prolonged, label)


# Pairs of quadric leading monomials in special coordinates, as exponents of
# x0..x3: x1x2, x1x3; x1^2, x2^2; x2x3, x3^2; x2^2, x1x3; x0x1, x0x2.
_SPECIAL_LEADS = [
    ((0, 1, 1, 0), (0, 1, 0, 1)),
    ((0, 2, 0, 0), (0, 0, 2, 0)),
    ((0, 0, 1, 1), (0, 0, 0, 2)),
    ((0, 0, 2, 0), (0, 1, 0, 1)),
    ((1, 1, 0, 0), (1, 0, 1, 0)),
]


def _special_forms(leads, tails, rng, p):
    """Two quadrics with the given leading monomials: the monomials themselves, or
    with tails, each plus rng-drawn coefficients on every later column."""
    quadrics = monomials(2)
    forms = np.zeros((2, len(quadrics)), dtype=np.int64)
    for row, lead in zip(forms, leads):
        c = quadrics.index(lead)
        row[c] = 1
        if tails:
            row[c + 1 :] = [rng.randrange(p) for _ in quadrics[c + 1 :]]
    return forms


def _torsion_control(control, p):
    """The quadrics x0x1 and x0x2, or x0 l and q for a seeded linear form l and quadric q."""
    rng = Random(p)
    quadrics = monomials(2)
    x0_x = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]  # x0 * x_k, k = 0..3
    x0_times = [quadrics.index(e) for e in x0_x]
    forms = np.zeros((2, len(quadrics)), dtype=np.int64)
    if control == "x0x1-x0x2":
        forms[:, x0_times] = [[0, 1, 0, 0], [0, 0, 1, 0]]
    else:
        forms[0, x0_times] = [rng.randrange(p) for _ in range(4)]
        forms[1] = [rng.randrange(p) for _ in quadrics]
    return forms


@pytest.mark.parametrize("p", [2, 3, 101])
def test_chain_basis_in_special_coordinates(p):
    # Determinantal chains reuse every row after their first step; these
    # controls do not.  Each pair is taken as monomials, and near-monomial:
    # each form plus seeded coefficients on every later column, so that the
    # reused rows carry entries the clearing must remove (x2*e hits x1-group
    # pivots).  At every twist up to 9 the chain must hold the reduced
    # echelon form of the whole Macaulay matrix, and some step must hand x2
    # (and some x3) rows of both kinds: reused ones, with a pivot free of
    # the earlier variables, and rows sent to the echelon.
    rng = Random(p)
    both = set()
    for leads in _SPECIAL_LEADS:
        for tails in (False, True):
            forms = _special_forms(leads, tails, rng, p)
            chain = oracle._Chain(p, forms, 2)
            prolonged = None
            for n in range(2, 10):
                while chain.n < n:
                    chain.advance()
                label = (leads, tails, n)
                prolonged = _assert_whole_matrix_basis(chain, forms, 2, p, prolonged, label)
                if chain.block is None:
                    continue  # a counting chain reuses every row
                last = chain.pivots[len(chain.pivots) - chain.added :]
                for k in (2, 3):
                    reused = last[chain.starts[k - 1] :] < comb(n + 3 - k, 3 - k)
                    if reused.any() and not reused.all():
                        both.add(k)
    assert both == {2, 3}


@pytest.fixture
def eliminated(monkeypatch):
    """Row counts of the arrays reduced from here on, with no chain cached."""
    oracle._chain.cache_clear()
    rows = []
    echelon = oracle._reduced_echelon

    def counting(a, p):
        # The kernel sweeps columns in place; a Fortran-ordered gather slows it 1.5x.
        assert a.flags.c_contiguous
        # Its int64 budget counts on entries in (-p, p).
        assert (np.abs(a) < p).all()
        rows.append(len(a))
        return echelon(a, p)

    monkeypatch.setattr(oracle, "_reduced_echelon", counting)
    return rows


def test_step_eliminates_nothing_on_determinantal_chains(eliminated):
    # Building the chain at s = 4 reduces the s + 1 minors and nothing else.
    # From n = 11 to 12, every row that x1, x2 and x3 make from E_11 has its
    # pivot free of the variables before its multiplier, so the chain counts
    # and calls no echelon; the whole Macaulay matrix has 825 rows.
    assert h0_ideal_oracle(4, 4, 101, 1) == h_ideal(determinantal_curve(4), 0, 4)
    assert eliminated == [4 + 1]
    h0_ideal_oracle(4, 11, 101, 1)
    eliminated.clear()
    assert h0_ideal_oracle(4, 12, 101, 1) == h_ideal(determinantal_curve(4), 0, 12)
    assert eliminated == []


def _first_count(chain, top):
    """The twist reached by the chain's first counted step, advancing it to ``top``, or None."""
    while chain.n < top:
        chain.advance()
        if chain.block is None:
            return chain.n
    return None


def test_where_chains_start_counting(eliminated):
    # A determinantal chain eliminates on its first step only: from then on
    # E_n is a Pommaret basis, so the step into d + 2 counts, for the minors
    # (d = s) and their squares (d = 2s) alike.
    for s in (1, 2, 3, 4):
        for p in (101, 32003):
            for seed in (1, 2, 3):
                for power in (1, 2):
                    chain = oracle._chain.__wrapped__(s, p, seed, power)
                    assert _first_count(chain, power * s + 3) == power * s + 2, (s, p, seed, power)
    # Some row of E_n keeps a pivot that its class may not have at every
    # twist: the x0-torsion controls and I = x1 (x2, x3), as monomials and
    # with tails, never count.
    for p in (101, 32003):
        rng = Random(p)
        controls = [_torsion_control(control, p) for control in ("x0x1-x0x2", "x0l-q")]
        controls += [_special_forms(_SPECIAL_LEADS[0], tails, rng, p) for tails in (False, True)]
        for i, forms in enumerate(controls):
            assert _first_count(oracle._Chain(p, forms, 2), 12) is None, (p, i)
    # At s = 8 the echelon runs to build the chain and on its first step;
    # the counted ranks then follow the resolution formula to n = 40.
    eliminated.clear()
    curve = determinantal_curve(8)
    for n in range(8, 41):
        assert h0_ideal_oracle(8, n, 32003, 1) == h_ideal(curve, 0, n), n
    assert len(eliminated) == 2 and eliminated[0] == 8 + 1, eliminated


def test_oracle_round_eliminates_few_rows(monkeypatch):
    # The shape of one oracle benchmark round: s = 1..4, both primes, three
    # seeds, h^0(J(n)) up to 3s and the square up to 2s.  Rows and pivots
    # that reach the echelon; multiplying every form by all of k[x2,x3] at
    # each step, with only x1*E_n reused, sent 2,568 rows and found 1,188
    # pivots.
    oracle._chain.cache_clear()
    rows, pivots = [], []
    echelon = oracle._reduced_echelon

    def counting(a, p):
        rows.append(len(a))
        out = echelon(a, p)
        pivots.append(len(out[0]))
        return out

    monkeypatch.setattr(oracle, "_reduced_echelon", counting)
    for s in range(1, 5):
        want = h_ideal(determinantal_curve(s), 0, 3 * s)
        for p in (101, 32003):
            for seed in (1, 2, 3):
                assert h0_ideal_oracle(s, 3 * s, p, seed) == want
                h0_ideal_square_oracle(s, 2 * s, p, seed)
    assert (sum(rows), sum(pivots)) == (348, 288)


def test_chain_steps_build_no_matrix_object(eliminated, monkeypatch, capsys):
    # Each step reduces its own rows in place; FiniteFieldMatrix is only the
    # validated whole-matrix front.
    built = []
    monkeypatch.setattr(FiniteFieldMatrix, "__post_init__", lambda matrix: built.append(None))
    assert cli.run(["verify", "--max-s", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert eliminated and built == []


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
    # x0-columns and makes six products mod p: the clearing on x0*B_n; one
    # each clearing group 2 on group 1, group 3 on groups 1 and 2, and the
    # rest on all three groups (the three groups are the reused x1*e, x2*e and
    # x3*e rows, empty or not); and the back-substitutions into the groups
    # and into x0*B_n.  Building the chain at twist 2 only reduces the forms.
    # I = (x0 x1, x0 x2) = x0 (x1, x2) has dimension C(n + 2, 3) - n, and
    # x0*B_n vanishes on its new pivot columns.  The complete intersection of
    # x0 l and q, for a seeded linear form l and quadric q, has dimension
    # 2 C(n + 1, 3) - C(n - 1, 3); from n = 3 on, its back-substitution
    # changes x0*B_n, and the step to n takes E_{n-1} with both kinds of
    # rows: x0-free pivots, kept out of the elimination, and x0-column
    # pivots, eliminated with the other multiples.
    forms = _torsion_control(control, p)
    if control == "x0x1-x0x2":
        want = [comb(n + 2, 3) - n for n in range(2, 9)]
    else:
        want = [2 * comb(n + 1, 3) - comb(n - 1, 3) for n in range(2, 9)]
    calls = []

    def counting(a, b, q):
        calls.append(None)
        return _matmul_mod(a, b, q)

    monkeypatch.setattr(oracle, "_matmul_mod", counting)
    chain = oracle._Chain(p, forms, 2)
    assert calls == []
    for n, dim in zip(range(2, 9), want):
        if n > 2:
            last = chain.pivots[len(chain.pivots) - chain.added :]
            x0_free = last < comb(n + 1, 2)  # E_{n-1}'s pivots at twist n - 1
            assert _leads(x0_free), n
            assert set(x0_free.tolist()) == (
                {False} if control == "x0x1-x0x2" else {True, False}
            ), n
            calls.clear()
            chain.advance()
            assert len(calls) == 6, n
        assert chain.n == n
        assert chain.ranks[-1] == len(chain.block) == dim, n
        assert ((chain.block >= 0) & (chain.block < p)).all(), n
        # B_n lies in I_n: it adds nothing to the rank of the full Macaulay matrix.
        basis = np.zeros((dim, len(monomials(n))), dtype=np.int64)
        basis[np.arange(dim), chain.pivots] = 1
        basis[:, chain.free] = chain.block
        full = _macaulay_matrix(forms, n - 2, n)
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


@pytest.mark.parametrize("p", [101, 32003])
def test_square_formula_matches_oracle_majority(p):
    # Weyman's resolution of J^2 against the rank of the square of the minor
    # ideal, past 2s where the products of two generators start to relate.
    for s in range(1, 6):
        curve = determinantal_curve(s)
        for n in range(0, 3 * s + 1):
            values = [h0_ideal_square_oracle(s, n, p, seed) for seed in (1, 2, 3)]
            assert majority(values) == h0_ideal_square(curve, n), (s, n, values)


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
