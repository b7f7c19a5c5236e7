"""Finite-field oracles: the rank kernel and the minor-span measurements."""

from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
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
    _coefficient_rows,
    _macaulay_matrix,
    _matmul_mod,
    _maximal_minors,
    _poly_mul,
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
            assert _maximal_minors(s, p, seed) == _maximal_minors_reference(s, p, seed), (s, seed)


def test_shared_expansion_multiplies_each_minor_once(monkeypatch):
    # (s+1)(2^s - 1) = 441 products at s = 6; expanding each minor on its own takes 8,652.
    calls = []

    def counting_mul(f, g, p):
        calls.append(None)
        return _poly_mul(f, g, p)

    monkeypatch.setattr(oracle, "_poly_mul", counting_mul)
    _maximal_minors.__wrapped__(6, 101, 1)
    assert 0 < len(calls) <= 448


def test_macaulay_matrix_matches_dict_loop():
    for s in (1, 2, 3):
        for p in (101, 32003):
            minors = _maximal_minors(s, p, 1)
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


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_matmul_mod_is_exact(p):
    # k = 40,000 exceeds one 2^15 chunk of the 16-bit limb path at p = 2^31 - 1.
    rng = np.random.default_rng(p)
    for m, k, q in ((3, 1, 4), (5, 7, 2), (2, 40_000, 1), (4, 0, 2)):
        a = rng.integers(0, p, (m, k), dtype=np.int64)
        b = rng.integers(0, p, (k, q), dtype=np.int64)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        assert _matmul_mod(a, b, p).tolist() == want


def _full_rank(s, n, p, seed, power):
    """The rank of the whole Macaulay matrix of the power ideal, built and reduced afresh."""
    if n < power * s:
        return 0
    forms = [
        reduce(lambda f, g: _poly_mul(f, g, p), factors)
        for factors in combinations_with_replacement(_maximal_minors(s, p, seed), power)
    ]
    return _rank_reference(_macaulay_reference(forms, n - power * s, n), p)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_chained_ranks_match_full_matrix_ranks(p):
    # Ten chains, more than the cache holds: ascending twists advance each
    # chain, descending ones restart it, and the shuffled order interleaves
    # all ten, so chains are evicted and rebuilt.
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
    oracle._chains.clear()
    for order in (ascending, ascending[::-1], shuffled):
        for (s, seed, power), n in order:
            got = (h0_ideal_oracle if power == 1 else h0_ideal_square_oracle)(s, n, p, seed)
            assert got == want[(s, seed, power), n], (s, seed, power, n)
        assert len(oracle._chains) == oracle._CHAIN_CAPACITY


def test_step_eliminates_only_the_rows_x0_misses(monkeypatch):
    # From n = 11 to 12 at s = 4: 68 rows of x1 * E_11 and 9 * 5 generator
    # multiples; the whole Macaulay matrix has 825 rows.
    eliminated = []
    echelon = FiniteFieldMatrix.reduced_echelon

    def counting(matrix):
        eliminated.append(matrix.rows)
        return echelon(matrix)

    h0_ideal_oracle(4, 11, 101, 1)
    monkeypatch.setattr(FiniteFieldMatrix, "reduced_echelon", counting)
    assert h0_ideal_oracle(4, 12, 101, 1) == h_ideal(determinantal_curve(4), 0, 12)
    assert 0 < sum(eliminated) <= 113
    eliminated.clear()
    assert h0_ideal_oracle(4, 12, 101, 1) == h_ideal(determinantal_curve(4), 0, 12)
    assert eliminated == []


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
