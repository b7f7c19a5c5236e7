"""Acceptance suite: the numeric claims the package must reproduce exactly.

Each criterion prints one verdict line; run ``pytest tests/test_acceptance.py -s``
to see them all.  Every comparison is exact integer or exact rational
equality; the oracle criterion uses the three-seed majority rule over two
primes.
"""

from math import comb

from moduli_numerics.arith import binom_poly
from moduli_numerics.curves import (
    curve_invariants,
    determinantal_curve,
    h_curve_structure,
    h_ideal,
)
from moduli_numerics.moduli import (
    certificate,
    min_delta_nonempty,
    ogrady_interval,
    optimal_parameters,
    two_component_interval,
)
from moduli_numerics.natcohom import (
    beta_for_hypersurface,
    gamma,
    hilbert_profile,
    natural_cohomology_threshold,
)
from moduli_numerics.oracle import h0_ideal_oracle, h0_ideal_square_oracle, majority
from moduli_numerics.p3cohom import h_line
from moduli_numerics.surfaces import chi_E, chi_OX, hypersurface

SEEDS = (1, 2, 3)
PRIMES = (101, 32003)


def _verdict(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations; first: {failures[0]})"
    print(f"ACCEPTANCE {number} [{name}]: {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_1_certified_minimum_c2():
    failures = []
    for delta in range(4, 41):
        params = optimal_parameters(delta)
        cert = certificate(delta, params.s, params.sigma)
        if not cert.good:
            failures.append((delta, "certificate not good"))
        if delta % 2 == 0:
            closed = delta * delta * (delta - 2) // 4
        else:
            closed = delta * (delta - 1) * (delta - 3) // 4
        if params.c2_min != closed or cert.c2 != closed:
            failures.append((delta, params.c2_min, closed))
    if optimal_parameters(4).c2_min != 8:
        failures.append(("spot delta=4", optimal_parameters(4).c2_min))
    if optimal_parameters(5).c2_min != 10:
        failures.append(("spot delta=5", optimal_parameters(5).c2_min))
    _verdict(1, "certified minimum c2", failures)


def test_criterion_2_parity_thresholds():
    failures = []
    expected = [
        ("two_component", "even", 28),
        ("two_component", "odd", 21),
        ("two_component", "any", 27),
        ("semistable_two_component", "even", 16),
        ("semistable_two_component", "odd", 9),
        ("odd_c1_two_component", "odd", 21),
        ("odd_c1_two_component", "even", 14),
        ("ogrady", "any", 14),
    ]
    for label, parity, want in expected:
        got = min_delta_nonempty(label, parity)
        if got != want:
            failures.append((label, parity, got, want))
    ogrady = ogrady_interval(14)
    points = list(range(ogrady.first_integer, ogrady.last_integer + 1))
    if points != [442, 443, 444, 445, 446]:
        failures.append(("ogrady 14 points", points))
    if not two_component_interval(26).is_empty:
        failures.append(("two_component 26 should be empty",))
    _verdict(2, "parity thresholds", failures)


def test_criterion_3_natural_cohomology_threshold():
    failures = []
    if natural_cohomology_threshold(4) != 40:
        failures.append(("threshold(4)", natural_cohomology_threshold(4)))
    if gamma(hypersurface(4), 3) != 40:
        failures.append(("gamma(4, 3)", gamma(hypersurface(4), 3)))
    for delta in range(4, 61):
        surface = hypersurface(delta)
        bound = natural_cohomology_threshold(delta)
        if delta % 2 == 0 and bound != 2 * chi_OX(surface, 3 * delta // 2 - 3):
            failures.append((delta, "even closed form"))
        if gamma(surface, beta_for_hypersurface(delta)) > bound:
            failures.append((delta, "gamma above threshold"))
    _verdict(3, "natural-cohomology threshold", failures)


def test_criterion_4_curve_invariant_scans():
    failures = []
    for s in range(1, 13):
        curve = determinantal_curve(s)
        inv = curve_invariants(curve)
        if inv.s_of_c != s:
            failures.append((s, "s_of_c", inv.s_of_c))
        if inv.e_of_c != s - 3:
            failures.append((s, "e_of_c", inv.e_of_c))
        if any(h_ideal(curve, 1, n) != 0 for n in range(-5, 3 * s + 1)):
            failures.append((s, "h1 ideal nonzero"))
        if h_curve_structure(curve, 1, s - 3) != s:
            failures.append((s, "h1 at s-3", h_curve_structure(curve, 1, s - 3)))
    _verdict(4, "curve invariant scans", failures)


def test_criterion_5_euler_characteristic_closure():
    failures = []
    for s in range(1, 13):
        curve = determinantal_curve(s)
        for n in range(-10, 3 * s + 1):
            alternating = sum((-1) ** i * h_ideal(curve, i, n) for i in range(4))
            target = binom_poly(n + 3, 3) - (curve.degree * n + 1 - curve.genus)
            if alternating != target:
                failures.append((s, n, alternating, target))
    _verdict(5, "Euler-characteristic closure", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    for s in range(1, 6):
        curve = determinantal_curve(s)
        for p in PRIMES:
            for n in range(0, 3 * s + 1):
                want = h_ideal(curve, 0, n)
                values = [h0_ideal_oracle(s, n, p, seed) for seed in SEEDS]
                if majority(values) != want:
                    failures.append(("h0_ideal", s, n, p, values, want))
                elif len(set(values)) > 1:
                    # lone non-generic seed: majority carries, but log it
                    print(f"note: s={s} n={n} p={p}: seed spread {values}, majority ok")
            for n in range(0, 2 * s):
                values = [h0_ideal_square_oracle(s, n, p, seed) for seed in SEEDS]
                if majority(values) != 0:
                    failures.append(("h0_ideal_square", s, n, p, values))
            # At 2s the C(s + 2, 2) products f_i f_j are independent (Weyman 1979).
            values = [h0_ideal_square_oracle(s, 2 * s, p, seed) for seed in SEEDS]
            if majority(values) != comb(s + 2, 2):
                failures.append(("h0_ideal_square", s, 2 * s, p, values, comb(s + 2, 2)))
    _verdict(6, "oracle equivalence", failures)


def test_criterion_7_natural_cohomology_profile():
    failures = []
    surface = hypersurface(4)
    profile = hilbert_profile(surface, 41, -6, 10)
    by_n = {row.n: row for row in profile.rows}
    for row in profile.rows:
        hs = (row.h0, row.h1, row.h2)
        if sum(1 for h in hs if h != 0) > 1:
            failures.append((row.n, "more than one nonzero", hs))
        if row.h0 - row.h1 + row.h2 != chi_E(surface, 41, row.n):
            failures.append((row.n, "chi bookkeeping", hs))
        mirror = by_n.get(-row.n)
        if mirror is not None and hs != (mirror.h2, mirror.h1, mirror.h0):
            failures.append((row.n, "duality", hs, (mirror.h0, mirror.h1, mirror.h2)))
    _verdict(7, "natural-cohomology profile", failures)


def test_criterion_8_serre_and_hilbert_dualities():
    failures = []
    for n in range(-30, 31):
        for i in range(4):
            if h_line(i, n) != h_line(3 - i, -n - 4):
                failures.append(("h_line", i, n))
        if sum((-1) ** i * h_line(i, n) for i in range(4)) != binom_poly(n + 3, 3):
            failures.append(("euler", n))
    for delta in range(4, 31):
        surface = hypersurface(delta)
        for n in range(-20, 21):
            if chi_OX(surface, n) != chi_OX(surface, surface.k - n):
                failures.append(("chi_OX", delta, n))
            restriction = binom_poly(n + 3, 3) - binom_poly(n - delta + 3, 3)
            if chi_OX(surface, n) != restriction:
                failures.append(("restriction", delta, n))
    _verdict(8, "Serre and Hilbert dualities", failures)
