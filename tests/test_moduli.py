"""Construction certificates, interval catalog and parity thresholds."""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moduli_numerics import cli, moduli
from moduli_numerics.arith import PreconditionError
from moduli_numerics.curves import determinantal_curve
from moduli_numerics.moduli import (
    ComponentInterval,
    IntervalLabel,
    certificate,
    good_tail_interval,
    interval_for,
    min_delta_nonempty,
    odd_c1_interval,
    ogrady_interval,
    optimal_parameters,
    points_ideal_square_vanishing,
    points_ideal_vanishing,
    semistable_interval,
    two_component_interval,
)


def test_certificate_good_case():
    cert = certificate(4, 2, 1)
    assert all(cert.conditions().values())
    assert cert.stable and cert.good
    assert cert.c2 == 8
    assert cert.exp_dim == 26


def test_certificate_second_example():
    cert = certificate(5, 2, 1)
    assert cert.good and cert.c2 == 10 and cert.exp_dim == 25


def test_certificate_sigma_too_large():
    cert = certificate(4, 2, 2)
    assert not cert.cond_b
    assert not cert.stable
    assert not cert.good


def test_certificate_validation():
    with pytest.raises(ValueError):
        certificate(3, 2, 1)
    with pytest.raises(ValueError):
        certificate(4, 0, 1)
    with pytest.raises(ValueError):
        certificate(4, 2, 0)


def test_vanishing_deciders():
    curve = determinantal_curve(2)
    assert points_ideal_vanishing(curve, 4, 1)
    assert not points_ideal_vanishing(curve, 4, 2)  # h^0(J(2)) = 3
    assert points_ideal_square_vanishing(curve, 4, 2)
    assert not points_ideal_square_vanishing(curve, 4, 4)  # n at the squared-ideal bound


def test_optimal_parameters_examples():
    p4 = optimal_parameters(4)
    assert (p4.s, p4.sigma, p4.c2_min) == (2, 1, 8)
    p5 = optimal_parameters(5)
    assert (p5.s, p5.sigma, p5.c2_min) == (2, 1, 10)
    p28 = optimal_parameters(28)
    assert (p28.s, p28.sigma, p28.c2_min) == (26, 13, 5096)


@pytest.mark.parametrize("delta", range(4, 42))
def test_optimal_parameters_certified(delta):
    params = optimal_parameters(delta)
    assert params.s == (delta - 2 if delta % 2 == 0 else delta - 3)
    assert params.sigma == params.s // 2
    cert = certificate(delta, params.s, params.sigma)
    assert cert.good and cert.stable
    assert cert.c2 == params.c2_min


@pytest.mark.parametrize("delta,s,sigma", [(4, 2, 1), (7, 4, 2), (6, 5, 2), (9, 3, 3)])
def test_certificate_internal_consistency(delta, s, sigma):
    cert = certificate(delta, s, sigma)
    assert cert.c2 == delta * (s * (s + 1) // 2 - sigma * sigma)
    from moduli_numerics.surfaces import expected_dim, hypersurface

    assert cert.exp_dim == expected_dim(hypersurface(delta), cert.c2)
    assert cert.good == all(cert.conditions().values())
    assert cert.stable == cert.cond_b


def test_c2_min_closed_forms_to_100():
    for delta in range(4, 101):
        c2 = optimal_parameters(delta).c2_min
        if delta % 2 == 0:
            assert 4 * c2 == delta * delta * (delta - 2)
        else:
            assert 4 * c2 == delta * (delta - 1) * (delta - 3)


@pytest.mark.parametrize("delta", range(4, 13))
def test_c2_min_is_the_least_c2_of_a_good_certificate(delta):
    # Brute force over every (s, sigma) with s < 4 delta and 1 <= sigma <= 2s + 1:
    # the certified minimum is a minimum, not only the value at the optimal choice.
    good = []
    for s in range(1, 4 * delta):
        for sigma in range(1, 2 * s + 2):
            with contextlib.suppress(PreconditionError):
                cert = certificate(delta, s, sigma)
                if cert.good:
                    good.append(cert.c2)
    assert min(good) == moduli._c2_min(delta)


def test_optimal_parameters_rejects_uncertified_choice(monkeypatch):
    real = moduli.certificate
    monkeypatch.setattr(
        moduli, "certificate", lambda *args: real(*args)._replace(cond_g=False)
    )
    with pytest.raises(RuntimeError, match="not certified at delta=6"):
        optimal_parameters(6)


def test_optimal_certificate_rejects_c2_off_closed_form(monkeypatch):
    real = moduli.certificate

    def off_by_one(*args):
        cert = real(*args)
        return cert._replace(c2=cert.c2 + 1)

    monkeypatch.setattr(moduli, "certificate", off_by_one)
    with pytest.raises(RuntimeError, match="differs from its closed form"):
        moduli.optimal_certificate(6)


def test_ogrady_interval_at_14():
    interval = ogrady_interval(14)
    assert (interval.lower, interval.upper) == (441, 447)
    assert not interval.lower_closed and not interval.upper_closed
    assert (interval.first_integer, interval.last_integer, interval.integer_count) == (442, 446, 5)
    assert interval.valid
    assert not ogrady_interval(13).valid


def test_two_component_examples():
    nonempty = two_component_interval(28)
    assert (nonempty.lower, nonempty.upper) == (5096, 5207)
    assert nonempty.lower_closed and not nonempty.upper_closed
    assert not nonempty.is_empty
    # sharpness just below the even threshold
    assert two_component_interval(26).is_empty


def test_two_component_shares_upper_endpoint_with_ogrady():
    for delta in range(4, 61):
        assert two_component_interval(delta).upper == ogrady_interval(delta).upper


def test_lower_endpoints_match_c2_min():
    for delta in range(4, 41):
        c2_min = optimal_parameters(delta).c2_min
        assert two_component_interval(delta).lower == c2_min
        assert semistable_interval(delta).lower == c2_min
        assert good_tail_interval(delta).lower == c2_min


def test_good_tail_evaluates_no_certificate(monkeypatch):
    # The lower endpoint is the closed form; optimal_certificate checks it
    # against the certificate's c2 (test_lower_endpoints_match_c2_min).
    calls = []
    real = moduli.certificate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "certificate", counting)
    for delta in (4, 5, 40):
        assert interval_for("good_tail", delta).lower == moduli._c2_min(delta)
    assert calls == []


def test_semistable_flag():
    assert semistable_interval(16).stable_unknown
    assert not two_component_interval(16).stable_unknown


def test_good_tail_unbounded():
    tail = good_tail_interval(5)
    assert tail.upper is None and not tail.upper_closed
    assert not tail.is_empty
    assert tail.integer_count is None
    assert tail.first_integer == 10
    assert tail.last_integer is None


# Each endpoint is P(delta) / m with P an integer polynomial, chosen by the parity
# of delta, and m in {3, 4, 6}.  P(delta + 12) = P(delta) mod 12, hence mod m, and
# delta + 12 has the parity of delta, so one period delta = 4..15 covers every delta.
@pytest.mark.parametrize("delta", range(4, 16))
def test_endpoints_are_integers_for_every_delta(delta):
    assert type(moduli._c2_min(delta)) is int
    for label in IntervalLabel:
        interval = interval_for(label, delta)  # _exact raises on a remainder
        assert type(interval.lower) is int
        assert interval.upper is None or type(interval.upper) is int


def test_a_non_integral_closed_form_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="7/4 is not an integer"):
        moduli._exact(7, 4)
    ogrady = moduli._CATALOG[IntervalLabel.OGRADY]
    broken = (lambda delta: moduli._exact(delta**3 - 7 * delta + 1, 6), *ogrady[1:])
    monkeypatch.setitem(moduli._CATALOG, IntervalLabel.OGRADY, broken)
    with pytest.raises(RuntimeError, match="is not an integer"):
        ogrady_interval(14)


def test_odd_c1_low_degree_accident():
    # [4, 5) holds the integer 4, yet delta = 6..12 are empty again, so the
    # stable threshold for even degrees is 14.
    assert not odd_c1_interval(4).is_empty
    assert odd_c1_interval(6).is_empty
    assert min_delta_nonempty(IntervalLabel.ODD_C1_TWO_COMPONENT, "even") == 14


def test_parity_thresholds():
    assert min_delta_nonempty("two_component", "even") == 28
    assert min_delta_nonempty("two_component", "odd") == 21
    assert min_delta_nonempty("two_component", "any") == 27
    assert min_delta_nonempty("semistable_two_component", "even") == 16
    assert min_delta_nonempty("semistable_two_component", "odd") == 9
    assert min_delta_nonempty("odd_c1_two_component", "odd") == 21
    assert min_delta_nonempty("ogrady", "any") == 14


def _scan_to_400(label, parity):
    # Reference: every degree up to 400, with no stopping certificate.
    step = 1 if parity == "any" else 2
    first = {"even": 4, "odd": 5, "any": 4}[parity]
    empty = [d for d in range(first, 401, step) if interval_for(label, d).is_empty]
    if not empty:
        return first
    assert max(empty) <= 350, "still empty near the end of the reference scan"
    return max(empty) + step


@pytest.mark.parametrize("parity", ["even", "odd", "any"])
@pytest.mark.parametrize("label", list(IntervalLabel), ids=lambda label: label.value)
def test_thresholds_match_the_reference_scan(label, parity):
    assert min_delta_nonempty(label, parity) == _scan_to_400(label, parity)


def test_thresholds_command_builds_few_intervals(monkeypatch):
    calls = []
    real = moduli.interval_for

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "interval_for", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["thresholds"]) == 0
    assert 0 < len(calls) <= 90


@pytest.mark.parametrize("first", [4, 5], ids=["even", "odd"])
@pytest.mark.parametrize(
    "label",
    [label for label in IntervalLabel if label is not IntervalLabel.GOOD_TAIL],
    ids=lambda label: label.value,
)
def test_widths_are_cubic_along_each_parity(label, first):
    # The stopping certificate of min_delta_nonempty rests on this shape.
    widths = []
    for delta in range(first, 401, 2):
        interval = interval_for(label, delta)
        widths.append(interval.upper - interval.lower)
    windows = zip(widths, widths[1:], widths[2:], widths[3:])
    d3 = [w0 - 3 * w1 + 3 * w2 - w3 for w3, w2, w1, w0 in windows]
    assert all(d >= 0 for d in d3)
    assert all(b - a == 0 for a, b in zip(d3, d3[1:]))


def test_min_delta_validation():
    with pytest.raises(ValueError):
        min_delta_nonempty("two_component", "both")
    with pytest.raises(ValueError):
        min_delta_nonempty("no_such_label")


def test_unknown_label_is_a_precondition_error():
    message = "'no_such_label' is not a valid IntervalLabel"
    with pytest.raises(PreconditionError, match=message):
        interval_for("no_such_label", 14)
    with pytest.raises(PreconditionError, match=message):
        min_delta_nonempty("no_such_label")


def test_interval_for_accepts_strings():
    assert interval_for("ogrady", 14) == ogrady_interval(14)


@given(st.integers(-40, 40), st.integers(0, 30), st.booleans(), st.booleans())
def test_integer_points_against_brute_force(lower, span, lo_closed, up_closed):
    upper = lower + span
    interval = ComponentInterval(
        label=IntervalLabel.TWO_COMPONENT,
        lower=lower,
        upper=upper,
        lower_closed=lo_closed,
        upper_closed=up_closed,
    )
    # Membership straight from the endpoints and their open/closed flags.
    above = [m for m in range(-60, 81) if m > lower or (m == lower and lo_closed)]
    expected = [m for m in above if m < upper or (m == upper and up_closed)]
    if expected:
        assert (interval.first_integer, interval.last_integer) == (expected[0], expected[-1])
    assert interval.is_empty == (not expected)
    assert interval.integer_count == len(expected)
