"""Construction certificates and the catalog of coexistence intervals.

The certificate checker decides, from a hypersurface degree delta and the
determinantal parameters (s, sigma), whether the rank-2 extension of the
twisted ideal of P = C cap X by O_X(-sigma) is certified to exist, be stable
and sit on a good (reduced, expected-dimension) component.  All seven
conditions reduce to integer comparisons against the curve's least-twist
invariants and vanishing bounds.

The interval catalog records, with exact rational endpoints, the c2 ranges
where the moduli space is known to carry a good component (good_tail), a
larger-than-expected component through points in general position (ogrady),
or both at once (two_component and its semistable and odd-c1 variants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

from .arith import PreconditionError
from .curves import (
    DeterminantalCurve,
    check_parameter,
    curve_invariants,
    determinantal_curve,
    h_ideal,
)
from .surfaces import check_degree, expected_dim, hypersurface

ENUMERATION_CAP = 10**6


class IntervalLabel(str, Enum):
    GOOD_TAIL = "good_tail"
    OGRADY = "ogrady"
    TWO_COMPONENT = "two_component"
    SEMISTABLE_TWO_COMPONENT = "semistable_two_component"
    ODD_C1_TWO_COMPONENT = "odd_c1_two_component"


@dataclass(frozen=True)
class ConstructionCertificate:
    """Per-condition verdicts for the rank-2 construction at (delta, s, sigma).

    cond_a: the curve still has h^1(O_C) at twist 2*sigma - 4 (2*sigma - 4 <= e(C)),
            so the extension class exists.
    cond_b: sigma < s(C) and sigma - delta below the h^1(J) range; gives stability.
    cond_c: delta - 4 < 2*sigma.
    cond_d: delta - 4 < s(C).
    cond_e: 2*sigma - 4 below the h^1(J) range.
    cond_f: h^0(J^2(2*sigma + delta - 4)) = 0, certified by 2*sigma + delta - 4 < jsq_bound.
    cond_g: h^0(N*(2*sigma - 4)) = 0, certified by 2*sigma - 4 < nstar_bound.

    ``stable`` is cond_b alone and ``good`` is all seven together.  A failed
    condition only means "not certified by this criterion", never a disproof,
    so the checker returns a verdict object instead of raising.
    """

    delta: int
    s: int
    sigma: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool
    cond_e: bool
    cond_f: bool
    cond_g: bool
    c2: int
    exp_dim: int

    def conditions(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.startswith("cond_")}

    @property
    def stable(self) -> bool:
        return self.cond_b

    @property
    def good(self) -> bool:
        return all(self.conditions().values())


@dataclass(frozen=True)
class ComponentInterval:
    """A c2 interval with exact rational endpoints and open/closed flags.

    ``upper is None`` means unbounded above.  ``valid`` records a side
    constraint on delta (the general-position construction needs delta >= 14);
    ``stable_unknown`` marks the semistable variant, whose larger component is
    known to contain semistable bundles but is not known to contain stable
    ones.
    """

    label: IntervalLabel
    lower: Fraction
    upper: Fraction | None
    lower_closed: bool
    upper_closed: bool
    stable_unknown: bool = False
    valid: bool = True

    def contains(self, value: int | Fraction) -> bool:
        value = Fraction(value)
        if value < self.lower or (value == self.lower and not self.lower_closed):
            return False
        if self.upper is None:
            return True
        if value > self.upper or (value == self.upper and not self.upper_closed):
            return False
        return True

    @property
    def first_integer(self) -> int:
        if self.lower_closed:
            return math.ceil(self.lower)
        return math.floor(self.lower) + 1

    @property
    def last_integer(self) -> int | None:
        if self.upper is None:
            return None
        if self.upper_closed:
            return math.floor(self.upper)
        return math.ceil(self.upper) - 1

    @property
    def is_empty(self) -> bool:
        """True when the interval contains no integer at all."""
        last = self.last_integer
        return last is not None and self.first_integer > last

    @property
    def integer_count(self) -> int | None:
        """Number of integer points; None when unbounded above."""
        last = self.last_integer
        if last is None:
            return None
        return max(0, last - self.first_integer + 1)

    def integer_points(self) -> list[int]:
        """Materialize the integer points, refusing pathological enumerations."""
        count = self.integer_count
        if count is None:
            raise PreconditionError(f"{self.label.value} interval is unbounded above")
        if count > ENUMERATION_CAP:
            raise PreconditionError(
                f"interval holds {count} integers, above the cap {ENUMERATION_CAP}"
            )
        if count == 0:
            return []
        first = self.first_integer
        return list(range(first, first + count))


def certificate(delta: int, s: int, sigma: int) -> ConstructionCertificate:
    """Evaluate the seven construction conditions at (delta, s, sigma).

    The curve data comes from the determinantal family, whose h^1(J) range is
    infinite; the two conditions bounded by it are literally true but still
    evaluated and reported, so the checker extends unchanged to curve data
    with a finite range.
    """
    check_degree(delta)
    check_parameter(s)
    if sigma < 1:
        raise PreconditionError(f"twist sigma must be >= 1, got {sigma}")

    curve = determinantal_curve(s)
    inv = curve_invariants(curve)

    c2 = delta * (curve.degree - sigma * sigma)
    return ConstructionCertificate(
        delta=delta,
        s=s,
        sigma=sigma,
        cond_a=2 * sigma - 4 <= inv.e_of_c,
        cond_b=sigma < inv.s_of_c and sigma - delta < inv.t_of_c,
        cond_c=delta - 4 < 2 * sigma,
        cond_d=delta - 4 < inv.s_of_c,
        cond_e=2 * sigma - 4 <= inv.t_of_c,
        cond_f=2 * sigma + delta - 4 < inv.jsq_bound,
        cond_g=2 * sigma - 4 < inv.nstar_bound,
        c2=c2,
        exp_dim=expected_dim(hypersurface(delta), c2),
    )


def points_ideal_vanishing(curve: DeterminantalCurve, delta: int, tau: int) -> bool:
    """Decide h^0 of the degree-tau ideal of P = C cap X on the surface.

    Sufficient criterion: no degree-tau surface through C and no h^1
    obstruction at twist tau - delta.  True means the vanishing is certified.
    """
    return h_ideal(curve, 0, tau) == 0 and h_ideal(curve, 1, tau - delta) == 0


def points_ideal_square_vanishing(curve: DeterminantalCurve, delta: int, n: int) -> bool:
    """Decide h^0 of the degree-n squared ideal of P = C cap X on the surface.

    Sufficient criterion: h^1(J(n - delta)) = 0, the squared-ideal vanishing
    range covers n, and the conormal vanishing range covers n - delta.
    """
    inv = curve_invariants(curve)
    return (
        h_ideal(curve, 1, n - delta) == 0
        and n < inv.jsq_bound
        and n - delta < inv.nstar_bound
    )


@dataclass(frozen=True)
class OptimalParameters:
    s: int
    sigma: int
    c2_min: int


def _c2_min(delta: int) -> Fraction:
    """Certified minimum c2 in closed form.

    delta^2 (delta - 2) / 4 for even delta, delta (delta - 1)(delta - 3) / 4 for odd.
    """
    if delta % 2 == 0:
        return Fraction(delta * delta * (delta - 2), 4)
    return Fraction(delta * (delta - 1) * (delta - 3), 4)


def optimal_certificate(delta: int) -> ConstructionCertificate:
    """The certificate at the parameter choice that reaches the smallest certified c2.

    s = delta - 2 for even delta, delta - 3 for odd delta, sigma = s/2.  Its
    c2 is checked against the parity-split closed form and its goodness is
    checked; a failure raises RuntimeError.
    """
    s = delta - 2 if delta % 2 == 0 else delta - 3
    cert = certificate(delta, s, s // 2)
    if cert.c2 != _c2_min(delta):
        raise RuntimeError(f"c2_min {cert.c2} at delta={delta} differs from its closed form")
    if not cert.good:
        raise RuntimeError(f"optimal parameters not certified at delta={delta}: {cert}")
    return cert


def optimal_parameters(delta: int) -> OptimalParameters:
    """(s, sigma, c2) of ``optimal_certificate(delta)``."""
    cert = optimal_certificate(delta)
    return OptimalParameters(s=cert.s, sigma=cert.sigma, c2_min=cert.c2)


def _twisted_general_position_upper(delta: int) -> Fraction:
    return Fraction(delta**3 - 9 * delta**2 + 26 * delta - 3, 3)


# label: (lower(delta), upper(delta) or None when unbounded above,
#         lower_closed, upper_closed, stable_unknown, least delta with ``valid``)
_CATALOG = {
    # [c2_min, infinity): every integer c2 carries a good component.  The tail
    # encodes the propagation step from c2 to c2 + 1; only the resulting range
    # is modeled, not the deformation argument behind it.
    IntervalLabel.GOOD_TAIL: (
        _c2_min,
        None,
        True, False, False, 4,
    ),
    # Points in general position give an oversized component; the construction
    # needs delta >= 14.
    IntervalLabel.OGRADY: (
        lambda delta: Fraction(delta**3 - 7 * delta, 6),
        _twisted_general_position_upper,
        False, False, False, 14,
    ),
    # One good component and one of strictly larger dimension.
    IntervalLabel.TWO_COMPONENT: (
        _c2_min,
        _twisted_general_position_upper,
        True, False, False, 4,
    ),
    # Upper endpoint from the untwisted general-position construction.  The
    # larger component contains semistable bundles; whether it contains stable
    # ones is open.
    IntervalLabel.SEMISTABLE_TWO_COMPONENT: (
        _c2_min,
        lambda delta: Fraction(delta**3 - 6 * delta**2 + 11 * delta - 3, 3),
        True, False, True, 4,
    ),
    # Odd first Chern class (c1 = 1): only the interval arithmetic is modeled,
    # the certificate machinery is not extended to c1 = 1.
    IntervalLabel.ODD_C1_TWO_COMPONENT: (
        lambda delta: Fraction(delta * (delta - 2 if delta % 2 == 0 else delta - 1) ** 2, 4),
        lambda delta: Fraction(2 * delta**3 - 15 * delta**2 + 37 * delta - 6, 6),
        True, False, False, 4,
    ),
}


def _label(label: IntervalLabel | str) -> IntervalLabel:
    try:
        return IntervalLabel(label)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def interval_for(label: IntervalLabel | str, delta: int) -> ComponentInterval:
    """The catalog interval ``label`` at hypersurface degree ``delta``."""
    label = _label(label)
    check_degree(delta)
    lower, upper, lower_closed, upper_closed, stable_unknown, least_delta = _CATALOG[label]
    return ComponentInterval(
        label=label,
        lower=lower(delta),
        upper=None if upper is None else upper(delta),
        lower_closed=lower_closed,
        upper_closed=upper_closed,
        stable_unknown=stable_unknown,
        valid=delta >= least_delta,
    )


# One name per catalog entry, for callers that want a builder by name.
def good_tail_interval(delta: int) -> ComponentInterval:
    return interval_for(IntervalLabel.GOOD_TAIL, delta)


def ogrady_interval(delta: int) -> ComponentInterval:
    return interval_for(IntervalLabel.OGRADY, delta)


def two_component_interval(delta: int) -> ComponentInterval:
    return interval_for(IntervalLabel.TWO_COMPONENT, delta)


def semistable_interval(delta: int) -> ComponentInterval:
    return interval_for(IntervalLabel.SEMISTABLE_TWO_COMPONENT, delta)


def odd_c1_interval(delta: int) -> ComponentInterval:
    return interval_for(IntervalLabel.ODD_C1_TWO_COMPONENT, delta)


def min_delta_nonempty(label: IntervalLabel | str, parity: str = "any") -> int:
    """Smallest delta of the given parity from which the interval always holds an integer.

    This is the delta after the largest empty one.  A first-hit search would
    be wrong: low degrees can be accidentally nonempty (the odd-c1 interval at
    delta=4 is [4, 5) and holds 4) while later ones are empty again.

    Each walk along one parity stops on an exact certificate.  Along one
    parity every bounded width w = upper - lower is a polynomial of degree at
    most 3 in delta (the lower endpoints split by parity), so its third
    backward difference d3 over steps of 2 is constant.  If w > 1, d1 > 0,
    d2 > 0 and d3 >= 0 hold at delta, they hold at delta + 2: d2 grows by d3,
    d1 by d2 and w by d1.  By induction every later width exceeds 1, and an
    interval wider than 1 holds an integer whatever its open/closed flags.
    """
    label = _label(label)
    if parity not in ("even", "odd", "any"):
        raise PreconditionError(f"parity must be 'even', 'odd' or 'any', got {parity!r}")
    firsts = {"even": (4,), "odd": (5,), "any": (4, 5)}[parity]
    empty = []
    for first in firsts:
        widths: list[Fraction] = []
        for delta in itertools.count(first, 2):
            interval = interval_for(label, delta)
            if interval.upper is None:  # a catalog entry is unbounded at every degree or at none
                break
            if interval.is_empty:
                empty.append(delta)
            widths = [*widths[-3:], interval.upper - interval.lower]
            if len(widths) == 4:
                w3, w2, w1, w0 = widths  # oldest first; the tests are w, d1, d2, d3
                if (w0 > 1 and w0 - w1 > 0 and w0 - 2 * w1 + w2 > 0
                        and w0 - 3 * w1 + 3 * w2 - w3 >= 0):
                    break
    step = 1 if parity == "any" else 2
    return max(empty, default=firsts[0] - step) + step
