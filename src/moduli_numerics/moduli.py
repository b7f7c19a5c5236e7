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

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .curves import DeterminantalCurve, curve_invariants, determinantal_curve, h_ideal
from .surfaces import expected_dim, hypersurface

DEFAULT_ENUMERATION_CAP = 10**6


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

    A failed condition only means "not certified by this criterion", never a
    disproof, so the checker returns a verdict object instead of raising.
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
    stable: bool
    good: bool
    c2: int
    exp_dim: int

    def conditions(self) -> dict[str, bool]:
        return {
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "cond_d": self.cond_d,
            "cond_e": self.cond_e,
            "cond_f": self.cond_f,
            "cond_g": self.cond_g,
        }


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

    def integer_points(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
        """Materialize the integer points, refusing pathological enumerations."""
        count = self.integer_count
        if count is None:
            raise ValueError(f"{self.label.value} interval is unbounded above")
        if count > cap:
            raise ValueError(f"interval holds {count} integers, above the cap {cap}")
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
    if delta < 4:
        raise ValueError(f"hypersurface degree must be >= 4, got {delta}")
    if s < 1:
        raise ValueError(f"determinantal parameter must be >= 1, got {s}")
    if sigma < 1:
        raise ValueError(f"twist sigma must be >= 1, got {sigma}")

    curve = determinantal_curve(s)
    inv = curve_invariants(curve)

    cond_a = 2 * sigma - 4 <= inv.e_of_c
    cond_b = sigma < inv.s_of_c and sigma - delta < inv.t_of_c
    cond_c = delta - 4 < 2 * sigma
    cond_d = delta - 4 < inv.s_of_c
    cond_e = 2 * sigma - 4 <= inv.t_of_c
    cond_f = 2 * sigma + delta - 4 < inv.jsq_bound
    cond_g = 2 * sigma - 4 < inv.nstar_bound

    c2 = delta * (curve.degree - sigma * sigma)
    good = cond_a and cond_b and cond_c and cond_d and cond_e and cond_f and cond_g
    return ConstructionCertificate(
        delta=delta,
        s=s,
        sigma=sigma,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        cond_d=cond_d,
        cond_e=cond_e,
        cond_f=cond_f,
        cond_g=cond_g,
        stable=cond_b,
        good=good,
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


def optimal_parameters(delta: int) -> OptimalParameters:
    """The parameter choice that reaches the smallest certified c2.

    s = delta - 2 for even delta, delta - 3 for odd delta, sigma = s/2; then
    c2 = delta * sigma * (sigma + 1).  Agreement with the parity-split closed
    form and the goodness of the certificate are checked; a failure raises
    RuntimeError.
    """
    if delta < 4:
        raise ValueError(f"hypersurface degree must be >= 4, got {delta}")
    s = delta - 2 if delta % 2 == 0 else delta - 3
    sigma = s // 2
    c2_min = delta * sigma * (sigma + 1)
    if c2_min != _c2_min(delta):
        raise RuntimeError(f"c2_min {c2_min} at delta={delta} differs from its closed form")
    cert = certificate(delta, s, sigma)
    if not (cert.good and cert.c2 == c2_min):
        raise RuntimeError(f"optimal parameters not certified at delta={delta}: {cert}")
    return OptimalParameters(s=s, sigma=sigma, c2_min=c2_min)


def _twisted_general_position_upper(delta: int) -> Fraction:
    return Fraction(delta**3 - 9 * delta**2 + 26 * delta - 3, 3)


# label: (lower(delta), upper(delta) or None when unbounded above,
#         lower_closed, upper_closed, stable_unknown, least delta with ``valid``)
_CATALOG = {
    # [c2_min, infinity): every integer c2 carries a good component.  The tail
    # encodes the propagation step from c2 to c2 + 1; only the resulting range
    # is modeled, not the deformation argument behind it.
    IntervalLabel.GOOD_TAIL: (
        lambda delta: Fraction(optimal_parameters(delta).c2_min),
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


def interval_for(label: IntervalLabel | str, delta: int) -> ComponentInterval:
    """The catalog interval ``label`` at hypersurface degree ``delta``."""
    label = IntervalLabel(label)
    if delta < 4:
        raise ValueError(f"hypersurface degree must be >= 4, got {delta}")
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


def min_delta_nonempty(
    label: IntervalLabel | str, parity: str = "any", scan_limit: int = 400
) -> int:
    """Smallest delta of the given parity from which the interval always holds an integer.

    The upper endpoint grows cubically against the quadratic lower one, so
    past some degree every interval contains integers; this returns the first
    delta after the largest empty one.  A first-hit search would be wrong:
    low degrees can be accidentally nonempty (the odd-c1 interval at delta=4
    is [4, 5) and holds 4) while later ones of the same parity are empty
    again.  The scan insists on a wide clean tail below ``scan_limit`` so the
    cubic growth has visibly taken over.
    """
    label = IntervalLabel(label)
    if parity not in ("even", "odd", "any"):
        raise ValueError(f"parity must be 'even', 'odd' or 'any', got {parity!r}")
    step = 1 if parity == "any" else 2
    first = {"even": 4, "odd": 5, "any": 4}[parity]
    empty = [d for d in range(first, scan_limit + 1, step) if interval_for(label, d).is_empty]
    if not empty:
        return first
    largest = max(empty)
    if largest > scan_limit - 50:
        raise RuntimeError(
            f"{label.value} intervals still empty near the scan limit {scan_limit}"
        )
    return largest + step
