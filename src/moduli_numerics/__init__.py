"""Exact numerics for rank-2 moduli spaces on hypersurfaces in P^3.

The finite-field oracles live in ``moduli_numerics.oracle``, the one module
that imports numpy; importing this package does not load it.
"""

from .arith import Rational, binom_poly, binom_trunc
from .curves import (
    CurveInvariants,
    DeterminantalCurve,
    chi_ideal,
    curve_invariants,
    determinantal_curve,
    h_curve_structure,
    h_ideal,
)
from .moduli import (
    ComponentInterval,
    ConstructionCertificate,
    IntervalLabel,
    OptimalParameters,
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
from .natcohom import (
    NaturalCohomologyProfile,
    ProfileRow,
    beta_for_hypersurface,
    gamma,
    hilbert_profile,
    natural_cohomology_threshold,
)
from .p3cohom import FreeSheafSum, chi_free_sum, chi_line, h_free_sum, h_line
from .surfaces import SurfaceNumerics, chi_E, chi_OX, chi_OX_poly, expected_dim, hypersurface

__version__ = "0.1.0"
