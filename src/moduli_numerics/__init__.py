"""Exact numerics for rank-2 moduli spaces on hypersurfaces in P^3.

Every name is imported from its module (``moduli_numerics.curves``,
``moduli_numerics.moduli``, ...), not from the package top level.  The
finite-field oracles live in ``moduli_numerics.oracle``, the one module that
imports numpy; importing this package does not load it.
"""

__version__ = "0.1.0"
