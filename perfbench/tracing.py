"""Call tracing from outside the package: wrap its public functions in place.

``from .curves import curve_invariants`` binds the function object into the
importing module at import time, so patching ``curves.curve_invariants``
alone would miss the call ``moduli.certificate`` makes.  ``Tracer.install``
therefore replaces every module attribute in the package that *is* the
original object.

Each wrapped call pushes a frame that collects the time of its wrapped
children; on return the call's self time is its duration minus that child
time.  Layers listed as hot leaves (``arith``, ``p3cohom`` and
``curves.h_curve_structure``, called millions of times by the e(C) scan) keep
only these counters.  Every other wrapped call also appends a span
``(id, name, start, end, parent id, operation id)`` that stays in memory
until the caller writes it out.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "moduli_numerics"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module.attr`` or ``module.Class.attr``."""

    name: str
    module: str
    attr: str
    owner: str | None = None
    leaf: bool = False


def _layer_targets(layer: str, attrs: str, leaf: bool = False) -> list[Target]:
    return [Target(f"{layer}.{a}", f"{PACKAGE}.{layer}", a, leaf=leaf) for a in attrs.split()]


TARGETS: tuple[Target, ...] = (
    *_layer_targets("arith", "binom_trunc binom_poly", leaf=True),
    *_layer_targets("p3cohom", "h_line chi_line h_free_sum chi_free_sum", leaf=True),
    *_layer_targets("curves", "h_curve_structure", leaf=True),
    *_layer_targets("curves", "determinantal_curve chi_ideal h_ideal curve_invariants"),
    *_layer_targets("surfaces", "hypersurface chi_OX chi_OX_poly expected_dim chi_E"),
    *_layer_targets(
        "moduli",
        "certificate optimal_parameters interval_for min_delta_nonempty "
        "good_tail_interval ogrady_interval two_component_interval "
        "semistable_interval odd_c1_interval "
        "points_ideal_vanishing points_ideal_square_vanishing",
    ),
    *_layer_targets(
        "natcohom",
        "beta_for_hypersurface gamma natural_cohomology_threshold hilbert_profile",
    ),
    *_layer_targets(
        "oracle", "h0_ideal_oracle h0_ideal_square_oracle h0_line_oracle majority"
    ),
    Target("oracle.rank", f"{PACKAGE}.oracle", "rank", owner="FiniteFieldMatrix"),
    Target("cli.run", f"{PACKAGE}.cli", "run"),
)


@dataclass
class Tracer:
    """Per-name call counts and self times, spans, and a few layer counters."""

    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, list] = field(default_factory=dict)  # name -> [calls, self seconds]
    spans: list[tuple] = field(default_factory=list)
    top_s: float = 0.0
    op_id: int | None = None
    curve_s_values: set[int] = field(default_factory=set)
    matrix_cells: int = 0
    matrix_rows: int = 0
    rank_sum: int = 0
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    @property
    def calls(self) -> dict[str, int]:
        return defaultdict(int, {name: cell[0] for name, cell in self.stats.items()})

    @property
    def self_s(self) -> dict[str, float]:
        return defaultdict(float, {name: cell[1] for name, cell in self.stats.items()})

    def wrap(self, name: str, fn: Callable, leaf: bool = False) -> Callable:
        """Return ``fn`` wrapped to count calls, self time and (unless leaf) a span."""
        observe = _OBSERVERS.get(name)
        clock = self.clock
        stack = self._stack
        cell = self.stats.setdefault(name, [0, 0.0])

        def finish(frame: list, start: float) -> float:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            else:
                self.top_s += duration
            cell[0] += 1
            cell[1] += duration - frame[0]
            return end

        if leaf:
            # Hot leaves: no span and no observer, only the counters.
            def traced_leaf(*args, **kwargs):
                frame = [0.0, None]  # [time spent in wrapped children, span id]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(frame, start)

            traced_leaf.__wrapped__ = fn
            return traced_leaf

        def traced(*args, **kwargs):
            frame = [0.0, self._next_id]
            self._next_id += 1
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = finish(frame, start)
                self.spans.append((frame[1], name, start, end, parent, self.op_id))
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Patch every binding of each target inside the package."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            original = getattr(owner, target.attr)
            wrapped = self.wrap(target.name, original, target.leaf)
            if target.owner:
                self._patch(owner, target.attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: object, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def _observe_curve_invariants(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.curve_s_values.add(args[0].s)


def _observe_rank(tracer: Tracer, args: tuple, result: int) -> None:
    matrix = args[0]
    tracer.matrix_cells += matrix.rows * matrix.cols
    tracer.matrix_rows += matrix.rows
    tracer.rank_sum += result


_OBSERVERS = {
    "curves.curve_invariants": _observe_curve_invariants,
    "oracle.rank": _observe_rank,
}

# Library layers whose self time is also reported as a total; cli has one target.
LAYERS = ("arith", "p3cohom", "curves", "surfaces", "moduli", "natcohom", "oracle")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics a traced round reports (benchmark-side ones excluded)."""
    ci_calls = tracer.calls["curves.curve_invariants"]
    m = {
        "curves.curve_invariants.calls": ci_calls,
        "curves.curve_invariants.self_s": tracer.self_s["curves.curve_invariants"],
        "curves.h_curve_structure.calls": tracer.calls["curves.h_curve_structure"],
        "curves.curve_invariants.distinct_ratio": (
            len(tracer.curve_s_values) / ci_calls if ci_calls else 0.0
        ),
        "moduli.certificate.calls": tracer.calls["moduli.certificate"],
        "moduli.certificate.self_s": tracer.self_s["moduli.certificate"],
        "moduli.optimal_parameters.calls": tracer.calls["moduli.optimal_parameters"],
        "moduli.interval_for.self_s": tracer.self_s["moduli.interval_for"],
        "moduli.min_delta_nonempty.self_s": tracer.self_s["moduli.min_delta_nonempty"],
        "natcohom.hilbert_profile.self_s": tracer.self_s["natcohom.hilbert_profile"],
        "natcohom.natural_cohomology_threshold.self_s": tracer.self_s[
            "natcohom.natural_cohomology_threshold"
        ],
        "surfaces.calls": tracer.layer_calls("surfaces"),
        "arith.calls": tracer.layer_calls("arith"),
        "p3cohom.calls": tracer.layer_calls("p3cohom"),
        "oracle.rank.calls": tracer.calls["oracle.rank"],
        "oracle.rank.self_s": tracer.self_s["oracle.rank"],
        "oracle.matrix_cells": tracer.matrix_cells,
        "oracle.rank_yield": tracer.rank_sum / tracer.matrix_rows if tracer.matrix_rows else 0.0,
        "oracle.h0_ideal_oracle.self_s": tracer.self_s["oracle.h0_ideal_oracle"],
        "oracle.h0_ideal_square_oracle.self_s": tracer.self_s["oracle.h0_ideal_square_oracle"],
        "cli.run.self_s": tracer.self_s["cli.run"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    return m
