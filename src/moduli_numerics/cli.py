"""Command-line front end emitting text, JSON and CSV reports.

Every subcommand builds one Report object; the three formats render the same
encoded values, so their numeric content is identical.  Integers are
serialized as decimal strings (c2 formulas are cubic in delta and overflow
64-bit consumers), rationals as "num/den", and unbounded quantities as null.

Exit codes: 0 success, 2 usage error, 3 precondition failure, 4 oracle
mismatch, 5 internal error (a library self-check failed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .arith import binom_trunc
from .curves import curve_invariants, determinantal_curve, h_curve_structure, h_ideal
from .moduli import (
    ComponentInterval,
    IntervalLabel,
    certificate,
    interval_for,
    min_delta_nonempty,
    optimal_parameters,
)
from .natcohom import (
    beta_for_hypersurface,
    gamma,
    hilbert_profile,
    natural_cohomology_threshold,
)
from .oracle import h0_ideal_oracle, h0_ideal_square_oracle, h0_line_oracle, majority
from .surfaces import chi_E, chi_OX, expected_dim, hypersurface

FORMAT_VERSION = "moduli-numerics/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


def encode(value):
    """Normalize a report value to JSON-native types with exact numerics."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        raise TypeError(f"refusing to encode non-exact float {value!r}")
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value)!r} in a report")


@dataclass
class Report:
    command: str
    inputs: dict
    result: dict
    version: str = FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "inputs": encode(self.inputs),
            "result": encode(self.result),
        }


def _text_scalar(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return ";".join(_text_scalar(v) for v in value)
    return str(value)


def _format_table(rows: list[dict]) -> list[str]:
    if not rows:
        return ["(no rows)"]
    headers = list(rows[0].keys())
    cells = [[_text_scalar(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return lines


def render_text(report: Report) -> str:
    d = report.to_dict()
    lines = [f"{d['version']} {d['command']}"]
    if d["inputs"]:
        pairs = " ".join(f"{k}={_text_scalar(v)}" for k, v in d["inputs"].items())
        lines.append(f"inputs: {pairs}")
    rows = None
    for key, value in d["result"].items():
        if key == "rows":
            rows = value
            continue
        lines.append(f"{key}: {_text_scalar(value)}")
    if rows is not None:
        lines.append("")
        lines.extend(_format_table(rows))
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for path, value in _flatten(report.to_dict()):
        if value is None:
            cell = ""
        elif value is True:
            cell = "true"
        elif value is False:
            cell = "false"
        else:
            cell = str(value)
        writer.writerow([path, cell])
    return buf.getvalue()


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


def _twist_range(n_min: int, n_max: int) -> range:
    if n_min > n_max:
        raise ValueError(f"empty twist range {n_min}..{n_max}")
    return range(n_min, n_max + 1)


def _cmd_surface(args) -> tuple[Report, int]:
    surface = hypersurface(args.delta)
    result = {"h_square": surface.h_square, "k": surface.k, "chi0": surface.chi0}
    if args.c2 is not None:
        result["expected_dim"] = expected_dim(surface, args.c2)
    rows = []
    for n in _twist_range(args.n_min, args.n_max):
        row = {"n": n, "chi_OX": chi_OX(surface, n)}
        if args.c2 is not None:
            row["chi_E"] = chi_E(surface, args.c2, n)
        rows.append(row)
    result["rows"] = rows
    inputs = {"delta": args.delta, "c2": args.c2, "n_min": args.n_min, "n_max": args.n_max}
    return Report("surface", inputs, result), EXIT_OK


def _cmd_curve(args) -> tuple[Report, int]:
    curve = determinantal_curve(args.s)
    inv = curve_invariants(curve)
    n_max = args.n_max if args.n_max is not None else 3 * curve.s
    rows = []
    for n in _twist_range(args.n_min, n_max):
        rows.append(
            {
                "n": n,
                "h0_ideal": h_ideal(curve, 0, n),
                "h1_ideal": h_ideal(curve, 1, n),
                "h2_ideal": h_ideal(curve, 2, n),
                "h3_ideal": h_ideal(curve, 3, n),
                "h0_structure": h_curve_structure(curve, 0, n),
                "h1_structure": h_curve_structure(curve, 1, n),
            }
        )
    result = {
        "degree": curve.degree,
        "genus": curve.genus,
        "syzygy_twist": -curve.s - 1,
        "syzygy_rank": curve.s,
        "generator_twist": -curve.s,
        "generator_rank": curve.s + 1,
        "s_of_c": inv.s_of_c,
        "e_of_c": inv.e_of_c,
        "t_of_c": inv.t_of_c,
        "nstar_bound": inv.nstar_bound,
        "jsq_bound": inv.jsq_bound,
        "rows": rows,
    }
    inputs = {"s": args.s, "n_min": args.n_min, "n_max": n_max}
    return Report("curve", inputs, result), EXIT_OK


def _cmd_construct(args) -> tuple[Report, int]:
    if (args.s is None) != (args.sigma is None):
        raise _UsageError("--s and --sigma must be given together or both omitted")
    if args.s is None:
        params = optimal_parameters(args.delta)
        s, sigma = params.s, params.sigma
    else:
        s, sigma = args.s, args.sigma
    cert = certificate(args.delta, s, sigma)
    curve = determinantal_curve(s)
    result = {
        "s": cert.s,
        "sigma": cert.sigma,
        "curve_degree": curve.degree,
        "curve_genus": curve.genus,
        **cert.conditions(),
        "stable": cert.stable,
        "good": cert.good,
        "c2": cert.c2,
        "expected_dim": cert.exp_dim,
    }
    inputs = {"delta": args.delta, "s": args.s, "sigma": args.sigma}
    return Report("construct", inputs, result), EXIT_OK


def _interval_row(interval: ComponentInterval) -> dict:
    return {
        "label": interval.label,
        "lower": interval.lower,
        "lower_closed": interval.lower_closed,
        "upper": interval.upper,
        "upper_closed": interval.upper_closed,
        "nonempty": not interval.is_empty,
        "first_integer": interval.first_integer,
        "last_integer": interval.last_integer,
        "integer_count": interval.integer_count,
        "valid": interval.valid,
        "stable_unknown": interval.stable_unknown,
    }


def _cmd_intervals(args) -> tuple[Report, int]:
    rows = [_interval_row(interval_for(label, args.delta)) for label in IntervalLabel]
    return Report("intervals", {"delta": args.delta}, {"rows": rows}), EXIT_OK


def _cmd_thresholds(args) -> tuple[Report, int]:
    # Smallest delta of each parity from which the interval always holds a c2.
    rows = []
    for label, parity in [
        (IntervalLabel.TWO_COMPONENT, "even"),
        (IntervalLabel.TWO_COMPONENT, "odd"),
        (IntervalLabel.TWO_COMPONENT, "any"),
        (IntervalLabel.SEMISTABLE_TWO_COMPONENT, "even"),
        (IntervalLabel.SEMISTABLE_TWO_COMPONENT, "odd"),
        (IntervalLabel.ODD_C1_TWO_COMPONENT, "even"),
        (IntervalLabel.ODD_C1_TWO_COMPONENT, "odd"),
        (IntervalLabel.OGRADY, "any"),
    ]:
        rows.append(
            {"label": label, "parity": parity, "delta": min_delta_nonempty(label, parity)}
        )
    return Report("thresholds", {}, {"rows": rows}), EXIT_OK


def _cmd_natural(args) -> tuple[Report, int]:
    surface = hypersurface(args.delta)
    n_min = args.n_min if args.n_min is not None else -2
    n_max = args.n_max if args.n_max is not None else surface.k + 6
    profile = hilbert_profile(surface, args.c2, n_min, n_max)
    rows = [
        {"n": row.n, "h0": row.h0, "h1": row.h1, "h2": row.h2, "chi": row.chi}
        for row in profile.rows
    ]
    result = {
        "k": surface.k,
        "beta": profile.beta,
        "gamma": profile.gamma,
        "threshold": natural_cohomology_threshold(args.delta),
        "rows": rows,
    }
    inputs = {"delta": args.delta, "c2": args.c2, "n_min": n_min, "n_max": n_max}
    return Report("natural", inputs, result), EXIT_OK


def _cmd_verify(args) -> tuple[Report, int]:
    primes = args.prime or [101, 32003]
    seeds = args.seed or [1, 2, 3]
    rows = []
    all_ok = True

    for n in range(0, 16):
        got = h0_line_oracle(n)
        want = binom_trunc(n + 3, 3)
        ok = got == want
        all_ok = all_ok and ok
        rows.append(
            {
                "check": "h0_line",
                "s": None,
                "n": n,
                "p": None,
                "expected": want,
                "values": [got],
                "majority": got,
                "ok": ok,
            }
        )

    for s in range(1, args.max_s + 1):
        curve = determinantal_curve(s)
        n_top = 3 * s if args.max_n is None else min(3 * s, args.max_n)
        for p in primes:
            for n in range(0, n_top + 1):
                want = h_ideal(curve, 0, n)
                values = [h0_ideal_oracle(s, n, p, seed) for seed in seeds]
                maj = majority(values)
                ok = maj == want
                all_ok = all_ok and ok
                rows.append(
                    {
                        "check": "h0_ideal",
                        "s": s,
                        "n": n,
                        "p": p,
                        "expected": want,
                        "values": values,
                        "majority": maj,
                        "ok": ok,
                    }
                )
            for n in range(0, min(2 * s, n_top) + 1):
                values = [h0_ideal_square_oracle(s, n, p, seed) for seed in seeds]
                maj = majority(values)
                if n < 2 * s:
                    ok = maj == 0
                    all_ok = all_ok and ok
                    expected = 0
                else:
                    # First twist where the square can be nonzero: measured, not asserted.
                    ok = True
                    expected = None
                rows.append(
                    {
                        "check": "h0_ideal_square",
                        "s": s,
                        "n": n,
                        "p": p,
                        "expected": expected,
                        "values": values,
                        "majority": maj,
                        "ok": ok,
                    }
                )

    result = {"ok": all_ok, "primes": primes, "seeds": seeds, "rows": rows}
    inputs = {"max_s": args.max_s, "max_n": args.max_n}
    return Report("verify", inputs, result), EXIT_OK if all_ok else EXIT_ORACLE_MISMATCH


_HANDLERS = {
    "surface": _cmd_surface,
    "curve": _cmd_curve,
    "construct": _cmd_construct,
    "intervals": _cmd_intervals,
    "thresholds": _cmd_thresholds,
    "natural": _cmd_natural,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moduli-numerics",
        description="Exact numerics for rank-2 moduli spaces on hypersurfaces in P^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--output", type=Path, default=None, metavar="FILE",
                       help="also write the report to FILE")

    p = sub.add_parser("surface", help="Hilbert polynomial of a hypersurface")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--n-min", type=int, default=-2)
    p.add_argument("--n-max", type=int, default=6)
    common(p)

    p = sub.add_parser("curve", help="cohomology tables of a determinantal curve")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-min", type=int, default=-2)
    p.add_argument("--n-max", type=int, default=None)
    common(p)

    p = sub.add_parser("construct", help="construction certificate at (delta, s, sigma)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--sigma", type=int, default=None)
    common(p)

    p = sub.add_parser("intervals", help="c2 intervals of the component catalog")
    p.add_argument("--delta", type=int, required=True)
    common(p)

    p = sub.add_parser("thresholds", help="parity thresholds of the interval catalog")
    common(p)

    p = sub.add_parser("natural", help="natural-cohomology Hilbert profile")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    common(p)

    p = sub.add_parser("verify", help="brute-force oracle cross-checks")
    p.add_argument("--max-s", type=int, default=4)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--prime", type=int, action="append", default=None)
    p.add_argument("--seed", type=int, action="append", default=None)
    common(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report, code = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    rendered = RENDERERS[args.format](report)
    sys.stdout.write(rendered)
    if args.output is not None:
        try:
            args.output.write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
