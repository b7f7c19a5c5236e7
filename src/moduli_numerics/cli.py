"""Command-line front end emitting text, JSON and CSV reports.

Every subcommand returns its inputs, its result and an exit code; ``run``
encodes them into one report dict, and the three formats render that dict, so
their numeric content is identical.  Integers are serialized as decimal
strings (c2 formulas are cubic in delta and overflow 64-bit consumers),
rationals as "num/den", infinite quantities as "inf" and unbounded interval
data as null.

Exit codes: 0 success, 2 usage error, 3 precondition failure (a
``PreconditionError`` from an input check), 4 oracle mismatch, 5 internal
error (a library self-check failed, or any other ``ValueError`` escaped).
"""

from __future__ import annotations

import argparse
import io
import math
import numbers
import sys
from enum import Enum

from .arith import PreconditionError, twist_range

# A call is one-shot: each handler imports only its own layer, and each renderer
# its own serializer, so no subcommand pays for the imports of another.

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
    if isinstance(value, numbers.Rational):  # an int, or natural's Fraction threshold
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        raise TypeError(f"refusing to encode non-exact float {value!r}")
    if value is None or isinstance(value, str):
        return value
    # A record is a NamedTuple: refused below, like any other object, not flattened to a list.
    if isinstance(value, list) or type(value) is tuple:
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value)!r} in a report")


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


def render_text(report: dict) -> str:
    lines = [f"{report['version']} {report['command']}"]
    if report["inputs"]:
        pairs = " ".join(f"{k}={_text_scalar(v)}" for k, v in report["inputs"].items())
        lines.append(f"inputs: {pairs}")
    rows = None
    for key, value in report["result"].items():
        if key == "rows":
            rows = value
            continue
        lines.append(f"{key}: {_text_scalar(value)}")
    if rows is not None:
        lines.append("")
        lines.extend(_format_table(rows))
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    import json

    return json.dumps(report, indent=2) + "\n"


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def render_csv(report: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for path, value in _flatten(report):
        writer.writerow([path, "" if value is None else _text_scalar(value)])
    return buf.getvalue()


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


def _cmd_surface(args) -> tuple[dict, dict, int]:
    from .surfaces import chi_E, chi_OX, expected_dim, hypersurface

    surface = hypersurface(args.delta)
    result = {"h_square": surface.h_square, "k": surface.k, "chi0": surface.chi0}
    if args.c2 is not None:
        result["expected_dim"] = expected_dim(surface, args.c2)
    rows = []
    for n in twist_range(args.n_min, args.n_max):
        row = {"n": n, "chi_OX": chi_OX(surface, n)}
        if args.c2 is not None:
            row["chi_E"] = chi_E(surface, args.c2, n)
        rows.append(row)
    result["rows"] = rows
    inputs = {"delta": args.delta, "c2": args.c2, "n_min": args.n_min, "n_max": args.n_max}
    return inputs, result, EXIT_OK


def _cmd_curve(args) -> tuple[dict, dict, int]:
    from .curves import curve_invariants, determinantal_curve, h_curve_structure, h_ideal

    curve = determinantal_curve(args.s)
    inv = curve_invariants(curve)
    n_max = args.n_max if args.n_max is not None else 3 * curve.s
    rows = []
    for n in twist_range(args.n_min, n_max):
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
        "syzygy_twist": curve.syzygies.twist,
        "syzygy_rank": curve.syzygies.rank,
        "generator_twist": curve.generators.twist,
        "generator_rank": curve.generators.rank,
        "s_of_c": inv.s_of_c,
        "e_of_c": inv.e_of_c,
        "t_of_c": inv.t_of_c,
        "nstar_bound": inv.nstar_bound,
        "jsq_bound": inv.jsq_bound,
        "rows": rows,
    }
    inputs = {"s": args.s, "n_min": args.n_min, "n_max": n_max}
    return inputs, result, EXIT_OK


def _cmd_construct(args) -> tuple[dict, dict, int]:
    from .curves import determinantal_curve
    from .moduli import certificate, optimal_certificate

    if (args.s is None) != (args.sigma is None):
        raise _UsageError("--s and --sigma must be given together or both omitted")
    if args.s is None:
        cert = optimal_certificate(args.delta)
    else:
        cert = certificate(args.delta, args.s, args.sigma)
    curve = determinantal_curve(cert.s)
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
    return inputs, result, EXIT_OK


def _interval_row(interval) -> dict:
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


def _cmd_intervals(args) -> tuple[dict, dict, int]:
    from .moduli import IntervalLabel, interval_for

    rows = [_interval_row(interval_for(label, args.delta)) for label in IntervalLabel]
    return {"delta": args.delta}, {"rows": rows}, EXIT_OK


def _cmd_thresholds(args) -> tuple[dict, dict, int]:
    from .moduli import IntervalLabel, min_delta_nonempty

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
    return {}, {"rows": rows}, EXIT_OK


def _cmd_natural(args) -> tuple[dict, dict, int]:
    from .natcohom import hilbert_profile, natural_cohomology_threshold
    from .surfaces import hypersurface

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
    return inputs, result, EXIT_OK


def _cmd_verify(args) -> tuple[dict, dict, int]:
    # The oracle layer loads numpy; only this subcommand pays for that import.
    from .curves import curve_invariants, determinantal_curve, h_ideal
    from .oracle import check_inputs, majority
    from .oracle import h0_ideal_oracle, h0_ideal_square_oracle, h0_line_oracle
    from .p3cohom import h_line

    primes = args.prime or [101, 32003]
    seeds = args.seed or [1, 2, 3]
    if len(set(seeds)) < len(seeds):
        # A repeated seed would outvote the others with one (p, seed) pair.
        raise _UsageError(f"--seed values must be distinct, got {seeds}")
    check_inputs(args.max_s, primes)  # before any row
    rows = []

    def check(name, s, n, p, expected, values):
        maj = majority(values)
        rows.append(
            {
                "check": name,
                "s": s,
                "n": n,
                "p": p,
                "expected": expected,
                "values": values,
                "majority": maj,
                "ok": maj == expected,
            }
        )

    for n in range(0, 16):
        check("h0_line", None, n, None, h_line(0, n), [h0_line_oracle(n)])

    for s in range(1, args.max_s + 1):
        curve = determinantal_curve(s)
        # cond_f's bound 2s.  Weyman's resolution 0 -> ^2 G -> G (x) F -> Sym^2 F -> J^2 -> 0
        # (J. Algebra 1979) first relates the products f_i f_j in degree 2s + 1: at 2s, C(s+2, 2).
        jsq_bound = curve_invariants(curve).jsq_bound
        n_top = 3 * s if args.max_n is None else min(3 * s, args.max_n)
        for p in primes:
            # Below its forms' degree a rank is 0 before any matrix is built: no row there.
            # Each seed runs up every twist before the next starts, so its chain is
            # never evicted in between, however many seeds there are.
            twists = range(s, n_top + 1)
            by_seed = [[h0_ideal_oracle(s, n, p, seed) for n in twists] for seed in seeds]
            for n, *values in zip(twists, *by_seed):
                check("h0_ideal", s, n, p, h_ideal(curve, 0, n), values)
            if jsq_bound <= n_top:
                values = [h0_ideal_square_oracle(s, jsq_bound, p, seed) for seed in seeds]
                check("h0_ideal_square", s, jsq_bound, p, math.comb(s + 2, 2), values)

    ok = all(row["ok"] for row in rows)
    result = {"ok": ok, "primes": primes, "seeds": seeds, "rows": rows}
    inputs = {"max_s": args.max_s, "max_n": args.max_n}
    return inputs, result, EXIT_OK if ok else EXIT_ORACLE_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moduli-numerics",
        description="Exact numerics for rank-2 moduli spaces on hypersurfaces in P^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("surface", _cmd_surface, "Hilbert polynomial of a hypersurface")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--c2", type=int, default=None)
    p.add_argument("--n-min", type=int, default=-2)
    p.add_argument("--n-max", type=int, default=6)

    p = command("curve", _cmd_curve, "cohomology tables of a determinantal curve")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-min", type=int, default=-2)
    p.add_argument("--n-max", type=int, default=None)

    p = command("construct", _cmd_construct, "construction certificate at (delta, s, sigma)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--sigma", type=int, default=None)

    p = command("intervals", _cmd_intervals, "c2 intervals of the component catalog")
    p.add_argument("--delta", type=int, required=True)

    command("thresholds", _cmd_thresholds, "parity thresholds of the interval catalog")

    p = command("natural", _cmd_natural, "natural-cohomology Hilbert profile")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)

    p = command("verify", _cmd_verify, "brute-force oracle cross-checks")
    p.add_argument("--max-s", type=int, default=4)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--prime", type=int, action="append", default=None)
    p.add_argument("--seed", type=int, action="append", default=None)

    for p in sub.choices.values():
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--output", default=None, metavar="FILE",
                       help="also write the report to FILE")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # An argument above the int-to-str digit limit already exited 2 in parsing;
    # results are cubic in the arguments and print in full.  Python < 3.10.7 has no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        inputs, result, code = args.handler(args)
        report = {
            "version": FORMAT_VERSION,
            "command": args.command,
            "inputs": encode(inputs),
            "result": encode(result),
        }
        rendered = RENDERERS[args.format](report)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, RuntimeError) as exc:  # a library bug or failed self-check
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        set_limit(limit)
    sys.stdout.write(rendered)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
