"""Seeded inputs, operations and correctness checks of the three workloads.

Generators use only the standard library and the workload seed: the package
never chooses its own inputs.  Operations call the package through module
attributes (``moduli.certificate``, not a name bound at import), so the
tracer's patches see them.  Checks run right after each operation, outside
its timing, and compare against closed forms or independent formulas written
out here, or against library values computed during set-up; never against a
second call of the code path that was timed.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from enum import Enum
from random import Random

from moduli_numerics import curves, moduli, natcohom, oracle, surfaces

# --- independent closed forms -------------------------------------------------


def chi_p3(n: int) -> int:
    """chi(O_P3(n)) = (n+1)(n+2)(n+3)/6 at every integer n."""
    return (n + 1) * (n + 2) * (n + 3) // 6


def chi_hypersurface(delta: int, n: int) -> int:
    """chi(O_X(n)) from 0 -> O(n - delta) -> O(n) -> O_X(n) -> 0 on P^3."""
    return chi_p3(n) - chi_p3(n - delta)


def gamma_bound(delta: int) -> int:
    """2*chi(O_X(beta)) with beta the least integer above 3*delta/2 - 4."""
    return 2 * chi_hypersurface(delta, (3 * delta - 8) // 2 + 1)


def c2_min_closed_form(delta: int) -> int:
    """delta^2(delta-2)/4 for even delta, delta(delta-1)(delta-3)/4 for odd."""
    if delta % 2 == 0:
        return delta * delta * (delta - 2) // 4
    return delta * (delta - 1) * (delta - 3) // 4


# --- catalog ------------------------------------------------------------------

CATALOG_LADDER = range(4, 41)
SURFACE_TWISTS = range(-2, 7)


def catalog_inputs(seed: int) -> list[tuple[tuple, ...]]:
    """One operation per degree of the ladder: its five queries, with seeded c2s.

    Degrees and the kinds within each degree come in a seeded order.  One
    operation per degree, rather than per query, makes the median operation
    tens of milliseconds long instead of a sub-millisecond query, whose timing
    on a shared machine varies by a fifth from run to run.
    """
    rng = Random(seed)
    groups = []
    for delta in CATALOG_LADDER:
        group = [
            ("construct", delta),
            ("intervals", delta),
            ("natural", delta, gamma_bound(delta) + rng.randint(1, delta**3)),
            ("curve", delta - 2),
            ("surface", delta, rng.randint(1, delta**3)),
        ]
        rng.shuffle(group)
        groups.append(tuple(group))
    rng.shuffle(groups)
    return groups


def run_catalog(query: tuple):
    """One in-process query, equivalent to the CLI subcommand of the same name."""
    kind = query[0]
    if kind == "construct":
        params = moduli.optimal_parameters(query[1])
        cert = moduli.certificate(query[1], params.s, params.sigma)
        return params, cert, curves.determinantal_curve(params.s)
    if kind == "intervals":
        rows = []
        for label in moduli.IntervalLabel:
            iv = moduli.interval_for(label, query[1])
            rows.append((iv, iv.is_empty, iv.first_integer, iv.last_integer, iv.integer_count))
        return rows
    if kind == "natural":
        delta, c2 = query[1], query[2]
        surface = surfaces.hypersurface(delta)
        profile = natcohom.hilbert_profile(surface, c2, -2, surface.k + 6)
        return profile, natcohom.natural_cohomology_threshold(delta)
    if kind == "curve":
        curve = curves.determinantal_curve(query[1])
        inv = curves.curve_invariants(curve)
        rows = [
            (
                n,
                [curves.h_ideal(curve, i, n) for i in range(4)],
                [curves.h_curve_structure(curve, i, n) for i in range(2)],
            )
            for n in range(-2, 3 * curve.s + 1)
        ]
        return curve, inv, rows
    if kind == "surface":
        delta, c2 = query[1], query[2]
        surface = surfaces.hypersurface(delta)
        rows = [
            (n, surfaces.chi_OX(surface, n), surfaces.chi_E(surface, c2, n))
            for n in SURFACE_TWISTS
        ]
        return surface, surfaces.expected_dim(surface, c2), rows
    raise ValueError(f"unknown catalog query {query!r}")


def catalog_expected(group) -> list[dict | None]:
    """chi(J(n)) from the resolution for each curve query's twists; None for the rest."""
    expected = []
    for query in group:
        if query[0] == "curve":
            curve = curves.determinantal_curve(query[1])
            expected.append({n: curves.chi_ideal(curve, n) for n in range(-2, 3 * curve.s + 1)})
        else:
            expected.append(None)
    return expected


def check_catalog_group(group, expected, results) -> str | None:
    for query, want, result in zip(group, expected, results):
        reason = check_catalog(query, want, result)
        if reason is not None:
            return reason
    return None


def check_catalog(query: tuple, expected: dict | None, result) -> str | None:
    """None when the query's result passes, else a one-line reason."""
    kind, delta = query[0], query[1]
    if kind == "construct":
        params, cert, curve = result
        want = c2_min_closed_form(delta)
        if not cert.good:
            return f"construct delta={delta}: certificate not good"
        if params.c2_min != want or cert.c2 != want:
            return f"construct delta={delta}: c2 {params.c2_min}/{cert.c2} != closed form {want}"
        if curve.degree != params.s * (params.s + 1) // 2:
            return f"construct delta={delta}: curve degree {curve.degree}"
        return None
    if kind == "intervals":
        lowers = {row[0].label.value: row[0].lower for row in result}
        want = c2_min_closed_form(delta)
        for label in ("good_tail", "two_component", "semistable_two_component"):
            if lowers[label] != want:
                return f"intervals delta={delta}: {label} lower {lowers[label]} != {want}"
        return None
    if kind == "natural":
        profile, threshold = result
        c2 = query[2]
        if profile.gamma != gamma_bound(delta) or threshold < profile.gamma:
            return f"natural delta={delta}: gamma {profile.gamma}, threshold {threshold}"
        for row in profile.rows:
            chi = 2 * chi_hypersurface(delta, row.n) - c2
            if not (row.h0 - row.h1 + row.h2 == row.chi == chi):
                return f"natural delta={delta} n={row.n}: row {row} against chi {chi}"
            if sum(1 for h in (row.h0, row.h1, row.h2) if h) > 1:
                return f"natural delta={delta} n={row.n}: not natural {row}"
        return None
    if kind == "curve":
        curve, inv, rows = result
        s = query[1]
        if curve.degree != s * (s + 1) // 2 or (inv.s_of_c, inv.e_of_c) != (s, s - 3):
            return f"curve s={s}: degree {curve.degree}, s(C) {inv.s_of_c}, e(C) {inv.e_of_c}"
        for n, h_j, h_c in rows:
            if h_j[0] - h_j[1] + h_j[2] - h_j[3] != expected.get(n):
                return f"curve s={s} n={n}: ideal table {h_j} misses chi_ideal"
            if h_c[0] - h_c[1] != curve.degree * n + 1 - curve.genus:
                return f"curve s={s} n={n}: structure table {h_c} misses Riemann-Roch"
        return None
    if kind == "surface":
        surface, exp_dim, rows = result
        c2 = query[2]
        if exp_dim != 4 * c2 - 3 * chi_hypersurface(delta, 0):
            return f"surface delta={delta}: expected dim {exp_dim}"
        for n, chi_ox, chi_e in rows:
            if chi_ox != chi_hypersurface(delta, n) or chi_e != 2 * chi_ox - c2:
                return f"surface delta={delta} n={n}: chi {chi_ox}, chi_E {chi_e}"
        return None
    return f"unknown catalog query {query!r}"


# --- oracle -------------------------------------------------------------------

ORACLE_MAX_S = 4
ORACLE_PRIMES = (101, 32003)


def oracle_inputs(seed: int) -> tuple[tuple[int, int, int], list[tuple[int, int, int]]]:
    """Three matrix seeds drawn from the workload seed, and (s, p, n) in verify order."""
    matrix_seeds = tuple(Random(seed).sample(range(1, 2**31), 3))
    checks = [
        (s, p, n)
        for s in range(1, ORACLE_MAX_S + 1)
        for p in ORACLE_PRIMES
        for n in range(0, 3 * s + 1)
    ]
    return matrix_seeds, checks


def oracle_expected(checks) -> list[int]:
    """h^0(J(n)) from the resolution formula, one per check."""
    return [curves.h_ideal(curves.determinantal_curve(s), 0, n) for s, _, n in checks]


def run_oracle(check: tuple[int, int, int], matrix_seeds: tuple[int, ...]):
    """The three-seed h^0(J(n)) ranks, plus the squared-ideal ranks when n <= 2s.

    The square check rides along with the h^0 check at the same twist, so that
    the many twists where both oracles answer 0 without building a matrix make
    up a minority of operations rather than sitting at the median.
    """
    s, p, n = check
    values = [oracle.h0_ideal_oracle(s, n, p, seed) for seed in matrix_seeds]
    squares = None
    if n <= 2 * s:
        squares = [oracle.h0_ideal_square_oracle(s, n, p, seed) for seed in matrix_seeds]
    return values, squares


def strict_majority(values) -> int | None:
    value, count = Counter(values).most_common(1)[0]
    return value if 2 * count > len(values) else None


def check_oracle(check, expected: int, result) -> str | None:
    s, p, n = check
    values, squares = result
    if strict_majority(values) != expected:
        return f"oracle s={s} p={p} n={n}: ranks {values} against h_ideal {expected}"
    if squares is None:
        return None
    maj = strict_majority(squares)
    if n < 2 * s and maj != 0:
        return f"oracle s={s} p={p} n={n}: square ranks {squares} below degree 2s"
    # At n = 2s the square is spanned by the C(s+2, 2) products of two minors.
    if n == 2 * s and not (maj is not None and 0 < maj <= (s + 1) * (s + 2) // 2):
        return f"oracle s={s} p={p} n={n}: square ranks {squares} out of range"
    return None


def seed_disagreements(result) -> int:
    return sum(1 for values in result if values is not None and len(set(values)) > 1)


# --- cli ----------------------------------------------------------------------

CLI_SUBCOMMANDS = ("surface", "curve", "construct", "intervals", "thresholds", "natural", "verify")
CLI_FORMATS = ("text", "json", "csv")
CLI_MAX_DELTA = 12


def _cli_argv(command: str, rng: Random) -> list[str]:
    delta = rng.randint(4, CLI_MAX_DELTA)
    if command == "surface":
        return ["surface", "--delta", str(delta), "--c2", str(rng.randint(1, delta**3))]
    if command == "curve":
        return ["curve", "--s", str(rng.randint(1, CLI_MAX_DELTA - 2))]
    if command in ("construct", "intervals"):
        return [command, "--delta", str(delta)]
    if command == "thresholds":
        return ["thresholds"]
    if command == "natural":
        c2 = gamma_bound(delta) + rng.randint(1, delta**3)
        return ["natural", "--delta", str(delta), "--c2", str(c2)]
    return ["verify", "--max-s", "2"]


def cli_inputs(seed: int) -> list[list[str]]:
    """Four calls per subcommand, covering all three formats, in shuffled order."""
    rng = Random(seed)
    argvs = []
    for command in CLI_SUBCOMMANDS:
        for fmt in (*CLI_FORMATS, rng.choice(CLI_FORMATS)):
            argvs.append(_cli_argv(command, rng) + ["--format", fmt])
    rng.shuffle(argvs)
    return argvs


def cli_expected(argv: list[str]) -> dict[str, object]:
    """Report paths and the library values the invocation must print there."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "surface":
        surface = surfaces.hypersurface(int(opts["--delta"]))
        return {
            "result.k": surface.k,
            "result.chi0": surface.chi0,
            "result.expected_dim": surfaces.expected_dim(surface, int(opts["--c2"])),
        }
    if command == "curve":
        curve = curves.determinantal_curve(int(opts["--s"]))
        inv = curves.curve_invariants(curve)
        return {
            "result.degree": curve.degree,
            "result.genus": curve.genus,
            "result.s_of_c": inv.s_of_c,
            "result.e_of_c": inv.e_of_c,
        }
    if command == "construct":
        params = moduli.optimal_parameters(int(opts["--delta"]))
        return {
            "result.s": params.s,
            "result.sigma": params.sigma,
            "result.c2": params.c2_min,
            "result.good": True,
        }
    if command == "intervals":
        delta = int(opts["--delta"])
        return {
            f"result.rows[{i}].lower": moduli.interval_for(label, delta).lower
            for i, label in enumerate(moduli.IntervalLabel)
        }
    if command == "thresholds":
        label = moduli.IntervalLabel.TWO_COMPONENT
        return {
            f"result.rows[{i}].delta": moduli.min_delta_nonempty(label, parity)
            for i, parity in enumerate(("even", "odd", "any"))
        }
    if command == "natural":
        delta = int(opts["--delta"])
        surface = surfaces.hypersurface(delta)
        return {
            "result.k": surface.k,
            "result.gamma": natcohom.gamma(surface, natcohom.beta_for_hypersurface(delta)),
            "result.threshold": natcohom.natural_cohomology_threshold(delta),
        }
    if command == "verify":
        return {"result.ok": True}
    raise ValueError(f"unknown subcommand {command!r}")


def _cell(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return ""
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, _cell(value)


def parse_report(fmt: str, text: str) -> dict[str, str]:
    """Report paths to cell strings, read back from any of the three formats."""
    if fmt == "json":
        return dict(_flatten(json.loads(text)))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return {key: value for key, value in rows[1:]}
    lines = text.splitlines()
    version, command = lines[0].split(" ", 1)
    cells = {"version": version, "command": command}
    body = lines[1:]
    if "" in body:
        blank = body.index("")
        table, body = body[blank + 1 :], body[:blank]
        headers = table[0].split()
        for i, line in enumerate(table[1:]):
            for header, cell in zip(headers, line.split()):
                cells[f"result.rows[{i}].{header}"] = cell
    for line in body:
        key, _, value = line.partition(": ")
        if key != "inputs":
            cells[f"result.{key}"] = value
    return cells


def check_cli(argv: list[str], expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}"
    fmt = argv[argv.index("--format") + 1]
    try:
        cells = parse_report(fmt, out)
    except (ValueError, IndexError) as exc:
        return f"{' '.join(argv)}: unreadable {fmt} report ({exc})"
    if cells.get("version") != "moduli-numerics/1" or cells.get("command") != argv[0]:
        return f"{' '.join(argv)}: header {cells.get('version')} {cells.get('command')}"
    for path, value in expected.items():
        if cells.get(path) != _cell(value):
            return f"{' '.join(argv)}: {path} = {cells.get(path)!r}, library says {_cell(value)!r}"
    return None

