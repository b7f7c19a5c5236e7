"""CLI reports: exit codes, format equivalence and round-trips."""

import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_numerics import cli, curves, moduli
from moduli_numerics.surfaces import hypersurface

NUMBER_TOKEN = re.compile(r"(?<![\w.\[/-])-?\d+(?:/\d+)?(?![\w./])")


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_defaults_from_optimal_parameters(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--delta", "4", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["version"] == "moduli-numerics/1"
    result = report["result"]
    assert result["s"] == "2" and result["sigma"] == "1"
    assert result["c2"] == "8" and result["expected_dim"] == "26"
    assert all(result[f"cond_{c}"] is True for c in "abcdefg")
    assert result["good"] is True and result["stable"] is True


def test_construct_evaluates_certificate_once(capsys, monkeypatch):
    # The handler imports certificate when it runs, so patching the module sees every call.
    calls = []
    real = moduli.certificate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "certificate", counting)
    code, _, _ = run_cli(capsys, ["construct", "--delta", "9"])
    assert code == 0
    assert calls == [(9, 6, 3)]


def test_intervals_json(capsys):
    code, out, _ = run_cli(capsys, ["intervals", "--delta", "28", "--format", "json"])
    assert code == 0
    rows = {row["label"]: row for row in json.loads(out)["result"]["rows"]}
    two = rows["two_component"]
    assert (two["lower"], two["upper"]) == ("5096", "5207")
    assert two["lower_closed"] is True and two["upper_closed"] is False
    assert two["nonempty"] is True and two["integer_count"] == "111"
    assert rows["good_tail"]["upper"] is None
    assert rows["good_tail"]["integer_count"] is None
    assert rows["semistable_two_component"]["stable_unknown"] is True
    assert rows["ogrady"]["valid"] is True


def test_natural_profile(capsys):
    argv = ["natural", "--delta", "4", "--c2", "41", "--n-min", "-2", "--n-max", "6"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["beta"] == "3" and result["gamma"] == "40"
    rows = result["rows"]
    assert len(rows) == 9
    for row in rows:
        nonzero = [h for h in (row["h0"], row["h1"], row["h2"]) if h != "0"]
        assert len(nonzero) <= 1


def test_curve_table(capsys):
    code, out, _ = run_cli(capsys, ["curve", "--s", "3", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["degree"] == "6" and result["genus"] == "3"
    assert result["t_of_c"] == "inf"
    by_n = {row["n"]: row for row in result["rows"]}
    assert by_n["3"]["h0_ideal"] == "4"
    assert all(row["h1_ideal"] == "0" for row in result["rows"])


def test_thresholds_table(capsys):
    code, out, _ = run_cli(capsys, ["thresholds", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    table = {(row["label"], row["parity"]): row["delta"] for row in rows}
    assert table[("two_component", "even")] == "28"
    assert table[("two_component", "odd")] == "21"
    assert table[("two_component", "any")] == "27"
    assert table[("semistable_two_component", "even")] == "16"
    assert table[("semistable_two_component", "odd")] == "9"
    assert table[("odd_c1_two_component", "even")] == "14"
    assert table[("odd_c1_two_component", "odd")] == "21"
    assert table[("ogrady", "any")] == "14"


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, ["construct", "--delta", "4", "--bogus"])
    assert code == 2
    assert "usage" in err


def test_missing_subcommand_exits_2(capsys):
    assert run_cli(capsys, [])[0] == 2


def test_partial_construction_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, ["construct", "--delta", "4", "--s", "2"])
    assert code == 2
    assert "together" in err


def test_precondition_failures_exit_3(capsys):
    code, _, err = run_cli(capsys, ["natural", "--delta", "4", "--c2", "40"])
    assert code == 3
    assert "gamma" in err
    assert run_cli(capsys, ["surface", "--delta", "3"])[0] == 3
    assert run_cli(capsys, ["curve", "--s", "0"])[0] == 3


def test_verify_small_run_passes(capsys):
    argv = ["verify", "--max-s", "1", "--prime", "101", "--seed", "5", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["ok"] is True
    checks = {row["check"] for row in result["rows"]}
    assert checks == {"h0_line", "h0_ideal", "h0_ideal_square"}


def test_verify_majority_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("moduli_numerics.oracle.h0_ideal_oracle", lambda s, n, p, seed: 999)
    argv = ["verify", "--max-s", "1", "--prime", "101", "--seed", "1", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 4
    assert json.loads(out)["result"]["ok"] is False


def test_verify_with_more_seeds_than_chains_builds_each_chain_once(capsys, monkeypatch):
    # Seven seeds exceed the six cached chains; asked twist by twist, every
    # access would evict a chain and rebuild it from its first twist.
    from moduli_numerics import oracle

    built = []
    init = oracle._Chain.__init__

    def counting(chain, *args):
        built.append(None)
        init(chain, *args)

    monkeypatch.setattr(oracle._Chain, "__init__", counting)
    oracle._chain.cache_clear()
    seeds = [arg for seed in range(1, 8) for arg in ("--seed", str(seed))]
    argv = ["verify", "--max-s", "3", "--prime", "101", *seeds, "--format", "json"]
    assert run_cli(capsys, argv)[0] == 0
    # One chain per (s, seed, power).
    assert len(built) == 3 * 7 * 2


def test_internal_error_exits_5(capsys, monkeypatch):
    def broken(curve):
        raise RuntimeError(f"h^1(O_C(0)) != 0 for s={curve.s}")

    monkeypatch.setattr(moduli, "curve_invariants", broken)
    code, out, err = run_cli(capsys, ["construct", "--delta", "4"])
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: h^1(O_C(0)) != 0 for s=2\n"


def test_bare_value_error_exits_5(capsys, monkeypatch):
    # Only PreconditionError means bad input; any other ValueError is a bug.
    def broken(curve):
        raise ValueError("math domain error")

    monkeypatch.setattr(moduli, "curve_invariants", broken)
    code, out, err = run_cli(capsys, ["construct", "--delta", "4"])
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: math domain error\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--max-s", "1", "--prime", "100"], "modulus must be prime, got 100 = 2 * 50"),
        (["curve", "--s", "0"], "determinantal parameter must be >= 1, got 0"),
        (["surface", "--delta", "3", "--c2", "10"], "hypersurface degree must be >= 4, got 3"),
        (
            ["natural", "--delta", "4", "--c2", "1"],
            "natural cohomology is only certified for c2 > gamma = 40, got c2 = 1",
        ),
        (
            ["construct", "--delta", "4", "--s", "0", "--sigma", "1"],
            "determinantal parameter must be >= 1, got 0",
        ),
        (
            # Refused before any row is built: 10^9 rows would exhaust memory.
            ["surface", "--delta", "4", "--n-min", "-1000000000"],
            "twist range -1000000000..6 has 1000000007 rows, more than 100000",
        ),
        # No rank is measured at --max-n 0, yet the prime is still checked.
        (
            ["verify", "--max-s", "1", "--max-n", "0", "--prime", "4"],
            "modulus must be prime, got 4 = 2 * 2",
        ),
        # No curve would be checked, so no "ok: true" either; curve --s 0 agrees.
        (["verify", "--max-s", "0"], "determinantal parameter must be >= 1, got 0"),
        (["verify", "--max-s", "-3"], "determinantal parameter must be >= 1, got -3"),
    ],
)
def test_library_input_checks_exit_3(capsys, argv, message):
    # Exit 3 needs a PreconditionError; a bare ValueError from the check would exit 5.
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "options, message",
    [
        # With seeds [1, 1, 2] one (p, seed) pair would decide every majority.
        (["--prime", "2", "--seed", "1", "--seed", "1", "--seed", "2"],
         "--seed values must be distinct, got [1, 1, 2]"),
        # With primes [101, 101] every row would be printed twice.
        (["--prime", "101", "--prime", "101"], "--prime values must be distinct, got [101, 101]"),
        # Curve s gets rows only from n = s, so curve 1 would get none.
        (["--max-n", "0"], "--max-n 0 is below --max-s 1: curves s > 0 would get no row"),
    ],
    ids=["seed", "prime", "max-n"],
)
def test_verify_refuses_a_repeated_seed(capsys, monkeypatch, options, message):
    monkeypatch.setattr("moduli_numerics.oracle.h0_ideal_oracle", None)  # no rank is measured
    code, out, err = run_cli(capsys, ["verify", "--max-s", "1", *options])
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_verify_reads_the_square_bound_from_curve_invariants(capsys, monkeypatch):
    # A claimed bound of 2s + 1 moves the one square row to n = 2s + 1, where
    # the square of the minor ideal is larger than the C(s + 2, 2) products.
    real = curves.curve_invariants

    def shifted(curve):
        return real(curve)._replace(jsq_bound=2 * curve.s + 1)

    monkeypatch.setattr(curves, "curve_invariants", shifted)
    code, out, _ = run_cli(capsys, ["verify", "--max-s", "1", "--format", "json"])
    assert code == 4
    rows = json.loads(out)["result"]["rows"]
    squares = [(row["n"], row["ok"]) for row in rows if row["check"] == "h0_ideal_square"]
    assert squares == [("3", False), ("3", False)]  # one per default prime
    assert all(row["ok"] for row in rows if row["check"] != "h0_ideal_square")


def test_every_oracle_row_of_verify_can_fail(capsys, monkeypatch):
    # Every rank read through a chain is off by one, so every row that a chain
    # measures must fail; a row that stays ok compared values no chain measured.
    from moduli_numerics import oracle

    class OffByOne:
        def __init__(self, chain):
            self.chain = chain

        @property
        def n(self):
            return self.chain.n

        @property
        def ranks(self):
            return [rank + 1 for rank in self.chain.ranks]

        def advance(self):
            self.chain.advance()

    real = oracle._chain
    monkeypatch.setattr(oracle, "_chain", lambda *key: OffByOne(real(*key)))
    code, out, _ = run_cli(capsys, ["verify", "--max-s", "3", "--format", "json"])
    assert code == 4
    rows = [row for row in json.loads(out)["result"]["rows"] if row["check"] != "h0_line"]
    assert {row["check"] for row in rows} == {"h0_ideal", "h0_ideal_square"}
    assert [row for row in rows if row["ok"]] == []


def test_verify_refuses_a_minor_expansion_over_its_budget(capsys, monkeypatch):
    # The largest Laplace level of _maximal_minors, from its sizes alone.
    from moduli_numerics import oracle

    mib = {s: round(oracle.expansion_bytes(s) / 2**20, 1) for s in (12, 15, 16)}
    assert mib == {12: 60.5, 15: 798.8, 16: 1909.6}
    assert [oracle.expansion_bytes(s) for s in (-1, 0, 1)] == [0, 0, 384]

    def refused(*args):
        raise AssertionError("a minor expansion ran")

    monkeypatch.setattr(oracle, "_maximal_minors", refused)
    for max_s in ("16", LONG):
        code, out, err = run_cli(capsys, ["verify", "--max-s", max_s, "--format", "json"])
        assert (code, out) == (3, "")
        assert err == (
            "error: the oracle supports s <= 15: one level of the s = 16 minor expansion"
            " would take 1909.6 MiB, over 1024 MiB\n"
        )


def _digit_limit():
    # Python before 3.10.7 has no int-to-str digit limit; 0 means none.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def _no_digit_limit():
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# 1501 digits put cubic results past the default limit of 4300 digits.
LONG = "9" * 1501


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["intervals", "--delta", LONG], 0),
        (["construct", "--delta", LONG], 0),
        (["surface", "--delta", LONG, "--n-min", "0", "--n-max", "0"], 0),
        (["curve", "--s", LONG, "--n-min", "0", "--n-max", "0"], 0),
        (["natural", "--delta", LONG, "--c2", "1", "--n-min", "0", "--n-max", "0"], 3),
    ],
    ids=lambda a: a[0] if isinstance(a, list) else None,
)
def test_long_integers_keep_the_exit_code_contract(capsys, argv, expected):
    limit = _digit_limit()
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == expected
    assert "Traceback" not in err and "internal error" not in err
    assert _digit_limit() == limit
    if argv[0] == "construct":
        with _no_digit_limit():
            assert json.loads(out)["result"]["c2"] == str(moduli.optimal_certificate(int(LONG)).c2)


# One subcommand in a fresh interpreter, as a one-shot call runs it.  The last
# stderr line is its exit code, then every module the call loaded.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from moduli_numerics import cli
code = cli.run(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""

_EXACT = {"moduli_numerics", "moduli_numerics.cli", "moduli_numerics.arith"}
_CURVES = {"moduli_numerics.curves", "moduli_numerics.p3cohom"}
_MODULI = {"moduli_numerics.moduli", "moduli_numerics.surfaces", *_CURVES}

# Each subcommand, with the package modules it must load and no others.
IMPORT_SETS = {
    "surface": (["surface", "--delta", "5", "--c2", "10"], {"moduli_numerics.surfaces"}),
    "curve": (["curve", "--s", "3", "--format", "json"], _CURVES),
    "construct": (["construct", "--delta", "6", "--format", "csv"], _MODULI),
    "intervals": (["intervals", "--delta", "14"], _MODULI),
    "thresholds": (["thresholds"], _MODULI),
    "natural": (
        ["natural", "--delta", "4", "--c2", "41"],
        {"moduli_numerics.natcohom", "moduli_numerics.surfaces"},
    ),
    "verify": (["verify", "--max-s", "1"], {"moduli_numerics.oracle", *_CURVES}),
}


@functools.lru_cache(maxsize=None)
def _loaded_by(command: str) -> frozenset[str]:
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *IMPORT_SETS[command][0]],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return frozenset(modules)


@pytest.mark.parametrize("command", IMPORT_SETS)
def test_each_subcommand_loads_only_its_layer(command):
    loaded = _loaded_by(command)
    package = {name for name in loaded if name.split(".")[0] == "moduli_numerics"}
    assert package == _EXACT | IMPORT_SETS[command][1]
    if command != "verify":
        assert {"dataclasses", "numpy"}.isdisjoint(loaded)
    # Only natural's threshold is a true rational; every other number is an int.
    if command != "natural":
        assert {"fractions", "decimal"}.isdisjoint(loaded)


def test_only_verify_imports_numpy():
    assert [command for command in IMPORT_SETS if "numpy" in _loaded_by(command)] == ["verify"]


COMMANDS = [
    ["surface", "--delta", "5", "--c2", "10"],
    ["curve", "--s", "3"],
    ["construct", "--delta", "6"],
    ["intervals", "--delta", "14"],
    ["thresholds"],
    ["natural", "--delta", "4", "--c2", "41"],
]


def test_encode_refuses_a_record():
    # Records are tuples; one reaching a report would otherwise print as a bare list.
    with pytest.raises(TypeError, match="SurfaceNumerics"):
        cli.encode({"surface": hypersurface(4)})
    with pytest.raises(TypeError, match="tuple"):  # reports carry lists only
        cli.encode((1, None))


def test_encode_refuses_a_non_exact_float():
    with pytest.raises(TypeError, match="non-exact float"):
        cli.encode(0.5)
    assert cli.encode(math.inf) == "inf"


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_json_round_trip(argv):
    args = cli.build_parser().parse_args(argv + ["--format", "json"])
    inputs, result, _ = args.handler(args)
    report = {
        "version": cli.FORMAT_VERSION,
        "command": args.command,
        "inputs": cli.encode(inputs),
        "result": cli.encode(result),
    }
    assert json.loads(cli.render_json(report)) == report


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_formats_carry_identical_numeric_content(capsys, argv):
    tokens = {}
    for fmt in ("text", "json", "csv"):
        code, out, _ = run_cli(capsys, argv + ["--format", fmt])
        assert code == 0
        tokens[fmt] = sorted(NUMBER_TOKEN.findall(out))
    assert tokens["text"] == tokens["json"] == tokens["csv"]


def test_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--delta", "4", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "result.c2,8" in lines


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = ["intervals", "--delta", "28", "--format", "json", "--output", str(target)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, _, err = run_cli(capsys, ["intervals", "--delta", "9", "--output", str(target)])
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--delta", "4"],
        ["curve", "--s", "3"],
        ["natural", "--delta", "4", "--c2", "41"],
    ],
    ids=lambda a: a[0],
)
def test_empty_twist_range_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--n-min", "3", "--n-max", "1"])
    assert code == 3
    assert out == ""
    assert err == "error: empty twist range 3..1\n"


_SMALL = st.integers(-3, 9)
_C2 = st.integers(-3, 10**6)
# Per subcommand: (flag, values, required).  verify also draws --prime below.
_FUZZ_FLAGS = {
    "surface": [("--delta", _SMALL, True), ("--c2", _C2, False),
                ("--n-min", _SMALL, False), ("--n-max", _SMALL, False)],
    "curve": [("--s", _SMALL, True), ("--n-min", _SMALL, False), ("--n-max", _SMALL, False)],
    "construct": [("--delta", _SMALL, True), ("--s", _SMALL, False), ("--sigma", _SMALL, False)],
    "intervals": [("--delta", _SMALL, True)],
    "thresholds": [],
    "natural": [("--delta", _SMALL, True), ("--c2", _C2, True),
                ("--n-min", _SMALL, False), ("--n-max", _SMALL, False)],
    "verify": [("--max-s", st.integers(-3, 1), True), ("--max-n", st.integers(-3, 2), True)],
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    for flag, values, required in _FUZZ_FLAGS[command]:
        value = draw(values if required else st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    if command == "verify":
        for prime in draw(st.lists(st.sampled_from([2, 4, 101]), max_size=2)):
            argv += ["--prime", str(prime)]
    return argv


@settings(deadline=None)
@given(_fuzz_argv())
def test_fuzzed_arguments_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err.getvalue()
