"""CLI reports: exit codes, format equivalence and round-trips."""

import json
import re

import pytest

from moduli_numerics import cli, moduli

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
    monkeypatch.setattr(cli, "h0_ideal_oracle", lambda s, n, p, seed: 999)
    argv = ["verify", "--max-s", "1", "--prime", "101", "--seed", "1", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 4
    assert json.loads(out)["result"]["ok"] is False


def test_internal_error_exits_5(capsys, monkeypatch):
    def broken(curve):
        raise RuntimeError(f"h^1(O_C(0)) != 0 for s={curve.s}")

    monkeypatch.setattr(moduli, "curve_invariants", broken)
    code, out, err = run_cli(capsys, ["construct", "--delta", "4"])
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: h^1(O_C(0)) != 0 for s=2\n"


COMMANDS = [
    ["surface", "--delta", "5", "--c2", "10"],
    ["curve", "--s", "3"],
    ["construct", "--delta", "6"],
    ["intervals", "--delta", "14"],
    ["thresholds"],
    ["natural", "--delta", "4", "--c2", "41"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_json_round_trip(argv):
    args = cli.build_parser().parse_args(argv + ["--format", "json"])
    report, _ = cli._HANDLERS[args.command](args)
    assert json.loads(cli.render_json(report)) == report.to_dict()


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
