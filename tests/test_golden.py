"""Golden corpus: fixed CLI calls whose stdout, stderr and exit code must not change.

Each case's stdout is stored byte for byte in ``golden/<name>.stdout``;
``golden/meta.json`` holds its exit code and stderr.  A change that alters a
report on purpose regenerates the corpus with
``PYTHONPATH=src python tests/test_golden.py`` and commits the diff with the
change that explains it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from moduli_numerics import cli

GOLDEN = Path(__file__).parent / "golden"
META = GOLDEN / "meta.json"

CALLS = [
    *(["intervals", "--delta", str(delta)] for delta in (4, 5, 13, 14, 26, 28)),
    ["thresholds"],
    *(["construct", "--delta", str(delta)] for delta in (4, 9, 28)),
    ["construct", "--delta", "6", "--s", "4", "--sigma", "2"],
    ["intervals", "--delta", "3"],
    ["surface", "--delta", "5", "--c2", "10"],
    ["surface", "--delta", "4"],
    ["curve", "--s", "3"],
    ["curve", "--s", "1", "--n-min", "-1", "--n-max", "2"],
    ["natural", "--delta", "4", "--c2", "41"],
    ["natural", "--delta", "7", "--c2", "400", "--n-min", "-3", "--n-max", "9"],
    ["verify", "--max-s", "2", "--prime", "101", "--seed", "1", "--seed", "2", "--seed", "3"],
    ["verify", "--max-s", "1", "--max-n", "2"],
    ["verify", "--max-s", "3"],
    ["curve", "--s", "0"],
    ["natural", "--delta", "4", "--c2", "40"],
    ["construct", "--delta", "4", "--s", "2"],
    ["curve", "--s", "40", "--n-min", "36", "--n-max", "40"],
    ["construct", "--delta", "41"],
    ["intervals", "--delta", "800"],
]
# Calls run in one format, where json carries every number: the slowest
# oracle calls, and the catalog's largest curve table (s = delta - 2 = 38,
# crossing the negative twists, e(C) = 35 and s(C) = 38).  At p = 2 most
# power-1 chains never start counting and eliminate at every step; the last
# two calls are verify's repeated-prime refusal and its expansion budget.
JSON_CALLS = [
    ["curve", "--s", "38", "--n-min", "-12", "--n-max", "114"],
    ["verify", "--max-s", "4"],
    ["verify", "--max-s", "5"],
    ["verify", "--max-s", "2", "--prime", "2147483647"],
    ["verify", "--max-s", "3", "--prime", "67108859"],
    ["verify", "--max-s", "4", "--prime", "2147483647"],
    ["verify", "--max-s", "6", "--prime", "2"],
    ["verify", "--max-s", "1", "--prime", "101", "--prime", "101"],
    ["verify", "--max-s", "16"],
    ["verify", "--max-s", "3", "--max-n", "2"],
]
CASES = {
    "_".join(a.lstrip("-") for a in argv): argv
    for argv in (
        *(call + ["--format", fmt] for call in CALLS for fmt in ("text", "json", "csv")),
        *(call + ["--format", "json"] for call in JSON_CALLS),
    )
}


def replay(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_corpus_matches_cases():
    assert sorted(json.loads(META.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden(name):
    meta = json.loads(META.read_text(encoding="utf-8"))[name]
    code, out, err = replay(CASES[name])
    assert out.encode("utf-8") == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == meta["stderr"]
    assert code == meta["exit"]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    meta = {}
    for name, argv in CASES.items():
        code, out, err = replay(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        meta[name] = {"argv": " ".join(argv), "exit": code, "stderr": err}
    META.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
