"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

import contextlib
import io
import math

import pytest

import run
import workloads
from tracing import Tracer

from moduli_numerics import cli, curves, moduli


@pytest.mark.parametrize(
    "generate", [workloads.catalog_inputs, workloads.oracle_inputs, workloads.cli_inputs]
)
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_catalog_covers_every_kind_once_per_degree():
    groups = workloads.catalog_inputs(3)
    assert len(groups) == run.WORKLOADS["catalog"].ops_per_round
    queries = [q for g in groups for q in g]
    pairs = {(q[0], q[1] + 2 if q[0] == "curve" else q[1]) for q in queries}
    assert len(queries) == len(pairs)
    assert all(len({q[1] + 2 if q[0] == "curve" else q[1] for q in g}) == 1 for g in groups)
    kinds = ("construct", "intervals", "natural", "curve", "surface")
    assert pairs == {(k, d) for k in kinds for d in workloads.CATALOG_LADDER}


def test_round_sizes_match_the_generators():
    assert len(workloads.oracle_inputs(1)[1]) == run.WORKLOADS["oracle"].ops_per_round
    assert len(workloads.cli_inputs(1)) == run.WORKLOADS["cli"].ops_per_round


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(20, 3000):
        q = run.tail_level(count)
        _, beyond = run.percentile([float(i) for i in range(count)], q)
        assert beyond >= run.MIN_BEYOND
        higher = [h for h in run.TAIL_LADDER if h > q]
        if higher:
            _, beyond_higher = run.percentile([float(i) for i in range(count)], higher[0])
            assert beyond_higher < run.MIN_BEYOND
    with pytest.raises(ValueError):
        run.tail_level(19)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == (3.0, 2)
    assert run.percentile(values, 100) == (5.0, 0)


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap("arith.leaf", lambda: advance(3), leaf=True)

    def _child_a():
        advance(2)
        leaf()

    child_a = tracer.wrap("curves.child_a", _child_a)
    child_b = tracer.wrap("curves.child_b", lambda: advance(4))

    def _root():
        advance(1)
        child_a()
        advance(1)
        child_b()
        advance(1)

    root = tracer.wrap("moduli.root", _root)
    tracer.op_id = 9
    root()

    self_s = tracer.self_s
    assert self_s["moduli.root"] == 3
    assert self_s["curves.child_a"] == 2
    assert self_s["arith.leaf"] == 3
    assert self_s["curves.child_b"] == 4
    assert tracer.top_s == 12 == sum(self_s.values())
    assert tracer.layer_self_s("curves") == 6

    spans = {span[1]: span for span in tracer.spans}
    assert "arith.leaf" not in spans
    root_id = spans["moduli.root"][0]
    assert spans["moduli.root"][2:] == (0.0, 12.0, None, 9)
    assert spans["curves.child_a"][2:] == (1.0, 6.0, root_id, 9)
    assert spans["curves.child_b"][2:] == (7.0, 11.0, root_id, 9)


def test_wrappers_catch_curve_invariants_inside_certificate():
    original = moduli.curve_invariants
    tracer = Tracer()
    tracer.install()
    try:
        assert moduli.curve_invariants is not original
        assert moduli.curve_invariants is curves.curve_invariants
        moduli.certificate(6, 4, 2)
    finally:
        tracer.uninstall()
    assert moduli.curve_invariants is original
    assert curves.curve_invariants.__name__ == "curve_invariants"
    assert tracer.calls["curves.curve_invariants"] == 1
    assert tracer.curve_s_values == {4}
    spans = {span[1]: span for span in tracer.spans}
    assert spans["curves.curve_invariants"][4] == spans["moduli.certificate"][0]
    assert tracer.calls["curves.h_curve_structure"] > 0
    assert "curves.h_curve_structure" not in spans

    moduli.certificate(6, 4, 2)
    assert tracer.calls["curves.curve_invariants"] == 1


def test_catalog_checks_pass_and_catch_a_wrong_value():
    for group in workloads.catalog_inputs(5)[:8]:
        results = [workloads.run_catalog(q) for q in group]
        expected = workloads.catalog_expected(group)
        assert workloads.check_catalog_group(group, expected, results) is None
    params, cert, curve = workloads.run_catalog(("construct", 9))
    wrong = moduli.OptimalParameters(params.s, params.sigma, params.c2_min + 1)
    assert "closed form" in workloads.check_catalog(("construct", 9), None, (wrong, cert, curve))
    query = ("curve", 5)
    expected = workloads.catalog_expected([query])[0]
    result = workloads.run_catalog(query)
    expected[4] += 1
    assert "chi_ideal" in workloads.check_catalog(query, expected, result)


def test_oracle_check_catches_a_wrong_majority():
    seeds, checks = workloads.oracle_inputs(2)
    check = (2, 101, 3)
    expected = curves.h_ideal(curves.determinantal_curve(2), 0, 3)
    result = workloads.run_oracle(check, seeds)
    assert workloads.check_oracle(check, expected, result) is None
    assert workloads.check_oracle(check, expected + 1, result) is not None


@pytest.mark.parametrize("fmt", workloads.CLI_FORMATS)
@pytest.mark.parametrize(
    "argv",
    [["construct", "--delta", "7"], ["intervals", "--delta", "9"], ["natural", "--delta", "5",
     "--c2", str(workloads.gamma_bound(5) + 3)], ["curve", "--s", "3"], ["thresholds"]],
)
def test_cli_reports_read_back_in_every_format(argv, fmt):
    argv = argv + ["--format", fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    expected = workloads.cli_expected(argv)
    assert workloads.check_cli(argv, expected, code, buf.getvalue()) is None
    path = next(iter(expected))
    wrong = {path: "nonsense"}
    assert "library says" in workloads.check_cli(argv, wrong, code, buf.getvalue())


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | _io",
            "import time:       500 |     140000 |     numpy",
            "import time:       300 |     150000 | moduli_numerics",
            "import time:       200 |      20000 | moduli_numerics.cli",
        ]
    )
    package, numpy = run.parse_importtime(stderr)
    assert math.isclose(package, 0.17)
    assert math.isclose(numpy, 0.14)
