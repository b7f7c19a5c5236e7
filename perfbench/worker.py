"""One round of a workload in a fresh interpreter; prints one JSON record.

Usage: python perfbench/worker.py --workload NAME --seed N
           [--mode plain|trace|setup] [--inproc] [--spans FILE]

A fresh process per round keeps every in-process cache cold, as it is in a
one-shot ``python -m moduli_numerics`` call.  ``ready`` in the record is
``time.monotonic()`` once the package is imported and the inputs generated;
the parent subtracts its own spawn time (the clock is system-wide on Linux).
``--mode setup`` stops there.  ``--mode trace`` wraps the package's public
functions before the loop and reports per-layer counters.  For ``cli``, the
plain mode runs each argv as a child ``python -m moduli_numerics`` process;
``--inproc`` and the trace mode replay the argv list through ``cli.run``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import moduli_numerics  # noqa: E402

if not Path(moduli_numerics.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"moduli_numerics imported from {moduli_numerics.__file__}, not from {SRC}")

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

CHILD_TIMEOUT_S = 60


def _setup(workload: str, seed: int):
    if workload == "catalog":
        groups = workloads.catalog_inputs(seed)
        return {"groups": groups, "expected": [workloads.catalog_expected(g) for g in groups]}
    if workload == "oracle":
        matrix_seeds, checks = workloads.oracle_inputs(seed)
        return {
            "matrix_seeds": matrix_seeds,
            "checks": checks,
            "expected": workloads.oracle_expected(checks),
        }
    if workload == "cli":
        importlib.import_module("moduli_numerics.cli")  # the in-process replay calls it
        argvs = workloads.cli_inputs(seed)
        return {"argvs": argvs, "expected": [workloads.cli_expected(a) for a in argvs]}
    raise SystemExit(f"unknown workload {workload!r}")


def _run_child(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "moduli_numerics", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.decode("utf-8", errors="replace")


def _run_inproc(argv: list[str]) -> tuple[int, str]:
    from moduli_numerics import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, buf.getvalue()


def _operations(workload: str, inputs: dict, inproc: bool):
    """(label, zero-argument callable) per operation, in stream order."""
    if workload == "catalog":
        return [
            (g, lambda g=g: [workloads.run_catalog(q) for q in g]) for g in inputs["groups"]
        ]
    if workload == "oracle":
        seeds = inputs["matrix_seeds"]
        return [(c, lambda c=c: workloads.run_oracle(c, seeds)) for c in inputs["checks"]]
    run = _run_inproc if inproc else _run_child
    return [(a, lambda a=a: run(a)) for a in inputs["argvs"]]


def _check(workload: str, inputs: dict, index: int, label, result) -> str | None:
    if workload == "catalog":
        return workloads.check_catalog_group(label, inputs["expected"][index], result)
    if workload == "oracle":
        return workloads.check_oracle(label, inputs["expected"][index], result)
    code, out = result
    return workloads.check_cli(label, inputs["expected"][index], code, out)


def _stamp() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "version": moduli_numerics.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "trace", "setup"], default="plain")
    parser.add_argument("--inproc", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    inputs = _setup(args.workload, args.seed)
    ready = time.monotonic()
    record: dict = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(record))
        return

    inproc = args.inproc or args.mode == "trace"
    ops = _operations(args.workload, inputs, inproc)
    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()

    # Each result is checked as soon as its timing stops and then dropped, so the
    # heap, and with it the garbage collector's work, does not grow over a round.
    latencies, errors = [], []
    failed = disagreements = output_bytes = 0
    for op_id, (label, call) in enumerate(ops):
        tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation is a failed operation
            latencies.append(time.perf_counter() - t0)
            reason = f"{label!r}: raised {type(exc).__name__}: {exc}"
        else:
            latencies.append(time.perf_counter() - t0)
            try:
                reason = _check(args.workload, inputs, op_id, label, result)
            except Exception as exc:  # an output the check cannot read fails it
                reason = f"{label!r}: unreadable result ({type(exc).__name__}: {exc})"
            if args.workload == "oracle":
                disagreements += workloads.seed_disagreements(result)
            elif args.workload == "cli":
                output_bytes += len(result[1].encode("utf-8"))
        if reason is not None:
            failed += 1
            errors.append(reason)
        result = None
    tracer.uninstall()

    if args.workload == "cli" and not inproc:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(
        latencies=latencies,
        op_s=sum(latencies),
        attempted=len(ops),
        failed=failed,
        errors=errors[:10],
        peak_rss_kb=peak_kb,
        stamp=_stamp(),
    )
    if args.mode == "trace":
        layers = layer_metrics(tracer)
        layers["oracle.seed_disagreements"] = disagreements
        layers["cli.output_bytes"] = output_bytes
        attributed = sum(tracer.self_s.values())
        record["layers"] = layers
        record["trace"] = {
            "attributed_s": attributed,
            "top_level_s": tracer.top_s,
            "spans": len(tracer.spans),
            "calls": sum(tracer.calls.values()),
        }
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with args.spans.open("w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
