#!/usr/bin/env python3
"""Benchmark of moduli-numerics: one closed-loop client, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog|oracle|cli --seed N \
        --seconds S --trace 0|1

Workloads (inputs are generated from ``--seed`` alone; see workloads.py):

* ``catalog``: in-process queries equivalent to ``construct``, ``intervals``,
  ``natural``, ``curve`` (s = delta - 2) and ``surface``; one operation runs
  the five for one degree of the ladder 4..40, degrees in shuffled order.
  Loads ``curves`` (the e(C) scan) through ``moduli``; never touches
  ``oracle``.
* ``oracle``: ``verify``-shaped three-seed rank majorities for s = 1..4,
  n = 0..3s, p in {101, 32003}, with the squared-ideal check at n <= 2s.
  Loads ``oracle`` (modular rank and Macaulay build) only.
* ``cli``: four ``python -m moduli_numerics`` invocations of each of the
  seven subcommands at small sizes, every format, one child at a time.
  Measures what a one-shot user pays: interpreter start and imports.

A run repeats rounds until ``--seconds`` have passed, and at least
``min_rounds`` times.  Each round is a fresh worker process (worker.py), so
no cache survives from one round to the next.  With ``--trace 0`` the run
reports, over all rounds pooled:

* ``ops_per_s``: operations divided by the time spent inside them;
* ``op_p50_ms`` and ``op_tail_ms``: the median operation latency and the
  highest percentile that leaves ten samples beyond it at the workload's
  fixed operation count (``ops_per_round * min_rounds``);
* ``setup_s``: the median over at least SETUP_SAMPLES worker starts of the
  time from spawning the interpreter until the package is imported and the
  inputs are generated;
* ``peak_rss_mb``: the median over rounds of the worker's peak resident
  memory, for ``cli`` that of its largest child;
* ``failed_frac`` (printed; the JSON carries ``failed`` and ``attempted``):
  operations that raised, exited non-zero or failed their check.

With ``--trace 1`` it alternates untraced and traced rounds on the same
inputs and reports the per-layer metrics of the traced rounds (tracing.py)
and ``trace.overhead_s``, the traced minus the untraced operation time (for
``cli`` both replay the argv list through ``cli.run`` in-process).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
restate each metric with its unit, the tail percentile and its sample count,
``failed_frac``, and the version stamp.  The full record, with the stamp and
per-round values, goes to ``perfbench/out/``; a traced run also writes the
spans of its last traced round there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
PACKAGE_SRC = ROOT / "src" / "moduli_numerics"

# Percentiles the tail metric may take; the highest that leaves ten samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    ops_per_round: int
    min_rounds: int

    @property
    def fixed_ops(self) -> int:
        """The operation count every run reaches; it fixes the tail percentile."""
        return self.ops_per_round * self.min_rounds


WORKLOADS = {
    "catalog": Workload(ops_per_round=37, min_rounds=4),
    "oracle": Workload(ops_per_round=68, min_rounds=4),
    "cli": Workload(ops_per_round=28, min_rounds=4),
}


class BenchError(RuntimeError):
    pass


def tail_level(count: int) -> float:
    """The highest ladder percentile with at least ten of ``count`` samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count - math.ceil(q * count / 100) >= MIN_BEYOND:
            best = q
    if best is None:
        raise ValueError(f"{count} samples leave fewer than {MIN_BEYOND} beyond the median")
    return best


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples ranked beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.spans_file = OUT / f"{workload}-seed{seed}-spans.jsonl"

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def spawn(self, mode: str, inproc: bool = False) -> dict:
        """Run one worker to completion; its record plus its setup time."""
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
        ]
        if inproc:
            cmd.append("--inproc")
        if mode == "trace":
            cmd += ["--spans", str(self.spans_file)]
        spawned = time.monotonic()
        # A session of its own lets a timeout stop the worker's children as well.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {mode} timed out") from exc
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {err.strip()[-2000:]}")
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - spawned
        return record

    def rounds(self, modes: list[tuple[str, bool]], min_groups: int) -> list[list[dict]]:
        """Groups of rounds, one per mode, until the time is spent; min_groups at least."""
        groups: list[list[dict]] = []
        last = 0.0
        while len(groups) < min_groups or (
            time.monotonic() - self.started + last <= self.seconds
        ):
            t0 = time.monotonic()
            groups.append([self.spawn(mode, inproc) for mode, inproc in modes])
            last = time.monotonic() - t0
        return groups

    def setup_times(self, records: list[dict]) -> list[float]:
        samples = [r["setup_s"] for r in records]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.spawn("setup")["setup_s"])
        return samples


def plain_metrics(runner: Runner) -> tuple[dict, dict]:
    records = [g[0] for g in runner.rounds([("plain", False)], runner.spec.min_rounds)]
    latencies = [x for r in records for x in r["latencies"]]
    level = tail_level(runner.spec.fixed_ops)
    tail, beyond = percentile(latencies, level)
    setups = runner.setup_times(records)
    attempted = sum(r["attempted"] for r in records)
    metrics = {
        "ops_per_s": (attempted / sum(r["op_s"] for r in records), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in records) / 1024, "MB"),
    }
    detail = {
        "records": records,
        "setup_samples": setups,
        "tail": {"percentile": level, "samples": len(latencies), "beyond": beyond,
                 "fixed_ops": runner.spec.fixed_ops},
    }
    return metrics, detail


def _python_wall(args: list[str]) -> tuple[float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(
            f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return wall, proc.stderr


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of the package's top-level imports and of numpy."""
    package = numpy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        seconds = int(cumulative) / 1e6
        stripped = name.strip()
        top_level = len(name) - len(name.lstrip()) <= 1
        if top_level and stripped.split(".")[0] == "moduli_numerics":
            package += seconds
        if stripped == "numpy" and numpy == 0.0:
            numpy = seconds
    return package, numpy


def import_metrics() -> dict:
    imports, numpys, bare = [], [], []
    for _ in range(IMPORT_SAMPLES):
        _, stderr = _python_wall(["-X", "importtime", "-c", "import moduli_numerics.cli"])
        package, numpy = parse_importtime(stderr)
        imports.append(package)
        numpys.append(numpy)
        bare.append(_python_wall(["-c", "pass"])[0])
    return {
        "cli.import_s": statistics.median(imports),
        "cli.numpy_import_s": statistics.median(numpys),
        "cli.interpreter_s": statistics.median(bare),
    }


def traced_metrics(runner: Runner) -> tuple[dict, dict]:
    # For cli the untraced side replays in-process too, so the difference is the tracer's.
    groups = runner.rounds([("plain", runner.workload == "cli"), ("trace", False)], 1)
    traced = [g[1] for g in groups]
    for r in traced:
        t = r["trace"]
        drift = abs(t["attributed_s"] - t["top_level_s"])
        if drift > 1e-6 + 1e-9 * t["calls"] or t["top_level_s"] > r["op_s"]:
            raise BenchError(f"trace self times do not add up: {t}, operation time {r['op_s']}")
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics.update(import_metrics())
    metrics["trace.overhead_s"] = statistics.median(g[1]["op_s"] - g[0]["op_s"] for g in groups)
    detail = {
        "records": [r for g in groups for r in g],
        "spans_file": str(runner.spans_file.relative_to(ROOT)),
        "inproc_p50_s": statistics.median(x for g in groups for x in g[0]["latencies"]),
        "attributed_s": statistics.median(r["trace"]["attributed_s"] for r in traced),
        "traced_op_s": statistics.median(r["op_s"] for r in traced),
    }
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_cells"):
        return "cells"
    return "count"


def _split_lines(workload: str, metrics: dict, detail: dict) -> list[str]:
    """Which layers hold the operation self time, as shares of all of it."""
    self_s = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    self_s["cli"] = metrics["cli.run.self_s"][0]
    total = sum(self_s.values()) or 1.0
    shares = ", ".join(f"{layer} {value / total:.1%}" for layer, value in self_s.items())
    lines = [
        f"  split of layer self time: {shares}",
        f"  self times add up to {detail['attributed_s']:.4f} s of {detail['traced_op_s']:.4f} s "
        "traced operation time; the rest is the benchmark's own code between calls",
    ]
    if workload == "cli":
        interpreter, imports = metrics["cli.interpreter_s"][0], metrics["cli.import_s"][0]
        lines.append(
            f"  one-shot start: interpreter {interpreter:.4f} s + package import "
            f"{imports:.4f} s = {interpreter + imports:.4f} s per call, against "
            f"{detail['inproc_p50_s']:.4f} s median per call replayed in-process "
            "(op_p50_ms of the untraced run holds both)"
        )
    return lines


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no history to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (PACKAGE_SRC / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, detail = traced_metrics(runner)
        else:
            metrics, detail = plain_metrics(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = detail["records"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]]
    info = {**stamp(), **records[-1]["stamp"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(records)} attempted={attempted} "
          f"wall={time.monotonic() - runner.started:.1f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if not args.trace:
        tail = detail["tail"]
        print(f"  op_tail_ms is p{tail['percentile']:g} of {tail['samples']} operations "
              f"({tail['beyond']} beyond; fixed count {tail['fixed_ops']})")
    else:
        for line in _split_lines(args.workload, metrics, detail):
            print(line)
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for error in errors[:10]:
        print(f"  FAILED {error}")
    print("  stamp " + " ".join(f"{k}={v}" for k, v in info.items()))

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {
        "args": vars(args),
        "stamp": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed / attempted,
        "errors": errors,
        **detail,
    }
    out_file.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
