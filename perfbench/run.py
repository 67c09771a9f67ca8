"""Benchmark of the semifree CLI: one closed-loop client on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``. A run builds the workload's ops, then makes whole passes over
them, each in an order shuffled by ``--seed``, for about ``--seconds``
seconds and at least one pass. Every op is one ``semifree.cli.run`` call
whose exit code and report bytes are checked against
``perfbench/reference``. The ``commands-families`` and ``fuzz-validated``
passes run in this process; each ``enumerate-default`` pass runs in a
fresh interpreter, because a second enumeration in one process runs
about 15% faster than the first, which is the one a CLI user waits for.

Times are reported at a nominal host speed: ``hostclock.py`` measures the
speed of the shared host while each pass runs and scales by it. The line
before the result also prints the raw set-up and pass times.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the run alternates untraced and traced passes, after
one warm-up pass for the in-process workloads, and holds the per-layer
metrics of ``tracing.py``; the spans are written under ``perfbench/out``.

``--holdout`` measures the second fuzz pool (generator seed 2) instead of
the first, to check a claim on data that a change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import ROOT, WORKLOADS, Op, output_digest  # noqa: E402

REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def reference_path(workload: str, holdout: bool) -> Path:
    suffix = "-holdout" if holdout else ""
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_reference(workload: str, holdout: bool) -> dict:
    with open(reference_path(workload, holdout), encoding="utf-8") as handle:
        return json.load(handle)


def run_op(cli, configs: dict, op: Op) -> tuple[str, int | None, bytes | None]:
    """One ``cli.run`` call; returns its digest, exit code and report.

    An exception out of ``cli.run`` is a result too: its digest names
    the exception class, and the op counts as failed.
    """
    try:
        code, report = cli.run(configs[op.command], op.raw)
    except Exception as exc:  # noqa: BLE001 - every escape is an op outcome
        return f"raise:{type(exc).__name__}", None, None
    return output_digest(code, report), code, report


def enumeration_counts(report: bytes) -> dict:
    """Family sizes and rejection tallies of an ``enumerate`` report."""
    payload = json.loads(report)
    return {
        "family_counts": {tag: len(members) for tag, members in payload["families"].items()},
        "rejected": payload["rejected"],
    }


class Runner:
    """Makes passes over a workload's ops in this process and checks them."""

    cold_passes = False

    def __init__(self, workload: str, ops: list[Op], reference: dict, seed: int):
        from semifree import cli

        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.reference = reference
        self.seed = seed
        self.rng = random.Random(seed)
        self.configs = {
            command: cli.RunConfig(command=command, output_format="structured")
            for command in {op.command for op in ops}
        }
        # An op is a decided candidate for the enumeration and one
        # cli.run call elsewhere.
        self.ops_per_pass = reference.get("ops_per_pass", len(ops))
        self.clock = HostClock()
        self.latencies: list[float] = []  # at nominal host speed
        self.raw_walls: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.summaries: list[dict] = []  # one per traced pass
        self.rss_mb = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems

    def one_pass(self, traced: bool = False) -> float:
        """One pass over every op; returns its time at nominal host speed."""
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        clock = self.clock
        if traced and self.tracer is None:
            self.tracer = tracing.Tracer(clock.now)
        tracer = self.tracer if traced else None
        cli, configs, ops = self.cli, self.configs, self.ops
        results = []
        latencies = []
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            with clock:
                start = clock.now()
                for index in order:
                    if tracer is not None:
                        tracer.begin_request(ops[index].key)
                    began, first_slice = clock.now(), len(clock.slices)
                    digest, _code, report = run_op(cli, configs, ops[index])
                    latencies.append((clock.now() - began, first_slice, len(clock.slices)))
                    results.append((index, digest, report))
                wall = clock.now() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        factor = clock.factor()
        self.factors.append(factor)
        self.raw_walls.append(wall)
        # Each op is scaled by the host speed around it, the pass by its mean.
        self.latencies += [latency * clock.factor(first, end) for latency, first, end in latencies]
        if tracer is not None:
            self.summaries.append(tracer.summarize(first_span, len(tracer.spans), factor))
        self.check(results)
        self.rss_mb = max(self.rss_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return wall * factor

    def check(self, results) -> None:
        expected = self.reference["ops"]
        failed_calls = 0
        for index, digest, report in results:
            if digest != expected[index]:
                self.problems.append(f"{self.ops[index].key}: got {digest}, expected {expected[index]}")
                failed_calls += 1
            elif report is None:
                failed_calls += 1  # raised, as it did when the reference was recorded
            elif "expect" in self.reference:
                counts = enumeration_counts(report)
                if counts != self.reference["expect"]:
                    self.problems.append(f"{self.ops[index].key}: counts {counts}")
                    failed_calls += 1
        self.attempted += self.ops_per_pass
        if self.ops_per_pass == len(self.ops):
            self.failed += failed_calls
        elif failed_calls:
            # One enumerate call decides every candidate of the pass.
            self.failed += self.ops_per_pass

    def passes(self, seconds: float, modes: tuple[bool, ...] = (False,)) -> dict[bool, list[float]]:
        """Times of whole passes, untraced (False) or traced (True).

        Cycles through ``modes`` one pass each, so that the modes see the
        same machine, until the next cycle would end after ``seconds``.
        """
        walls: dict[bool, list[float]] = {mode: [] for mode in modes}
        cycles: list[float] = []  # real time, slices and checks included
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for mode in modes:
                walls[mode].append(self.one_pass(mode))
            cycles.append(time.perf_counter() - cycle_start)
            if time.perf_counter() - start + statistics.median(cycles) > seconds:
                return walls

    def write_trace(self) -> None:
        if self.tracer is not None:
            self.tracer.write(OUT_DIR / f"trace-{self.workload}-seed{self.seed}.json.gz")


class IsolatedRunner(Runner):
    """Runs each pass in a fresh interpreter, as a CLI user runs it."""

    cold_passes = True

    def one_pass(self, traced: bool = False) -> float:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--trace", str(int(traced)),
            "--pass-child", str(len(self.summaries) if traced else -1),
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"pass in a child process failed: {child.stderr.strip()}")
        doc = json.loads(child.stdout.splitlines()[-1])
        self.latencies += doc["latencies"]
        self.raw_walls += doc["raw_walls"]
        self.factors += doc["factors"]
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.problems += doc["problems"]
        self.summaries += doc["summaries"]
        self.rss_mb = max(self.rss_mb, doc["rss_mb"])
        return doc["wall"]

    def write_trace(self) -> None:
        """Each traced child process wrote its own spans."""


def run_pass_child(runner: Runner, traced: bool, number: int) -> int:
    wall = runner.one_pass(traced)
    if traced:
        runner.tracer.write(OUT_DIR / f"trace-{runner.workload}-seed{runner.seed}-pass{number}.json.gz")
    print(json.dumps({
        "wall": wall,
        "latencies": runner.latencies,
        "raw_walls": runner.raw_walls,
        "factors": runner.factors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "summaries": runner.summaries,
        "rss_mb": runner.rss_mb,
    }))
    return 0


def setup_seconds(workload: str, holdout: bool) -> list[tuple[float, float]]:
    """Import plus input building, each in a fresh interpreter.

    Returns (time at nominal host speed, raw time) per probe.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload]
    if holdout:
        command.append("--holdout")
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
        adjusted, raw = probe.stdout.split()[-2:]
        times.append((float(adjusted), float(raw)))
    return times


def end_to_end(runner: Runner, walls: list[float], setups: list[tuple[float, float]]) -> dict:
    latencies = sorted(runner.latencies)
    print(
        f"raw (not host-adjusted): setup_s={statistics.median(raw for _, raw in setups):.4f} "
        f"wall_s={statistics.median(runner.raw_walls):.4f}"
    )
    return {
        "setup_s": (statistics.median(adjusted for adjusted, _ in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (runner.ops_per_pass * len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
        "op_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
        "peak_rss_mb": (runner.rss_mb, "MB"),
    }


def per_layer(runner: Runner, untraced: list[float], traced: list[float]) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    per_pass = runner.summaries
    units = {"calls": "count", "errors": "count", "hit_ratio": "ratio"}
    metrics = {}
    for name in per_pass[0]:
        unit = units.get(name.rpartition(".")[2], "s")
        value = per_pass[0][name] if unit == "count" else statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")

    calls = [{n: p[f"{n}.calls"] for n in tracing.SPAN_NAMES} for p in per_pass]
    unstable = sorted(n for n in calls[0] if any(c[n] != calls[0][n] for c in calls))
    recorded = runner.reference["calls"]
    changed = sorted(n for n in calls[0] if calls[0][n] != recorded.get(n))
    metrics["trace.calls_unstable"] = (len(unstable), "count")
    metrics["trace.calls_changed"] = (len(changed), "count")
    if unstable:
        print(f"WARNING: call counts differ between traced passes: {unstable}", file=sys.stderr)
    if changed:
        print(
            "NOTE: call counts differ from those recorded with the reference: "
            + ", ".join(f"{n} {calls[0][n]} (was {recorded.get(n)})" for n in changed),
            file=sys.stderr,
        )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true", help="measure the second fuzz pool")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-child", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report(args, runner: Runner, metrics: dict, setup_here: float) -> None:
    for problem in runner.problems[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} holdout={int(args.holdout)} "
        f"latency_samples={len(runner.latencies)} python={platform.python_version()} "
        f"nproc={os.cpu_count()} in_process_setup_s={setup_here:.4f} "
        f"host_factor={statistics.median(runner.factors):.3f}"
    )
    print(f"  failed_ratio = {runner.failed / runner.attempted:.6f} ratio ({runner.failed}/{runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.holdout and args.workload != "fuzz-validated":
        print("--holdout applies to fuzz-validated only", file=sys.stderr)
        return 2
    clock = HostClock()
    try:
        with clock:
            started = clock.now()
            ops = workloads.build_ops(args.workload, args.holdout)
            setup_raw = clock.now() - started
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_here = setup_raw * clock.factor()
    if args.setup_probe:
        print(f"{setup_here!r} {setup_raw!r}")
        return 0

    try:
        reference = load_reference(args.workload, args.holdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    isolated = args.workload == "enumerate-default" and args.pass_child is None
    runner = (IsolatedRunner if isolated else Runner)(args.workload, ops, reference, args.seed)
    if workloads.inputs_digest(ops) != reference["inputs"]:
        runner.problems.append("the generated inputs differ from the recorded ones")
    if args.pass_child is not None:
        return run_pass_child(runner, bool(args.trace), args.pass_child)

    try:
        if args.trace:
            if not runner.cold_passes:
                runner.one_pass()  # warm-up, so that both modes run warm
            walls = runner.passes(args.seconds, modes=(False, True))
            metrics = per_layer(runner, walls[False], walls[True])
            runner.write_trace()
        else:
            walls = runner.passes(args.seconds)[False]
            metrics = end_to_end(runner, walls, setup_seconds(args.workload, args.holdout))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, runner, metrics, setup_here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
