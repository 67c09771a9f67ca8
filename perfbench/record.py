"""Record the reference outputs that ``run.py`` checks every op against.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are taken as correct. For
each workload (all of them by default, plus the holdout fuzz pool) it
runs every op once, untraced, and stores the digest of its exit code and
report bytes, or the class of the exception it raised. A second, traced
pass stores the call count of every span. The fuzz references also
record the share of data whose middle components share a level and the
exit-code mix of each command.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import reference_path, run_op  # noqa: E402


def record(workload: str, holdout: bool = False) -> dict:
    ops = workloads.build_ops(workload, holdout)
    from semifree import cli

    configs = {
        command: cli.RunConfig(command=command, output_format="structured")
        for command in {op.command for op in ops}
    }
    digests = []
    outcomes: dict[str, Counter] = {}
    reports = []
    for op in ops:
        digest, code, report = run_op(cli, configs, op)
        digests.append(digest)
        reports.append(report)
        outcome = digest if code is None else f"exit {code}"
        outcomes.setdefault(op.command, Counter())[outcome] += 1

    tracer = tracing.Tracer(perf_counter)
    tracer.install()
    try:
        for op in ops:
            tracer.begin_request(op.key)
            run_op(cli, configs, op)
    finally:
        tracer.uninstall()
    summary = tracer.summarize(0, len(tracer.spans))

    reference = {
        "workload": workload,
        "recorded_with": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "inputs": workloads.inputs_digest(ops),
        "calls": {name: summary[f"{name}.calls"] for name in tracing.SPAN_NAMES},
        "outcomes": {command: dict(sorted(c.items())) for command, c in sorted(outcomes.items())},
        "ops": digests,
    }
    if workload == "enumerate-default":
        payload = json.loads(reports[0])
        rejected = payload["rejected"]
        families = {tag: len(members) for tag, members in payload["families"].items()}
        reference["expect"] = {"family_counts": families, "rejected": rejected}
        reference["ops_per_pass"] = sum(rejected.values()) + sum(families.values())
    if workload == "fuzz-validated":
        pool = [op.raw for op in ops if op.command == workloads.FUZZ_COMMANDS[0]]
        shared = sum(workloads.shares_middle_level(raw) for raw in pool)
        reference["pool"] = {
            "seed": workloads.HOLDOUT_SEED if holdout else workloads.FUZZ_SEED,
            "size": len(pool),
            "shared_middle_level": shared,
        }
    return reference


def main(argv: list[str]) -> int:
    targets = [(w, False) for w in (argv or workloads.WORKLOADS)]
    if not argv or "fuzz-validated" in argv:
        targets.append(("fuzz-validated", True))
    for workload, holdout in targets:
        reference = record(workload, holdout)
        path = reference_path(workload, holdout)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{path}: {len(reference['ops'])} ops, outcomes {reference['outcomes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
