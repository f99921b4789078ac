#!/usr/bin/env python
"""Traced-benchmark smoke test (``make perfbench-smoke``).

Runs the repository benchmark (``perfbench/run.py``) once per episode
workload with its span wrappers installed::

    python3 perfbench/run.py --workload paper-tables     --seed 1 --seconds 1 --trace 1
    python3 perfbench/run.py --workload campaign-durable --seed 1 --seconds 1 --trace 1

and fails unless each run exits 0 and its last stdout line is a JSON
result with ``"correct": true``.  A traced run is correct only when the
traced and untraced outcome digests agree and every wrapped layer
reports its metrics, so this catches a change under ``src/`` that
renames, removes or bypasses a layer entry point the benchmark wraps
(e.g. an estimator that stops calling ``ReachabilityAnalyzer``'s band
functions).

A wrapper that is bypassed rather than removed (say, a call that goes
through an alias imported into another module instead of the wrapped
module global) leaves the run correct but its metric at 0.  So the
script also fails when a metric in ``NONZERO`` reads 0: every
campaign-durable pass journals and snapshots its chunks.  The script
only invokes the benchmark; it never edits it.

Exits 0 on success, 1 on any failed run.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-tables", "campaign-durable")
#: Per-layer metrics that must read above 0 on a workload's traced run.
NONZERO = {
    "campaign-durable": (
        "campaign.snapshot.share",
        "campaign.journal.share",
        "campaign.journal.records",
    ),
}


def run_workload(workload: str) -> bool:
    """Run one traced benchmark pass; report and return whether it is correct."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]
    print("$", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    correct = proc.returncode == 0 and result.get("correct") is True
    metrics = result.get("metrics", {})
    for name in NONZERO.get(workload, ()):
        value = metrics.get(name, {}).get("value", 0.0)
        if not value > 0.0:
            correct = False
            print(f"{workload}: {name} reads {value}; its wrapper was bypassed")
    if not correct:
        print(proc.stdout[-4000:])
        print(proc.stderr[-4000:], file=sys.stderr)
    print(
        f"{workload}: exit {proc.returncode}, correct={result.get('correct')}, "
        f"attempted={result.get('attempted')}, failed={result.get('failed')}",
        flush=True,
    )
    return correct


def main() -> int:
    """Run every workload (no early exit) and fold the verdicts."""
    verdicts = [run_workload(workload) for workload in WORKLOADS]
    if all(verdicts):
        print("perfbench smoke: OK")
        return 0
    print("perfbench smoke: FAILED", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
