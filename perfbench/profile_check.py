"""Cross-check the span recorder against cProfile on one workload pass.

Usage (from the repository root)::

    python3 perfbench/profile_check.py --workload campaign-durable --seed 1

Runs the workload's set-up, one warm-up pass, one pass under the span
wrappers and one pass under :mod:`cProfile` with no wrappers.  For each
wrapped function group it prints the call counts both tools saw (they
must be equal) and the group's busy time as a share of
``SimulationEngine.run`` by each tool.  cProfile charges its own cost to
every Python call and the wrappers charge theirs to every wrapped call,
so the shares may differ; the check fails when a call count differs or,
for a group inside the engine loop, a share differs by more than
:data:`TOLERANCE` (absolute).  Groups outside the loop (the campaign's
chunk loop) have shares above 1 and are printed for context only.
Exits 0 when every group agrees.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import WORKLOADS  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Largest accepted difference between the two tools' shares of
#: episode time.  cProfile's per-call cost inflates functions that make
#: many small calls (the raw estimator builds many intervals) by up to
#: about six share points on these workloads.
TOLERANCE = 0.08
BASE = "sim.engine.run"


def _key(function) -> tuple:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper-tables", "campaign-durable"),
                        default="campaign-durable")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    module = importlib.import_module(WORKLOADS[args.workload])

    state = module.setup()
    try:
        module.run_pass(state, args.seed)
        recorder = SpanRecorder()
        module.install(recorder)
        try:
            module.run_pass(state, args.seed)
        finally:
            groups = {}
            for name, function in recorder.installed():
                groups.setdefault(name, []).append(_key(function))
            recorder.uninstall()
        profiler = cProfile.Profile()
        profiler.enable()
        module.run_pass(state, args.seed)
        profiler.disable()
    finally:
        module.teardown(state)

    summary = recorder.summary()
    stats = pstats.Stats(profiler).stats  # key -> (cc, nc, tottime, cumtime, callers)
    span_base = summary[BASE]["busy_ns"] / 1e9
    prof_base = sum(stats[k][3] for k in groups[BASE])
    ok = True
    print(f"{'span group':<34}{'calls':>9}{'cProfile':>10}{'span share':>12}"
          f"{'cProfile share':>16}{'diff':>8}")
    for name in sorted(groups):
        entry = summary.get(name, {"calls": 0, "busy_ns": 0})
        prof_calls = sum(stats[k][1] for k in groups[name] if k in stats)
        prof_cum = sum(stats[k][3] for k in groups[name] if k in stats)
        span_share = entry["busy_ns"] / 1e9 / span_base
        prof_share = prof_cum / prof_base
        diff = span_share - prof_share
        agree = entry["calls"] == prof_calls and (span_share > 1.0 or abs(diff) <= TOLERANCE)
        ok &= agree
        print(f"{name:<34}{entry['calls']:>9}{prof_calls:>10}{span_share:>12.3f}"
              f"{prof_share:>16.3f}{diff:>+8.3f}{'' if agree else '  MISMATCH'}")
    print(f"engine busy: spans {span_base:.3f} s, cProfile {prof_base:.3f} s; "
          f"tolerance {TOLERANCE} share points; {'agree' if ok else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
