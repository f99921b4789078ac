"""The repository benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 10 --trace 0

Workloads (each module's docstring says why it was chosen):

* ``paper-tables`` — a slice of Tables I/II through the experiments
  harness (:mod:`paper_tables`);
* ``campaign-durable`` — a journaled, chunked left-turn campaign
  (:mod:`campaign_durable`);
* ``serve-open-loop`` — open-loop decision load on a ``repro-serve``
  process (:mod:`serve_open_loop`).

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the same work twice untraced and twice,
alternately, with span wrappers around each layer's public functions,
checks that the outcome digests agree and that the exact counts repeat,
and reports the per-layer metrics plus ``trace.overhead_share``.  Every workload
reports every metric that ``BENCHMARK.json`` lists for its mode, in
the unit listed there; a run that would print another set exits
non-zero instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
under test is imported from ``src/`` of the checkout; without it the
benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import (  # noqa: E402
    WORK_DIR,
    fastest_cells,
    interleaved,
    peak_rss_mb,
    release_cpu,
    result_line,
)
from layers import layer_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())

WORKLOADS = {
    "paper-tables": "paper_tables",
    "campaign-durable": "campaign_durable",
    "serve-open-loop": "serve_open_loop",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics) -> None:
    print(title)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.6g} {unit}")


def run_untraced(module, args, import_s: float):
    """End-to-end metrics: passes between repeated set-ups, fastest cells."""
    passes, setup_median = interleaved(
        module.setup, module.teardown,
        lambda state: module.run_pass(state, args.seed), args.seconds,
    )
    digests = {p.digest for p in passes}
    best = module.metrics_from(fastest_cells(passes))
    metrics = {
        "step_us": (best["step_us"], "us"),
        "setup_s": (import_s + setup_median, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)}; outcome digest {passes[0].digest}")
    per_pass = [module.metrics_from(p.cells) for p in passes]
    for name, value in best.items():
        print(f"  {name:<28} fastest cells {value:.4g}; per pass: "
              + " ".join(f"{m[name]:.4g}" for m in per_pass))
    for note in sorted({n for p in passes for n in p.notes}):
        print(f"  failure: {note}")
    correct = len(digests) == 1 and failed == 0
    if len(digests) != 1:
        print(f"  digest differs between passes: {sorted(digests)}")
    return correct, attempted, failed, metrics


def run_traced(module, args):
    """Per-layer metrics from two traced passes alternating with untraced ones."""
    setup_rec = SpanRecorder()
    if hasattr(module, "install_setup"):
        module.install_setup(setup_rec)
    started = time.perf_counter()
    try:
        state = module.setup()
    finally:
        setup_rec.uninstall()
    setup_s = time.perf_counter() - started
    try:
        untraced = []
        traced = []
        recorders = []
        for _ in range(2):
            untraced.append(module.run_pass(state, args.seed))
            rec = SpanRecorder()
            module.install(rec)
            try:
                traced.append(module.run_pass(state, args.seed))
            finally:
                rec.uninstall()
            recorders.append(rec)
    finally:
        release_cpu()
        module.teardown(state)
    per_pass = [
        layer_metrics(
            rec.summary(), rec.counts(), work_s=p.wall_s, steps=p.steps,
            setup_summary=setup_rec.summary(), setup_s=setup_s,
        )
        for rec, p in zip(recorders, traced)
    ]
    metrics = dict(per_pass[0])
    # Each side at its fastest cells, as the end-to-end figures are read:
    # single passes move by tens of percent on a shared host.
    walls = [
        sum(cell.wall_s for cell in fastest_cells(passes).values())
        for passes in (traced, untraced)
    ]
    metrics["trace.overhead_share"] = (walls[0] / walls[1] - 1.0, "ratio")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    recorders[0].dump(WORK_DIR / f"spans-{args.workload}-{args.seed}.tsv")

    correct = True
    everything = untraced + traced
    digests = {p.digest for p in everything}
    print(f"outcome digest untraced {untraced[0].digest}")
    if len(digests) != 1:
        correct = False
        print(f"  digests differ: untraced {[p.digest for p in untraced]}, "
              f"traced {[p.digest for p in traced]}")
    for name, (value, unit) in per_pass[0].items():
        if unit == "count" and per_pass[1].get(name) != (value, unit):
            correct = False
            print(f"  exact count {name} did not repeat: {value} vs {per_pass[1].get(name)}")
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    return correct and failed == 0, attempted, failed, metrics


def manifest_mismatch(metrics, trace: int):
    """Names or units that differ from the manifest's list for this mode."""
    wanted = {m["name"]: m["unit"] for m in MANIFEST["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    return sorted(set(wanted.items()) ^ set(got.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - PROCESS_START
    if hasattr(module, "main"):
        correct, attempted, failed, metrics = module.main(args, import_s)
    elif args.trace:
        correct, attempted, failed, metrics = run_traced(module, args)
    else:
        correct, attempted, failed, metrics = run_untraced(module, args, import_s)
    kind = "per-layer" if args.trace else "end-to-end"
    _print_metrics(f"{args.workload} seed {args.seed}: {kind} metrics", metrics)
    print(f"attempted {attempted} failed {failed} correct {correct}")
    mismatch = manifest_mismatch(metrics, args.trace)
    if mismatch:
        print(f"metrics differ from BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 2
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
