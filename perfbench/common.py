"""Helpers shared by the benchmark workloads: timing, digests, output."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "WORK_DIR",
    "SETUP_REPEATS",
    "Pass",
    "digest",
    "Cell",
    "fastest_cells",
    "peak_rss_mb",
    "quietest_cpu",
    "release_cpu",
    "interleaved",
]

#: Scratch space inside the checkout (sockets, campaign directories,
#: span dumps); ignored by git.
WORK_DIR = Path(".bench_build") / "perfbench"

#: CPUs the benchmark may use when it starts; :func:`quietest_cpu` picks
#: among them.
_ALL_CPUS = frozenset(os.sched_getaffinity(0))

#: Seconds :func:`quietest_cpu` spins on each CPU.
PROBE_S = 0.01

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Cell:
    """One timed stretch of a pass: which configuration, its work, its wall."""

    config: str
    episodes: int
    steps: int
    wall_s: float


@dataclass
class Pass:
    """One repetition of a workload's fixed work, split into timed cells."""

    cells: Dict[tuple, Cell]
    digest: str
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(cell.wall_s for cell in self.cells.values())

    @property
    def steps(self) -> int:
        return sum(cell.steps for cell in self.cells.values())


def fastest_cells(passes: Sequence[Pass]) -> Dict[tuple, Cell]:
    """Per cell, the pass that ran it fastest.

    Every pass does identical work (the digests say so), so the cells
    differ only in wall time.  On a shared host other tenants only ever
    slow a stretch of work down; the fastest of several repetitions,
    spread over the run, is far steadier from run to run than their
    median.
    """
    return {
        key: min((p.cells[key] for p in passes), key=lambda cell: cell.wall_s)
        for key in passes[0].cells
    }


def digest(records: Iterable[tuple]) -> str:
    """SHA-256 over the repr of each record, one per line."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr(record).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def interleaved(
    setup: Callable[[], object],
    teardown: Callable[[object], None],
    run_pass: Callable[[object], Pass],
    seconds: float,
) -> Tuple[List[Pass], float]:
    """Set up :data:`SETUP_REPEATS` times, timing passes after each.

    Each set-up is followed by ``seconds / SETUP_REPEATS`` of passes (at
    least one), so the timed work is spread over the whole run instead of
    one block at its end and averages over more of a shared host's slow
    load swings.  Returns ``(passes, median set-up seconds)``.
    """
    passes: List[Pass] = []
    durations: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - started)
        try:
            started = time.perf_counter()
            passes.append(run_pass(state))
            while time.perf_counter() - started < seconds / SETUP_REPEATS:
                passes.append(run_pass(state))
        finally:
            release_cpu()
            teardown(state)
    return passes, statistics.median(durations)


def quietest_cpu() -> None:
    """Pin the calling thread to the CPU that runs a short spin loop fastest.

    On a shared host one CPU's hardware sibling is often busy with
    another tenant's work and runs this one's code tens of percent
    slower, for seconds at a time.  Probing each CPU just before a timed
    stretch of work and staying on the fastest keeps most of that
    contention out of the measurement.  The choice touches no program
    state; :func:`release_cpu` undoes it.
    """
    best, best_rate = None, -1.0
    for cpu in sorted(_ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        spins, deadline = 0, time.perf_counter() + PROBE_S
        while time.perf_counter() < deadline:
            spins += 1
        if spins > best_rate:
            best, best_rate = cpu, spins
    os.sched_setaffinity(0, {best})


def release_cpu() -> None:
    """Undo :func:`quietest_cpu`: the calling thread may use every CPU again."""
    os.sched_setaffinity(0, _ALL_CPUS)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The final JSON line of a run."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
