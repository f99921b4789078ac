"""Workload ``paper-tables``: a seeded slice of the paper's Tables I/II.

Why: this is the paper's own workload.  Both NN styles run under the
three communication settings in the three configurations (pure NN and
basic compound on the raw estimator, ultimate compound on the
information filter), through the experiments harness on one batch
seed.  The information filter does most of the ultimate configuration's
work and none of the others', so a filter change must move
the ultimate cells' share of ``step_us`` and leave the pure cells unmoved.

Set-up trains both planners from ``ExperimentConfig`` defaults.
"""

from __future__ import annotations

import time

from common import Cell, Pass, digest, quietest_cpu
from repro.experiments import harness
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import PlannerTrio, build_trio, trained_spec
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.results import Outcome
from repro.sim.runner import BatchRunner

import layers

STYLES = ("conservative", "aggressive")
CONFIGS = ("pure", "basic", "ultimate")

#: Episodes per (style, setting, configuration) cell: 18 cells, 36
#: episodes per pass.  Short passes give each cell a few dozen
#: repetitions in a run to take the fastest of (see RESULTS.md).
EPISODES_PER_CELL = 2


def setup():
    """Train both planners (cache cleared, so every call trains)."""
    harness._SPEC_CACHE.clear()
    config = ExperimentConfig()
    scenario = config.scenario()
    trios = [build_trio(trained_spec(style, config), scenario, config) for style in STYLES]
    runners = {}
    for setting in SETTING_NAMES:
        engine = SimulationEngine(
            scenario,
            config.comm_setting(setting),
            SimulationConfig(max_time=config.max_time, record_trajectories=False),
        )
        for name in CONFIGS:
            runners[setting, name] = BatchRunner(engine, PlannerTrio.KINDS[name])
    return trios, runners


def teardown(state) -> None:
    """Nothing to release."""


def run_pass(state, seed: int) -> Pass:
    """Every cell once on batch seed ``seed``."""
    trios, runners = state
    cells = {}
    records = []
    attempted = failed = 0
    notes = []
    quietest_cpu()
    for trio in trios:
        for setting in SETTING_NAMES:
            for name, planner in trio.named().items():
                runner = runners[setting, name]
                started = time.perf_counter()
                batch = runner.run_batch_detailed(planner, EPISODES_PER_CELL, seed=seed)
                wall = time.perf_counter() - started
                attempted += EPISODES_PER_CELL
                for failure in batch.failures:
                    failed += 1
                    notes.append(f"{trio.style}/{setting}/{name}: {failure.error_type}")
                done = [r for r in batch.results if r is not None]
                cells[trio.style, setting, name] = Cell(
                    name, len(done), sum(r.steps for r in done), wall
                )
                for index, result in enumerate(batch.results):
                    if result is None:
                        continue
                    records.append(
                        (trio.style, setting, name, index, result.outcome.value,
                         result.steps, result.emergency_steps, result.reaching_time)
                    )
                    # Pure-NN collisions are outcomes; a shielded one
                    # violates the safety theorem.
                    if name != "pure" and result.outcome is Outcome.COLLISION:
                        failed += 1
                        notes.append(f"{trio.style}/{setting}/{name}#{index}: collision")
    return Pass(cells, digest(records), attempted, failed, notes)


def metrics_from(cells) -> dict:
    """Throughput figures of a set of timed cells.

    ``step_us`` is the end-to-end metric; the per-configuration episode
    rates are printed beside it so a filter change can be read off
    ``ultimate_episodes_per_s`` against an unmoved ``pure_episodes_per_s``.
    """
    wall = sum(c.wall_s for c in cells.values())
    metrics = {
        "episodes_per_s": sum(c.episodes for c in cells.values()) / wall,
        "step_us": wall / sum(c.steps for c in cells.values()) * 1e6,
    }
    for name in CONFIGS:
        mine = [c for c in cells.values() if c.config == name]
        metrics[f"{name}_episodes_per_s"] = (
            sum(c.episodes for c in mine) / sum(c.wall_s for c in mine)
        )
    return metrics


install_setup = layers.install_training_layers
install = layers.install_episode_layers
