"""Whole-episode outcome equivalence of the scalar and reference filters.

The closed-form Kalman filter (``repro.filtering.kalman``) and the numpy
reference it replaced (``tests/kalman_reference.py``) agree to a few
ulps per step (``tests/test_kalman_reference.py``).  This test checks
that those ulps never reach a decision: the ultimate compound planner
(information filter) runs the same seeded batches twice, once with the
information filter's ``KalmanFilter`` swapped for the reference and once
with the scalar filter, across

* the three communication settings of Tables I/II, and
* the chaos fault grid of ``benchmarks/test_bench_chaos.py`` (burst
  loss, reordering jitter, jitter + duplication, the composed comm
  storm) with the engine's covered sensor-dropout fault plan,

and every episode's ``(outcome, steps, emergency_steps,
reaching_time)`` must be identical.  A failure lists every episode
whose outcome flipped.
"""

from __future__ import annotations

import pytest

from repro.comm.disturbance import no_disturbance
from repro.comm.faults import (
    Duplication,
    FixedDelay,
    GaussianJitter,
    GilbertElliottLoss,
    UniformJitter,
    compose,
)
from repro.experiments.config import SETTING_NAMES, ExperimentConfig
from repro.experiments.harness import build_trio
from repro.faults import FaultPlan, SensorFault, SensorFaultKind, StepWindow
from repro.filtering import info_filter
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.runner import BatchRunner, EstimatorKind
from tests import kalman_reference as ref

#: Episodes per cell (seven cells, two filters).
SIMS_PER_CELL = 6
SEED = 5

#: The channel fault grid of the chaos certification benchmark.
CHAOS_GRID = [
    ("burst loss", GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.3)),
    ("reordering jitter", UniformJitter(0.0, 0.35)),
    (
        "jitter + duplication",
        compose(
            GaussianJitter(mean=0.15, std=0.1, high=0.4),
            Duplication(0.3, lag=0.05),
        ),
    ),
    (
        "comm storm",
        compose(
            GilbertElliottLoss(p_enter_burst=0.1, p_exit_burst=0.3),
            FixedDelay(0.2),
            UniformJitter(0.0, 0.3),
            Duplication(0.2, lag=0.1),
        ),
    ),
]

SENSOR_DROPOUT = FaultPlan(
    sensor_faults=(
        SensorFault(
            window=StepWindow(20, 120),
            kind=SensorFaultKind.DROPOUT,
            probability=0.5,
        ),
    )
)


def _cells(config: ExperimentConfig):
    """``(name, comm setup, simulation config)`` of every cell."""
    for setting in SETTING_NAMES:
        yield (
            setting,
            config.comm_setting(setting),
            SimulationConfig(max_time=config.max_time, record_trajectories=False),
        )
    for name, faults in CHAOS_GRID:
        yield (
            name,
            CommSetup(
                dt_m=0.1,
                dt_s=0.1,
                disturbance=no_disturbance(),
                sensor_bounds=NoiseBounds.uniform_all(1.0),
                faults=faults,
            ),
            SimulationConfig(
                max_time=10.0,
                record_trajectories=False,
                fault_plan=SENSOR_DROPOUT,
            ),
        )


def _run_cells(spec):
    """Per cell, the fingerprint and safety of every ultimate episode."""
    config = ExperimentConfig()
    scenario = config.scenario()
    runs = {}
    for name, comm, sim_config in _cells(config):
        engine = SimulationEngine(scenario, comm, sim_config)
        planner = build_trio(spec, scenario, config).ultimate
        results = BatchRunner(engine, EstimatorKind.FILTERED).run_batch(
            planner, SIMS_PER_CELL, seed=SEED
        )
        runs[name] = [
            (
                (r.outcome.value, r.steps, r.emergency_steps, r.reaching_time),
                r.is_safe,
            )
            for r in results
        ]
    return runs


@pytest.mark.parametrize("style", ["conservative", "aggressive"])
def test_outcomes_match_numpy_reference(
    style, tiny_conservative_spec, tiny_aggressive_spec, monkeypatch
):
    spec = {
        "conservative": tiny_conservative_spec,
        "aggressive": tiny_aggressive_spec,
    }[style]
    built = []

    class RecordingReference(ref.KalmanFilter):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(info_filter, "KalmanFilter", RecordingReference)
        reference = _run_cells(spec)
    assert len(built) >= SIMS_PER_CELL * len(reference)  # the reference ran
    scalar = _run_cells(spec)

    flipped = [
        f"{cell} episode {k}: reference {ref_fp} != scalar {new_fp}"
        for cell in reference
        for k, ((ref_fp, _), (new_fp, _)) in enumerate(
            zip(reference[cell], scalar[cell])
        )
        if ref_fp != new_fp
    ]
    assert not flipped, "outcomes flipped:\n" + "\n".join(flipped)
    assert [len(v) for v in scalar.values()] == [SIMS_PER_CELL] * len(scalar)
    # The shield keeps every ultimate episode collision-free.
    unsafe = [
        f"{cell} episode {k}"
        for cell, episodes in scalar.items()
        for k, (_, safe) in enumerate(episodes)
        if not safe
    ]
    assert not unsafe, unsafe
