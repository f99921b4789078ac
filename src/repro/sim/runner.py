"""Batch execution over seeded workloads.

The paper's tables compare several planner configurations on *identical*
workloads; the runner guarantees that by deriving every stochastic
component of simulation ``k`` from child ``k`` of the batch seed — so two
batches with the same seed see the same oncoming-vehicle behaviour, the
same message drops and the same sensor noise, and the paired "winning
percentage" statistic is exact.

Every batch executor runs its indices through :func:`run_episodes`,
which builds child ``k`` directly as ``SeedSequence(seed,
spawn_key=(k,))``: a chunk of ``m`` indices builds ``m`` streams,
whatever the batch size.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.filtering.info_filter import (
    EstimateProvider,
    InformationFilter,
    RawEstimator,
)
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner
from repro.sim.engine import SimulationEngine
from repro.sim.results import BatchResult, FailureRecord, SimulationResult
from repro.utils.rng import RngStream

__all__ = [
    "EstimatorKind", "PlannerFactory", "make_estimator_factory",
    "episode_stream", "run_episodes", "collect_episodes", "BatchRunner",
]

#: Builds (or returns) the planner used for a batch.
PlannerFactory = Callable[[], Planner]


class EstimatorKind(str, Enum):
    """Which estimate provider a configuration uses."""

    #: Latest raw message + raw sensor band (basic compound, pure NN).
    RAW = "raw"
    #: The full information filter (ultimate compound planner).
    FILTERED = "filtered"


def make_estimator_factory(
    kind: EstimatorKind, engine: SimulationEngine, observer=None
) -> Callable[[int], EstimateProvider]:
    """Estimator factory matching the engine's scenario and comm setup.

    ``observer`` (optional) is handed to every
    :class:`InformationFilter` the factory builds, labelled ``veh<i>``;
    the raw estimator has nothing to report and ignores it.
    """
    scenario = engine.scenario
    comm = engine.comm

    def factory(index: int) -> EstimateProvider:
        limits = scenario.vehicle_limits(index)
        if kind is EstimatorKind.FILTERED:
            return InformationFilter(
                limits=limits,
                sensor_bounds=comm.sensor_bounds,
                sensing_period=comm.dt_s,
                observer=observer,
                label=f"veh{index}",
            )
        return RawEstimator(limits=limits, sensor_bounds=comm.sensor_bounds)

    return factory


def episode_stream(seed: int, index: int) -> RngStream:
    """Child ``index`` of batch ``seed``, without building its siblings.

    Draw for draw the stream ``RngStream(seed).spawn(n)[index]`` is,
    for any ``n > index``.
    """
    return RngStream(np.random.SeedSequence(seed, spawn_key=(index,)))


def run_episodes(
    engine: SimulationEngine,
    planner: Planner,
    factory: Callable[[int], EstimateProvider],
    seed: int,
    indices: Iterable[int],
    observer=None,
    progress: Optional[Callable[[int], None]] = None,
) -> Iterator[Tuple[int, Union[SimulationResult, Exception]]]:
    """The one episode loop: yields ``(index, result or exception)``.

    Episode ``k`` runs on :func:`episode_stream` ``(seed, k)``, so it
    reproduces bit for bit whichever executor, chunk or retry runs it.
    An exception inside an episode is yielded, not raised: the caller
    decides whether it ends the batch.  An enabled ``observer`` gets a
    ``batch.sim`` span per episode; ``progress(index)`` is called as
    each episode finishes, failed or not.
    """
    obs = resolve_observer(observer)
    for index in indices:
        stream = episode_stream(seed, index)
        # Fault-tolerance boundary: one blown-up episode must not take
        # its siblings down with it; the error goes back as data.
        outcome: Union[SimulationResult, Exception]
        try:
            if obs.enabled:
                with obs.span("batch.sim", index=index, seed=seed):
                    outcome = engine.run(planner, factory, stream, observer=obs)
            else:
                outcome = engine.run(planner, factory, stream)
        except Exception as exc:  # safelint: disable=SFL003 - yielded to the caller as the episode's outcome
            outcome = exc
        if progress is not None:
            progress(index)
        yield index, outcome


def collect_episodes(
    outcomes: Iterable[Tuple[int, Union[SimulationResult, Exception]]]
) -> Tuple[Dict[int, SimulationResult], List[FailureRecord]]:
    """Fold :func:`run_episodes` into results by index plus failures.

    A raised episode becomes a one-attempt ``"simulation"``
    :class:`~repro.sim.results.FailureRecord`: under the seeding scheme
    it would raise again, so it is never retried.
    """
    results: Dict[int, SimulationResult] = {}
    failures: List[FailureRecord] = []
    for index, outcome in outcomes:
        if isinstance(outcome, Exception):
            failures.append(
                FailureRecord(
                    index, "simulation", type(outcome).__name__, str(outcome)
                )
            )
        else:
            results[index] = outcome
    return results, failures


class BatchRunner:
    """Runs seeded batches of one engine + estimator configuration."""

    def __init__(
        self,
        engine: SimulationEngine,
        estimator_kind: EstimatorKind = EstimatorKind.FILTERED,
    ) -> None:
        self._engine = engine
        self._factory = make_estimator_factory(estimator_kind, engine)
        self._kind = estimator_kind

    @property
    def engine(self) -> SimulationEngine:
        """The wrapped engine."""
        return self._engine

    @property
    def estimator_kind(self) -> EstimatorKind:
        """Which estimator this runner hands to every run."""
        return self._kind

    def run_one(self, planner: Planner, seed: int) -> SimulationResult:
        """A single seeded episode (simulation 0 of batch ``seed``)."""
        return self.run_batch(planner, 1, seed)[0]

    def run_batch(
        self,
        planner: Planner,
        n_sims: int,
        seed: int = 0,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[SimulationResult]:
        """``n_sims`` episodes on the workload family defined by ``seed``.

        Parameters
        ----------
        planner:
            Reused across episodes (the engine resets it each run).
        n_sims:
            Batch size.
        seed:
            Batch seed; the same seed reproduces the same workloads for
            any planner, enabling paired comparisons.
        progress:
            Optional ``(done, total)`` callback for long batches.

        The first episode that raises ends the batch with its exception.
        """
        if n_sims <= 0:
            raise ValueError(f"n_sims must be > 0, got {n_sims}")
        results: List[SimulationResult] = []
        for index, outcome in run_episodes(
            self._engine, planner, self._factory, seed, range(n_sims)
        ):
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
            if progress is not None:
                progress(index + 1, n_sims)
        return results

    def run_batch_detailed(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> BatchResult:
        """Fault-tolerant batch: a failing episode becomes a record.

        The reference semantics for the parallel runner's crash
        tolerance: episode ``k`` either yields the identical result a
        plain :meth:`run_batch` would produce, or a
        :class:`~repro.sim.results.FailureRecord` at index ``k`` —
        surviving episodes are never discarded because a sibling raised.
        """
        if n_sims <= 0:
            raise ValueError(f"n_sims must be > 0, got {n_sims}")
        results, failures = collect_episodes(
            run_episodes(self._engine, planner, self._factory, seed, range(n_sims))
        )
        return BatchResult(
            results=[results.get(k) for k in range(n_sims)], failures=failures
        )
