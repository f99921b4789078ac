"""Crash-tolerant multiprocess batch execution.

The paper runs 80 000 simulations per (setting, planner) cell; at
~10 ms/episode a single process needs ~15 minutes per cell.  This module
distributes a seeded batch over worker processes while preserving the
*exact* per-simulation seeding of :class:`repro.sim.runner.BatchRunner` —
simulation ``k`` of a batch uses child ``k`` of the batch seed no matter
which worker executes it (or how often it is retried), so parallel
results are bit-identical to sequential ones and paired statistics
remain exact.

Failure containment
-------------------

A cell-sized batch must survive infrastructure faults without discarding
completed episodes.  :meth:`ParallelBatchRunner.run_batch_detailed`
isolates every failure to the chunk it occurred in:

* an exception *inside* one simulation is caught in the worker and
  returned as a tagged error entry — sibling simulations in the chunk
  are unaffected, and the error is final (same seed, same exception);
* a dying worker (``BrokenProcessPool``), an unpicklable or malformed
  payload, and an expired per-simulation time budget fail only that
  chunk's indices, which are retried in later rounds as single-index
  chunks with the *same* seeds (each round gets a fresh pool — a broken
  pool cannot run further work);
* indices still failing after ``max_retries`` extra attempts surface as
  :class:`~repro.sim.results.FailureRecord` entries in the
  :class:`~repro.sim.results.BatchResult`, never as a batch-wide raise.

:meth:`ParallelBatchRunner.run_batch` keeps the historical all-or-raise
contract on top of the same machinery.

Everything shipped to workers (scenario, comm setup, planner) must be
picklable; all planners and scenarios in this library are.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.faults.chaos import WorkerChaosOnce
from repro.obs.observer import resolve_observer
from repro.planners.base import Planner
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.results import (
    BatchResult,
    ChunkResult,
    FailureRecord,
    SimulationResult,
)
from repro.sim.runner import (
    EstimatorKind,
    collect_episodes,
    make_estimator_factory,
    run_episodes,
)
from repro.scenarios.base import Scenario

__all__ = ["ParallelBatchRunner", "run_chunk"]


def run_chunk(
    scenario: Scenario,
    comm: CommSetup,
    config: SimulationConfig,
    planner: Planner,
    estimator_kind: EstimatorKind,
    seed: int,
    indices: Sequence[int],
    n_sims: int,
    chaos: Optional[WorkerChaosOnce] = None,
) -> List[tuple]:
    """Pool entry point: run the given simulation indices of a batch.

    Runs the indices through :func:`~repro.sim.runner.run_episodes`
    (which builds only their seed streams; ``n_sims`` names the batch
    they belong to) and returns one tagged tuple per index —
    ``(index, "ok", result)`` for a completed simulation or
    ``(index, "error", error_type, message)`` when that simulation
    raised (siblings in the chunk still run).  Module-level (not a
    closure) so it pickles under the default start method.  Pool
    workers run untraced: observers and callbacks never cross a process
    boundary (a traced run is bit-identical anyway).

    ``chaos`` is the test/benchmark hook that makes the first claiming
    invocation misbehave (crash / garbage payload / hang); production
    batches leave it ``None``.
    """
    if chaos is not None and chaos.apply():
        return ["chaos: malformed payload"]  # type: ignore[list-item]
    engine = SimulationEngine(scenario, comm, config)
    factory = make_estimator_factory(estimator_kind, engine)
    return [
        (index, "error", type(outcome).__name__, str(outcome))
        if isinstance(outcome, Exception)
        else (index, "ok", outcome)
        for index, outcome in run_episodes(
            engine, planner, factory, seed, indices
        )
    ]


class ParallelBatchRunner:
    """Seed-preserving, crash-tolerant multiprocess ``BatchRunner``.

    Parameters
    ----------
    scenario, comm, config:
        The simulation setup (shipped to every worker).
    estimator_kind:
        Which estimate provider each run uses.
    n_workers:
        Process count; defaults to ``os.cpu_count()``.
    max_retries:
        Extra attempts granted to indices whose *chunk* failed (worker
        death, malformed payload, timeout) before they become
        :class:`~repro.sim.results.FailureRecord` entries.  In-episode
        exceptions are deterministic under the seeding scheme and are
        never retried.
    timeout_per_sim:
        Optional per-simulation time budget; a chunk of ``m`` indices is
        given ``m * timeout_per_sim`` seconds before its workers are
        terminated and the indices retried.  ``None`` disables the
        watchdog.
    chaos:
        Optional :class:`~repro.faults.chaos.WorkerChaosOnce` hook
        injected into every chunk (tests / chaos benchmark only).
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  Reaches the
        simulation engines only on the in-process fast path
        (``n_workers == 1``, no chaos, no timeout) — observers never
        cross a process boundary; on multiprocess runs it still records
        parent-side chunk spans and retry counters.

    Notes
    -----
    Results are returned in simulation order regardless of worker
    scheduling, so ``winning_percentage`` and friends work unchanged.
    Trajectory recording is disabled by default for parallel batches
    (shipping thousands of trajectories back through pickling dominates
    the runtime); pass a config with ``record_trajectories=True`` to
    override.

    Units: timeout_per_sim [s]
    """

    def __init__(
        self,
        scenario: Scenario,
        comm: CommSetup,
        config: Optional[SimulationConfig] = None,
        estimator_kind: EstimatorKind = EstimatorKind.FILTERED,
        n_workers: Optional[int] = None,
        max_retries: int = 2,
        timeout_per_sim: Optional[float] = None,
        chaos: Optional[WorkerChaosOnce] = None,
        observer=None,
    ) -> None:
        if isinstance(scenario, SimulationEngine):
            raise SimulationError(
                "ParallelBatchRunner takes (scenario, comm, config), not a "
                "SimulationEngine; each worker builds its own engine. Pass "
                "engine.scenario / engine.comm / engine.config instead."
            )
        if config is None:
            config = SimulationConfig(record_trajectories=False)
        self._scenario = scenario
        self._comm = comm
        self._config = config
        self._kind = estimator_kind
        self._n_workers = n_workers if n_workers is not None else (
            os.cpu_count() or 1
        )
        if self._n_workers < 1:
            raise SimulationError(
                f"n_workers must be >= 1, got {self._n_workers}"
            )
        if max_retries < 0:
            raise SimulationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if timeout_per_sim is not None and timeout_per_sim <= 0.0:
            raise SimulationError(
                f"timeout_per_sim must be > 0, got {timeout_per_sim}"
            )
        self._max_retries = max_retries
        self._timeout_per_sim = timeout_per_sim
        self._chaos = chaos
        self._obs = resolve_observer(observer)

    @property
    def n_workers(self) -> int:
        """Worker process count."""
        return self._n_workers

    @property
    def max_retries(self) -> int:
        """Extra attempts granted to chunk-level failures."""
        return self._max_retries

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_batch(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> List[SimulationResult]:
        """Run ``n_sims`` episodes, bit-identical to the sequential runner.

        Raises :class:`~repro.errors.SimulationError` if any simulation
        is irrecoverable; use :meth:`run_batch_detailed` to keep the
        surviving episodes instead.
        """
        return self.run_batch_detailed(planner, n_sims, seed).require_complete()

    def run_batch_detailed(
        self, planner: Planner, n_sims: int, seed: int = 0
    ) -> BatchResult:
        """Fault-tolerant batch over worker processes.

        Matches :meth:`repro.sim.runner.BatchRunner.run_batch_detailed`
        episode-for-episode: simulation ``k`` either yields the result
        the sequential runner would produce (bit-identical, even when
        its chunk was retried after a worker crash) or a
        :class:`~repro.sim.results.FailureRecord` at index ``k``.
        """
        chunk = self.run_indices_detailed(planner, range(n_sims), n_sims, seed)
        return BatchResult(
            results=[chunk.results.get(k) for k in range(n_sims)],
            failures=chunk.failures,
        )

    def run_indices_detailed(
        self,
        planner: Planner,
        indices: Sequence[int],
        n_sims: int,
        seed: int = 0,
        progress: Optional[Callable[[int], None]] = None,
    ) -> ChunkResult:
        """Run a *subset* of a batch's indices with full fault tolerance.

        The campaign layer's chunk primitive: simulation ``k`` of the
        conceptual ``n_sims``-sized batch is seeded from child ``k`` of
        the batch seed exactly as in :meth:`run_batch_detailed`, so
        running a partition of ``range(n_sims)`` chunk by chunk — across
        processes, interruptions, or machines — concatenates to results
        bit-identical to one uninterrupted batch.

        ``progress`` (optional) is called with each finished index on
        the in-process fast path only (``n_workers == 1``, no chaos, no
        timeout); multiprocess rounds ignore it — callbacks never cross
        a process boundary.
        """
        if n_sims <= 0:
            raise SimulationError(f"n_sims must be > 0, got {n_sims}")
        idx = list(indices)
        if not idx:
            raise SimulationError("indices must be non-empty")
        if len(set(idx)) != len(idx):
            raise SimulationError(f"indices must be unique, got {idx}")
        for index in idx:
            if not 0 <= index < n_sims:
                raise SimulationError(
                    f"index {index} outside batch of {n_sims}"
                )
        idx.sort()
        workers = min(self._n_workers, len(idx))
        if (
            workers == 1
            and self._chaos is None
            and self._timeout_per_sim is None
        ):
            # In-process fast path: no pool to crash, no watchdog to arm.
            observer = self._obs if self._obs.enabled else None
            engine = SimulationEngine(self._scenario, self._comm, self._config)
            factory = make_estimator_factory(
                self._kind, engine, observer=observer
            )
            results, failures = collect_episodes(
                run_episodes(
                    engine, planner, factory, seed, idx, observer, progress
                )
            )
            return ChunkResult(idx, results, failures)

        results = {}
        attempts: Dict[int, int] = {index: 0 for index in idx}
        #: index -> (stage, error_type, message) of its latest failure.
        last_error: Dict[int, Tuple[str, str, str]] = {}
        final: set = set()  # indices whose failure is not retryable

        # Round 0: round-robin chunks, one per worker, so long and short
        # episodes interleave evenly.  Later rounds re-run failed indices
        # as single-index chunks for maximum isolation.
        pending: List[List[int]] = [
            chunk
            for chunk in (idx[i::workers] for i in range(workers))
            if chunk
        ]
        round_no = 0
        while pending:
            retry: List[int] = []
            # A no-op span on a disabled observer.
            with self._obs.span(
                "batch.round", round=round_no, chunks=len(pending)
            ):
                self._run_round(
                    pending,
                    planner,
                    seed,
                    n_sims,
                    results,
                    attempts,
                    last_error,
                    final,
                )
            for chunk in pending:
                for index in chunk:
                    if index in results or index in final:
                        continue
                    if attempts[index] <= self._max_retries:
                        retry.append(index)
                    else:
                        final.add(index)
            if retry and self._obs.enabled:
                self._obs.count("batch.retries", len(retry))
            pending = [[index] for index in sorted(retry)]
            round_no += 1

        failures = [
            FailureRecord(
                index=index,
                stage=last_error[index][0],
                error_type=last_error[index][1],
                message=last_error[index][2],
                attempts=attempts[index],
            )
            for index in sorted(final)
        ]
        return ChunkResult(idx, results, failures)

    # ------------------------------------------------------------------
    # One retry round
    # ------------------------------------------------------------------
    def _run_round(
        self,
        chunks: List[List[int]],
        planner: Planner,
        seed: int,
        n_sims: int,
        results: Dict[int, SimulationResult],
        attempts: Dict[int, int],
        last_error: Dict[int, Tuple[str, str, str]],
        final: set,
    ) -> None:
        """Run one round of chunks on a fresh pool, recording outcomes.

        A fresh :class:`ProcessPoolExecutor` per round is deliberate: a
        ``BrokenProcessPool`` poisons the pool it happened in, and a
        timed-out worker may hold the pool's queue hostage — both are
        abandoned wholesale instead of reused.
        """
        workers = min(self._n_workers, len(chunks))
        pool = ProcessPoolExecutor(max_workers=workers)
        hung = False
        try:
            futures = [
                (
                    pool.submit(
                        run_chunk,
                        self._scenario,
                        self._comm,
                        self._config,
                        planner,
                        self._kind,
                        seed,
                        chunk,
                        n_sims,
                        self._chaos,
                    ),
                    chunk,
                )
                for chunk in chunks
            ]
            for future, chunk in futures:
                for index in chunk:
                    attempts[index] += 1
                budget: Optional[float] = None
                if self._timeout_per_sim is not None:
                    # After the first expiry the pool is condemned; only
                    # harvest chunks that are already done (zero budget).
                    budget = (
                        0.0 if hung else self._timeout_per_sim * len(chunk)
                    )
                try:
                    payload = future.result(timeout=budget)
                except FuturesTimeoutError:
                    hung = True
                    self._mark_chunk_failed(
                        chunk,
                        "timeout",
                        "TimeoutError",
                        f"chunk of {len(chunk)} exceeded its "
                        f"{budget:.3g}s budget",
                        last_error,
                    )
                # Fault-tolerance boundary: whatever killed the chunk
                # (BrokenProcessPool, pickling error, a raising worker)
                # is recorded against its indices and retried; sibling
                # chunks keep their results.
                except Exception as exc:  # safelint: disable=SFL003 - recorded per chunk, chunk retried
                    self._mark_chunk_failed(
                        chunk, "worker", type(exc).__name__, str(exc), last_error
                    )
                else:
                    if not self._ingest_payload(
                        payload, chunk, results, last_error, final
                    ):
                        self._mark_chunk_failed(
                            chunk,
                            "worker",
                            "MalformedPayload",
                            f"worker returned {type(payload).__name__} "
                            "instead of tagged result entries",
                            last_error,
                        )
        finally:
            if hung:
                self._terminate_workers(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)

    def _ingest_payload(
        self,
        payload: object,
        chunk: List[int],
        results: Dict[int, SimulationResult],
        last_error: Dict[int, Tuple[str, str, str]],
        final: set,
    ) -> bool:
        """Validate and apply one chunk's payload; ``False`` if malformed.

        A malformed payload leaves ``results`` untouched so the whole
        chunk can be retried cleanly.
        """
        if not isinstance(payload, list) or len(payload) != len(chunk):
            return False
        expected = set(chunk)
        parsed: List[tuple] = []
        for entry in payload:
            if not isinstance(entry, tuple) or len(entry) < 3:
                return False
            index, tag = entry[0], entry[1]
            if index not in expected:
                return False
            expected.discard(index)
            if tag == "ok" and isinstance(entry[2], SimulationResult):
                parsed.append(entry)
            elif tag == "error" and len(entry) == 4:
                parsed.append(entry)
            else:
                return False
        for entry in parsed:
            if entry[1] == "ok":
                results[entry[0]] = entry[2]
            else:
                # In-episode exceptions are deterministic (same seed,
                # same planner state machine) — final, never retried.
                last_error[entry[0]] = ("simulation", entry[2], entry[3])
                final.add(entry[0])
        return True

    @staticmethod
    def _mark_chunk_failed(
        chunk: List[int],
        stage: str,
        error_type: str,
        message: str,
        last_error: Dict[int, Tuple[str, str, str]],
    ) -> None:
        for index in chunk:
            last_error[index] = (stage, error_type, message)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Hard-kill a condemned pool's workers (hung beyond budget)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
