"""The durable campaign runner: journaled chunks over the batch layer.

Execution model
---------------

A campaign partitions its ``n_sims`` batch into fixed chunks (the
manifest defines the partition, so it is part of the fingerprint).  For
each chunk the runner

1. executes the chunk's indices through
   :meth:`~repro.sim.parallel.ParallelBatchRunner.run_indices_detailed`
   (retrying transiently failed chunks with deterministic seeded
   backoff),
2. persists the chunk snapshot atomically (tmp + fsync + rename), then
3. appends a ``chunk_completed`` record to the write-ahead journal.

Because the snapshot is durable *before* the journal record exists, a
crash between the two steps merely re-runs one chunk on resume — and
re-running is harmless, since simulation ``k`` is seeded from child
``k`` of the batch seed regardless of when or where it runs.  The final
aggregate is always computed from the on-disk snapshots, never from
in-memory state, so an interrupted-and-resumed campaign produces
**bit-identical** aggregate bytes to an uninterrupted one.

Shutdown: SIGINT/SIGTERM set a flag; the in-flight chunk drains, an
``interrupted`` record is journaled, and the report says so (the CLI
exits nonzero).  ``kill -9`` skips all of that — which is exactly what
the journal recovery path is for.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.builders import build_workload
from repro.campaign.journal import JournalWriter, read_journal, recover_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.store import atomic_write_json, load_json
from repro.errors import (
    CampaignError,
    FingerprintMismatchError,
    JournalCorruptionError,
    SerializationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import resolve_observer
from repro.obs.recorder import TELEMETRY_FILE, FlightRecorder
from repro.obs.trace import perf_now
from repro.sim.parallel import ParallelBatchRunner
from repro.sim.results import AggregateStats, ChunkResult
from repro.sim.serialization import (
    SCHEMA_VERSION,
    content_digest,
    failure_from_dict,
    failure_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "campaign_status",
    "chunk_executor",
    "chunk_path",
    "finalise_campaign",
    "load_chunk_snapshot",
    "persist_chunk_snapshot",
    "replay_progress",
    "scan_campaign",
    "verify_campaign",
    "MANIFEST_FILE",
    "JOURNAL_FILE",
    "AGGREGATE_FILE",
    "METRICS_FILE",
]

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"
AGGREGATE_FILE = "aggregate.json"
#: Operational metrics (chunk wall times, retries) derived from the
#: journal at finalisation.  Deliberately a *separate* file: the
#: aggregate must stay byte-identical across interrupt/resume sequences,
#: and wall-clock numbers never are.
METRICS_FILE = "metrics.json"
_CHUNK_DIR = "chunks"

#: Signature of an injectable chunk executor (tests substitute a flaky
#: or instrumented one): ``(indices, n_sims, seed) -> ChunkResult``.
ChunkExecutor = Callable[[List[int], int, int], ChunkResult]


def chunk_path(directory: Path, chunk: int) -> Path:
    """The atomic snapshot file of chunk ``chunk`` under ``directory``."""
    return directory / _CHUNK_DIR / f"chunk-{chunk:05d}.json"


def persist_chunk_snapshot(
    directory: Path, fingerprint: str, chunk: int, result: ChunkResult
) -> str:
    """Atomically persist one chunk's results; returns the content digest.

    The snapshot layout is canonical (sorted keys, fixed float encoding),
    so any process that runs chunk ``chunk`` of the same manifest —
    sequential runner, shard worker, speculative duplicate — writes
    byte-identical files and computes the same digest.  That idempotency
    is what makes duplicate completions harmless.
    """
    snapshot = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "chunk": chunk,
        "indices": result.indices,
        "results": {
            str(index): result_to_dict(result.results[index])
            for index in result.indices
            if index in result.results
        },
        "failures": [failure_to_dict(f) for f in result.failures],
    }
    atomic_write_json(snapshot, chunk_path(directory, chunk))
    return content_digest(snapshot)


def load_chunk_snapshot(
    directory: Path, chunk: int, expected_digest: str
) -> dict:
    """Load a chunk snapshot, refusing one whose digest drifted."""
    path = chunk_path(directory, chunk)
    snapshot = load_json(path)
    if not isinstance(snapshot, dict):
        raise SerializationError(f"chunk snapshot {path} is not an object")
    if content_digest(snapshot) != expected_digest:
        raise CampaignError(
            f"chunk snapshot {path} does not match its journaled "
            "digest; the file was modified after it was journaled"
        )
    return snapshot


@dataclass(frozen=True)
class CampaignReport:
    """What a campaign run/resume call accomplished.

    Attributes
    ----------
    status:
        ``"completed"`` — every chunk journaled and the aggregate
        written; ``"interrupted"`` — a drain signal stopped the loop
        early (resume later).
    fingerprint:
        The campaign fingerprint all artifacts carry.
    n_chunks, completed_chunks:
        Partition size and how many chunks are durably journaled.
    chunks_run:
        Chunks this call executed (0 when resuming an already-finished
        campaign).
    n_failed:
        Simulations that irrecoverably failed (final aggregate only;
        0 while interrupted).
    aggregate:
        The :class:`~repro.sim.results.AggregateStats` fields as a dict,
        or ``None`` when interrupted or when every simulation failed.
    results_digest:
        SHA-256 over the canonical per-index result records — the value
        the bit-identity guarantee is stated about (``None`` while
        interrupted).
    """

    status: str
    fingerprint: str
    n_chunks: int
    completed_chunks: int
    chunks_run: int
    n_failed: int = 0
    aggregate: Optional[dict] = None
    results_digest: Optional[str] = None


@dataclass
class CampaignProgress:
    """Journal-derived progress: which chunks are durably done."""

    fingerprint: str
    completed: Dict[int, str] = field(default_factory=dict)  # chunk -> digest
    finished: bool = False
    next_seq: int = 0


def replay_progress(records: List[dict], fingerprint: str) -> CampaignProgress:
    """Rebuild campaign progress from journal records.

    Shared by the single-process runner and the shard coordinator.
    Checks every record's fingerprint against ``fingerprint`` and is
    **idempotent over duplicate** ``chunk_completed`` records: the shard
    layer's speculative re-dispatch may journal the same chunk twice
    (two workers raced it to completion), and because chunk ``k`` is
    content-deterministic both records must carry the same digest.  A
    duplicate with a *different* digest means the workload is not
    deterministic (or a snapshot was forged) and raises
    :class:`~repro.errors.JournalCorruptionError` rather than letting
    either record silently win.
    """
    progress = CampaignProgress(fingerprint=fingerprint, next_seq=len(records))
    for record in records:
        recorded = record.get("fingerprint")
        if recorded is not None and recorded != fingerprint:
            raise FingerprintMismatchError(
                f"journal record {record.get('seq')} carries "
                f"fingerprint {str(recorded)[:12]}... but the manifest "
                f"fingerprints to {fingerprint[:12]}...; this "
                "journal belongs to a different workload"
            )
        record_type = record.get("type")
        if record_type == "chunk_completed":
            chunk = int(record["chunk"])
            digest = str(record["digest"])
            previous = progress.completed.get(chunk)
            if previous is not None and previous != digest:
                raise JournalCorruptionError(
                    f"journal record {record.get('seq')} completes chunk "
                    f"{chunk} with digest {digest[:12]}... but an earlier "
                    f"record journaled {previous[:12]}...; duplicate "
                    "completions must be byte-identical"
                )
            progress.completed[chunk] = digest
        elif record_type == "campaign_finished":
            progress.finished = True
    return progress


class CampaignRunner:
    """Runs a :class:`CampaignManifest` durably inside a directory.

    Parameters
    ----------
    manifest:
        The workload.  Its fingerprint stamps every artifact.
    directory:
        Campaign home: ``manifest.json``, ``journal.jsonl``, ``chunks/``
        and ``aggregate.json`` live here.  One directory, one campaign.
    n_workers:
        Worker processes per chunk (operational — not fingerprinted).
    max_retries:
        Per-index retry budget inside the batch layer.
    timeout_per_sim:
        Optional per-simulation time budget [s] forwarded to
        :class:`~repro.sim.parallel.ParallelBatchRunner`; a chunk of
        ``m`` indices is given ``m * timeout_per_sim`` seconds before
        its workers are terminated and the indices retried.
    backoff:
        Chunk-level retry policy for transient (worker/timeout)
        failures.
    sleep:
        Injectable wait primitive; tests pass a recorder so the backoff
        schedule is asserted without actually sleeping.
    chunk_executor:
        Test hook replacing the batch layer entirely.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records chunk
        spans, retry counters and journal fsync latency.  Write-only —
        every campaign artifact except ``metrics.json`` is byte-identical
        with or without it (and ``metrics.json`` is derived from the
        journal, which always carries chunk wall times).
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        directory: Union[str, Path],
        n_workers: int = 1,
        max_retries: int = 2,
        timeout_per_sim: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        chunk_executor: Optional[ChunkExecutor] = None,
        observer=None,
    ) -> None:
        self._manifest = manifest
        self._directory = Path(directory)
        self._fingerprint = manifest.fingerprint
        self._n_workers = n_workers
        self._max_retries = max_retries
        self._timeout_per_sim = timeout_per_sim
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._sleep = sleep
        self._executor = chunk_executor
        self._obs = resolve_observer(observer)
        self._stop_requested = False
        self._recorder: Optional[FlightRecorder] = None

    @property
    def telemetry_recorder(self) -> Optional[FlightRecorder]:
        """The run's flight recorder (``None`` before :meth:`run`)."""
        return self._recorder

    @property
    def manifest(self) -> CampaignManifest:
        """The workload definition."""
        return self._manifest

    @property
    def directory(self) -> Path:
        """The campaign home directory."""
        return self._directory

    @property
    def fingerprint(self) -> str:
        """The manifest's canonical content hash."""
        return self._fingerprint

    def request_stop(self) -> None:
        """Ask the run loop to drain: finish the in-flight chunk, journal
        an ``interrupted`` marker, and return an interrupted report."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Lifecycle (shared with ShardCoordinator, which overrides _execute)
    # ------------------------------------------------------------------
    #: The CLI commands named in refusals: how to continue a started
    #: campaign of this driver, and how to start one.
    _RESUME_COMMAND = "resume"
    _RUN_COMMAND = "run"

    def run(self) -> CampaignReport:
        """Start the campaign from scratch.

        Refuses a directory that already holds journal records (use
        :meth:`resume`) or a ``manifest.json`` with a different
        fingerprint (that directory belongs to another campaign).
        """
        journal_path = self._directory / JOURNAL_FILE
        if journal_path.exists():
            records, _ = read_journal(journal_path)
            if records:
                raise CampaignError(
                    f"campaign at {self._directory} was already started "
                    f"({len(records)} journal records); use "
                    f"{self._RESUME_COMMAND}"
                )
        manifest_path = self._directory / MANIFEST_FILE
        if manifest_path.exists():
            existing = CampaignManifest.load(manifest_path)
            if existing.fingerprint != self._fingerprint:
                raise FingerprintMismatchError(
                    f"directory {self._directory} holds manifest "
                    f"{existing.fingerprint[:12]}..., refusing to start "
                    f"{self._fingerprint[:12]}... over it"
                )
        self._directory.mkdir(parents=True, exist_ok=True)
        self._manifest.save(manifest_path)
        return self._open(CampaignProgress(fingerprint=self._fingerprint), [])

    def resume(self) -> CampaignReport:
        """Continue a campaign after a crash, kill, or drain.

        Recovers the journal (truncating a torn final record), refuses a
        manifest whose fingerprint differs from the journaled one, skips
        chunks whose ``chunk_completed`` record survived, and re-runs
        everything else.  Already-finished campaigns return the existing
        aggregate without running anything.
        """
        manifest_path = self._directory / MANIFEST_FILE
        if manifest_path.exists():
            on_disk = CampaignManifest.load(manifest_path)
            if on_disk.fingerprint != self._fingerprint:
                raise FingerprintMismatchError(
                    f"manifest at {manifest_path} has fingerprint "
                    f"{on_disk.fingerprint[:12]}... but this runner was "
                    f"built for {self._fingerprint[:12]}...; results from "
                    "different workloads must not be mixed — start a new "
                    "campaign directory instead"
                )
        journal_path = self._directory / JOURNAL_FILE
        if not journal_path.exists():
            raise CampaignError(
                f"no journal at {journal_path}; use {self._RUN_COMMAND} to "
                "start a campaign"
            )
        records = recover_journal(journal_path)
        progress = replay_progress(records, self._fingerprint)
        if not manifest_path.exists():
            # The crash hit between mkdir and manifest.save; re-write it.
            self._manifest.save(manifest_path)
        return self._open(progress, records)

    def _open(
        self, progress: CampaignProgress, records: List[dict]
    ) -> CampaignReport:
        """Open the journal, run the chunk loop, and end the campaign.

        An empty journal is headed with ``campaign_started``.  The loop
        (:meth:`_execute`, the one part each driver supplies) runs with
        SIGINT/SIGTERM routed to :meth:`request_stop`; the campaign is
        finalised once every chunk is journaled, and journaled
        ``interrupted`` when a drain stopped the loop first.
        """
        manifest = self._manifest
        with JournalWriter(
            self._directory / JOURNAL_FILE,
            next_seq=progress.next_seq,
            observer=self._obs,
        ) as journal:
            if not records:
                journal.append(
                    "campaign_started",
                    fingerprint=self._fingerprint,
                    name=manifest.name,
                    n_sims=manifest.n_sims,
                    n_chunks=manifest.n_chunks,
                )
            if progress.finished:
                return self._report_from_aggregate(progress)
            with _drain_on_signals(self.request_stop):
                chunks_run = self._execute(progress, journal, records)
            if len(progress.completed) == manifest.n_chunks:
                return finalise_campaign(
                    manifest, self._directory, progress, chunks_run, journal
                )
            journal.append(
                "interrupted",
                fingerprint=self._fingerprint,
                completed_chunks=len(progress.completed),
            )
            return CampaignReport(
                status="interrupted",
                fingerprint=self._fingerprint,
                n_chunks=manifest.n_chunks,
                completed_chunks=len(progress.completed),
                chunks_run=chunks_run,
            )

    def _report_from_aggregate(self, progress: CampaignProgress) -> CampaignReport:
        """The report of a finished campaign, read from ``aggregate.json``."""
        document = load_json(self._directory / AGGREGATE_FILE)
        if not isinstance(document, dict):
            raise SerializationError("aggregate document is not an object")
        return CampaignReport(
            status="completed",
            fingerprint=self._fingerprint,
            n_chunks=self._manifest.n_chunks,
            completed_chunks=len(progress.completed),
            chunks_run=0,
            n_failed=int(document.get("n_failed", 0)),
            aggregate=document.get("aggregate"),
            results_digest=document.get("results_digest"),
        )

    # ------------------------------------------------------------------
    # The chunk loop
    # ------------------------------------------------------------------
    def _execute(
        self, state: CampaignProgress, journal: JournalWriter, records: List[dict]
    ) -> int:
        """Run and journal the missing chunks until done or drained;
        returns how many chunks this call ran."""
        manifest = self._manifest
        chunks_run = 0
        # Telemetry sidecar: per-run operational frames (see
        # repro.obs.recorder).  Shares the observer's registry when one
        # is attached, so frames carry engine/channel/shield series
        # too; the campaign.* progress counters below are written
        # unconditionally either way.  Sidecar bytes are never part of
        # the aggregate's bit-identity contract.
        telemetry = (
            self._obs.metrics if self._obs.enabled else MetricsRegistry()
        )
        self._recorder = FlightRecorder(
            telemetry,
            sidecar=self._directory / TELEMETRY_FILE,
            min_interval=1.0,
        )
        try:
            for chunk in range(manifest.n_chunks):
                if chunk in state.completed:
                    continue
                if self._stop_requested:
                    break
                # Chunk wall time is journaled unconditionally (readers
                # ignore unknown fields; journal bytes are never part of
                # the bit-identity contract) so `repro-campaign status`
                # can summarise elapsed time on plain, untraced runs too.
                handle = (
                    self._obs.begin("campaign.chunk", chunk=chunk)
                    if self._obs.enabled
                    else -1
                )
                started = perf_now()
                chunk_result = self._run_chunk_with_retries(chunk, journal)
                elapsed = max(perf_now() - started, 0.0)
                if self._obs.enabled:
                    self._obs.end(handle, n_results=len(chunk_result.results))
                    self._obs.observe("campaign.chunk_seconds", elapsed)
                digest = persist_chunk_snapshot(
                    self._directory, self._fingerprint, chunk, chunk_result
                )
                journal.append(
                    "chunk_completed",
                    fingerprint=self._fingerprint,
                    chunk=chunk,
                    n_results=len(chunk_result.results),
                    n_failures=chunk_result.n_failed,
                    digest=digest,
                    elapsed=round(elapsed, 6),
                )
                state.completed[chunk] = digest
                chunks_run += 1
                telemetry.count("campaign.chunks_completed")
                telemetry.count(
                    "campaign.sims_completed", len(chunk_result.results)
                )
                telemetry.count(
                    "campaign.sim_failures", chunk_result.n_failed
                )
                self._recorder.tick()
        finally:
            # Final frame regardless of how the loop ended.
            self._recorder.tick(force=True)
        return chunks_run

    def _run_chunk_with_retries(
        self, chunk: int, journal: JournalWriter
    ) -> ChunkResult:
        """Execute one chunk, retrying transient failures with backoff.

        ``stage == "simulation"`` failures are deterministic (same seed,
        same exception) and accepted; worker deaths and timeouts get up
        to ``backoff.max_attempts`` full-chunk attempts — harmless to
        repeat, since re-running completed indices reproduces their
        results bit-identically.
        """
        indices = self._manifest.chunk_indices(chunk)
        executor = self._chunk_executor()
        last: Optional[ChunkResult] = None
        for attempt in range(1, self._backoff.max_attempts + 1):
            if attempt > 1:
                delay = self._backoff.delay(
                    self._fingerprint, chunk, attempt - 1
                )
                journal.append(
                    "chunk_retry",
                    fingerprint=self._fingerprint,
                    chunk=chunk,
                    attempt=attempt,
                    delay=delay,
                )
                if self._obs.enabled:
                    self._obs.count("campaign.chunk_retries")
                    self._obs.instant(
                        "campaign.chunk_retry", chunk=chunk, attempt=attempt
                    )
                self._sleep(delay)
            last = executor(indices, self._manifest.n_sims, self._manifest.seed)
            if not last.transient_failures:
                return last
        assert last is not None
        return last

    def _chunk_executor(self) -> ChunkExecutor:
        if self._executor is None:
            self._executor = chunk_executor(
                self._manifest,
                n_workers=self._n_workers,
                max_retries=self._max_retries,
                timeout_per_sim=self._timeout_per_sim,
                observer=(self._obs if self._obs.enabled else None),
            )
        return self._executor


def chunk_executor(
    manifest: CampaignManifest,
    n_workers: int = 1,
    max_retries: int = 2,
    timeout_per_sim: Optional[float] = None,
    observer=None,
) -> Callable[..., ChunkResult]:
    """Build ``manifest``'s workload once; return its chunk executor.

    ``execute(indices, n_sims, seed, progress=None) -> ChunkResult``
    runs through
    :meth:`~repro.sim.parallel.ParallelBatchRunner.run_indices_detailed`;
    :class:`CampaignRunner` and the shard worker both run chunks so.
    """
    scenario, comm, config, planner, kind = build_workload(manifest)
    runner = ParallelBatchRunner(
        scenario,
        comm,
        config,
        estimator_kind=kind,
        n_workers=n_workers,
        max_retries=max_retries,
        timeout_per_sim=timeout_per_sim,
        observer=observer,
    )

    def execute(
        indices: List[int],
        n_sims: int,
        seed: int,
        progress: Optional[Callable[[int], None]] = None,
    ) -> ChunkResult:
        return runner.run_indices_detailed(
            planner, indices, n_sims, seed, progress=progress
        )

    return execute


# ----------------------------------------------------------------------
# Drain on signal (every driver's chunk loop runs inside it)
# ----------------------------------------------------------------------
@contextmanager
def _drain_on_signals(request_stop: Callable[[], None]) -> Iterator[None]:
    """Route SIGINT/SIGTERM to ``request_stop`` for the block.

    Only the main thread can install handlers; elsewhere (e.g. a
    pytest-xdist worker) graceful drain is reachable via
    ``request_stop()`` alone.
    """

    def handler(signum, frame):  # pragma: no cover - exercised via CLI
        request_stop()

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


# ----------------------------------------------------------------------
# Finalisation (shared by CampaignRunner and the shard coordinator)
# ----------------------------------------------------------------------
def finalise_campaign(
    manifest: CampaignManifest,
    directory: Union[str, Path],
    state: CampaignProgress,
    chunks_run: int,
    journal: JournalWriter,
) -> CampaignReport:
    """Aggregate from the on-disk snapshots and journal completion.

    Reading the snapshots back (instead of using in-memory results)
    means an uninterrupted run, any interrupt/resume sequence, and any
    worker-count/sharding configuration aggregate from byte-identical
    inputs — the aggregate document depends only on the manifest.
    """
    directory = Path(directory)
    fingerprint = manifest.fingerprint
    per_index: List[Optional[dict]] = [None] * manifest.n_sims
    failures: List[dict] = []
    for chunk in range(manifest.n_chunks):
        snapshot = load_chunk_snapshot(directory, chunk, state.completed[chunk])
        for key, record in snapshot.get("results", {}).items():
            per_index[int(key)] = record
        failures.extend(snapshot.get("failures", []))
    failures.sort(key=lambda f: int(f.get("index", -1)))
    results_digest = content_digest(per_index)
    completed = [
        result_from_dict(record)
        for record in per_index
        if record is not None
    ]
    aggregate: Optional[dict] = None
    if completed:
        stats = AggregateStats.from_results(completed)
        aggregate = {
            "n_runs": stats.n_runs,
            "n_safe": stats.n_safe,
            "n_reached": stats.n_reached,
            "mean_reaching_time": stats.mean_reaching_time,
            "mean_eta": stats.mean_eta,
            "mean_emergency_frequency": stats.mean_emergency_frequency,
            "safe_rate": stats.safe_rate,
        }
    document = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "name": manifest.name,
        "n_sims": manifest.n_sims,
        "n_failed": len(failures),
        "results_digest": results_digest,
        "aggregate": aggregate,
        "failures": failures,
    }
    atomic_write_json(document, directory / AGGREGATE_FILE)
    journal.append(
        "campaign_finished",
        fingerprint=fingerprint,
        results_digest=results_digest,
        n_failed=len(failures),
    )
    write_campaign_metrics(manifest, directory)
    return CampaignReport(
        status="completed",
        fingerprint=fingerprint,
        n_chunks=manifest.n_chunks,
        completed_chunks=len(state.completed),
        chunks_run=chunks_run,
        n_failed=len(failures),
        aggregate=aggregate,
        results_digest=results_digest,
    )


def write_campaign_metrics(
    manifest: CampaignManifest, directory: Union[str, Path]
) -> None:
    """Derive ``metrics.json`` from the journal's operational fields.

    Kept out of ``aggregate.json`` on purpose: wall-clock numbers
    differ between an uninterrupted run and an interrupt/resume
    sequence, and the aggregate's byte-identity guarantee must not.
    """
    directory = Path(directory)
    records, _ = read_journal(directory / JOURNAL_FILE)
    summary = _operational_summary(records)
    document = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": manifest.fingerprint,
        "name": manifest.name,
        **summary,
    }
    atomic_write_json(document, directory / METRICS_FILE)


# ----------------------------------------------------------------------
# Inspection helpers (read-only; safe on live or damaged campaigns)
# ----------------------------------------------------------------------
def _operational_summary(records: List[dict]) -> dict:
    """Retry counts and chunk wall-time summary from journal records.

    ``chunk_retries`` maps chunk index to its ``chunk_retry`` record
    count; ``elapsed`` summarises the ``elapsed`` field of
    ``chunk_completed`` records (``None`` when no chunk carried one —
    journals written before the field existed still parse).
    """
    retries: Dict[int, int] = {}
    durations: List[float] = []
    for record in records:
        record_type = record.get("type")
        if record_type == "chunk_retry":
            chunk = int(record.get("chunk", -1))
            retries[chunk] = retries.get(chunk, 0) + 1
        elif record_type == "chunk_completed":
            elapsed = record.get("elapsed")
            if isinstance(elapsed, (int, float)):
                durations.append(float(elapsed))
    elapsed_summary: Optional[dict] = None
    if durations:
        elapsed_summary = {
            "chunks_timed": len(durations),
            "total_seconds": round(sum(durations), 6),
            "mean_seconds": round(sum(durations) / len(durations), 6),
            "max_seconds": round(max(durations), 6),
        }
    return {
        "chunk_retries": {str(k): v for k, v in sorted(retries.items())},
        "total_retries": sum(retries.values()),
        "elapsed": elapsed_summary,
    }


def scan_campaign(
    directory: Union[str, Path]
) -> Tuple[CampaignManifest, List[dict], bool]:
    """The manifest, journal records and torn-tail flag of ``directory``.

    The read-only journal scan behind :func:`campaign_status` and
    :func:`~repro.campaign.shard.shard_status`: a missing journal reads
    as no records, a torn tail is reported, not repaired.
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    journal_path = directory / JOURNAL_FILE
    if not journal_path.exists():
        return manifest, [], False
    records, torn = read_journal(journal_path)
    return manifest, records, torn


def campaign_status(directory: Union[str, Path]) -> dict:
    """Progress summary of a campaign directory (read-only).

    Works on a live, killed, or damaged campaign: a torn journal tail is
    reported, not repaired.  Besides progress, the summary carries the
    journal's operational fields: per-chunk retry counts and an elapsed
    wall-time summary over completed chunks.
    """
    manifest, records, torn = scan_campaign(directory)
    completed = {
        int(r["chunk"]) for r in records if r.get("type") == "chunk_completed"
    }
    finished = any(r.get("type") == "campaign_finished" for r in records)
    interrupted = (
        len(records) > 0 and records[-1].get("type") == "interrupted"
    )
    status = {
        "name": manifest.name,
        "fingerprint": manifest.fingerprint,
        "n_sims": manifest.n_sims,
        "n_chunks": manifest.n_chunks,
        "completed_chunks": len(completed),
        "journal_records": len(records),
        "torn_tail": torn,
        "finished": finished,
        "interrupted": interrupted,
    }
    status.update(_operational_summary(records))
    return status


def verify_campaign(directory: Union[str, Path]) -> dict:
    """Cross-check every artifact of a campaign directory.

    Verifies that the journal parses, every record carries the
    manifest's fingerprint, every journaled chunk snapshot exists with a
    matching content digest and the exact index set the manifest assigns
    to that chunk, and — when the campaign finished — that the aggregate
    document's digest matches a recomputation from the snapshots.

    Returns ``{"ok": bool, "problems": [str, ...], ...}`` rather than
    raising, so the CLI can print every problem at once.
    """
    directory = Path(directory)
    problems: List[str] = []
    manifest = CampaignManifest.load(directory / MANIFEST_FILE)
    fingerprint = manifest.fingerprint
    journal_path = directory / JOURNAL_FILE
    records: List[dict] = []
    torn = False
    if not journal_path.exists():
        problems.append(f"missing journal {journal_path}")
    else:
        try:
            records, torn = read_journal(journal_path)
        except CampaignError as exc:
            problems.append(str(exc))
    if torn:
        problems.append(
            "journal has a torn final record (resume will truncate it)"
        )
    completed: Dict[int, str] = {}
    finished_digest: Optional[str] = None
    for record in records:
        recorded = record.get("fingerprint")
        if recorded is not None and recorded != fingerprint:
            problems.append(
                f"journal record {record.get('seq')} fingerprint "
                f"{str(recorded)[:12]}... != manifest {fingerprint[:12]}..."
            )
        if record.get("type") == "chunk_completed":
            chunk = int(record["chunk"])
            digest = str(record["digest"])
            previous = completed.get(chunk)
            if previous is not None and previous != digest:
                problems.append(
                    f"journal record {record.get('seq')} completes chunk "
                    f"{chunk} with a digest conflicting with an earlier "
                    "completion (duplicates must be byte-identical)"
                )
            completed[chunk] = digest
        elif record.get("type") == "campaign_finished":
            finished_digest = str(record.get("results_digest"))
    per_index: List[Optional[dict]] = [None] * manifest.n_sims
    for chunk, digest in sorted(completed.items()):
        path = chunk_path(directory, chunk)
        try:
            snapshot = load_json(path)
        except SerializationError as exc:
            problems.append(str(exc))
            continue
        if not isinstance(snapshot, dict):
            problems.append(f"chunk snapshot {path} is not an object")
            continue
        if content_digest(snapshot) != digest:
            problems.append(
                f"chunk snapshot {path} digest mismatch vs journal"
            )
            continue
        if snapshot.get("fingerprint") != fingerprint:
            problems.append(f"chunk snapshot {path} fingerprint mismatch")
        expected_indices = manifest.chunk_indices(chunk)
        if snapshot.get("indices") != expected_indices:
            problems.append(
                f"chunk snapshot {path} covers indices "
                f"{snapshot.get('indices')} but the manifest assigns "
                f"{expected_indices}"
            )
        for key, record in snapshot.get("results", {}).items():
            per_index[int(key)] = record
        for failure in snapshot.get("failures", []):
            try:
                failure_from_dict(failure)
            except SerializationError as exc:
                problems.append(f"chunk snapshot {path}: {exc}")
    if finished_digest is not None:
        if len(completed) != manifest.n_chunks:
            problems.append(
                f"campaign_finished journaled with only {len(completed)}/"
                f"{manifest.n_chunks} chunk_completed records"
            )
        else:
            recomputed = content_digest(per_index)
            if recomputed != finished_digest:
                problems.append(
                    "journaled results digest does not match a "
                    "recomputation from the chunk snapshots"
                )
            aggregate_path = directory / AGGREGATE_FILE
            try:
                document = load_json(aggregate_path)
            except SerializationError as exc:
                problems.append(str(exc))
            else:
                if (
                    not isinstance(document, dict)
                    or document.get("results_digest") != finished_digest
                    or document.get("fingerprint") != fingerprint
                ):
                    problems.append(
                        f"aggregate document {aggregate_path} does not "
                        "match the journaled digest/fingerprint"
                    )
    return {
        "ok": not problems,
        "problems": problems,
        "fingerprint": fingerprint,
        "n_chunks": manifest.n_chunks,
        "completed_chunks": len(completed),
        "finished": finished_digest is not None,
    }
