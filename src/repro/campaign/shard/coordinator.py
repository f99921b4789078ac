"""The shard coordinator: lease-based chunk dispatch over worker processes.

Ownership model
---------------

The coordinator is the campaign's **only journal writer**.  Workers
write chunk snapshots (atomic, content-addressed) and report digests
over a line protocol; the coordinator turns those reports into
``chunk_completed`` journal records.  Everything the coordinator knows —
progress, epochs, worker history — is reconstructable from journal +
snapshots, so there is deliberately **no separate coordinator state
file**: killing the coordinator at any byte and re-running
``shard-resume`` replays the journal and carries on.

Failure matrix (each case exercised by the chaos suite):

=====================  ==================================================
Worker SIGKILLed       stdout EOF (or lease TTL) releases its leases;
                       chunks re-dispatched with deterministic backoff
                       to the survivors.  Orphaned snapshot writes are
                       byte-identical, hence harmless.
Coordinator SIGKILLed  Workers see stdin EOF and exit; the journal ends
                       at the last durable record; ``shard-resume``
                       replays it (a new ``coordinator_started`` epoch)
                       and re-runs only unjournaled chunks.
Straggler              A lease older than ``straggler_factor × ttl``
                       gets a speculative twin on an idle worker; the
                       first completion wins.
Duplicate completion   Journaled as-is; replay is idempotent because
                       chunk ``k`` is content-deterministic — equal
                       digests collapse, unequal digests raise
                       ``JournalCorruptionError``.
=====================  ==================================================

The aggregate is produced by the same
:func:`~repro.campaign.runner.finalise_campaign` the sequential runner
uses, reading the same snapshot files — which is why a sharded campaign
is bit-identical to a single-process one by construction, not by luck.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import repro
from repro.campaign.backoff import BackoffPolicy
from repro.campaign.journal import JournalWriter
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    CampaignProgress,
    CampaignRunner,
    scan_campaign,
)
from repro.campaign.shard.leases import Lease, LeaseTable
from repro.campaign.shard.protocol import (
    COMMAND_RUN,
    COMMAND_SHUTDOWN,
    EVENT_COMPLETED,
    EVENT_ERROR,
    EVENT_HEARTBEAT,
    EVENT_READY,
    EVENT_STARTED,
    decode_line,
    encode_message,
)
from repro.errors import CampaignError, JournalCorruptionError
from repro.obs.fleet import merge_delta
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import TELEMETRY_FILE, FlightRecorder, read_telemetry
from repro.obs.trace import perf_now

__all__ = ["ShardCoordinator", "shard_status"]

#: Grace period [s] for a worker to exit after a shutdown command.
_SHUTDOWN_GRACE = 10.0


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one worker subprocess."""

    worker_id: str
    process: subprocess.Popen
    buffer: bytes = b""
    ready: bool = False
    alive: bool = True
    busy_chunk: Optional[int] = None
    exit_journaled: bool = False
    heartbeats: int = 0
    completions: int = 0


@dataclass
class _LoopState:
    """Mutable per-run state threaded through the event loop."""

    progress: CampaignProgress
    table: LeaseTable
    journal: JournalWriter
    #: chunk -> perf_now() at the moment its lease was released, for the
    #: re-dispatch latency metric.
    redispatch_pending: Dict[int, float] = field(default_factory=dict)


class ShardCoordinator(CampaignRunner):
    """Runs a campaign manifest across ``n_workers`` worker processes.

    Parameters
    ----------
    manifest, directory:
        As for :class:`~repro.campaign.runner.CampaignRunner`, whose
        start/resume lifecycle the coordinator inherits (it replaces
        only the chunk loop); the directory layout (manifest, journal,
        chunks, aggregate) is identical, and the two are
        resume-compatible in both directions.
    n_workers:
        Worker subprocesses.  ``1`` degrades gracefully to the inherited
        in-process chunk loop — no subprocesses, no protocol, same
        artifacts.
    lease_ttl:
        Seconds of heartbeat silence after which a lease expires and
        its chunk is re-dispatched.
    heartbeat_interval:
        Seconds between worker liveness heartbeats (must be well under
        ``lease_ttl``; validated).
    straggler_factor:
        Lease age multiple of ``lease_ttl`` beyond which an idle worker
        may speculatively duplicate a straggling chunk.
    backoff:
        Deterministic re-dispatch delay policy (shared with the
        sequential runner).
    max_retries, timeout_per_sim:
        Forwarded to each worker's batch layer.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records lease
        churn, steal counts, worker deaths and re-dispatch latency.
        Write-only — artifacts are byte-identical with or without it.
    tick_hook:
        Test-only callable ``(coordinator, now) -> None`` invoked once
        per event-loop iteration; the chaos suite uses it to SIGKILL
        workers at precise protocol states.
    """

    _RESUME_COMMAND = "shard-resume"
    _RUN_COMMAND = "shard-run"

    def __init__(
        self,
        manifest: CampaignManifest,
        directory: Union[str, Path],
        n_workers: int = 2,
        lease_ttl: float = 30.0,
        heartbeat_interval: float = 1.0,
        straggler_factor: float = 4.0,
        backoff: Optional[BackoffPolicy] = None,
        max_retries: int = 2,
        timeout_per_sim: Optional[float] = None,
        observer=None,
        tick_hook: Optional[Callable[["ShardCoordinator", float], None]] = None,
    ) -> None:
        if n_workers < 1:
            raise CampaignError(f"n_workers must be >= 1, got {n_workers}")
        if lease_ttl <= 0.0:
            raise CampaignError(f"lease_ttl must be > 0, got {lease_ttl}")
        if heartbeat_interval <= 0.0:
            raise CampaignError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if heartbeat_interval >= lease_ttl:
            raise CampaignError(
                f"heartbeat_interval ({heartbeat_interval}) must be below "
                f"lease_ttl ({lease_ttl}); every healthy lease would expire"
            )
        if timeout_per_sim is not None and timeout_per_sim <= 0.0:
            raise CampaignError(
                f"timeout_per_sim must be > 0, got {timeout_per_sim}"
            )
        super().__init__(
            manifest,
            directory,
            n_workers=n_workers,
            max_retries=max_retries,
            timeout_per_sim=timeout_per_sim,
            backoff=backoff,
            observer=observer,
        )
        self._lease_ttl = lease_ttl
        self._heartbeat_interval = heartbeat_interval
        self._straggler_factor = straggler_factor
        self._tick_hook = tick_hook
        self._workers: Dict[str, _WorkerHandle] = {}
        # The fleet registry is always on (independent of the optional
        # observer): workers stream metric deltas on their heartbeats
        # and the coordinator merges them here with exact-sum semantics
        # (see repro.obs.fleet).  The flight recorder snapshots it into
        # the telemetry.jsonl sidecar — a per-run operational artifact,
        # never part of the aggregate's bit-identity contract.
        self._fleet = MetricsRegistry()

    # ------------------------------------------------------------------
    # Introspection (tests and the tick hook)
    # ------------------------------------------------------------------
    def worker_pids(self) -> Dict[str, int]:
        """Live worker ids to OS pids (chaos hooks kill through this)."""
        return {
            handle.worker_id: handle.process.pid
            for handle in self._workers.values()
            if handle.alive
        }

    @property
    def fleet_registry(self) -> MetricsRegistry:
        """The always-on fleet registry (merged worker deltas)."""
        return self._fleet

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _execute(
        self,
        progress: CampaignProgress,
        journal: JournalWriter,
        records: List[dict],
    ) -> int:
        if self._n_workers == 1:
            return super()._execute(progress, journal, records)
        manifest = self._manifest
        epoch = 1 + sum(
            1 for r in records if r.get("type") == "coordinator_started"
        )
        pending = [
            chunk
            for chunk in range(manifest.n_chunks)
            if chunk not in progress.completed
        ]
        journal.append(
            "coordinator_started",
            fingerprint=self._fingerprint,
            epoch=epoch,
            n_workers=self._n_workers,
            pending_chunks=len(pending),
        )
        if not pending:
            # Every chunk was journaled before the previous coordinator
            # died; only finalisation is left — no workers needed.
            return 0
        worker_ids = [f"w{i}" for i in range(self._n_workers)]
        table = LeaseTable(
            pending,
            worker_ids,
            self._fingerprint,
            backoff=self._backoff,
            ttl=self._lease_ttl,
            straggler_factor=self._straggler_factor,
        )
        state = _LoopState(progress=progress, table=table, journal=journal)
        selector = selectors.DefaultSelector()
        self._workers = {}
        chunks_before = len(progress.completed)
        self._recorder = FlightRecorder(
            self._fleet,
            sidecar=self._directory / TELEMETRY_FILE,
            min_interval=max(self._heartbeat_interval, 0.5),
        )
        try:
            for worker_id in worker_ids:
                self._spawn_worker(worker_id, selector, journal)
            self._loop(state, selector)
            self._shutdown_workers(selector, journal)
            return len(progress.completed) - chunks_before
        finally:
            self._kill_remaining_workers()
            selector.close()
            # Flush a final frame so shard-status sees the end state
            # however the run ended (finished, drained, or crashed).
            self._recorder.tick(force=True)

    def _loop(self, state: _LoopState, selector: selectors.DefaultSelector) -> None:
        poll = max(0.01, min(self._heartbeat_interval, self._lease_ttl / 4.0))
        while state.table.outstanding() > 0:
            if self._stop_requested and self._all_idle():
                return
            for key, _ in selector.select(timeout=poll):
                self._drain_pipe(key.data, key.fd, selector, state)
            now = perf_now()
            self._expire_leases(state, now)
            if not any(h.alive for h in self._workers.values()):
                if state.table.outstanding() > 0 and not self._stop_requested:
                    raise CampaignError(
                        "all shard workers died; the journal is intact — "
                        "shard-resume to re-dispatch the remaining chunks"
                    )
                return
            if not self._stop_requested:
                self._dispatch(state, now)
            if self._recorder is not None:
                self._recorder.tick()
            if self._tick_hook is not None:
                self._tick_hook(self, now)

    def _all_idle(self) -> bool:
        return all(
            handle.busy_chunk is None
            for handle in self._workers.values()
            if handle.alive
        )

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _worker_command(self, worker_id: str) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.campaign.shard.worker",
            str(self._directory),
            worker_id,
            "--heartbeat-interval",
            str(self._heartbeat_interval),
            "--max-retries",
            str(self._max_retries),
        ]
        if self._timeout_per_sim is not None:
            command += ["--timeout-per-sim", str(self._timeout_per_sim)]
        return command

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + os.pathsep + existing if existing else src_root
            )
        return env

    def _spawn_worker(
        self,
        worker_id: str,
        selector: selectors.DefaultSelector,
        journal: JournalWriter,
    ) -> None:
        process = subprocess.Popen(
            self._worker_command(worker_id),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._worker_env(),
        )
        handle = _WorkerHandle(worker_id=worker_id, process=process)
        self._workers[worker_id] = handle
        os.set_blocking(process.stdout.fileno(), False)
        selector.register(process.stdout.fileno(), selectors.EVENT_READ, handle)
        journal.append(
            "worker_spawned",
            fingerprint=self._fingerprint,
            worker=worker_id,
            pid=process.pid,
        )
        if self._obs.enabled:
            self._obs.count("shard.workers_spawned")

    def _drain_pipe(
        self,
        handle: _WorkerHandle,
        fd: int,
        selector: selectors.DefaultSelector,
        state: _LoopState,
    ) -> None:
        try:
            data = os.read(fd, 65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if data == b"":
            selector.unregister(fd)
            self._on_worker_gone(handle, state)
            return
        handle.buffer += data
        while b"\n" in handle.buffer:
            line, handle.buffer = handle.buffer.split(b"\n", 1)
            event = decode_line(line)
            if event is not None:
                self._handle_event(handle, event, state)

    def _on_worker_gone(self, handle: _WorkerHandle, state: _LoopState) -> None:
        """EOF on a worker's stdout: reap it and release its leases."""
        handle.alive = False
        handle.busy_chunk = None
        if handle.process.poll() is None:
            handle.process.kill()
        returncode = handle.process.wait()
        if not handle.exit_journaled:
            handle.exit_journaled = True
            state.journal.append(
                "worker_exited",
                fingerprint=self._fingerprint,
                worker=handle.worker_id,
                returncode=returncode,
            )
        now = perf_now()
        for lease, delay in state.table.release_worker(handle.worker_id, now):
            self._journal_lease_release(
                state, lease, delay, now, reason="worker_exited"
            )
        self._fleet.gauge("fleet.worker_up", 0.0, worker=handle.worker_id)
        if self._obs.enabled:
            self._obs.count("shard.worker_deaths")

    def _shutdown_workers(
        self, selector: selectors.DefaultSelector, journal: JournalWriter
    ) -> None:
        """Graceful fleet shutdown; journals every worker's exit."""
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                handle.process.stdin.write(
                    encode_message({"cmd": COMMAND_SHUTDOWN})
                )
                handle.process.stdin.flush()
                handle.process.stdin.close()
            except (BrokenPipeError, OSError, ValueError):  # safelint: disable=SFL010 - best-effort goodbye; wait() below settles the worker either way
                pass
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                returncode = handle.process.wait(timeout=_SHUTDOWN_GRACE)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                returncode = handle.process.wait()
            handle.alive = False
            self._fleet.gauge(
                "fleet.worker_up", 0.0, worker=handle.worker_id
            )
            try:
                selector.unregister(handle.process.stdout.fileno())
            except (KeyError, ValueError):  # safelint: disable=SFL010 - EOF already unregistered this pipe; nothing to clean up
                pass
            if not handle.exit_journaled:
                handle.exit_journaled = True
                journal.append(
                    "worker_exited",
                    fingerprint=self._fingerprint,
                    worker=handle.worker_id,
                    returncode=returncode,
                )

    def _kill_remaining_workers(self) -> None:
        """Last-resort cleanup: no child outlives the coordinator call."""
        for handle in self._workers.values():
            if handle.process.poll() is None:
                handle.process.kill()
                handle.process.wait()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle_event(
        self, handle: _WorkerHandle, event: dict, state: _LoopState
    ) -> None:
        kind = event.get("event")
        now = perf_now()
        self._absorb_worker_metrics(handle, event)
        if kind == EVENT_READY:
            handle.ready = True
            self._fleet.gauge(
                "fleet.worker_up", 1.0, worker=handle.worker_id
            )
        elif kind in (EVENT_STARTED, EVENT_HEARTBEAT):
            chunk = int(event.get("chunk", -1))
            handle.heartbeats += 1
            if state.table.heartbeat(handle.worker_id, chunk, now):
                state.journal.append(
                    "lease_heartbeat",
                    fingerprint=self._fingerprint,
                    worker=handle.worker_id,
                    chunk=chunk,
                    done=int(event.get("done", 0)),
                )
        elif kind == EVENT_COMPLETED:
            self._handle_completed(handle, event, state, now)
        elif kind == EVENT_ERROR:
            self._handle_error(handle, event, state, now)

    def _absorb_worker_metrics(
        self, handle: _WorkerHandle, event: dict
    ) -> None:
        """Merge a piggybacked metric delta into the fleet registry.

        Every merged counter lands twice — in the unlabelled fleet
        total and in a ``worker=<id>`` labelled series — which is the
        structural form of the exact-sum acceptance invariant:
        ``fleet.x == sum over workers of fleet.x{worker=w}``.
        """
        delta = event.get("metrics")
        if not isinstance(delta, dict):
            return
        merge_delta(self._fleet, delta, worker=handle.worker_id)
        self._fleet.count("fleet.metric_reports")
        self._fleet.count("fleet.metric_reports", worker=handle.worker_id)
        self._fleet.gauge("fleet.worker_up", 1.0, worker=handle.worker_id)

    def _handle_completed(
        self,
        handle: _WorkerHandle,
        event: dict,
        state: _LoopState,
        now: float,
    ) -> None:
        if not isinstance(event.get("chunk"), int) or not isinstance(
            event.get("digest"), str
        ):
            return  # malformed event: drop; lease expiry covers the chunk
        chunk = int(event["chunk"])
        digest = str(event["digest"])
        handle.busy_chunk = None
        handle.completions += 1
        previous = state.progress.completed.get(chunk)
        if previous is not None and previous != digest:
            raise JournalCorruptionError(
                f"worker {handle.worker_id} completed chunk {chunk} with "
                f"digest {digest[:12]}... but an earlier completion "
                f"journaled {previous[:12]}...; the workload is not "
                "content-deterministic"
            )
        duplicate = previous is not None
        # Duplicates are journaled too: replay is idempotent, and the
        # record is the audit trail that a speculative twin raced.
        state.journal.append(
            "chunk_completed",
            fingerprint=self._fingerprint,
            chunk=chunk,
            n_results=int(event.get("n_results", 0)),
            n_failures=int(event.get("n_failures", 0)),
            digest=digest,
            elapsed=float(event.get("elapsed", 0.0)),
            worker=handle.worker_id,
            duplicate=duplicate,
        )
        state.progress.completed[chunk] = digest
        state.table.complete(chunk)
        state.redispatch_pending.pop(chunk, None)
        if self._obs.enabled:
            self._obs.count("shard.chunks_completed")
            self._obs.observe(
                "shard.chunk_seconds", float(event.get("elapsed", 0.0))
            )
            if duplicate:
                self._obs.count("shard.duplicate_completions")

    def _handle_error(
        self,
        handle: _WorkerHandle,
        event: dict,
        state: _LoopState,
        now: float,
    ) -> None:
        chunk = int(event.get("chunk", -1))
        handle.busy_chunk = None
        delay = state.table.fail(handle.worker_id, chunk, now)
        state.journal.append(
            "chunk_failed",
            fingerprint=self._fingerprint,
            worker=handle.worker_id,
            chunk=chunk,
            error_type=str(event.get("error_type", "unknown")),
            message=str(event.get("message", ""))[:500],
            attempt=state.table.attempts(chunk),
            delay=delay,
        )
        if delay is not None:
            state.redispatch_pending[chunk] = now
        if self._obs.enabled:
            self._obs.count("shard.chunk_errors")

    # ------------------------------------------------------------------
    # Lease churn
    # ------------------------------------------------------------------
    def _expire_leases(self, state: _LoopState, now: float) -> None:
        # The holder may still be computing (hung or merely slow); its
        # slot stays busy until it reports or dies, but the chunk itself
        # becomes claimable elsewhere — a late completion is absorbed as
        # a byte-identical duplicate.
        for lease, delay in state.table.expire(now):
            self._journal_lease_release(
                state, lease, delay, now, reason="ttl"
            )

    def _journal_lease_release(
        self,
        state: _LoopState,
        lease: Lease,
        delay: Optional[float],
        now: float,
        reason: str,
    ) -> None:
        state.journal.append(
            "lease_expired",
            fingerprint=self._fingerprint,
            worker=lease.worker,
            chunk=lease.chunk,
            attempt=lease.attempt,
            delay=delay,
            reason=reason,
        )
        if delay is not None:
            state.redispatch_pending[lease.chunk] = now
        if self._obs.enabled:
            self._obs.count("shard.lease_expirations")

    def _dispatch(self, state: _LoopState, now: float) -> None:
        for handle in self._workers.values():
            if not handle.alive or not handle.ready:
                continue
            if handle.busy_chunk is not None:
                continue
            lease = state.table.claim(handle.worker_id, now)
            if lease is None:
                continue
            try:
                handle.process.stdin.write(
                    encode_message({"cmd": COMMAND_RUN, "chunk": lease.chunk})
                )
                handle.process.stdin.flush()
            except (BrokenPipeError, OSError, ValueError):
                # The worker died between EOF and our write; give the
                # lease straight back — the EOF path will also release
                # anything the table still holds for this worker.
                state.table.release_worker(handle.worker_id, now)
                handle.alive = False
                continue
            handle.busy_chunk = lease.chunk
            state.journal.append(
                "lease_claimed",
                fingerprint=self._fingerprint,
                worker=handle.worker_id,
                chunk=lease.chunk,
                attempt=lease.attempt,
                origin=lease.origin,
                speculative=lease.speculative,
            )
            if self._obs.enabled:
                self._obs.count("shard.lease_claims")
                if lease.origin == "steal":
                    self._obs.count("shard.steals")
                if lease.speculative:
                    self._obs.count("shard.speculations")
            issued_at = state.redispatch_pending.pop(lease.chunk, None)
            if issued_at is not None and self._obs.enabled:
                self._obs.observe(
                    "shard.redispatch_seconds", max(now - issued_at, 0.0)
                )


# ----------------------------------------------------------------------
# shard-status: read-only per-worker summary from the journal
# ----------------------------------------------------------------------
def shard_status(directory: Union[str, Path]) -> dict:
    """Per-worker lease/heartbeat/steal summary of a sharded campaign.

    Derived purely from the journal (safe on a live or killed campaign):
    coordinator epochs, per-worker lease counts by origin, heartbeat
    counts, completions, expirations, and duplicate completions.
    """
    directory = Path(directory)
    manifest, records, torn = scan_campaign(directory)
    workers: Dict[str, dict] = {}

    def worker_entry(worker: str) -> dict:
        return workers.setdefault(
            worker,
            {
                "pid": None,
                "alive": False,
                "leases": 0,
                "steals": 0,
                "speculative": 0,
                "heartbeats": 0,
                "completions": 0,
                "expirations": 0,
                "errors": 0,
                "last_heartbeat_seq": None,
            },
        )

    epochs = 0
    completed: Dict[int, str] = {}
    duplicates = 0
    expirations = 0
    finished = False
    for record in records:
        record_type = record.get("type")
        if record_type == "coordinator_started":
            epochs += 1
            # A new epoch means the previous fleet is gone.
            for entry in workers.values():
                entry["alive"] = False
        elif record_type == "worker_spawned":
            entry = worker_entry(str(record.get("worker")))
            entry["pid"] = record.get("pid")
            entry["alive"] = True
        elif record_type == "worker_exited":
            worker_entry(str(record.get("worker")))["alive"] = False
        elif record_type == "lease_claimed":
            entry = worker_entry(str(record.get("worker")))
            entry["leases"] += 1
            if record.get("origin") == "steal":
                entry["steals"] += 1
            if record.get("speculative"):
                entry["speculative"] += 1
        elif record_type == "lease_heartbeat":
            entry = worker_entry(str(record.get("worker")))
            entry["heartbeats"] += 1
            entry["last_heartbeat_seq"] = record.get("seq")
        elif record_type == "lease_expired":
            worker_entry(str(record.get("worker")))["expirations"] += 1
            expirations += 1
        elif record_type == "chunk_failed":
            worker_entry(str(record.get("worker")))["errors"] += 1
        elif record_type == "chunk_completed":
            chunk = int(record.get("chunk", -1))
            if chunk in completed:
                duplicates += 1
            completed[chunk] = str(record.get("digest"))
            worker = record.get("worker")
            if worker is not None:
                worker_entry(str(worker))["completions"] += 1
        elif record_type == "campaign_finished":
            finished = True
    return {
        "name": manifest.name,
        "fingerprint": manifest.fingerprint,
        "n_chunks": manifest.n_chunks,
        "completed_chunks": len(completed),
        "coordinator_epochs": epochs,
        "workers": workers,
        "lease_expirations": expirations,
        "duplicate_completions": duplicates,
        "journal_records": len(records),
        "torn_tail": torn,
        "finished": finished,
        "telemetry": _telemetry_summary(directory),
    }


def _telemetry_summary(directory: Path) -> Optional[dict]:
    """Summarise the telemetry sidecar for ``shard-status``.

    ``None`` when the campaign never wrote one (pre-telemetry runs,
    single-worker degradation without an observer).  Otherwise the
    newest frame's fleet counters and per-worker liveness gauges plus
    the frame count — everything the status CLI and the exposition
    flag need without re-reading the journal.
    """
    frames = read_telemetry(directory / TELEMETRY_FILE)
    if not frames:
        return None
    newest = frames[-1]
    return {
        "frames": len(frames),
        "last_wall": newest.get("wall"),
        "counters": dict(newest.get("counters", {})),
        "gauges": dict(newest.get("gauges", {})),
        "histograms": dict(newest.get("histograms", {})),
    }
