"""``repro-campaign``: the durable campaign command line.

Subcommands
-----------

``run``
    Start a campaign from a manifest JSON file into a directory.
``resume``
    Continue a killed or drained campaign from its directory.
``status``
    Read-only progress summary (safe while a campaign is running).
``verify``
    Cross-check journal, chunk snapshots, and aggregate digests.
``shard-run``
    Start a campaign sharded across N worker processes with
    lease-based chunk claims (see :mod:`repro.campaign.shard`).
``shard-resume``
    Continue a sharded campaign after any crash — worker *or*
    coordinator; progress is replayed purely from the journal.
``shard-status``
    Read-only per-worker summary: leases, heartbeats, steals,
    speculative dispatches, duplicate completions — plus the newest
    fleet telemetry frame when the coordinator wrote a
    ``telemetry.jsonl`` sidecar (``--expo`` renders it as Prometheus
    text instead).

Exit codes: 0 success; 1 verification found problems; 2 campaign error
(bad manifest, fingerprint mismatch, corrupt journal, invalid flag);
3 the run was interrupted by SIGINT/SIGTERM after a clean drain
(resume to continue).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    MANIFEST_FILE,
    CampaignReport,
    CampaignRunner,
    campaign_status,
    verify_campaign,
)
from repro.campaign.shard import ShardCoordinator, shard_status
from repro.errors import ReproError
from repro.utils.validation import (
    check_flag_at_least,
    check_flag_below,
    check_flag_count,
    check_flag_positive,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Durable, resumable simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a campaign from a manifest")
    run.add_argument("--manifest", required=True, help="manifest JSON file")
    run.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(run)

    resume = sub.add_parser("resume", help="continue a killed campaign")
    resume.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(resume)

    status = sub.add_parser("status", help="read-only progress summary")
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    verify = sub.add_parser("verify", help="cross-check campaign artifacts")
    verify.add_argument("--dir", required=True, help="campaign directory")
    verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    shard_run = sub.add_parser(
        "shard-run",
        help="start a campaign sharded across worker processes",
    )
    shard_run.add_argument(
        "--manifest", required=True, help="manifest JSON file"
    )
    shard_run.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(shard_run)
    _add_shard_options(shard_run)

    shard_resume = sub.add_parser(
        "shard-resume",
        help="continue a sharded campaign after any crash",
    )
    shard_resume.add_argument(
        "--dir", required=True, help="campaign directory"
    )
    _add_exec_options(shard_resume)
    _add_shard_options(shard_resume)

    shard_stat = sub.add_parser(
        "shard-status",
        help="per-worker leases, heartbeats, steals (read-only)",
    )
    shard_stat.add_argument("--dir", required=True, help="campaign directory")
    shard_stat.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    shard_stat.add_argument(
        "--expo",
        action="store_true",
        help="print the newest telemetry frame as Prometheus text",
    )
    return parser


def _add_exec_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers", type=int, default=1, help="worker processes per chunk"
    )
    sub.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="per-index retry budget inside the batch layer",
    )
    sub.add_argument(
        "--chunk-attempts",
        type=int,
        default=3,
        help="full-chunk attempts for transient (worker/timeout) failures",
    )
    sub.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-simulation time budget in seconds (default: no watchdog)",
    )


def _add_shard_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds of heartbeat silence before a lease expires",
    )
    sub.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between worker liveness heartbeats",
    )
    sub.add_argument(
        "--straggler-factor",
        type=float,
        default=4.0,
        help="lease-age multiple of the TTL before speculative re-dispatch",
    )


def _validate_exec_options(args: argparse.Namespace) -> None:
    """Reject nonsensical knob values before anything touches disk.

    All numeric knobs go through the shared flag validators in
    :mod:`repro.utils.validation` — the same helpers the serve CLI
    uses — so NaN/zero/negative values fail identically everywhere.
    """
    check_flag_count(args.workers, "--workers", minimum=1)
    check_flag_count(args.max_retries, "--max-retries", minimum=0)
    check_flag_count(args.chunk_attempts, "--chunk-attempts", minimum=1)
    if args.chunk_timeout is not None:
        check_flag_positive(args.chunk_timeout, "--chunk-timeout")
    if hasattr(args, "lease_ttl"):
        check_flag_positive(args.lease_ttl, "--lease-ttl")
        check_flag_positive(args.heartbeat_interval, "--heartbeat-interval")
        check_flag_below(
            args.heartbeat_interval,
            "--heartbeat-interval",
            args.lease_ttl,
            "--lease-ttl",
            reason="every healthy lease would expire",
        )
        check_flag_at_least(args.straggler_factor, 1.0, "--straggler-factor")


def _runner(args: argparse.Namespace, manifest: CampaignManifest) -> CampaignRunner:
    return CampaignRunner(
        manifest,
        args.dir,
        n_workers=args.workers,
        max_retries=args.max_retries,
        timeout_per_sim=args.chunk_timeout,
        backoff=BackoffPolicy(max_attempts=args.chunk_attempts),
    )


def _coordinator(
    args: argparse.Namespace, manifest: CampaignManifest
) -> ShardCoordinator:
    return ShardCoordinator(
        manifest,
        args.dir,
        n_workers=args.workers,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        straggler_factor=args.straggler_factor,
        backoff=BackoffPolicy(max_attempts=args.chunk_attempts),
        max_retries=args.max_retries,
        timeout_per_sim=args.chunk_timeout,
    )


def _print_report(report: CampaignReport) -> None:
    print(
        f"campaign {report.fingerprint[:12]}...: {report.status} "
        f"({report.completed_chunks}/{report.n_chunks} chunks, "
        f"{report.chunks_run} run now)"
    )
    if report.status == "completed":
        print(f"results digest: {report.results_digest}")
        if report.n_failed:
            print(f"failed simulations: {report.n_failed}")
        if report.aggregate is not None:
            for key in (
                "n_runs",
                "n_safe",
                "safe_rate",
                "mean_eta",
                "mean_reaching_time",
                "mean_emergency_frequency",
            ):
                print(f"  {key}: {report.aggregate.get(key)}")
    else:
        print("interrupted — resume with: repro-campaign resume --dir <dir>")


def _print_shard_status(summary: dict) -> None:
    for key in (
        "name",
        "fingerprint",
        "n_chunks",
        "completed_chunks",
        "coordinator_epochs",
        "lease_expirations",
        "duplicate_completions",
        "journal_records",
        "torn_tail",
        "finished",
    ):
        print(f"{key}: {summary[key]}")
    for worker, entry in sorted(summary["workers"].items()):
        print(
            f"worker {worker}: pid={entry['pid']} alive={entry['alive']} "
            f"leases={entry['leases']} steals={entry['steals']} "
            f"speculative={entry['speculative']} "
            f"heartbeats={entry['heartbeats']} "
            f"completions={entry['completions']} "
            f"expirations={entry['expirations']} errors={entry['errors']}"
        )
    telemetry = summary.get("telemetry")
    if telemetry is not None:
        print(
            f"telemetry: {telemetry['frames']} frames "
            f"(last wall {telemetry['last_wall']})"
        )
        for name, value in sorted(telemetry["counters"].items()):
            if name.startswith("fleet.") and "{" not in name:
                print(f"  {name}: {value}")


def _print_shard_expo(summary: dict) -> int:
    """Render the newest telemetry frame as Prometheus text; exit code."""
    from repro.obs.expo import render_prometheus

    telemetry = summary.get("telemetry")
    if telemetry is None:
        print("error: no telemetry frames recorded yet", file=sys.stderr)
        return EXIT_ERROR
    snapshot = {
        "counters": telemetry["counters"],
        "gauges": telemetry["gauges"],
        "histograms": telemetry["histograms"],
    }
    sys.stdout.write(render_prometheus(snapshot))
    return EXIT_OK


def _report_exit(report: CampaignReport) -> int:
    _print_report(report)
    return EXIT_OK if report.status == "completed" else EXIT_INTERRUPTED


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "resume", "shard-run", "shard-resume"):
            _validate_exec_options(args)
            starting = args.command.endswith("run")
            manifest = CampaignManifest.load(
                args.manifest if starting else f"{args.dir}/{MANIFEST_FILE}"
            )
            build = _coordinator if args.command.startswith("shard") else _runner
            driver = build(args, manifest)
            return _report_exit(driver.run() if starting else driver.resume())
        if args.command == "status":
            summary = campaign_status(args.dir)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                for key, value in summary.items():
                    print(f"{key}: {value}")
            return EXIT_OK
        if args.command == "shard-status":
            summary = shard_status(args.dir)
            if args.expo:
                return _print_shard_expo(summary)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                _print_shard_status(summary)
            return EXIT_OK
        # verify
        outcome = verify_campaign(args.dir)
        if args.json:
            print(json.dumps(outcome, indent=2, sort_keys=True))
        else:
            state = "ok" if outcome["ok"] else "FAILED"
            print(
                f"verify {state}: {outcome['completed_chunks']}/"
                f"{outcome['n_chunks']} chunks, "
                f"finished={outcome['finished']}"
            )
            for problem in outcome["problems"]:
                print(f"  problem: {problem}")
        return EXIT_OK if outcome["ok"] else EXIT_VERIFY_FAILED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
