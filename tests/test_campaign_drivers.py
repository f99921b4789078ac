"""Both campaign drivers share one start/resume lifecycle.

:class:`CampaignRunner` and :class:`ShardCoordinator` start, refuse and
resume campaign directories identically; only the chunk loop and the
command named in refusals differ.  None of the paths exercised here
spawns a shard worker: every refusal happens before the chunk loop, and
resuming a finished campaign returns the aggregate on disk.
"""

from __future__ import annotations

import shutil

import pytest

from repro.campaign.journal import JournalWriter, read_journal
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    AGGREGATE_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    CampaignRunner,
)
from repro.campaign.shard import ShardCoordinator
from repro.errors import CampaignError, FingerprintMismatchError


def _manifest(seed=5):
    return CampaignManifest(
        name="driver-parity",
        scenario={"kind": "left_turn"},
        comm={"sensor_noise": 0.3},
        planner={"kind": "constant", "acceleration": 2.0},
        n_sims=2,
        seed=seed,
        chunk_size=1,
        config={"max_time": 8.0},
    )


#: (driver factory, command that continues a campaign, command that starts one)
DRIVERS = {
    "runner": (lambda m, d: CampaignRunner(m, d), "resume", "run"),
    "coordinator": (
        lambda m, d: ShardCoordinator(m, d, n_workers=2, heartbeat_interval=0.2),
        "shard-resume",
        "shard-run",
    ),
}


@pytest.fixture(params=sorted(DRIVERS))
def driver(request):
    return DRIVERS[request.param]


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One finished campaign, run in process."""
    directory = tmp_path_factory.mktemp("finished") / "campaign"
    report = CampaignRunner(_manifest(), directory).run()
    assert report.status == "completed"
    return directory, report


def _started(directory, manifest):
    """A directory killed right after its ``campaign_started`` record."""
    directory.mkdir(parents=True)
    manifest.save(directory / MANIFEST_FILE)
    with JournalWriter(directory / JOURNAL_FILE) as journal:
        journal.append(
            "campaign_started",
            fingerprint=manifest.fingerprint,
            name=manifest.name,
            n_sims=manifest.n_sims,
            n_chunks=manifest.n_chunks,
        )


class TestRefusals:
    def test_run_over_started_directory(self, driver, tmp_path):
        build, resume_command, _ = driver
        manifest = _manifest()
        _started(tmp_path / "c", manifest)
        with pytest.raises(CampaignError, match="already started") as info:
            build(manifest, tmp_path / "c").run()
        assert str(info.value).endswith(f"use {resume_command}")

    def test_run_over_foreign_manifest(self, driver, tmp_path):
        build, _, _ = driver
        _manifest(seed=1).save(tmp_path / MANIFEST_FILE)
        with pytest.raises(FingerprintMismatchError):
            build(_manifest(seed=2), tmp_path).run()
        assert not (tmp_path / JOURNAL_FILE).exists()

    def test_resume_with_foreign_manifest(self, driver, tmp_path):
        build, _, _ = driver
        _started(tmp_path / "c", _manifest(seed=1))
        with pytest.raises(FingerprintMismatchError, match="different"):
            build(_manifest(seed=2), tmp_path / "c").resume()

    def test_resume_with_foreign_journal(self, driver, tmp_path):
        build, _, _ = driver
        _started(tmp_path / "c", _manifest(seed=1))
        (tmp_path / "c" / MANIFEST_FILE).unlink()
        with pytest.raises(FingerprintMismatchError):
            build(_manifest(seed=2), tmp_path / "c").resume()
        # Refused before anything was written for the wrong campaign.
        assert not (tmp_path / "c" / MANIFEST_FILE).exists()

    def test_resume_without_journal(self, driver, tmp_path):
        build, _, run_command = driver
        with pytest.raises(CampaignError, match="no journal") as info:
            build(_manifest(), tmp_path).resume()
        assert f"use {run_command} to start" in str(info.value)


class TestFinishedResume:
    def test_returns_on_disk_aggregate_and_rewrites_manifest(
        self, driver, finished, tmp_path
    ):
        build, _, _ = driver
        source, reference = finished
        target = tmp_path / "copy"
        shutil.copytree(source, target)
        (target / MANIFEST_FILE).unlink()
        records_before, _ = read_journal(target / JOURNAL_FILE)
        aggregate_before = (target / AGGREGATE_FILE).read_bytes()

        report = build(_manifest(), target).resume()

        assert report.status == "completed"
        assert report.chunks_run == 0
        assert report.completed_chunks == reference.completed_chunks
        assert report.results_digest == reference.results_digest
        assert report.aggregate == reference.aggregate
        assert CampaignManifest.load(target / MANIFEST_FILE).fingerprint == (
            _manifest().fingerprint
        )
        # Nothing ran: no record appended, aggregate untouched.
        records_after, _ = read_journal(target / JOURNAL_FILE)
        assert records_after == records_before
        assert (target / AGGREGATE_FILE).read_bytes() == aggregate_before
