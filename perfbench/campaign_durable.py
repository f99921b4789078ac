"""Workload ``campaign-durable``: a journaled, chunked left-turn campaign.

Why: this is the durable path that the paper's tables are to be routed
through.  It uses the same engine layers differently from
``paper-tables`` — composed channel fault stages instead of presets,
no NN and no information filter — and adds per-chunk durability work
(journal appends, atomic snapshots, the seed streams each chunk
re-derives), which small chunks make visible.

An in-process :class:`~repro.campaign.CampaignRunner` (one worker)
runs the manifest in a fresh directory on every pass;
:func:`~repro.campaign.verify_campaign` checks each directory outside
the timed region.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from common import WORK_DIR, Cell, Pass, digest, quietest_cpu
from repro.campaign import CampaignManifest, CampaignRunner, verify_campaign

import layers

#: Simulations per pass and per durable chunk.  Small chunks keep the
#: per-chunk work a visible share of the wall time; a short pass is
#: repeated often enough in a run for the fastest repetition of each
#: chunk to be steady (see RESULTS.md).
N_SIMS = 50
CHUNK_SIZE = 5

#: Gilbert-Elliott burst loss composed with jitter wider than dt_m
#: (0.1 s), so messages also arrive out of order.
FAULTS = [
    {"kind": "gilbert_elliott_loss", "p_enter_burst": 0.05, "p_exit_burst": 0.3},
    {"kind": "uniform_jitter", "low": 0.0, "high": 0.25},
]

def manifest(seed: int) -> CampaignManifest:
    return CampaignManifest(
        name="perfbench-campaign",
        scenario={"kind": "left_turn"},
        comm={"dt_m": 0.1, "dt_s": 0.1, "sensor_noise": 1.0, "faults": FAULTS},
        planner={"kind": "compound", "embedded": {"kind": "full_throttle"}},
        estimator="raw",
        config={"max_time": 30.0},
        n_sims=N_SIMS,
        seed=seed,
        chunk_size=CHUNK_SIZE,
    )


def setup():
    """Scratch directory plus one tiny campaign to warm the imports."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix="campaign-", dir=WORK_DIR)
    warm = CampaignManifest.from_dict(dict(manifest(0).to_dict(), n_sims=2, chunk_size=1))
    CampaignRunner(warm, f"{root}/warm", n_workers=1).run()
    return {"root": root, "passes": 0}


def teardown(state) -> None:
    shutil.rmtree(state["root"], ignore_errors=True)


def _chunk_records(directory: str):
    """Per-chunk outcome records and failures from the chunk snapshots."""
    chunks = {}
    failures = []
    for path in sorted(Path(directory).glob("chunks/chunk-*.json")):
        snapshot = json.loads(path.read_text())
        failures.extend(snapshot["failures"])
        chunks[int(snapshot["chunk"])] = sorted(
            (int(index), result["outcome"], result["steps"],
             result["emergency_steps"], result["reaching_time"])
            for index, result in snapshot["results"].items()
        )
    return chunks, failures


def _chunk_walls(directory: str):
    """Wall time of each chunk, as the journal records it."""
    walls = {}
    with open(f"{directory}/journal.jsonl") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "chunk_completed":
                walls[record["chunk"]] = record["elapsed"]
    return walls


def run_pass(state, seed: int) -> Pass:
    """One full campaign in a fresh directory; verified afterwards.

    Its timed cells are the chunks, at the wall time the journal
    records for each, plus the rest of the campaign's wall (snapshots,
    journal, finalisation), so the fastest repetition of every chunk
    can be taken across passes.
    """
    state["passes"] += 1
    directory = f"{state['root']}/pass-{state['passes']}"
    quietest_cpu()
    started = time.perf_counter()
    report = CampaignRunner(manifest(seed), directory, n_workers=1).run()
    wall = time.perf_counter() - started

    notes = []
    failed = 0
    verdict = verify_campaign(directory)
    if not verdict["ok"]:
        failed += 1
        notes.extend(f"verify: {problem}" for problem in verdict["problems"])
    if report.status != "completed":
        failed += 1
        notes.append(f"campaign status {report.status}")
    chunks, failures = _chunk_records(directory)
    walls = _chunk_walls(directory)
    records = [record for chunk in sorted(chunks) for record in chunks[chunk]]
    failed += len(failures)
    notes.extend(f"episode {f.get('index')}: {f.get('error_type')}" for f in failures)
    for index, outcome, *_ in records:
        if outcome == "collision":
            failed += 1
            notes.append(f"episode {index}: collision under the shield")
    shutil.rmtree(directory, ignore_errors=True)
    cells = {
        ("chunk", chunk): Cell(
            "chunk", len(chunks[chunk]), sum(r[2] for r in chunks[chunk]), walls[chunk]
        )
        for chunk in sorted(chunks)
    }
    cells[("rest",)] = Cell("rest", 0, 0, max(wall - sum(walls.values()), 0.0))
    return Pass(cells, digest(records), N_SIMS, failed, notes)


def metrics_from(cells) -> dict:
    """Throughput figures of the timed campaign (``step_us`` is end-to-end)."""
    wall = sum(c.wall_s for c in cells.values())
    return {
        "episodes_per_s": sum(c.episodes for c in cells.values()) / wall,
        "step_us": wall / sum(c.steps for c in cells.values()) * 1e6,
    }


def install(rec) -> None:
    layers.install_episode_layers(rec)
    layers.install_campaign_layers(rec)
