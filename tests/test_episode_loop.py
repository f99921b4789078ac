"""The batch layer's one episode loop and its seed streams.

Every executor runs simulation ``k`` of a batch on child ``k`` of the
batch seed, built directly as ``SeedSequence(seed, spawn_key=(k,))``.
These tests pin that the direct child is the spawned one draw for draw,
that a chunk builds only its own streams whatever the batch size, and
that the sequential runner keeps its raise/record contracts on top of
the loop.
"""

from __future__ import annotations

import pytest

import repro.sim.runner as runner_module
from repro.comm.disturbance import messages_delayed
from repro.planners.constant import ConstantPlanner
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
from repro.sim.parallel import ParallelBatchRunner, run_chunk
from repro.sim.runner import (
    BatchRunner,
    EstimatorKind,
    episode_stream,
    make_estimator_factory,
)
from repro.utils.rng import RngStream, spawn_streams


def _comm():
    return CommSetup(
        dt_m=0.1,
        dt_s=0.1,
        disturbance=messages_delayed(0.25, 0.3),
        sensor_bounds=NoiseBounds.uniform_all(1.0),
    )


def _config():
    return SimulationConfig(max_time=8.0, record_trajectories=False)


def _key(result):
    return (result.outcome, result.reaching_time, result.steps)


class _Boom(RuntimeError):
    """The episode failure the raising planner injects."""


class _RaisingPlanner:
    """Raises on its first planning call of every episode."""

    def __init__(self):
        self.episodes = 0

    def reset(self):
        self.episodes += 1

    def plan(self, context):
        raise _Boom("planner blew up")


class TestEpisodeStream:
    @pytest.mark.parametrize("seed", [0, 1, 2023])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_direct_child_draws_like_spawned_child(self, seed, n):
        spawned = RngStream(seed).spawn(n)
        for k in range(n):
            direct = episode_stream(seed, k)
            assert list(direct.random(size=4)) == list(spawned[k].random(size=4))
            # The engine splits each episode stream into substreams.
            for a, b in zip(direct.spawn(3), spawned[k].spawn(3)):
                assert list(a.normal(size=3)) == list(b.normal(size=3))

    def test_children_differ(self):
        assert float(episode_stream(5, 0).random()) != float(
            episode_stream(5, 1).random()
        )


class _StreamCounter:
    """Counts episode streams and every RngStream construction."""

    def __init__(self, monkeypatch):
        self.episode_streams = 0
        self.rng_streams = 0
        real_stream = runner_module.episode_stream
        real_init = RngStream.__init__

        def counting_stream(seed, index):
            self.episode_streams += 1
            return real_stream(seed, index)

        def counting_init(stream, seed=None):
            self.rng_streams += 1
            real_init(stream, seed)

        monkeypatch.setattr(runner_module, "episode_stream", counting_stream)
        monkeypatch.setattr(RngStream, "__init__", counting_init)

    def reset(self):
        self.episode_streams = self.rng_streams = 0


class TestChunkStreams:
    INDICES = [0, 1, 2, 3, 4]

    def test_chunk_of_huge_batch_builds_only_its_streams(
        self, scenario, monkeypatch
    ):
        counter = _StreamCounter(monkeypatch)
        args = (scenario, _comm(), _config(), ConstantPlanner(2.0),
                EstimatorKind.RAW, 11, self.INDICES)
        small = run_chunk(*args, len(self.INDICES))
        small_streams = counter.rng_streams
        assert counter.episode_streams == 5
        counter.reset()
        huge = run_chunk(*args, 10_000)
        assert counter.episode_streams == 5
        # Everything else the episodes draw is per episode, so the
        # total cannot depend on the batch size either.
        assert counter.rng_streams == small_streams
        assert [(i, tag, _key(r)) for i, tag, r in huge] == [
            (i, tag, _key(r)) for i, tag, r in small
        ]

    def test_in_process_chunk_path_builds_only_its_streams(
        self, scenario, monkeypatch
    ):
        counter = _StreamCounter(monkeypatch)
        runner = ParallelBatchRunner(
            scenario, _comm(), _config(),
            estimator_kind=EstimatorKind.RAW, n_workers=1,
        )
        chunk = runner.run_indices_detailed(
            ConstantPlanner(2.0), [9_995, 9_996, 9_997, 9_998, 9_999], 10_000,
            seed=3,
        )
        assert counter.episode_streams == 5
        assert sorted(chunk.results) == [9_995, 9_996, 9_997, 9_998, 9_999]


class TestBatchRunnerContracts:
    def test_results_match_spawned_streams(self, scenario):
        engine = SimulationEngine(scenario, _comm(), _config())
        factory = make_estimator_factory(EstimatorKind.RAW, engine)
        planner = ConstantPlanner(2.0)
        reference = [
            _key(engine.run(planner, factory, stream))
            for stream in spawn_streams(2023, 3)
        ]
        runner = BatchRunner(engine, EstimatorKind.RAW)
        assert [_key(r) for r in runner.run_batch(planner, 3, seed=2023)] == (
            reference
        )
        assert _key(runner.run_one(planner, seed=2023)) == reference[0]
        detailed = runner.run_batch_detailed(planner, 3, seed=2023)
        assert [_key(r) for r in detailed.results] == reference
        assert detailed.failures == []

    def test_run_batch_raises_the_episode_error_and_stops(self, scenario):
        runner = BatchRunner(
            SimulationEngine(scenario, _comm(), _config()), EstimatorKind.RAW
        )
        planner = _RaisingPlanner()
        progress = []
        with pytest.raises(_Boom, match="planner blew up"):
            runner.run_batch(
                planner, 4, seed=0, progress=lambda d, t: progress.append(d)
            )
        assert planner.episodes == 1
        assert progress == []

    def test_run_batch_detailed_records_every_failure(self, scenario):
        runner = BatchRunner(
            SimulationEngine(scenario, _comm(), _config()), EstimatorKind.RAW
        )
        batch = runner.run_batch_detailed(_RaisingPlanner(), 3, seed=0)
        assert batch.results == [None, None, None]
        assert [(f.index, f.stage, f.error_type, f.attempts)
                for f in batch.failures] == [
            (k, "simulation", "_Boom", 1) for k in range(3)
        ]
