"""Which program functions the traced run wraps, and the per-layer metrics.

Each ``install_*`` function wraps the public entry points of a group
of layers (module names under ``src/repro``) on a
:class:`~spans.SpanRecorder`.  :func:`layer_metrics` folds the
recorder's summary and counters into every per-layer metric that
``BENCHMARK.json`` lists.  Metrics whose unit is ``count`` are exact
counts or ratios of exact counts: for a fixed seed they repeat exactly
from run to run, and the traced run checks that they do.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from spans import SpanRecorder

__all__ = [
    "Metrics",
    "install_episode_layers",
    "install_training_layers",
    "install_campaign_layers",
    "install_serve_layers",
    "PER_LAYER",
    "SERVE_CLIENT",
    "layer_metrics",
]

#: name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]

_ESTIMATOR_SPANS = (
    "filtering.info_filter.sensor",
    "filtering.info_filter.message",
    "filtering.info_filter.estimate",
    "filtering.raw.sensor",
    "filtering.raw.message",
    "filtering.raw.estimate",
)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _start_episode(rec: SpanRecorder, args: tuple) -> None:
    rec.next_trace("sim.episodes")


def _end_episode(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("sim.steps", result.steps)


def _count_fallback(rec: SpanRecorder, args: tuple) -> None:
    info = args[0]
    if not info.replay_filter.is_initialized or info.watchdog.diverged:
        rec.count("filtering.watchdog.fallbacks")


def _count_replay(rec: SpanRecorder, args: tuple, result) -> None:
    if result is not None:
        rec.count("filtering.replay.count")
        rec.count("filtering.replay.depth", args[0].last_replay_depth)


def _count_emergency(rec: SpanRecorder, args: tuple, result) -> None:
    decision = args[0].last_decision
    if decision is not None and decision.use_emergency:
        rec.count("core.emergency")


def _count_sent(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("comm.sent")


def _count_delivered(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("comm.delivered", len(result))


def _install_decision_layers(rec: SpanRecorder) -> None:
    """core + reachability: shared by the episode and serve workloads."""
    from repro.core.compound import CompoundPlanner
    from repro.core.monitor import RuntimeMonitor
    from repro.filtering.reachability import ReachabilityAnalyzer

    rec.wrap(CompoundPlanner, "plan", "core.compound.plan", after=_count_emergency)
    rec.wrap(RuntimeMonitor, "evaluate", "core.monitor.evaluate")
    for attr in ("band_from_state", "band_from_intervals"):
        rec.wrap(ReachabilityAnalyzer, attr, "filtering.reachability")


def install_episode_layers(rec: SpanRecorder) -> None:
    """sim, filtering, core, planners, nn, comm, sensing, dynamics, utils."""
    from repro.comm.channel import Channel
    from repro.dynamics.vehicle import VehicleModel
    from repro.filtering.info_filter import InformationFilter, RawEstimator
    from repro.filtering.kalman import KalmanFilter
    from repro.filtering.replay import ReplayKalmanFilter
    from repro.nn.layers import Sequential
    from repro.planners.constant import FullThrottlePlanner
    from repro.planners.nn_planner import NNPlanner
    from repro.scenarios.left_turn.emergency import LeftTurnEmergencyPlanner
    from repro.sensing.sensor import Sensor
    from repro.sim.engine import SimulationEngine
    from repro.utils.rng import RngStream

    rec.wrap(
        SimulationEngine, "run", "sim.engine.run",
        before=_start_episode, after=_end_episode,
    )
    rec.wrap(InformationFilter, "on_sensor_reading", "filtering.info_filter.sensor")
    rec.wrap(InformationFilter, "on_message", "filtering.info_filter.message")
    rec.wrap(
        InformationFilter, "estimate", "filtering.info_filter.estimate",
        before=_count_fallback,
    )
    rec.wrap(RawEstimator, "on_sensor_reading", "filtering.raw.sensor")
    rec.wrap(RawEstimator, "on_message", "filtering.raw.message")
    rec.wrap(RawEstimator, "estimate", "filtering.raw.estimate")
    for attr in ("initial_state", "predict", "update", "extrapolate", "exact_state"):
        rec.wrap(KalmanFilter, attr, "filtering.kalman")
    rec.wrap(
        ReplayKalmanFilter, "on_message", "filtering.replay.message",
        after=_count_replay,
    )
    _install_decision_layers(rec)
    rec.wrap(NNPlanner, "plan", "planners.nn.plan")
    rec.wrap(Sequential, "forward", "nn.forward")
    rec.wrap(LeftTurnEmergencyPlanner, "plan", "planners.emergency.plan")
    rec.wrap(FullThrottlePlanner, "plan", "planners.full_throttle.plan")
    rec.wrap(Channel, "send", "comm.channel.send", after=_count_sent)
    rec.wrap(Channel, "receive", "comm.channel.receive", after=_count_delivered)
    rec.wrap(Sensor, "measure", "sensing.measure")
    rec.wrap(VehicleModel, "step", "dynamics.step")
    rec.count_calls(RngStream, "__init__", "utils.rng.streams")


def install_training_layers(rec: SpanRecorder) -> None:
    """planners + nn training, called from the paper-tables set-up."""
    import repro.experiments.harness as harness
    import repro.planners.factory as factory
    from repro.nn.training import Trainer

    rec.wrap(harness, "train_left_turn_planner", "planners.train")
    rec.wrap(factory, "generate_demonstrations", "planners.demos")
    rec.wrap(Trainer, "fit", "nn.fit")


def _count_retry(rec: SpanRecorder, args: tuple) -> None:
    if len(args) > 1 and args[1] == "chunk_retry":
        rec.count("campaign.retries")


def install_campaign_layers(rec: SpanRecorder) -> None:
    """campaign: chunk loop, journal, snapshots, finalisation."""
    import repro.campaign.runner as runner
    from repro.campaign.journal import JournalWriter
    from repro.sim.parallel import ParallelBatchRunner

    rec.wrap(runner.CampaignRunner, "run", "campaign.run")
    rec.wrap(ParallelBatchRunner, "run_indices_detailed", "campaign.chunk")
    rec.wrap(JournalWriter, "append", "campaign.journal.append", before=_count_retry)
    rec.wrap(runner, "persist_chunk_snapshot", "campaign.snapshot.persist")
    rec.wrap(runner, "finalise_campaign", "campaign.finalise")


def install_serve_layers(rec: SpanRecorder) -> None:
    """serve (session, ladder) plus the core/planners/filtering it calls.

    Loop-thread spans take the request id as trace id from the parsed
    request; the worker thread running ``full_attempt`` looks it up by
    the identity of the planning context the session built.
    """
    import repro.serve.server as server
    from repro.planners.idm import IDMPlanner
    from repro.serve.ladder import LadderPolicy
    from repro.serve.session import DecisionSession

    context_trace: Dict[int, int] = {}

    def tag_request(rec: SpanRecorder, args: tuple) -> None:
        request_id = args[0].get("id")
        rec.set_trace(request_id if isinstance(request_id, int) else -1)

    def remember_context(rec: SpanRecorder, args: tuple, result) -> None:
        if result is not None:
            context_trace[id(result)] = rec.current_trace()

    def adopt_context(rec: SpanRecorder, args: tuple) -> None:
        rec.set_trace(context_trace.pop(id(args[1]), -1))

    rec.wrap(server, "parse_observation", "serve.parse", before=tag_request)
    rec.wrap(DecisionSession, "ingest", "serve.session.ingest")
    rec.wrap(
        DecisionSession, "context_for", "serve.session.context",
        after=remember_context,
    )
    rec.wrap(
        LadderPolicy, "full_attempt", "serve.ladder.full_attempt",
        before=adopt_context,
    )
    rec.wrap(LadderPolicy, "verify", "serve.ladder.verify")
    _install_decision_layers(rec)
    rec.wrap(IDMPlanner, "plan", "planners.idm.plan")


# ----------------------------------------------------------------------
# Folding spans into metrics
# ----------------------------------------------------------------------
#: Every per-layer metric, as ``BENCHMARK.json`` lists them.  Every
#: workload reports all of them: a layer the workload never calls reads
#: 0 as a share or a count.  Times per call are kept only for the layers
#: every workload calls (``core``, reachability, the planners).
PER_LAYER: Dict[str, str] = {
    "core.monitor.evaluate_us": "us",
    "core.compound.self_us": "us",
    "filtering.reachability.us_per_call": "us",
    "planners.us_per_step": "us",
    "sim.engine.self_share": "ratio",
    "filtering.share": "ratio",
    "filtering.info_filter.share": "ratio",
    "filtering.raw.share": "ratio",
    "filtering.kalman.share": "ratio",
    "core.monitor.share": "ratio",
    "planners.nn.share": "ratio",
    "nn.forward.share": "ratio",
    "comm.channel.share": "ratio",
    "sensing.share": "ratio",
    "dynamics.share": "ratio",
    "campaign.overhead_share": "ratio",
    "campaign.journal.share": "ratio",
    "campaign.snapshot.share": "ratio",
    "serve.session.share": "ratio",
    "serve.ladder.full_attempt_share": "ratio",
    "serve.ladder.verify_share": "ratio",
    "serve.queue_wait_share": "ratio",
    "planners.train.setup_share": "ratio",
    "nn.fit.setup_share": "ratio",
    "trace.overhead_share": "ratio",
    "sim.steps_per_episode": "count",
    "filtering.info_filter.calls_per_step": "count",
    "filtering.kalman.calls_per_step": "count",
    "filtering.reachability.calls_per_step": "count",
    "filtering.replay.count_per_step": "count",
    "filtering.replay.depth_mean": "count",
    "filtering.watchdog.fallback_share": "count",
    "nn.forward_calls_per_step": "count",
    "dynamics.calls_per_step": "count",
    "comm.delivered_share": "count",
    "utils.rng.streams_per_step": "count",
    "core.emergency_share": "count",
    "campaign.journal.records": "count",
    "campaign.retries": "count",
    "serve.ladder1_share": "count",
    "serve.shed": "count",
    "serve.deadline_misses": "count",
}

#: Client-side serve tallies; workloads without a server read 0.
SERVE_CLIENT = (
    "serve.queue_wait_share",
    "serve.ladder1_share",
    "serve.shed",
    "serve.deadline_misses",
)

_PLANNER_SPANS = (
    "planners.nn.plan",
    "planners.emergency.plan",
    "planners.full_throttle.plan",
    "planners.idm.plan",
)


class _View:
    def __init__(self, summary: Dict[str, Dict[str, float]], counts: Dict[str, float]):
        self.summary = summary
        self.counts = counts

    def calls(self, *names: str) -> int:
        return int(sum(self.summary.get(n, {}).get("calls", 0) for n in names))

    def busy_s(self, *names: str) -> float:
        return sum(self.summary.get(n, {}).get("busy_ns", 0) for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.summary.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def us_per_call(self, name: str) -> float:
        """Mean busy time of ``name``; a span every workload must record."""
        entry = self.summary[name]
        return entry["busy_ns"] / entry["calls"] / 1e3

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when the layer recorded nothing to divide."""
    return part / whole if whole else 0.0


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    *,
    work_s: float,
    steps: int,
    setup_summary: Optional[Dict[str, Dict[str, float]]] = None,
    setup_s: float = 0.0,
    client: Optional[Metrics] = None,
) -> Metrics:
    """Every per-layer metric of one traced stretch of work.

    ``work_s`` is the busy time shares are taken of: the traced pass's
    wall time for the episode workloads, the server's summed handling
    time for serve.  ``steps`` counts planned control steps (serve: one
    decision request is one vehicle's control step).  ``setup_summary``
    and ``setup_s`` describe a traced set-up; ``client`` holds the serve
    tallies of :data:`SERVE_CLIENT`.
    """
    view = _View(summary, counts)
    setup = _View(setup_summary or {}, {})
    engine_s = view.busy_s("sim.engine.run")
    values: Dict[str, float] = {
        "core.monitor.evaluate_us": view.us_per_call("core.monitor.evaluate"),
        "core.compound.self_us": (
            view.self_s("core.compound.plan") / view.calls("core.compound.plan") * 1e6
        ),
        "filtering.reachability.us_per_call": view.us_per_call("filtering.reachability"),
        "planners.us_per_step": view.busy_s(*_PLANNER_SPANS) / steps * 1e6,
        "sim.engine.self_share": view.self_s("sim.engine.run") / work_s,
        "filtering.share": view.busy_s(*_ESTIMATOR_SPANS) / work_s,
        "filtering.info_filter.share": view.busy_s(*_ESTIMATOR_SPANS[:3]) / work_s,
        "filtering.raw.share": view.busy_s(*_ESTIMATOR_SPANS[3:]) / work_s,
        "filtering.kalman.share": view.busy_s("filtering.kalman") / work_s,
        "core.monitor.share": view.busy_s("core.monitor.evaluate") / work_s,
        "planners.nn.share": view.busy_s("planners.nn.plan") / work_s,
        "nn.forward.share": view.busy_s("nn.forward") / work_s,
        "comm.channel.share": (
            view.busy_s("comm.channel.send", "comm.channel.receive") / work_s
        ),
        "sensing.share": view.busy_s("sensing.measure") / work_s,
        "dynamics.share": view.busy_s("dynamics.step") / work_s,
        "campaign.overhead_share": (
            max(view.busy_s("campaign.run") - engine_s, 0.0) / work_s
            if view.calls("campaign.run") else 0.0
        ),
        "campaign.journal.share": view.busy_s("campaign.journal.append") / work_s,
        "campaign.snapshot.share": view.busy_s("campaign.snapshot.persist") / work_s,
        "serve.session.share": (
            view.busy_s("serve.session.ingest", "serve.session.context") / work_s
        ),
        "serve.ladder.full_attempt_share": (
            view.busy_s("serve.ladder.full_attempt") / work_s
        ),
        "serve.ladder.verify_share": view.busy_s("serve.ladder.verify") / work_s,
        "planners.train.setup_share": _ratio(setup.busy_s("planners.train"), setup_s),
        "nn.fit.setup_share": _ratio(setup.busy_s("nn.fit"), setup_s),
        "sim.steps_per_episode": _ratio(view.count("sim.steps"), view.count("sim.episodes")),
        "filtering.info_filter.calls_per_step": (
            view.calls(*(f"filtering.info_filter.{p}" for p in ("sensor", "message", "estimate")))
            / steps
        ),
        "filtering.kalman.calls_per_step": view.calls("filtering.kalman") / steps,
        "filtering.reachability.calls_per_step": view.calls("filtering.reachability") / steps,
        "filtering.replay.count_per_step": view.count("filtering.replay.count") / steps,
        "filtering.replay.depth_mean": _ratio(
            view.count("filtering.replay.depth"), view.count("filtering.replay.count")
        ),
        "filtering.watchdog.fallback_share": _ratio(
            view.count("filtering.watchdog.fallbacks"),
            view.calls("filtering.info_filter.estimate"),
        ),
        "nn.forward_calls_per_step": view.calls("nn.forward") / steps,
        "dynamics.calls_per_step": view.calls("dynamics.step") / steps,
        "comm.delivered_share": _ratio(view.count("comm.delivered"), view.count("comm.sent")),
        "utils.rng.streams_per_step": view.count("utils.rng.streams") / steps,
        "core.emergency_share": (
            view.count("core.emergency") / view.calls("core.compound.plan")
        ),
        "campaign.journal.records": view.calls("campaign.journal.append"),
        "campaign.retries": view.count("campaign.retries"),
    }
    values.update({name: 0.0 for name in SERVE_CLIENT})
    out: Metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()
                    if name in values}
    out.update(client or {})
    return out
