"""Workload ``serve-open-loop``: scheduled decision load on ``repro-serve``.

Why: the decision server is the only latency-bound consumer of
``core``, ``planners`` and ``dynamics`` — one decision at a time, inside
the control period — so a change that speeds up batch episodes but
costs per-request latency shows here.

A ``repro-serve`` process (unix socket, IDM car-following shield)
receives load from this process over two connections.  Requests are
sent **open loop**: request ``k`` is due at ``k / rate`` seconds after
the phase starts, whether or not earlier replies have arrived, and its
latency is timed from that due time.  The reference rate is 1000
decisions/s (50 vehicles at 20 Hz); a sweep over higher fixed rates
finds the highest one that keeps p99 within :data:`LIMIT_MS`.

The observations come from seeded car-following episodes simulated
here (see :func:`observation_stream`), so the leader brakes and the
shield engages on part of the stream.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from common import SETUP_REPEATS, WORK_DIR, digest
from layers import layer_metrics

N_VEHICLES = 50
REFERENCE_HZ = 1000.0
#: p99 latency limit: a tenth of the 50 ms control period.
LIMIT_MS = 5.0
#: Latency charged to a request that is missing, shed or degraded.
MISS_MS = 1000.0
#: Requests per measurement window: p99 then has ten samples beyond it.
WINDOW_N = 1000
#: Offered rates above the reference: a geometric grid (15 % steps),
#: one window each.  The host's speed drifts by tens of percent, so a
#: coarse grid would make the highest passing rate jump between runs.
SWEEP_HZ = tuple(REFERENCE_HZ * 1.15 ** i for i in range(1, 15))
#: Reference windows of the traced run's untraced tail measurement, and
#: windows per traced pass.
TAIL_WINDOWS = 3
TRACED_WINDOWS = 2
#: Exact dyadic times keep ``now - stamp`` bit-identical in every
#: repetition, so replies (and their digest) repeat exactly.
TICK = 1.0 / 1024.0
REPORT_AGE = 1.0 / 16.0
PHASE_SPAN = 65536.0
#: Request ids are ``phase * ID_SPAN + k``, so a late reply is never
#: taken for a reply of a later phase.
ID_SPAN = 1_000_000



# ----------------------------------------------------------------------
# Seeded observation stream
# ----------------------------------------------------------------------
def observation_stream(seed: int) -> List[tuple]:
    """``(ego_p, ego_v, leader_p, leader_v, leader_a)`` per request.

    Simulates :data:`N_VEHICLES` car-following episodes and interleaves
    their control steps round robin, as 50 vehicles reporting at 20 Hz
    would.  The simulated ego is a shielded gap chaser: it keeps close
    behind a leader whose random walk brakes, so many observations sit
    near the safety boundary and the server's shield engages on them.
    """
    from repro.core.compound import CompoundPlanner
    from repro.core.monitor import RuntimeMonitor
    from repro.planners.idm import GapChaserPlanner
    from repro.scenarios.car_following import CarFollowingScenario
    from repro.sim.engine import CommSetup, SimulationConfig, SimulationEngine
    from repro.sim.runner import EstimatorKind, make_estimator_factory
    from repro.utils.rng import spawn_streams

    scenario = CarFollowingScenario()
    engine = SimulationEngine(scenario, CommSetup.perfect(0.1), SimulationConfig(max_time=30.0))
    planner = CompoundPlanner(
        nn_planner=GapChaserPlanner(scenario.ego_limits, leader_index=1),
        emergency_planner=scenario.emergency_planner(),
        monitor=RuntimeMonitor(scenario.safety_model()),
        limits=scenario.ego_limits,
    )
    factory = make_estimator_factory(EstimatorKind.RAW, engine)
    episodes = []
    for stream in spawn_streams(seed, N_VEHICLES):
        result = engine.run(planner, factory, stream)
        ego, leader = result.trajectories[0], result.trajectories[1]
        episodes.append(
            [(e.position, e.velocity, l.position, l.velocity, l.acceleration)
             for e, l in zip(ego, leader)]
        )
    longest = max(len(e) for e in episodes)
    stream = []
    for step in range(longest):
        for episode in episodes:
            stream.append(episode[step % len(episode)])
    return stream


def request_lines(stream: List[tuple], n: int, phase: int) -> List[bytes]:
    """The first ``n`` observations as decide requests of one phase."""
    lines = []
    base = phase * PHASE_SPAN
    for k in range(n):
        ego_p, ego_v, lead_p, lead_v, lead_a = stream[k % len(stream)]
        now = base + 1.0 + k * TICK
        lines.append(
            json.dumps(
                {
                    "op": "decide",
                    "id": phase * ID_SPAN + k,
                    "time": now,
                    "ego": {"position": ego_p, "velocity": ego_v},
                    "messages": [
                        {"vehicle": 1, "stamp": now - REPORT_AGE, "position": lead_p,
                         "velocity": lead_v, "acceleration": lead_a}
                    ],
                }
            ).encode() + b"\n"
        )
    return lines


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro-serve`` process started through the launcher."""

    def __init__(self, name: str, traced: bool) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.path = str(WORK_DIR / f"{name}-{os.getpid()}.sock")
        self.report = WORK_DIR / f"{name}-{os.getpid()}.json"
        for stale in (Path(self.path), self.report):
            if stale.exists():
                stale.unlink()
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        command = [sys.executable, str(launcher), "--report", str(self.report)]
        if traced:
            command.append("--trace")
        command += ["--", "--unix-socket", self.path, "--quiet"]
        started = time.perf_counter()
        self.process = subprocess.Popen(command)
        self.conns: List[socket.socket] = []
        self.readers = {}
        try:
            self._connect(started + 60.0)
            self.request(self.conns[0], {"op": "ping"})
            self.startup_s = time.perf_counter() - started
            self._connect(started + 60.0)
        except BaseException:
            self._close()
            self.process.kill()
            self.process.wait()
            raise

    def _connect(self, deadline: float) -> None:
        """Open one more load connection, waiting for the socket to appear."""
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(self.path)
            except OSError:
                conn.close()
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
                continue
            self.conns.append(conn)
            self.readers[conn.fileno()] = b""
            return

    def _close(self) -> None:
        for conn in self.conns:
            conn.close()

    def request(self, conn: socket.socket, payload: dict) -> dict:
        """A blocking probe on a load connection (between phases only)."""
        conn.sendall(json.dumps(payload).encode() + b"\n")
        buffer = self.readers.get(conn.fileno(), b"")
        while b"\n" not in buffer:
            chunk = conn.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection")
            buffer += chunk
        line, _, rest = buffer.partition(b"\n")
        self.readers[conn.fileno()] = rest
        return json.loads(line)

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the launcher's report."""
        self._close()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        report = json.loads(self.report.read_text())
        self.report.unlink()
        return report


# ----------------------------------------------------------------------
# Open-loop phases
# ----------------------------------------------------------------------
class Phase:
    """Per-request schedule, send and receive times, and replies."""

    def __init__(self, rate: float, n: int) -> None:
        self.rate = rate
        self.n = n
        self.scheduled = [0.0] * n
        self.sent = [0.0] * n
        self.received = [math.nan] * n
        self.replies: List[dict] = [None] * n  # type: ignore[list-item]

    def ok(self, k: int) -> bool:
        reply = self.replies[k]
        return (
            reply is not None
            and reply.get("event") == "decision"
            and reply.get("status") == "ok"
            and reply.get("ladder") == 1
            and reply.get("safe") is True
            and reply.get("verify_replaced") is False
        )

    def latencies_ms(self) -> List[float]:
        return sorted(
            (self.received[k] - self.scheduled[k]) * 1e3 if self.ok(k) else MISS_MS
            for k in range(self.n)
        )

    def quantile_ms(self, q: float) -> float:
        values = self.latencies_ms()
        return values[max(0, math.ceil(q * len(values)) - 1)]

    def bad(self) -> int:
        return sum(not self.ok(k) for k in range(self.n))

    def lag_ms(self) -> List[float]:
        return sorted((s - d) * 1e3 for s, d in zip(self.sent, self.scheduled))

    def achieved_hz(self) -> float:
        return (self.n - 1) / (self.sent[-1] - self.sent[0])

    def digest(self) -> str:
        return digest(
            (k, r.get("ladder"), r.get("status"), r.get("cause"), r.get("action"),
             r.get("monitor_engaged"))
            if r is not None else (k, None)
            for k, r in enumerate(self.replies)
        )

    def backlog(self) -> bool:
        """The generator ran persistently late over the last quarter."""
        late = [(s - d) * 1e3 for s, d in zip(self.sent, self.scheduled)]
        return statistics.median(late[-(self.n // 4):]) > LIMIT_MS


def run_phase(server: Server, lines: List[bytes], rate: float) -> Phase:
    """Send ``lines`` on schedule, alternating connections; collect replies."""
    n = len(lines)
    phase = Phase(rate, n)
    # A collector pause in the generator would be charged to the server.
    gc.collect()
    gc.disable()
    try:
        _drive(server, lines, rate, phase)
    finally:
        gc.enable()
    return phase


def _drive(server: Server, lines: List[bytes], rate: float, phase: Phase) -> None:
    n = len(lines)
    first_id = json.loads(lines[0])["id"]
    conns = server.conns
    buffers = {conn.fileno(): server.readers[conn.fileno()] for conn in conns}
    start = time.perf_counter() + 0.005
    for k in range(n):
        phase.scheduled[k] = start + k / rate
    k = 0
    received = 0
    give_up = phase.scheduled[-1] + 2.0
    while received < n:
        now = time.perf_counter()
        while k < n and phase.scheduled[k] <= now:
            conns[k % 2].sendall(lines[k])
            phase.sent[k] = now = time.perf_counter()
            k += 1
        if k < n:
            timeout = max(phase.scheduled[k] - time.perf_counter(), 0.0)
        else:
            timeout = give_up - now
            if timeout <= 0:
                break
        ready, _, _ = select.select(conns, [], [], timeout)
        for conn in ready:
            chunk = conn.recv(1 << 16)
            stamp = time.perf_counter()
            if not chunk:
                raise RuntimeError("server closed a load connection")
            *complete, rest = (buffers[conn.fileno()] + chunk).split(b"\n")
            buffers[conn.fileno()] = rest
            for line in complete:
                reply = json.loads(line)
                index = reply.get("id")
                index = index - first_id if isinstance(index, int) else -1
                if 0 <= index < n:
                    phase.received[index] = stamp
                    phase.replies[index] = reply
                    received += 1
    server.readers.update(buffers)


def accounting(server: Server, expected_offered: int):
    """``(problems, stats)``: ``offered == served + degraded + shed`` etc."""
    stats = server.request(server.conns[0], {"op": "stats"})
    problems = []
    if stats["offered"] != stats["served"] + stats["degraded"] + stats["shed"]:
        problems.append(f"offered != served + degraded + shed: {stats}")
    if stats["offered"] != expected_offered:
        problems.append(f"server offered {stats['offered']} != sent {expected_offered}")
    if stats["verify_replaced"]:
        problems.append(f"verify_replaced {stats['verify_replaced']}")
    return problems, stats


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _setups(traced: bool):
    """Three launches until the first ping answers; keep the last."""
    durations = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server("serve", traced)
        durations.append(server.startup_s)
    return server, statistics.median(durations)


def _meets_limit(window: Phase) -> bool:
    """p99 within the limit, every reply ok, no growing backlog."""
    return window.bad() == 0 and not window.backlog() and window.quantile_ms(0.99) <= LIMIT_MS


def _reference(server: Server, stream, n_windows: int, first_phase: int = 0) -> List[Phase]:
    """Reference-rate windows; phase numbers keep request times increasing."""
    return [
        run_phase(server, request_lines(stream, WINDOW_N, first_phase + w), REFERENCE_HZ)
        for w in range(n_windows)
    ]


def _sweep(server: Server, stream, first_phase: int, reference: List[Phase]):
    """Climb the rate grid until two windows in a row miss the limit.

    Returns ``(max_rate_hz, windows)``; one stalled window does not end
    the search.  The reference rate counts when its median window p99
    meets the limit.
    """
    best = 0.0
    if statistics.median(w.quantile_ms(0.99) for w in reference) <= LIMIT_MS:
        best = statistics.median(w.achieved_hz() for w in reference)
    windows: List[Phase] = []
    misses = 0
    for rate in SWEEP_HZ:
        window = run_phase(server, request_lines(stream, WINDOW_N, first_phase + len(windows)), rate)
        windows.append(window)
        if _meets_limit(window):
            best, misses = window.achieved_hz(), 0
        else:
            misses += 1
            if misses == 2:
                break
    return best, windows


def _print_windows(windows: List[Phase]) -> None:
    for window in windows:
        print(f"  offered {window.rate:>7.1f}/s achieved {window.achieved_hz():8.1f}/s "
              f"p50 {window.quantile_ms(0.5):6.3f} ms p99 {window.quantile_ms(0.99):8.3f} ms "
              f"bad {window.bad()} meets limit {_meets_limit(window)}")


def _untraced(args, import_s: float):
    """Reference-rate windows for the whole run: p50, set-up, memory."""
    stream = observation_stream(args.seed)
    server, setup_median = _setups(traced=False)
    n_windows = max(3, round(args.seconds * REFERENCE_HZ / WINDOW_N))
    try:
        reference = _reference(server, stream, n_windows)
        problems, stats = accounting(server, n_windows * WINDOW_N)
    finally:
        report = server.stop()

    digests = {w.digest() for w in reference}
    failed = sum(w.bad() for w in reference) + len(problems)
    print(f"reference: {n_windows} windows x {WINDOW_N} decisions at {REFERENCE_HZ:g}/s "
          f"({n_windows * WINDOW_N} samples); reply digest {reference[0].digest()}")
    _print_windows(reference)
    print(f"  server: offered {stats['offered']:g} served {stats['served']:g} "
          f"degraded {stats['degraded']:g} shed {stats['shed']:g}")
    for problem in problems:
        print(f"  accounting: {problem}")
    if len(digests) != 1:
        print(f"  reply digest differs between windows: {sorted(digests)}")
    # Other tenants only ever add latency, so the lower quartile of the
    # window medians reads the server's own median more steadily than
    # their median.
    p50_ms = statistics.quantiles([w.quantile_ms(0.5) for w in reference], n=4)[0]
    print(f"  decision_p50_ms (lower quartile of window medians) {p50_ms:.4g}")
    metrics = {
        # One decision request is one vehicle's control step.
        "step_us": (p50_ms * 1e3, "us"),
        "setup_s": (import_s + setup_median, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    correct = failed == 0 and len(digests) == 1
    return correct, n_windows * WINDOW_N, failed, metrics


def _client_layers(phases: List[Phase], stats_before: dict, stats_after: dict):
    """Client-side split of one traced pass and the server tallies it added.

    Returns ``(metrics, figures)``: the per-layer metrics of
    :data:`layers.SERVE_CLIENT`, and millisecond figures for the log.
    """
    server_ms, queue_ms, lags, ladder1 = [], [], [], 0
    for phase in phases:
        for k in range(phase.n):
            reply = phase.replies[k]
            if reply is None:
                continue
            ladder1 += reply.get("ladder") == 1
            server_ms.append(reply["elapsed_ms"])
            queue_ms.append((phase.received[k] - phase.sent[k]) * 1e3 - reply["elapsed_ms"])
        lags.extend(phase.lag_ms())
    lags.sort()
    total = sum(p.n for p in phases)
    metrics = {
        "serve.queue_wait_share": (sum(queue_ms) / (sum(queue_ms) + sum(server_ms)), "ratio"),
        "serve.ladder1_share": (ladder1 / total, "count"),
        "serve.shed": (stats_after["shed"] - stats_before["shed"], "count"),
        "serve.deadline_misses": (
            stats_after["deadline_misses"] - stats_before["deadline_misses"], "count"
        ),
    }
    figures = {
        "serve.server_ms (median)": statistics.median(server_ms),
        "serve.queue_wait_ms (median)": statistics.median(queue_ms),
        "serve.generator_lag_ms (p99)": lags[max(0, math.ceil(0.99 * len(lags)) - 1)],
    }
    return metrics, figures


def _traced(args):
    """Tail metrics untraced, then the per-layer split from a traced server."""
    stream = observation_stream(args.seed)
    server = Server("serve-untraced", traced=False)
    try:
        reference = _reference(server, stream, TAIL_WINDOWS)
        max_rate, sweep = _sweep(server, stream, TAIL_WINDOWS, reference)
        problems, _ = accounting(server, (TAIL_WINDOWS + len(sweep)) * WINDOW_N)
    finally:
        server.stop()
    print(f"untraced reference and sweep ({WINDOW_N} decisions per window):")
    _print_windows(reference + sweep)
    if not max_rate:
        print(f"  no offered rate kept p99 <= {LIMIT_MS} ms: max_rate_hz reads 0")

    server = Server("serve-traced", traced=True)
    traced: List[Phase] = []
    per_phase = []
    try:
        for _ in range(2):
            _, before = accounting(server, len(traced) * WINDOW_N)
            traced += _reference(server, stream, TRACED_WINDOWS, len(traced))
            more, after = accounting(server, len(traced) * WINDOW_N)
            problems += more
            per_phase.append(_client_layers(traced[-TRACED_WINDOWS:], before, after))
    finally:
        report = server.stop()
    # Open-loop wall time is fixed by the schedule, so shares are taken
    # of the server's summed handling time, and the tracing cost is read
    # from its median.
    def server_ms(phases: List[Phase]) -> List[float]:
        return [r["elapsed_ms"] for p in phases for r in p.replies if r]

    metrics = layer_metrics(
        report["summary"], report["counts"],
        work_s=sum(server_ms(traced)) / 1e3,
        steps=sum(p.n for p in traced),
        client=per_phase[0][0],
    )
    metrics["trace.overhead_share"] = (
        statistics.median(server_ms(traced)) / statistics.median(server_ms(reference)) - 1.0,
        "ratio",
    )
    print(f"  decision_p99_ms (median window p99 at {REFERENCE_HZ:g}/s) "
          f"{statistics.median(w.quantile_ms(0.99) for w in reference):.4g}")
    print(f"  max_rate_hz {max_rate:.6g}")
    for name, value in per_phase[0][1].items():
        print(f"  {name} {value:.4g}")
    digests = {w.digest() for w in reference + traced}
    failed = sum(w.bad() for w in reference) + sum(p.bad() for p in traced) + len(problems)
    correct = failed == 0 and len(digests) == 1
    print(f"reply digest untraced {reference[0].digest()}")
    if len(digests) != 1:
        print(f"  traced reply digests differ from the untraced ones: {sorted(digests)}")
    for name, value in per_phase[0][0].items():
        if value[1] == "count" and per_phase[1][0][name] != value:
            correct = False
            print(f"  exact count {name} did not repeat: {value} vs {per_phase[1][0][name]}")
    for problem in problems:
        print(f"  accounting: {problem}")
    attempted = sum(w.n for w in reference) + sum(p.n for p in traced)
    return correct, attempted, failed, metrics


def main(args, import_s: float):
    """Entry point used by ``run.py``."""
    if args.trace:
        return _traced(args)
    return _untraced(args, import_s)
