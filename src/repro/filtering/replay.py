"""Kalman filtering with message replay.

Section III-B of the paper extends the classical filter: "in each
transmission period the extrapolated state and covariance are stored in
the memory.  Then, every time a message recording the states of ``C_i`` at
time ``t_k`` arrives, they are restored, and the filter renews the
estimations from ``t_k`` to the current timestamp based on the message."

:class:`ReplayKalmanFilter` implements that design:

* at every sensing instant it stores the *prediction* checkpoint
  ``(x_hat(t, t - dt_s), P(t, t - dt_s))`` and the sensor reading itself;
* when a (possibly delayed) message stamped ``t_k`` arrives, the filter
  rewinds to ``t_k``, replaces the estimate there with the message's exact
  state (zero covariance — message content is accurate in the paper's
  model), and replays every logged sensor update between ``t_k`` and the
  present, leaving a strictly better posterior.

Messages older than an already-replayed message are ignored (they carry no
new information and would only discard the better restart point).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.comm.message import Message
from repro.errors import FilterError, ReplayError
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.sensing.sensor import SensorReading

__all__ = ["ReplayKalmanFilter"]

#: Timestamps are keyed at microsecond resolution; simulation times are
#: sums of ``dt_c`` increments so this comfortably absorbs float error.
_KEY_SCALE = 1e6


def _key(time: float) -> int:
    return int(round(time * _KEY_SCALE))


class ReplayKalmanFilter:
    """A Kalman filter that can rewind and replay on message arrival.

    Parameters
    ----------
    kalman:
        The underlying constant-matrix filter.
    history_horizon:
        How far back (seconds) checkpoints and sensor readings are kept.
        Messages older than this cannot be replayed and are ignored; the
        horizon bounds memory for long simulations.
    """

    def __init__(self, kalman: KalmanFilter, history_horizon: float = 30.0) -> None:
        if history_horizon <= 0.0:
            raise FilterError(
                f"history_horizon must be > 0, got {history_horizon}"
            )
        self._kalman = kalman
        self._horizon = float(history_horizon)
        self._posterior: Optional[KalmanState] = None
        #: acceleration knowledge used to extrapolate past the posterior
        self._current_accel: float = 0.0
        self._checkpoints: Dict[int, KalmanState] = {}
        #: sorted keys of ``_checkpoints`` (pruning cuts a prefix)
        self._checkpoint_keys: List[int] = []
        self._last_prediction: Optional[KalmanState] = None
        self._reading_times: List[float] = []
        self._readings: Dict[int, SensorReading] = {}
        self._last_replayed_stamp: float = float("-inf")
        self._replay_count = 0
        self._last_replay_depth = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kalman(self) -> KalmanFilter:
        """The wrapped filter."""
        return self._kalman

    @property
    def posterior(self) -> Optional[KalmanState]:
        """Latest posterior, or ``None`` before initialisation."""
        return self._posterior

    @property
    def is_initialized(self) -> bool:
        """Whether at least one sensor reading has been folded in."""
        return self._posterior is not None

    @property
    def replay_count(self) -> int:
        """How many message replays have been performed."""
        return self._replay_count

    @property
    def last_replay_depth(self) -> int:
        """Sensor readings re-applied by the most recent replay (0 if none)."""
        return self._last_replay_depth

    @property
    def last_prediction(self) -> Optional[KalmanState]:
        """Prediction the latest :meth:`on_sensor_reading` folded its reading into.

        ``None`` when that reading initialised the filter (there was no
        prior to predict from) or before any reading; a message replay
        does not change it.  The information filter's divergence
        watchdog gates the reading's innovation against it, so the gate
        and the update share one prediction.
        """
        return self._last_prediction

    @property
    def current_accel(self) -> float:
        """The acceleration currently used for extrapolation."""
        return self._current_accel

    def checkpoint_at(self, time: float) -> Optional[KalmanState]:
        """The stored prediction checkpoint at ``time``, if any.

        Units: time [s]
        """
        return self._checkpoints.get(_key(time))

    # ------------------------------------------------------------------
    # Sensor path
    # ------------------------------------------------------------------
    def on_sensor_reading(self, reading: SensorReading) -> KalmanState:
        """Fold in one sensor reading at its measurement time.

        The first reading initialises the filter with the measurement
        itself and the measurement covariance as prior.  Subsequent
        readings run predict (over the actual gap, using the previous
        measured acceleration) followed by update.

        Returns the new posterior.
        """
        if self._posterior is None:
            bounds = self._kalman.bounds
            self._last_prediction = None
            self._posterior = self._kalman.initial_state(
                time=reading.time,
                position=reading.position,
                velocity=reading.velocity,
                position_var=bounds.position_variance,
                velocity_var=bounds.velocity_variance,
            )
        else:
            gap = reading.time - self._posterior.time
            if gap <= 0.0:
                raise FilterError(
                    f"sensor readings must advance in time: got t={reading.time}"
                    f" after t={self._posterior.time}"
                )
            predicted = self._kalman.extrapolate(
                self._posterior, self._current_accel, gap
            )
            self._store_checkpoint(predicted)
            self._last_prediction = predicted
            self._posterior = self._kalman.update(
                predicted, reading.position, reading.velocity
            )
        self._current_accel = reading.acceleration
        self._log_reading(reading)
        self._prune(reading.time)
        return self._posterior

    # ------------------------------------------------------------------
    # Message path (the replay)
    # ------------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> Optional[KalmanState]:
        """Rewind to the message stamp and replay logged sensor updates.

        Units: now [s]

        Parameters
        ----------
        message:
            The delivered message; its stamp may lag ``now`` by the
            channel delay.
        now:
            Current simulation time (delivery time).

        Returns
        -------
        KalmanState or None
            The renewed posterior, or ``None`` when the message was
            ignored (older than an already-replayed message, or beyond
            the history horizon).
        """
        stamp = message.stamp
        if stamp <= self._last_replayed_stamp:
            return None
        if self._posterior is not None and (
            self._posterior.time - stamp > self._horizon
        ):
            return None
        if stamp > float(now) + 1e-9:
            raise ReplayError(
                f"message from the future: stamp={stamp} > now={now}"
            )

        exact = self._kalman.exact_state(
            stamp, message.state.position, message.state.velocity
        )
        state = exact
        accel = message.state.acceleration

        # Replay every logged reading strictly after the stamp, in order.
        idx = bisect.bisect_right(self._reading_times, stamp + 1e-12)
        self._last_replay_depth = len(self._reading_times) - idx
        for t in self._reading_times[idx:]:
            reading = self._readings[_key(t)]
            predicted = self._kalman.extrapolate(state, accel, t - state.time)
            self._store_checkpoint(predicted)
            state = self._kalman.update(
                predicted, reading.position, reading.velocity
            )
            accel = reading.acceleration

        self._posterior = state
        self._current_accel = accel
        self._last_replayed_stamp = stamp
        self._replay_count += 1
        return self._posterior

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate_at(self, now: float) -> KalmanState:
        """Extrapolate the posterior to ``now`` (between sensor samples).

        Units: now [s]

        Raises
        ------
        FilterError
            If the filter has no posterior yet or ``now`` precedes it.
        """
        if self._posterior is None:
            raise FilterError("filter not initialised: no sensor reading yet")
        gap = float(now) - self._posterior.time
        if gap < -1e-9:
            raise FilterError(
                f"cannot estimate before the posterior: now={now} < "
                f"t={self._posterior.time}"
            )
        return self._kalman.extrapolate(
            self._posterior, self._current_accel, max(gap, 0.0)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _store_checkpoint(self, predicted: KalmanState) -> None:
        key = _key(predicted.time)
        if key not in self._checkpoints:
            bisect.insort(self._checkpoint_keys, key)
        self._checkpoints[key] = predicted

    def _log_reading(self, reading: SensorReading) -> None:
        key = _key(reading.time)
        if key not in self._readings:
            bisect.insort(self._reading_times, reading.time)
        self._readings[key] = reading

    def _prune(self, now: float) -> None:
        """Drop readings before ``now - horizon`` and older checkpoints."""
        cutoff = now - self._horizon
        times = self._reading_times
        n_stale = bisect.bisect_left(times, cutoff)
        for t in times[:n_stale]:
            self._readings.pop(_key(t), None)
        del times[:n_stale]
        keys = self._checkpoint_keys
        n_stale = bisect.bisect_left(keys, _key(cutoff))
        for k in keys[:n_stale]:
            del self._checkpoints[k]
        del keys[:n_stale]
