"""Tests for the replaying Kalman filter (message replay of Sec. III-B)."""

import numpy as np
import pytest

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits, VehicleModel
from repro.errors import FilterError, ReplayError
from repro.filtering.kalman import KalmanFilter
from repro.filtering.replay import ReplayKalmanFilter, _key
from repro.sensing.noise import NoiseBounds, UniformNoise
from repro.sensing.sensor import SensorReading
from repro.utils.rng import RngStream

DT = 0.1
BOUNDS = NoiseBounds.uniform_all(1.0)
LIMITS = VehicleLimits(v_min=-20.0, v_max=-2.0, a_min=-3.0, a_max=3.0)


def _rkf() -> ReplayKalmanFilter:
    return ReplayKalmanFilter(KalmanFilter(DT, BOUNDS))


def _reading(t, p, v, a=0.0) -> SensorReading:
    return SensorReading(target=1, time=t, position=p, velocity=v, acceleration=a)


class TestSensorPath:
    def test_first_reading_initialises(self):
        rkf = _rkf()
        assert not rkf.is_initialized
        post = rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        assert rkf.is_initialized
        assert post.position == 50.0
        assert post.velocity == -12.0

    def test_initial_covariance_is_measurement_covariance(self):
        rkf = _rkf()
        post = rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        assert post.covariance[0, 0] == pytest.approx(1.0 / 3.0)

    def test_subsequent_readings_advance_time(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        post = rkf.on_sensor_reading(_reading(0.1, 48.8, -12.0))
        assert post.time == pytest.approx(0.1)

    def test_time_regression_rejected(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.5, 50.0, -12.0))
        with pytest.raises(FilterError):
            rkf.on_sensor_reading(_reading(0.4, 50.0, -12.0))

    def test_checkpoints_stored_at_prediction_times(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        rkf.on_sensor_reading(_reading(0.1, 48.8, -12.0))
        assert rkf.checkpoint_at(0.1) is not None
        assert rkf.checkpoint_at(0.05) is None

    def test_current_accel_tracks_reading(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=1.5))
        assert rkf.current_accel == 1.5


class TestEstimateAt:
    def test_uninitialised_raises(self):
        with pytest.raises(FilterError):
            _rkf().estimate_at(0.0)

    def test_at_posterior_time(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0))
        est = rkf.estimate_at(0.0)
        assert est.position == pytest.approx(50.0)

    def test_between_samples_extrapolates(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.0, 50.0, -12.0, a=0.0))
        est = rkf.estimate_at(0.05)
        assert est.position == pytest.approx(50.0 - 12.0 * 0.05, abs=1e-9)

    def test_past_query_rejected(self):
        rkf = _rkf()
        rkf.on_sensor_reading(_reading(0.5, 50.0, -12.0))
        with pytest.raises(FilterError):
            rkf.estimate_at(0.2)


class TestMessageReplay:
    def _drive(self, rkf, seed=7, n=30):
        """Feed noisy readings of a simulated vehicle; return its states."""
        rng = RngStream(seed)
        noise = UniformNoise(BOUNDS, rng)
        model = VehicleModel(LIMITS)
        state = VehicleState(position=55.0, velocity=-12.0)
        truth = {0.0: state}
        for i in range(n):
            t = i * DT
            rkf.on_sensor_reading(
                _reading(
                    t,
                    noise.perturb_position(state.position),
                    noise.perturb_velocity(state.velocity),
                    noise.perturb_acceleration(0.5),
                )
            )
            state = model.step(state, 0.5, DT)
            truth[round((i + 1) * DT, 10)] = state
        return truth

    def test_replay_improves_posterior(self):
        rkf = _rkf()
        truth = self._drive(rkf)
        now = 29 * DT
        before = rkf.estimate_at(now)
        stamp = 25 * DT
        exact = truth[round(stamp, 10)]
        msg = Message(
            sender=1,
            stamp=stamp,
            state=exact.with_acceleration(0.5),
        )
        rkf.on_message(msg, now)
        after = rkf.estimate_at(now)
        true_now = truth[round(now, 10)]
        err_before = abs(before.position - true_now.position)
        err_after = abs(after.position - true_now.position)
        assert err_after <= err_before + 1e-9
        assert rkf.replay_count == 1

    def test_replay_with_current_stamp_pins_estimate(self):
        rkf = _rkf()
        truth = self._drive(rkf, n=10)
        now = 9 * DT
        exact = truth[round(now, 10)]
        rkf.on_message(
            Message(sender=1, stamp=now, state=exact.with_acceleration(0.5)),
            now,
        )
        est = rkf.estimate_at(now)
        assert est.position == pytest.approx(exact.position, abs=1e-9)
        assert est.velocity == pytest.approx(exact.velocity, abs=1e-9)

    def test_older_message_ignored_after_newer(self):
        rkf = _rkf()
        truth = self._drive(rkf, n=20)
        now = 19 * DT
        newer = Message(
            sender=1,
            stamp=15 * DT,
            state=truth[round(15 * DT, 10)].with_acceleration(0.5),
        )
        older = Message(
            sender=1,
            stamp=10 * DT,
            state=truth[round(10 * DT, 10)].with_acceleration(0.5),
        )
        assert rkf.on_message(newer, now) is not None
        assert rkf.on_message(older, now) is None
        assert rkf.replay_count == 1

    def test_future_message_rejected(self):
        rkf = _rkf()
        self._drive(rkf, n=5)
        future = Message(
            sender=1,
            stamp=100.0,
            state=VehicleState(position=0.0, velocity=0.0),
        )
        with pytest.raises(ReplayError):
            rkf.on_message(future, 0.5)

    def test_message_beyond_horizon_ignored(self):
        rkf = ReplayKalmanFilter(KalmanFilter(DT, BOUNDS), history_horizon=1.0)
        self._drive(rkf, n=30)  # posterior at 2.9 s
        stale = Message(
            sender=1,
            stamp=0.0,
            state=VehicleState(position=55.0, velocity=-12.0),
        )
        assert rkf.on_message(stale, 2.9) is None

    def test_invalid_horizon_rejected(self):
        with pytest.raises(FilterError):
            ReplayKalmanFilter(KalmanFilter(DT, BOUNDS), history_horizon=0.0)

    def test_pruning_bounds_memory(self):
        rkf = ReplayKalmanFilter(KalmanFilter(DT, BOUNDS), history_horizon=0.5)
        self._drive(rkf, n=100)
        assert len(rkf._reading_times) <= 7  # 0.5 s of 0.1 s readings + slack


class TestPruning:
    """A short horizon over a long run: exactly which history survives.

    Times are multiples of 1/8 s so every cutoff is exact: a reading or
    checkpoint stamped exactly at ``now - horizon`` survives, anything
    older is dropped, and ``checkpoint_at`` answers accordingly.
    """

    STEP = 0.125
    HORIZON = 0.5

    def _rkf(self) -> ReplayKalmanFilter:
        return ReplayKalmanFilter(
            KalmanFilter(self.STEP, BOUNDS), history_horizon=self.HORIZON
        )

    def _feed(self, rkf, first: int, last: int) -> None:
        for i in range(first, last + 1):
            t = i * self.STEP
            rkf.on_sensor_reading(_reading(t, 50.0 - 12.0 * t, -12.0))

    @staticmethod
    def _message(stamp: float) -> Message:
        return Message(
            sender=1,
            stamp=stamp,
            state=VehicleState(position=50.0 - 12.0 * stamp, velocity=-12.0),
        )

    def _assert_history(self, rkf, times) -> None:
        keys = [_key(t) for t in times]
        assert [_key(t) for t in rkf._reading_times] == keys
        assert sorted(rkf._readings) == keys
        assert rkf._checkpoint_keys == keys
        assert sorted(rkf._checkpoints) == keys

    def test_long_run_keeps_exactly_the_horizon(self):
        rkf = self._rkf()
        self._feed(rkf, 0, 48)  # last reading at 6.0 s, cutoff 5.5 s
        survivors = [5.5, 5.625, 5.75, 5.875, 6.0]
        self._assert_history(rkf, survivors)
        for i in range(49):
            t = i * self.STEP
            assert (rkf.checkpoint_at(t) is not None) == (t in survivors)
        # The surviving checkpoints are the predictions of those readings.
        assert rkf.checkpoint_at(6.0) is rkf.last_prediction

    def test_replay_inside_the_horizon_keeps_the_same_history(self):
        rkf = self._rkf()
        self._feed(rkf, 0, 24)  # 3.0 s
        before = {t: rkf.checkpoint_at(t) for t in (2.5, 2.625, 2.75, 2.875, 3.0)}
        assert rkf.on_message(self._message(2.6875), 3.0) is not None
        assert rkf.last_replay_depth == 3
        self._assert_history(rkf, [2.5, 2.625, 2.75, 2.875, 3.0])
        # Checkpoints after the stamp were re-stored; the rest untouched.
        assert rkf.checkpoint_at(2.625) is before[2.625]
        assert rkf.checkpoint_at(2.75) is not before[2.75]
        self._feed(rkf, 25, 26)
        self._assert_history(rkf, [2.75, 2.875, 3.0, 3.125, 3.25])

    def test_checkpoint_inserted_by_replay_is_pruned_in_order(self):
        rkf = self._rkf()
        self._feed(rkf, 1, 3)  # the first reading has no checkpoint
        assert rkf.checkpoint_at(0.125) is None
        assert rkf.on_message(self._message(0.0625), 0.375) is not None
        # The replay re-applied the first reading and stored its
        # prediction: a key older than every existing one.
        self._assert_history(rkf, [0.125, 0.25, 0.375])
        self._feed(rkf, 4, 6)  # 0.75 s: cutoff 0.25 s
        self._assert_history(rkf, [0.25, 0.375, 0.5, 0.625, 0.75])
        assert rkf.checkpoint_at(0.125) is None
