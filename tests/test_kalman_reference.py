"""The closed-form Kalman filter agrees with the numpy reference.

``repro.filtering.kalman`` computes every filter step in closed form on
scalars; ``tests/kalman_reference.py`` keeps the numpy matrix filter it
replaced (gain through LAPACK's ``inv``).  The two round differently, so
they are compared with stated tolerances:

* one step from a shared input state: the covariance agrees to within
  ``STEP_ULPS`` ulps of the step's covariance scale (the largest entry
  of the input covariance, ``R`` and both outputs).  The state agrees to
  within ``STEP_ULPS`` ulps of its scale (the largest input, output or
  measurement component) plus, for updates, ``STEP_ULPS * eps *
  cond_1(P + R) * |innovation|``: the first-order effect of rounding the
  gain, which no two gain algorithms share.  Measured worst cases were
  2 ulps (covariance) and under one unit of the state bound.
* whole :class:`ReplayKalmanFilter` runs over the table settings'
  operating envelope (sensor, message, replay and query sequences): the
  two filters run independently and agree to within ``REPLAY_ULPS``
  ulps of the state and covariance scales after every event (measured
  worst: 3 ulps).

Both implementations must also fail together: a non-finite input, a
negative horizon or a singular innovation covariance raises
:class:`~repro.errors.FilterError` from both or from neither.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.message import Message
from repro.dynamics.state import VehicleState
from repro.errors import FilterError
from repro.filtering.kalman import KalmanFilter, KalmanState
from repro.filtering.replay import ReplayKalmanFilter
from repro.sensing.noise import NoiseBounds
from repro.sensing.sensor import SensorReading
from tests import kalman_reference as ref

#: Tolerance of one filter step, in ulps of the step's scale.
STEP_ULPS = 4
#: Tolerance of whole replay runs, in ulps of the state/covariance scale.
REPLAY_ULPS = 8

EPS = sys.float_info.epsilon


def _as_reference(state: KalmanState) -> ref.KalmanState:
    return ref.KalmanState(
        time=state.time, x_hat=state.x_hat, covariance=state.covariance
    )


def _max_abs(*values: float) -> float:
    return max(abs(v) for v in values)


def _assert_close(scalar, reference, x_tol: float, p_tol: float) -> None:
    x_err = max(
        abs(scalar.position - reference.position),
        abs(scalar.velocity - reference.velocity),
    )
    p_err = float(np.max(np.abs(scalar.covariance - reference.covariance)))
    assert x_err <= x_tol, (x_err, x_tol, scalar, reference.x_hat.ravel())
    assert p_err <= p_tol, (p_err, p_tol, scalar, reference.covariance.ravel())


deltas = st.floats(1e-3, 5.0)
accels = st.floats(-6.0, 6.0)
offsets = st.floats(-5.0, 5.0)
ops = st.one_of(
    st.tuples(st.just("predict"), accels),
    st.tuples(st.just("extrapolate"), accels, st.floats(0.0, 2.0)),
    st.tuples(st.just("update"), offsets, offsets),
)


class TestOneStep:
    """Each step, from the same input state, within STEP_ULPS."""

    @settings(max_examples=150, deadline=None)
    @given(
        dt=st.floats(1e-3, 1.0),
        delta_p=deltas,
        delta_v=deltas,
        delta_a=deltas,
        position=st.floats(-1e3, 1e3),
        velocity=st.floats(-50.0, 50.0),
        var_p=st.floats(0.0, 100.0),
        var_v=st.floats(0.0, 100.0),
        steps=st.lists(ops, min_size=1, max_size=30),
    )
    def test_sequences_agree_step_by_step(
        self, dt, delta_p, delta_v, delta_a, position, velocity, var_p, var_v, steps
    ):
        bounds = NoiseBounds(delta_p=delta_p, delta_v=delta_v, delta_a=delta_a)
        scalar = KalmanFilter(dt, bounds)
        reference = ref.KalmanFilter(dt, bounds)
        r0, r1 = bounds.position_variance, bounds.velocity_variance
        state = scalar.initial_state(0.0, position, velocity, var_p, var_v)
        for op in steps:
            prior = _as_reference(state)
            inputs = [state.position, state.velocity]
            gain_term = 0.0
            if op[0] == "predict":
                out = scalar.predict(state, op[1])
                expected = reference.predict(prior, op[1])
            elif op[0] == "extrapolate":
                out = scalar.extrapolate(state, op[1], op[2])
                expected = reference.extrapolate(prior, op[1], op[2])
            else:
                z_p = state.position + op[1]
                z_v = state.velocity + op[2]
                out = scalar.update(state, z_p, z_v)
                expected = reference.update(prior, z_p, z_v)
                inputs += [z_p, z_v]
                cond = np.linalg.cond(prior.covariance + np.diag([r0, r1]), 1)
                gain_term = EPS * cond * _max_abs(op[1], op[2])
            x_scale = _max_abs(*inputs, out.position, out.velocity)
            p_scale = max(
                float(np.max(np.abs(prior.covariance))),
                float(np.max(np.abs(expected.covariance))),
                float(np.max(np.abs(out.covariance))),
                r0,
                r1,
            )
            _assert_close(
                out,
                expected,
                x_tol=STEP_ULPS * (math.ulp(x_scale) + gain_term),
                p_tol=STEP_ULPS * math.ulp(p_scale),
            )
            assert out.time == pytest.approx(expected.time, rel=0.0, abs=0.0)
            if op[0] == "update":
                # Joseph form + PSD projection: exactly symmetric.
                assert out.p01 == pytest.approx(out.p10, rel=0.0, abs=0.0)
            state = out


#: One replay-run event: (kind, u, w1, w2) with u in [0, 1), w in [-1, 1].
events = st.lists(
    st.tuples(
        st.sampled_from(["reading", "reading", "message", "estimate"]),
        st.floats(0.0, 0.999),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    ),
    min_size=1,
    max_size=80,
)


class TestReplayRuns:
    """Independent ReplayKalmanFilter runs stay within REPLAY_ULPS."""

    @settings(max_examples=60, deadline=None)
    @given(
        dt=st.sampled_from([0.05, 0.1, 0.2]),
        delta=st.floats(0.2, 3.0),
        horizon=st.floats(0.3, 5.0),
        position=st.floats(-100.0, 100.0),
        velocity=st.floats(-15.0, 15.0),
        run=events,
    )
    def test_sensor_message_replay_sequences_agree(
        self, dt, delta, horizon, position, velocity, run
    ):
        bounds = NoiseBounds.uniform_all(delta)
        scalar = ReplayKalmanFilter(KalmanFilter(dt, bounds), history_horizon=horizon)
        reference = ReplayKalmanFilter(
            ref.KalmanFilter(dt, bounds), history_horizon=horizon
        )
        r = bounds.position_variance
        now, accel = 0.0, 0.0
        history = []
        for kind, u, w1, w2 in run:
            if kind == "reading":
                # Advance the truth by a (possibly off-grid) sensing gap.
                gap = dt * (0.5 + u)
                position += velocity * gap + 0.5 * accel * gap * gap
                velocity += accel * gap
                now += gap
                accel = 3.0 * w1
                history.append((now, position, velocity, accel))
                reading = SensorReading(
                    target=1,
                    time=now,
                    position=position + delta * w1,
                    velocity=velocity + delta * w2,
                    acceleration=accel + delta * w2,
                )
                scalar.on_sensor_reading(reading)
                reference.on_sensor_reading(reading)
            elif kind == "message" and history:
                stamp, p, v, a = history[int(u * len(history))]
                message = Message(
                    sender=1,
                    stamp=stamp,
                    state=VehicleState(position=p, velocity=v, acceleration=a),
                )
                renewed = scalar.on_message(message, now)
                assert (renewed is None) == (
                    reference.on_message(message, now) is None
                )
                assert scalar.last_replay_depth == reference.last_replay_depth
            elif kind == "estimate" and scalar.is_initialized:
                at = now + u * dt
                self._compare(scalar.estimate_at(at), reference.estimate_at(at), r)
            if scalar.is_initialized:
                self._compare(scalar.posterior, reference.posterior, r)
        assert scalar.replay_count == reference.replay_count

    @staticmethod
    def _compare(scalar, reference, r: float) -> None:
        x_scale = _max_abs(reference.position, reference.velocity, 1.0)
        p_scale = max(float(np.max(np.abs(reference.covariance))), r)
        _assert_close(
            scalar,
            reference,
            x_tol=REPLAY_ULPS * math.ulp(x_scale),
            p_tol=REPLAY_ULPS * math.ulp(p_scale),
        )


def _raised(fn):
    """The exception class ``fn()`` raises, or ``None``."""
    try:
        fn()
    except (FilterError, ArithmeticError) as exc:
        return type(exc)
    return None


BAD = [math.nan, math.inf, -math.inf]


class TestFailTogether:
    """Both implementations raise the same error, or neither does.

    Non-finite results raise FilterError; a horizon so long that
    ``dt**4`` leaves the float range raises OverflowError from both.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        op=st.sampled_from(
            [
                "predict.accel",
                "extrapolate.accel",
                "extrapolate.dt",
                "update.position",
                "update.velocity",
                "exact.position",
                "initial.velocity",
            ]
        ),
        bad=st.sampled_from(BAD + [-0.5, 1e300]),
        var=st.floats(0.0, 10.0),
    )
    def test_non_finite_and_invalid_inputs(self, op, bad, var):
        bounds = NoiseBounds.uniform_all(1.0)
        filters = (KalmanFilter(0.1, bounds), ref.KalmanFilter(0.1, bounds))
        verdicts = []
        for kf in filters:
            state = kf.initial_state(0.0, 10.0, 5.0, var, var)
            calls = {
                "predict.accel": lambda: kf.predict(state, bad),
                "extrapolate.accel": lambda: kf.extrapolate(state, bad, 0.1),
                "extrapolate.dt": lambda: kf.extrapolate(state, 0.0, bad),
                "update.position": lambda: kf.update(state, bad, 5.0),
                "update.velocity": lambda: kf.update(state, 10.0, bad),
                "exact.position": lambda: kf.exact_state(0.0, bad, 5.0),
                "initial.velocity": lambda: kf.initial_state(0.0, 1.0, bad, var, var),
            }
            verdicts.append(_raised(calls[op]))
        assert verdicts[0] == verdicts[1], (op, bad, verdicts)
        if not math.isfinite(bad) or (op == "extrapolate.dt" and bad < 0.0):
            assert verdicts[0] is FilterError, (op, bad, verdicts)

    @pytest.mark.parametrize(
        "bounds",
        [
            NoiseBounds(delta_p=0.0, delta_v=1.0, delta_a=1.0),
            NoiseBounds(delta_p=1.0, delta_v=0.0, delta_a=1.0),
        ],
    )
    def test_singular_innovation_covariance(self, bounds):
        # A zero prior variance on the channel R does not cover makes
        # P + R singular: both filters refuse the update.
        for kf in (KalmanFilter(0.1, bounds), ref.KalmanFilter(0.1, bounds)):
            state = kf.exact_state(0.0, 10.0, 5.0)
            with pytest.raises(FilterError, match="singular"):
                kf.update(state, 10.5, 5.5)

    def test_noiseless_update_agrees(self):
        bounds = NoiseBounds.noiseless()
        for kf in (KalmanFilter(0.1, bounds), ref.KalmanFilter(0.1, bounds)):
            state = kf.exact_state(0.0, 10.0, 5.0)
            post = kf.update(state, 10.5, 5.5)
            assert (post.position, post.velocity) == (10.5, 5.5)
            assert not np.any(post.covariance)
