"""The numpy Kalman filter, kept as the test-only reference.

This is the matrix implementation of the Section III-B filter that
``repro.filtering.kalman`` replaced with closed-form scalar arithmetic:
``F``, ``G``, ``Q`` and ``R`` as 2x2 numpy arrays, the gain through
``np.linalg.inv`` (LAPACK) and the Joseph-form update as matrix
products.  It is kept verbatim so the property and outcome-equivalence
tests can drive both implementations through the same sequences; import
it as a module (``from tests import kalman_reference as ref``) so its
names do not shadow the production ones.

The one addition is the scalar covariance accessors ``p00``..``p11`` on
:class:`KalmanState`, which the information filter's watchdog reads.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamics.state import VehicleState
from repro.errors import FilterError
from repro.sensing.noise import NoiseBounds
from repro.utils.intervals import Interval
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["KalmanState", "KalmanFilter", "symmetrize_psd"]

_EYE2 = np.eye(2)


def symmetrize_psd(covariance: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Project a near-symmetric ``2x2`` covariance onto the PSD cone.

    Floating-point products like ``(I-K) P (I-K)' + K R K'`` are
    symmetric in exact arithmetic but drift by a few ulps per update;
    over thousands of replayed filter steps the drift compounds and can
    push an eigenvalue (or a diagonal variance) slightly negative, after
    which ``sqrt`` of a variance produces NaN and the whole estimate
    chain collapses.  This guard

    1. averages the matrix with its transpose (exact symmetry),
    2. clamps both variances to at least ``floor`` (>= 0), and
    3. clamps the covariance term to ``|p01| <= sqrt(p00 * p11)``, the
       Cauchy-Schwarz bound, which for a symmetric ``2x2`` matrix with
       non-negative diagonal is exactly PSD.

    A matrix that already satisfies all three comes back unchanged up to
    the symmetrization average.

    Shapes: covariance [2, 2] -> [2, 2]
    """
    p = np.asarray(covariance, dtype=float)
    p = 0.5 * (p + p.T)
    p00 = max(float(p[0, 0]), floor)
    p11 = max(float(p[1, 1]), floor)
    cross = np.sqrt(p00 * p11)
    p01 = float(np.clip(p[0, 1], -cross, cross))
    return np.array([[p00, p01], [p01, p11]])


@dataclass(frozen=True)
class KalmanState:
    """An estimate/covariance pair ``(x_hat, P)`` at a given time.

    ``x_hat`` is the ``2x1`` ``[p, v]`` vector; ``P`` the ``2x2``
    covariance.  Instances are value objects: arrays are copied on
    construction and never mutated, so they are safe to checkpoint for
    message replay.
    """

    time: float
    x_hat: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x_hat, dtype=float).reshape(2, 1)
        p = np.array(self.covariance, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(x)):
            raise FilterError(f"non-finite state estimate: {x.ravel()}")
        if not np.all(np.isfinite(p)):
            raise FilterError(f"non-finite covariance: {p.ravel()}")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "covariance", p)

    @property
    def p00(self) -> float:
        """Position variance (scalar accessor of the production state)."""
        return float(self.covariance[0, 0])

    @property
    def p01(self) -> float:
        """Position-velocity covariance, row 0 (scalar accessor)."""
        return float(self.covariance[0, 1])

    @property
    def p10(self) -> float:
        """Velocity-position covariance, row 1 (scalar accessor)."""
        return float(self.covariance[1, 0])

    @property
    def p11(self) -> float:
        """Velocity variance (scalar accessor of the production state)."""
        return float(self.covariance[1, 1])

    @property
    def position(self) -> float:
        """Estimated position."""
        return float(self.x_hat[0, 0])

    @property
    def velocity(self) -> float:
        """Estimated velocity."""
        return float(self.x_hat[1, 0])

    @property
    def position_std(self) -> float:
        """Standard deviation of the position estimate."""
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))

    @property
    def velocity_std(self) -> float:
        """Standard deviation of the velocity estimate."""
        return float(np.sqrt(max(self.covariance[1, 1], 0.0)))

    def position_band(self, n_sigma: float = 3.0) -> Interval:
        """``mean ± n_sigma * std`` interval for the position."""
        return Interval.around(self.position, n_sigma * self.position_std)

    def velocity_band(self, n_sigma: float = 3.0) -> Interval:
        """``mean ± n_sigma * std`` interval for the velocity."""
        return Interval.around(self.velocity, n_sigma * self.velocity_std)

    def as_vehicle_state(self, acceleration: float = 0.0) -> VehicleState:
        """The mean estimate repackaged as a :class:`VehicleState`.

        Units: acceleration [m/s^2]
        """
        return VehicleState(
            position=self.position,
            velocity=self.velocity,
            acceleration=acceleration,
        )


class KalmanFilter:
    """The paper's constant-matrix Kalman filter for one remote vehicle.

    The filter is *functional*: :meth:`predict` and :meth:`update` take
    and return :class:`KalmanState` values instead of mutating internal
    state.  The message-replay wrapper exploits this to re-run stretches
    of the filter from a restored checkpoint.

    Parameters
    ----------
    dt:
        Filter step ``dt_s`` (the sensing period).
    bounds:
        Sensor noise bounds; fix the measurement covariance ``R`` and the
        process noise ``Q`` via the uniform-error variances.
    """

    def __init__(self, dt: float, bounds: NoiseBounds) -> None:
        self._dt = check_positive(dt, "dt")
        self._bounds = bounds
        dt2 = dt * dt
        self._f = np.array([[1.0, dt], [0.0, 1.0]])
        self._g = np.array([[0.5 * dt2], [dt]])
        accel_var = bounds.acceleration_variance
        self._q = (
            np.array(
                [
                    [0.25 * dt2 * dt2, 0.5 * dt2 * dt],
                    [0.5 * dt2 * dt, dt2],
                ]
            )
            * accel_var
        )
        self._r = np.diag([bounds.position_variance, bounds.velocity_variance])

    # ------------------------------------------------------------------
    # Matrix accessors (used by tests to check the paper's equations)
    # ------------------------------------------------------------------
    @property
    def dt(self) -> float:
        """Filter step ``dt_s``."""
        return self._dt

    @property
    def f_matrix(self) -> np.ndarray:
        """State-transition matrix ``F`` (copy).

        Shapes: -> [2, 2]
        """
        return self._f.copy()

    @property
    def g_matrix(self) -> np.ndarray:
        """Control matrix ``G`` (copy).

        Shapes: -> [2, 1]
        """
        return self._g.copy()

    @property
    def q_matrix(self) -> np.ndarray:
        """Process-noise covariance ``Q`` (copy).

        Shapes: -> [2, 2]
        """
        return self._q.copy()

    @property
    def r_matrix(self) -> np.ndarray:
        """Measurement-noise covariance ``R`` (copy).

        Shapes: -> [2, 2]
        """
        return self._r.copy()

    @property
    def bounds(self) -> NoiseBounds:
        """The sensor noise bounds the filter was built for."""
        return self._bounds

    # ------------------------------------------------------------------
    # Filter steps
    # ------------------------------------------------------------------
    @staticmethod
    def initial_state(
        time: float,
        position: float,
        velocity: float,
        position_var: float,
        velocity_var: float,
    ) -> KalmanState:
        """Build the prior ``(x_hat(0,0), P(0,0))``.

        Units: time [s], position [m], velocity [m/s]
        """
        check_nonnegative(position_var, "position_var")
        check_nonnegative(velocity_var, "velocity_var")
        return KalmanState(
            time=float(time),
            x_hat=np.array([[position], [velocity]]),
            covariance=np.diag([position_var, velocity_var]),
        )

    def predict(self, state: KalmanState, accel_measured: float) -> KalmanState:
        """Extrapolate one step: ``x <- F x + G a_s``, ``P <- F P F' + Q``."""
        x_pred = self._f @ state.x_hat + self._g * float(accel_measured)
        p_pred = self._f @ state.covariance @ self._f.T + self._q
        return KalmanState(
            time=state.time + self._dt, x_hat=x_pred, covariance=p_pred
        )

    def update(
        self,
        predicted: KalmanState,
        position_measured: float,
        velocity_measured: float,
    ) -> KalmanState:
        """Fold in a ``(p_s, v_s)`` measurement at the predicted time.

        Uses the paper's gain ``K = P (P + R)^{-1}`` (the measurement
        matrix is the identity) and the Joseph-form covariance update.
        """
        z = np.array([[float(position_measured)], [float(velocity_measured)]])
        if not np.any(self._r):
            # Noiseless sensing (R = 0): the measurement is exact and the
            # posterior is the measurement with zero uncertainty.  This
            # keeps the perfect-communication test setups working.
            return KalmanState(
                time=predicted.time, x_hat=z, covariance=np.zeros((2, 2))
            )
        p_prior = predicted.covariance
        innovation_cov = p_prior + self._r
        try:
            gain = p_prior @ np.linalg.inv(innovation_cov)
        except np.linalg.LinAlgError as exc:
            raise FilterError(
                "singular innovation covariance; use a nonzero noise bound "
                "or a nonzero prior variance"
            ) from exc
        x_new = predicted.x_hat + gain @ (z - predicted.x_hat)
        i_minus_k = _EYE2 - gain
        p_new = i_minus_k @ p_prior @ i_minus_k.T + gain @ self._r @ gain.T
        # Joseph form is symmetric PSD in exact arithmetic only; project
        # out the roundoff so long replayed chains cannot accumulate an
        # indefinite covariance (negative variance -> NaN bands).
        p_new = symmetrize_psd(p_new)
        return KalmanState(time=predicted.time, x_hat=x_new, covariance=p_new)

    def extrapolate(
        self, state: KalmanState, accel_measured: float, dt: float
    ) -> KalmanState:
        """Predict over an arbitrary horizon ``dt`` (not just ``dt_s``).

        Units: dt [s]

        Used for (a) estimates between sensor samples — the runtime
        monitor runs every control step ``dt_c`` which is finer than the
        sensing period — and (b) message replay when the message stamp is
        not aligned with the sensing schedule.  Matrices ``F``, ``G`` and
        ``Q`` are re-derived for the requested horizon.
        """
        dt = float(dt)
        if dt < 0.0:
            raise FilterError(f"extrapolation horizon must be >= 0, got {dt}")
        if dt == 0.0:
            return state
        f = np.array([[1.0, dt], [0.0, 1.0]])
        g = np.array([[0.5 * dt * dt], [dt]])
        q = (
            np.array(
                [
                    [0.25 * dt**4, 0.5 * dt**3],
                    [0.5 * dt**3, dt * dt],
                ]
            )
            * self._bounds.acceleration_variance
        )
        x_pred = f @ state.x_hat + g * float(accel_measured)
        p_pred = f @ state.covariance @ f.T + q
        return KalmanState(time=state.time + dt, x_hat=x_pred, covariance=p_pred)

    def exact_state(
        self, time: float, position: float, velocity: float
    ) -> KalmanState:
        """A zero-covariance state from exact (message) values.

        Units: time [s], position [m], velocity [m/s]

        Message content is accurate in the paper's model, so replay
        restarts the filter from the message state with zero uncertainty.
        """
        return KalmanState(
            time=float(time),
            x_hat=np.array([[position], [velocity]]),
            covariance=np.zeros((2, 2)),
        )
