"""Kalman filter over noisy ``(p, v)`` measurements.

Implements the filter of Section III-B of the paper for the 1-D
double-integrator vehicle, with exactly the matrices printed there:

.. math::

    F = \\begin{bmatrix}1 & \\Delta t_s\\\\ 0 & 1\\end{bmatrix},\\quad
    G = \\begin{bmatrix}0.5\\,\\Delta t_s^2\\\\ \\Delta t_s\\end{bmatrix},\\quad
    Q = \\begin{bmatrix}0.25\\,\\Delta t_s^4 & 0.5\\,\\Delta t_s^3\\\\
                        0.5\\,\\Delta t_s^3 & \\Delta t_s^2\\end{bmatrix}
        \\frac{\\delta_a^2}{3},\\quad
    R = \\begin{bmatrix}\\delta_p^2/3 & 0\\\\ 0 & \\delta_v^2/3\\end{bmatrix}

where the ``delta^2/3`` terms are the variances of the paper's uniform
measurement errors.  The state is the full ``[p, v]`` vector (the
measurement matrix is the identity), the control input is the *measured*
acceleration ``a_s``, and process noise ``Q`` accounts for its
uncertainty.

The update uses the Joseph-form covariance update printed in the paper,
which stays symmetric positive-semidefinite under roundoff.

Every step is written out in closed form on the four covariance entries
and the two state components: a 2x2 filter step is a few dozen flops,
and numpy's per-call dispatch would cost far more than the arithmetic.
The gain uses the explicit 2x2 inverse (adjugate over determinant); a
zero or non-finite determinant raises :class:`~repro.errors.FilterError`
as a singular innovation covariance.  The numpy matrix implementation
this replaced is kept in the test suite as the reference; the two agree
to within a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dynamics.state import VehicleState
from repro.errors import FilterError
from repro.sensing.noise import NoiseBounds
from repro.utils.intervals import Interval
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["KalmanState", "KalmanFilter", "symmetrize_psd"]


def _project_psd(
    p00: float, p01: float, p10: float, p11: float, floor: float
) -> Tuple[float, float, float]:
    """Closed form of :func:`symmetrize_psd`: ``(p00, p01, p11)`` of the result.

    Effects: pure
    """
    cross_term = 0.5 * (p01 + p10)
    p00 = max(0.5 * (p00 + p00), floor)
    p11 = max(0.5 * (p11 + p11), floor)
    cross = math.sqrt(p00 * p11)
    return p00, min(max(cross_term, -cross), cross), p11


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
    the symmetrization average.  The filter applies the same projection
    to its scalar covariance entries after every update.

    Shapes: covariance [2, 2] -> [2, 2]
    Effects: pure
    """
    p = np.asarray(covariance, dtype=float)
    p00, p01, p11 = _project_psd(
        float(p[0, 0]), float(p[0, 1]), float(p[1, 0]), float(p[1, 1]), floor
    )
    return np.array([[p00, p01], [p01, p11]])


@dataclass(frozen=True, slots=True, init=False)
class KalmanState:
    """An estimate/covariance pair ``(x_hat, P)`` at a given time.

    The state is stored as seven floats: ``time``, the estimate
    ``position``/``velocity`` and the covariance entries ``p00``,
    ``p01``, ``p10``, ``p11`` (row-major).  ``x_hat`` (``2x1``) and
    ``covariance`` (``2x2``) are derived array *copies*.  Instances are
    immutable value objects, so they are safe to checkpoint for message
    replay.

    The constructor takes the array form ``KalmanState(time, x_hat,
    covariance)`` and rejects non-finite entries with
    :class:`~repro.errors.FilterError`; the filter itself builds states
    through :meth:`from_scalars`, which applies the same check to the
    scalars.
    """

    time: float
    position: float
    velocity: float
    p00: float
    p01: float
    p10: float
    p11: float

    def __init__(self, time: float, x_hat: np.ndarray, covariance: np.ndarray) -> None:
        """Parse the array form of a state.

        Units: time [s]
        Shapes: x_hat array, covariance array
        """
        x = np.array(x_hat, dtype=float).reshape(2, 1)
        p = np.array(covariance, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(x)):
            raise FilterError(f"non-finite state estimate: {x.ravel()}")
        if not np.all(np.isfinite(p)):
            raise FilterError(f"non-finite covariance: {p.ravel()}")
        _fill(
            self,
            float(time),
            float(x[0, 0]),
            float(x[1, 0]),
            float(p[0, 0]),
            float(p[0, 1]),
            float(p[1, 0]),
            float(p[1, 1]),
        )

    @classmethod
    def from_scalars(
        cls,
        time: float,
        position: float,
        velocity: float,
        p00: float,
        p01: float,
        p10: float,
        p11: float,
    ) -> "KalmanState":
        """A state from its seven scalars, rejecting non-finite entries.

        Units: time [s], position [m], velocity [m/s]
        Effects: pure
        """
        if not (math.isfinite(position) and math.isfinite(velocity)):
            raise FilterError(
                f"non-finite state estimate: [{position} {velocity}]"
            )
        if not (
            math.isfinite(p00)
            and math.isfinite(p01)
            and math.isfinite(p10)
            and math.isfinite(p11)
        ):
            raise FilterError(f"non-finite covariance: [{p00} {p01} {p10} {p11}]")
        state = object.__new__(cls)
        _fill(state, time, position, velocity, p00, p01, p10, p11)
        return state

    @property
    def x_hat(self) -> np.ndarray:
        """The ``[p, v]`` estimate as a fresh ``2x1`` array.

        Shapes: -> [2, 1]
        """
        return np.array([[self.position], [self.velocity]])

    @property
    def covariance(self) -> np.ndarray:
        """The covariance ``P`` as a fresh ``2x2`` array.

        Shapes: -> [2, 2]
        """
        return np.array([[self.p00, self.p01], [self.p10, self.p11]])

    @property
    def position_std(self) -> float:
        """Standard deviation of the position estimate."""
        return math.sqrt(max(self.p00, 0.0))

    @property
    def velocity_std(self) -> float:
        """Standard deviation of the velocity estimate."""
        return math.sqrt(max(self.p11, 0.0))

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


def _fill(
    state: KalmanState,
    time: float,
    position: float,
    velocity: float,
    p00: float,
    p01: float,
    p10: float,
    p11: float,
) -> None:
    """Set the seven fields of a state under construction (it is frozen)."""
    object.__setattr__(state, "time", time)
    object.__setattr__(state, "position", position)
    object.__setattr__(state, "velocity", velocity)
    object.__setattr__(state, "p00", p00)
    object.__setattr__(state, "p01", p01)
    object.__setattr__(state, "p10", p10)
    object.__setattr__(state, "p11", p11)


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
        dt = self._dt
        dt2 = dt * dt
        accel_var = self._accel_var = bounds.acceleration_variance
        # The non-trivial entries of G, Q and R (F = [[1, dt], [0, 1]];
        # Q is symmetric, R diagonal).
        self._g0 = 0.5 * dt2
        self._q00 = 0.25 * dt2 * dt2 * accel_var
        self._q01 = 0.5 * dt2 * dt * accel_var
        self._q11 = dt2 * accel_var
        self._r0 = bounds.position_variance
        self._r1 = bounds.velocity_variance
        self._noiseless = not (self._r0 or self._r1)

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
        return np.array([[1.0, self._dt], [0.0, 1.0]])

    @property
    def g_matrix(self) -> np.ndarray:
        """Control matrix ``G`` (copy).

        Shapes: -> [2, 1]
        """
        return np.array([[self._g0], [self._dt]])

    @property
    def q_matrix(self) -> np.ndarray:
        """Process-noise covariance ``Q`` (copy).

        Shapes: -> [2, 2]
        """
        return np.array([[self._q00, self._q01], [self._q01, self._q11]])

    @property
    def r_matrix(self) -> np.ndarray:
        """Measurement-noise covariance ``R`` (copy).

        Shapes: -> [2, 2]
        """
        return np.array([[self._r0, 0.0], [0.0, self._r1]])

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
        Effects: pure
        """
        check_nonnegative(position_var, "position_var")
        check_nonnegative(velocity_var, "velocity_var")
        return KalmanState.from_scalars(
            float(time),
            float(position),
            float(velocity),
            float(position_var),
            0.0,
            0.0,
            float(velocity_var),
        )

    def predict(self, state: KalmanState, accel_measured: float) -> KalmanState:
        """Extrapolate one step: ``x <- F x + G a_s``, ``P <- F P F' + Q``.

        Effects: pure
        """
        return _propagate(
            state,
            float(accel_measured),
            self._dt,
            self._g0,
            self._q00,
            self._q01,
            self._q11,
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

        Effects: pure
        """
        z0 = float(position_measured)
        z1 = float(velocity_measured)
        if self._noiseless:
            # Noiseless sensing (R = 0): the measurement is exact and the
            # posterior is the measurement with zero uncertainty.  This
            # keeps the perfect-communication test setups working.
            return KalmanState.from_scalars(
                predicted.time, z0, z1, 0.0, 0.0, 0.0, 0.0
            )
        r0 = self._r0
        r1 = self._r1
        p00 = predicted.p00
        p01 = predicted.p01
        p10 = predicted.p10
        p11 = predicted.p11
        # S = P + R; K = P S^-1 = P adj(S) / det(S).
        s00 = p00 + r0
        s11 = p11 + r1
        det = s00 * s11 - p01 * p10
        if det == 0.0 or not math.isfinite(det):
            raise FilterError(
                "singular innovation covariance; use a nonzero noise bound "
                "or a nonzero prior variance"
            )
        k00 = (p00 * s11 - p01 * p10) / det
        k01 = (p01 * s00 - p00 * p01) / det
        k10 = (p10 * s11 - p11 * p10) / det
        k11 = (p11 * s00 - p10 * p01) / det
        y0 = z0 - predicted.position
        y1 = z1 - predicted.velocity
        position = predicted.position + (k00 * y0 + k01 * y1)
        velocity = predicted.velocity + (k10 * y0 + k11 * y1)
        # Joseph form (I - K) P (I - K)' + K R K', entry by entry.
        a00 = 1.0 - k00
        a11 = 1.0 - k11
        m00 = a00 * p00 - k01 * p10
        m01 = a00 * p01 - k01 * p11
        m10 = a11 * p10 - k10 * p00
        m11 = a11 * p11 - k10 * p01
        kr00 = k00 * r0
        kr01 = k01 * r1
        kr10 = k10 * r0
        kr11 = k11 * r1
        j00 = (m00 * a00 - m01 * k01) + (kr00 * k00 + kr01 * k01)
        j01 = (m01 * a11 - m00 * k10) + (kr00 * k10 + kr01 * k11)
        j10 = (m10 * a00 - m11 * k01) + (kr10 * k00 + kr11 * k01)
        j11 = (m11 * a11 - m10 * k10) + (kr10 * k10 + kr11 * k11)
        # Joseph form is symmetric PSD in exact arithmetic only; project
        # out the roundoff so long replayed chains cannot accumulate an
        # indefinite covariance (negative variance -> NaN bands).
        c00, c01, c11 = _project_psd(j00, j01, j10, j11, 0.0)
        return KalmanState.from_scalars(
            predicted.time, position, velocity, c00, c01, c01, c11
        )

    def extrapolate(
        self, state: KalmanState, accel_measured: float, dt: float
    ) -> KalmanState:
        """Predict over an arbitrary horizon ``dt`` (not just ``dt_s``).

        Units: dt [s]
        Effects: pure

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
        accel_var = self._accel_var
        return _propagate(
            state,
            float(accel_measured),
            dt,
            0.5 * dt * dt,
            0.25 * dt**4 * accel_var,
            0.5 * dt**3 * accel_var,
            dt * dt * accel_var,
        )

    def exact_state(
        self, time: float, position: float, velocity: float
    ) -> KalmanState:
        """A zero-covariance state from exact (message) values.

        Units: time [s], position [m], velocity [m/s]
        Effects: pure

        Message content is accurate in the paper's model, so replay
        restarts the filter from the message state with zero uncertainty.
        """
        return KalmanState.from_scalars(
            float(time), float(position), float(velocity), 0.0, 0.0, 0.0, 0.0
        )


def _propagate(
    state: KalmanState,
    accel: float,
    dt: float,
    g0: float,
    q00: float,
    q01: float,
    q11: float,
) -> KalmanState:
    """``x <- F x + G a``, ``P <- F P F' + Q`` for ``F = [[1, dt], [0, 1]]``.

    ``g0`` is the position entry of ``G`` (its velocity entry is ``dt``);
    ``q00``, ``q01``, ``q11`` the entries of the symmetric ``Q``.

    Units: dt [s]
    Effects: pure
    """
    fp01 = state.p01 + dt * state.p11
    return KalmanState.from_scalars(
        state.time + dt,
        state.position + dt * state.velocity + g0 * accel,
        state.velocity + dt * accel,
        (state.p00 + dt * state.p10) + fp01 * dt + q00,
        fp01 + q01,
        state.p10 + state.p11 * dt + q01,
        state.p11 + q11,
    )
