"""Interval reachability analysis for delayed messages.

Implements Eq. (2) of the paper: given the exact state ``(p(t_k), v(t_k))``
carried by the latest message and the physical limits of the sender, the
position at the current time ``t`` lies in ``[p_min(t), p_max(t)]`` where
the maximum assumes full acceleration ``a_max`` until the velocity cap
``v_max`` and cruising afterwards:

.. math::

    p_{max}(t) = \\begin{cases}
      p(t_k) + v(t_k)\\,\\Delta + \\tfrac12 a_{max} \\Delta^2,
        & v(t_k) + a_{max}\\Delta \\le v_{max};\\\\
      p(t_k) + v_{max}\\,\\Delta - \\frac{(v_{max} - v(t_k))^2}{2 a_{max}},
        & \\text{otherwise},
    \\end{cases}

with ``Δ = t - t_k``; ``p_min`` mirrors it with ``a_min``/``v_min``.
The second branch is the closed form of "accelerate to the cap, then
cruise": total distance at the cap minus the distance lost while still
accelerating.  These bounds are *sound* for the saturating
:class:`~repro.dynamics.vehicle.VehicleModel` — a property the test suite
verifies exhaustively — which is what makes the runtime monitor's unsafe
set an over-approximation and hence the safety theorem valid.

The analyzer also propagates whole *intervals* of initial conditions,
needed when the starting knowledge is itself a band (e.g. a noisy sensor
reading): the extremal trajectories start from the extremal corners.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamics.state import VehicleState
from repro.dynamics.vehicle import VehicleLimits
from repro.errors import ConfigurationError
from repro.utils.intervals import Interval

__all__ = ["ReachBand", "ReachabilityAnalyzer"]


@dataclass(frozen=True, slots=True)
class ReachBand:
    """Reachable position/velocity intervals of a vehicle at one time."""

    time: float
    position: Interval
    velocity: Interval

    def __str__(self) -> str:
        return (
            f"reach[t={self.time:.3f}s p in {self.position} "
            f"v in {self.velocity}]"
        )


class ReachabilityAnalyzer:
    """Eq. (2)-style forward reachability under velocity/acceleration limits.

    Parameters
    ----------
    limits:
        Physical limits of the *observed* vehicle.  Using limits narrower
        than the vehicle's true capabilities produces the paper's
        *aggressive* (under-approximating) estimate; the monitor must be
        given the true physical limits for soundness.
    """

    def __init__(self, limits: VehicleLimits) -> None:
        self._limits = limits

    @property
    def limits(self) -> VehicleLimits:
        """The limits assumed for the observed vehicle."""
        return self._limits

    # ------------------------------------------------------------------
    # Scalar extremal trajectories
    # ------------------------------------------------------------------
    def max_position(self, position: float, velocity: float, elapsed: float) -> float:
        """Upper position bound after ``elapsed`` seconds (Eq. (2)).

        Units: position [m], velocity [m/s], elapsed [s] -> [m]
        """
        self._check_elapsed(elapsed)
        return _extremal_position(
            position,
            self._limits.clip_velocity(velocity),
            elapsed,
            self._limits.a_max,
            self._limits.v_max,
        )

    def min_position(self, position: float, velocity: float, elapsed: float) -> float:
        """Lower position bound after ``elapsed`` seconds (mirror of Eq. (2)).

        Units: position [m], velocity [m/s], elapsed [s] -> [m]
        """
        self._check_elapsed(elapsed)
        return _extremal_position(
            position,
            self._limits.clip_velocity(velocity),
            elapsed,
            self._limits.a_min,
            self._limits.v_min,
        )

    def max_velocity(self, velocity: float, elapsed: float) -> float:
        """Upper velocity bound after ``elapsed`` seconds.

        Units: velocity [m/s], elapsed [s] -> [m/s]
        """
        self._check_elapsed(elapsed)
        v0 = self._limits.clip_velocity(velocity)
        return min(v0 + self._limits.a_max * elapsed, self._limits.v_max)

    def min_velocity(self, velocity: float, elapsed: float) -> float:
        """Lower velocity bound after ``elapsed`` seconds.

        Units: velocity [m/s], elapsed [s] -> [m/s]
        """
        self._check_elapsed(elapsed)
        v0 = self._limits.clip_velocity(velocity)
        return max(v0 + self._limits.a_min * elapsed, self._limits.v_min)

    # ------------------------------------------------------------------
    # Bands
    # ------------------------------------------------------------------
    def band_from_state(self, state: VehicleState, stamp: float, now: float) -> ReachBand:
        """Reachable band at ``now`` from an exact state stamped ``stamp``.

        Units: stamp [s], now [s]
        Effects: pure

        The four bounds of :meth:`min_position`, :meth:`max_position`,
        :meth:`min_velocity` and :meth:`max_velocity`, computed in one
        pass with the velocity clipped once.
        """
        elapsed = self._elapsed(stamp, now)
        limits = self._limits
        v0 = limits.clip_velocity(state.velocity)
        return ReachBand(
            time=float(now),
            position=Interval(
                _extremal_position(
                    state.position, v0, elapsed, limits.a_min, limits.v_min
                ),
                _extremal_position(
                    state.position, v0, elapsed, limits.a_max, limits.v_max
                ),
            ),
            velocity=Interval(
                max(v0 + limits.a_min * elapsed, limits.v_min),
                min(v0 + limits.a_max * elapsed, limits.v_max),
            ),
        )

    def band_from_intervals(
        self,
        position: Interval,
        velocity: Interval,
        stamp: float,
        now: float,
    ) -> ReachBand:
        """Reachable band from *interval* initial knowledge.

        Units: position [m], velocity [m/s], stamp [s], now [s]
        Effects: pure

        Monotonicity of the extremal trajectories in initial position and
        velocity means the extremes come from the extreme corners of the
        initial box, so four scalar evaluations suffice.
        """
        if position.is_empty or velocity.is_empty:
            raise ConfigurationError(
                "cannot propagate an empty initial band"
            )
        elapsed = self._elapsed(stamp, now)
        limits = self._limits
        v_lo = limits.clip_velocity(velocity.lo)
        v_hi = limits.clip_velocity(velocity.hi)
        return ReachBand(
            time=float(now),
            position=Interval(
                _extremal_position(
                    position.lo, v_lo, elapsed, limits.a_min, limits.v_min
                ),
                _extremal_position(
                    position.hi, v_hi, elapsed, limits.a_max, limits.v_max
                ),
            ),
            velocity=Interval(
                max(v_lo + limits.a_min * elapsed, limits.v_min),
                min(v_hi + limits.a_max * elapsed, limits.v_max),
            ),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _elapsed(stamp: float, now: float) -> float:
        elapsed = float(now) - float(stamp)
        if elapsed < -1e-12:
            raise ConfigurationError(
                f"reachability queried before the stamp: now={now} < stamp={stamp}"
            )
        return max(elapsed, 0.0)

    @staticmethod
    def _check_elapsed(elapsed: float) -> None:
        if elapsed < 0.0:
            raise ConfigurationError(
                f"elapsed time must be >= 0, got {elapsed}"
            )


def _extremal_position(
    position: float, v0: float, elapsed: float, accel: float, v_cap: float
) -> float:
    """Position after driving the extremal input toward ``v_cap``.

    Units: position [m], v0 [m/s], elapsed [s], accel [m/s^2], v_cap [m/s] -> [m]
    Effects: pure

    ``v0`` is the already clipped initial velocity and ``elapsed`` an
    already checked horizon; ``accel`` and ``v_cap`` are either both the
    "max" pair or both the "min" pair; the algebra is symmetric.
    """
    if elapsed == 0.0:
        return position
    v_end = v0 + accel * elapsed
    toward_cap = (accel > 0.0 and v_end > v_cap) or (
        accel < 0.0 and v_end < v_cap
    )
    if accel == 0.0 or not toward_cap:
        return position + v0 * elapsed + 0.5 * accel * elapsed * elapsed
    # Saturating branch of Eq. (2): cruise distance at the cap minus the
    # distance deficit accumulated while still ramping up (or down).
    return position + v_cap * elapsed - (v_cap - v0) ** 2 / (2.0 * accel)
