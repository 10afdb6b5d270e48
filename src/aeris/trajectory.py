"""Pre-filed 4D mission trajectories: piecewise-linear interpolation plus a
mean-reverting deviation process for the realized path.

The deviation is an Ornstein-Uhlenbeck process applied additively per axis,
discretized exactly on the slot grid (no Euler error), started from its
stationary distribution so every slot has the same per-axis std.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scene import Position3


@dataclass(frozen=True)
class Waypoint:
    t: float
    pos: Position3

    def __post_init__(self):
        t = float(self.t)
        if not math.isfinite(t) or t < 0:
            raise ValueError("waypoint time must be finite and non-negative")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class Trajectory4D:
    """A filed flight plan: at least two waypoints, strictly increasing times,
    implied leg speeds no faster than v_max."""

    aircraft_id: str
    waypoints: tuple
    v_max: float = 60.0
    _t: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _p: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        t = np.array([w.t for w in self.waypoints], dtype=float)
        p = np.array([[w.pos.x, w.pos.y, w.pos.z] for w in self.waypoints], dtype=float)
        if not np.all(np.diff(t) > 0):
            raise ValueError("waypoint times must be strictly increasing")
        seg = np.linalg.norm(np.diff(p, axis=0), axis=1) / np.diff(t)
        if np.any(seg > self.v_max * (1 + 1e-9)):
            raise ValueError(f"leg speed exceeds v_max={self.v_max}")
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_p", p)

    @property
    def t_start(self) -> float:
        return float(self._t[0])

    @property
    def t_end(self) -> float:
        return float(self._t[-1])


def positions_at(traj: Trajectory4D, times) -> np.ndarray:
    """Planned positions, shape (len(times), 3). Exact at waypoints; clamps to
    the terminal pads outside the plan."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, 3))
    for ax in range(3):
        out[:, ax] = np.interp(times, traj._t, traj._p[:, ax])
    return out


@dataclass(frozen=True)
class DeviationParams:
    """Stationary per-axis deviation std (meters) and mean-reversion rate (1/s)."""

    sigma_dev: float = 3.0
    reversion_rate: float = 0.2

    def __post_init__(self):
        if self.sigma_dev < 0:
            raise ValueError("sigma_dev must be non-negative")
        if self.reversion_rate <= 0:
            raise ValueError("reversion_rate must be positive")


def ou_offsets(dev: DeviationParams, dt: float, n_slots: int, seed) -> np.ndarray:
    """Exact-discretization OU offsets on a uniform grid, shape (n_slots, 3).

    Stationary start: each slot's per-axis offset is N(0, sigma_dev^2), with
    lag-L autocorrelation exp(-reversion_rate * L).
    """
    rng = np.random.default_rng(seed)
    rho = math.exp(-dev.reversion_rate * dt)
    q = dev.sigma_dev * math.sqrt(1.0 - rho * rho)
    a, b, c = (dev.sigma_dev * rng.standard_normal(3)).tolist()
    x = [(a, b, c)]
    if n_slots > 1:
        # Python floats: per step the same one multiply and one add per axis as
        # numpy row arithmetic, without its per-call overhead
        for qa, qb, qc in (q * rng.standard_normal((n_slots - 1, 3))).tolist():
            a, b, c = rho * a + qa, rho * b + qb, rho * c + qc
            x.append((a, b, c))
    return np.array(x)


def realize(traj: Trajectory4D, dev: DeviationParams, grid, seed) -> np.ndarray:
    """Realized position series on the slot grid: planned path plus OU offsets.

    Deterministic for a fixed seed; sigma_dev = 0 reproduces the plan exactly.
    """
    times = grid.times()
    planned = positions_at(traj, times)
    if dev.sigma_dev == 0.0:
        return planned
    return planned + ou_offsets(dev, grid.dt, grid.n_slots, seed)
