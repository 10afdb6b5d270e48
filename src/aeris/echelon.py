"""Information tiers and their gain forecasts.

Three views forecast the mean large-scale gain of the same link from
tier-appropriate inputs:

* central  - planned positions plus a possibly stale map snapshot.
* local    - realized current positions (within a region) extrapolated along
  the plan, plus a fresh map.
* individual - an instantaneous own-link measurement, held as the forecast
  for every target time within the tier's horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange, OutOfRegion
from .radio_env import GroundTruthChannel, RadioMap
from .scene import Position3
from .trajectory import DeviationParams, positions_at

CENTRAL = "central"
LOCAL = "local"
INDIVIDUAL = "individual"


@dataclass(frozen=True)
class EchelonView:
    """Immutable descriptor of what one tier can see."""

    tier: str
    map_snapshot: RadioMap
    horizon_s: float
    region_center: Position3 | None = None
    region_radius: float | None = None

    def __post_init__(self):
        if self.tier not in (CENTRAL, LOCAL, INDIVIDUAL):
            raise ValueError(f"unknown tier {self.tier}")
        has_region = self.region_center is not None and self.region_radius is not None
        if (self.tier == LOCAL) != has_region:
            raise ValueError("region fields are required exactly for the local tier")


@dataclass(frozen=True)
class GainForecast:
    mean_db: float


@dataclass(frozen=True)
class WorldState:
    """Versioned snapshot of everything forecasts may consult."""

    now_s: float
    truth: GroundTruthChannel
    trajectories: dict
    deviation: DeviationParams
    grid: object
    realized: dict
    ground_positions: dict

    def planned_pos(self, node_id: str, times: np.ndarray) -> np.ndarray:
        """Where the plan puts a node at each of times, shaped (times, 3)."""
        if node_id in self.trajectories:
            return positions_at(self.trajectories[node_id], times)
        return np.broadcast_to(self.ground_positions[node_id].as_array(), (times.size, 3)).copy()

    def realized_pos(self, node_id: str, t: float) -> np.ndarray:
        if node_id not in self.trajectories:
            return self.ground_positions[node_id].as_array()
        series = self.realized[node_id]
        times = self.grid.times()
        out = np.empty(3)
        for ax in range(3):
            out[ax] = np.interp(t, times, series[:, ax])
        return out

    def at_time(self, now_s: float) -> "WorldState":
        return replace(self, now_s=now_s)


def forecast_gain(view: EchelonView, world: WorldState, link, target_time: float) -> GainForecast:
    """Forecast the (i, j) large-scale gain at target_time from one tier's view."""
    i, j = link
    lead = target_time - world.now_s
    if lead < -1e-9 or lead > view.horizon_s + 1e-9:
        raise OutOfRange(f"target {target_time} outside {view.tier} horizon {view.horizon_s}s")
    if view.tier == CENTRAL:
        at = np.array([target_time])
        tx, rx = world.planned_pos(i, at), world.planned_pos(j, at)
        return GainForecast(float(view.map_snapshot.query_many(tx, rx)[0]))
    if view.tier == LOCAL:
        return GainForecast(float(local_mean_series(view, world, link, [target_time])[0]))
    tx = world.realized_pos(i, world.now_s)
    rx = world.realized_pos(j, world.now_s)
    return GainForecast(float(world.truth.gain_db_many(tx[None], rx[None])[0]))


def local_mean_series(view: EchelonView, world: WorldState, link, times) -> np.ndarray:
    """Vectorized local-tier forecast means over many target times.

    Same positions and map as forecast_gain on the local tier, batched into a
    single map lookup; used by the tactical layer for window-sized series.
    """
    tx, rx = local_positions(view, world, link, times)
    return view.map_snapshot.query_many(tx, rx)


def local_positions(view: EchelonView, world: WorldState, nodes, times) -> np.ndarray:
    """Where the local tier places each node at many target times, shaped
    (nodes, times, 3): realized now, extrapolated along the plan. Every node
    must be inside the view's region and every time inside its horizon."""
    if view.tier != LOCAL:
        raise ValueError("series helper is for the local tier")
    times = np.asarray(times, dtype=float)
    if times.size and float(times.max()) - world.now_s > view.horizon_s + 1e-9:
        raise OutOfRange("series extends beyond the local horizon")
    center = view.region_center.as_array()
    now = [world.realized_pos(node, world.now_s) for node in nodes]
    for node, pos in zip(nodes, now):
        if np.linalg.norm(pos - center) > view.region_radius:
            raise OutOfRegion(f"{node} outside local region")
    now_s = np.array([world.now_s])
    return np.array([pos + (world.planned_pos(node, times) - world.planned_pos(node, now_s)[0])
                     for node, pos in zip(nodes, now)])
