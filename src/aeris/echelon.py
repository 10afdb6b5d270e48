"""Information tiers and their gain forecasts.

Three views produce forecasts for the same link with tier-appropriate inputs:

* central  - planned positions plus a possibly stale map snapshot; trajectory
  deviations enter as extra variance through a numeric gain sensitivity.
* local    - realized current positions (within a region) extrapolated along
  the plan, plus a fresh map; a small extrapolation term grows with lead time.
* individual - an instantaneous own-link measurement anchors the forecast:
  exact at lead zero, blending back to the map as the link geometry
  decorrelates from the measured point.

Uncertainty composes additively in variance across sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange, OutOfRegion
from .radio_env import GroundTruthChannel, RadioMap
from .scene import Position3, Scene
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
    measurement_access: str = "none"

    def __post_init__(self):
        if self.tier not in (CENTRAL, LOCAL, INDIVIDUAL):
            raise ValueError(f"unknown tier {self.tier}")
        has_region = self.region_center is not None and self.region_radius is not None
        if (self.tier == LOCAL) != has_region:
            raise ValueError("region fields are required exactly for the local tier")


@dataclass(frozen=True)
class GainForecast:
    mean_db: float
    std_db: float
    lead_time_s: float

    def __post_init__(self):
        if self.std_db < 0:
            raise ValueError("std_db must be non-negative")


def validate_horizons(central_s: float, local_s: float, individual_s: float) -> None:
    """Enforce the long/middle/short-term ordering across tiers."""
    if not central_s > local_s > individual_s > 0:
        raise ValueError("horizons must satisfy central > local > individual > 0")


@dataclass(frozen=True)
class WorldState:
    """Versioned snapshot of everything forecasts may consult."""

    now_s: float
    scene: Scene
    truth: GroundTruthChannel
    trajectories: dict
    deviation: DeviationParams
    grid: object
    realized: dict
    ground_positions: dict

    def is_aircraft(self, node_id: str) -> bool:
        return node_id in self.trajectories

    def planned_pos(self, node_id: str, t: float) -> np.ndarray:
        if node_id in self.trajectories:
            return positions_at(self.trajectories[node_id], np.array([t]))[0]
        return self.ground_positions[node_id].as_array()

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


def _map_mean(radio_map: RadioMap, tx: np.ndarray, rx: np.ndarray) -> float:
    return float(radio_map.query_many(tx[None], rx[None])[0])


def _gain_sensitivity_sq(radio_map: RadioMap, tx: np.ndarray, rx: np.ndarray,
                          move_tx: bool, move_rx: bool, step: float = 1.0) -> float:
    """Sum over movable endpoints and axes of (dB gain per meter)^2,
    central-difference with a 1 m step."""
    probes_tx, probes_rx = [], []
    for endpoint, moves in ((0, move_tx), (1, move_rx)):
        if not moves:
            continue
        for ax in range(3):
            for sgn in (+1.0, -1.0):
                dtx, drx = tx.copy(), rx.copy()
                (dtx if endpoint == 0 else drx)[ax] += sgn * step
                probes_tx.append(dtx)
                probes_rx.append(drx)
    if not probes_tx:
        return 0.0
    vals = radio_map.query_many(np.array(probes_tx), np.array(probes_rx))
    slopes = (vals[0::2] - vals[1::2]) / (2.0 * step)
    return float(np.sum(slopes ** 2))


def _midpoint_path_length(world: WorldState, i: str, j: str, t0: float, t1: float) -> float:
    """Arc length of the planned link midpoint between t0 and t1 (non-decreasing in t1)."""
    if t1 <= t0:
        return 0.0
    n = max(2, int(math.ceil((t1 - t0) / world.grid.dt)) + 1)
    ts = np.linspace(t0, t1, n)
    mids = 0.5 * (_planned_many(world, i, ts) + _planned_many(world, j, ts))
    return float(np.sum(np.linalg.norm(np.diff(mids, axis=0), axis=1)))


def _planned_many(world: WorldState, node_id: str, ts: np.ndarray) -> np.ndarray:
    if node_id in world.trajectories:
        return positions_at(world.trajectories[node_id], ts)
    return np.broadcast_to(world.ground_positions[node_id].as_array(), (ts.size, 3)).copy()


def forecast_gain(view: EchelonView, world: WorldState, link, target_time: float) -> GainForecast:
    """Forecast the (i, j) large-scale gain at target_time from one tier's view."""
    i, j = link
    lead = target_time - world.now_s
    if lead < -1e-9 or lead > view.horizon_s + 1e-9:
        raise OutOfRange(f"target {target_time} outside {view.tier} horizon {view.horizon_s}s")
    lead = max(lead, 0.0)
    rmap = view.map_snapshot
    residual = rmap.residual_std_db

    if view.tier == CENTRAL:
        tx = world.planned_pos(i, target_time)
        rx = world.planned_pos(j, target_time)
        mean = _map_mean(rmap, tx, rx)
        var = residual ** 2
        if world.deviation.sigma_dev > 0:
            sens = _gain_sensitivity_sq(rmap, tx, rx, world.is_aircraft(i), world.is_aircraft(j))
            var += world.deviation.sigma_dev ** 2 * sens
        return GainForecast(mean, math.sqrt(var), lead)

    if view.tier == LOCAL:
        center = view.region_center.as_array()
        for node in (i, j):
            if np.linalg.norm(world.realized_pos(node, world.now_s) - center) > view.region_radius:
                raise OutOfRegion(f"{node} outside local region")
        tx = _extrapolated_pos(world, i, target_time)
        rx = _extrapolated_pos(world, j, target_time)
        mean = _map_mean(rmap, tx, rx)
        var = residual ** 2
        if world.deviation.sigma_dev > 0 and lead > 0:
            grow = 1.0 - math.exp(-2.0 * world.deviation.reversion_rate * lead)
            sens = _gain_sensitivity_sq(rmap, tx, rx, world.is_aircraft(i), world.is_aircraft(j))
            var += world.deviation.sigma_dev ** 2 * grow * sens
        return GainForecast(mean, math.sqrt(var), lead)

    # individual
    if view.measurement_access != "own-links-instantaneous":
        raise ValueError("individual tier requires instantaneous own-link measurements")
    tx_now = world.realized_pos(i, world.now_s)
    rx_now = world.realized_pos(j, world.now_s)
    measured = float(world.truth.gain_db_many(tx_now[None], rx_now[None])[0])
    if lead == 0.0:
        return GainForecast(measured, 0.0, 0.0)
    moved = _midpoint_path_length(world, i, j, world.now_s, target_time)
    rho = math.exp(-moved / world.truth.params.decorr_dist)
    tx_t = _extrapolated_pos(world, i, target_time)
    rx_t = _extrapolated_pos(world, j, target_time)
    mean_map_t = _map_mean(rmap, tx_t, rx_t)
    mean_map_now = _map_mean(rmap, tx_now, rx_now)
    mean = mean_map_t + rho * (measured - mean_map_now)
    std = residual * math.sqrt(max(0.0, 1.0 - rho * rho))
    return GainForecast(mean, std, lead)


def _extrapolated_pos(world: WorldState, node_id: str, t: float) -> np.ndarray:
    """Realized position now, advanced along the plan to time t."""
    now = world.realized_pos(node_id, world.now_s)
    return now + (world.planned_pos(node_id, t) - world.planned_pos(node_id, world.now_s))


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
    for node in nodes:
        if np.linalg.norm(world.realized_pos(node, world.now_s) - center) > view.region_radius:
            raise OutOfRegion(f"{node} outside local region")
    return np.array([_extrapolated_many(world, node, times) for node in nodes])


def _extrapolated_many(world: WorldState, node_id: str, times: np.ndarray) -> np.ndarray:
    now = world.realized_pos(node_id, world.now_s)
    planned_now = world.planned_pos(node_id, world.now_s)
    return now + (_planned_many(world, node_id, times) - planned_now)
