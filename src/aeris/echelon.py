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

    def realized_pos(self, node_id: str, t) -> np.ndarray:
        """Where a node really is at time t, shaped (3,), or at each of an
        array of times, shaped (times, 3): its realized track interpolated
        between slots, or its ground site."""
        t = np.asarray(t, dtype=float)
        if node_id not in self.trajectories:
            return np.broadcast_to(self.ground_positions[node_id].as_array(), (*t.shape, 3)).copy()
        series = self.realized[node_id]
        times = self.grid.times()
        return np.stack([np.interp(t, times, series[:, ax]) for ax in range(3)], axis=-1)

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


def local_mean_series(view, world, link, times) -> np.ndarray:
    """Vectorized local-tier forecast means over many target times, from the
    positions of local_positions and one map lookup.

    A batch of forecasts passes a sequence of each argument instead, one entry
    per forecast, and gets every forecast's means back concatenated in entry
    order, still from one map lookup. The map and the plan lookups work row by
    row, so each mean is bit for bit the one its forecast gets alone. The
    views of a batch must share their map and its worlds must be one world at
    several clocks (WorldState.at_time)."""
    if isinstance(view, EchelonView):
        view, world, link, times = [view], [world], [link], [times]
    radio_map = view[0].map_snapshot
    if any(v.map_snapshot is not radio_map for v in view):
        raise ValueError("the views of one batch must share one map")
    tx, rx = np.split(_place([*view, *view], [*world, *world],
                             [i for i, _ in link] + [j for _, j in link], [*times, *times]), 2)
    return radio_map.query_many(tx, rx)


def local_positions(view: EchelonView, world: WorldState, nodes, times) -> np.ndarray:
    """Where the local tier places each node at many target times, shaped
    (nodes, times, 3): realized now, extrapolated along the plan. Every node
    must be inside the view's region and every time inside its horizon."""
    times = np.asarray(times, dtype=float)
    return _place([view] * len(nodes), [world] * len(nodes), list(nodes),
                  [times] * len(nodes)).reshape(len(nodes), times.size, 3)


def _place(views, worlds, nodes, times) -> np.ndarray:
    """local_positions for entries (views[e], worlds[e], nodes[e], times[e]),
    one node each, their rows stacked entry by entry as (rows, 3). The worlds
    must differ only in their clocks: each node takes one track lookup at all
    its entries' clocks and one plan lookup over all its rows."""
    if not len(nodes):
        return np.empty((0, 3))
    base = worlds[0]
    for view, world in zip(views, worlds):
        if view.tier != LOCAL:
            raise ValueError("series helper is for the local tier")
        if not (world.trajectories is base.trajectories and world.realized is base.realized
                and world.ground_positions is base.ground_positions and world.grid is base.grid):
            raise ValueError("the worlds of one batch must be one world at several clocks")
    times = [np.asarray(t, dtype=float) for t in times]
    sizes = np.array([t.size for t in times])
    flat = np.concatenate(times)
    now = np.array([world.now_s for world in worlds])
    full = np.flatnonzero(sizes)
    if full.size:
        last = np.maximum.reduceat(flat, (np.cumsum(sizes) - sizes)[full])
        horizon = np.array([view.horizon_s for view in views])[full]
        if np.any(last - now[full] > horizon + 1e-9):
            raise OutOfRange("series extends beyond the local horizon")
    index = {}
    code = np.array([index.setdefault(node, len(index)) for node in nodes])
    groups = [np.flatnonzero(code == k) for k in range(len(index))]
    here = np.empty((len(nodes), 3))
    for node, es in zip(index, groups):
        here[es] = base.realized_pos(node, now[es])
    off = here - np.array([view.region_center.as_array() for view in views])
    dist = np.linalg.norm(off, axis=1)
    outside = np.flatnonzero(dist > np.array([view.region_radius for view in views]))
    if outside.size:
        raise OutOfRegion(f"{nodes[outside[0]]} outside local region")
    owner = np.repeat(np.arange(len(nodes)), sizes)
    row_code = code[owner]
    out = np.empty((flat.size, 3))
    for k, (node, es) in enumerate(zip(index, groups)):
        rows = np.flatnonzero(row_code == k)
        plan = base.planned_pos(node, np.concatenate([now[es], flat[rows]]))
        out[rows] = here[owner[rows]] + (plan[es.size:] - plan[np.searchsorted(es, owner[rows])])
    return out
