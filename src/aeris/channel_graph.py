"""Spatio-temporal channel graph: fuse planned trajectories with the radio map
into per-slot expected link gains for every node pair within range.

The graph is a pure memoization of (trajectory interpolation o map query):
spot recomputation of any stored weight reproduces it bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .radio_env import RadioMap
from .trajectory import positions_at

RANGE_CUTOFF_M = 1500.0  # the longest link synthesize puts in the graph


@dataclass(frozen=True)
class SlotGrid:
    """Uniform time discretization from t = 0: slot k covers [k*dt, (k+1)*dt)."""

    dt: float = 0.1
    n_slots: int = 1200

    def __post_init__(self):
        # bool is an int, and NaN fails every comparison
        real = isinstance(self.dt, (int, float, np.integer, np.floating))
        if isinstance(self.dt, bool) or not (real and -math.inf < self.dt < math.inf):
            raise ConfigInvalid("grid.dt", f"must be a finite number, not {self.dt!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        # a slot count sizes arrays, so 400.0 is no slot count either
        if isinstance(self.n_slots, bool) or not isinstance(self.n_slots, (int, np.integer)):
            raise ConfigInvalid("grid.n_slots", f"must be an integer, not {self.n_slots!r}")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_slots)

    def t_of(self, slot: int) -> float:
        return self.dt * slot

    def slot_of(self, t: float) -> int:
        k = int(np.floor(t / self.dt + 1e-9))
        return min(max(k, 0), self.n_slots - 1)

    def slots_in(self, span_s: float) -> int:
        """Whole slots in a span of span_s seconds, such as a deadline; the 1e-9
        guard keeps 2.0 s at dt 0.1 from flooring to 19 slots."""
        return int(math.floor(span_s / self.dt + 1e-9))


@dataclass(frozen=True)
class ChannelGraph:
    """Time-indexed symmetric link-gain table over aircraft and ground nodes:
    weights[slot, i, j] is the expected gain in dB (NaN when the edge is absent)
    and positions[slot, i] the planned position, indexed in node_ids order,
    which is sorted by id."""

    grid: SlotGrid
    node_ids: tuple
    weights: np.ndarray = field(repr=False, compare=False)
    positions: np.ndarray = field(repr=False, compare=False)


def synthesize(trajs, ground_nodes, radio_map: RadioMap, grid: SlotGrid) -> ChannelGraph:
    """Build the graph: weights[t, i, j] = map mean gain at the planned slot-t
    positions for every pair within RANGE_CUTOFF_M; ground nodes are static.
    Aircraft and ground nodes share one index, in id order. Aircraft pairs and
    ground pairs take query_many; an aircraft's rows toward every ground node
    take one query_sites call."""
    times = grid.times()
    nodes = [(t.aircraft_id, positions_at(t, times)) for t in trajs]
    nodes += [(g.id, g.pos.as_array()) for g in ground_nodes]
    nodes.sort(key=lambda node: node[0])
    ids = tuple(e for e, _ in nodes)
    if len(set(ids)) != len(ids):
        raise ValueError("node ids must be unique")
    n = len(ids)
    pos = np.empty((grid.n_slots, n, 3))
    for i, (_, p) in enumerate(nodes):
        pos[:, i, :] = p
    ground = np.array([p.ndim == 1 for _, p in nodes])
    air, sites = np.flatnonzero(~ground), np.flatnonzero(ground)

    weights = np.full((grid.n_slots, n, n), np.nan)
    iu, ju = np.triu_indices(n, k=1)
    d = np.linalg.norm(pos[:, iu, :] - pos[:, ju, :], axis=2)
    near = (d <= RANGE_CUTOFF_M) & (d > 0.0)
    # aircraft pairs and ground pairs: rows pair-major, slots ascending within
    # a pair; the map's lookups run faster in this order than slot-major
    same = np.flatnonzero(ground[iu] == ground[ju])
    pair, ks = np.nonzero(near[:, same].T)
    if ks.size:
        ii, jj = iu[same[pair]], ju[same[pair]]
        means = radio_map.query_many(pos[ks, ii], pos[ks, jj])
        weights[ks, ii, jj] = means
        weights[ks, jj, ii] = means
    # aircraft to ground: aircraft-major, slots ascending, every ground node a site
    if air.size and sites.size:
        pair_of = np.zeros((n, n), dtype=np.intp)
        pair_of[iu, ju] = pair_of[ju, iu] = np.arange(iu.size)
        inrange = near[:, pair_of[np.ix_(air, sites)]].transpose(1, 0, 2)  # (aircraft, slot, site)
        a, ks = np.nonzero(inrange.any(axis=2))
        means = radio_map.query_sites(pos[ks, air[a]], pos[0, sites])
        means[~inrange[a, ks]] = np.nan
        weights[ks[:, None], air[a][:, None], sites] = means
        weights[ks[:, None], sites, air[a][:, None]] = means
    return ChannelGraph(grid, ids, weights, pos)
