"""Middle-scale coordination inside a local cluster: flag hops whose local
forecast has collapsed, splice a short detour around them, and pick each hop's
transmit slot inside its reserved window to land on high-gain periods.

Detours are limited to one substitute relay (two hops); anything larger
escalates to a global replan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .echelon import local_mean_series
from .errors import EscalateToStrategic, InfeasibleSchedule
from .operational import required_power_dbm
from .strategic import HopReservation
from .units import db_to_lin


@dataclass(frozen=True)
class LocalCluster:
    """Cluster membership and what the cluster currently knows."""

    member_ids: tuple
    positions: dict
    blocked_pairs: frozenset
    radio_map: object

    def __post_init__(self):
        members = set(self.member_ids)
        for a, b in self.blocked_pairs:
            if a not in members or b not in members:
                raise ValueError("blocked pairs must join cluster members")


@dataclass(frozen=True)
class Schedule:
    """Chosen transmit slot per hop of a (possibly refined) route."""

    hop_slots: tuple
    route: tuple

    def __post_init__(self):
        if len(self.hop_slots) != len(self.route):
            raise ValueError("one slot per hop")
        for a, b in zip(self.hop_slots, self.hop_slots[1:]):
            if b <= a:
                raise ValueError("hop slots must be strictly increasing")
        for s, h in zip(self.hop_slots, self.route):
            if not h.window[0] <= s <= h.window[1]:
                raise ValueError("chosen slot outside the reserved window")


def hop_forecasts(views, worlds, hops) -> list:
    """The local forecast of each hop's link over its reserved window, from
    its own view and world, as aligned (slots, mean_db) arrays: the one series
    that both the blockage check and the hop's timing read. All of them come
    from one local_mean_series batch."""
    slots = [np.arange(hop.window[0], hop.window[1] + 1) for hop in hops]
    means = local_mean_series(views, worlds, [(hop.tx, hop.rx) for hop in hops],
                              [world.grid.dt * s for world, s in zip(worlds, slots)])
    return list(zip(slots, np.split(means, np.cumsum([s.size for s in slots[:-1]]))))


def detect_blockage(means: np.ndarray, gain_threshold_db: float) -> bool:
    """True iff the local forecast mean over a hop's window (the means of its
    hop_forecasts entry) is strictly below the threshold; a forecast exactly
    at the threshold is not blocked."""
    return bool(np.mean(means) < gain_threshold_db)


@dataclass(frozen=True)
class LocalGraphSlice:
    """Per-slot local predictions for candidate (tx, rx) links over a slot span.

    A row that was not looked up holds NaN; reading one is an error.
    """

    slots: np.ndarray
    mean_gain_db: dict
    sens_lin: dict
    budget: object
    dt_s: float


def detour_halves(blocked_hop: HopReservation, directive_tail) -> tuple:
    """Where a two-hop detour around blocked_hop reconnects to the directive
    (the node after the blocked link), and the two half-spans of slots its
    first and second hop must fit in: (reconnect, (lo, mid), (mid + 1, hi)).
    The second half-span is empty when the span has a single slot."""
    tail = list(directive_tail)
    if tail:
        reconnect, span = tail[0].rx, (blocked_hop.window[0], tail[0].window[1])
    else:
        reconnect, span = blocked_hop.rx, blocked_hop.window
    mid = (span[0] + span[1]) // 2
    return reconnect, (span[0], mid), (mid + 1, span[1])


def _best_slot_cost(slice_: LocalGraphSlice, tx: str, rx: str, lo: int, hi: int):
    """Cheapest feasible transmit (interference) for tx->rx within [lo, hi].

    Returns (cost, power_dbm) or None when no slot fits under p_max.
    """
    mask = (slice_.slots >= lo) & (slice_.slots <= hi)
    if not np.any(mask):
        return None
    gains = slice_.mean_gain_db[(tx, rx)][mask]
    sens = slice_.sens_lin[tx][mask]
    if np.isnan(gains).any() or np.isnan(sens).any():
        raise ValueError(f"no local prediction for {tx}->{rx} in slots {lo}..{hi}")
    power = required_power_dbm(gains, slice_.budget)
    ok = np.isfinite(gains) & (power <= slice_.budget.p_max_dbm)
    if not np.any(ok):
        return None
    cost = (db_to_lin(power) * sens) * slice_.dt_s
    cost = np.where(ok, cost, np.inf)
    k = int(np.argmin(cost))
    return float(cost[k]), float(power[k])


def reroute_local(cluster: LocalCluster, blocked_hop: HopReservation, directive_tail,
                  graph_slice: LocalGraphSlice):
    """Replace a blocked hop, which the caller found blocked, with the cheapest
    2-hop detour through any other cluster member, reconnecting to the
    directive at the node after the blocked link.
    The detour's first hop takes a slot of the first half-span of
    detour_halves, its second hop one of the second half-span.

    Returns the replacement hop tuple; raises EscalateToStrategic when no
    detour fits.
    """
    a, b = blocked_hop.tx, blocked_hop.rx
    reconnect, first_half, second_half = detour_halves(blocked_hop, directive_tail)
    if second_half[1] - first_half[0] < 1:
        raise EscalateToStrategic("window too short for a two-hop detour")
    best = None
    for m in sorted(cluster.member_ids):
        if m in (a, b, reconnect):
            continue
        first = _best_slot_cost(graph_slice, a, m, *first_half)
        second = _best_slot_cost(graph_slice, m, reconnect, *second_half)
        if first is None or second is None:
            continue
        added = first[0] + second[0]
        if best is None or added < best[0]:
            best = (added, m, first, second)
    if best is None:
        raise EscalateToStrategic("no feasible detour relay in the cluster")
    _, m, first, second = best
    return (
        HopReservation(a, m, first_half, first[1]),
        HopReservation(m, reconnect, second_half, second[1]),
    )


def schedule_timing(route, forecasts, deadline_slot: int) -> Schedule:
    """Pick per-hop transmit slots maximizing the summed forecast gain.

    forecasts[k] is (slots, mean_db) aligned arrays for hop k's window;
    non-finite means are unusable. Subject to strict precedence, window
    membership and the deadline; ties resolve to the earliest slot vector.
    """
    route = tuple(route)
    k_hops = len(route)
    if k_hops == 0:
        return Schedule((), ())
    slot_arrays, value_arrays = [], []
    for k, hop in enumerate(route):
        slots, means = forecasts[k]
        slots = np.asarray(slots)
        means = np.asarray(means, dtype=float)
        keep = (slots >= hop.window[0]) & (slots <= hop.window[1]) & (slots <= deadline_slot)
        slots, means = slots[keep], means[keep]
        means = np.where(np.isfinite(means), means, -np.inf)
        if slots.size == 0:
            raise InfeasibleSchedule(f"hop {k} has no usable slot")
        slot_arrays.append(slots)
        value_arrays.append(means)

    # g[k][i] = value of taking slot i for hop k plus the best feasible suffix.
    g = [None] * k_hops
    suffix = [None] * k_hops
    g[k_hops - 1] = value_arrays[k_hops - 1]
    for k in range(k_hops - 1, -1, -1):
        if k < k_hops - 1:
            nxt_slots, nxt_suffix = slot_arrays[k + 1], suffix[k + 1]
            idx = np.searchsorted(nxt_slots, slot_arrays[k] + 1, side="left")
            cont = np.where(idx < nxt_slots.size, nxt_suffix[np.minimum(idx, nxt_slots.size - 1)],
                            -np.inf)
            g[k] = value_arrays[k] + cont
        suffix[k] = np.maximum.accumulate(g[k][::-1])[::-1]

    if not np.isfinite(suffix[0][0]):
        raise InfeasibleSchedule("precedence cannot be met within the windows")
    chosen = []
    prev = -1
    for k in range(k_hops):
        start = int(np.searchsorted(slot_arrays[k], prev + 1, side="left"))
        if start >= slot_arrays[k].size:
            raise InfeasibleSchedule("precedence cannot be met within the windows")
        target = suffix[k][start]
        if not np.isfinite(target):
            raise InfeasibleSchedule("precedence cannot be met within the windows")
        i = start + int(np.argmax(g[k][start:] == target))
        chosen.append(int(slot_arrays[k][i]))
        prev = chosen[-1]
    return Schedule(tuple(chosen), route)
