"""Long-horizon, network-wide path reservation on the time-expanded graph.

States are (entity, slot). Two edge kinds both advance exactly one slot:

* transmit (i, t) -> (j, t+1): feasible when the minimum outage-compliant
  power at the predicted gain fits under p_max; costs the predicted
  interference energy of that transmission at the sensitive nodes.
* carry (i, t) -> (i, t+1): cost 0 - data rides the moving aircraft (or waits
  at a ground endpoint).

Because every edge advances one slot the graph is a DAG layered by slot, so
the optimum is found by a forward sweep instead of a heap. All edge costs are
non-negative, so costs along any path are non-decreasing. Ties are broken by
fewer hops, then earlier delivery, then lexicographically smallest node-id
sequence, then earliest transmit slots; the destination absorbs (delivery is
the first arrival).

The min-delay objective charges every edge, carry or transmit, the same slot
length, so every state reachable at slot t costs the same t-fold sum and that
sum rises strictly with t. The first slot that reaches the destination is then
the unique optimal delivery, and the sweep stops there: later layers could
only hold costlier arrivals.

The forward sweep has a flow axis. `reserve_paths` plans many flows on shared
tables in one sweep: step t gathers, for each flow whose window is still
open, the step prices at its own injection slot + t, so each flow's layers are
bit for bit those of a sweep of it alone. A predictive run plans all its first
reservations this way. `reserve_path` (and with it every escalation replan)
and `min_delay_reservation` run the same sweep as a batch of one; over a
batch, the min-delay sweep stops once every flow has arrived. The backward
pass, the node sequence and the transmit slots stay per flow.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel_graph import ChannelGraph, SlotGrid
from .errors import NoFeasiblePath, UnknownNode
from .operational import LinkBudget, required_power_dbm
from .radio_env import RadioMap
from .units import db_to_lin

_BIG = np.iinfo(np.int64).max // 4


@dataclass(frozen=True)
class InterferenceCost:
    """Aggregate received energy at the sensitive nodes, in mW*s."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("interference cost must be non-negative")

    @property
    def db(self) -> float:
        """Cost relative to 1 mW*s; -inf for a silent schedule."""
        return 10.0 * math.log10(self.value) if self.value > 0 else float("-inf")


@dataclass(frozen=True)
class HopReservation:
    tx: str
    rx: str
    window: tuple
    nominal_power_dbm: float

    def __post_init__(self):
        if self.window[0] > self.window[1]:
            raise ValueError("window start must not exceed end")


@dataclass(frozen=True)
class PathReservation:
    hops: tuple
    injection_slot: int
    delivery_slot: int
    predicted_cost: InterferenceCost

    def __post_init__(self):
        for a, b in zip(self.hops, self.hops[1:]):
            if a.rx != b.tx:
                raise ValueError("hop chain must be contiguous")
            if a.window[1] >= b.window[0]:
                raise ValueError("hop windows must be disjoint and ordered")

    def carry_intervals(self) -> list:
        """Maximal holding intervals (entity, first_slot, last_slot) implied by
        the chosen transmit slots (window starts); empty when transmit-only."""
        if not self.hops:
            return []
        out = []
        if self.hops[0].window[0] > self.injection_slot:
            out.append((self.hops[0].tx, self.injection_slot, self.hops[0].window[0] - 1))
        for a, b in zip(self.hops, self.hops[1:]):
            if b.window[0] > a.window[0] + 1:
                out.append((a.rx, a.window[0] + 1, b.window[0] - 1))
        return out

    @property
    def transmit_only(self) -> bool:
        """True when the payload never waits: back-to-back hops from injection."""
        return not self.carry_intervals()

    def to_json_dict(self) -> dict:
        return {
            "hops": [
                {"tx": h.tx, "rx": h.rx, "window": list(h.window), "power_dbm": h.nominal_power_dbm}
                for h in self.hops
            ],
            "injection_slot": self.injection_slot,
            "delivery_slot": self.delivery_slot,
            "predicted_cost_mw_s": self.predicted_cost.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "PathReservation":
        d = json.loads(s)
        hops = tuple(
            HopReservation(h["tx"], h["rx"], (h["window"][0], h["window"][1]), h["power_dbm"])
            for h in d["hops"]
        )
        return PathReservation(hops, d["injection_slot"], d["delivery_slot"],
                               InterferenceCost(d["predicted_cost_mw_s"]))


@dataclass(frozen=True)
class PlannerTables:
    """Per-scenario precomputation shared by every reservation query.

    `feasible` enforces p_max only (the default edge model);
    `feasible_capped` additionally respects predicted per-sensitive-node
    received-power caps, for proactively cap-aware planning. `edge_cost` is
    inf off `feasible`. `capped_price` and `delay_price` are what a step of the
    DP reads: [t, i, j] prices the transmit edge (i, t) -> (j, t + 1), inf off
    the edges, and [t, i, i] the carry (i, t) -> (i, t + 1). `capped_price`
    holds the interference costs of the `feasible_capped` edges, with free
    carries; `delay_price` charges one slot length for every `feasible` edge
    and every carry.
    """

    node_ids: tuple
    id_rank: np.ndarray
    power_dbm: np.ndarray
    feasible: np.ndarray
    feasible_capped: np.ndarray
    edge_cost: np.ndarray
    capped_price: np.ndarray
    delay_price: np.ndarray
    sens_lin: np.ndarray
    dt: float
    p_max_dbm: float


def prepare_planner(graph: ChannelGraph, radio_map: RadioMap, sensitive_nodes,
                    budget: LinkBudget, per_node_cap_dbm: float = None,
                    shield_margin_db: float = None, pathloss=None) -> PlannerTables:
    """Vectorized edge powers, feasibility and interference costs over the grid.

    With shield_margin_db set (and the path-loss model it needs), predicted
    gains toward sensitive nodes are clamped from below at the unobstructed
    line-of-sight level minus the margin: the planner may credit a spot with at
    most that much shielding, which keeps interpolation artifacts near
    LoS/NLoS boundaries from minting phantom quiet spots.
    """
    w = graph.weights
    n_slots, n, _ = w.shape
    with np.errstate(invalid="ignore"):
        power = required_power_dbm(w, budget)
        feasible = np.isfinite(w) & (power <= budget.p_max_dbm)
    nodes = list(sensitive_nodes)
    allowed = np.full((n_slots, n), np.inf)
    if nodes:
        # one lookup per distinct (position, sensitive node): ground nodes sit at
        # one position in every slot
        uniq, inverse = np.unique(graph.positions.reshape(n_slots * n, 3), axis=0,
                                  return_inverse=True)
        sens_pos = np.array([node.pos.as_array() for node in nodes])
        tx = np.repeat(uniq, len(nodes), axis=0)
        rx = np.tile(sens_pos, (len(uniq), 1))
        g = radio_map.query_many(tx, rx)
        if shield_margin_db is not None and pathloss is not None:
            d = np.linalg.norm(tx - rx, axis=1)
            los = -(pathloss.pl0_db + 10.0 * pathloss.n_los
                    * np.log10(np.maximum(d, pathloss.d0) / pathloss.d0))
            g = np.maximum(g, los - shield_margin_db)
        gains = g.reshape(len(uniq), len(nodes))
        sens_lin = np.sum(db_to_lin(gains), axis=1)[inverse].reshape(n_slots, n)
        if per_node_cap_dbm is not None:
            allowed = (per_node_cap_dbm - gains.max(axis=1))[inverse].reshape(n_slots, n)
    else:
        sens_lin = np.zeros((n_slots, n))
    with np.errstate(invalid="ignore"):
        feasible_capped = feasible & (power <= allowed[:, :, None])
        edge_cost = (db_to_lin(power) * sens_lin[:, :, None]) * graph.grid.dt
    edge_cost = np.where(feasible, edge_cost, np.inf)
    if np.any(edge_cost[feasible] < 0):
        raise AssertionError("edge costs must be non-negative")
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.array(graph.node_ids))] = np.arange(n)
    dt = graph.grid.dt
    return PlannerTables(graph.node_ids, rank, power, feasible, feasible_capped, edge_cost,
                         _with_carry(np.where(feasible_capped, edge_cost, np.inf), 0.0),
                         _with_carry(np.where(feasible, dt, np.inf), dt), sens_lin, dt,
                         budget.p_max_dbm)


def _with_carry(price: np.ndarray, carry_cost: float) -> np.ndarray:
    """Write the carry cost onto the diagonal of each slot of price, in place.
    No transmit edge joins a node to itself, so the diagonal is free for it."""
    n = price.shape[-1]
    price.reshape(-1, n * n)[:, ::n + 1] = carry_cost
    return price


@functools.lru_cache(maxsize=None)
def _hops(n: int) -> np.ndarray:
    """The hop count each (i, j) entry of a step adds: none for the carry."""
    hops = 1 - np.eye(n, dtype=np.int64)
    hops.flags.writeable = False
    return hops


def _forward(price, src, dst, start, t_slots, first_arrival=False):
    """The layered DP's forward pass for a batch of flows, one step per slot.

    Flows come longest window first (t_slots non-increasing). Flow b enters at
    (src[b], start[b]) and may use the t_slots[b] slots after it. price[s] is
    the step matrix at absolute slot s: [s, i, j] prices the transmit edge
    (i, s) -> (j, s + 1), inf where there is none, and [s, i, i] the carry.
    Step t gathers the matrices at start + t of the flows whose window is still
    open, a prefix of the batch, so a flow's rows are those of a sweep of it
    alone. With first_arrival (the min-delay objective) the pass ends once
    every flow has reached its destination. Returns F and H, (batch, T + 1, n)
    for the last step swept T: F[b, t, i] is the minimum path cost reaching
    (i, start[b] + t), H the hop count among those paths (inf and _BIG where
    nothing reaches); rows past a flow's own window are left unset.
    """
    src, dst, start = np.array([src, dst, start], dtype=np.int64)
    ends = [int(e) for e in t_slots]
    rows = np.arange(src.size)
    F = np.empty((src.size, ends[0] + 1, price.shape[-1]))
    H = np.empty(F.shape, dtype=np.int64)
    F[:, 0], H[:, 0] = np.inf, _BIG
    F[rows, 0, src] = 0.0
    H[rows, 0, src] = 0
    absorb = np.zeros(F[:, 0].shape)
    absorb[rows, dst] = np.inf  # adding it makes the destination absorb
    hops = _hops(price.shape[-1])
    k, sink, done = src.size, (rows, dst), np.zeros(src.size, dtype=bool)
    for t in range(F.shape[1] - 1):
        if ends[k - 1] <= t:
            while ends[k - 1] <= t:
                k -= 1
            sink, done = (rows[:k], dst[:k]), done[:k]
        m = (F[:k, t] + absorb[:k])[:, :, None] + price[start[:k] + t]
        fn = m.min(axis=1)
        hn = np.where(m == fn[:, None, :], H[:k, t][:, :, None] + hops, _BIG).min(axis=1)
        F[:k, t + 1] = fn
        H[:k, t + 1] = np.where(np.isfinite(fn), hn, _BIG)
        if first_arrival and np.count_nonzero(
                np.logical_or(done, np.isfinite(fn[sink]), out=done)) == k:
            return F[:, :t + 2], H[:, :t + 2]
    return F, H


def _search(cost, feas, carry_cost, src, dst, t_slots, forward=None):
    """Find the tie-break-optimal schedule's cost f*, hop count h* and relative
    delivery slot t*, with the optimal subgraph that realizes them.

    cost[t, i, j] prices the transmit edge (i, t) -> (j, t + 1) where feas[t, i, j]
    holds; every carry edge costs carry_cost. cost None is the min-delay
    objective: every edge costs carry_cost, and the sweep stops at the first
    arrival. forward is the flow's (F, H) from a batched _forward, cut to its
    window; without it the search runs the forward pass as a batch of one.
    Returns (keep_carry, keep_trans, reach, f*, h*, t*): keep_carry (t*, n) and
    keep_trans (t*, n, n) mark the edges that keep each state's optimal cost,
    and reach[t, i, h] for t = 0..t* marks the states (i, t) reached with h hops
    that complete to (dst, t*) with h* hops. Raises NoFeasiblePath when nothing
    reaches dst within t_slots.
    """
    n = feas.shape[1]
    if forward is None:
        price = _with_carry(np.where(feas, carry_cost if cost is None else cost, np.inf),
                            carry_cost)
        F, H = (a[0] for a in _forward(price, [src], [dst], [0], [t_slots], cost is None))
    else:
        F, H = forward

    fd = F[:, dst]
    f_star = fd.min()
    if not np.isfinite(f_star):
        raise NoFeasiblePath("no schedule reaches the destination within the deadline")
    cand = np.flatnonzero(fd == f_star)
    hd = H[cand, dst]
    h_star = int(hd.min())
    t_star = int(cand[hd == h_star][0])

    # Optimal-subgraph edges (these preserve per-state optimal cost exactly).
    f_now, f_next = F[:t_star], F[1:t_star + 1]
    ok = np.isfinite(f_now)
    ok[:, dst] = False
    keep_carry = ok & (f_now + carry_cost == f_next)
    trans_cost = carry_cost if cost is None else cost[:t_star]
    keep_trans = (feas[:t_star] & ok[:, :, None]
                  & (f_now[:, :, None] + trans_cost == f_next[:, None, :]))

    # reach[t, i, h]: (i, t) reached with h hops completes to (dst, t*) with exactly
    # h* - h more hops. Level by level down from h*: (i, t) completes at level h
    # when a kept transmission into level h + 1 leaves i at a slot of its carry
    # chain from t, which ends at the first slot whose carry is not kept.
    reach = np.zeros((t_star + 1, n, h_star + 2), dtype=bool)
    reach[t_star, dst, h_star] = True
    slots = np.arange(t_star)[:, None]
    chain_end = np.minimum.accumulate(np.where(keep_carry, t_star - 1, slots)[::-1],
                                      axis=0)[::-1]
    for h in range(h_star - 1, -1, -1):
        into = (keep_trans & reach[1:, None, :, h + 1]).any(axis=2)
        first = np.minimum.accumulate(np.where(into, slots, t_star)[::-1], axis=0)[::-1]
        reach[:-1, :, h] = first <= chain_end
    if not reach[0, src, 0]:
        raise AssertionError("optimal-subgraph reconstruction lost the source")
    return keep_carry, keep_trans, reach, f_star, h_star, t_star


def _lex_sequence(keep_carry, keep_trans, reach, id_rank, src, dst, h_star, t_star):
    """Lexicographically smallest node-id sequence among optimal schedules."""
    seq = [src]
    i, h = src, 0
    t_set = {0}
    while i != dst:
        closure = set(t_set)
        frontier = sorted(closure)
        for t in frontier:
            tt = t
            while tt + 1 <= t_star and keep_carry[tt, i] and reach[tt + 1][i, h] and (tt + 1) not in closure:
                closure.add(tt + 1)
                tt += 1
        best = None
        for t in sorted(closure):
            if t >= t_star:
                continue
            js = np.flatnonzero(keep_trans[t, i] & reach[t + 1][:, h + 1])
            for j in js:
                if best is None or id_rank[j] < id_rank[best]:
                    best = int(j)
        if best is None:
            raise AssertionError("sequence reconstruction dead-ended")
        t_set = {
            t + 1
            for t in closure
            if t < t_star and keep_trans[t, i, best] and reach[t + 1][best, h + 1]
        }
        seq.append(best)
        i, h = best, h + 1
    return seq


def _earliest_slots(keep_carry, keep_trans, seq, t_star):
    """Earliest transmit slots realizing the fixed sequence and delivery t*."""
    k_hops = len(seq) - 1
    can = np.zeros((k_hops + 1, t_star + 1), dtype=bool)
    can[k_hops, t_star] = True
    for k in range(k_hops - 1, -1, -1):
        v, w = seq[k], seq[k + 1]
        for t in range(t_star - 1, -1, -1):
            trans_ok = keep_trans[t, v, w] and can[k + 1, t + 1]
            carry_ok = keep_carry[t, v] and can[k, t + 1]
            can[k, t] = trans_ok or carry_ok
    slots = []
    t = 0
    for k in range(k_hops):
        v, w = seq[k], seq[k + 1]
        while not (keep_trans[t, v, w] and can[k + 1, t + 1]):
            if not (keep_carry[t, v] and can[k, t + 1]):
                raise AssertionError("slot assignment dead-ended")
            t += 1
        slots.append(t)
        t += 1
    return slots


def _window(grid: SlotGrid, tables: PlannerTables, source: str, dest: str,
            deadline_s: float, injection_slot: int):
    """A request's node indices and its window length in slots, or its error."""
    if deadline_s < grid.dt:
        raise ValueError("deadline must cover at least one slot")
    try:
        src = tables.node_ids.index(source)
        dst = tables.node_ids.index(dest)
    except ValueError as e:
        raise UnknownNode(str(e)) from None
    n_slots = tables.edge_cost.shape[0]
    if injection_slot < 0 or injection_slot >= n_slots:
        raise ValueError("injection slot outside the grid")
    t_slots = min(grid.slots_in(deadline_s), n_slots - 1 - injection_slot)
    if source != dest and t_slots < 1:
        raise NoFeasiblePath("no slots left before the deadline")
    return src, dst, t_slots


def _reserve_many(grid: SlotGrid, tables: PlannerTables, requests, min_delay: bool = False,
                  use_caps: bool = False) -> list:
    """Shared engine: least predicted interference, or with min_delay earliest
    delivery, for each (source, dest, deadline_s, injection_slot) request, with
    one forward pass over every request that needs a search. Each entry of the
    result is the request's PathReservation, or the NoFeasiblePath, UnknownNode
    or ValueError that planning it alone raises."""
    out = [None] * len(requests)
    todo = []
    for k, (source, dest, deadline_s, injection_slot) in enumerate(requests):
        try:
            src, dst, t_slots = _window(grid, tables, source, dest, deadline_s, injection_slot)
        except (NoFeasiblePath, UnknownNode, ValueError) as e:
            out[k] = e
            continue
        if src == dst:
            out[k] = PathReservation((), injection_slot, injection_slot, InterferenceCost(0.0))
        else:
            todo.append((k, src, dst, injection_slot, t_slots))
    if not todo:
        return out
    todo.sort(key=lambda job: -job[4])  # stable: longest window first, as _forward needs
    feas = tables.feasible_capped if use_caps else tables.feasible
    base = 0  # price[s] is the step matrix at absolute slot base + s
    if min_delay:
        price, carry_cost = tables.delay_price, tables.dt
    elif use_caps:
        price, carry_cost = tables.capped_price, 0.0
    else:
        # no precomputed table: price only the slots the batch's windows span
        base = min(job[3] for job in todo)
        end = max(job[3] + job[4] for job in todo)
        price, carry_cost = _with_carry(tables.edge_cost[base:end].copy(), 0.0), 0.0
    F, H = _forward(price, *zip(*((src, dst, start - base, t_slots)
                                  for _, src, dst, start, t_slots in todo)),
                    first_arrival=min_delay)
    for b, (k, src, dst, start, t_slots) in enumerate(todo):
        sl, own = slice(start, start + t_slots), slice(start - base, start - base + t_slots)
        try:
            keep_carry, keep_trans, reach, f_star, h_star, t_star = _search(
                None if min_delay else price[own], feas[sl], carry_cost, src, dst, t_slots,
                forward=(F[b, :t_slots + 1], H[b, :t_slots + 1]))
            seq = _lex_sequence(keep_carry, keep_trans, reach, tables.id_rank, src, dst,
                                h_star, t_star)
            rel = _earliest_slots(keep_carry, keep_trans, seq, t_star)
            transmissions = [(start + rel[h], seq[h], seq[h + 1]) for h in range(len(rel))]
            if min_delay:
                # the reported cost is the schedule's interference, for comparison
                f_star = 0.0
                for s, i, j in transmissions:
                    f_star = f_star + float(tables.edge_cost[s, i, j])
            out[k] = _reservation(tables, transmissions, float(f_star), start,
                                  start + t_star, t_slots)
        except (NoFeasiblePath, ValueError) as e:
            out[k] = e
    return out


def _reservation(tables: PlannerTables, transmissions, cost_value, injection_slot,
                 delivery_slot, t_slots) -> PathReservation:
    hops = []
    last_window_end = injection_slot + t_slots - 1
    for k, (s, i, j) in enumerate(transmissions):
        end = transmissions[k + 1][0] - 1 if k + 1 < len(transmissions) else last_window_end
        hops.append(
            HopReservation(tables.node_ids[i], tables.node_ids[j], (s, end),
                           float(tables.power_dbm[s, i, j]))
        )
    return PathReservation(tuple(hops), injection_slot, delivery_slot, InterferenceCost(cost_value))


def _one(results: list) -> PathReservation:
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


def reserve_paths(graph: ChannelGraph, requests, tables: PlannerTables,
                  use_caps: bool = False) -> list:
    """reserve_path for many (source, dest, deadline_s, injection_slot) requests
    on shared tables, in one flow-batched forward pass. Entry k is request k's
    PathReservation, or the NoFeasiblePath, UnknownNode or ValueError that
    reserve_path raises for it alone, returned rather than raised."""
    return _reserve_many(graph.grid, tables, requests, use_caps=use_caps)


def reserve_path(graph: ChannelGraph, radio_map: RadioMap, source: str, dest: str,
                 deadline_s: float, sensitive_nodes, budget: LinkBudget,
                 injection_slot: int = 0, tables: PlannerTables = None,
                 use_caps: bool = False) -> PathReservation:
    """Minimum-predicted-interference reservation delivering within deadline_s.

    Pass precomputed tables to amortize the per-scenario setup across flows;
    use_caps additionally excludes edges whose nominal power would violate the
    predicted per-sensitive-node received-power caps baked into the tables.
    This is reserve_paths for one request.
    """
    if tables is None:
        tables = prepare_planner(graph, radio_map, sensitive_nodes, budget)
    return _one(reserve_paths(graph, [(source, dest, deadline_s, injection_slot)], tables,
                              use_caps))


def min_delay_reservation(graph: ChannelGraph, radio_map: RadioMap, source: str, dest: str,
                          deadline_s: float, sensitive_nodes, budget: LinkBudget,
                          injection_slot: int = 0, tables: PlannerTables = None) -> PathReservation:
    """Delivery-time-minimizing reservation over the same time-expanded graph.

    Every edge (carry or transmit) costs one slot of delay; the reported
    predicted cost is the interference of the chosen schedule, for comparison.
    """
    if tables is None:
        tables = prepare_planner(graph, radio_map, sensitive_nodes, budget)
    return _one(_reserve_many(graph.grid, tables, [(source, dest, deadline_s, injection_slot)],
                              min_delay=True))
