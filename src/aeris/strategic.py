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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel_graph import ChannelGraph
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
    received-power caps, for proactively cap-aware planning.
    """

    node_ids: tuple
    id_rank: np.ndarray
    power_dbm: np.ndarray
    feasible: np.ndarray
    feasible_capped: np.ndarray
    edge_cost: np.ndarray
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
    return PlannerTables(graph.node_ids, rank, power, feasible, feasible_capped, edge_cost,
                         sens_lin, graph.grid.dt, budget.p_max_dbm)


def _search(cost, feas, carry_cost, src, dst, t_slots):
    """Find the tie-break-optimal schedule's cost f*, hop count h* and relative
    delivery slot t*, with the optimal subgraph that realizes them.

    cost[t, i, j] prices the transmit edge (i, t) -> (j, t + 1) where feas[t, i, j]
    holds; every carry edge costs carry_cost. cost None is the min-delay
    objective: every edge costs carry_cost, and the sweep stops at the first
    arrival. Returns (keep_carry, keep_trans, reach, f*, h*, t*): keep_carry
    (t*, n) and keep_trans (t*, n, n) mark the edges that keep each state's
    optimal cost, and reach[t][i, h] for t = 0..t* marks the states (i, t)
    reached with h hops that complete to (dst, t*) with h* hops. Raises
    NoFeasiblePath when nothing reaches dst within t_slots.
    """
    n = feas.shape[1]
    first_arrival = cost is None
    if first_arrival:
        cost = np.broadcast_to(carry_cost, feas.shape)
    # layered DP over relative slots 0..T: F[t, i] is the minimum path cost
    # reaching (i, t), H the hop count among those paths
    F = np.full((t_slots + 1, n), np.inf)
    H = np.full((t_slots + 1, n), _BIG, dtype=np.int64)
    F[0, src] = 0.0
    H[0, src] = 0
    for t in range(t_slots):
        base = F[t].copy()
        base[dst] = np.inf  # destination absorbs
        carry = base + carry_cost
        m = base[:, None] + cost[t]
        m[~feas[t]] = np.inf
        fn = np.minimum(carry, m.min(axis=0))
        hc = np.where(carry == fn, H[t], _BIG)
        hm = np.where(m == fn[None, :], H[t][:, None] + 1, _BIG).min(axis=0)
        hn = np.minimum(hc, hm)
        hn[~np.isfinite(fn)] = _BIG
        F[t + 1] = fn
        H[t + 1] = hn
        if first_arrival and np.isfinite(fn[dst]):
            break

    fd = F[:, dst]
    finite = np.isfinite(fd)
    if not np.any(finite):
        raise NoFeasiblePath("no schedule reaches the destination within the deadline")
    f_star = fd[finite].min()
    cand = np.flatnonzero(finite & (fd == f_star))
    h_star = H[cand, dst].min()
    t_star = int(cand[H[cand, dst] == h_star].min())
    h_star = int(h_star)

    # Optimal-subgraph edges (these preserve per-state optimal cost exactly).
    f_now, f_next = F[:t_star], F[1:t_star + 1]
    ok = np.isfinite(f_now)
    ok[:, dst] = False
    keep_carry = ok & (f_now + carry_cost == f_next)
    keep_trans = (feas[:t_star] & ok[:, :, None]
                  & (f_now[:, :, None] + cost[:t_star] == f_next[:, None, :]))

    # reach[t][i, h]: completable to (dst, t*) with exactly h_star - h more hops.
    trans8 = keep_trans.view(np.uint8)
    reach = [np.zeros((n, h_star + 2), dtype=bool) for _ in range(t_star + 1)]
    reach[t_star][dst, h_star] = True
    for t in range(t_star - 1, -1, -1):
        nxt = reach[t + 1]
        shifted = np.zeros_like(nxt)
        shifted[:, :-1] = nxt[:, 1:]
        trans = (trans8[t] @ shifted.view(np.uint8)) > 0
        reach[t] = (keep_carry[t][:, None] & nxt) | trans
    if not reach[0][src, 0]:
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


def _plan(tables: PlannerTables, source: str, dest: str, injection_slot: int,
          deadline_slots: int, min_delay: bool = False, use_caps: bool = False):
    """Shared engine: least predicted interference, or with min_delay earliest
    delivery. Returns (transmissions abs slots, total cost, delivery_slot)."""
    try:
        src = tables.node_ids.index(source)
        dst = tables.node_ids.index(dest)
    except ValueError as e:
        raise UnknownNode(str(e)) from None
    n_slots = tables.edge_cost.shape[0]
    if injection_slot < 0 or injection_slot >= n_slots:
        raise ValueError("injection slot outside the grid")
    if source == dest:
        return [], 0.0, injection_slot
    t_slots = min(deadline_slots, n_slots - 1 - injection_slot)
    if t_slots < 1:
        raise NoFeasiblePath("no slots left before the deadline")
    sl = slice(injection_slot, injection_slot + t_slots)
    feas_slice = (tables.feasible_capped if use_caps else tables.feasible)[sl]
    keep_carry, keep_trans, reach, f_star, h_star, t_star = _search(
        None if min_delay else tables.edge_cost[sl], feas_slice,
        tables.dt if min_delay else 0.0, src, dst, t_slots
    )
    seq = _lex_sequence(keep_carry, keep_trans, reach, tables.id_rank, src, dst, h_star, t_star)
    rel = _earliest_slots(keep_carry, keep_trans, seq, t_star)
    transmissions = [
        (injection_slot + rel[k], seq[k], seq[k + 1]) for k in range(len(rel))
    ]
    return transmissions, float(f_star), injection_slot + t_star


def _reservation_from(tables: PlannerTables, transmissions, cost_value, injection_slot,
                      delivery_slot, deadline_slots) -> PathReservation:
    hops = []
    n_slots = tables.edge_cost.shape[0]
    last_window_end = injection_slot + min(deadline_slots, n_slots - 1 - injection_slot) - 1
    for k, (s, i, j) in enumerate(transmissions):
        end = transmissions[k + 1][0] - 1 if k + 1 < len(transmissions) else last_window_end
        hops.append(
            HopReservation(tables.node_ids[i], tables.node_ids[j], (s, end),
                           float(tables.power_dbm[s, i, j]))
        )
    return PathReservation(tuple(hops), injection_slot, delivery_slot, InterferenceCost(cost_value))


def reserve_path(graph: ChannelGraph, radio_map: RadioMap, source: str, dest: str,
                 deadline_s: float, sensitive_nodes, budget: LinkBudget,
                 injection_slot: int = 0, tables: PlannerTables = None,
                 use_caps: bool = False) -> PathReservation:
    """Minimum-predicted-interference reservation delivering within deadline_s.

    Pass precomputed tables to amortize the per-scenario setup across flows;
    use_caps additionally excludes edges whose nominal power would violate the
    predicted per-sensitive-node received-power caps baked into the tables.
    """
    if deadline_s < graph.grid.dt:
        raise ValueError("deadline must cover at least one slot")
    if tables is None:
        tables = prepare_planner(graph, radio_map, sensitive_nodes, budget)
    deadline_slots = int(math.floor(deadline_s / graph.grid.dt + 1e-9))
    transmissions, cost_value, delivery = _plan(
        tables, source, dest, injection_slot, deadline_slots, use_caps=use_caps,
    )
    return _reservation_from(tables, transmissions, cost_value, injection_slot, delivery,
                             deadline_slots)


def min_delay_reservation(graph: ChannelGraph, radio_map: RadioMap, source: str, dest: str,
                          deadline_s: float, sensitive_nodes, budget: LinkBudget,
                          injection_slot: int = 0, tables: PlannerTables = None) -> PathReservation:
    """Delivery-time-minimizing reservation over the same time-expanded graph.

    Every edge (carry or transmit) costs one slot of delay; the reported
    predicted cost is the interference of the chosen schedule, for comparison.
    """
    if deadline_s < graph.grid.dt:
        raise ValueError("deadline must cover at least one slot")
    if tables is None:
        tables = prepare_planner(graph, radio_map, sensitive_nodes, budget)
    deadline_slots = int(math.floor(deadline_s / graph.grid.dt + 1e-9))
    transmissions, _, delivery = _plan(
        tables, source, dest, injection_slot, deadline_slots, min_delay=True,
    )
    interference = 0.0
    for s, i, j in transmissions:
        interference = interference + float(tables.edge_cost[s, i, j])
    return _reservation_from(tables, transmissions, interference, injection_slot, delivery,
                             deadline_slots)
