"""Long-horizon, network-wide path reservation on the time-expanded graph.

States are (entity, slot). Two edge kinds both advance exactly one slot:

* transmit (i, t) -> (j, t+1): feasible when the minimum outage-compliant
  power at the predicted gain fits under p_max; costs the predicted
  interference energy of that transmission at the sensitive nodes, and is
  dropped where its power would break a per-sensitive-node received-power cap.
* carry (i, t) -> (i, t+1): cost 0 - data rides the moving aircraft (or waits
  at a ground endpoint).

Because every edge advances one slot the graph is a DAG layered by slot, so
the optimum is found by a forward sweep instead of a heap. All edge costs are
non-negative, so costs along any path are non-decreasing. Ties are broken by
fewer hops, then earlier delivery, then lexicographically smallest node-id
sequence, then earliest transmit slots; the destination absorbs (delivery is
the first arrival). Nodes are indexed in id order, so ids and indices compare
alike.

The min-delay objective charges every edge, carry or transmit, the same slot
length, so every state reachable at slot t costs the same t-fold sum and that
sum rises strictly with t. The first slot that reaches the destination is then
the unique optimal delivery, and the sweep stops there: later layers could
only hold costlier arrivals.

The DP has a flow axis, forward and backward. `reserve_paths` and
`min_delay_reservation` plan many flows on shared tables in one batch: forward
step t gathers, for each flow whose window is still open, the step prices at
its own injection slot + t, so each flow's layers are bit for bit those of a
sweep of it alone; over a batch, the min-delay sweep stops once every flow has
arrived. The forward step also records, bit-packed, which edges are tight (carry
the cost and hop count exactly), and the backward sweep, one slot per step,
marks from each flow's own delivery the states on its optimal schedules. The
node-sequence walk and the transmit-slot assignment then run hop by hop over
the batch. A run plans all its first reservations (predictive) or all its
reservations (space-time baseline) this way; `reserve_path`, and with it every
escalation replan, is a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel_graph import ChannelGraph
from .errors import NoFeasiblePath, UnknownNode
from .operational import LinkBudget, required_power_dbm
from .radio_env import RadioMap
from .units import db_to_lin

_BIG = np.iinfo(np.int64).max // 4
# the most shielding, below line of sight, the planner credits a spot with
# toward a sensitive site (see prepare_planner)
SHIELD_MARGIN_DB = 6.0


@dataclass(frozen=True)
class InterferenceCost:
    """Aggregate received energy at the sensitive nodes, in mW*s."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("interference cost must be non-negative")


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
    """A flow's hops and delivery. predicted_cost is the predicted interference
    of the schedule for the interference objective, None for the min-delay
    objective, which prices none."""

    hops: tuple
    injection_slot: int
    delivery_slot: int
    predicted_cost: InterferenceCost | None

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
            "predicted_cost_mw_s": (None if self.predicted_cost is None
                                    else self.predicted_cost.value),
        }


@dataclass(frozen=True)
class PlannerTables:
    """Per-scenario precomputation shared by every reservation query.

    Two price tables, one per objective, are what a step of the DP reads:
    [t, i, j] prices the transmit edge (i, t) -> (j, t + 1), inf where there
    is none, and [t, i, i] the carry (i, t) -> (i, t + 1). An edge is feasible
    when its nominal power, required_power_dbm of the graph weight under
    budget, fits under p_max. `capped_price` holds the predicted interference
    energy of every feasible edge that also respects the predicted
    per-sensitive-node received-power caps (every feasible edge without a
    cap), with free carries, and the interference objective plans on it;
    `delay_price` charges one slot length for every feasible edge and every
    carry. Nodes are indexed in the graph's node_ids order.
    """

    budget: LinkBudget
    capped_price: np.ndarray
    delay_price: np.ndarray


def prepare_planner(graph: ChannelGraph, radio_map: RadioMap, sensitive_nodes,
                    budget: LinkBudget, per_node_cap_dbm: float = None,
                    pathloss=None) -> PlannerTables:
    """Vectorized edge powers, feasibility and interference costs over the grid.

    With a path-loss model given, predicted gains toward sensitive nodes are
    clamped from below at its unobstructed line-of-sight level minus
    SHIELD_MARGIN_DB: the planner may credit a spot with at most that much
    shielding, which keeps interpolation artifacts near LoS/NLoS boundaries
    from minting phantom quiet spots.
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
        gains = radio_map.query_sites(uniq, sens_pos)
        if pathloss is not None:
            d = np.linalg.norm(uniq[:, None] - sens_pos, axis=2)
            los = -(pathloss.pl0_db + 10.0 * pathloss.n_los
                    * np.log10(np.maximum(d, pathloss.d0) / pathloss.d0))
            gains = np.maximum(gains, los - SHIELD_MARGIN_DB)
        sens_lin = np.sum(db_to_lin(gains), axis=1)[inverse].reshape(n_slots, n)
        if per_node_cap_dbm is not None:
            allowed = (per_node_cap_dbm - gains.max(axis=1))[inverse].reshape(n_slots, n)
    else:
        sens_lin = np.zeros((n_slots, n))
    with np.errstate(invalid="ignore"):
        feasible_capped = feasible & (power <= allowed[:, :, None])
        cost = (db_to_lin(power) * sens_lin[:, :, None]) * graph.grid.dt
    if np.any(cost[feasible] < 0):
        raise AssertionError("edge costs must be non-negative")
    dt = graph.grid.dt
    capped_price = _with_carry(np.where(feasible_capped, cost, np.inf), 0.0)
    return PlannerTables(budget, capped_price, _with_carry(np.where(feasible, dt, np.inf), dt))


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
    every flow has reached its destination. Returns F, H, (batch, T + 1, n)
    for the last step swept T, and tight: F[b, t, i] is the minimum path cost
    reaching (i, start[b] + t), H the hop count among those paths (inf and
    _BIG where nothing reaches); rows past a flow's own window are left unset.
    tight[b, t], of shape (n, ceil(n / 8)), holds flow b's step-t edges whose
    price carries both F and H exactly into their head, packed along the head.
    """
    src, dst, start = np.array([src, dst, start], dtype=np.int64)
    ends = [int(e) for e in t_slots]
    rows, n = np.arange(src.size), price.shape[-1]
    F = np.empty((src.size, ends[0] + 1, n))
    H = np.empty(F.shape, dtype=np.int64)
    F[:, 0], H[:, 0] = np.inf, _BIG
    F[rows, 0, src] = 0.0
    H[rows, 0, src] = 0
    absorb = np.zeros(F[:, 0].shape)
    absorb[rows, dst] = np.inf  # adding it makes the destination absorb
    hops = _hops(n)
    k, sink, done = src.size, (rows, dst), np.zeros(src.size, dtype=bool)
    tight = np.zeros((src.size, ends[0], n, (n + 7) // 8), dtype=np.uint8)
    # rows padded to whole bytes, so one flat packbits packs each row
    bits = np.zeros((src.size, n, 8 * tight.shape[-1]), dtype=bool)
    for t in range(F.shape[1] - 1):
        if ends[k - 1] <= t:
            while ends[k - 1] <= t:
                k -= 1
            sink, done = (rows[:k], dst[:k]), done[:k]
        m = (F[:k, t] + absorb[:k])[:, :, None] + price[start[:k] + t]
        fn = m.min(axis=1)
        hm = np.where(m == fn[:, None, :], H[:k, t][:, :, None] + hops, _BIG)
        hn = hm.min(axis=1)
        np.equal(hm, hn[:, None, :], out=bits[:k, :, :n])
        tight[:k, t] = np.packbits(bits[:k]).reshape(k, n, -1)
        F[:k, t + 1] = fn
        H[:k, t + 1] = np.where(np.isfinite(fn), hn, _BIG)
        if first_arrival and np.count_nonzero(
                np.logical_or(done, np.isfinite(fn[sink]), out=done)) == k:
            return F[:, :t + 2], H[:, :t + 2], tight
    return F, H, tight


def _search(price, src, dst, start, t_slots, first_arrival=False) -> list:
    """Plan a batch of flows on the layered DP: the forward pass (see _forward,
    whose arguments these are), then its backward half over the flow axis.

    Flow b delivers at the least cost f* that reaches dst[b] within its own
    rows, then with the fewest hops h*, then at the earliest slot t*. An edge
    is tight when its price carries the forward cost and hop count exactly
    into its head; none leaves the destination, which absorbs. A state lies on
    an optimal schedule when a tight edge leads from it to such a state. Only
    the least hop count H counts, as a state reached with more would give a
    schedule with fewer than h* hops. A backward sweep, one slot per step,
    marks those states from each flow's own (dst, t*). Then, one hop per step
    over the batch, the walk takes the lowest-index (lowest-id) next node among
    the marked transmissions from the slots the payload can reach by marked
    carries, and each hop takes the earliest transmit slot from which the rest
    of that node sequence still arrives at t*.

    Returns per flow a NoFeasiblePath when nothing reaches its destination,
    else (f*, t*, node sequence, transmit slots relative to start).
    """
    nb, n = src.size, price.shape[-1]
    F, H, tight = _forward(price, src, dst, start, t_slots, first_arrival)
    swept = np.arange(F.shape[1]) <= np.minimum(t_slots, F.shape[1] - 1)[:, None]
    fd = np.where(swept, F[np.arange(nb), :, dst], np.inf)
    f_star = fd.min(axis=1)
    hd = np.where(fd == f_star[:, None], H[np.arange(nb), :, dst], _BIG)
    h_star = hd.min(axis=1)
    t_star = np.argmax(hd == h_star[:, None], axis=1)

    b = np.flatnonzero(np.isfinite(f_star))
    b = b[np.argsort(-t_star[b], kind="stable")]  # longest t* first: the swept flows are a prefix
    ts, hs, first = t_star[b], h_star[b], src[b]
    m, T = b.size, int(ts.max(initial=0))
    rows = np.arange(m)
    on = np.zeros((m, T + 1, n), dtype=bool)
    on[rows, ts, dst[b]] = True
    k = 0
    for t in range(T - 1, -1, -1):
        while k < m and ts[k] > t:
            k += 1
        ahead = np.packbits(on[:k, t + 1], axis=1)
        on[:k, t] = (tight[b[:k], t] & ahead[:, None, :]).any(axis=2)
    if not on[rows, 0, first].all():
        raise AssertionError("optimal-subgraph reconstruction lost the source")

    # the walk: at[p, t] marks the slots at which flow p's payload can be at
    # its current node; carry and send hold each hop's marked carries at its
    # sender and transmissions to its receiver
    K, tt = int(hs.max(initial=0)), np.arange(T)
    seq = np.zeros((m, K + 1), dtype=np.int64)
    seq[:, 0] = first
    carry = np.zeros((m, K, T), dtype=bool)
    send = np.zeros((m, K, T), dtype=bool)
    at = np.zeros((m, T + 1), dtype=bool)
    at[:, 0] = True
    for h in range(K):
        a = np.flatnonzero(hs > h)
        ka, i = np.arange(a.size), seq[a, h]
        out = (np.unpackbits(tight[b[a, None], tt, i[:, None]], axis=2, count=n).view(bool)
               & on[a, 1:])
        carry[a, h] = out[ka, :, i]
        # held[t]: some marked slot s <= t with marked carries over s..t-1
        latest = np.maximum.accumulate(np.where(at[a], np.arange(T + 1), -1), axis=1)
        gap = np.maximum.accumulate(np.where(carry[a, h], -1, tt), axis=1)
        held = latest[:, :T] > np.concatenate([np.full((a.size, 1), -1), gap[:, :-1]], axis=1)
        cand = (held[:, :, None] & out).any(axis=1)
        cand[ka, i] = False
        j = cand.argmax(axis=1)
        if not cand[ka, j].all():
            raise AssertionError("sequence reconstruction dead-ended")
        seq[a, h + 1] = j
        send[a, h] = out[ka, :, j]
        at[a] = False
        at[a, 1:] = held & send[a, h]

    # slots: done[p, t] marks that the rest of the sequence from the current
    # hop's sender at slot t arrives at t*; fire the slots the hop may use
    done = np.zeros((m, T + 1), dtype=bool)
    done[rows, ts] = True
    fire = np.zeros((m, K, T), dtype=bool)
    for h in range(K - 1, -1, -1):
        a = np.flatnonzero(hs > h)
        fire[a, h] = send[a, h] & done[a, 1:]
        next_fire = np.minimum.accumulate(np.where(fire[a, h], tt, T + 1)[:, ::-1], axis=1)
        next_gap = np.minimum.accumulate(np.where(carry[a, h], T, tt)[:, ::-1], axis=1)
        done[a, :T] = (next_fire <= next_gap)[:, ::-1]
        done[a, T] = False
    slots = np.zeros((m, K), dtype=np.int64)
    now = np.zeros(m, dtype=np.int64)
    for h in range(K):
        a = np.flatnonzero(hs > h)
        ok = fire[a, h] & (tt >= now[a, None])
        s = ok.argmax(axis=1)
        if not ok[np.arange(a.size), s].all():
            raise AssertionError("slot assignment dead-ended")
        slots[a, h] = s
        now[a] = s + 1

    res = [NoFeasiblePath("no schedule reaches the destination within the deadline")
           for _ in range(nb)]
    for p, fb in enumerate(b):
        res[fb] = (float(f_star[fb]), int(ts[p]), seq[p, :hs[p] + 1].tolist(),
                   slots[p, :hs[p]].tolist())
    return res


def _window(graph: ChannelGraph, source: str, dest: str, deadline_s: float,
            injection_slot: int):
    """A request's node indices and its window length in slots, or its error."""
    grid = graph.grid
    if deadline_s < grid.dt:
        raise ValueError("deadline must cover at least one slot")
    try:
        src = graph.node_ids.index(source)
        dst = graph.node_ids.index(dest)
    except ValueError as e:
        raise UnknownNode(str(e)) from None
    if injection_slot < 0 or injection_slot >= grid.n_slots:
        raise ValueError("injection slot outside the grid")
    t_slots = min(grid.slots_in(deadline_s), grid.n_slots - 1 - injection_slot)
    if source != dest and t_slots < 1:
        raise NoFeasiblePath("no slots left before the deadline")
    return src, dst, t_slots


def _reserve_many(graph: ChannelGraph, tables: PlannerTables, requests, min_delay=False) -> list:
    """Shared engine: least predicted interference under the caps, or with
    min_delay earliest delivery, for each (source, dest, deadline_s,
    injection_slot) request, with one batched search over every request that
    needs one. Each entry of the result is the request's PathReservation, or
    the NoFeasiblePath, UnknownNode or ValueError that planning it alone
    raises."""
    out = [None] * len(requests)
    todo = []
    for k, (source, dest, deadline_s, injection_slot) in enumerate(requests):
        try:
            src, dst, t_slots = _window(graph, source, dest, deadline_s, injection_slot)
        except (NoFeasiblePath, UnknownNode, ValueError) as e:
            out[k] = e
            continue
        todo.append((k, src, dst, injection_slot, t_slots))
    if not todo:
        return out
    todo.sort(key=lambda job: -job[4])  # stable: longest window first, as _forward needs
    price = tables.delay_price if min_delay else tables.capped_price
    _, src, dst, start, t_slots = (np.array(c, dtype=np.int64) for c in zip(*todo))
    plans = _search(price, src, dst, start, t_slots, min_delay)
    for (k, _, _, start, t_slots), plan in zip(todo, plans):
        if isinstance(plan, NoFeasiblePath):
            out[k] = plan
            continue
        cost, t_star, seq, rel = plan
        transmissions = [(start + s, i, j) for s, i, j in zip(rel, seq, seq[1:])]
        out[k] = _reservation(graph, tables.budget, transmissions,
                              None if min_delay else InterferenceCost(cost),
                              start, start + t_star, t_slots)
    return out


def _reservation(graph: ChannelGraph, budget: LinkBudget, transmissions, cost,
                 injection_slot, delivery_slot, t_slots) -> PathReservation:
    hops = []
    last_window_end = injection_slot + t_slots - 1
    for k, (s, i, j) in enumerate(transmissions):
        end = transmissions[k + 1][0] - 1 if k + 1 < len(transmissions) else last_window_end
        # bit for bit the value prepare_planner checked against p_max
        power = required_power_dbm(graph.weights[s, i, j], budget)
        hops.append(HopReservation(graph.node_ids[i], graph.node_ids[j], (s, end), float(power)))
    return PathReservation(tuple(hops), injection_slot, delivery_slot, cost)


def _one(results: list) -> PathReservation:
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


def reserve_paths(graph: ChannelGraph, requests, tables: PlannerTables) -> list:
    """reserve_path for many (source, dest, deadline_s, injection_slot) requests
    on shared tables, in one flow-batched forward pass. Entry k is request k's
    PathReservation, or the NoFeasiblePath, UnknownNode or ValueError that
    reserve_path raises for it alone, returned rather than raised."""
    return _reserve_many(graph, tables, requests)


def reserve_path(graph: ChannelGraph, radio_map: RadioMap, source: str, dest: str,
                 deadline_s: float, sensitive_nodes, budget: LinkBudget,
                 injection_slot: int = 0, tables: PlannerTables = None) -> PathReservation:
    """Minimum-predicted-interference reservation delivering within deadline_s
    on the edges that respect the tables' per-sensitive-node caps.

    Pass precomputed tables to amortize the per-scenario setup across flows;
    without them the tables have no cap. This is reserve_paths for one request.
    """
    if tables is None:
        tables = prepare_planner(graph, radio_map, sensitive_nodes, budget)
    return _one(reserve_paths(graph, [(source, dest, deadline_s, injection_slot)], tables))


def min_delay_reservation(graph: ChannelGraph, requests, tables: PlannerTables) -> list:
    """Delivery-time-minimizing reservations over the same time-expanded graph,
    for many (source, dest, deadline_s, injection_slot) requests in one
    flow-batched pass that stops once every flow has arrived.

    Every edge (carry or transmit) costs one slot of delay. The objective
    prices no interference, so each reservation's predicted_cost is None.
    Entry k is request k's PathReservation, or the NoFeasiblePath, UnknownNode
    or ValueError that planning it alone raises, returned rather than raised.
    """
    return _reserve_many(graph, tables, requests, min_delay=True)
