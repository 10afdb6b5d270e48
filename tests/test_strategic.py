import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeris import strategic
from aeris.channel_graph import SlotGrid, synthesize
from aeris.errors import ExceedsPMax, NoFeasiblePath
from aeris.operational import LinkBudget, min_power_outage, required_power_dbm
from aeris.radio_env import ChannelSample, PathLossParams, RadioMap, build_map, sample_along, \
    sample_between, sample_ground_pairs
from aeris.scene import ObstacleBox, Position3, Scene, SceneNode
from aeris.strategic import (HopReservation, InterferenceCost, PathReservation,
                             min_delay_reservation, reserve_path)
from aeris.trajectory import Trajectory4D, Waypoint
from aeris.units import db_to_lin


def P(x, y, z):
    return Position3(x, y, z)


def hop_interference(radio_map: RadioMap, tx_positions, power_dbm: float, window,
                     sensitive_nodes, dt_s: float) -> InterferenceCost:
    """Predicted interference energy of transmitting at power_dbm over a window.

    Sums p_lin * gain_lin(tx(t), g) * dt over the window's slots and every
    sensitive node g, with gains taken from the map. tx_positions maps a slot
    index to the transmitter position.
    """
    start, end = window
    p_lin = db_to_lin(power_dbm)
    nodes = list(sensitive_nodes)
    if not nodes or p_lin == 0.0:
        return InterferenceCost(0.0)
    sens_pos = np.array([n.pos.as_array() for n in nodes])
    total = 0.0
    for slot in range(start, end + 1):
        pos = tx_positions(slot) if callable(tx_positions) else tx_positions[slot]
        tx = np.broadcast_to(pos.as_array(), sens_pos.shape)
        gains = radio_map.query_many(tx, sens_pos)
        sens = np.sum(db_to_lin(gains))
        total = total + (p_lin * sens) * dt_s
    return InterferenceCost(total)


_BIG = np.iinfo(np.int64).max // 4


def full_window_forward(cost, feas, carry_cost, src, dst, t_slots):
    """Reference for strategic._forward: one flow's forward sweep over its whole
    window, one slot at a time. Returns F and H, (t_slots + 1, n)."""
    n = cost.shape[1]
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
    return F, H


def full_window_search(cost, feas, carry_cost, src, dst, t_slots):
    """Reference for strategic._search: the forward sweep over the whole window
    and the optimal-subgraph masks built slot by slot, sized t_slots. cost is
    always a tensor (the min-delay objective passes dt on feasible edges)."""
    n = cost.shape[1]
    F, H = full_window_forward(cost, feas, carry_cost, src, dst, t_slots)

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
    keep_carry = np.zeros((t_slots, n), dtype=bool)
    keep_trans = np.zeros((t_slots, n, n), dtype=bool)
    for t in range(min(t_star, t_slots)):
        ok = np.isfinite(F[t])
        ok[dst] = False
        keep_carry[t] = ok & (F[t] + carry_cost == F[t + 1])
        keep_trans[t] = feas[t] & ok[:, None] & (F[t][:, None] + cost[t] == F[t + 1][None, :])

    # reach[t][i, h]: completable to (dst, t*) with exactly h_star - h more hops.
    reach = [np.zeros((n, h_star + 2), dtype=bool) for _ in range(t_star + 1)]
    reach[t_star][dst, h_star] = True
    for t in range(t_star - 1, -1, -1):
        nxt = reach[t + 1]
        shifted = np.zeros_like(nxt)
        shifted[:, :-1] = nxt[:, 1:]
        trans = (keep_trans[t].astype(np.uint8) @ shifted.astype(np.uint8)) > 0
        reach[t] = (keep_carry[t][:, None] & nxt) | trans
    if not reach[0][src, 0]:
        raise AssertionError("optimal-subgraph reconstruction lost the source")
    return keep_carry, keep_trans, reach, f_star, h_star, t_star


def lex_sequence(keep_carry, keep_trans, reach, src, dst, h_star, t_star):
    """Scalar oracle for the walk of strategic._search: the lexicographically
    smallest node-index sequence among optimal schedules, grown hop by hop from
    Python sets of the slots the payload can be at its current node."""
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
                if best is None or j < best:
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


def earliest_slots(keep_carry, keep_trans, seq, t_star):
    """Scalar oracle for the slot assignment of strategic._search: the earliest
    transmit slots realizing the fixed sequence and delivery t*."""
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


def oracle_search(price, src, dst, start, t_slots, first_arrival=False):
    """strategic._search flow by flow from the scalar oracles: the full-window
    search over the flow's own slots of price (transmit edges where finite off
    the diagonal, the carry cost on it), then lex_sequence and earliest_slots.
    A flow whose source is its destination is delivered at once, with no hop,
    even in a window of 0 slots. It sweeps every window whole, so it ignores
    first_arrival."""
    out = []
    for s, d, entry, t_slots_b in zip(src, dst, start, t_slots):
        if s == d:
            out.append((0.0, 0, [int(s)], []))
            continue
        cost = price[entry:entry + t_slots_b]
        n = cost.shape[1]
        feas = np.isfinite(cost) & ~np.eye(n, dtype=bool)
        try:
            keep_carry, keep_trans, reach, f_star, h_star, t_star = full_window_search(
                cost, feas, float(cost[0, 0, 0]), s, d, t_slots_b)
        except NoFeasiblePath as e:
            out.append(e)
            continue
        seq = lex_sequence(keep_carry, keep_trans, reach, s, d, h_star, t_star)
        out.append((float(f_star), t_star, [int(j) for j in seq],
                    earliest_slots(keep_carry, keep_trans, seq, t_star)))
    return out


def same_searches(got, want):
    """Per flow: the same error, or the same (f*, t*, sequence, slots)."""
    for g, w in zip(got, want, strict=True):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w))
        else:
            assert g == w


def enumerate_schedules(graph, rmap, src, dst, deadline_slots, sens, budget,
                        injection=0, carry_cost=0.0, delay_objective=False):
    """Exhaustive oracle over every feasible schedule in the time-expanded graph.

    Returns the lexicographic minimum of (cost, hops, delivery_slot, node-id
    sequence, transmit-slot vector), with the destination absorbing, or None.
    """
    ids = graph.node_ids
    dt = graph.grid.dt
    t_end = injection + min(deadline_slots, graph.grid.n_slots - 1 - injection)
    edges = {}
    for t in range(injection, t_end):
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                if i == j:
                    continue
                w = float(graph.weights[t, a, b])
                if not np.isfinite(w):
                    continue
                try:
                    p = min_power_outage(w, budget)
                except ExceedsPMax:
                    continue
                pos = Position3.from_array(np.maximum(graph.positions[t, a], 0.0))
                cost = hop_interference(rmap, {t: pos}, p, (t, t), sens, dt).value
                if delay_objective:
                    cost = dt
                edges[(t, i, j)] = cost
    best = None

    def rec(t, node, cost, hops, seq, slots):
        nonlocal best
        if node == dst:
            cand = (cost, hops, t, tuple(seq), tuple(slots))
            if best is None or cand < best:
                best = cand
            return
        if t >= t_end:
            return
        rec(t + 1, node, cost + carry_cost, hops, seq, slots)
        for j in ids:
            if j == node or (t, node, j) not in edges:
                continue
            rec(t + 1, j, cost + edges[(t, node, j)], hops + 1, seq + [j], slots + [t])

    rec(injection, src, 0.0, 0, [src], [])
    return best


def random_instance(seed):
    """A small random world: <=5 entities, <=8 slots, roughly half feasible edges."""
    rng = np.random.default_rng(seed)
    n_slots = int(rng.integers(4, 9))
    grid = SlotGrid(1.0, n_slots)
    n_air = int(rng.integers(1, 3))
    n_ground = int(rng.integers(2, 4 - (n_air > 1)))
    trajs = []
    for a in range(n_air):
        p0 = rng.uniform([0, 0, 40], [600, 600, 120])
        p1 = rng.uniform([0, 0, 40], [600, 600, 120])
        t1 = max(n_slots * grid.dt, np.linalg.norm(p1 - p0) / 50.0)
        trajs.append(Trajectory4D(f"a{a}", (Waypoint(0.0, P(*p0)), Waypoint(float(t1), P(*p1)))))
    ground = [SceneNode(f"g{k}", P(*rng.uniform([0, 0, 0], [600, 600, 0.0])))
              for k in range(n_ground)]
    samples = [ChannelSample(P(*rng.uniform([0, 0, 0], [600, 600, 120])),
                             P(*rng.uniform([0, 0, 0], [600, 600, 120])),
                             float(rng.uniform(-105, -65)))
               for _ in range(25)]
    rmap = build_map(samples, k_neighbors=4)
    graph = synthesize(trajs, ground, rmap, grid)
    finite = graph.weights[np.isfinite(graph.weights)]
    # p_max at the median required power leaves about half the edges usable
    median_gain = float(np.median(finite))
    budget = LinkBudget(p_max_dbm=min_power_outage(median_gain, LinkBudget(p_max_dbm=1e9)))
    n_sens = int(rng.integers(0, 3))
    sens = [SceneNode(f"s{k}", P(*rng.uniform([0, 0, 0], [600, 600, 0.0])))
            for k in range(n_sens)]
    entities = [t.aircraft_id for t in trajs] + [g.id for g in ground]
    src, dst = rng.choice(entities, 2, replace=False)
    deadline_slots = int(rng.integers(2, n_slots))
    return graph, rmap, str(src), str(dst), deadline_slots, sens, budget


class TestHopInterference:
    RMAP = build_map([ChannelSample(P(0, 0, 50), P(100, 0, 0), -100.0)])
    NODE = SceneNode("s", P(100, 0, 0))

    def test_zero_power_zero_cost(self):
        got = hop_interference(self.RMAP, {0: P(0, 0, 50)}, float("-inf"), (0, 0),
                               [self.NODE], 1.0)
        assert got.value == 0.0

    def test_no_sensitive_nodes_zero_cost(self):
        got = hop_interference(self.RMAP, {0: P(0, 0, 50)}, 30.0, (0, 0), [], 1.0)
        assert got.value == 0.0

    def test_single_term_product(self):
        # 30 dBm, gain -100 dB, dt 1 s -> 1000 mW * 1e-10 * 1 s
        got = hop_interference(self.RMAP, {0: P(0, 0, 50)}, 30.0, (0, 0), [self.NODE], 1.0)
        assert got.value == pytest.approx(1e-7, rel=1e-12)

    def test_multi_slot_matches_brute_force_sum(self):
        rng = np.random.default_rng(4)
        samples = [ChannelSample(P(*rng.uniform([0, 0, 0], [300, 300, 100])),
                                 P(*rng.uniform([0, 0, 0], [300, 300, 100])),
                                 float(rng.uniform(-110, -70))) for _ in range(30)]
        rmap = build_map(samples)
        nodes = [SceneNode("s0", P(50, 50, 0)), SceneNode("s1", P(250, 10, 0))]
        positions = {t: P(10.0 * t, 5.0, 60.0) for t in range(12)}
        got = hop_interference(rmap, positions, 17.0, (2, 11), nodes, 0.25)
        total = 0.0
        p_lin = 10.0 ** (17.0 / 10.0)
        for t in range(2, 12):
            tx = positions[t].as_array()
            s = 0.0
            for node in nodes:
                g = float(rmap.query_many(tx[None], node.pos.as_array()[None])[0])
                s += 10.0 ** (g / 10.0)
            total += p_lin * s * 0.25
        assert got.value == pytest.approx(total, rel=1e-12)


@st.composite
def _dp_instance(draw):
    """A random layered-DP input, often with a planted src -> dst chain of up to
    three hops that arrives by slot `arrive`. The window is at least ten times
    `arrive`, so with the chain the min-delay t* is at most a tenth of it."""
    n = draw(st.integers(2, 6))
    nodes = draw(st.permutations(range(n)))
    src, dst = nodes[0], nodes[1]
    arrive = draw(st.integers(1, 4))
    t_slots = draw(st.integers(10 * arrive, 10 * arrive + 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feas = rng.random((t_slots, n, n)) < draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    feas[:, np.arange(n), np.arange(n)] = False
    hops = draw(st.integers(0, min(3, n - 1, arrive)))
    chain = [src] + list(nodes[2:hops + 1]) + [dst]
    slots = sorted(rng.choice(arrive, size=hops, replace=False))
    for t, i, j in zip(slots, chain, chain[1:]):
        feas[t, i, j] = True
    # few distinct costs, so equal-cost ties between schedules are common
    cost = rng.choice([0.0, 0.1, 0.25, 1.0, 3.0], size=feas.shape)
    return feas, cost, src, dst, t_slots, hops > 0


class TestSearch:
    def check_against_oracle(self, cost, feas, carry_cost, src, dst, t_slots):
        """The batched search on a batch of one against the scalar oracles;
        returns t* or None when nothing is routed."""
        price = step_prices(feas, cost, carry_cost)
        flows = [np.array([v]) for v in (src, dst, 0, t_slots)]
        (got,) = strategic._search(price, *flows, first_arrival=cost is None)
        (want,) = oracle_search(price, *flows)
        same_searches([got], [want])
        return None if isinstance(got, NoFeasiblePath) else got[1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dp_instance(), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    def test_min_delay_matches_full_window_oracle(self, inst, dt):
        feas, _, src, dst, t_slots, plant = inst
        t_star = self.check_against_oracle(None, feas, dt, src, dst, t_slots)
        if plant:
            assert 10 * t_star <= t_slots

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dp_instance())
    def test_interference_matches_full_window_oracle(self, inst):
        feas, cost, src, dst, t_slots, _ = inst
        self.check_against_oracle(cost, feas, 0.0, src, dst, t_slots)


@st.composite
def _dp_batch(draw):
    """A random layered-DP input and a batch of flows on it, each with its own
    entry slot and window, longest window first as strategic._forward takes
    them."""
    n = draw(st.integers(2, 6))
    n_slots = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feas = rng.random((n_slots, n, n)) < draw(st.sampled_from([0.05, 0.15, 0.4]))
    feas[:, np.arange(n), np.arange(n)] = False
    cost = rng.choice([0.0, 0.1, 0.25, 1.0, 3.0], size=feas.shape)
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        src, dst = draw(st.permutations(range(n)))[:2]
        start = draw(st.integers(0, n_slots - 2))
        flows.append((src, dst, start, draw(st.integers(1, n_slots - 1 - start))))
    flows.sort(key=lambda f: -f[3])
    return feas, cost, flows


def step_prices(feas, cost, carry_cost):
    """The forward pass's step tensor: cost on the feasible edges (carry_cost
    when cost is None), inf off them, and the carry on the diagonal."""
    price = np.where(feas, carry_cost if cost is None else cost, np.inf)
    price[:, np.arange(feas.shape[1]), np.arange(feas.shape[1])] = carry_cost
    return price


def swept_rows(F_ref, dst, t_slots, first_arrival):
    """How many rows of a flow's forward pass are swept: the whole window, or
    with first_arrival up to the first slot that reaches dst."""
    arrived = np.flatnonzero(np.isfinite(F_ref[:, dst]))
    return arrived[0] + 1 if first_arrival and arrived.size else t_slots + 1


class TestForward:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dp_instance(), st.sampled_from([None, 0.1, 0.5]))
    def test_batch_of_one_matches_full_window_forward(self, inst, dt):
        feas, cost, src, dst, t_slots, _ = inst
        carry = 0.0 if dt is None else dt
        tensor = cost if dt is None else np.where(feas, dt, np.inf)
        F, H, _ = strategic._forward(step_prices(feas, tensor, carry), [src], [dst], [0],
                                     [t_slots], first_arrival=dt is not None)
        want_F, want_H = full_window_forward(tensor, feas, carry, src, dst, t_slots)
        rows = swept_rows(want_F, dst, t_slots, dt is not None)
        # the min-delay pass stops at the first arrival
        assert F.shape[1] == H.shape[1] == rows
        assert F[0].tobytes() == want_F[:rows].tobytes()
        assert H[0].tobytes() == want_H[:rows].tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_dp_batch(), st.booleans())
    def test_batch_rows_match_each_flow_alone(self, inst, min_delay):
        feas, cost, flows = inst
        carry = 0.5 if min_delay else 0.0
        F, H, _ = strategic._forward(step_prices(feas, None if min_delay else cost, carry),
                                     *zip(*flows), first_arrival=min_delay)
        for b, (src, dst, start, t_slots) in enumerate(flows):
            sl = slice(start, start + t_slots)
            tensor = np.where(feas[sl], carry, np.inf) if min_delay else cost[sl]
            want_F, want_H = full_window_forward(tensor, feas[sl], carry, src, dst, t_slots)
            rows = swept_rows(want_F, dst, t_slots, min_delay)
            assert F[b, :rows].tobytes() == want_F[:rows].tobytes()
            assert H[b, :rows].tobytes() == want_H[:rows].tobytes()
        # the search over the batch plans each flow as the scalar oracles do
        # for it alone
        price = step_prices(feas, None if min_delay else cost, carry)
        flows = [np.array(c) for c in zip(*flows)]
        same_searches(strategic._search(price, *flows, first_arrival=min_delay),
                      oracle_search(price, *flows))


class TestReservePath:
    def test_source_equals_dest(self):
        graph, rmap, src, dst, dl, sens, budget = random_instance(0)
        res = reserve_path(graph, rmap, src, src, dl * graph.grid.dt, sens, budget)
        assert res.hops == ()
        assert res.predicted_cost.value == 0.0
        assert res.delivery_slot == res.injection_slot

    def test_matches_exhaustive_enumeration_200_instances(self):
        matched = 0
        for seed in range(400):
            if matched >= 200:
                break
            graph, rmap, src, dst, dl, sens, budget = random_instance(seed)
            want = enumerate_schedules(graph, rmap, src, dst, dl, sens, budget)
            try:
                res = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
            except NoFeasiblePath:
                assert want is None
                continue
            cost, hops, delivery, seq, slots = want
            assert res.predicted_cost.value == cost
            assert len(res.hops) == hops
            assert res.delivery_slot == delivery
            assert tuple([src] + [h.rx for h in res.hops]) == seq
            assert tuple(h.window[0] for h in res.hops) == slots
            matched += 1
        assert matched >= 200

    def test_deadline_monotonicity(self):
        for seed in range(40):
            graph, rmap, src, dst, _, sens, budget = random_instance(seed)
            costs = []
            for dl in (2, 4, graph.grid.n_slots - 1):
                try:
                    res = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
                    costs.append(res.predicted_cost.value)
                except NoFeasiblePath:
                    costs.append(float("inf"))
            assert costs[0] >= costs[1] >= costs[2]

    def test_adding_sensitive_node_never_decreases_cost(self):
        rng = np.random.default_rng(77)
        for seed in range(30):
            graph, rmap, src, dst, dl, sens, budget = random_instance(seed)
            extra = sens + [SceneNode("extra", P(*rng.uniform([0, 0, 0], [600, 600, 0.0])))]
            try:
                base = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
                more = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, extra, budget)
            except NoFeasiblePath:
                continue
            assert more.predicted_cost.value >= base.predicted_cost.value

    def test_reservation_invariants(self):
        for seed in range(40):
            graph, rmap, src, dst, dl, sens, budget = random_instance(seed)
            try:
                res = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
            except NoFeasiblePath:
                continue
            assert res.delivery_slot - res.injection_slot <= dl
            assert all(h.nominal_power_dbm <= budget.p_max_dbm + 1e-12 for h in res.hops)
            if res.hops:
                assert res.hops[0].tx == src
                assert res.hops[-1].rx == dst

    def test_deterministic(self):
        graph, rmap, src, dst, dl, sens, budget = random_instance(11)
        a = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
        b = reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)
        assert a == b

    def test_unreachable_raises(self):
        # one isolated pair: all edges infeasible under a tiny power cap
        graph, rmap, src, dst, dl, sens, _ = random_instance(2)
        budget = LinkBudget(p_max_dbm=-150.0)
        with pytest.raises(NoFeasiblePath):
            reserve_path(graph, rmap, src, dst, dl * graph.grid.dt, sens, budget)


class TestMinDelay:
    def test_matches_min_delay_enumeration(self):
        self.check_enumeration(whole_grid=False)

    def test_whole_grid_deadline_matches_min_delay_enumeration(self):
        self.check_enumeration(whole_grid=True)

    def check_enumeration(self, whole_grid):
        matched = early = 0
        for seed in range(200):
            if matched >= 60:
                break
            graph, rmap, src, dst, dl, sens, budget = random_instance(seed)
            if whole_grid:
                dl = graph.grid.n_slots - 1
            # one batch: the flow, its reverse, and the flow a slot later, whose
            # window the end of the grid may close before the deadline
            flows = [(src, dst, 0), (dst, src, 0), (src, dst, 1)]
            tables = strategic.prepare_planner(graph, rmap, sens, budget)
            got = min_delay_reservation(graph, [(a, b, dl * graph.grid.dt, injection)
                                                for a, b, injection in flows], tables)
            for k, ((a, b, injection), res) in enumerate(zip(flows, got, strict=True)):
                want = enumerate_schedules(graph, rmap, a, b, dl, sens, budget, injection,
                                           carry_cost=graph.grid.dt, delay_objective=True)
                if isinstance(res, NoFeasiblePath):
                    assert want is None
                    continue
                _, hops, delivery, seq, slots = want
                # the objective prices no interference, so no cost is reported
                assert res.predicted_cost is None
                assert res.to_json_dict()["predicted_cost_mw_s"] is None
                assert res.delivery_slot == delivery
                assert len(res.hops) == hops
                assert tuple([a] + [h.rx for h in res.hops]) == seq
                assert tuple(h.window[0] for h in res.hops) == slots
                if k == 0:
                    matched += 1
                    early += delivery < dl
        assert matched >= 60
        if whole_grid:
            # most deliveries leave later slots of the window unswept
            assert early >= 40


def corridor(seed):
    """Ferry plus relay chain: carry pays off for the loose deadline, the chain
    is the only way to meet the tight one."""
    scene = Scene(
        bounds=ObstacleBox(P(-100, -300, 0), P(1200, 300, 200)),
        ground_sources=(SceneNode("src", P(0, 0, 0)),),
        ground_destinations=(SceneNode("dst", P(1000, 0, 0)),),
        sensitive_nodes=(SceneNode("sens", P(500, 60, 0)),),
    )
    grid = SlotGrid(0.5, 60)
    ferry = Trajectory4D("f", (
        Waypoint(0.0, P(50, 0, 80)), Waypoint(18.0, P(950, 0, 80)),
        Waypoint(30.0, P(950, 0, 80)),
    ))
    relays = [
        Trajectory4D(f"r{k}", (Waypoint(0.0, P(x, 0, 80)), Waypoint(30.0, P(x, 0, 80))))
        for k, x in enumerate((250.0, 500.0, 750.0))
    ]
    trajs = [ferry] + relays
    # mild terrain variation keeps the hop-count structure stable across seeds
    params = PathLossParams(sigma_sh_los_db=0.5, sigma_sh_nlos_db=1.0)
    peers = [n.pos for n in scene.all_nodes()]
    shadow = np.random.SeedSequence([seed, 9])
    samples = sample_along(trajs, scene, params, shadow, 0.5, peers)
    samples += sample_between(trajs, scene, params, shadow, 0.5)
    samples += sample_ground_pairs(scene, params, shadow, peers)
    rmap = build_map(samples)
    graph = synthesize(trajs, scene.all_nodes()[:2], rmap, grid)
    # 250 m chain hops fit under p_max; any three-hop split of the corridor
    # needs a >=370 m leg, which does not
    budget = LinkBudget(p_max_dbm=23.0)
    return graph, rmap, scene, budget


class TestDelayToleranceBehavior:
    @pytest.mark.parametrize("seed", range(5))
    def test_carry_vs_relay_and_cost_ordering(self, seed):
        graph, rmap, scene, budget = corridor(seed)
        loose = reserve_path(graph, rmap, "src", "dst", 20.0, scene.sensitive_nodes, budget)
        tight = reserve_path(graph, rmap, "src", "dst", 2.0, scene.sensitive_nodes, budget)
        carries = loose.carry_intervals()
        assert any(entity.startswith("f") or entity.startswith("r") for entity, *_ in carries)
        assert tight.transmit_only
        assert len(tight.hops) >= 2
        assert tight.predicted_cost.value >= loose.predicted_cost.value


class TestCorridorOracle:
    @pytest.mark.parametrize("planner", ["min_delay_reservation", "reserve_path"])
    @pytest.mark.parametrize("injection", [0, 12])
    def test_20s_reservation_matches_full_window_oracle(self, planner, injection,
                                                         monkeypatch):
        graph, rmap, scene, budget = corridor(0)
        tables = strategic.prepare_planner(graph, rmap, scene.sensitive_nodes, budget)
        requests = [("src", "dst", 20.0, injection), ("dst", "src", 20.0, injection)]
        if planner == "min_delay_reservation":
            plan = functools.partial(min_delay_reservation, graph, requests, tables)
        else:
            plan = functools.partial(strategic.reserve_paths, graph, requests, tables)
        got = plan()
        assert all(isinstance(res, PathReservation) for res in got)
        monkeypatch.setattr(strategic, "_search", oracle_search)
        assert got == plan()
        if planner == "min_delay_reservation":
            # the first arrival leaves most of the 40-slot window unswept
            assert got[0].delivery_slot - injection < 10


def per_node_tables(graph, radio_map, nodes, budget, cap, pathloss):
    """Reference for prepare_planner's sensitive-node tables: one map lookup per
    sensitive node over every (slot, entity) position, clamped column by column
    when pathloss is given.
    Returns (edge_cost, capped_price), each with free carries on its diagonal:
    the interference cost of every p_max-feasible edge, and of those that also
    respect the caps."""
    w = graph.weights
    n_slots, n, _ = w.shape
    with np.errstate(invalid="ignore"):
        power = required_power_dbm(w, budget)
        feasible = np.isfinite(w) & (power <= budget.p_max_dbm)
    allowed = np.full((n_slots, n), np.inf)
    sens_lin = np.zeros((n_slots, n))
    if nodes:
        flat_tx = graph.positions.reshape(n_slots * n, 3)
        cols = []
        for node in nodes:
            rx = np.broadcast_to(node.pos.as_array(), flat_tx.shape)
            g = radio_map.query_many(flat_tx, rx)
            if pathloss is not None:
                d = np.linalg.norm(flat_tx - rx, axis=1)
                los = -(pathloss.pl0_db + 10.0 * pathloss.n_los
                        * np.log10(np.maximum(d, pathloss.d0) / pathloss.d0))
                g = np.maximum(g, los - strategic.SHIELD_MARGIN_DB)
            cols.append(g)
        gains = np.stack(cols, axis=1)
        sens_lin = np.sum(db_to_lin(gains), axis=1).reshape(n_slots, n)
        if cap is not None:
            allowed = (cap - gains.max(axis=1)).reshape(n_slots, n)
    with np.errstate(invalid="ignore"):
        feasible_capped = feasible & (power <= allowed[:, :, None])
        edge_cost = (db_to_lin(power) * sens_lin[:, :, None]) * graph.grid.dt
    edge_cost = np.where(feasible, edge_cost, np.inf)
    capped_price = np.where(feasible_capped, edge_cost, np.inf)
    for price in (edge_cost, capped_price):
        price[:, np.arange(n), np.arange(n)] = 0.0
    return edge_cost, capped_price


class TestPlannerTables:
    @pytest.mark.parametrize("which", ["none", "sensitive", "all"])
    @pytest.mark.parametrize("pathloss", [None, PathLossParams()], ids=["no_clamp", "clamp"])
    @pytest.mark.parametrize("cap", [None, -75.0])
    def test_matches_per_node_oracle(self, which, pathloss, cap):
        graph, rmap, scene, budget = corridor(0)
        nodes = {"none": (), "sensitive": scene.sensitive_nodes,
                 "all": scene.all_nodes()}[which]
        got = strategic.prepare_planner(graph, rmap, nodes, budget, per_node_cap_dbm=cap,
                                        pathloss=pathloss)
        uncapped, want = per_node_tables(graph, rmap, nodes, budget, cap, pathloss)
        assert got.capped_price.dtype == want.dtype
        assert got.capped_price.tobytes() == want.tobytes()
        if cap is not None and nodes:
            # the cap binds somewhere, so the comparison covers it
            assert (got.capped_price != uncapped).any()

    def test_without_a_cap_capped_price_is_the_uncapped_cost(self):
        # reserve_path without tables plans on capped_price, which then prices
        # every p_max-feasible edge
        def cases():
            for seed in range(100):
                graph, rmap, _, _, _, sens, budget = random_instance(seed)
                yield graph, rmap, sens, budget
            for seed in range(5):
                graph, rmap, scene, budget = corridor(seed)
                yield graph, rmap, scene.sensitive_nodes, budget

        for graph, rmap, sens, budget in cases():
            tables = strategic.prepare_planner(graph, rmap, sens, budget)
            uncapped, _ = per_node_tables(graph, rmap, sens, budget, None, None)
            assert tables.capped_price.tobytes() == uncapped.tobytes()


class TestReservationJson:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            PathReservation(
                hops=(HopReservation("a", "b", (3, 6), 12.5),
                      HopReservation("b", "c", (6, 9), 17.0)),
                injection_slot=2, delivery_slot=8,
                predicted_cost=InterferenceCost(0.0),
            )

    def test_chain_continuity_enforced(self):
        with pytest.raises(ValueError):
            PathReservation(
                hops=(HopReservation("a", "b", (3, 4), 12.5),
                      HopReservation("x", "c", (5, 9), 17.0)),
                injection_slot=2, delivery_slot=8,
                predicted_cost=InterferenceCost(0.0),
            )
