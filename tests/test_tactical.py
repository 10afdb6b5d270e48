import itertools

import numpy as np
import pytest

from aeris.errors import EscalateToStrategic, InfeasibleSchedule
from aeris.operational import LinkBudget, required_power_dbm
from aeris.strategic import HopReservation
from aeris.tactical import (LocalCluster, LocalGraphSlice, Schedule, detour_halves,
                            reroute_local, schedule_timing)

BUDGET = LinkBudget(p_max_dbm=30.0)


def make_slice(slots, gains, sens=None):
    """gains: {(a, b): array}; sens defaults to flat unit weights."""
    entities = sorted({e for pair in gains for e in pair})
    sens = sens or {e: np.ones(len(slots)) for e in entities}
    return LocalGraphSlice(np.asarray(slots), gains, sens, BUDGET, 0.5)


class TestSchedule:
    def test_precedence_enforced(self):
        hops = (HopReservation("a", "b", (0, 5), 10.0), HopReservation("b", "c", (6, 9), 10.0))
        with pytest.raises(ValueError):
            Schedule((7, 6), hops)

    def test_window_membership_enforced(self):
        hops = (HopReservation("a", "b", (0, 5), 10.0),)
        with pytest.raises(ValueError):
            Schedule((6,), hops)


class TestRerouteLocal:
    def cluster(self, members, blocked):
        return LocalCluster(tuple(members), {}, frozenset(blocked), None)

    def test_substitutes_available_relay(self):
        # directive 2 -> 6 -> 7 with the first link blocked and node 5 free
        blocked_hop = HopReservation("2", "6", (0, 9), 15.0)
        tail = [HopReservation("6", "7", (10, 19), 15.0)]
        slots = np.arange(0, 20)
        flat = np.full(20, -80.0)
        gains = {("2", "5"): flat, ("5", "7"): flat, ("2", "6"): np.full(20, -130.0),
                 ("6", "7"): flat}
        slc = make_slice(slots, gains)
        out = reroute_local(self.cluster(["2", "5", "6", "7"], [("2", "6")]),
                            blocked_hop, tail, slc)
        assert [h.tx for h in out] == ["2", "5"]
        assert [h.rx for h in out] == ["5", "7"]
        assert out[0].window[1] < out[1].window[0]

    def test_cheapest_relay_wins_with_id_tiebreak(self):
        blocked_hop = HopReservation("a", "b", (0, 9), 15.0)
        tail = [HopReservation("b", "c", (10, 19), 15.0)]
        slots = np.arange(0, 20)
        flat = np.full(20, -80.0)
        gains = {("a", "m1"): flat, ("m1", "c"): flat,
                 ("a", "m2"): flat, ("m2", "c"): flat,
                 ("a", "b"): np.full(20, -120.0)}
        sens = {e: np.ones(20) for e in "abcm"}
        sens["a"] = np.ones(20)
        sens["m1"] = np.ones(20)
        sens["m2"] = np.ones(20)
        slc = LocalGraphSlice(slots, gains, sens, BUDGET, 0.5)
        out = reroute_local(self.cluster(["a", "b", "c", "m1", "m2"], [("a", "b")]),
                            blocked_hop, tail, slc)
        assert out[0].rx == "m1"

    def test_escalates_when_no_relay_fits(self):
        blocked_hop = HopReservation("a", "b", (0, 9), 15.0)
        tail = [HopReservation("b", "c", (10, 19), 15.0)]
        slots = np.arange(0, 20)
        gains = {("a", "m"): np.full(20, -140.0), ("m", "c"): np.full(20, -140.0),
                 ("a", "b"): np.full(20, -140.0)}
        slc = make_slice(slots, gains)
        with pytest.raises(EscalateToStrategic):
            reroute_local(self.cluster(["a", "b", "c", "m"], [("a", "b")]),
                          blocked_hop, tail, slc)

    def test_reads_only_the_half_spans(self):
        # a->m is read over the first half-span, m->c over the second: a slice
        # that holds NaN on every other row gives the full-span detour
        blocked_hop = HopReservation("a", "b", (3, 9), 15.0)
        tail = [HopReservation("b", "c", (10, 16), 15.0)]
        reconnect, (lo, mid), (lo2, hi) = detour_halves(blocked_hop, tail)
        assert (reconnect, lo, mid, lo2, hi) == ("c", 3, 9, 10, 16)
        rng = np.random.default_rng(5)
        slots = np.arange(3, 17)
        gains = {("a", "m"): rng.uniform(-90, -70, 14), ("m", "c"): rng.uniform(-90, -70, 14)}
        sens = {"a": rng.uniform(0.5, 2.0, 14), "m": rng.uniform(0.5, 2.0, 14)}
        cluster = self.cluster(["a", "b", "c", "m"], [("a", "b")])
        full = reroute_local(cluster, blocked_hop, tail, make_slice(slots, gains, sens))
        assert [h.window for h in full] == [(3, 9), (10, 16)]
        first, second = slots <= mid, slots > mid
        halves = make_slice(slots, {("a", "m"): np.where(first, gains[("a", "m")], np.nan),
                                    ("m", "c"): np.where(second, gains[("m", "c")], np.nan)},
                            {"a": np.where(first, sens["a"], np.nan),
                             "m": np.where(second, sens["m"], np.nan)})
        assert reroute_local(cluster, blocked_hop, tail, halves) == full
        # a row it reads that was not looked up is an error, not a skipped slot
        halves.sens_lin["m"][-1] = np.nan
        with pytest.raises(ValueError, match="no local prediction"):
            reroute_local(cluster, blocked_hop, tail, halves)

    def test_single_slot_span_has_empty_second_half(self):
        hop = HopReservation("a", "b", (5, 5), 15.0)
        assert detour_halves(hop, []) == ("b", (5, 5), (6, 5))

    def test_escalates_when_window_too_short(self):
        blocked_hop = HopReservation("a", "b", (5, 5), 15.0)
        with pytest.raises(EscalateToStrategic):
            reroute_local(self.cluster(["a", "b", "m"], [("a", "b")]),
                          blocked_hop, [], None)


def exhaustive_timing(windows, forecasts, deadline):
    """Enumerate every slot assignment; lexicographic-min (gain-max) oracle."""
    best = None
    options = []
    for (lo, hi), (slots, means) in zip(windows, forecasts):
        opts = [(int(s), float(m)) for s, m in zip(slots, means)
                if lo <= s <= hi and s <= deadline and np.isfinite(m)]
        options.append(opts)
    for combo in itertools.product(*options):
        ss = [c[0] for c in combo]
        if any(b <= a for a, b in zip(ss, ss[1:])):
            continue
        total = sum(c[1] for c in combo)
        cand = (-total, tuple(ss))
        if best is None or cand < best:
            best = cand
    return best


class TestScheduleTiming:
    def test_constant_forecast_earliest_slots(self):
        hops = (HopReservation("a", "b", (2, 8), 10.0), HopReservation("b", "c", (9, 15), 10.0))
        forecasts = [(np.arange(2, 9), np.full(7, -80.0)), (np.arange(9, 16), np.full(7, -80.0))]
        sched = schedule_timing(hops, forecasts, deadline_slot=15)
        assert sched.hop_slots == (2, 9)

    def test_single_hop_argmax(self):
        hops = (HopReservation("a", "b", (0, 9), 10.0),)
        means = -90.0 + np.exp(-0.5 * (np.arange(10) - 6.0) ** 2)
        sched = schedule_timing(hops, [(np.arange(10), means)], deadline_slot=9)
        assert sched.hop_slots == (6,)

    def test_empty_route(self):
        assert schedule_timing((), [], deadline_slot=5).hop_slots == ()

    def test_infeasible_precedence(self):
        hops = (HopReservation("a", "b", (5, 5), 10.0), HopReservation("b", "c", (6, 6), 10.0))
        forecasts = [(np.array([5]), np.array([-80.0])), (np.array([6]), np.array([-np.inf]))]
        with pytest.raises(InfeasibleSchedule):
            schedule_timing(hops, forecasts, deadline_slot=10)

    def test_deadline_cuts_slots(self):
        hops = (HopReservation("a", "b", (0, 9), 10.0),)
        means = np.linspace(-90, -70, 10)  # best slot is the last one
        sched = schedule_timing(hops, [(np.arange(10), means)], deadline_slot=4)
        assert sched.hop_slots == (4,)

    def test_matches_exhaustive_enumeration_200_instances(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            n_hops = int(rng.integers(1, 5))
            n_slots = int(rng.integers(n_hops, 13))
            cuts = sorted(rng.choice(np.arange(1, n_slots), n_hops - 1, replace=False)) \
                if n_hops > 1 else []
            bounds = [0] + [int(c) for c in cuts] + [n_slots]
            # windows partition the slots, occasionally overlapping backwards
            windows, forecasts = [], []
            ids = [chr(ord("a") + k) for k in range(n_hops + 1)]
            for k in range(n_hops):
                lo = max(0, bounds[k] - int(rng.integers(0, 2)))
                hi = min(n_slots - 1, bounds[k + 1] - 1 + int(rng.integers(0, 2)))
                windows.append((lo, hi))
                slots = np.arange(lo, hi + 1)
                means = rng.uniform(-100, -70, slots.size)
                if rng.random() < 0.2 and slots.size:
                    means[rng.integers(slots.size)] = -np.inf
                forecasts.append((slots, means))
            hops = tuple(HopReservation(ids[k], ids[k + 1], windows[k], 10.0)
                         for k in range(n_hops))
            deadline = n_slots - 1
            want = exhaustive_timing(windows, forecasts, deadline)
            try:
                sched = schedule_timing(hops, forecasts, deadline)
            except InfeasibleSchedule:
                assert want is None
                checked += 1
                continue
            assert want is not None
            total = -want[0]
            got_total = sum(float(m[np.searchsorted(s, slot)])
                            for (s, m), slot in zip(forecasts, sched.hop_slots))
            assert got_total == pytest.approx(total, rel=1e-12)
            assert sched.hop_slots == want[1]
            checked += 1

    def test_retiming_never_raises_power_sum(self):
        # DP slots vs the nominal window-start schedule under the same forecasts
        rng = np.random.default_rng(31)
        for _ in range(50):
            n_hops = int(rng.integers(1, 4))
            width = int(rng.integers(2, 6))
            windows = [(k * width, (k + 1) * width - 1) for k in range(n_hops)]
            forecasts = []
            for lo, hi in windows:
                slots = np.arange(lo, hi + 1)
                forecasts.append((slots, rng.uniform(-95, -75, slots.size)))
            hops = tuple(HopReservation(str(k), str(k + 1), windows[k], 10.0)
                         for k in range(n_hops))
            sched = schedule_timing(hops, forecasts, deadline_slot=windows[-1][1])
            budget = LinkBudget(p_max_dbm=60.0)

            def power_sum(slot_choice):
                total = 0.0
                for (slots, means), s in zip(forecasts, slot_choice):
                    g = float(means[np.searchsorted(slots, s)])
                    total += required_power_dbm(g, budget)
                return total

            nominal = tuple(w[0] for w in windows)
            assert power_sum(sched.hop_slots) <= power_sum(nominal) + 1e-9
