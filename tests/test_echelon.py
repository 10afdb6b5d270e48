import math
from dataclasses import replace

import numpy as np
import pytest

from aeris.channel_graph import SlotGrid
from aeris.echelon import (CENTRAL, INDIVIDUAL, LOCAL, EchelonView, WorldState, forecast_gain,
                           local_mean_series, local_positions)
from aeris.errors import OutOfRange, OutOfRegion
from aeris.radio_env import GroundTruthChannel, PathLossParams, build_map, sample_along
from aeris.scene import ObstacleBox, Position3, Scene, SceneNode
from aeris.strategic import HopReservation
from aeris.tactical import detect_blockage, hop_forecasts
from aeris.trajectory import DeviationParams, Trajectory4D, Waypoint, positions_at, realize


def P(x, y, z):
    return Position3(x, y, z)


def local_positions_loop(view, world, nodes, times):
    """The local tier's placement one node at a time, each node's realized
    position read axis by axis and its distance from the region's center summed
    axis by axis: the reference that local_positions, and every
    local_mean_series batch, must match bit for bit."""
    if view.tier != LOCAL:
        raise ValueError("series helper is for the local tier")
    times = np.asarray(times, dtype=float)
    if times.size and float(times.max()) - world.now_s > view.horizon_s + 1e-9:
        raise OutOfRange("series extends beyond the local horizon")
    now = []
    for node in nodes:
        if node in world.trajectories:
            pos = np.empty(3)
            for ax in range(3):
                pos[ax] = np.interp(world.now_s, world.grid.times(), world.realized[node][:, ax])
        else:
            pos = world.ground_positions[node].as_array()
        dx, dy, dz = pos - view.region_center.as_array()
        if math.sqrt((dx * dx + dy * dy) + dz * dz) > view.region_radius:
            raise OutOfRegion(f"{node} outside local region")
        now.append(pos)
    at_now = np.array([world.now_s])
    return np.array([pos + (world.planned_pos(node, times) - world.planned_pos(node, at_now)[0])
                     for node, pos in zip(nodes, now)])


def hop_forecast(view, world, hop):
    """The oracle of tactical.hop_forecasts for one hop: the local forecast of
    its link over its reserved window, as aligned (slots, mean_db) arrays,
    from one local_mean_series call of its own."""
    slots = np.arange(hop.window[0], hop.window[1] + 1)
    return slots, local_mean_series(view, world, (hop.tx, hop.rx), world.grid.dt * slots)


def crop(traj, t1, n=8):
    ts = np.linspace(traj.t_start, t1, n)
    pos = positions_at(traj, ts)
    return Trajectory4D(traj.aircraft_id,
                        tuple(Waypoint(float(t), P(*p)) for t, p in zip(ts, pos)))


def small_world(seed=0, sigma_dev=3.0, stale_until=30.0):
    scene = Scene(
        bounds=ObstacleBox(P(-100, -100, 0), P(900, 900, 250)),
        obstacles=(ObstacleBox(P(300, 180, 0), P(360, 260, 90)),
                   ObstacleBox(P(520, 420, 0), P(600, 500, 110)),
                   ObstacleBox(P(150, 500, 0), P(230, 580, 70))),
        ground_sources=(SceneNode("g0", P(50, 50, 0)),),
        ground_destinations=(SceneNode("g1", P(750, 700, 0)),),
    )
    params = PathLossParams()
    trajs = [
        Trajectory4D("a0", (Waypoint(0.0, P(0, 100, 80)), Waypoint(120.0, P(800, 500, 80)))),
        Trajectory4D("a1", (Waypoint(0.0, P(800, 100, 100)), Waypoint(120.0, P(0, 700, 100)))),
        Trajectory4D("a2", (Waypoint(0.0, P(400, 0, 60)), Waypoint(120.0, P(400, 800, 60)))),
    ]
    shadow = np.random.SeedSequence([seed, 5])
    truth = GroundTruthChannel(scene, params, shadow)
    peers = [n.pos for n in scene.all_nodes()]
    fresh = sample_along(trajs, scene, params, shadow, 1.0, peers)
    stale = sample_along([crop(t, stale_until) for t in trajs], scene, params, shadow,
                         1.0, peers)
    fresh_map = build_map(fresh)
    stale_map = build_map(stale)
    grid = SlotGrid(0.5, 240)
    dev = DeviationParams(sigma_dev=sigma_dev, reversion_rate=0.2)
    realized = {t.aircraft_id: realize(t, dev, grid, np.random.SeedSequence([seed, 6, k]))
                for k, t in enumerate(trajs)}
    world = WorldState(
        now_s=60.0, truth=truth,
        trajectories={t.aircraft_id: t for t in trajs},
        deviation=dev, grid=grid, realized=realized,
        ground_positions={n.id: n.pos for n in scene.all_nodes()},
    )
    center = P(400, 400, 0)
    views = {
        CENTRAL: EchelonView(CENTRAL, stale_map, horizon_s=600.0),
        LOCAL: EchelonView(LOCAL, fresh_map, horizon_s=30.0, region_center=center,
                           region_radius=1500.0),
        INDIVIDUAL: EchelonView(INDIVIDUAL, fresh_map, horizon_s=2.0),
    }
    return world, views, fresh_map, stale_map


class TestViewValidation:
    def test_region_fields_local_only(self):
        m = build_map([__import__("aeris").radio_env.ChannelSample(P(0, 0, 1), P(1, 1, 1), -80.0)])
        with pytest.raises(ValueError):
            EchelonView(CENTRAL, m, 600.0, region_center=P(0, 0, 0), region_radius=10.0)
        with pytest.raises(ValueError):
            EchelonView(LOCAL, m, 30.0)


class TestForecastGain:
    def test_individual_lead_zero_is_exact(self):
        world, views, *_ = small_world()
        fc = forecast_gain(views[INDIVIDUAL], world, ("a0", "g0"), world.now_s)
        tx = world.realized_pos("a0", world.now_s)
        rx = world.realized_pos("g0", world.now_s)
        want = float(world.truth.gain_db_many(tx[None], rx[None])[0])
        assert fc.mean_db == want

    def test_individual_holds_its_measurement_over_the_horizon(self):
        world, views, *_ = small_world()
        now = forecast_gain(views[INDIVIDUAL], world, ("a0", "a1"), world.now_s).mean_db
        for lead in (0.5, 1.0, 2.0):
            fc = forecast_gain(views[INDIVIDUAL], world, ("a0", "a1"), world.now_s + lead)
            assert fc.mean_db == now

    def test_central_equals_local_when_degenerate(self):
        # sigma_dev = 0 and the same (fresh) snapshot on both tiers
        world, views, fresh_map, _ = small_world(sigma_dev=0.0)
        central = EchelonView(CENTRAL, fresh_map, 600.0)
        local = EchelonView(LOCAL, fresh_map, 30.0, region_center=P(400, 400, 0),
                            region_radius=1500.0)
        t = world.now_s + 10.0
        a = forecast_gain(central, world, ("a0", "g1"), t)
        b = forecast_gain(local, world, ("a0", "g1"), t)
        assert a.mean_db == b.mean_db

    def test_out_of_range(self):
        world, views, *_ = small_world()
        with pytest.raises(OutOfRange):
            forecast_gain(views[INDIVIDUAL], world, ("a0", "g0"), world.now_s + 10.0)

    def test_out_of_region(self):
        world, views, fresh_map, _ = small_world()
        tight = EchelonView(LOCAL, fresh_map, 30.0, region_center=P(0, 0, 0), region_radius=10.0)
        with pytest.raises(OutOfRegion):
            forecast_gain(tight, world, ("a0", "g1"), world.now_s + 1.0)

    def test_local_series_matches_pointwise_forecasts(self):
        world, views, *_ = small_world()
        times = world.now_s + np.array([0.0, 2.0, 4.0, 8.0])
        series = local_mean_series(views[LOCAL], world, ("a0", "g1"), times)
        for k, t in enumerate(times):
            fc = forecast_gain(views[LOCAL], world, ("a0", "g1"), float(t))
            assert series[k] == fc.mean_db


class TestLocalBatch:
    """A batch of local forecasts is its forecasts made one by one."""

    def mixed(self):
        """Forecasts that mix aircraft and ground endpoints, regions, clocks
        (on and off the slot grid) and window lengths, one of a single slot."""
        world, views, fresh_map, _ = small_world()
        items = []
        for k, (now, link, center, first, n) in enumerate([
                (60.0, ("a0", "g1"), P(400, 400, 0), 120, 11),
                (61.5, ("a1", "a2"), P(300, 300, 50), 125, 30),
                (60.25, ("g0", "a2"), P(200, 200, 0), 121, 1),
                (75.0, ("a2", "a0"), P(400, 400, 0), 150, 40),
                (61.5, ("a0", "g1"), P(420, 380, 0), 125, 20)]):
            view = EchelonView(LOCAL, fresh_map, 30.0, region_center=center,
                               region_radius=1500.0 + k)
            w = world.at_time(now)
            items.append((view, w, link, w.grid.dt * np.arange(first, first + n)))
        return items

    def test_mixed_batch_equals_its_items_alone(self):
        items = self.mixed()
        batch = local_mean_series(*(list(col) for col in zip(*items)))
        alone = np.concatenate([local_mean_series(*item) for item in items])
        assert batch.size == sum(item[3].size for item in items)
        assert batch.dtype == alone.dtype and batch.tobytes() == alone.tobytes()

    def test_hop_forecasts_equal_the_per_hop_oracle(self):
        items = self.mixed()
        hops = [HopReservation(*link, (round(t[0] / w.grid.dt), round(t[-1] / w.grid.dt)), 0.0)
                for _, w, link, t in items]
        views, worlds = [item[0] for item in items], [item[1] for item in items]
        got = hop_forecasts(views, worlds, hops)
        assert len(got) == len(hops)
        for (slots, means), view, w, hop in zip(got, views, worlds, hops):
            want_slots, want = hop_forecast(view, w, hop)
            assert slots.tolist() == want_slots.tolist()
            assert means.tobytes() == want.tobytes()

    def test_each_item_equals_the_loop_reference(self):
        for view, w, link, t in self.mixed():
            want = local_positions_loop(view, w, link, t)
            assert local_positions(view, w, link, t).tobytes() == want.tobytes()
            means = view.map_snapshot.query_many(*want)
            assert local_mean_series(view, w, link, t).tobytes() == means.tobytes()

    def test_local_positions_equal_one_node_at_a_time(self):
        world, views, *_ = small_world()
        times = world.now_s + np.array([0.0, 0.5, 3.0, 10.0])
        nodes = ("a0", "g0", "a2", "g1")
        pos = local_positions(views[LOCAL], world, nodes, times)
        assert pos.shape == (len(nodes), times.size, 3)
        for node, row in zip(nodes, pos):
            alone = local_positions(views[LOCAL], world, (node,), times)[0]
            assert row.tobytes() == alone.tobytes()

    def test_each_item_keeps_its_checks(self):
        items = self.mixed()
        view, w, link, t = items[1]
        tight = EchelonView(LOCAL, view.map_snapshot, 30.0, region_center=P(0, 0, 0),
                            region_radius=10.0)
        short = EchelonView(LOCAL, view.map_snapshot, 1.0, region_center=view.region_center,
                            region_radius=view.region_radius)
        for bad, error in ((tight, OutOfRegion), (short, OutOfRange)):
            with pytest.raises(error):
                local_mean_series(bad, w, link, t)
            batch = [list(col) for col in zip(*items)]
            batch[0][1] = bad
            with pytest.raises(error):
                local_mean_series(*batch)

    def test_region_edge_is_where_np_linalg_norm_puts_it(self):
        # a node whose axis-wise norm from the center equals the radius is
        # inside, for the batch and the loop reference; one ulp less, outside
        for view, w, link, t in self.mixed():
            for node in link:
                pos = local_positions_loop(view, w, (node,), [w.now_s])[0]
                edge = float(np.linalg.norm(pos - view.region_center.as_array(), axis=1)[0])
                for place in (local_positions, local_positions_loop):
                    place(replace(view, region_radius=edge), w, (node,), t)
                    with pytest.raises(OutOfRegion):
                        place(replace(view, region_radius=np.nextafter(edge, 0.0)), w,
                              (node,), t)

    def test_batch_needs_one_map_and_one_world(self):
        items = self.mixed()
        other, other_views, _, stale_map = small_world(seed=1)
        for k, swap in ((0, EchelonView(LOCAL, stale_map, 30.0, region_center=P(400, 400, 0),
                                        region_radius=1500.0)),
                        (1, other.at_time(items[2][1].now_s))):
            batch = [list(col) for col in zip(*items)]
            batch[k][2] = swap
            with pytest.raises(ValueError, match="one map|one world"):
                local_mean_series(*batch)


class TestAccuracyOrdering:
    def test_rmse_ordering_with_significance(self):
        world, views, *_ = small_world(seed=3)
        rng = np.random.default_rng(42)
        aircraft = sorted(world.trajectories)
        others = sorted(world.ground_positions) + aircraft
        sq = {CENTRAL: [], LOCAL: [], INDIVIDUAL: []}
        for trial in range(400):
            realized = {a: realize(world.trajectories[a], world.deviation, world.grid,
                                   rng.integers(2 ** 63)) for a in aircraft}
            w = world.at_time(float(rng.uniform(5.0, 110.0)))
            w = type(world)(**{**w.__dict__, "realized": realized})
            i = aircraft[rng.integers(len(aircraft))]
            j = others[rng.integers(len(others))]
            if j == i:
                continue
            tx = w.realized_pos(i, w.now_s)
            rx = w.realized_pos(j, w.now_s)
            truth = float(world.truth.gain_db_many(tx[None], rx[None])[0])
            for tier in sq:
                fc = forecast_gain(views[tier], w, (i, j), w.now_s)
                sq[tier].append((fc.mean_db - truth) ** 2)
        rmse = {t: math.sqrt(np.mean(sq[t])) for t in sq}
        assert rmse[CENTRAL] >= rmse[LOCAL] >= rmse[INDIVIDUAL]
        assert rmse[INDIVIDUAL] == 0.0

        def one_sided_t(d):
            d = np.array(d)
            if np.all(d == 0):
                return float("inf")
            return float(np.mean(d) / (np.std(d, ddof=1) / math.sqrt(len(d))))

        # central vs local, local vs individual at 95% one-sided
        assert one_sided_t(np.array(sq[CENTRAL]) - np.array(sq[LOCAL])) > 1.645
        assert one_sided_t(np.array(sq[LOCAL]) - np.array(sq[INDIVIDUAL])) > 1.645


class TestDetectBlockage:
    def series_and_mean(self):
        world, views, *_ = small_world()
        hop = HopReservation("a0", "g1", (120, 130), 15.0)
        slots, series = hop_forecast(views[LOCAL], world, hop)
        times = world.grid.dt * np.arange(120, 131)
        assert slots.tolist() == list(range(120, 131))
        assert series.tolist() == local_mean_series(views[LOCAL], world, ("a0", "g1"),
                                                    times).tolist()
        return series, float(np.mean(series))

    def test_far_above_threshold_clear(self):
        series, mean = self.series_and_mean()
        assert detect_blockage(series, mean - 20.0) is False

    def test_below_threshold_blocked(self):
        series, mean = self.series_and_mean()
        assert detect_blockage(series, mean + 20.0) is True

    def test_boundary_is_not_blocked(self):
        series, mean = self.series_and_mean()
        assert detect_blockage(series, mean) is False
