import numpy as np
import pytest

from aeris.channel_graph import RANGE_CUTOFF_M, SlotGrid, synthesize
from aeris.radio_env import (ChannelSample, build_map, sample_along, sample_between,
                             sample_ground_pairs)
from aeris.scene import ObstacleBox, Position3, Scene, SceneNode
from aeris.trajectory import Trajectory4D, Waypoint, positions_at
from test_radio_env import NOSHADOW


def P(x, y, z):
    return Position3(x, y, z)


def straight(aid, p0, p1, t1=100.0):
    return Trajectory4D(aid, (Waypoint(0.0, P(*p0)), Waypoint(t1, P(*p1))))


def random_map(seed=0, n=80):
    rng = np.random.default_rng(seed)
    samples = [
        ChannelSample(P(*rng.uniform([0, 0, 0], [800, 800, 150])),
                      P(*rng.uniform([0, 0, 0], [800, 800, 150])),
                      float(rng.uniform(-110, -60)))
        for _ in range(n)
    ]
    return build_map(samples)


GRID = SlotGrid(0.5, 60)
# an empty block wide enough for pairs beyond the link range
WIDE = Scene(ObstacleBox(P(-500, -500, 0), P(3000, 3000, 300)))


def series(graph, i, j):
    """The stored per-slot gains of the (i, j) link."""
    return graph.weights[:, graph.node_ids.index(i), graph.node_ids.index(j)]


class TestSlotGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlotGrid(0.0, 10)
        with pytest.raises(ValueError):
            SlotGrid(0.1, 0)

    def test_slot_of_clamps(self):
        g = SlotGrid(0.1, 100)
        assert g.slot_of(-5.0) == 0
        assert g.slot_of(0.25) == 2
        assert g.slot_of(1e9) == 99

    def test_deadline_slot_conversion_is_stable(self):
        g = SlotGrid(0.1, 100)
        assert int(np.floor(2.0 / g.dt + 1e-9)) == 20
        assert int(np.floor(20.0 / g.dt + 1e-9)) == 200
        assert (g.slots_in(2.0), g.slots_in(20.0), g.slots_in(0.05)) == (20, 200, 0)


class TestSynthesize:
    def test_static_nodes_constant_forecast(self):
        ground = [SceneNode("g0", P(0, 0, 0)), SceneNode("g1", P(200, 0, 0))]
        graph = synthesize([], ground, random_map(), GRID)
        gains = series(graph, "g0", "g1")
        assert np.all(np.isfinite(gains))
        assert np.all(gains == gains[0])

    def test_recomputation_oracle_bit_exact(self):
        trajs = [straight("a0", (0, 0, 80), (700, 100, 80)),
                 straight("a1", (700, 0, 60), (0, 500, 110))]
        ground = [SceneNode("g0", P(350, 350, 0))]
        rmap = random_map(3)
        graph = synthesize(trajs, ground, rmap, GRID)
        rng = np.random.default_rng(9)
        by_id = {t.aircraft_id: t for t in trajs}
        for _ in range(80):
            i, j = rng.choice(["a0", "a1", "g0"], 2, replace=False)
            slot = int(rng.integers(GRID.n_slots))
            t = GRID.t_of(slot)

            def pos(node):
                if node in by_id:
                    return positions_at(by_id[node], np.array([t]))[0]
                return ground[0].pos.as_array()

            want = rmap.query_many(pos(i)[None], pos(j)[None])[0]
            assert series(graph, i, j)[slot] == want

    def test_symmetry_of_stored_weights(self):
        trajs = [straight("a0", (0, 0, 80), (700, 100, 80))]
        ground = [SceneNode("g0", P(350, 350, 0))]
        graph = synthesize(trajs, ground, random_map(1), GRID)
        w = graph.weights
        assert np.array_equal(w, np.swapaxes(w, 1, 2), equal_nan=True)

    def test_flyby_peaks_at_closest_approach(self):
        # distance-only map: gains sampled exactly at the slot positions
        grid = SlotGrid(0.5, 100)
        traj = straight("a0", (0, 200, 50), (500, 200, 50), t1=grid.dt * grid.n_slots)
        node = SceneNode("g0", P(260, 0, 0))
        times = grid.times()
        pos = positions_at(traj, times)
        gains = -np.linalg.norm(pos - node.pos.as_array(), axis=1) / 10.0
        samples = [ChannelSample(P(*pos[k]), node.pos, float(gains[k]))
                   for k in range(grid.n_slots)]
        graph = synthesize([traj], [node], build_map(samples), grid)
        gains = series(graph, "a0", "g0")
        # closest approach of the segment to the node (perpendicular foot)
        a, b = pos[0], positions_at(traj, np.array([grid.dt * grid.n_slots]))[0]
        f = np.dot(node.pos.as_array() - a, b - a) / np.dot(b - a, b - a)
        t_star = f * grid.dt * grid.n_slots
        best_slot = int(np.argmax(gains))
        assert abs(grid.t_of(best_slot) - t_star) <= grid.dt

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_nodes_in_id_order_whatever_the_input_order(self, order):
        # ground ids sort both before and after the aircraft ids, and "u10"
        # sorts before "u2"
        trajs = [straight(f"u{k}", (100 * k, 0, 60 + 10 * k), (700, 100 * k, 80))
                 for k in (0, 2, 10)]
        ground = [SceneNode(name, P(*xy, 0)) for name, xy in
                  (("s0", (0, 300)), ("d0", (700, 300)), ("x0", (350, 600)))]
        rmap = random_map(7)
        want = synthesize(trajs, ground, rmap, GRID)
        assert want.node_ids == ("d0", "s0", "u0", "u10", "u2", "x0")
        if order == "reversed":
            trajs, ground = trajs[::-1], ground[::-1]
        else:
            rng = np.random.default_rng(5)
            trajs = [trajs[k] for k in rng.permutation(len(trajs))]
            ground = [ground[k] for k in rng.permutation(len(ground))]
        got = synthesize(trajs, ground, rmap, GRID)
        assert got.node_ids == want.node_ids
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.positions.tobytes() == want.positions.tobytes()

    def test_every_weight_is_its_rows_map_query(self):
        # a map that indexes the ground nodes, so rows toward them take the 3D
        # search; the cutoff drops some aircraft-ground slots and the far
        # ground pair, and keeps the near one
        trajs = [straight("a0", (0, 0, 80), (2100, 300, 80)),
                 straight("a1", (2100, 0, 60), (0, 1500, 110)),
                 straight("a2", (300, 1800, 90), (1950, 150, 70))]
        ground = [SceneNode("g0", P(1050, 1050, 0)), SceneNode("g1", P(0, 2700, 0)),
                  SceneNode("g2", P(900, 1260, 0))]
        peers = [g.pos for g in ground]
        rmap = build_map(sample_along(trajs, WIDE, NOSHADOW, 4, 1.0, peers)
                         + sample_between(trajs, WIDE, NOSHADOW, 4, 1.0)
                         + sample_ground_pairs(WIDE, NOSHADOW, 4, peers))
        assert rmap._sites is not None
        graph = synthesize(trajs, ground, rmap, GRID)
        pos = graph.positions
        want = np.full(graph.weights.shape, np.nan)
        for i in range(len(graph.node_ids)):
            for j in range(len(graph.node_ids)):
                d = np.linalg.norm(pos[:, i] - pos[:, j], axis=1)
                ks = np.flatnonzero((d <= RANGE_CUTOFF_M) & (d > 0.0))
                if i != j and ks.size:
                    want[ks, i, j] = rmap.query_many(pos[ks, i], pos[ks, j])
        assert np.array_equal(graph.weights.view(np.int64), want.view(np.int64))
        w = graph.weights
        near, far = (graph.node_ids.index(e) for e in ("g2", "g1"))
        assert np.isfinite(w[:, graph.node_ids.index("g0"), near]).all()
        assert np.isnan(w[:, graph.node_ids.index("g0"), far]).all()
        assert np.isnan(w[:, :3, 3:]).any() and np.isfinite(w[:, :3, 3:]).any()

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError):
            synthesize([straight("g0", (0, 0, 80), (700, 100, 80))],
                       [SceneNode("g0", P(0, 0, 0))], random_map(), GRID)

    def test_range_cutoff_prunes(self):
        # g0 to g2 is exactly RANGE_CUTOFF_M, which keeps the link; g0 to g1 is
        # 100 m more, which drops it
        assert RANGE_CUTOFF_M == 1500.0
        ground = [SceneNode("g0", P(0, 0, 0)), SceneNode("g1", P(1600, 0, 0)),
                  SceneNode("g2", P(1500, 0, 0))]
        graph = synthesize([], ground, random_map(), GRID)
        assert np.all(np.isnan(series(graph, "g0", "g1")))
        assert np.all(np.isfinite(series(graph, "g0", "g2")))
        assert np.all(np.isfinite(series(graph, "g1", "g2")))


class TestLinkForecast:
    def setup_method(self):
        self.trajs = [straight("a0", (0, 0, 80), (700, 100, 80)),
                      straight("a1", (700, 0, 60), (0, 500, 110))]
        self.ground = [SceneNode("g0", P(350, 350, 0)), SceneNode("g1", P(10, 600, 0))]
        self.graph = synthesize(self.trajs, self.ground, random_map(5), GRID)

    def test_symmetric_pair_order(self):
        f1 = series(self.graph, "a0", "g0")
        f2 = series(self.graph, "g0", "a0")
        assert np.array_equal(f1, f2, equal_nan=True)

    def test_series_length_always_n_slots(self):
        ids = ["a0", "a1", "g0", "g1"]
        assert self.graph.weights.shape == (GRID.n_slots, len(ids), len(ids))
        assert self.graph.positions.shape == (GRID.n_slots, len(ids), 3)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert len(series(self.graph, ids[i], ids[j])) == GRID.n_slots

    def test_temporal_locality_bound(self):
        # no-teleport sanity: consecutive-slot jumps stay under a loose bound
        for pair in (("a0", "a1"), ("a0", "g0")):
            f = series(self.graph, *pair)
            diffs = np.abs(np.diff(f[np.isfinite(f)]))
            assert np.all(diffs <= 6.0)
