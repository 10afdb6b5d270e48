import copy
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from aeris import radio_env
from aeris.errors import DegenerateLink, EmptySampleSet
from aeris.harness import PATHLOSS, gen_default_scenario
from aeris.radio_env import (ChannelSample, GroundTruthChannel, PathLossParams, RadioMap,
                             SampleSet, ShadowField, _canonical, build_map, sample_along,
                             sample_between, sample_ground_pairs)
from aeris.scene import ObstacleBox, Position3, Scene, los_clear
from aeris.trajectory import Trajectory4D, Waypoint, positions_at
from test_scene import _grid_box, _segment, scene_with

EMPTY = Scene(ObstacleBox(Position3(-500, -500, 0), Position3(1500, 1500, 300)))
NOSHADOW = PathLossParams(sigma_sh_los_db=0.0, sigma_sh_nlos_db=0.0)


def P(x, y, z):
    return Position3(x, y, z)


def from_origin(xs, z=10.0):
    """(m, 3) rows from (0, 0, z) and rows (x, 0, z) for each x."""
    rx = np.array([[x, 0.0, z] for x in xs])
    tx = np.zeros_like(rx)
    tx[:, 2] = z
    return tx, rx


class TestTrueGain:
    def test_reference_distance(self):
        g = GroundTruthChannel(EMPTY, NOSHADOW, 0).gain_db_many(*from_origin([1.0]))[0]
        assert g == pytest.approx(-NOSHADOW.pl0_db, abs=1e-12)

    def test_doubling_distance_los(self):
        ch = GroundTruthChannel(EMPTY, NOSHADOW, 0)
        g1, g2 = ch.gain_db_many(*from_origin([50.0, 100.0]))
        assert g1 - g2 == pytest.approx(6.0205999132796, abs=1e-9)

    def test_reciprocity(self):
        params = PathLossParams()
        ch = GroundTruthChannel(EMPTY, params, 77)
        rng = np.random.default_rng(3)
        a = rng.uniform([0, 0, 0], [900, 900, 150], (50, 3))
        b = rng.uniform([0, 0, 0], [900, 900, 150], (50, 3))
        assert ch.gain_db_many(a, b).tobytes() == ch.gain_db_many(b, a).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_grid_box(), max_size=4), st.lists(_segment(), min_size=1, max_size=24),
           st.integers(0, 2**32 - 1))
    # the slab test alone reads this segment as clear from (4, -2, 5) and blocked from
    # the far end, which sits on the top face and 1e-100 m inside the y-slab
    @example([ObstacleBox(P(0, 0, 0), P(12, 9, 12))],
             [(np.array([4.0, -2.0, 5.0]), np.array([5.0, 1e-100, 12.0]))], 0)
    def test_reciprocity_on_obstructed_scenes(self, boxes, segments, seed):
        # grazes, endpoints on faces and flat axes, plus rows in general position; a
        # short decorrelation distance makes the field vary over the boxes' grid
        rng = np.random.default_rng(seed)
        a = np.vstack([[p for p, _ in segments], rng.uniform([-2, -2, 0], [12, 12, 12], (32, 3))])
        b = np.vstack([[q for _, q in segments], rng.uniform([-2, -2, 0], [12, 12, 12], (32, 3))])
        keep = np.linalg.norm(a - b, axis=1) > 0
        a, b = a[keep], b[keep]
        ch = GroundTruthChannel(scene_with(*boxes), PathLossParams(decorr_dist=5.0), seed)
        ab, ba = ch.gain_db_many(a, b), ch.gain_db_many(b, a)
        assert np.flatnonzero(ab.view(np.int64) != ba.view(np.int64)).tolist() == []

    def test_monotone_distance_decay(self):
        ch = GroundTruthChannel(EMPTY, NOSHADOW, 0)
        gains = ch.gain_db_many(*from_origin(np.linspace(2.0, 800.0, 60)))
        assert np.all(np.diff(gains) < 0)

    def test_degenerate_link(self):
        ch = GroundTruthChannel(EMPTY, NOSHADOW, 0)
        with pytest.raises(DegenerateLink):
            ch.gain_db_many(np.array([[5.0, 5, 5], [0, 0, 10]]), np.array([[5.0, 5, 5], [9, 0, 10]]))

    @pytest.mark.parametrize("bad", [(np.nan, 0, 10), (0, -np.inf, 10), (0, 0, -1)])
    def test_rejects_invalid_positions(self, bad):
        ch = GroundTruthChannel(EMPTY, NOSHADOW, 0)
        with pytest.raises(ValueError):
            ch.gain_db_many(np.array([bad, (0, 0, 10)], dtype=float),
                            np.array([(50, 0, 10), (60, 0, 10)], dtype=float))

    def test_los_flip_switches_exponent(self):
        wall = ObstacleBox(P(40, -10, 0), P(60, 10, 40))
        sc = Scene(ObstacleBox(P(-100, -100, 0), P(500, 500, 300)), (wall,))
        ch = GroundTruthChannel(sc, NOSHADOW, 0)
        d = 100.0
        blocked = ch.gain_db_many(*from_origin([d]))[0]
        clear = ch.gain_db_many(*from_origin([d], z=100.0))[0]
        want_los = -(NOSHADOW.pl0_db + 10 * NOSHADOW.n_los * math.log10(d))
        want_nlos = -(NOSHADOW.pl0_db + 10 * NOSHADOW.n_nlos * math.log10(d))
        assert clear == pytest.approx(want_los, abs=1e-9)
        assert blocked == pytest.approx(want_nlos, abs=1e-9)

    def test_a_rows_bits_do_not_depend_on_the_other_rows_of_its_call(self, documented_world):
        # the aggregate baseline measures its snapshot in several calls and
        # relies on this for calls of two or more rows: subsets, permutations
        # and mirrored rows give each row the bits of one call over them all.
        # A one-row call takes BLAS's matrix-vector path and is not covered.
        w = documented_world
        ids = w.graph.node_ids
        rows = []
        for slot in (0, 150, 400, 650, 900, 1150):
            pos = np.array([w.realized_position(e, slot) for e in ids])
            tx, rx = np.nonzero(~np.eye(len(ids), dtype=bool))
            rows.append(np.hstack([pos[tx], pos[rx]]))
        rows = np.vstack(rows)
        tx, rx = rows[:, :3], rows[:, 3:]
        pair = _canonical(tx, rx)
        los = los_clear(w.truth.scene, pair[:, :3], pair[:, 3:])
        assert 0 < los.sum() < len(rows)
        full = w.truth.gain_db_many(tx, rx)
        assert w.truth.gain_db_many(rx, tx).tobytes() == full.tobytes()
        rng = np.random.default_rng(29)
        perm = rng.permutation(len(rows))
        assert w.truth.gain_db_many(tx[perm], rx[perm]).tobytes() == full[perm].tobytes()
        for size in (2, 3, 5, 8, 17, 64, 129, 500):
            pick = rng.choice(len(rows), size, replace=False)
            got = w.truth.gain_db_many(tx[pick], rx[pick])
            assert got.tobytes() == full[pick].tobytes(), size
        for i in np.concatenate([np.flatnonzero(los)[:10], np.flatnonzero(~los)[:10]]):
            got = w.truth.gain_db_many(np.stack([tx[i], rx[i]]), np.stack([rx[i], tx[i]]))
            assert got.tobytes() == full[[i, i]].tobytes(), i


class TestShadowField:
    def test_correlation_at_decorrelation_distance(self):
        # ensemble over field draws: corr at distance d_c is e^-1
        decorr = 50.0
        a = np.array([[100.0, 100.0, 20.0]])
        b = a + np.array([[decorr, 0.0, 0.0]])
        va, vb = [], []
        for seed in range(10_000):
            f = ShadowField(decorr, seed)
            va.append(f.unit(a)[0])
            vb.append(f.unit(b)[0])
        va, vb = np.array(va), np.array(vb)
        corr = np.corrcoef(va, vb)[0, 1]
        assert abs(corr - math.exp(-1)) < 0.05

    def test_unit_marginal_variance(self):
        vals = np.array([ShadowField(50.0, s).unit(np.array([[5, 7, 9.0]]))[0]
                         for s in range(8000)])
        assert abs(vals.var() - 1.0) < 0.07

    def test_deterministic(self):
        pts = np.random.default_rng(0).uniform(0, 100, (5, 3))
        a = ShadowField(50.0, 42).unit(pts)
        b = ShadowField(50.0, 42).unit(pts)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [1, 2, 5, 91, 1000])
    def test_unit_matches_out_of_place_oracle_bitwise(self, m):
        # one row goes through BLAS gemv, more rows through gemm
        f = ShadowField(50.0, m)
        pts = np.random.default_rng(m).uniform([-500, -500, 0], [1500, 1500, 300], (m, 3))
        want = f._scale * np.cos(pts @ f._freqs.T + f._phases).sum(axis=1)
        assert f.unit(pts).tobytes() == want.tobytes()


def straight(aircraft_id, p0, p1, t1=100.0):
    return Trajectory4D(aircraft_id, (Waypoint(0.0, P(*p0)), Waypoint(t1, P(*p1))))


class TestSampleAlong:
    def test_period_longer_than_span_gives_at_most_one(self):
        trajs = [straight("a", (0, 0, 50), (500, 0, 50), t1=10.0)]
        got = sample_along(trajs, EMPTY, NOSHADOW, 0, 60.0, [P(100, 100, 0)])
        assert len(got) <= 1

    def test_static_aircraft_shares_tx(self):
        trajs = [Trajectory4D("a", (Waypoint(0.0, P(5, 5, 50)), Waypoint(50.0, P(5, 5, 50))))]
        got = sample_along(trajs, EMPTY, NOSHADOW, 0, 10.0, [P(100, 100, 0)])
        assert len(got) > 1
        assert len({(s.tx.x, s.tx.y, s.tx.z) for s in got}) == 1

    def test_count_matches_floor_oracle(self):
        horizon, period = 100.0, 7.0
        trajs = [straight("a", (0, 0, 50), (700, 0, 50), t1=horizon),
                 straight("b", (0, 300, 60), (700, 300, 60), t1=horizon)]
        peers = [P(0, 100, 0), P(350, 100, 0), P(700, 100, 0)]
        got = sample_along(trajs, EMPTY, NOSHADOW, 0, period, peers)
        assert len(got) == math.floor(horizon / period) * len(trajs) * len(peers)

    def test_air_air_pairs(self):
        trajs = [straight("a", (0, 0, 50), (500, 0, 50)),
                 straight("b", (0, 100, 60), (500, 100, 60))]
        got = sample_between(trajs, EMPTY, NOSHADOW, 0, 10.0)
        assert len(got) == 10

    def test_ground_pairs(self):
        pts = [P(0, 0, 0), P(100, 0, 0), P(0, 100, 0)]
        got = sample_ground_pairs(EMPTY, NOSHADOW, 0, pts)
        assert len(got) == 3


def mini_world_inputs():
    """The harness tests' mini world (obstructed scene, 8 aircraft) and its map peers."""
    cfg = gen_default_scenario(seed=1, n_aircraft=8, n_buildings=8, horizon_s=40.0)
    scene = cfg.scene
    peers = [n.pos for n in tuple(scene.ground_sources) + tuple(scene.ground_destinations)
             + tuple(scene.sensitive_nodes)]
    return cfg, peers


# The per-sample loops the sampling functions ran before they returned row arrays,
# kept as oracles: one ChannelSample per row, built from the same truth calls.
def along_oracle(trajs, scene, params, shadow_seed, sampling_period, peer_points):
    channel = GroundTruthChannel(scene, params, shadow_seed)
    peers = [p.as_array() for p in peer_points]
    peer_pos = [Position3.from_array(p) for p in peers]
    samples = []
    for traj in trajs:
        n = int(math.floor((traj.t_end - traj.t_start) / sampling_period + 1e-12))
        if n <= 0:
            continue
        pos = positions_at(traj, traj.t_start + sampling_period * np.arange(n))
        for peer, rx_pos in zip(peers, peer_pos):
            gains = channel.gain_db_many(pos, np.broadcast_to(peer, pos.shape))
            for i in range(n):
                samples.append(ChannelSample(Position3.from_array(pos[i]), rx_pos, float(gains[i])))
    return samples


def between_oracle(trajs, scene, params, shadow_seed, sampling_period):
    channel = GroundTruthChannel(scene, params, shadow_seed)
    samples = []
    for a in range(len(trajs)):
        for b in range(a + 1, len(trajs)):
            t0 = max(trajs[a].t_start, trajs[b].t_start)
            t1 = min(trajs[a].t_end, trajs[b].t_end)
            n = int(math.floor((t1 - t0) / sampling_period + 1e-12))
            if n <= 0:
                continue
            times = t0 + sampling_period * np.arange(n)
            pa, pb = positions_at(trajs[a], times), positions_at(trajs[b], times)
            keep = np.linalg.norm(pa - pb, axis=1) > 0
            gains = channel.gain_db_many(pa[keep], pb[keep])
            for g, i in zip(gains, np.flatnonzero(keep)):
                samples.append(ChannelSample(Position3.from_array(pa[i]),
                                             Position3.from_array(pb[i]), float(g)))
    return samples


def ground_pairs_oracle(scene, params, shadow_seed, points):
    channel = GroundTruthChannel(scene, params, shadow_seed)
    pts = [p.as_array() for p in points]
    samples = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if np.array_equal(pts[a], pts[b]):
                continue
            gain = float(channel.gain_db_many(pts[a][None], pts[b][None])[0])
            samples.append(ChannelSample(Position3.from_array(pts[a]),
                                         Position3.from_array(pts[b]), gain))
    return samples


def sample_bits(s) -> bytes:
    return np.array([s.tx.x, s.tx.y, s.tx.z, s.rx.x, s.rx.y, s.rx.z, s.gain_db]).tobytes()


class TestSampleSet:
    @pytest.mark.parametrize("kind", ["along", "between", "ground_pairs"])
    def test_item_i_is_the_per_sample_oracle_bitwise(self, kind):
        cfg, peers = mini_world_inputs()
        trajs, scene, params, seed = list(cfg.trajectories), cfg.scene, PATHLOSS, 17
        got, want = {
            "along": lambda: (sample_along(trajs, scene, params, seed, 2.0, peers),
                              along_oracle(trajs, scene, params, seed, 2.0, peers)),
            "between": lambda: (sample_between(trajs, scene, params, seed, 2.0),
                                between_oracle(trajs, scene, params, seed, 2.0)),
            "ground_pairs": lambda: (sample_ground_pairs(scene, params, seed, peers),
                                     ground_pairs_oracle(scene, params, seed, peers)),
        }[kind]()
        assert isinstance(got, SampleSet) and got.rows.shape == (len(want), 7)
        assert len(got) == len(want) > 0
        for i in range(len(want)):
            assert type(got[i]) is ChannelSample
            assert sample_bits(got[i]) == sample_bits(want[i])
        assert [sample_bits(s) for s in got] == [sample_bits(s) for s in want]
        if kind == "along":  # the scene's buildings block some air-to-ground rows
            pair = _canonical(got.rows[:, :3], got.rows[:, 3:6])
            assert not los_clear(scene, pair[:, :3], pair[:, 3:]).all()

    def test_add_concatenates_rows(self):
        cfg, peers = mini_world_inputs()
        a = sample_ground_pairs(cfg.scene, PATHLOSS, 3, peers)
        b = sample_between(list(cfg.trajectories), cfg.scene, PATHLOSS, 3, 2.0)
        both = a + b
        assert len(both) == len(a) + len(b)
        assert both.rows.tobytes() == np.vstack([a.rows, b.rows]).tobytes()
        assert sample_bits(both[len(a)]) == sample_bits(b[0])

    def test_sites_recorded_and_united(self):
        # sample_along records its peers, sample_ground_pairs its points, and
        # + unites them; air-to-air samples have no site
        cfg, peers = mini_world_inputs()
        trajs, scene, params = list(cfg.trajectories), cfg.scene, PATHLOSS
        along = sample_along(trajs, scene, params, 3, 2.0, peers[:3])
        pairs = sample_ground_pairs(scene, params, 3, peers[2:])
        between = sample_between(trajs, scene, params, 3, 2.0)

        def sites(points):
            return np.unique([p.as_array() for p in points], axis=0)

        assert np.array_equal(along.sites, sites(peers[:3]))
        assert np.array_equal(pairs.sites, sites(peers[2:]))
        assert between.sites.shape == (0, 3)
        assert np.array_equal((along + between + pairs).sites, sites(peers))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_rejected(self, bad):
        rows = np.zeros((3, 7))
        rows[:, 3], rows[:, 6] = 10.0, -80.0
        rows[1, 6] = bad
        with pytest.raises(ValueError):
            SampleSet(rows)
        with pytest.raises(ValueError):
            build_map([ChannelSample(P(0, 0, 0), P(10, 0, 0), -80.0),
                       ChannelSample(P(0, 0, 5), P(10, 0, 0), bad)])


def toy_samples():
    rng = np.random.default_rng(8)
    out = []
    for _ in range(60):
        tx = P(*rng.uniform([0, 0, 0], [500, 500, 120]))
        rx = P(*rng.uniform([0, 0, 0], [500, 500, 120]))
        out.append(ChannelSample(tx, rx, float(rng.uniform(-120, -60))))
    return out


class TestRadioMap:
    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySampleSet):
            build_map([])
        empty = sample_ground_pairs(EMPTY, NOSHADOW, 0, [P(0, 0, 0)])
        assert len(empty) == 0
        with pytest.raises(EmptySampleSet):
            build_map(empty)

    def test_single_sample_everywhere(self):
        m = build_map([ChannelSample(P(0, 0, 10), P(50, 0, 0), -80.0)])
        assert m.query(P(400, 400, 90), P(1, 2, 0)).mean_gain_db == -80.0

    def test_exact_at_sample_points_both_orientations(self):
        samples = toy_samples()
        m = build_map(samples)
        for s in samples[:20]:
            assert m.query(s.tx, s.rx).mean_gain_db == s.gain_db
            assert m.query(s.rx, s.tx).mean_gain_db == s.gain_db

    def test_duplicates_with_equal_gain_no_effect(self):
        samples = toy_samples()
        m1 = build_map(samples)
        m2 = build_map(samples + samples[:10])
        rng = np.random.default_rng(1)
        tx = rng.uniform([0, 0, 0], [500, 500, 120], (40, 3))
        rx = rng.uniform([0, 0, 0], [500, 500, 120], (40, 3))
        assert np.array_equal(m1.query_many(tx, rx), m2.query_many(tx, rx))

    def test_permutation_invariance(self):
        samples = toy_samples()
        rng = np.random.default_rng(2)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        m1, m2 = build_map(samples), build_map(shuffled)
        tx = rng.uniform([0, 0, 0], [500, 500, 120], (50, 3))
        rx = rng.uniform([0, 0, 0], [500, 500, 120], (50, 3))
        assert np.array_equal(m1.query_many(tx, rx), m2.query_many(tx, rx))

    def test_reciprocity_bitwise(self):
        m = build_map(toy_samples())
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = P(*rng.uniform([0, 0, 0], [500, 500, 120]))
            b = P(*rng.uniform([0, 0, 0], [500, 500, 120]))
            assert m.query(a, b).mean_gain_db == m.query(b, a).mean_gain_db

    def test_stats_fields(self):
        m = build_map(toy_samples(), residual_std_db=3.5)
        stats = m.query(P(10, 10, 10), P(20, 20, 20))
        assert stats.shadow_std_db == 3.5

    def test_held_out_rmse_within_shadowing_std(self):
        # synthetic field sampled along a flight; 500 train / 100 test split
        params = PathLossParams()
        traj = Trajectory4D("a", (
            Waypoint(0.0, P(0, 0, 80)), Waypoint(60.0, P(600, 0, 80)),
            Waypoint(120.0, P(600, 500, 80)), Waypoint(180.0, P(0, 500, 80)),
            Waypoint(240.0, P(0, 20, 80)),
        ))
        peers = [P(150, 150, 0), P(450, 350, 0)]
        samples = sample_along([traj], EMPTY, params, 99, 0.4, peers)
        rng = np.random.default_rng(12)
        idx = rng.permutation(len(samples))[:600]
        train = [samples[i] for i in idx[:500]]
        test = [samples[i] for i in idx[500:]]
        m = build_map(train, residual_std_db=params.sigma_sh_los_db)
        tx = np.array([s.tx.as_array() for s in test])
        rx = np.array([s.rx.as_array() for s in test])
        pred = m.query_many(tx, rx)
        want = np.array([s.gain_db for s in test])
        rmse = float(np.sqrt(np.mean((pred - want) ** 2)))
        assert rmse <= params.sigma_sh_los_db


def unique_oracle(samples):
    """The map's points and gains by np.unique(axis=0) and np.add.at over the
    mirrored, lexsorted rows: the formulation the one-pass dedupe replaced."""
    raw = np.array([[s.tx.x, s.tx.y, s.tx.z, s.rx.x, s.rx.y, s.rx.z, s.gain_db] for s in samples])
    mirrored = np.concatenate([raw, raw[:, [3, 4, 5, 0, 1, 2, 6]]], axis=0)
    mirrored = mirrored[np.lexsort(mirrored.T[::-1])]
    uniq, inverse = np.unique(mirrored[:, :6], axis=0, return_inverse=True)
    gains = np.zeros(len(uniq))
    counts = np.zeros(len(uniq))
    np.add.at(gains, inverse, mirrored[:, 6])
    np.add.at(counts, inverse, 1.0)
    gains /= counts
    return uniq, gains


class TestMapDedupe:
    def test_row_set_and_sample_list_match_unique_oracle(self):
        cfg, peers = mini_world_inputs()
        trajs = list(cfg.trajectories)
        base = (sample_along(trajs, cfg.scene, PATHLOSS, 5, 2.0, peers)
                + sample_between(trajs, cfg.scene, PATHLOSS, 5, 2.0)).rows
        rng = np.random.default_rng(21)
        # exact duplicates with other gains, three per point (so that the order of
        # summation shows in the mean's last bit), in both orientations
        dup = base[np.repeat(rng.choice(len(base), 40, replace=False), 3)]
        dup[:, 6] += rng.normal(0.0, 3.0, len(dup))
        dup[1::2] = dup[1::2, [3, 4, 5, 0, 1, 2, 6]]
        # points that differ only in the sign of a zero coordinate
        signed = np.array([[0.0, 5.0, 10.0, 100.0, 0.0, 0.0, -70.0],
                           [-0.0, 5.0, 10.0, 100.0, -0.0, 0.0, -75.5],
                           [100.0, -0.0, -0.0, 0.0, 5.0, 10.0, -71.25],
                           [3.0, 0.0, 20.0, 7.0, 9.0, -0.0, -90.0],
                           [3.0, -0.0, 20.0, 7.0, 9.0, 0.0, -93.0]])
        rows = np.vstack([base, dup, signed])
        rows = rows[rng.permutation(len(rows))]
        listed = [ChannelSample(P(*r[:3]), P(*r[3:6]), float(r[6])) for r in rows]
        from_rows, from_list = build_map(SampleSet(rows)), build_map(listed)
        pts, gains = unique_oracle(listed)
        assert len(pts) == 2 * (len(rows) - len(dup) - 3)  # the injected groups merged
        for m in (from_rows, from_list):
            assert len(m.samples) == len(rows)
            assert m._points.shape == pts.shape and (m._points == pts).all()
            assert m._gains.tobytes() == gains.tobytes()
        oracle = copy.copy(from_rows)
        object.__setattr__(oracle, "_points", pts)
        object.__setattr__(oracle, "_gains", gains)
        object.__setattr__(oracle, "_tree", cKDTree(pts, leafsize=16, balanced_tree=False))
        tx = np.vstack([rng.uniform([0, 0, 0], [1000, 1000, 150], (200, 3)), rows[:, :3],
                        rows[:, 3:6]])
        rx = np.vstack([rng.uniform([0, 0, 0], [1000, 1000, 150], (200, 3)), rows[:, 3:6],
                        rows[:, :3]])
        got = from_rows.query_many(tx, rx)
        assert got.tobytes() == from_list.query_many(tx, rx).tobytes()
        assert got.tobytes() == oracle.query_many(tx, rx).tobytes()


def brute_idw(samples, tx, rx, k=8, p=2.0):
    """Brute-force oracle of the map: each sample stored in both orientations,
    exact-duplicate points merged (mean gain) and sorted canonically; each query
    pair with its (x, y, z)-smaller endpoint first, its distances to every point,
    the k nearest in (distance, index) order, then the anchored inverse-distance
    weights and the exact-hit rule."""
    fwd = np.array([[*s.tx.as_array(), *s.rx.as_array()] for s in samples])
    pts, inverse = np.unique(np.vstack([fwd, fwd[:, [3, 4, 5, 0, 1, 2]]]), axis=0,
                             return_inverse=True)
    gains = (np.bincount(inverse, weights=np.tile([s.gain_db for s in samples], 2))
             / np.bincount(inverse))
    out = []
    for a, b in zip(tx, rx):
        q = np.concatenate([b, a] if tuple(b) < tuple(a) else [a, b])
        dist = np.sqrt(((pts - q) ** 2).sum(axis=1))
        near = np.argsort(dist, kind="stable")[:k]  # stable: ties keep index order
        d, g = dist[near], gains[near]
        if d[0] <= 1e-9:
            out.append(g[0])
        else:
            w = d ** -p
            out.append(g[0] + np.sum(w * (g - g[0])) / np.sum(w))
    return np.array(out)


def with_tree(radio_map, **options):
    """A copy of radio_map whose kd-tree is built with other cKDTree options."""
    other = copy.copy(radio_map)
    object.__setattr__(other, "_tree", cKDTree(radio_map._points, **options))
    return other


class TestQueryOrientation:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_matches_oracle_reciprocal_and_row_independent(self, n_samples, k, seed):
        # uniform floats: distances tie only where a row's endpoints coincide, between
        # the two orientations of one sample, which carry the same gain
        rng = np.random.default_rng(seed)
        tx, rx = rng.uniform([0, 0, 0], [100, 100, 40], (2, n_samples + 24, 3))
        samples = [ChannelSample(P(*a), P(*b), float(g))
                   for a, b, g in zip(tx, rx, rng.uniform(-120, -60, n_samples))]
        m = build_map(samples, k_neighbors=k)
        tx, rx = tx[n_samples:], rx[n_samples:]
        # endpoints sharing x, sharing x and y, and coinciding run every branch
        # of the canonical order; rows on samples run the exact-hit rule
        rx[4:8, 0] = tx[4:8, 0]
        rx[8:12, :2] = tx[8:12, :2]
        rx[12:16] = tx[12:16]
        for i, s in zip(range(16, 20), samples):
            tx[i], rx[i] = s.tx.as_array(), s.rx.as_array()
        for i, s in zip(range(20, 24), samples):
            tx[i], rx[i] = s.rx.as_array(), s.tx.as_array()
        got = m.query_many(tx, rx)
        assert np.allclose(got, brute_idw(samples, tx, rx, k=k), rtol=0.0, atol=1e-9)
        assert got.tobytes() == m.query_many(rx, tx).tobytes()
        rows = np.array([m.query_many(tx[i:i + 1], rx[i:i + 1])[0] for i in range(len(tx))])
        assert got.tobytes() == rows.tobytes()

    def test_reciprocal_under_exact_distance_ties(self):
        # samples every 10 m along a straight track against one ground peer;
        # a query at a midpoint is equally far from the two samples beside it,
        # and with k = 3 an interior midpoint's third neighbour is one of two
        # equally far samples
        peer = np.array([50.0, 30.0, 0.0])
        track = np.array([[x, 0.0, 50.0] for x in range(0, 101, 10)])
        samples = [ChannelSample(P(*t), P(*peer), -80.0 - 0.3 * i + 0.01 * i * i)
                   for i, t in enumerate(track)]
        m = build_map(samples, k_neighbors=3)
        mid = 0.5 * (track[:-1] + track[1:])
        peers = np.broadcast_to(peer, mid.shape)
        got = m.query_many(mid, peers)
        assert got.tobytes() == m.query_many(peers, mid).tobytes()


# six unit steps in 6D: a query at CENTRE is at distance 1 from all twelve
# CENTRE +- step points, a tie group longer than 2 (k + 1) for k <= 4
CENTRE = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
BALL = np.vstack([CENTRE + np.eye(6), CENTRE - np.eye(6)])


class TestTieOrder:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans())
    @example(1, 10, 0, False)  # two points against k = 10
    @example(2, 3, 1, False)  # at most k + 1 points
    @example(3, 1, 2, True)  # a twelve-point tie group against k + 1 = 2
    @example(10, 4, 3, True)  # twelve against 2 (k + 1) = 10
    def test_tree_and_row_order_independent(self, n_samples, k, seed, ball):
        # small-integer coordinates: squared distances are exact, so every distance
        # formula agrees bit for bit and equal distances tie exactly
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 5, (n_samples, 6)).astype(float)
        if ball:
            pts = np.vstack([pts, BALL])
        samples = [ChannelSample(P(*r[:3]), P(*r[3:]), float(g))
                   for r, g in zip(pts, rng.uniform(-120, -60, len(pts)))]
        m = build_map(samples, k_neighbors=k)
        q = np.vstack([rng.integers(0, 5, (40, 6)).astype(float), CENTRE, pts[:5]])
        tx, rx = q[:, :3], q[:, 3:]
        got = m.query_many(tx, rx)
        assert np.allclose(got, brute_idw(samples, tx, rx, k=k), rtol=0.0, atol=1e-9)
        for options in ({}, {"leafsize": 1}, {"leafsize": 1, "balanced_tree": False}):
            assert got.tobytes() == with_tree(m, **options).query_many(tx, rx).tobytes()
        perm = rng.permutation(len(q))
        assert got[perm].tobytes() == m.query_many(tx[perm], rx[perm]).tobytes()


def tied_map(rng, n_samples, k):
    """A map on small-integer 6D points plus BALL, and its sample points: equal
    distances tie exactly, and a query at CENTRE meets a twelve-point tie group."""
    pts = np.vstack([rng.integers(0, 5, (n_samples, 6)).astype(float), BALL])
    samples = [ChannelSample(P(*r[:3]), P(*r[3:]), float(g))
               for r, g in zip(pts, rng.uniform(-120, -60, len(pts)))]
    return build_map(samples, k_neighbors=k), pts


def one_row_calls(m, tx, rx):
    return np.array([m.query_many(tx[i:i + 1], rx[i:i + 1])[0] for i in range(len(tx))])


class TestQueryBlocks:
    """query_many runs its rows in blocks of radio_env._QUERY_BLOCK_ROWS; a row's
    mean must not depend on its block, its neighbours in the call, or their order."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 2**32 - 1),
           st.integers(1, 16))
    @example(3, 1, 2, 4)  # a twelve-point tie group against k + 1 = 2
    @example(10, 4, 3, 1)  # twelve against 2 (k + 1) = 10, one row a block
    def test_rows_match_one_row_calls_across_blocks(self, n_samples, k, seed, block):
        rng = np.random.default_rng(seed)
        m, pts = tied_map(rng, n_samples, k)
        # at least three blocks; rows on map points take the exact-hit path, and
        # integer rows and CENTRE tie at the k-th neighbour and widen
        q = np.vstack([rng.integers(0, 5, (3 * block, 6)).astype(float), CENTRE,
                       pts[:5], pts[-12:-10]])
        tx, rx = q[:, :3], q[:, 3:]
        perm = rng.permutation(len(q))
        with mock.patch.object(radio_env, "_QUERY_BLOCK_ROWS", block):
            got = m.query_many(tx, rx)
            shuffled = m.query_many(tx[perm], rx[perm])
        assert got.tobytes() == one_row_calls(m, tx, rx).tobytes()
        assert got[perm].tobytes() == shuffled.tobytes()
        assert np.allclose(got, brute_idw(m.samples, tx, rx, k=k), rtol=0.0, atol=1e-9)

    def test_three_full_size_blocks(self):
        rng = np.random.default_rng(15)
        m, pts = tied_map(rng, 25, 4)
        distinct = np.vstack([rng.integers(0, 5, (150, 6)).astype(float), CENTRE, pts,
                              rng.uniform(0, 4, (50, 6))])
        pick = rng.integers(0, len(distinct), 3 * radio_env._QUERY_BLOCK_ROWS + 17)
        tx, rx = distinct[pick, :3], distinct[pick, 3:]
        got = m.query_many(tx, rx)
        # equal inputs give equal one-row calls, so each distinct row is called once
        alone = one_row_calls(m, distinct[:, :3], distinct[:, 3:])
        assert got.tobytes() == alone[pick].tobytes()
        perm = rng.permutation(len(pick))
        assert got[perm].tobytes() == m.query_many(tx[perm], rx[perm]).tobytes()

    def test_traced_peak_of_a_large_call_is_bounded(self):
        # before blocking, the temporaries of a 100 000-row call peaked near 50 MB
        rng = np.random.default_rng(3)
        rows = np.column_stack([rng.uniform(0, 500, (2000, 6)), rng.uniform(-120, -60, 2000)])
        m = build_map(SampleSet(rows))
        tx, rx = rng.uniform(0, 500, (2, 100_000, 3))
        tracemalloc.start()
        try:
            out = m.query_many(tx, rx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (100_000,) and np.isfinite(out).all()
        assert peak < 12e6, f"traced peak {peak / 1e6:.1f} MB"


def site_rows(m, pos, sites):
    """The 6D oracle of query_sites: query_many on every (position, site) row."""
    p = len(sites)
    return m.query_many(np.repeat(pos, p, axis=0), np.tile(sites, (len(pos), 1))).reshape(-1, p)


def sites_and_fallback(m, pos, sites):
    """query_sites' means, and the (m, p) mask of rows it handed query_many,
    read from a spy on query_many. A row's path depends only on its position
    and site, so a row fell back when its (position, site) pair did."""
    pos, sites = np.asarray(pos, dtype=float), np.asarray(sites, dtype=float)
    calls = []
    lookup = RadioMap.query_many

    def spy(self, tx, rx):
        calls.append((tx, rx))
        return lookup(self, tx, rx)

    with mock.patch.object(RadioMap, "query_many", spy):
        got = m.query_sites(pos, sites)
    assert len(calls) <= 1
    fell = {(a.tobytes(), b.tobytes()) for tx, rx in calls for a, b in zip(tx, rx)}
    slow = np.array([[(a.tobytes(), b.tobytes()) in fell for b in sites] for a in pos],
                    dtype=bool).reshape(len(pos), len(sites))
    assert slow.sum() == sum(len(tx) for tx, _ in calls)
    return got, slow


def check_sites(m, pos, sites):
    """query_sites against its oracle, bit for bit; the mask of rows that took
    the 6D lookup."""
    got, slow = sites_and_fallback(m, pos, sites)
    assert got.shape == slow.shape == (len(pos), len(sites))
    assert np.array_equal(got.view(np.int64), site_rows(m, pos, sites).view(np.int64))
    return slow


def uniform_points(rng, grid=False):
    """n -> (n, 3) random points in a 100 m cube, or on a small-integer lattice
    whose distances tie exactly."""
    if grid:
        return lambda n: rng.integers(0, 6, (n, 3)).astype(float)
    return lambda n: rng.uniform(0, 100, (n, 3))


def site_map(rng, sites, partners, k, extra=0, grid=False):
    """A map of one sample between each site and each partner it is given,
    in a random orientation, plus `extra` samples between random points."""
    rows = []
    for s, own in zip(sites, partners):
        for q in own:
            rows.append([*s, *q] if rng.random() < 0.5 else [*q, *s])
    draw = uniform_points(rng, grid)
    rows += [np.concatenate([a, b]) for a, b in zip(draw(extra), draw(extra))]
    rows = np.array(rows).reshape(-1, 6)
    samples = SampleSet(np.column_stack([rows, rng.uniform(-120, -60, len(rows))]), sites)
    return build_map(samples, k_neighbors=k)


def merged_duplicate_map():
    """A map of the mini world's samples under two shadow seeds, which merge
    in pairs at every point, plus its ground pairs and air-to-air samples;
    with the world's config and peers."""
    cfg, peers = mini_world_inputs()
    trajs, scene, params = list(cfg.trajectories), cfg.scene, PATHLOSS
    samples = (sample_along(trajs, scene, params, 1, 1.0, peers)
               + sample_along(trajs, scene, params, 2, 1.0, peers)
               + sample_ground_pairs(scene, params, 1, peers)
               + sample_between(trajs, scene, params, 1, 1.0))
    return build_map(samples), cfg, peers


@pytest.fixture(scope="module")
def documented_world():
    from aeris.harness import build_world
    return build_world(gen_default_scenario(0), 0)


class TestQuerySites:
    """query_sites answers rows with a fixed site at one end from a 3D search;
    query_many, the 6D lookup, is its oracle and must agree bit for bit."""

    def test_planner_rows_of_the_documented_scenario(self, documented_world):
        w = documented_world
        uniq = np.unique(w.graph.positions.reshape(-1, 3), axis=0)
        assert uniq.shape == (14402, 3) and w.sens_pos.shape == (5, 3)
        check_sites(w.radio_map, uniq, w.sens_pos)

    def test_few_site_rows_of_a_build_fall_back(self, documented_world):
        # a change that quietly turned the 3D path off would pass the oracle
        # tests and only slow the build down; the planner's and the graph's
        # site rows each fall back less than 1% of the time per site
        w = documented_world
        planner = np.unique(w.graph.positions.reshape(-1, 3), axis=0)
        ground = np.array([w.ground_positions[e].as_array() for e in w.graph.node_ids
                           if e not in w.realized])
        aircraft = np.array([w.graph.positions[:, i] for i, e in enumerate(w.graph.node_ids)
                             if e in w.realized]).reshape(-1, 3)
        assert ground.shape == (2, 3) and aircraft.shape == (12 * 1200, 3)
        for pos, sites in ((planner, w.sens_pos), (aircraft, ground)):
            slow = sites_and_fallback(w.radio_map, pos, sites)[1]
            assert slow.mean(axis=0).max() < 0.01, slow.sum(axis=0)

    def test_merged_duplicate_samples(self):
        # two shadow seeds sample the same positions: every point merges a pair
        m, cfg, peers = merged_duplicate_map()
        samples = m.samples
        assert len(m._points) < 2 * len(samples)
        sites = np.array([p.as_array() for p in peers])
        # planned positions between the sampling instants, and sample positions
        pos = np.vstack([positions_at(t, cfg.grid.times()[::3]) for t in cfg.trajectories]
                        + [samples.rows[::7, :3]])
        slow = check_sites(m, pos, sites)
        assert slow.mean() < 0.5

    def test_each_site_point_has_a_bit_equal_mirror(self, documented_world):
        # the site index keeps only the points (partner, site), and serves rows
        # with the site first from them too: that needs each (site, partner)
        # with the same partners in the same index order and bit-equal gains
        for m in (documented_world.radio_map, merged_duplicate_map()[0]):
            bits = m._gains.view(np.int64)
            assert m._sites.row
            for s, j in m._sites.row.items():
                firsts = np.flatnonzero((m._points[:, :3] == s).all(axis=1))
                seconds = np.flatnonzero((m._points[:, 3:] == s).all(axis=1))
                partners = m._points[seconds, :3]
                assert np.array_equal(m._points[firsts, 3:], partners)
                # in index order, strictly ascending in u (lex order), both ways
                assert np.array_equal(np.unique(partners, axis=0), partners)
                assert np.array_equal(bits[firsts], bits[seconds])
                table = m._sites.points[j]
                assert np.array_equal(table[table >= 0], seconds)

    def test_tie_at_the_kth_neighbour(self):
        # partners every 10 m on a line: an interior midpoint's 3rd and 4th
        # nearest are both 15 m away, a tie at the k-th neighbour for k = 3
        site = np.array([[50.0, 30.0, 0.0]])
        track = np.array([[x, 0.0, 50.0] for x in range(0, 201, 10)])
        m = site_map(np.random.default_rng(0), site, [track], k=3)
        mid = 0.5 * (track[:-1] + track[1:])
        slow = check_sites(m, np.vstack([mid, track + [3.0, 0.0, 0.0]]), site)
        assert slow[1:len(mid) - 1].all() and not slow[len(mid):].all()

    def test_position_at_a_site(self):
        rng = np.random.default_rng(1)
        sites = rng.uniform(0, 100, (3, 3))
        m = site_map(rng, sites, [rng.uniform(0, 100, (40, 3))] * 3, k=4)
        slow = check_sites(m, np.vstack([sites, rng.uniform(0, 100, (50, 3))]), sites)
        assert slow[:3].all() and not slow[3:].all()

    def test_site_no_sample_pairs(self):
        rng = np.random.default_rng(2)
        sites = rng.uniform(0, 100, (2, 3))
        m = site_map(rng, sites, [rng.uniform(0, 100, (40, 3))] * 2, k=4, extra=20)
        stranger = np.vstack([sites, [[17.0, 23.0, 5.0]]])
        slow = check_sites(m, rng.uniform(0, 100, (60, 3)), stranger)
        assert slow[:, 2].all() and not slow[:, :2].all()
        # a map that records no site answers every row through query_many
        bare = build_map(list(m.samples), k_neighbors=4)
        assert check_sites(bare, rng.uniform(0, 100, (20, 3)), sites).all()

    def test_certificate_fails_near_a_second_site(self):
        # a second site 1 m from the first, with partners hundreds of metres off:
        # a point of the other site's group can be nearer than the k-th partner
        rng = np.random.default_rng(3)
        sites = np.array([[500.0, 500.0, 0.0], [501.0, 500.0, 0.0]])
        far = rng.uniform([0, 0, 50], [1000, 1000, 150], (60, 3))
        m = site_map(rng, sites, [far, far[::2]], k=5)
        assert m._sites.clear.max() <= 1.0
        slow = check_sites(m, rng.uniform([0, 0, 50], [1000, 1000, 150], (40, 3)), sites)
        assert slow.all()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(0, 30), st.integers(1, 10), st.integers(0, 40),
           st.booleans(), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @example(2, 12, 3, 0, True, 64, 0)  # small-integer lattice: exact ties
    @example(1, 3, 8, 0, False, 64, 1)  # fewer partners than k + 1
    def test_matches_6d_lookup(self, n_sites, n_partners, k, extra, grid, block, seed):
        # each site keeps a random share of the shared partners and may own
        # more; positions include sites, partners and random points, in blocks
        rng = np.random.default_rng(seed)
        draw = uniform_points(rng, grid)
        sites = np.unique(draw(n_sites), axis=0)
        shared = draw(n_partners)
        partners = [np.vstack([shared[rng.random(n_partners) < 0.9], draw(int(rng.integers(0, 3)))])
                    for _ in sites]
        if not sum(len(p) for p in partners) + extra:
            partners[0] = draw(1)
        m = site_map(rng, sites, partners, k, extra=extra, grid=grid)
        pos = np.vstack([draw(30), sites, shared[:5]])
        with mock.patch.object(radio_env, "_QUERY_BLOCK_ROWS", block):
            check_sites(m, pos, np.vstack([sites, draw(1)]))
