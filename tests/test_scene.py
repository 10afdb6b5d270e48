import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeris import harness
from aeris.errors import GenerationFailed
from aeris.scene import ObstacleBox, Position3, Scene, SceneNode, gen_city, los_clear


def box(x0, y0, z0, x1, y1, z1):
    return ObstacleBox(Position3(x0, y0, z0), Position3(x1, y1, z1))


BOUNDS = box(-100, -100, 0, 200, 200, 100)


def scene_with(*obstacles):
    return Scene(bounds=BOUNDS, obstacles=tuple(obstacles))


def los_blocked(scene, a, b):
    """True iff the open segment (a, b) crosses the interior of any obstacle."""
    return not los_clear(scene, a.as_array()[None], b.as_array()[None])[0]


def sampled_blocked(obstacles, a, b, n=10_000):
    """Dense-sampling oracle: test n interior points of the open segment for
    strict box containment."""
    av, bv = a.as_array(), b.as_array()
    ts = (np.arange(n) + 0.5) / n
    pts = av[None, :] + ts[:, None] * (bv - av)[None, :]
    for obs in obstacles:
        lo, hi = obs.lo.as_array(), obs.hi.as_array()
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        if np.any(inside):
            return True
    return False


def scalar_blocked(scene, a, b):
    """Scalar slab oracle: one segment, one axis at a time, with the same
    strict inequalities and zero-direction rule as the batched kernel."""
    lo, hi = scene._obs_lo, scene._obs_hi
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    tlo = np.full(lo.shape, -np.inf)
    thi = np.full(lo.shape, np.inf)
    for ax in range(3):
        if d[ax] != 0.0:
            t1 = (lo[:, ax] - a[ax]) / d[ax]
            t2 = (hi[:, ax] - a[ax]) / d[ax]
            tlo[:, ax] = np.minimum(t1, t2)
            thi[:, ax] = np.maximum(t1, t2)
        else:
            inside = (a[ax] > lo[:, ax]) & (a[ax] < hi[:, ax])
            tlo[:, ax] = np.where(inside, -np.inf, np.inf)
            thi[:, ax] = np.where(inside, np.inf, -np.inf)
    enter = np.maximum(tlo.max(axis=1), 0.0)
    leave = np.minimum(thi.min(axis=1), 1.0)
    return bool(np.any(enter < leave))


# Coordinates on the boxes' own grid make segments that graze faces, end on
# faces and run along edges; free floats fill in general position.
_GRID = (-2.0, 0.0, 1.0, 2.5, 4.0, 5.0, 7.5, 9.0, 10.0, 12.0)
_coord = st.one_of(st.sampled_from(_GRID), st.floats(-2.0, 12.0, allow_subnormal=False))
_point = st.tuples(_coord, _coord, _coord.map(abs))


@st.composite
def _grid_box(draw):
    corners = [sorted(draw(st.lists(st.sampled_from(_GRID[1:]), min_size=2, max_size=2,
                                    unique=True))) for _ in range(3)]
    return box(*(c[0] for c in corners), *(c[1] for c in corners))


@st.composite
def _segment(draw):
    """A segment whose endpoints share a random subset of coordinates, so
    axis-parallel, zero-length-axis and fully degenerate segments all occur."""
    a = np.array(draw(_point))
    b = np.array(draw(_point))
    same = np.array(draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
    return a, np.where(same, a, b)


class TestLosClear:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_grid_box(), max_size=4), st.lists(_segment(), min_size=1, max_size=24),
           st.integers(0, 2**32 - 1))
    def test_matches_scalar_oracle_row_for_row(self, boxes, segments, seed):
        # the drawn edge cases plus rows in general position
        rng = np.random.default_rng(seed)
        tx = np.vstack([[a for a, _ in segments], rng.uniform([-2, -2, 0], [12, 12, 12], (32, 3))])
        rx = np.vstack([[b for _, b in segments], rng.uniform([-2, -2, 0], [12, 12, 12], (32, 3))])
        for sc in (scene_with(*boxes), scene_with()):
            got = los_clear(sc, tx, rx)
            assert got.shape == (len(tx),)
            assert got.tolist() == [not scalar_blocked(sc, a, b) for a, b in zip(tx, rx)]


class TestPosition3:
    def test_rejects_negative_z(self):
        with pytest.raises(ValueError):
            Position3(0, 0, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position3(float("nan"), 0, 0)

    def test_array_roundtrip(self):
        p = Position3(1.5, -2.0, 3.0)
        assert Position3.from_array(p.as_array()) == p


class TestObstacleBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            box(0, 0, 0, 0, 1, 1)

    def test_strict_containment_excludes_faces(self):
        b = box(0, 0, 0, 10, 10, 10)
        assert b.contains(Position3(5, 5, 5))
        assert not b.contains(Position3(0, 5, 5))
        assert b.contains(Position3(0, 5, 5), strict=False)


class TestSceneInvariants:
    def test_node_inside_obstacle_rejected(self):
        with pytest.raises(ValueError):
            Scene(bounds=BOUNDS, obstacles=(box(0, 0, 0, 10, 10, 10),),
                  ground_sources=(SceneNode("s", Position3(5, 5, 5)),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Scene(bounds=BOUNDS,
                  ground_sources=(SceneNode("n", Position3(1, 1, 0)),),
                  ground_destinations=(SceneNode("n", Position3(2, 2, 0)),))

    def test_node_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            Scene(bounds=BOUNDS, ground_sources=(SceneNode("s", Position3(500, 0, 0)),))

    def test_obstacle_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            Scene(bounds=BOUNDS, obstacles=(box(150, 150, 0, 300, 300, 50),))


class TestLosBlocked:
    def test_no_obstacles_never_blocked(self):
        sc = scene_with()
        assert not los_blocked(sc, Position3(0, 0, 1), Position3(100, 100, 50))

    def test_segment_through_box_center(self):
        sc = scene_with(box(0, 0, 0, 10, 10, 10))
        assert los_blocked(sc, Position3(-5, 5, 5), Position3(15, 5, 5))

    def test_segment_above_box(self):
        sc = scene_with(box(0, 0, 0, 10, 10, 10))
        assert not los_blocked(sc, Position3(-5, 5, 15), Position3(15, 5, 15))

    def test_endpoint_on_face_looking_outward(self):
        sc = scene_with(box(0, 0, 0, 10, 10, 10))
        assert not los_blocked(sc, Position3(10, 5, 5), Position3(50, 5, 5))

    def test_endpoint_on_face_looking_inward(self):
        sc = scene_with(box(0, 0, 0, 10, 10, 10))
        assert los_blocked(sc, Position3(10, 5, 5), Position3(-5, 5, 5))

    def test_grazing_face_not_blocked(self):
        sc = scene_with(box(0, 0, 0, 10, 10, 10))
        assert not los_blocked(sc, Position3(-5, 0, 5), Position3(15, 0, 5))

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        sc = scene_with(box(0, 0, 0, 10, 10, 10), box(50, 50, 0, 90, 80, 40))
        for _ in range(300):
            a = Position3(*rng.uniform([-90, -90, 0], [190, 190, 90]))
            b = Position3(*rng.uniform([-90, -90, 0], [190, 190, 90]))
            assert los_blocked(sc, a, b) == los_blocked(sc, b, a)

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(41)
        obstacles = []
        for _ in range(4):
            lo = rng.uniform([-80, -80, 0], [120, 120, 30])
            dims = rng.uniform(15, 60, 3)
            obstacles.append(ObstacleBox(Position3(*lo), Position3(*(lo + dims))))
        sc = scene_with(*obstacles)
        mismatches = 0
        for _ in range(1000):
            a = Position3(*rng.uniform([-90, -90, 0], [190, 190, 95]))
            b = Position3(*rng.uniform([-90, -90, 0], [190, 190, 95]))
            got = los_blocked(sc, a, b)
            want = sampled_blocked(obstacles, a, b)
            mismatches += got != want
        assert mismatches == 0

    def test_shrinking_blocker_never_flips_clear_to_blocked(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo = rng.uniform([-50, -50, 0], [100, 100, 20])
            dims = rng.uniform(20, 60, 3)
            big = ObstacleBox(Position3(*lo), Position3(*(lo + dims)))
            shrink = rng.uniform(0.2, 0.9)
            center = 0.5 * (big.lo.as_array() + big.hi.as_array())
            small = ObstacleBox(
                Position3(*(center - 0.5 * shrink * dims)),
                Position3(*(center + 0.5 * shrink * dims)),
            )
            a = Position3(*rng.uniform([-90, -90, 0], [190, 190, 90]))
            b = Position3(*rng.uniform([-90, -90, 0], [190, 190, 90]))
            if not los_blocked(scene_with(big), a, b):
                assert not los_blocked(scene_with(small), a, b)


def west_strip_city(n_buildings, seed):
    """Stands in for gen_city: one building, centred 350 m from the campus (so
    the corridor scene keeps it), covers the strip where the first source goes."""
    return Scene(bounds=box(0, 0, 0, 1000, 1000, 150), obstacles=(box(100, 340, 0, 200, 420, 30),))


class TestGenCity:
    def test_zero_buildings(self):
        sc = gen_city(0, seed=3)
        assert sc.obstacles == ()

    def test_deterministic(self):
        a = gen_city(20, seed=9)
        b = gen_city(20, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_invariants_hold_across_seeds(self):
        for seed in range(100):
            sc = gen_city(12, seed)
            # Scene.__post_init__ re-validates; reconstruct to prove it
            Scene.from_json_dict(sc.to_json_dict())
            assert len(sc.obstacles) == 12
            assert sc.all_nodes() == ()

    def test_generation_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(harness, "gen_city", west_strip_city)
        with pytest.raises(GenerationFailed):
            harness.gen_default_scenario(0)


class TestSceneJson:
    def test_roundtrip(self):
        sc = harness.gen_default_scenario(2, n_buildings=5, n_sources=2).scene
        again = Scene.from_json_dict(sc.to_json_dict())
        assert again.to_json_dict() == sc.to_json_dict()
        assert [n.id for n in again.all_nodes()] == [n.id for n in sc.all_nodes()]
