import math

import numpy as np
import pytest

from aeris.channel_graph import SlotGrid
from aeris.scene import Position3
from aeris.trajectory import (DeviationParams, Trajectory4D, Waypoint, ou_offsets,
                              positions_at, realize)


def traj(points, v_max=60.0):
    return Trajectory4D("a0", tuple(Waypoint(t, Position3(*p)) for t, p in points), v_max=v_max)


STRAIGHT = traj([(0.0, (0, 0, 100)), (10.0, (100, 0, 100)), (30.0, (100, 200, 80))])


def lerp_oracle(points, t):
    """Independent piecewise-linear interpolation with explicit segment search."""
    ts = [p[0] for p in points]
    ps = [np.array(p[1], dtype=float) for p in points]
    if t <= ts[0]:
        return ps[0]
    if t >= ts[-1]:
        return ps[-1]
    for k in range(len(ts) - 1):
        if ts[k] <= t <= ts[k + 1]:
            f = (t - ts[k]) / (ts[k + 1] - ts[k])
            return ps[k] * (1 - f) + ps[k + 1] * f
    raise AssertionError


class TestTrajectory4D:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            traj([(0.0, (0, 0, 0))])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            traj([(0.0, (0, 0, 0)), (0.0, (1, 0, 0))])

    def test_speed_limit(self):
        with pytest.raises(ValueError):
            traj([(0.0, (0, 0, 0)), (1.0, (100, 0, 0))], v_max=60.0)


class TestPositionAt:
    def test_exact_at_waypoints(self):
        got = positions_at(STRAIGHT, [w.t for w in STRAIGHT.waypoints])
        assert np.array_equal(got, [w.pos.as_array() for w in STRAIGHT.waypoints])

    def test_segment_midpoint_is_mean(self):
        assert np.array_equal(positions_at(STRAIGHT, [5.0])[0], [50.0, 0.0, 100.0])

    def test_clamps_outside_horizon(self):
        first, last = positions_at(STRAIGHT, [-5.0, 99.0])
        assert np.array_equal(first, STRAIGHT.waypoints[0].pos.as_array())
        assert np.array_equal(last, STRAIGHT.waypoints[-1].pos.as_array())

    def test_matches_independent_lerp_oracle(self):
        points = [(0.0, (0, 0, 100)), (10.0, (100, 0, 100)), (30.0, (100, 200, 80)),
                  (31.5, (95, 210, 80))]
        tr = traj(points)
        rng = np.random.default_rng(5)
        ts = rng.uniform(-2.0, 35.0, 100)
        got = positions_at(tr, ts)
        for k, t in enumerate(ts):
            want = lerp_oracle(points, t)
            assert np.allclose(got[k], want, rtol=1e-12, atol=1e-12)


def ou_oracle(dev, dt, n_slots, seed):
    """The numpy row recursion ou_offsets replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    rho = math.exp(-dev.reversion_rate * dt)
    q = dev.sigma_dev * math.sqrt(1.0 - rho * rho)
    x = np.empty((n_slots, 3))
    x[0] = dev.sigma_dev * rng.standard_normal(3)
    noise = rng.standard_normal((n_slots - 1, 3)) if n_slots > 1 else None
    for k in range(1, n_slots):
        x[k] = rho * x[k - 1] + q * noise[k - 1]
    return x


class TestRealize:
    GRID = SlotGrid(0.5, 80)

    @pytest.mark.parametrize("n_slots", [1, 2, 1200])
    @pytest.mark.parametrize("seed", [0, 1, 977, np.random.SeedSequence([0, 3, 2, 5])])
    def test_ou_offsets_match_numpy_row_recursion_bitwise(self, n_slots, seed):
        for dev, dt in ((DeviationParams(), 0.1), (DeviationParams(0.7, 1.9), 0.5)):
            got = ou_offsets(dev, dt, n_slots, seed)
            assert got.shape == (n_slots, 3) and got.dtype == np.float64
            assert got.tobytes() == ou_oracle(dev, dt, n_slots, seed).tobytes()

    def test_realize_is_plan_plus_oracle_offsets_bitwise(self):
        grid, dev = SlotGrid(0.1, 1200), DeviationParams()
        want = positions_at(STRAIGHT, grid.times()) + ou_oracle(dev, grid.dt, grid.n_slots, 8)
        assert realize(STRAIGHT, dev, grid, 8).tobytes() == want.tobytes()

    def test_zero_sigma_reproduces_plan(self):
        dev = DeviationParams(sigma_dev=0.0, reversion_rate=0.5)
        out = realize(STRAIGHT, dev, self.GRID, seed=4)
        assert np.array_equal(out, positions_at(STRAIGHT, self.GRID.times()))

    def test_deterministic_for_fixed_seed(self):
        dev = DeviationParams(sigma_dev=2.0, reversion_rate=0.4)
        a = realize(STRAIGHT, dev, self.GRID, seed=123)
        b = realize(STRAIGHT, dev, self.GRID, seed=123)
        assert np.array_equal(a, b)
        c = realize(STRAIGHT, dev, self.GRID, seed=124)
        assert not np.array_equal(a, c)

    def test_offsets_zero_mean(self):
        # per-slot ensemble mean within 4 sigma / sqrt(n) per axis
        dev = DeviationParams(sigma_dev=3.0, reversion_rate=0.3)
        n = 1000
        acc = np.zeros((self.GRID.n_slots, 3))
        for seed in range(n):
            acc += ou_offsets(dev, self.GRID.dt, self.GRID.n_slots, seed)
        mean = acc / n
        assert np.all(np.abs(mean) <= 4.0 * dev.sigma_dev / math.sqrt(n))

    def test_stationary_variance(self):
        dev = DeviationParams(sigma_dev=2.5, reversion_rate=0.4)
        samples = np.concatenate(
            [ou_offsets(dev, 0.5, 120, seed).ravel() for seed in range(300)]
        )
        assert abs(samples.var() - dev.sigma_dev ** 2) <= 0.1 * dev.sigma_dev ** 2

    def test_autocorrelation_matches_reversion_rate(self):
        dev = DeviationParams(sigma_dev=2.0, reversion_rate=0.5)
        dt, n_slots, lag = 0.5, 40, 8
        x0, xl = [], []
        for seed in range(2000):
            x = ou_offsets(dev, dt, n_slots, seed)
            x0.append(x[10])
            xl.append(x[10 + lag])
        x0 = np.array(x0).ravel()
        xl = np.array(xl).ravel()
        corr = np.corrcoef(x0, xl)[0, 1]
        want = math.exp(-dev.reversion_rate * lag * dt)
        assert abs(corr - want) < 0.05


class TestDeviationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviationParams(sigma_dev=-1.0, reversion_rate=0.5)
        with pytest.raises(ValueError):
            DeviationParams(sigma_dev=1.0, reversion_rate=0.0)
