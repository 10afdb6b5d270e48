import math

import numpy as np
import pytest

from aeris.errors import ExceedsPMax
from aeris.operational import (LinkBudget, PowerDecision, cap_power, min_power_outage,
                               required_power_dbm)
from aeris.radio_env import ChannelSample, build_map
from aeris.scene import Position3, SceneNode
from aeris.units import db_to_lin


def outage_probability(p_dbm, gain_db, budget):
    """Exact outage CDF under unit-mean exponential fading power."""
    snr_mean = db_to_lin(p_dbm) * db_to_lin(gain_db) / db_to_lin(budget.noise_dbm)
    return 1.0 - math.exp(-db_to_lin(budget.snr_threshold_db) / snr_mean)


def bisect_min_power(gain_db, budget, lo=-80.0, hi=120.0, iters=200):
    """Independent oracle: bisection on the outage CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if outage_probability(mid, gain_db, budget) > budget.outage_eps:
            lo = mid
        else:
            hi = mid
    return hi


class TestMinPowerOutage:
    def test_analytic_collapse(self):
        # eps = 1 - e^-1 makes -ln(1-eps) exactly 1
        budget = LinkBudget(snr_threshold_db=10.0, outage_eps=1.0 - math.exp(-1),
                            noise_dbm=-90.0, p_max_dbm=60.0)
        p = min_power_outage(-70.0, budget)
        # p_lin = gamma * N / G exactly
        want = 10.0 + (-90.0) - (-70.0)
        assert p == pytest.approx(want, abs=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            budget = LinkBudget(
                snr_threshold_db=float(rng.uniform(0, 20)),
                outage_eps=float(rng.uniform(0.001, 0.5)),
                noise_dbm=float(rng.uniform(-110, -80)),
                p_max_dbm=200.0,
            )
            gain = float(rng.uniform(-130, -50))
            got = db_to_lin(min_power_outage(gain, budget))
            want = db_to_lin(bisect_min_power(gain, budget))
            assert got == pytest.approx(want, rel=1e-9)

    def test_monte_carlo_outage_at_returned_power(self):
        budget = LinkBudget(snr_threshold_db=8.0, outage_eps=0.05, noise_dbm=-90.0,
                            p_max_dbm=60.0)
        gain = -85.0
        p = min_power_outage(gain, budget)
        rng = np.random.default_rng(100)
        n = 10 ** 6
        h = rng.standard_exponential(n)
        snr = db_to_lin(p) * db_to_lin(gain) * h / db_to_lin(budget.noise_dbm)
        emp = float(np.mean(snr < db_to_lin(budget.snr_threshold_db)))
        se = math.sqrt(budget.outage_eps * (1 - budget.outage_eps) / n)
        assert abs(emp - budget.outage_eps) <= 4 * se

    def test_exceeds_p_max(self):
        budget = LinkBudget(p_max_dbm=20.0)
        with pytest.raises(ExceedsPMax):
            min_power_outage(-120.0, budget)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(outage_eps=0.0)
        with pytest.raises(ValueError):
            LinkBudget(outage_eps=1.0)


def one_point_map(tx, rx, gain_db):
    return build_map([ChannelSample(tx, rx, gain_db)])


class TestCapPower:
    BUDGET = LinkBudget(p_max_dbm=30.0)

    def test_no_sensitive_nodes_transmits(self):
        d = cap_power(12.0, Position3(0, 0, 50), [], -60.0, None, self.BUDGET.p_max_dbm)
        assert d.transmit and d.power_dbm == 12.0

    def test_boundary_equality_transmits(self):
        tx = Position3(0, 0, 50)
        node = SceneNode("s", Position3(100, 0, 0))
        rmap = one_point_map(tx, node.pos, -80.0)
        # allowed = cap - gain = -60 - (-80) = 20 dBm exactly
        d = cap_power(20.0, tx, [node], -60.0, rmap, self.BUDGET.p_max_dbm)
        assert d.transmit and d.power_dbm == 20.0

    def test_too_close_defers(self):
        tx = Position3(0, 0, 50)
        node = SceneNode("s", Position3(10, 0, 0))
        rmap = one_point_map(tx, node.pos, -55.0)
        d = cap_power(10.0, tx, [node], -60.0, rmap, self.BUDGET.p_max_dbm)
        assert not d.transmit
        assert d == PowerDecision.defer()

    def test_scalar_cap_tight_and_loose(self):
        tx = Position3(0, 0, 50)
        a = SceneNode("a", Position3(100, 0, 0))
        rmap = one_point_map(tx, a.pos, -70.0)
        tight = cap_power(15.0, tx, [a], -60.0, rmap, 30.0)
        loose = cap_power(15.0, tx, [a], -50.0, rmap, 30.0)
        assert not tight.transmit
        assert loose.transmit


class TestRequiredPowerVectorized:
    def test_matches_scalar_bitwise(self):
        budget = LinkBudget()
        gains = np.linspace(-120, -60, 23)
        vec = required_power_dbm(gains, budget)
        for k, g in enumerate(gains):
            assert vec[k] == required_power_dbm(float(g), budget)
