import math

import numpy as np
import pytest

from aeris.errors import ExceedsPMax
from aeris.operational import (LinkBudget, PowerDecision, cap_power, min_power_outage,
                               required_power_dbm)
from aeris.radio_env import ChannelSample, build_map
from aeris.scene import Position3
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


class FixedGains:
    """A map stub that answers a query with the given gains, one per site."""

    def __init__(self, gains):
        self.gains = np.asarray(gains, dtype=float)

    def query_many(self, tx, rx):
        assert tx.shape == rx.shape == (self.gains.size, 3)
        return self.gains.copy()


def max_site_gain(radio_map, tx_pos, sens_pos):
    """What the harness passes cap_power: the largest map gain from tx_pos to
    any site, in one query; -inf with no site."""
    if not len(sens_pos):
        return -math.inf
    return float(radio_map.query_many(np.broadcast_to(tx_pos, sens_pos.shape), sens_pos).max())


def per_site_cap(required_p_dbm, tx_pos, sens_pos, per_node_cap_dbm, radio_map, p_max_dbm):
    """cap_power's scalar oracle: the allowed power is the running min of
    p_max and cap - gain over the sites, one site at a time."""
    p_allowed = p_max_dbm
    gains = radio_map.query_many(np.broadcast_to(tx_pos, sens_pos.shape), sens_pos)
    for gain in gains:
        p_allowed = min(p_allowed, per_node_cap_dbm - float(gain))
    if p_allowed >= required_p_dbm:
        return PowerDecision(required_p_dbm), p_allowed
    return PowerDecision(None), p_allowed


class TestCapPower:
    BUDGET = LinkBudget(p_max_dbm=30.0)
    TX = np.array([0.0, 0.0, 50.0])

    def test_no_sensitive_nodes_transmits(self):
        d = cap_power(12.0, max_site_gain(None, self.TX, np.empty((0, 3))), -60.0,
                      self.BUDGET.p_max_dbm)
        assert d.transmit and d.power_dbm == 12.0

    def test_boundary_equality_transmits(self):
        site = np.array([[100.0, 0.0, 0.0]])
        rmap = one_point_map(Position3(*self.TX), Position3(*site[0]), -80.0)
        # allowed = cap - gain = -60 - (-80) = 20 dBm exactly
        d = cap_power(20.0, max_site_gain(rmap, self.TX, site), -60.0, self.BUDGET.p_max_dbm)
        assert d.transmit and d.power_dbm == 20.0

    def test_too_close_defers(self):
        site = np.array([[10.0, 0.0, 0.0]])
        rmap = one_point_map(Position3(*self.TX), Position3(*site[0]), -55.0)
        d = cap_power(10.0, max_site_gain(rmap, self.TX, site), -60.0, self.BUDGET.p_max_dbm)
        assert not d.transmit
        assert d == PowerDecision(None)

    def test_scalar_cap_tight_and_loose(self):
        site = np.array([[100.0, 0.0, 0.0]])
        rmap = one_point_map(Position3(*self.TX), Position3(*site[0]), -70.0)
        tight = cap_power(15.0, max_site_gain(rmap, self.TX, site), -60.0, 30.0)
        loose = cap_power(15.0, max_site_gain(rmap, self.TX, site), -50.0, 30.0)
        assert not tight.transmit
        assert loose.transmit

    def test_matches_per_site_min_bit_for_bit(self):
        # at required == the oracle's allowed power both transmit, one ulp above
        # both defer; together the two pin cap_power's allowed power to the
        # oracle's bit for bit
        rng = np.random.default_rng(11)
        cases = [[-80.0, -71.3, -71.3], [-71.3, -80.0, -71.3, -95.5]]  # two equal gains
        cases += [rng.uniform(-120.0, -40.0, rng.integers(3, 7)) for _ in range(200)]
        cases += [np.repeat(rng.uniform(-120.0, -40.0, 2), 2) for _ in range(50)]
        probes = 0
        for gains in cases:
            rmap = FixedGains(gains)
            sites = rng.uniform(0.0, 900.0, (len(gains), 3))
            cap = float(rng.uniform(-75.0, -45.0))
            p_max = float(rng.uniform(0.0, 40.0))
            allowed = per_site_cap(0.0, self.TX, sites, cap, rmap, p_max)[1]
            for required in (allowed, np.nextafter(allowed, np.inf),
                             np.nextafter(allowed, -np.inf), float(rng.uniform(-10.0, 40.0))):
                want, _ = per_site_cap(required, self.TX, sites, cap, rmap, p_max)
                got = cap_power(required, max_site_gain(rmap, self.TX, sites), cap, p_max)
                assert got == want, (gains, cap, p_max, required)
                probes += want.transmit
        assert 0 < probes < 4 * len(cases)


class TestRequiredPowerVectorized:
    def test_matches_scalar_bitwise(self):
        budget = LinkBudget()
        gains = np.linspace(-120, -60, 23)
        vec = required_power_dbm(gains, budget)
        for k, g in enumerate(gains):
            assert vec[k] == required_power_dbm(float(g), budget)
