"""Link-level power control: minimum transmit power meeting an outage target
under Rayleigh fading, and per-sensitive-node received-power caps.

With received SNR = p * G * h / N and h a unit-mean exponential (Rayleigh
power), the outage constraint P(SNR < gamma) <= eps has the closed form
p = gamma * N / (G * (-ln(1 - eps))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExceedsPMax


@dataclass(frozen=True)
class LinkBudget:
    """Physical-layer envelope: SNR threshold, outage target, noise, power cap."""

    snr_threshold_db: float = 10.0
    outage_eps: float = 0.05
    noise_dbm: float = -90.0
    p_max_dbm: float = 30.0

    def __post_init__(self):
        if not 0.0 < self.outage_eps < 1.0:
            raise ValueError("outage_eps must lie in (0, 1)")
        if not math.isfinite(self.p_max_dbm):
            raise ValueError("p_max_dbm must be finite")

def outage_margin_db(budget: LinkBudget) -> float:
    """10*log10(-ln(1 - eps)): the dB shift the fading tail adds to the budget."""
    return 10.0 * math.log10(-math.log1p(-budget.outage_eps))

def required_power_dbm(mean_gain_db, budget: LinkBudget):
    """Minimum outage-compliant power in dBm, scalar or elementwise; no cap check."""
    return budget.snr_threshold_db + budget.noise_dbm - mean_gain_db - outage_margin_db(budget)

def min_power_outage(mean_gain_db: float, budget: LinkBudget) -> float:
    """Minimum power (dBm) with P(SNR < threshold) <= eps; raises ExceedsPMax."""
    if not math.isfinite(mean_gain_db):
        raise ValueError("mean_gain_db must be finite")
    p = required_power_dbm(mean_gain_db, budget)
    if p > budget.p_max_dbm:
        raise ExceedsPMax(f"required {p:.2f} dBm exceeds p_max {budget.p_max_dbm:.2f} dBm")
    return p

@dataclass(frozen=True)
class PowerDecision:
    """Either a transmit power (<= p_max) or a defer marker."""

    power_dbm: float | None

    @property
    def transmit(self) -> bool:
        return self.power_dbm is not None

    @staticmethod
    def defer() -> "PowerDecision":
        return PowerDecision(None)

def cap_power(required_p_dbm: float, max_site_gain_db: float, per_node_cap_dbm: float,
              p_max_dbm: float) -> PowerDecision:
    """Clip the request against the received-power cap at each sensitive site,
    given the largest predicted gain from the sender to any site (-inf with
    no site).

    p_allowed = min(p_max, cap - max_g predicted_gain(tx, g)); transmit at
    required power when p_allowed >= required (equality admits), else defer.
    Rounded subtraction is monotone, so cap - max_g equals min_g (cap - gain)
    bit for bit.
    """
    if min(p_max_dbm, per_node_cap_dbm - max_site_gain_db) >= required_p_dbm:
        return PowerDecision(required_p_dbm)
    return PowerDecision.defer()
