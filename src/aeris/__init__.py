"""Predictive communication for low-altitude aerial networks.

Fuses pre-filed 4D trajectories with a learned large-scale radio map into a
spatio-temporal channel graph, then runs a strategic / tactical / operational
resource-allocation cascade and measures cross-tier interference against
reactive baselines.
"""

from . import (channel_graph, echelon, errors, harness, operational, radio_env, scene,
               strategic, tactical, trajectory)
from .channel_graph import ChannelGraph, SlotGrid, synthesize
from .echelon import EchelonView, GainForecast, WorldState, forecast_gain
from .harness import (FlowRequest, MetricsReport, ScenarioConfig, draw_flows,
                      gen_default_scenario, replay_metrics, run, sweep)
from .operational import LinkBudget, PowerDecision, cap_power, min_power_outage
from .radio_env import (ChannelSample, GroundTruthChannel, LargeScaleStats, PathLossParams,
                        RadioMap, SampleSet, build_map, sample_along)
from .scene import ObstacleBox, Position3, Scene, SceneNode, gen_city
from .strategic import HopReservation, InterferenceCost, PathReservation, reserve_path
from .tactical import LocalCluster, Schedule, detect_blockage, reroute_local, schedule_timing
from .trajectory import DeviationParams, Trajectory4D, Waypoint, realize

__version__ = "0.1.0"
