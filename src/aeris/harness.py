"""Scenario generation, the simulation loop wiring the three layers together,
two reactive baselines, load sweeps and metrics.

Accounting ground rules, identical for every method:

* interference is accrued from the ground-truth channel at realized positions;
  the radio map is a decision input only.
* all methods inside one seed share the flow arrivals, realized trajectories,
  shadow field and per-flow fading streams (paired seeding).
* flows are admitted sequentially; concurrent transmissions by different flows
  are allowed and their interference sums linearly (no MAC model).

"Network load" is the flow arrival rate in flows per minute, drawn as a
seeded Poisson process over the part of the horizon that leaves every flow a
full deadline window.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import echelon, strategic, tactical, trajectory
from .channel_graph import ChannelGraph, SlotGrid, synthesize
from .echelon import EchelonView, WorldState, LOCAL
from .errors import ConfigInvalid, EscalateToStrategic, GenerationFailed, NoFeasiblePath
from .operational import LinkBudget, cap_power, required_power_dbm
from .radio_env import (GroundTruthChannel, PathLossParams, build_map, sample_along,
                        sample_between, sample_ground_pairs)
from .scene import Position3, Scene, SceneNode, gen_city
from .strategic import (HopReservation, PathReservation, prepare_planner, reserve_path,
                        reserve_paths, min_delay_reservation)
from .trajectory import DeviationParams, Trajectory4D, Waypoint
from .units import db_to_lin, lin_to_db

METHODS = ("predictive", "baseline_aggregate", "baseline_spacetime")

# the documented scenario's fixed values: aircraft deviation, the truth's path
# loss, the link budget (p_max is set near what the direct ground hop between
# the pads needs, so the corridor is mostly a relaying problem; in some worlds
# the hop still closes: seed 0, run seed 0 needs 26.84 dBm), the received-power
# cap at each sensitive site and the two deadline classes. The local tier
# forecasts over the long deadline, the most a hop window can span.
DEVIATION = DeviationParams()
PATHLOSS = PathLossParams()
BUDGET = LinkBudget(p_max_dbm=27.0)
SENSITIVE_CAP_DBM = -60.0
DEADLINE_SHORT_S = 2.0
DEADLINE_LONG_S = 20.0

# the most slot x node x node cells a scenario's graph may have: a world build
# peaks near 85 bytes per cell over a 70 MB base, so about 1.4 GB at the cap
_MAX_GRAPH_CELLS = 1 << 24
# the fields build_world never reads: a run's config may differ from its world's
_RUN_FIELDS = ("load_per_min", "frac_short_deadline", "region_radius_m", "blockage_threshold_db")


def _check_graph_cells(n_slots, nodes: int) -> None:
    """Rejects a graph of over _MAX_GRAPH_CELLS slot x node x node cells, or inf slots."""
    if not n_slots * nodes ** 2 <= _MAX_GRAPH_CELLS:
        raise ConfigInvalid("grid", f"{n_slots} slots x {nodes}^2 graph nodes is "
                                    f"over {_MAX_GRAPH_CELLS} cells")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs that a caller may set; serializes to a single
    JSON document. The defaults are the documented scenario's, and a config
    checks itself when it is built, so replace() and from_json check too."""

    scene: Scene
    trajectories: tuple
    grid: SlotGrid = SlotGrid()
    sampling_period_s: float = 1.0
    region_radius_m: float = 400.0
    blockage_threshold_db: float = -97.0
    load_per_min: float = 4.0
    frac_short_deadline: float = 0.15
    seed: int = 0

    def __post_init__(self):
        _check_seed("seed", self.seed)
        # NaN fails every comparison, so the range checks below would pass it;
        # ints are exact, and a huge one (a seed, say) is no float to test
        for f in fields(self)[3:]:
            v = getattr(self, f.name)
            if not isinstance(v, int) and not math.isfinite(v):
                raise ConfigInvalid(f.name, f"must be finite, not {v!r}")
        _check_graph_cells(self.grid.n_slots, len(self.trajectories)
                           + len(self.scene.ground_sources) + len(self.scene.ground_destinations))
        if not 0.0 <= self.frac_short_deadline <= 1.0:
            raise ConfigInvalid("frac_short_deadline", "class fractions must sum to 1 in [0,1]")
        _check_load("load_per_min", self.load_per_min)
        if DEADLINE_SHORT_S < self.grid.dt:
            raise ConfigInvalid("grid", f"slots longer than the {DEADLINE_SHORT_S} s deadline")
        if DEADLINE_LONG_S >= self.grid.dt * self.grid.n_slots:
            raise ConfigInvalid("grid", f"horizon within the {DEADLINE_LONG_S} s deadline")
        if self.sampling_period_s <= 0:
            raise ConfigInvalid("sampling_period_s", "sampling period must be positive")
        if not self.trajectories:
            raise ConfigInvalid("trajectories", "at least one aircraft is required")
        if not self.scene.ground_sources or not self.scene.ground_destinations:
            raise ConfigInvalid("scene", "need at least one source and one destination")

    def to_json_dict(self) -> dict:
        # past scene, trajectories and grid, every field is a JSON value
        d = {f.name: getattr(self, f.name) for f in fields(self)[3:]}
        d["grid"] = asdict(self.grid)
        d["scene"] = self.scene.to_json_dict()
        d["trajectories"] = [
            {
                "aircraft_id": t.aircraft_id,
                "v_max": t.v_max,
                "waypoints": [[w.t, w.pos.x, w.pos.y, w.pos.z] for w in t.waypoints],
            }
            for t in self.trajectories
        ]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    @staticmethod
    def from_json_dict(d: dict) -> "ScenarioConfig":
        try:
            _check_keys("", d, [f.name for f in fields(ScenarioConfig)])
            _check_keys("grid", d["grid"], [f.name for f in fields(SlotGrid)])
            _check_keys("scene", d["scene"], ("bounds", "obstacles", "nodes"))
            _check_keys("scene.bounds", d["scene"]["bounds"], ("min", "max"))
            for k, box in enumerate(d["scene"]["obstacles"]):
                _check_keys(f"scene.obstacles[{k}]", box, ("min", "max"))
            for k, node in enumerate(d["scene"]["nodes"]):
                _check_keys(f"scene.nodes[{k}]", node, ("id", "role", "pos"))
            for k, td in enumerate(d["trajectories"]):
                _check_keys(f"trajectories[{k}]", td, ("aircraft_id", "v_max", "waypoints"))
            trajs = tuple(
                Trajectory4D(
                    td["aircraft_id"],
                    tuple(Waypoint(w[0], Position3(w[1], w[2], w[3])) for w in td["waypoints"]),
                    v_max=td["v_max"],
                )
                for td in d["trajectories"]
            )
            kw = {f.name: d[f.name] for f in fields(ScenarioConfig)[3:]}
            return ScenarioConfig(Scene.from_json_dict(d["scene"]), trajs,
                                  SlotGrid(**d["grid"]), **kw)
        except (LookupError, TypeError, ValueError, OverflowError) as e:
            raise ConfigInvalid("config", f"malformed scenario document: {e}") from None

    @staticmethod
    def from_json(s: str) -> "ScenarioConfig":
        try:
            d = json.loads(s)
        except ValueError as e:
            raise ConfigInvalid("config", f"not a JSON document: {e}") from None
        return ScenarioConfig.from_json_dict(d)


@dataclass(frozen=True)
class FlowRequest:
    source: str
    dest: str
    injection_slot: int
    deadline_s: float

    def __post_init__(self):
        if self.deadline_s <= 0:
            raise ValueError("deadline must be positive")


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate outcome of one (config, method, seed) run."""

    method: str
    n_flows: int
    n_delivered: int
    interference_mw_s: float
    delivery_rate: float
    mean_delay_s: float
    mean_energy_mj: float

    @property
    def interference_db(self) -> float:
        return lin_to_db(self.interference_mw_s) if self.interference_mw_s > 0 else float("-inf")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "interference_db": self.interference_db}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# scenario generation


def _corridor_scene(seed: int, city: Scene, n_src: int, n_dst: int,
                    n_sensitive: int) -> Scene:
    """West-to-east delivery corridor through city, with a protected
    mid-field campus.

    Sources sit on the west edge, destinations on the east edge, and the
    sensitive receivers form one tight cluster astride the direct corridor,
    so the straight crossing is radio-hot while wide flanks stay quiet.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    bx, by = city.bounds.hi.x, city.bounds.hi.y
    # the campus itself is open ground
    cx, cy = 0.5 * bx, 0.5 * by
    keep = tuple(b for b in city.obstacles
                 if max(abs(0.5 * (b.lo.x + b.hi.x) - cx),
                        abs(0.5 * (b.lo.y + b.hi.y) - cy)) > 110.0)
    city = replace(city, obstacles=keep)

    def clear_spot(x_lo, x_hi, y_lo, y_hi):
        for _ in range(2000):
            x = rng.uniform(x_lo, x_hi)
            y = rng.uniform(y_lo, y_hi)
            if not any(b.footprint_contains(x, y) for b in city.obstacles):
                return Position3(x, y, 0.0)
        raise GenerationFailed("could not place a ground node clear of buildings")

    lanes = (0.38, 0.62)
    sources = tuple(
        SceneNode(f"src{k}", clear_spot(0.13 * bx, 0.17 * bx,
                                        lanes[k % 2] * by - 0.02 * by,
                                        lanes[k % 2] * by + 0.02 * by))
        for k in range(n_src)
    )
    dests = tuple(
        SceneNode(f"dst{k}", clear_spot(0.83 * bx, 0.87 * bx,
                                        lanes[k % 2] * by - 0.02 * by,
                                        lanes[k % 2] * by + 0.02 * by))
        for k in range(n_dst)
    )
    campus = []
    for k in range(n_sensitive):
        ang = 2.0 * np.pi * k / max(n_sensitive, 1)
        r = rng.uniform(20.0, 45.0)
        campus.append(SceneNode(
            f"sens{k}",
            clear_spot(0.5 * bx + r * np.cos(ang) - 8.0, 0.5 * bx + r * np.cos(ang) + 8.0,
                       0.5 * by + r * np.sin(ang) - 8.0, 0.5 * by + r * np.sin(ang) + 8.0)))
    return replace(city, ground_sources=sources, ground_destinations=dests,
                   sensitive_nodes=tuple(campus))


_CRUISE_SPEED_MPS = 45.0  # every generated aircraft's, under Trajectory4D's v_max


def _corridor_trajectories(scene: Scene, n_aircraft: int, horizon_s: float, seed) -> tuple:
    """Mission mix for the corridor: phase-staggered shuttles on each delivery
    lane, inspection orbits over the sources, and survey sweeps along the
    north/south flanks. Shuttle speed and lane length are matched so a single
    carrier can span source to destination within the long deadline class."""
    rng = np.random.default_rng(seed)
    bx, by = scene.bounds.hi.x, scene.bounds.hi.y
    sources = list(scene.ground_sources)
    dests = list(scene.ground_destinations)
    terminals = sources + dests
    n_ferry = min(8, max(n_aircraft - 4, 1))
    n_orbit = min(len(terminals), max(n_aircraft - n_ferry - 2, 0))
    plans = []
    for a in range(n_aircraft):
        if a < n_ferry:
            lane = a % max(len(sources), 1)
            alt = rng.uniform(70.0, 95.0)
            s = sources[lane % len(sources)].pos
            d = dests[lane % len(dests)].pos
            jit = rng.uniform(-20, 20, 4)
            p0 = np.clip(np.array([s.x + jit[0], s.y + jit[1]]), 0, [bx, by])
            p1 = np.clip(np.array([d.x + jit[2], d.y + jit[3]]), 0, [bx, by])
            legs = [np.array([p0[0], p0[1], alt]), np.array([p1[0], p1[1], alt])]
            phase = (a // max(len(sources), 1)) / max(n_ferry // max(len(sources), 1), 1)
            phase += rng.uniform(0.0, 0.1)
            plans.append((legs, phase % 1.0))
        elif a < n_ferry + n_orbit:
            anchor = terminals[(a - n_ferry) % len(terminals)].pos
            alt = rng.uniform(60.0, 80.0)
            r = rng.uniform(90.0, 130.0)
            ang0 = rng.uniform(0.0, 2.0 * np.pi)
            legs = []
            for s in range(6):
                ang = ang0 + 2.0 * np.pi * s / 6
                p = np.array([anchor.x + r * np.cos(ang), anchor.y + r * np.sin(ang), alt])
                p[:2] = np.clip(p[:2], 0.0, [bx, by])
                legs.append(p)
            plans.append((legs, rng.uniform(0.0, 1.0)))
        else:
            north = (a % 2 == 0)
            alt = rng.uniform(90.0, 120.0)
            y = rng.uniform(0.06 * by, 0.14 * by)
            y = by - y if north else y
            x0 = rng.uniform(0.10 * bx, 0.25 * bx)
            x1 = rng.uniform(0.75 * bx, 0.90 * bx)
            legs = [np.array([x0, y, alt]), np.array([x1, y, alt])]
            plans.append((legs, rng.uniform(0.0, 1.0)))
    trajs = []
    for a, (legs, phase) in enumerate(plans):
        # phase in [0, 1) positions the aircraft along its first leg at t = 0
        start = np.asarray(legs[0], dtype=float)
        nxt0 = np.asarray(legs[1 % len(legs)], dtype=float)
        waypoints = [Waypoint(0.0, Position3.from_array(start + phase * (nxt0 - start)))]
        t, k = 0.0, 0
        while t < horizon_s + 5.0:
            nxt = legs[(k + 1) % len(legs)]
            cur = waypoints[-1].pos.as_array()
            d = float(np.linalg.norm(nxt - cur))
            if d < 1e-6:
                k += 1
                continue
            t += d / _CRUISE_SPEED_MPS
            waypoints.append(Waypoint(t, Position3.from_array(nxt)))
            k += 1
        trajs.append(Trajectory4D(f"uav{a}", tuple(waypoints)))
    return tuple(trajs)


def gen_default_scenario(seed: int, n_buildings: int = 20, n_aircraft: int = 12,
                         n_sensitive: int = 5, n_sources: int = 1, n_destinations: int = 1,
                         horizon_s: float = 120.0, dt: float = 0.1,
                         load_per_min: float = 4.0, frac_short_deadline: float = 0.15,
                         ) -> ScenarioConfig:
    """The documented desk-scale scenario: a 1000 x 1000 x 150 m city block,
    west-side sources, east-side destinations, a mid-field belt of sensitive
    receivers, and twelve aircraft on crossing shuttle/orbit/survey routes."""
    for name, count, least in (("n_sources", n_sources, 1),
                               ("n_destinations", n_destinations, 1),
                               ("n_sensitive", n_sensitive, 0)):
        if count < least:
            raise ConfigInvalid(name, f"must be at least {least}, not {count!r}")
    _check_seed("seed", seed)
    for name, value in (("horizon_s", horizon_s), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ConfigInvalid(name, f"must be finite and positive, not {value!r}")
    # checked before anything is generated; round() cannot take an inf slot count
    n_slots = horizon_s / dt
    n_slots = round(n_slots) if n_slots < math.inf else n_slots
    _check_graph_cells(n_slots, n_aircraft + n_sources + n_destinations)
    try:
        grid = SlotGrid(dt, n_slots)
        city = gen_city(n_buildings, seed)
    except ValueError as e:
        raise ConfigInvalid("scenario", str(e)) from None
    scene = _corridor_scene(seed, city, n_sources, n_destinations, n_sensitive)
    trajs = _corridor_trajectories(scene, n_aircraft, horizon_s,
                                   np.random.SeedSequence([seed, 202]))
    return ScenarioConfig(scene=scene, trajectories=trajs, grid=grid, load_per_min=load_per_min,
                          frac_short_deadline=frac_short_deadline, seed=seed)


# ---------------------------------------------------------------------------
# world construction (per run seed, shared by all methods and loads)


@dataclass(frozen=True)
class World(WorldState):
    """One run seed's echelon state plus its map, graph (its node_ids are the
    sorted aircraft and ground-endpoint ids), planner tables, the (k, 3)
    sensitive sites and the rows whose nodes are all ground endpoints (see row)."""

    config: ScenarioConfig
    radio_map: object
    graph: ChannelGraph
    tables: strategic.PlannerTables
    sens_pos: np.ndarray
    ground_rows: dict

    def realized_position(self, node_id: str, slot: int) -> np.ndarray:
        """Where a node is at a slot: an aircraft's realized track, else its ground site."""
        if node_id in self.realized:
            return self.realized[node_id][slot]
        return self.ground_positions[node_id].as_array()

    def row(self, kernel, slot: int, *nodes: str) -> float:
        """kernel(world, *positions) for nodes at slot. Ground endpoints never
        move, so a row of ground endpoints only is a constant of the world:
        build_world computes it once, through this method, into ground_rows."""
        value = self.ground_rows.get((kernel, *nodes))
        if value is None:
            value = kernel(self, *(self.realized_position(e, slot) for e in nodes))
        return value


def site_interference(world: World, tx_pos: np.ndarray) -> float:
    """Sum over the sensitive sites of the linear truth gain from tx_pos, in
    one truth call with the sender broadcast; 0.0 with no site."""
    sens_pos = world.sens_pos
    if not len(sens_pos):
        return 0.0
    gains = world.truth.gain_db_many(np.broadcast_to(tx_pos, sens_pos.shape), sens_pos)
    return float(np.sum(db_to_lin(gains)))


def site_map_max(world: World, tx_pos: np.ndarray) -> float:
    """Largest map gain from tx_pos to any sensitive site, in one map query
    with the sender broadcast; -inf with no site."""
    sens_pos = world.sens_pos
    if not len(sens_pos):
        return -math.inf
    gains = world.radio_map.query_many(np.broadcast_to(tx_pos, sens_pos.shape), sens_pos)
    return float(gains.max())


def link_truth(world: World, tx_pos: np.ndarray, rx_pos: np.ndarray) -> float:
    """The truth gain of one link, as a one-row call."""
    return float(world.truth.gain_db_many(tx_pos[None], rx_pos[None])[0])


def _stream(config: ScenarioConfig, run_seed: int, *tags) -> np.random.SeedSequence:
    return np.random.SeedSequence([config.seed, run_seed, *tags])


def build_world(config: ScenarioConfig, run_seed: int) -> World:
    """Deterministic per-seed world: shadow field, realized paths, map, graph."""
    shadow_ss = _stream(config, run_seed, 1)
    truth = GroundTruthChannel(config.scene, PATHLOSS, shadow_ss)
    realized = {}
    for a, traj in enumerate(config.trajectories):
        realized[traj.aircraft_id] = trajectory.realize(
            traj, DEVIATION, config.grid, _stream(config, run_seed, 2, a)
        )
    comm_ground = tuple(config.scene.ground_sources) + tuple(config.scene.ground_destinations)
    peers = [n.pos for n in comm_ground + tuple(config.scene.sensitive_nodes)]
    samples = sample_along(config.trajectories, config.scene, PATHLOSS, shadow_ss,
                           config.sampling_period_s, peers)
    samples += sample_between(config.trajectories, config.scene, PATHLOSS, shadow_ss,
                              config.sampling_period_s)
    samples += sample_ground_pairs(config.scene, PATHLOSS, shadow_ss, peers)
    radio_map = build_map(samples)
    graph = synthesize(config.trajectories, comm_ground, radio_map, config.grid)
    tables = prepare_planner(graph, radio_map, config.scene.sensitive_nodes, BUDGET,
                             per_node_cap_dbm=SENSITIVE_CAP_DBM, pathloss=PATHLOSS)
    sens = [n.pos.as_array() for n in config.scene.sensitive_nodes]
    world = World(
        now_s=0.0, truth=truth, deviation=DEVIATION, grid=config.grid,
        trajectories={t.aircraft_id: t for t in config.trajectories}, realized=realized,
        ground_positions={n.id: n.pos for n in config.scene.all_nodes()},
        config=config, radio_map=radio_map, graph=graph, tables=tables,
        sens_pos=np.array(sens).reshape(-1, 3), ground_rows={})
    # each ground endpoint's sensitive-site rows, and the truth of every
    # ground-to-ground link, in the call shapes an aircraft's rows still use
    ground = [n.id for n in comm_ground]
    keys = [(kernel, e) for kernel in (site_interference, site_map_max) for e in ground]
    keys += [(link_truth, a, b) for a in ground for b in ground if a != b]
    return replace(world, ground_rows={key: world.row(key[0], 0, *key[1:]) for key in keys})


def _check_keys(path: str, d: dict, known) -> None:
    """Rejects a scenario document's object at path ("" for the document), d,
    if it holds a key other than known: a misspelt or retired field would
    otherwise leave its default in force, or go unread."""
    if not isinstance(d, dict):
        raise TypeError(f"{path or 'the document'} is not a JSON object")
    unknown = sorted(d.keys() - set(known))
    if unknown:
        raise ConfigInvalid(f"{path}.{unknown[0]}" if path else unknown[0],
                            "is not a scenario field")


def _check_seed(field: str, seed) -> None:
    """A seed must be a non-negative integer, as np.random.SeedSequence takes."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigInvalid(field, f"must be a non-negative integer, not {seed!r}")


def _check_load(field: str, load: float) -> None:
    """A flow load must be finite and non-negative: at an infinite rate the
    arrival clock never advances."""
    if not 0.0 <= load < math.inf:
        raise ConfigInvalid(field, f"load must be finite and non-negative, not {load!r}")


def draw_flows(config: ScenarioConfig, run_seed: int, load_per_min: float = None) -> list:
    """Seeded Poisson arrivals over the horizon part that fits a full deadline."""
    load = config.load_per_min if load_per_min is None else load_per_min
    _check_load("load_per_min", load)
    if load <= 0:
        return []
    rng = np.random.default_rng(_stream(config, run_seed, 3, int(round(load * 1000))))
    grid = config.grid
    window_end = grid.dt * grid.n_slots - DEADLINE_LONG_S - grid.dt
    sources = [n.id for n in config.scene.ground_sources]
    dests = [n.id for n in config.scene.ground_destinations]
    flows, t = [], 0.0
    while True:
        t += float(rng.exponential(60.0 / load))
        if t >= window_end:
            break
        src = sources[rng.integers(len(sources))]
        dst = dests[rng.integers(len(dests))]
        short = bool(rng.random() < config.frac_short_deadline)
        deadline = DEADLINE_SHORT_S if short else DEADLINE_LONG_S
        flows.append(FlowRequest(src, dst, grid.slot_of(t), deadline))
    return flows


# ---------------------------------------------------------------------------
# transmission accounting


class _Accounting:
    """Sends a run's transmissions, from the truth at realized positions only,
    and logs each one and each flow's outcome as an event. It keeps no totals:
    the run's report is replay_metrics of those events.

    Flows of one source and destination ride the same relays at the same
    slots, so the run's memo computes each row and each hop forecast once. It
    dies with the run: no run's work depends on the runs before it."""

    def __init__(self, world: World, config: ScenarioConfig, events: list):
        self.world = world
        self.config = config
        self.events = events
        self.memo = {}

    def row(self, kernel, slot: int, *nodes: str) -> float:
        """World.row, computed once per run per (kernel, slot, *nodes)."""
        key = (kernel, slot, *nodes)
        if key not in self.memo:
            self.memo[key] = self.world.row(kernel, slot, *nodes)
        return self.memo[key]

    def hop_forecasts(self, hops) -> list:
        """tactical.hop_forecasts for hops, each decided at its window's start:
        from the world at that slot and the _local_view of its two ends,
        computed once per run per (tx, rx, window), which fixes the region and
        the clock. The keys the memo lacks are computed in one batch. Other
        flows share the arrays, so they are read-only."""
        todo = {}
        for hop in hops:
            key = (hop.tx, hop.rx, hop.window)
            if key not in self.memo:
                todo[key] = hop
        if todo:
            new = list(todo.values())
            worlds = [self.world.at_time(self.config.grid.t_of(hop.window[0])) for hop in new]
            views = [_local_view(self.world, self.config, hop.window[0], (hop.tx, hop.rx))
                     for hop in new]
            for key, (slots, series) in zip(todo, tactical.hop_forecasts(views, worlds, new)):
                slots.flags.writeable = series.flags.writeable = False
                self.memo[key] = slots, series
        return [self.memo[hop.tx, hop.rx, hop.window] for hop in hops]

    def transmit(self, flow_idx: int, hop_idx: int, slot: int, tx: str, rx: str,
                 power_dbm: float, fade_rng) -> bool:
        """Send one hop over the link's truth gain at the slot."""
        cfg = self.config
        p_lin = db_to_lin(power_dbm)
        contrib = float((p_lin * self.row(site_interference, slot, tx)) * cfg.grid.dt)
        g_true = self.row(link_truth, slot, tx, rx)
        h = float(fade_rng.standard_exponential())
        snr = p_lin * db_to_lin(g_true) * h / db_to_lin(BUDGET.noise_dbm)
        success = bool(snr >= db_to_lin(BUDGET.snr_threshold_db))
        energy = p_lin * cfg.grid.dt
        self.events.append({
            "type": "transmission", "flow": flow_idx, "hop": hop_idx, "slot": slot,
            "tx": tx, "rx": rx, "power_dbm": power_dbm, "success": success,
            "interference_mw_s": contrib, "energy_mw_s": energy,
        })
        return success

    def finish_flow(self, flow_idx: int, delivered: bool, delivery_slot,
                    energy_mw_s: float) -> None:
        self.events.append({
            "type": "outcome", "flow": flow_idx, "delivered": delivered,
            "delivery_slot": delivery_slot if delivered else None,
            "energy_mw_s": energy_mw_s,
        })


# ---------------------------------------------------------------------------
# the predictive cascade


def _local_view(world: World, cfg: ScenarioConfig, slot: int, ends) -> EchelonView:
    """The local tier's view of a decision at slot: centered on the mean of
    ends' realized positions then, with the scenario's region radius, widened
    to hold every end with 50 m to spare."""
    pos = np.array([world.realized_position(e, slot) for e in ends])
    center = pos.mean(axis=0)
    radius = max(cfg.region_radius_m, float(np.linalg.norm(pos - center, axis=1).max()) + 50.0)
    return EchelonView(
        tier=LOCAL, map_snapshot=world.radio_map, horizon_s=DEADLINE_LONG_S,
        region_center=Position3.from_array(center), region_radius=radius,
    )


def _build_slice(world: World, cfg: ScenarioConfig, view: EchelonView, members: tuple,
                 hop: HopReservation, tail: list) -> tactical.LocalGraphSlice:
    """Local per-slot predictions for a detour around hop, looked up at only
    the rows tactical.reroute_local reads: over the first half-span the gains
    from hop.tx to each relay and hop.tx's sensitive-node weight, over the
    second the gains from each relay to the reconnect node and the relay's
    weight. The links take one map call, the sensitive-node rows one
    query_sites call. Every other row is NaN. Every member is held to
    the local tier's region and horizon checks over the whole span."""
    reconnect, (lo, mid), (_, hi) = tactical.detour_halves(hop, tail)
    relays = [m for m in members if m not in (hop.tx, hop.rx, reconnect)]
    slots = np.arange(lo, hi + 1)
    pos = echelon.local_positions(view, world, members, cfg.grid.dt * slots.astype(float))
    at = dict(zip(members, pos))
    h, n_relay = mid + 1 - lo, len(relays)  # slots in the first half-span, relays
    tx_first, rc_second = at[hop.tx][:h], at[reconnect][h:]
    relay_first = np.array([at[m][:h] for m in relays]).reshape(-1, 3)
    relay_second = np.array([at[m][h:] for m in relays]).reshape(-1, 3)
    senders = np.concatenate([tx_first, relay_second])
    # rows: the tx -> relay and relay -> reconnect links here, and below a
    # sensitive-node row per (sender, slot, node) for tx over the first
    # half-span and each relay over the second
    gains = world.radio_map.query_many(
        np.concatenate([np.tile(tx_first, (n_relay, 1)), relay_second]),
        np.concatenate([relay_first, np.tile(rc_second, (n_relay, 1))]))
    link = np.full((2, n_relay, slots.size), np.nan)  # tx -> relay, relay -> reconnect
    link[0, :, :h] = gains[:n_relay * h].reshape(n_relay, h)
    link[1, :, h:] = gains[n_relay * h:].reshape(n_relay, slots.size - h)
    weight = np.full((1 + n_relay, slots.size), np.nan)  # tx, then each relay
    sent = np.sum(db_to_lin(world.radio_map.query_sites(senders, world.sens_pos)), axis=1)
    weight[0, :h] = sent[:h]
    weight[1:, h:] = sent[h:].reshape(n_relay, slots.size - h)
    mean = {}
    for r, m in enumerate(relays):
        mean[(hop.tx, m)], mean[(m, reconnect)] = link[0, r], link[1, r]
    return tactical.LocalGraphSlice(slots, mean, dict(zip([hop.tx, *relays], weight)),
                                    BUDGET, cfg.grid.dt)


def _cluster_members(world: World, slot: int, view: EchelonView) -> tuple:
    """Every graph node, in node_ids' sorted order, whose realized position at
    slot lies in view's region; _local_view's region holds the decision's ends."""
    ids = world.graph.node_ids
    pos = np.array([world.realized_position(e, slot) for e in ids])
    inside = np.linalg.norm(pos - view.region_center.as_array(), axis=1) <= view.region_radius
    return tuple(e for e, ok in zip(ids, inside) if ok)


@dataclass
class _Cascade:
    """The predictive method's tactical and operational layers for one flow."""

    acct: _Accounting
    flow: FlowRequest
    flow_idx: int
    revision: int = 0

    def choose(self, hops: list, k: int):
        """Hop k's decision at its window's start, in one pass: its local
        forecast's blockage check (on a block, a local two-hop detour, else a
        strategic replan), the hop's timing, then the cap-power scan. Returns
        (slot, power_dbm), or None to drop the flow; hops[k:] may be rewritten."""
        acct, cfg = self.acct, self.acct.config
        grid = cfg.grid
        last = _last_slot(grid, self.flow)
        hop = hops[k]
        # one local forecast over the hop's window serves the blockage check and
        # the timing; a planned hop's was computed with the run's plans
        (slots, series), = acct.hop_forecasts([hop])
        if tactical.detect_blockage(series, cfg.blockage_threshold_db):
            now_slot = hop.window[0]
            world = acct.world.at_time(grid.t_of(now_slot))
            tail = hops[k + 1:k + 2]
            ends = (hop.tx, hop.rx, tactical.detour_halves(hop, tail)[0])
            view = _local_view(world, cfg, now_slot, ends)
            members = _cluster_members(world, now_slot, view)
            cluster = tactical.LocalCluster(members, {}, frozenset({(hop.tx, hop.rx)}),
                                            world.radio_map)
            try:
                slc = _build_slice(world, cfg, view, members, hop, tail)
                repl = tactical.reroute_local(cluster, hop, tail, slc)
            except EscalateToStrategic:
                try:
                    res = reserve_path(world.graph, world.radio_map, hop.tx, self.flow.dest,
                                       (last + 1 - now_slot) * grid.dt,
                                       cfg.scene.sensitive_nodes, BUDGET,
                                       injection_slot=now_slot, tables=world.tables)
                except NoFeasiblePath:
                    return None
                hops[k:] = list(res.hops)
            else:
                hops[k:k + 1 + len(tail)] = list(repl)
            self._log_reroute(hops, k)
            # the new first hop, a detour's or a replan's, is timed on its own
            # forecast over its window, with no second blockage check
            hop = hops[k]
            (slots, series), = acct.hop_forecasts([hop])
        # with no slot of the window by the deadline, or none finite,
        # schedule_timing raises InfeasibleSchedule
        chosen = tactical.schedule_timing([hop], [(slots, series)], last).hop_slots[0]
        acct.events.append({"type": "schedule", "flow": self.flow_idx, "hop": k,
                            "slot": int(chosen), "revision": self.revision})
        for s in range(int(chosen), hop.window[1] + 1):
            required = required_power_dbm(acct.row(link_truth, s, hop.tx, hop.rx), BUDGET)
            if required > BUDGET.p_max_dbm:
                continue
            decision = cap_power(required, acct.row(site_map_max, s, hop.tx),
                                 SENSITIVE_CAP_DBM, BUDGET.p_max_dbm)
            if decision.transmit:
                return s, decision.power_dbm
        return None

    def _log_reroute(self, hops: list, k: int) -> None:
        self.revision += 1
        self.acct.events.append({"type": "reroute", "flow": self.flow_idx, "hop": k,
                                 "revision": self.revision,
                                 "route": [h.tx for h in hops[k:]] + [self.flow.dest]})


# ---------------------------------------------------------------------------
# baselines


def baseline_aggregate(world: World, flow: FlowRequest):
    """Reactive snapshot route: min-hop on the currently measured topology with
    per-hop powers from the measured gains; no foresight, no interference term,
    no caps. Returns (node sequence, powers) or raises NoFeasiblePath.

    The snapshot is measured one BFS level at a time from dest, and only as far
    as the search reads it: each level's one truth call holds the links from
    the unvisited nodes to the new frontier, and the search stops once source
    has a level. A truth row does not depend on the other rows of a call of two
    or more, but a one-row call takes another BLAS path, so a level with one
    link measures its mirror too."""
    ids = world.graph.node_ids
    if flow.source not in ids or flow.dest not in ids:
        raise NoFeasiblePath("flow endpoint is not a communicating node")
    pos = np.array([world.realized_position(e, flow.injection_slot) for e in ids])
    src, dst = ids.index(flow.source), ids.index(flow.dest)
    # power[tx, rx] from tx's level on; a link never measured, or between
    # coincident nodes, stays infeasible
    power = np.full((len(ids), len(ids)), np.inf)
    dist = np.full(len(ids), -1)
    frontier, level = np.arange(len(ids)) == dst, 0
    while frontier.any():
        dist[frontier] = level
        if frontier[src]:
            break
        tx, rx = np.nonzero((dist < 0)[:, None] & frontier)
        keep = np.linalg.norm(pos[tx] - pos[rx], axis=1) > 0
        tx, rx = tx[keep], rx[keep]
        if tx.size == 1:
            tx, rx = np.append(tx, rx), np.append(rx, tx)
        if tx.size:
            power[tx, rx] = required_power_dbm(world.truth.gain_db_many(pos[tx], pos[rx]),
                                               BUDGET)
        frontier = (power[:, frontier] <= BUDGET.p_max_dbm).any(axis=1) & (dist < 0)
        level += 1
    if dist[src] < 0:
        raise NoFeasiblePath("snapshot topology does not connect the flow")
    # a forward walk that takes the lowest sorted-id next hop: the
    # lexicographically least min-hop route; it reads only links measured at
    # their tail's level
    feasible = power <= BUDGET.p_max_dbm
    route = [src]
    while route[-1] != dst:
        u = route[-1]
        route.append(int(np.flatnonzero(feasible[u] & (dist == dist[u] - 1))[0]))
    return [ids[i] for i in route], [float(power[a, b]) for a, b in zip(route, route[1:])]


# ---------------------------------------------------------------------------
# the run loop shared by every method


def _strategic_stage(acct: _Accounting, method: str, flows: list):
    """The method's strategic stage for a run's flows: stage(flow, flow_idx)
    returns the flow's hops and its choice for hop k as choose(hops, k):
    (slot, power_dbm), or None to drop the flow. choose may rewrite hops[k:]
    before it answers for hop k.

    A reservation reads only the static planner tables, so the space-time and
    predictive stages plan every flow's (the predictive flow's first) at once,
    here, in one flow-batched call; each reservation event, or planning error,
    still comes at its flow's own turn."""
    world = acct.world
    if method == "baseline_aggregate":
        def aggregate(flow, flow_idx):
            route, powers = baseline_aggregate(world, flow)
            s = flow.injection_slot
            return [HopReservation(tx, rx, (s + k, s + k), float(p))
                    for k, (tx, rx, p) in enumerate(zip(route, route[1:], powers))], _planned
        return aggregate
    requests = [(f.source, f.dest, f.deadline_s, f.injection_slot) for f in flows]
    if method == "baseline_spacetime":
        # delivery-time-optimal reservations on the predicted graph at their
        # nominal powers: interference-agnostic
        plans = min_delay_reservation(world.graph, requests, world.tables)
        return lambda flow, flow_idx: (list(_reservation_of(plans, flow_idx).hops), _planned)
    plans = reserve_paths(world.graph, requests, world.tables)
    # a planned hop is decided at its window's start, since the hop before it
    # ends the slot before: every planned hop's forecast is fixed here, so the
    # run computes them in one batch
    acct.hop_forecasts([hop for res in plans if not isinstance(res, Exception)
                        for hop in res.hops])

    def predictive(flow, flow_idx):
        res = _reservation_of(plans, flow_idx)
        acct.events.append({"type": "reservation", "flow": flow_idx,
                            "reservation": res.to_json_dict()})
        return list(res.hops), _Cascade(acct, flow, flow_idx).choose
    return predictive


def _reservation_of(plans: list, flow_idx: int) -> PathReservation:
    """The flow's planned reservation; its planning error is raised here."""
    res = plans[flow_idx]
    if isinstance(res, Exception):
        raise res
    return res


def _planned(hops: list, k: int):
    """The baselines send each hop at its first slot with its planned power."""
    return hops[k].window[0], hops[k].nominal_power_dbm


def _last_slot(grid: SlotGrid, flow: FlowRequest) -> int:
    """The flow's deadline slot: the last one a transmission may take."""
    return min(flow.injection_slot + grid.slots_in(flow.deadline_s), grid.n_slots) - 1


def _execute(acct: _Accounting, stage, flow: FlowRequest, flow_idx: int, fade_rng) -> None:
    """Send one flow through the method's strategic stage. No transmission may
    fall after the deadline slot; the payload is delivered the slot after its
    last transmission."""
    grid = acct.config.grid
    last = _last_slot(grid, flow)
    energy = 0.0
    slot = flow.injection_slot - 1
    k = 0
    try:
        hops, choose = stage(flow, flow_idx)
        ok = True
    except NoFeasiblePath:
        hops, ok = [], False
    while ok and k < len(hops):
        choice = choose(hops, k)
        if choice is None or choice[0] > last:
            ok = False
            break
        slot, power = choice
        ok = acct.transmit(flow_idx, k, slot, hops[k].tx, hops[k].rx, power, fade_rng)
        energy += db_to_lin(power) * grid.dt
        k += 1
    acct.finish_flow(flow_idx, ok, slot + 1, energy)


# ---------------------------------------------------------------------------
# run / sweep


def run(config: ScenarioConfig, method: str, seed: int, events: list = None,
        world: World = None, load_per_min: float = None) -> MetricsReport:
    """One deterministic scenario run; interference is accounted from ground
    truth at realized positions for every method. A given world must come from
    config, up to the fields build_world never reads (_RUN_FIELDS). The report
    is replay_metrics of the events the run appends."""
    if method not in METHODS:
        raise ConfigInvalid("method", f"unknown method {method!r}")
    _check_seed("seed", seed)
    flows = draw_flows(config, seed, load_per_min)  # checks the load before a world is built
    if world is None:
        world = build_world(config, seed)
    elif config is not world.config:
        for f in fields(config):
            if f.name not in _RUN_FIELDS and \
                    getattr(config, f.name) != getattr(world.config, f.name):
                raise ConfigInvalid(f.name, "differs from the config the world was built from")
    events_list = events if events is not None else []
    start = len(events_list)
    events_list.append({"type": "meta", "method": method, "seed": seed,
                        "dt_s": config.grid.dt})
    acct = _Accounting(world, config, events_list)
    stage = _strategic_stage(acct, method, flows)
    for idx, flow in enumerate(flows):
        events_list.append({
            "type": "flow", "flow": idx, "src": flow.source, "dst": flow.dest,
            "injection_slot": flow.injection_slot, "deadline_s": flow.deadline_s,
        })
        fade_rng = np.random.default_rng(_stream(config, seed, 4, idx))
        _execute(acct, stage, flow, idx, fade_rng)
    return replay_metrics(events_list[start:])


def replay_metrics(events) -> MetricsReport:
    """The metrics report of one run's event log alone, from its meta event
    on; run returns exactly this for the events it appends."""
    method, dt = None, None
    interference = 0.0
    outcomes = []
    n_flows = 0
    injection = {}
    for ev in events:
        if ev["type"] == "meta":
            method, dt = ev["method"], ev["dt_s"]
        elif ev["type"] == "flow":
            n_flows += 1
            injection[ev["flow"]] = ev["injection_slot"]
        elif ev["type"] == "transmission":
            interference += ev["interference_mw_s"]
        elif ev["type"] == "outcome":
            outcomes.append(ev)
    delivered = [ev for ev in outcomes if ev["delivered"]]
    rate = len(delivered) / n_flows if n_flows else 1.0
    delays = [(ev["delivery_slot"] - injection[ev["flow"]]) * dt for ev in delivered]
    energies = [ev["energy_mw_s"] for ev in delivered]
    return MetricsReport(
        method, n_flows, len(delivered), interference, rate,
        float(np.mean(delays)) if delivered else float("nan"),
        float(np.mean(energies)) if delivered else float("nan"),
    )


def _seed_rows(args):
    config, loads, methods, seed = args
    world = build_world(config, seed)
    rows = []
    for load in loads:
        for method in methods:
            rep = run(config, method, seed, world=world, load_per_min=load)
            rows.append({
                "load": float(load), "method": method, "seed": seed,
                "interference_mw_s": rep.interference_mw_s,
                "interference_db": rep.interference_db,
                "delivery_rate": rep.delivery_rate,
                "mean_delay_s": rep.mean_delay_s,
                "energy_mj": rep.mean_energy_mj,
            })
    return rows


def sweep(config: ScenarioConfig, loads, methods, n_seeds: int) -> list:
    """Full (load x method x seed) cross product with paired seeds.

    Seeds run independently; AERIS_THREADS bounds process concurrency.
    Row order is (load, method, seed) regardless of execution order.
    """
    if not loads or not methods or n_seeds < 1:
        raise ConfigInvalid("sweep", "loads, methods and seeds must be nonempty")
    for m in methods:
        if m not in METHODS:
            raise ConfigInvalid("method", f"unknown method {m!r}")
    for load in loads:
        _check_load("loads", load)
    tasks = [(config, tuple(loads), tuple(methods), s) for s in range(n_seeds)]
    threads = os.environ.get("AERIS_THREADS") or str(os.cpu_count() or 1)
    if not threads.isdecimal() or int(threads) < 1:
        raise ConfigInvalid("AERIS_THREADS", f"must be a positive integer, not {threads!r}")
    workers = min(int(threads), n_seeds)
    rows = []
    if workers == 1:
        for t in tasks:
            rows.extend(_seed_rows(t))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            for part in ex.map(_seed_rows, tasks):
                rows.extend(part)
    method_order = {m: i for i, m in enumerate(METHODS)}
    rows.sort(key=lambda r: (r["load"], method_order[r["method"]], r["seed"]))
    return rows


SWEEP_COLUMNS = ("load", "method", "seed", "interference_mw_s", "interference_db",
                 "delivery_rate", "mean_delay_s", "energy_mj")


def sweep_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, SWEEP_COLUMNS)
        w.writeheader()
        w.writerows(rows)


def sweep_from_csv(path) -> list:
    rows = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, [])
        if not set(SWEEP_COLUMNS) <= set(header):
            raise ConfigInvalid("sweep csv", f"header must hold {','.join(SWEEP_COLUMNS)}")
        for line in r:
            d = dict(zip(header, line))
            try:
                for k in header:
                    if k != "method":
                        d[k] = int(d[k]) if k == "seed" else float(d[k])
            except (KeyError, ValueError) as e:
                raise ConfigInvalid("sweep csv", f"malformed row {line}: {e}") from None
            if d.get("method") not in METHODS:
                raise ConfigInvalid("sweep csv", f"unknown method in row {line}")
            rows.append(d)
    return rows


def plot_data(rows) -> list:
    """Median and interquartile range per (load, method) for plotting."""
    keys = sorted({(r["load"], r["method"]) for r in rows},
                  key=lambda k: (k[0], METHODS.index(k[1])))
    out = []
    for load, method in keys:
        sel = [r for r in rows if r["load"] == load and r["method"] == method]
        vals = np.array([r["interference_mw_s"] for r in sel])
        q25, q50, q75 = np.percentile(vals, [25, 50, 75])
        out.append({
            "load": load, "method": method,
            "interference_mw_s_median": float(q50),
            "interference_mw_s_q25": float(q25),
            "interference_mw_s_q75": float(q75),
            "interference_db_median": float(lin_to_db(q50)) if q50 > 0 else float("-inf"),
            "delivery_rate_median": _median([r["delivery_rate"] for r in sel]),
            "mean_delay_s_median": _median([r["mean_delay_s"] for r in sel]),
            "energy_mj_median": _median([r["energy_mj"] for r in sel]),
        })
    return out


def _median(values) -> float:
    """The median of the values that are not NaN, and NaN with no warning when
    none is: a (load, method) that delivered no flow has no delay or energy."""
    values = [v for v in values if not math.isnan(v)]
    return float(np.median(values)) if values else math.nan


PLOT_COLUMNS = ("load", "method", "interference_mw_s_median", "interference_mw_s_q25",
                "interference_mw_s_q75", "interference_db_median", "delivery_rate_median",
                "mean_delay_s_median", "energy_mj_median")


def plot_data_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, PLOT_COLUMNS)
        w.writeheader()
        w.writerows(rows)
