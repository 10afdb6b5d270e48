import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeris import echelon, harness, strategic, tactical
from aeris.channel_graph import SlotGrid, synthesize
from aeris.echelon import WorldState
from aeris.errors import ConfigInvalid, InfeasibleSchedule, NoFeasiblePath, UnknownNode
from aeris.harness import (METHODS, FlowRequest, MetricsReport, ScenarioConfig,
                           baseline_aggregate, build_world, draw_flows,
                           gen_default_scenario, plot_data, replay_metrics, run, sweep,
                           sweep_from_csv, sweep_to_csv)
from aeris.operational import LinkBudget, cap_power, required_power_dbm
from aeris.radio_env import GroundTruthChannel, RadioMap
from aeris.units import db_to_lin
from test_echelon import hop_forecast
from test_strategic import oracle_search


@pytest.fixture(scope="module")
def mini_config():
    cfg = gen_default_scenario(seed=1, n_aircraft=8, n_buildings=8, horizon_s=40.0)
    return replace(cfg, sampling_period_s=2.0, load_per_min=12.0)


@pytest.fixture(scope="module")
def mini_world(mini_config):
    return build_world(mini_config, 0)


# the top-level keys scenario documents once held, each at a value such a
# document held; none is a scenario field now, so a document holding one is
# rejected, whatever its value
RETIRED_KEYS = {"range_cutoff_m": 1500.0, "plan_shield_margin_db": 6.0, "map_k_neighbors": 8,
                "map_idw_exponent": 2.0, "deviation": {"sigma_dev": 3.0, "reversion_rate": 0.2},
                "pathloss": {"pl0_db": 40.0, "d0": 1.0, "n_los": 2.0, "n_nlos": 3.2,
                             "sigma_sh_los_db": 4.0, "sigma_sh_nlos_db": 8.0,
                             "decorr_dist": 50.0},
                "budget": {"snr_threshold_db": 10.0, "outage_eps": 0.05, "noise_dbm": -90.0,
                           "p_max_dbm": 27.0},
                "sensitive_cap_dbm": -60.0, "local_horizon_s": 30.0, "deadline_short_s": 2.0,
                "deadline_long_s": 20.0, "central_horizon_s": 600.0,
                "individual_horizon_s": 2.0, "map_residual_std_db": 4.0}
SCALAR_FIELDS = [f.name for f in fields(ScenarioConfig)[2:] if not is_dataclass(f.default)]


class TestConfigValidation:
    # np.random.SeedSequence takes only a non-negative integer
    @pytest.mark.parametrize("seed", [-3, 1.5, True, "3"])
    def test_bad_seed(self, mini_config, mini_world, seed):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, seed=seed)
        assert e.value.field == "seed"
        with pytest.raises(ConfigInvalid) as e:
            run(mini_config, "predictive", seed, world=mini_world)
        assert e.value.field == "seed"

    def test_fraction_out_of_range(self, mini_config):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, frac_short_deadline=1.5)
        assert e.value.field == "frac_short_deadline"

    # a 20 s horizon leaves a long-deadline flow no slot to start in, and a
    # 2.5 s slot is longer than the short deadline
    @pytest.mark.parametrize("bad, good", [(SlotGrid(0.1, 200), SlotGrid(0.1, 201)),
                                           (SlotGrid(2.5, 100), SlotGrid(2.0, 100))])
    def test_grid_must_fit_both_deadlines(self, mini_config, bad, good):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, grid=bad)
        assert e.value.field == "grid"
        assert replace(mini_config, grid=good).grid == good

    @pytest.mark.parametrize("load", [math.inf, -math.inf, math.nan, -1.0])
    def test_load_must_be_finite_and_non_negative(self, mini_config, load):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, load_per_min=load)
        assert e.value.field == "load_per_min"

    # draw_flows' arrival loop would never end at a NaN or infinite rate
    @pytest.mark.parametrize("load, token", [(math.inf, "Infinity"), (math.nan, "NaN")])
    def test_json_non_finite_load_rejected(self, mini_config, load, token):
        doc = json.loads(mini_config.to_json())
        doc["load_per_min"] = load
        text = json.dumps(doc)
        assert f'"load_per_min": {token}' in text  # what json.loads accepts
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(text)
        assert e.value.field == "load_per_min"

    def test_json_roundtrip(self, mini_config):
        doc = mini_config.to_json()
        again = ScenarioConfig.from_json(doc)
        assert again.to_json() == doc

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", SCALAR_FIELDS)
    def test_non_finite_scalar_rejected_at_construction(self, mini_config, name, value):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, **{name: value})
        assert e.value.field == name

    # the grid itself takes only a finite real slot length; True is an int
    @pytest.mark.parametrize("dt", [True, math.nan, math.inf, -math.inf, "0.1"])
    def test_non_number_slot_length_rejected(self, mini_config, dt):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config.grid, dt=dt)
        assert e.value.field == "grid.dt"
        doc = json.loads(mini_config.to_json())
        doc["grid"]["dt"] = dt
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(json.dumps(doc))
        assert e.value.field == "grid.dt"

    # the grid itself takes only an integer slot count, as a seed must be one
    @pytest.mark.parametrize("n_slots", [math.nan, math.inf, 400.0, 400.5, True, "400"])
    def test_non_integer_slot_count_rejected(self, mini_config, n_slots):
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config.grid, n_slots=n_slots)
        assert e.value.field == "grid.n_slots"

    def test_json_huge_seed_loads(self, mini_config):
        # an int too large for a float is still exact, and a seed takes it
        doc = {**json.loads(mini_config.to_json()), "seed": 10 ** 400}
        assert ScenarioConfig.from_json(json.dumps(doc)).seed == 10 ** 400

    def test_json_huge_slot_count_rejected(self, mini_config):
        doc = json.loads(mini_config.to_json())
        doc["grid"]["n_slots"] = 10 ** 400  # the horizon check overflows a float
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_json(json.dumps(doc))

    def test_grid_over_the_graph_cell_cap_rejected(self, mini_config):
        # 1.2 M slots of 1e-4 s and 10 graph nodes: 120 M cells
        nodes = len(mini_config.trajectories) + 2
        over = SlotGrid(1e-4, 1_200_000)
        assert over.n_slots * nodes ** 2 > harness._MAX_GRAPH_CELLS
        with pytest.raises(ConfigInvalid) as e:
            replace(mini_config, grid=over)
        assert e.value.field == "grid"
        fits = harness._MAX_GRAPH_CELLS // nodes ** 2
        assert replace(mini_config, grid=SlotGrid(0.1, fits)).grid.n_slots == fits

    # the grid starts at 0, so the start time older documents held is no field
    @pytest.mark.parametrize("key", ["bogus", "t0"])
    def test_unknown_nested_key_rejected(self, mini_config, key):
        doc = json.loads(mini_config.to_json())
        doc["grid"][key] = 0.0
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_json(json.dumps(doc))

    # a misspelt field would otherwise leave its default in force
    @pytest.mark.parametrize("key, value", [("load_per_mni", 99.0), *RETIRED_KEYS.items()])
    def test_unknown_top_level_key_rejected(self, mini_config, key, value):
        doc = {**json.loads(mini_config.to_json()), key: value}
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(json.dumps(doc))
        assert (e.value.field, e.value.message) == (key, "is not a scenario field")

    # the rejection compares no value: a retired key at another value, or a NaN
    # at any number of a retired parameter set, is rejected as at its old value
    @pytest.mark.parametrize("key, value", [
        ("range_cutoff_m", 800.0), ("plan_shield_margin_db", 3.0), ("map_k_neighbors", 4),
        ("map_idw_exponent", 1.0), ("map_k_neighbors", math.nan),
        ("deviation", {**RETIRED_KEYS["deviation"], "sigma_dev": 6.0}),
        ("pathloss", {**RETIRED_KEYS["pathloss"], "n_nlos": 3.0}),
        ("budget", {**RETIRED_KEYS["budget"], "p_max_dbm": 30.0}),
        ("budget", {k: v for k, v in RETIRED_KEYS["budget"].items() if k != "noise_dbm"}),
        ("sensitive_cap_dbm", -50.0), ("local_horizon_s", 10.0), ("local_horizon_s", 20.0),
        ("deadline_short_s", 1.0), ("deadline_long_s", math.nan),
        *((outer, {**RETIRED_KEYS[outer], name: math.nan})
          for outer in ("deviation", "pathloss", "budget") for name in RETIRED_KEYS[outer])])
    def test_retired_key_at_another_value_rejected(self, mini_config, key, value):
        doc = {**json.loads(mini_config.to_json()), key: value}
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(json.dumps(doc))
        assert (e.value.field, e.value.message) == (key, "is not a scenario field")

    def test_old_document_rejected(self, mini_config):
        # a document as older versions wrote it, every retired key at the value
        # it then held and the grid starting at 0, is regenerated, not loaded
        doc = {**json.loads(mini_config.to_json()), **RETIRED_KEYS}
        doc["grid"] = {**doc["grid"], "t0": 0.0}
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(json.dumps(doc))
        assert (e.value.field, e.value.message) == (min(RETIRED_KEYS), "is not a scenario field")

    def test_malformed_document(self, mini_config):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_json("{\"scene\": {}}")
        # a waypoint is four numbers (t, x, y, z)
        doc = json.loads(mini_config.to_json())
        doc["trajectories"][0]["waypoints"][1] = [0.0, 1.0, 2.0]
        with pytest.raises(ConfigInvalid) as e:
            ScenarioConfig.from_json(json.dumps(doc))
        assert e.value.field == "config"

    @pytest.mark.parametrize("name, value", [("n_sources", 0), ("n_destinations", 0),
                                             ("n_sensitive", -1), ("dt", 0.0), ("dt", -0.1),
                                             ("dt", math.nan), ("horizon_s", math.inf),
                                             ("horizon_s", 0.0)])
    def test_generator_arguments_checked_before_generation(self, monkeypatch, name, value):
        monkeypatch.setattr(harness, "gen_city", lambda *a: pytest.fail("generation ran"))
        with pytest.raises(ConfigInvalid) as e:
            gen_default_scenario(1, **{name: value})
        assert e.value.field == name

    @pytest.mark.parametrize("kw", [{"horizon_s": 1e9}, {"horizon_s": 1e308},
                                    {"dt": 1e-320}, {"horizon_s": 1e300, "dt": 1.0}])
    def test_graph_cap_checked_before_generation(self, monkeypatch, kw):
        # the trajectories run out to the horizon, so a long one would fill
        # memory before the config's own check; an overflowing slot count is inf
        monkeypatch.setattr(harness, "gen_city", lambda *a: pytest.fail("generation ran"))
        monkeypatch.setattr(harness, "_corridor_trajectories",
                            lambda *a: pytest.fail("trajectories generated"))
        with pytest.raises(ConfigInvalid) as e:
            gen_default_scenario(1, **kw)
        assert e.value.field == "grid"


class TestDrawFlows:
    def test_zero_load(self, mini_config):
        assert draw_flows(mini_config, 0, 0.0) == []

    def test_deterministic(self, mini_config):
        assert draw_flows(mini_config, 3) == draw_flows(mini_config, 3)

    def test_deadline_classes(self, mini_config):
        flows = draw_flows(mini_config, 1, 30.0)
        assert flows
        assert {f.deadline_s for f in flows} <= {2.0, 20.0}
        horizon = mini_config.grid.dt * mini_config.grid.n_slots
        for f in flows:
            assert f.injection_slot * mini_config.grid.dt + f.deadline_s <= horizon

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowRequest("a", "b", 0, 0.0)

    @pytest.mark.parametrize("load", [math.inf, -math.inf, math.nan, -1.0])
    def test_bad_load_override_rejected(self, mini_config, load):
        # an infinite rate draws zero gaps, so the arrival clock would never advance
        with pytest.raises(ConfigInvalid) as e:
            draw_flows(mini_config, 0, load)
        assert e.value.field == "load_per_min"


class TestRun:
    def test_zero_load_empty_stats(self, mini_config, mini_world):
        rep = run(mini_config, "predictive", 0, world=mini_world, load_per_min=0.0)
        assert rep.n_flows == 0
        assert rep.interference_mw_s == 0.0
        assert rep.delivery_rate == 1.0
        assert math.isnan(rep.mean_delay_s)

    def test_unknown_method(self, mini_config):
        with pytest.raises(ConfigInvalid):
            run(mini_config, "psychic", 0)

    @pytest.mark.parametrize("name, value", [("grid", SlotGrid(0.1, 300)),
                                             ("seed", 7), ("sampling_period_s", 1.0)])
    def test_world_of_another_scenario_rejected(self, mini_config, mini_world, name, value):
        # the world's tables, map and truth come from these fields, so a run
        # with other values would plan, send and draw on a mix of the two
        other = replace(mini_config, **{name: value})
        with pytest.raises(ConfigInvalid) as e:
            run(other, "predictive", 0, world=mini_world)
        assert e.value.field == name

    def test_world_shared_across_run_fields(self, mini_config, mini_world):
        # build_world reads none of these, so one world serves every value
        other = replace(mini_config, **{name: getattr(mini_config, name) * 1.5
                                        for name in harness._RUN_FIELDS})
        assert run(other, "predictive", 0, world=mini_world).n_flows > 0

    @pytest.mark.parametrize("load", [math.inf, -math.inf, math.nan, -1.0])
    def test_bad_load_override_rejected_before_the_world_is_built(self, mini_config,
                                                                   monkeypatch, load):
        def no_world(*args):
            raise AssertionError("a world was built before the load was checked")
        monkeypatch.setattr(harness, "build_world", no_world)
        with pytest.raises(ConfigInvalid) as e:
            run(mini_config, "predictive", 0, load_per_min=load)
        assert e.value.field == "load_per_min"

    @pytest.mark.parametrize("method", METHODS)
    def test_bit_identical_reports(self, mini_config, mini_world, method):
        a = run(mini_config, method, 0, world=mini_world)
        b = run(mini_config, method, 0, world=mini_world)
        assert a.to_json() == b.to_json()

    def test_flow_arrivals_paired_across_methods(self, mini_config, mini_world):
        logs = {}
        for method in METHODS:
            events = []
            run(mini_config, method, 0, events=events, world=mini_world)
            logs[method] = [e for e in events if e["type"] == "flow"]
        assert logs["predictive"] == logs["baseline_aggregate"] == logs["baseline_spacetime"]

    def test_replay_reproduces_report(self, mini_config, mini_world):
        # the log as `aeris run --events` writes it, one JSON line per event,
        # replays to the report's bits; runs that share one list report only
        # their own events
        shared = []
        for method in METHODS:
            events = []
            rep = run(mini_config, method, 0, events=events, world=mini_world)
            lines = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in events)
            again = replay_metrics([json.loads(line) for line in lines.splitlines()])
            assert report_bits(again) == report_bits(rep)
            assert report_bits(run(mini_config, method, 0, events=shared,
                                   world=mini_world)) == report_bits(rep)

    def test_interference_accounted_from_truth_at_realized(self, mini_config, mini_world):
        events = []
        run(mini_config, "predictive", 0, events=events, world=mini_world)
        trans = [e for e in events if e["type"] == "transmission"]
        assert trans
        sens = np.array([n.pos.as_array() for n in mini_config.scene.sensitive_nodes])
        for t in trans[:10]:
            tx = (mini_world.realized[t["tx"]][t["slot"]] if t["tx"] in mini_world.realized
                  else mini_world.ground_positions[t["tx"]].as_array())
            gains = mini_world.truth.gain_db_many(np.broadcast_to(tx, sens.shape), sens)
            want = float((db_to_lin(t["power_dbm"]) * np.sum(db_to_lin(gains)))
                         * mini_config.grid.dt)
            assert t["interference_mw_s"] == want

    def test_caps_respected_on_every_predictive_transmission(self, mini_config, mini_world):
        events = []
        run(mini_config, "predictive", 0, events=events, world=mini_world)
        for t in (e for e in events if e["type"] == "transmission"):
            tx = (mini_world.realized[t["tx"]][t["slot"]] if t["tx"] in mini_world.realized
                  else mini_world.ground_positions[t["tx"]].as_array())
            for node in mini_config.scene.sensitive_nodes:
                g = float(mini_world.radio_map.query_many(tx[None],
                                                          node.pos.as_array()[None])[0])
                assert t["power_dbm"] + g <= harness.SENSITIVE_CAP_DBM + 1e-9

    def test_one_slot_deadline(self, mini_config, mini_world, monkeypatch):
        # the direct ground hop does not close, so no route fits in one slot:
        # the snapshot baseline sends its first hop and is then out of time,
        # the planners find nothing to send
        monkeypatch.setattr(harness, "DEADLINE_SHORT_S", mini_config.grid.dt)
        tight = replace(mini_config, frac_short_deadline=1.0)
        sent = {}
        for method in METHODS:
            events = []
            rep = run(tight, method, 0, events=events, world=mini_world)
            assert rep.n_flows > 0
            assert rep.n_delivered == 0
            sent[method] = [e["flow"] for e in events if e["type"] == "transmission"]
        assert sent["baseline_aggregate"] == list(range(rep.n_flows))
        assert sent["predictive"] == sent["baseline_spacetime"] == []

    def test_replan_error_propagates(self, mini_config, mini_world, monkeypatch):
        # a low blockage threshold and a small region force escalations to a
        # strategic replan; an error there other than NoFeasiblePath is a fault,
        # not a reason to drop the flow
        eager = replace(mini_config, blockage_threshold_db=-70.0, region_radius_m=50.0)
        plan = harness.reserve_path

        def failing_replan(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "choose":
                raise ValueError("replan fault")
            return plan(*args, **kwargs)

        monkeypatch.setattr(harness, "reserve_path", failing_replan)
        with pytest.raises(ValueError, match="replan fault"):
            run(eager, "predictive", 0, world=mini_world)

    def test_replan_without_a_path_drops_the_flow(self, mini_config, mini_world, monkeypatch):
        # an escalation whose replan finds no path ends the flow undelivered,
        # with no transmission for the escalated hop or any hop after it
        eager = replace(mini_config, blockage_threshold_db=-70.0, region_radius_m=50.0)
        plan = harness.reserve_path
        escalated = []

        def no_replan(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "choose":
                escalated.append((caller.f_locals["self"].flow_idx, caller.f_locals["k"]))
                raise NoFeasiblePath("no replan")
            return plan(*args, **kwargs)

        monkeypatch.setattr(harness, "reserve_path", no_replan)
        events = []
        run(eager, "predictive", 0, events=events, world=mini_world)
        assert escalated
        assert len({flow for flow, _ in escalated}) == len(escalated)
        outcomes = {e["flow"]: e for e in events if e["type"] == "outcome"}
        for flow, k in escalated:
            assert not outcomes[flow]["delivered"]
            assert all(e["hop"] < k for e in events
                       if e["type"] in ("transmission", "schedule") and e["flow"] == flow)

    def test_unusable_hop_forecast_raises(self, mini_config, mini_world, monkeypatch):
        # a hop whose local forecast holds no finite slot cannot be timed; the
        # run raises rather than drop or re-time the flow
        monkeypatch.setattr(tactical, "local_mean_series", lambda view, world, link, times:
                            np.full(sum(len(t) for t in times), np.nan))
        with pytest.raises(InfeasibleSchedule):
            run(mini_config, "predictive", 0, world=mini_world)

    # the documented settings, then the golden cascade grid's detour and
    # escalation settings: (blockage threshold, region radius, load)
    @pytest.mark.parametrize("setting", [None, *itertools.product((-70.0, -80.0), (50.0,),
                                                                  (12.0, 30.0))])
    def test_delivery_within_deadline(self, mini_config, mini_world, setting):
        cfg, load = mini_config, None
        if setting is not None:
            threshold, radius, load = setting
            cfg = replace(cfg, blockage_threshold_db=threshold, region_radius_m=radius)
        for method in METHODS:
            events = []
            run(cfg, method, 0, events=events, world=mini_world, load_per_min=load)
            flows = {e["flow"]: e for e in events if e["type"] == "flow"}
            outcomes = {e["flow"]: e for e in events if e["type"] == "outcome"}
            sent = {idx: [] for idx in flows}
            for e in events:
                if e["type"] == "transmission":
                    sent[e["flow"]].append(e["slot"])
            assert any(sent.values())
            for idx, f in flows.items():
                last = f["injection_slot"] + int(np.floor(f["deadline_s"] / cfg.grid.dt
                                                          + 1e-9)) - 1
                # a flow's transmissions, delivered or not, take strictly
                # increasing slots, none after its deadline slot
                assert all(a < b for a, b in zip(sent[idx], sent[idx][1:])), (method, idx)
                assert all(s <= last for s in sent[idx]), (method, idx)
                if outcomes[idx]["delivered"]:
                    assert outcomes[idx]["delivery_slot"] <= last + 1, (method, idx)


PLAN_ERRORS = (NoFeasiblePath, UnknownNode, ValueError)


def report_bits(rep) -> dict:
    """A metrics report with its floats as exact hex strings."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(rep).items()}


def plan_each(graph, requests, tables):
    """strategic.reserve_paths as one reserve_path call per request."""
    out = []
    for source, dest, deadline_s, slot in requests:
        try:
            out.append(strategic.reserve_path(graph, None, source, dest, deadline_s, (), None,
                                              injection_slot=slot, tables=tables))
        except PLAN_ERRORS as e:
            out.append(e)
    return out


def same_plans(got, want):
    for g, w in zip(got, want, strict=True):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w))
        else:
            assert g.to_json_dict() == w.to_json_dict()


def batch_planner(graph, tables, objective):
    """requests -> plans for one objective: min_delay, or capped (the least
    interference under the caps)."""
    if objective == "min_delay":
        return functools.partial(strategic.min_delay_reservation, graph, tables=tables)
    return functools.partial(strategic.reserve_paths, graph, tables=tables)


@st.composite
def _requests(draw, ids, n_slots):
    """Flow requests on the mini world: known and unknown nodes, source == dest,
    both deadline classes and one under a slot, injection slots across the grid,
    near its end (no slot left) and outside it."""
    node = st.sampled_from(ids + ["nowhere"])
    out = []
    for _ in range(draw(st.integers(1, 8))):
        source = draw(node)
        dest = source if draw(st.integers(0, 5)) == 0 else draw(node)
        deadline = draw(st.sampled_from([2.0, 20.0, 0.05]))
        slot = draw(st.one_of(st.integers(0, n_slots - 1), st.integers(n_slots - 3, n_slots),
                              st.just(-1)))
        out.append((source, dest, deadline, slot))
    return out


@pytest.fixture(scope="module")
def corridor_world():
    """World 0 of both benchmark workloads: its pads close a direct ground hop."""
    return build_world(gen_default_scenario(0), 0)


def fresh_ground_rows(world):
    """Every ground-only row in the call shapes the run used before they were
    computed per world: the sensitive-site truth call and map query with the
    sender broadcast, and a one-row truth call per ordered ground-to-ground
    link."""
    ground = [e for e in world.graph.node_ids if e not in world.realized]
    pos = {e: world.ground_positions[e].as_array() for e in ground}
    sens = world.sens_pos
    out = {}
    for e in ground:
        lin, peak = 0.0, -math.inf  # no site: nothing received, nothing capped
        if sens.size:
            gains = world.truth.gain_db_many(np.broadcast_to(pos[e], sens.shape), sens)
            lin = float(np.sum(db_to_lin(gains)))
            gains = world.radio_map.query_many(np.broadcast_to(pos[e], sens.shape), sens)
            peak = float(gains.max())
        out[(harness.site_interference, e)], out[(harness.site_map_max, e)] = lin, peak
    for a, b in itertools.permutations(ground, 2):
        out[(harness.link_truth, a, b)] = float(
            world.truth.gain_db_many(pos[a][None], pos[b][None])[0])
    return out


class TestWorld:
    def test_node_ids_and_sensitive_sites(self, mini_config, mini_world):
        scene = mini_config.scene
        assert isinstance(mini_world, WorldState)
        assert mini_world.graph.node_ids == tuple(sorted(
            [t.aircraft_id for t in mini_config.trajectories]
            + [n.id for n in scene.ground_sources + scene.ground_destinations]))
        want = np.array([n.pos.as_array() for n in scene.sensitive_nodes])
        assert mini_world.sens_pos.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_graph_and_plans_do_not_depend_on_node_input_order(self, mini_config, mini_world,
                                                               order):
        scene = mini_config.scene
        trajs = list(mini_config.trajectories)
        ground = list(scene.ground_sources + scene.ground_destinations)
        if order == "reversed":
            trajs, ground = trajs[::-1], ground[::-1]
        else:
            rng = np.random.default_rng(3)
            trajs = [trajs[k] for k in rng.permutation(len(trajs))]
            ground = [ground[k] for k in rng.permutation(len(ground))]
        want = mini_world.graph
        graph = synthesize(trajs, ground, mini_world.radio_map, mini_config.grid)
        assert graph.node_ids == want.node_ids
        assert graph.weights.tobytes() == want.weights.tobytes()
        assert graph.positions.tobytes() == want.positions.tobytes()
        tables = strategic.prepare_planner(graph, mini_world.radio_map, scene.sensitive_nodes,
                                           harness.BUDGET,
                                           per_node_cap_dbm=harness.SENSITIVE_CAP_DBM,
                                           pathloss=harness.PATHLOSS)
        requests = [(f.source, f.dest, f.deadline_s, f.injection_slot)
                    for f in draw_flows(mini_config, 0, 30.0)]
        got = strategic.reserve_paths(graph, requests, tables)
        assert sum(isinstance(r, strategic.PathReservation) and r.hops != () for r in got) > 10
        same_plans(got, strategic.reserve_paths(want, requests, mini_world.tables))

    @pytest.mark.parametrize("name", ["mini", "corridor"])
    def test_ground_rows_equal_fresh_calls_bit_for_bit(self, name, mini_world,
                                                       corridor_world):
        world = mini_world if name == "mini" else corridor_world
        want = fresh_ground_rows(world)
        assert want and {k: v.hex() for k, v in world.ground_rows.items()} == \
            {k: v.hex() for k, v in want.items()}
        # the run reads them through World.row at any slot
        for key, value in want.items():
            for slot in (0, world.grid.n_slots - 1):
                assert world.row(key[0], slot, *key[1:]).hex() == value.hex()

    def test_slot_lookup_equals_interpolation_at_slot_time(self, mini_world):
        # the run loop reads positions by slot where the local tier interpolates
        # at slot times; the two must agree byte for byte
        grid = mini_world.grid
        for e in mini_world.graph.node_ids:
            for s in range(grid.n_slots):
                assert mini_world.realized_position(e, s).tobytes() == \
                    mini_world.realized_pos(e, grid.t_of(s)).tobytes(), (e, s)


class TestBatchedPlanning:
    """The predictive run plans its flows' first reservations in one batch."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_batch_equals_per_flow_plans(self, mini_world, data):
        graph, tables = mini_world.graph, mini_world.tables
        requests = data.draw(_requests(list(graph.node_ids), graph.grid.n_slots))
        got = strategic.reserve_paths(graph, requests, tables)
        same_plans(got, plan_each(graph, requests, tables))
        # and with the search replaced by the full-window oracle, which runs no
        # batched forward pass of its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategic, "_search", oracle_search)
            same_plans(got, plan_each(graph, requests, tables))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), objective=st.sampled_from(["min_delay", "capped"]))
    def test_batch_equals_per_flow_scalar_oracles(self, mini_world, data, objective):
        """Both objectives: the batched plans are those of each request planned
        alone by the scalar oracles."""
        graph, tables = mini_world.graph, mini_world.tables
        requests = data.draw(_requests(list(graph.node_ids), graph.grid.n_slots))
        plan = batch_planner(graph, tables, objective)
        got = plan(requests)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategic, "_search", oracle_search)
            same_plans(got, [res for r in requests for res in plan([r])])

    @pytest.mark.parametrize("objective", ["min_delay", "capped"])
    def test_batch_of_every_outcome_equals_scalar_oracles(self, mini_config, mini_world,
                                                          objective):
        """A run's flows in both deadline classes, plus requests that end in
        each planning error, a source that is its destination, and flows that
        no schedule routes (every edge priced out of one copy of the tables)."""
        graph, tables = mini_world.graph, mini_world.tables
        last = graph.grid.n_slots - 1
        requests = [(f.source, f.dest, f.deadline_s, f.injection_slot)
                    for f in draw_flows(mini_config, 0, 30.0)]
        requests += [("src0", "dst0", 20.0, last), ("src0", "dst0", 2.0, last - 3),
                     ("src0", "src0", 2.0, 5), ("src0", "nowhere", 20.0, 0),
                     ("src0", "dst0", 0.05, 0), ("src0", "dst0", 20.0, last + 1)]
        no_edges = np.full_like(tables.capped_price, np.inf)
        dead = replace(tables, capped_price=strategic._with_carry(no_edges.copy(), 0.0),
                       delay_price=strategic._with_carry(no_edges, mini_config.grid.dt))
        for tabs in (tables, dead):
            plan = batch_planner(graph, tabs, objective)
            got = plan(requests)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(strategic, "_search", oracle_search)
                same_plans(got, [res for r in requests for res in plan([r])])
            kinds = {type(r) for r in got}
            assert {NoFeasiblePath, UnknownNode, ValueError} <= kinds
            routed = sum(isinstance(r, strategic.PathReservation) and r.hops != ()
                         for r in got)
            assert routed > 10 if tabs is tables else routed == 0

    def test_batch_covers_each_outcome(self, mini_config, mini_world):
        graph, tables = mini_world.graph, mini_world.tables
        last = graph.grid.n_slots - 1
        requests = [(f.source, f.dest, f.deadline_s, f.injection_slot)
                    for f in draw_flows(mini_config, 0, 30.0)]
        requests += [("src0", "dst0", 20.0, last), ("src0", "dst0", 2.0, last - 1),
                     ("src0", "src0", 2.0, last), ("src0", "nowhere", 20.0, 0),
                     ("src0", "dst0", 0.05, 0), ("src0", "dst0", 20.0, last + 1)]
        got = strategic.reserve_paths(graph, requests, tables)
        same_plans(got, plan_each(graph, requests, tables))
        kinds = [type(r) for r in got]
        assert kinds[-6:] == [NoFeasiblePath, NoFeasiblePath, strategic.PathReservation,
                              UnknownNode, ValueError, ValueError]
        assert str(got[-6]) == "no slots left before the deadline" != str(got[-5])
        assert got[-4].hops == ()
        assert {r[2] for r in requests[:-6]} == {2.0, 20.0}
        assert sum(isinstance(r, strategic.PathReservation) and r.hops != () for r in got) > 10

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("load", [12.0, 30.0])
    def test_run_logs_match_per_flow_planning(self, mini_config, mini_world, monkeypatch,
                                              eager, load):
        cfg = mini_config
        if eager:
            # a low blockage threshold and a small region force escalation replans
            cfg = replace(cfg, blockage_threshold_db=-70.0, region_radius_m=50.0)
        replans = []
        replan = harness.reserve_path

        def counted(*args, **kwargs):
            replans.append(args[2:4])
            return replan(*args, **kwargs)

        monkeypatch.setattr(harness, "reserve_path", counted)
        batched = []
        run(cfg, "predictive", 0, events=batched, world=mini_world, load_per_min=load)
        planned = []

        def per_flow(graph, requests, tables):
            planned.append(len(requests))
            return plan_each(graph, requests, tables)

        monkeypatch.setattr(harness, "reserve_paths", per_flow)
        reference = []
        run(cfg, "predictive", 0, events=reference, world=mini_world, load_per_min=load)
        assert planned == [sum(ev["type"] == "flow" for ev in reference)]
        assert json.dumps(batched, sort_keys=True) == json.dumps(reference, sort_keys=True)
        assert bool(replans) == eager


def full_span_slice(world, cfg, view, members, hop, tail):
    """harness._build_slice's full-span oracle: one local_mean_series call per
    candidate link and one for the blocked link, and every member's
    sensitive-node weight, each over the detour's whole span."""
    reconnect, (lo, _), (_, hi) = tactical.detour_halves(hop, tail)
    slots = np.arange(lo, hi + 1)
    times = cfg.grid.dt * slots.astype(float)
    links = []
    for m in members:
        if m not in (hop.tx, reconnect, hop.rx):
            links += [(hop.tx, m), (m, reconnect)]
    links.append((hop.tx, hop.rx))
    mean = {key: echelon.local_mean_series(view, world, key, times) for key in links}
    ents = sorted({e for key in links for e in key})
    sens_pos = np.array([n.pos.as_array() for n in cfg.scene.sensitive_nodes])
    if sens_pos.size:
        pos = echelon.local_positions(view, world, ents, times).reshape(-1, 3)
        n_sens = sens_pos.shape[0]
        gains = world.radio_map.query_many(np.repeat(pos, n_sens, axis=0),
                                           np.tile(sens_pos, (pos.shape[0], 1)))
        lin = db_to_lin(gains.reshape(len(ents), slots.size, n_sens))
        sens = dict(zip(ents, np.sum(lin, axis=2)))
    else:
        sens = {e: np.zeros(slots.size) for e in ents}
    return tactical.LocalGraphSlice(slots, mean, sens, harness.BUDGET, cfg.grid.dt)


def _spy(monkeypatch, owner, name, before, after=None):
    """Wrap owner.name: before(*args) runs ahead of each call, after(result)
    once it returns."""
    fn = getattr(owner, name)

    def wrapped(*args, **kwargs):
        before(*args)
        out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    monkeypatch.setattr(owner, name, wrapped)


class TestCascadeLookups:
    """A hop decision asks for one local forecast (a rerouted one, detour or
    replan, also for its new first hop), and a detour slice holds only the
    rows reroute_local reads; the run's memo computes each row and each
    forecast once, every planned hop's forecast in one batch."""

    def test_run_logs_match_full_span_slice(self, mini_config, mini_world, monkeypatch):
        replans = []
        _spy(monkeypatch, harness, "reserve_path", lambda *a: replans.append(a[2:4]))
        reroutes = 0
        for threshold, radius, load in itertools.product((-70.0, -80.0, -88.0), (50.0, 400.0),
                                                         (12.0, 30.0)):
            cfg = replace(mini_config, blockage_threshold_db=threshold, region_radius_m=radius)
            logs = []
            for build in (harness._build_slice, full_span_slice):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(harness, "_build_slice", build)
                    events = []
                    run(cfg, "predictive", 0, events=events, world=mini_world,
                        load_per_min=load)
                logs.append(json.dumps(events, sort_keys=True))
            assert logs[0] == logs[1], (threshold, radius, load)
            reroutes += sum(ev["type"] == "reroute" for ev in json.loads(logs[0]))
        escalations = len(replans) // 2
        assert escalations > 0 and reroutes - escalations > 0

    def test_each_row_and_forecast_computed_once_per_run(self, mini_config, monkeypatch):
        # a high threshold and a small region give local detours and escalations
        cfg = replace(mini_config, blockage_threshold_db=-80.0, region_radius_m=50.0)
        world = build_world(cfg, 0)
        n_sens = len(cfg.scene.sensitive_nodes)
        log, requests = [], []
        _spy(monkeypatch, tactical, "local_mean_series",
             lambda view, *a: log.append(("series", len(view))))
        # a query_sites call logs once; the rows it hands query_many are its own
        in_sites = []
        _spy(monkeypatch, RadioMap, "query_sites",
             lambda *a: (in_sites.append(True), log.append(("sites",))),
             lambda out: in_sites.pop())
        _spy(monkeypatch, RadioMap, "query_many", lambda *a: in_sites or log.append(("map",)))
        _spy(monkeypatch, GroundTruthChannel, "gain_db_many",
             lambda self, a, b: log.append(("truth", len(a))))
        _spy(monkeypatch, harness.World, "row", lambda *a: log.append(("compute",)))
        _spy(monkeypatch, harness._Accounting, "measured_gain",
             lambda self, *key: log.append(("measure", *key)))
        _spy(monkeypatch, harness._Accounting, "transmit",
             lambda self, f, k, slot, tx, rx, *rest: log.append(("transmit", tx, rx, slot)),
             lambda out: log.append(("sent",)))
        _spy(monkeypatch, harness, "_build_slice", lambda *a: log.append(("slice",)),
             lambda out: log.append(("sliced",)))
        _spy(monkeypatch, harness._Cascade, "choose", lambda *a: log.append(("choose",)),
             lambda out: log.append(("chosen",)))
        _spy(monkeypatch, harness._Cascade, "_log_reroute", lambda *a: log.append(("reroute",)))
        _spy(monkeypatch, harness, "reserve_path", lambda *a: log.append(("replan",)))
        _spy(monkeypatch, harness, "cap_power", lambda *a: log.append(("cap",)))
        _spy(monkeypatch, tactical, "detect_blockage", lambda *a: log.append(("blockage",)))
        _spy(monkeypatch, harness, "_local_view", lambda *a: log.append(("view",)))

        def memo_spy(name, key_of):
            """Log each request to the run's memo as ("request", name, key),
            and keep (name, key, args, value served, the log entries it made,
            the request's log position)."""
            fn = getattr(harness._Accounting, name)

            def wrapped(self, *args):
                at = len(log)
                log.append(("request", name, key_of(*args)))
                out = fn(self, *args)
                requests.append((name, key_of(*args), args, out, log[at + 1:], at))
                return out

            monkeypatch.setattr(harness._Accounting, name, wrapped)

        memo_spy("row", lambda kernel, slot, *nodes: (kernel, slot, *nodes))
        memo_spy("hop_forecasts", lambda hops: tuple((hop.tx, hop.rx, hop.window)
                                                     for hop in hops))

        class Events(list):
            def append(self, ev):
                log.append(("event", ev["type"]))
                super().append(ev)

        events = Events()
        run(cfg, "predictive", 0, events=events, world=world, load_per_min=30.0)
        ground = set(world.ground_positions)

        # one forecast batch runs before the first flow event: every planned
        # hop's forecast, decided at its window's start, from one view per key
        # and one map lookup
        head = log[:log.index(("event", "flow"))]
        batch = [r for r in requests if r[0] == "hop_forecasts" and r[5] < len(head)]
        assert len(batch) == 1
        _, planned, _, _, calls, _ = batch[0]
        assert calls == [("view",)] * len(set(planned)) + [("series", len(set(planned))),
                                                          ("map",)]
        assert [c for c in head if c[0] in ("view", "series", "map")] == calls
        planned = set(planned)
        decided = [r for r in requests if r[0] == "hop_forecasts" and r[5] >= len(head)]
        assert all(len(r[1]) == 1 for r in decided)
        # a planned hop's request is a memo hit; a rerouted hop's first request
        # is a batch of one, with one map lookup; a repeat makes no call at all
        seen, hits, made = set(planned), 0, 0
        for _, (key,), _, _, calls, _ in decided:
            if key in seen:
                hits += key in planned
                assert calls == [], key
            else:
                made += 1
                seen.add(key)
                assert calls == [("view",), ("series", 1), ("map",)], key
        assert hits > 0 and made > 0

        # the memo's contract: the first request of a key computes it once, with
        # the kernel call the run made before it had a memo (a ground-only row
        # is served from the world's table); a repeat makes no call at all
        shape = {harness.link_truth: [("truth", 1)], harness.site_map_max: [("map",)],
                 harness.site_interference: [("truth", n_sens)]}
        first, first_at, repeats = set(), set(), 0
        for name, key, args, out, calls, at in requests:
            if name != "row":
                continue
            if key in first:
                repeats += 1
                assert calls == [], key
                continue
            first.add(key)
            first_at.add(at)
            assert calls == [("compute",)] + ([] if set(key[2:]) <= ground
                                              else shape[key[0]]), key
        assert repeats > 0
        # and nothing in the run computes a row or a forecast past the memo
        assert log.count(("compute",)) == len({r[1] for r in requests if r[0] == "row"})
        assert sum(c[0] == "series" for c in log) == 1 + made
        # a view is built for each forecast key the memo computes and for each
        # blocked decision's detour, nowhere else
        blocked = log.count(("slice",))
        assert log.count(("view",)) == sum(r[4].count(("view",)) for r in requests
                                           if r[0] == "hop_forecasts") + blocked

        def between(open_, close):
            """The log entries inside each open_ ... close pair; no pair opens
            inside another of its kind (a decision is never re-entered)."""
            out, stack = [], []
            for entry in log:
                if entry[0] == open_:
                    assert not stack, entry
                    stack.append([])
                elif entry[0] == close:
                    out.append(stack.pop())
                elif stack:
                    stack[-1].append(entry)
            assert not stack
            return out

        outcomes = {"kept": 0, "detour": 0, "escalation": 0}
        for calls in between("choose", "chosen"):
            kind = ("escalation" if ("replan",) in calls
                    else "detour" if ("reroute",) in calls else "kept")
            outcomes[kind] += 1
            # a hop decision asks for its own forecast once and checks it once;
            # a rerouted one, detour or replan, then asks for its new first
            # hop's, through the memo, which it times with no second check. A
            # view is built for each forecast computed, and a blocked hop's
            # detour region is one more, built after the check
            asked = [j for j, c in enumerate(calls) if c[:2] == ("request", "hop_forecasts")]
            assert len(asked) == 1 + (kind != "kept")
            assert calls.count(("blockage",)) == 1
            if kind != "kept":
                assert asked[0] < calls.index(("blockage",)) < calls.index(("sliced",)) \
                    < asked[1]
            if kind == "escalation":
                assert calls.index(("sliced",)) < calls.index(("replan",)) < asked[1]
            assert calls.count(("slice",)) == (kind != "kept")
            made_here = sum(c[1] for c in calls if c[0] == "series")
            assert calls.count(("view",)) == made_here + (kind != "kept")
            if kind != "kept":
                assert ("view",) in calls[calls.index(("blockage",)):calls.index(("slice",))]
        assert min(outcomes.values()) > 0, outcomes
        # the detour slice is one map lookup of its links and one query_sites
        # call of its sensitive-site rows
        assert all(calls.count(("map",)) == calls.count(("sites",)) == 1
                   for calls in between("slice", "sliced"))
        # a transmission asks for two rows, its sender's sensitive-site row and
        # its link's gain, the one the cap-power scan measured last: a memo hit
        sends = between("transmit", "sent")
        senders = [e[1:] for e in log if e[0] == "transmit"]
        assert len(sends) == sum(ev["type"] == "transmission" for ev in events) > 0
        for (tx, rx, slot), calls in zip(senders, sends):
            asked = [c[2] for c in calls if c[0] == "request"]
            link = (harness.link_truth, slot, tx, rx)
            assert asked == [(harness.site_interference, slot, tx), link], (tx, rx, slot)
            read = calls.index(("request", "row", link))
            assert ("compute",) not in calls[read:], (tx, rx, slot)
        assert {tx in ground for tx, _, _ in senders} == {True, False}
        for k, entry in enumerate(log):
            if entry[0] == "transmit":
                last = next(e for e in reversed(log[:k]) if e[0] == "measure")
                assert last[1:] == entry[1:]
        # a cap-power scan slot runs from its measurement to the next one or the
        # decision's end: an aircraft sender's cap check is one map query the
        # first time its row is asked for, a ground sender's none
        scanned = {"ground": 0, "aircraft": 0, "aircraft_repeat": 0}
        sending = False
        for k, entry in enumerate(log):
            sending = entry[0] == "transmit" or (sending and entry[0] != "sent")
            if entry[0] == "measure" and not sending:
                rest = list(itertools.takewhile(
                    lambda je: je[1][0] not in ("measure", "chosen", "choose"),
                    enumerate(log[k + 1:], k + 1)))
                caps = [e for _, e in rest].count(("cap",))
                assert caps <= 1
                cap_rows = [j for j, e in rest if e[0] == "request"
                            and e[2] == (harness.site_map_max, entry[3], entry[1])]
                assert len(cap_rows) == caps
                maps = [e for _, e in rest].count(("map",))
                from_ground = entry[1] in ground
                new = bool(cap_rows) and cap_rows[0] in first_at
                assert maps == (caps if new and not from_ground else 0), entry
                if caps:
                    scanned["ground" if from_ground else
                            "aircraft" if new else "aircraft_repeat"] += 1
        assert min(scanned.values()) > 0, scanned
        # every value served is a fresh call's, bit for bit; forecasts are
        # read-only and equal the per-hop oracle's
        for name, key, args, out, _, _ in requests:
            if name == "row":
                assert float.hex(out) == float.hex(world.row(*key)), key
                continue
            for hop, served in zip(args[0], out):
                at = world.at_time(cfg.grid.t_of(hop.window[0]))
                view = harness._local_view(at, cfg, hop.window[0], (hop.tx, hop.rx))
                fresh = hop_forecast(view, at, hop)
                for got, want in zip(served, fresh):
                    assert not got.flags.writeable
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key

    def test_detour_first_hop_forecast_equals_its_slice(self, mini_config, mini_world,
                                                       monkeypatch):
        # golden's detour settings: the forecast the memo serves a detour's
        # first hop is the one its slice looked up over the first half-span
        detours, served = [], {}
        reroute, forecasts = tactical.reroute_local, harness._Accounting.hop_forecasts

        def spy_reroute(cluster, hop, tail, slc):
            repl = reroute(cluster, hop, tail, slc)
            detours.append((repl[0], slc))
            return repl

        def spy_forecasts(self, hops):
            out = forecasts(self, hops)
            for hop, value in zip(hops, out):
                served.setdefault(id(self), {})[hop.tx, hop.rx, hop.window] = value
            return out

        monkeypatch.setattr(tactical, "reroute_local", spy_reroute)
        monkeypatch.setattr(harness._Accounting, "hop_forecasts", spy_forecasts)
        cfg = replace(mini_config, blockage_threshold_db=-70.0, region_radius_m=50.0)
        checked = 0
        for load in (12.0, 30.0):
            detours.clear()
            served.clear()
            run(cfg, "predictive", 0, world=mini_world, load_per_min=load)
            (memo,) = served.values()
            for hop, slc in detours:
                slots, series = memo[hop.tx, hop.rx, hop.window]
                first = (slc.slots >= hop.window[0]) & (slc.slots <= hop.window[1])
                assert slots.tolist() == slc.slots[first].tolist()
                want = slc.gains(hop.tx, hop.rx)[first]
                assert series.dtype == want.dtype and series.tobytes() == want.tobytes(), hop
                checked += 1
        assert checked > 0

    def test_cluster_members_equal_a_per_node_scalar_oracle(self, mini_config, mini_world,
                                                            monkeypatch):
        # golden's detour settings: a blocked hop's cluster is every node whose
        # realized position then lies in the region, which holds its three ends
        # each call's ends: those of the view drawn just before it
        ends_of_views, calls = [], []
        _spy(monkeypatch, harness, "_local_view", lambda *a: ends_of_views.append(set(a[3])))
        _spy(monkeypatch, harness, "_cluster_members",
             lambda *a: calls.append((*a, ends_of_views[-1])), lambda out: calls.append(out))
        cfg = replace(mini_config, blockage_threshold_db=-80.0, region_radius_m=50.0)
        for load in (12.0, 30.0):
            run(cfg, "predictive", 0, world=mini_world, load_per_min=load)
        assert calls
        near, far = 0, 0
        for (world, slot, view, ends), members in zip(calls[::2], calls[1::2]):
            cx, cy, cz = view.region_center.as_array()
            inside = set()
            for node in world.graph.node_ids:
                x, y, z = world.realized_position(node, slot)
                dx, dy, dz = x - cx, y - cy, z - cz
                if math.sqrt((dx * dx + dy * dy) + dz * dz) <= view.region_radius:
                    inside.add(node)
            assert members == tuple(sorted(inside)), slot
            assert ends <= inside, (slot, ends)
            near += len(inside - ends)
            far += len(world.graph.node_ids) - len(members)
        assert near > 0 and far > 0, (near, far)

    def test_memo_does_not_outlive_its_run(self, mini_config, monkeypatch):
        cfg = replace(mini_config, blockage_threshold_db=-80.0, region_radius_m=50.0)
        world = build_world(cfg, 0)
        calls = []
        _spy(monkeypatch, GroundTruthChannel, "gain_db_many", lambda *a: calls.append("truth"))
        _spy(monkeypatch, RadioMap, "query_many", lambda *a: calls.append("map"))
        _spy(monkeypatch, tactical, "local_mean_series", lambda *a: calls.append("series"))
        tallies, logs = [], []
        for _ in range(2):
            calls.clear()
            events = []
            run(cfg, "predictive", 0, events=events, world=world, load_per_min=30.0)
            tallies.append({c: calls.count(c) for c in ("truth", "map", "series")})
            logs.append(json.dumps(events, sort_keys=True))
        assert tallies[0] == tallies[1] and min(tallies[0].values()) > 0, tallies
        assert logs[0] == logs[1]


@pytest.fixture(scope="module")
def peak_load():
    """The documented scenario at peak load (64 flows/min, half of them short)
    and its world 0."""
    config = gen_default_scenario(0, frac_short_deadline=0.5, load_per_min=64.0)
    return config, build_world(config, 0)


@pytest.fixture(scope="module")
def peak_load_world_1(peak_load):
    """Peak load's world 1, whose pads need a relay at the link budget."""
    return build_world(peak_load[0], 1)


def world_and_seed(request, name):
    """(config, world, run seed): the mini world's run seed 0, or a world at
    peak load with its benchmark run seed: world 0 with 2, or ("peak-load-1")
    world 1 with 3."""
    if name == "mini":
        return request.getfixturevalue("mini_config"), request.getfixturevalue("mini_world"), 0
    if name == "peak-load-1":
        config, _ = request.getfixturevalue("peak_load")
        return config, request.getfixturevalue("peak_load_world_1"), 3
    return (*request.getfixturevalue("peak_load"), 2)


@pytest.fixture(scope="module", params=["mini", "peak-load"])
def prefilled(request):
    """(config, world, the hops of a predictive run's forecast batch, the memo
    right after it), on each world of world_and_seed."""
    config, world, seed = world_and_seed(request, request.param)
    batches = []
    with pytest.MonkeyPatch.context() as mp:
        kernel = harness._Accounting.hop_forecasts

        def first_batch(self, hops):
            out = kernel(self, hops)
            if not batches:
                batches.append((list(hops), dict(self.memo)))
            return out

        mp.setattr(harness._Accounting, "hop_forecasts", first_batch)
        run(config, "predictive", seed, world=world)
    hops, memo = batches[0]
    return config, world, hops, memo


class TestPlannedForecasts:
    """The forecasts a predictive run computes in one batch after planning,
    each decided at its hop's window start."""

    def test_each_prefilled_key_equals_the_scalar_oracle(self, prefilled):
        config, world, hops, memo = prefilled
        keys = {(hop.tx, hop.rx, hop.window): hop for hop in hops}
        assert keys and set(keys) <= set(memo)
        dt = config.grid.dt
        for key, hop in keys.items():
            tx, rx, window = key
            slots, means = memo[key]
            want = np.arange(window[0], window[1] + 1)
            at = world.at_time(config.grid.t_of(window[0]))
            view = harness._local_view(at, config, window[0], (tx, rx))
            oracle = echelon.local_mean_series(view, at, (tx, rx), dt * want)
            assert slots.tolist() == want.tolist(), key
            assert means.dtype == oracle.dtype and means.tobytes() == oracle.tobytes(), key
            assert not slots.flags.writeable and not means.flags.writeable

    def test_a_planned_hop_passes_the_region_and_horizon_checks(self, prefilled):
        # the view a planned hop's forecast is computed from: centered at the
        # midpoint of its ends then, bit for bit, and wide enough to hold both
        # with 50 m to spare, inside the local tier's horizon
        config, world, hops, _ = prefilled
        keys = {(hop.tx, hop.rx, hop.window) for hop in hops}
        assert keys
        for tx, rx, window in keys:
            at = world.at_time(config.grid.t_of(window[0]))
            view = harness._local_view(at, config, window[0], (tx, rx))
            ends = [at.realized_pos(node, at.now_s) for node in (tx, rx)]
            center = view.region_center.as_array()
            assert center.tobytes() == (0.5 * (ends[0] + ends[1])).tobytes(), (tx, rx, window)
            gaps = [math.sqrt((dx * dx + dy * dy) + dz * dz) for dx, dy, dz in ends - center]
            assert view.region_radius == max(config.region_radius_m, max(gaps) + 50.0)
            assert config.grid.t_of(window[1]) - at.now_s <= view.horizon_s, (tx, rx, window)


@pytest.mark.parametrize("planner", [strategic.reserve_paths, strategic.min_delay_reservation])
@pytest.mark.parametrize("name", ["mini", "peak-load"])
def test_hop_power_is_its_graph_weights_required_power(request, name, planner):
    # the planner keeps no power table: each hop's nominal power is computed
    # from its graph weight, bit for bit the elementwise table's entry
    config, world, seed = world_and_seed(request, name)
    power = required_power_dbm(world.graph.weights, harness.BUDGET)
    ids = world.graph.node_ids
    requests = [(f.source, f.dest, f.deadline_s, f.injection_slot)
                for f in draw_flows(config, seed)]
    hops = [hop for res in planner(world.graph, requests, world.tables)
            if not isinstance(res, Exception) for hop in res.hops]
    assert hops
    for hop in hops:
        want = power[hop.window[0], ids.index(hop.tx), ids.index(hop.rx)]
        assert float.hex(hop.nominal_power_dbm) == float.hex(float(want)), hop


def all_pairs_aggregate(world, flow):
    """The aggregate baseline on a snapshot priced whole, kept as an oracle:
    one truth call with one row per unordered pair of distinct positions,
    mirrored, a BFS from dest over every level, then the walk that takes the
    lowest sorted-id next hop."""
    budget = harness.BUDGET
    ids = world.graph.node_ids
    if flow.source not in ids or flow.dest not in ids:
        raise NoFeasiblePath("flow endpoint is not a communicating node")
    pos = np.array([world.realized_position(e, flow.injection_slot) for e in ids])
    tx, rx = np.triu_indices(len(ids), k=1)
    keep = np.linalg.norm(pos[tx] - pos[rx], axis=1) > 0
    tx, rx = tx[keep], rx[keep]
    gain = np.full((len(ids), len(ids)), -np.inf)
    gain[tx, rx] = gain[rx, tx] = world.truth.gain_db_many(pos[tx], pos[rx])
    power = required_power_dbm(gain, budget)
    feasible = power <= budget.p_max_dbm
    src, dst = ids.index(flow.source), ids.index(flow.dest)
    dist = np.full(len(ids), -1)
    frontier, level = np.arange(len(ids)) == dst, 0
    while frontier.any():
        dist[frontier] = level
        frontier = feasible[:, frontier].any(axis=1) & (dist < 0)
        level += 1
    if dist[src] < 0:
        raise NoFeasiblePath("snapshot topology does not connect the flow")
    route = [src]
    while route[-1] != dst:
        u = route[-1]
        route.append(int(np.flatnonzero(feasible[u] & (dist == dist[u] - 1))[0]))
    return [ids[i] for i in route], [float(power[a, b]) for a, b in zip(route, route[1:])]


def aggregate_outcome(fn, world, flow):
    """fn's route and the hex of each hop power, or None on NoFeasiblePath."""
    try:
        route, powers = fn(world, flow)
    except NoFeasiblePath:
        return None
    return route, [float.hex(p) for p in powers]


class TestBaselines:
    def test_aggregate_prefers_direct_hop(self, mini_config, mini_world, monkeypatch):
        monkeypatch.setattr(harness, "BUDGET", LinkBudget(p_max_dbm=80.0))
        flows = draw_flows(mini_config, 0, 12.0)
        route, powers = baseline_aggregate(mini_world, flows[0])
        assert route == [flows[0].source, flows[0].dest]
        assert len(powers) == 1

    def test_aggregate_disconnected_raises(self, mini_config, mini_world, monkeypatch):
        monkeypatch.setattr(harness, "BUDGET", LinkBudget(p_max_dbm=-120.0))
        flows = draw_flows(mini_config, 0, 12.0)
        with pytest.raises(NoFeasiblePath):
            baseline_aggregate(mini_world, flows[0])

    def test_aggregate_route_is_least_min_hop_on_truth_snapshot(self, mini_config, mini_world):
        # each ordered pair's gain from its own truth call at the injection slot;
        # routes from an enumeration that tries fewer hops first and, within a hop
        # count, relays in lexicographic order
        budget = harness.BUDGET
        ground = mini_config.scene.ground_sources + mini_config.scene.ground_destinations
        nodes = sorted(list(mini_world.realized) + [n.id for n in ground])
        multi_hop = 0
        for f in draw_flows(mini_config, 0, 12.0):
            pos = {e: (mini_world.realized[e][f.injection_slot] if e in mini_world.realized
                       else mini_world.ground_positions[e].as_array()) for e in nodes}
            gain = {(a, b): float(mini_world.truth.gain_db_many(pos[a][None], pos[b][None])[0])
                    for a, b in itertools.permutations(nodes, 2)}
            ok = lambda a, b: required_power_dbm(gain[(a, b)], budget) <= budget.p_max_dbm
            relays = [e for e in nodes if e not in (f.source, f.dest)]
            want = next((r for k in range(len(relays) + 1)
                         for mid in itertools.permutations(relays, k)
                         for r in [[f.source, *mid, f.dest]]
                         if all(ok(a, b) for a, b in zip(r, r[1:]))), None)
            if want is None:
                with pytest.raises(NoFeasiblePath):
                    baseline_aggregate(mini_world, f)
                continue
            route, powers = baseline_aggregate(mini_world, f)
            assert route == want
            hops = list(zip(route, route[1:]))
            assert powers == pytest.approx([required_power_dbm(gain[h], budget) for h in hops],
                                           rel=0.0, abs=1e-9)
            multi_hop += len(hops) > 1
        assert multi_hop > 0

    @pytest.mark.parametrize("name", ["mini", "peak-load", "peak-load-1"])
    def test_aggregate_measures_each_link_once_bit_equal_to_an_ordered_pair_call(
            self, request, monkeypatch, name):
        # each decision's truth calls against one call over every ordered node
        # pair at its injection slot: no call has one row, no link is measured
        # twice, and each measured row is that call's row bit for bit
        config, world, seed = world_and_seed(request, name)
        calls = []
        _spy(monkeypatch, GroundTruthChannel, "gain_db_many",
             lambda _, tx, rx: calls.append([tx.copy(), rx.copy()]),
             lambda out: calls[-1].append(out))
        ids = world.graph.node_ids
        decisions, measured = 0, 0
        for f in draw_flows(config, seed):
            pos = np.array([world.realized_position(e, f.injection_slot) for e in ids])
            index = {p.tobytes(): i for i, p in enumerate(pos)}
            assert len(index) == len(ids)
            tx, rx = np.nonzero(~np.eye(len(ids), dtype=bool))
            want = np.full((len(ids), len(ids)), np.nan)
            want[tx, rx] = world.truth.gain_db_many(pos[tx], pos[rx])
            assert want.tobytes() == want.T.tobytes()
            calls.clear()
            try:
                baseline_aggregate(world, f)
            except NoFeasiblePath:
                pass
            links = []
            for tx, rx, gain in calls:
                rows = [(index[a.tobytes()], index[b.tobytes()]) for a, b in zip(tx, rx)]
                assert len(rows) >= 2, (f, rows)
                pairs = {frozenset(r) for r in rows}
                mirrored = len(rows) == 2 and rows[0] == rows[1][::-1]
                assert len(pairs) == len(rows) or mirrored, (f, rows)
                links += pairs
                want_rows = np.array([want[r] for r in rows])
                assert gain.tobytes() == want_rows.tobytes(), (f, rows)
                measured += len(rows)
            assert len(links) == len(set(links)), f
            decisions += 1
        # the all-pairs snapshot measured every unordered pair per decision
        assert 0 < measured < decisions * len(ids) * (len(ids) - 1) // 2

    @pytest.mark.parametrize("p_max", [None, -120.0])
    @pytest.mark.parametrize("name", ["mini", "peak-load", "peak-load-1"])
    def test_aggregate_matches_the_all_pairs_snapshot_oracle(self, request, monkeypatch,
                                                             name, p_max):
        # route and power bits for every flow, routed or not: world 0 at peak
        # load closes the direct hop, the others relay. At -120 dBm no link
        # closes, so every flow raises NoFeasiblePath
        config, world, seed = world_and_seed(request, name)
        if p_max is not None:
            monkeypatch.setattr(harness, "BUDGET", LinkBudget(p_max_dbm=p_max))
        outcomes = []
        for f in draw_flows(config, seed):
            got, want = (aggregate_outcome(fn, world, f)
                         for fn in (baseline_aggregate, all_pairs_aggregate))
            assert got == want, f
            outcomes.append(got)
        assert outcomes and any(outcomes) == (p_max is None)

    def test_the_search_stops_at_the_source_and_mirrors_a_lone_link(self, mini_world,
                                                                     monkeypatch):
        # four points in the mini world's truth: a, b and c 300 m apart on a
        # line 120 m up, d 300 m behind a and 150 m up. At the 27 dBm budget
        # the links that close are d-a, a-b and b-c. From a, the search stops
        # at level 2, where a is; from d, level 2 has the single link d -> a,
        # which goes out as a two-row call with its mirror a -> d
        at = {"a": [0.0, 0.0, 120.0], "b": [300.0, 0.0, 120.0], "c": [600.0, 0.0, 120.0],
              "d": [-300.0, 0.0, 150.0]}
        world = SimpleNamespace(graph=SimpleNamespace(node_ids=("a", "b", "c", "d")),
                                truth=mini_world.truth,
                                realized_position=lambda node, slot: np.array(at[node]))
        calls = []
        _spy(monkeypatch, GroundTruthChannel, "gain_db_many",
             lambda _, tx, rx: calls.append((tx.tolist(), rx.tolist())))
        a, b, c, d = (at[n] for n in "abcd")
        levels = [([a, b, d], [c, c, c]), ([a, d], [b, b])]
        lone = ([d, a], [a, d])
        for source, route, last in (("a", list("abc"), []), ("d", list("dabc"), [lone])):
            flow = FlowRequest(source, "c", 0, harness.DEADLINE_LONG_S)
            calls.clear()
            got = aggregate_outcome(baseline_aggregate, world, flow)
            assert calls == levels + last, source
            assert got[0] == route
            assert got == aggregate_outcome(all_pairs_aggregate, world, flow)

    def test_spacetime_delay_no_worse_than_predictive(self, mini_config, mini_world):
        requests = [(f.source, f.dest, f.deadline_s, f.injection_slot)
                    for f in draw_flows(mini_config, 0, 12.0)]
        graph, tables = mini_world.graph, mini_world.tables
        spacetime = strategic.min_delay_reservation(graph, requests, tables)
        predictive = strategic.reserve_paths(graph, requests, tables)
        routed = 0
        for st_res, pred in zip(spacetime, predictive, strict=True):
            # space-time plans on every p_max-feasible edge and predictive on
            # those under the caps; in this world the caps cut off no flow, so
            # both route the same flows
            assert isinstance(st_res, Exception) == isinstance(pred, Exception)
            if not isinstance(pred, Exception):
                assert st_res.delivery_slot <= pred.delivery_slot
                routed += 1
        assert routed > 0

    def test_no_sensitive_nodes_all_methods_silent(self, mini_config):
        bare = replace(mini_config, scene=replace(mini_config.scene, sensitive_nodes=()))
        world = build_world(bare, 0)
        logs = {m: [] for m in METHODS}
        vals = [run(bare, m, 0, events=logs[m], world=world).interference_mw_s for m in METHODS]
        assert vals == [0.0, 0.0, 0.0]
        # a ground sender's per-world row adds +0.0 like an aircraft's fresh one
        ground = [e for e in world.graph.node_ids if e not in world.realized]
        assert fresh_ground_rows(world) == world.ground_rows
        sent = [t for m in METHODS for t in logs[m] if t["type"] == "transmission"]
        assert any(t["tx"] in ground for t in sent)
        assert all(t["interference_mw_s"].hex() == (0.0).hex() for t in sent)
        # with no site to protect the ceiling is p_max itself
        p_max, cap = harness.BUDGET.p_max_dbm, harness.SENSITIVE_CAP_DBM
        for e in ground:
            gain = world.row(harness.site_map_max, 0, e)
            assert cap_power(p_max, gain, cap, p_max).transmit
            assert not cap_power(np.nextafter(p_max, np.inf), gain, cap, p_max).transmit


class TestSweep:
    def test_row_counting_and_cell_equality(self, mini_config):
        rows = sweep(mini_config, [6.0, 12.0], ["predictive", "baseline_aggregate"], 2)
        assert len(rows) == 2 * 2 * 2
        world = build_world(mini_config, 1)
        rep = run(mini_config, "predictive", 1, world=world, load_per_min=6.0)
        cell = [r for r in rows if r["load"] == 6.0 and r["seed"] == 1
                and r["method"] == "predictive"][0]
        assert cell["interference_mw_s"] == rep.interference_mw_s
        assert cell["delivery_rate"] == rep.delivery_rate

    def test_concurrency_independence(self, mini_config, monkeypatch, tmp_path):
        monkeypatch.setenv("AERIS_THREADS", "1")
        a = sweep(mini_config, [6.0], ["baseline_aggregate"], 2)
        monkeypatch.setenv("AERIS_THREADS", "2")
        b = sweep(mini_config, [6.0], ["baseline_aggregate"], 2)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_to_csv(a, pa)
        sweep_to_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("threads", ["two", "1.5", "0", "-2"])
    def test_malformed_thread_count_rejected(self, mini_config, monkeypatch, threads):
        monkeypatch.setenv("AERIS_THREADS", threads)
        with pytest.raises(ConfigInvalid, match="AERIS_THREADS"):
            sweep(mini_config, [6.0], ["baseline_aggregate"], 1)

    def test_csv_roundtrip(self, mini_config, tmp_path):
        rows = sweep(mini_config, [6.0], ["baseline_spacetime"], 1)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        again = sweep_from_csv(path)
        assert len(again) == len(rows)
        assert again[0]["interference_mw_s"] == rows[0]["interference_mw_s"]

    def test_empty_inputs_rejected(self, mini_config):
        with pytest.raises(ConfigInvalid):
            sweep(mini_config, [], ["predictive"], 1)

    @pytest.mark.parametrize("load", [math.inf, -math.inf, math.nan, -1.0])
    def test_bad_load_rejected_before_any_seed_runs(self, mini_config, monkeypatch, load):
        def no_seed(task):
            raise AssertionError("a seed ran before the loads were checked")
        monkeypatch.setattr(harness, "_seed_rows", no_seed)
        monkeypatch.setenv("AERIS_THREADS", "1")
        with pytest.raises(ConfigInvalid) as e:
            sweep(mini_config, [6.0, load], ["predictive"], 2)
        assert e.value.field == "loads"


class TestPlotData:
    def test_median_iqr(self):
        rows = [{"load": 1.0, "method": "predictive", "seed": s,
                 "interference_mw_s": float(v), "interference_db": 0.0,
                 "delivery_rate": 1.0, "mean_delay_s": 1.0, "energy_mj": 1.0}
                for s, v in enumerate([1.0, 2.0, 3.0, 4.0])]
        out = plot_data(rows)
        assert len(out) == 1
        assert out[0]["interference_mw_s_median"] == 2.5
        assert out[0]["interference_mw_s_q25"] == 1.75
        assert out[0]["interference_mw_s_q75"] == 3.25


class TestMetricsReport:
    def test_json_fields(self):
        rep = MetricsReport("predictive", 4, 3, 1e-6, 0.75, 2.5, 10.0)
        d = json.loads(rep.to_json())
        assert d["interference_db"] == pytest.approx(-60.0)
        assert d["delivery_rate"] == 0.75

    def test_zero_interference_db(self):
        rep = MetricsReport("predictive", 0, 0, 0.0, 1.0, float("nan"), float("nan"))
        assert rep.interference_db == float("-inf")
