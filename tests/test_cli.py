import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aeris import cli, harness, tactical
from aeris.harness import ScenarioConfig, gen_default_scenario
from test_harness import RETIRED_KEYS
from test_scene import west_strip_city


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    code = cli.main(["gen-scenario", "--out", str(path), "--seed", "5",
                     "--aircraft", "8", "--buildings", "8", "--horizon", "40"])
    assert code == 0
    return path


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that finds this checkout's aeris first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_module_entry_point_runs_without_runtime_warning():
    # `python -m aeris.cli` runs the module as __main__; the package must not
    # have imported aeris.cli first
    proc = _python("-W", "error::RuntimeWarning", "-m", "aeris.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "gen-scenario" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy loads with the first radio map: --help, gen-scenario, plot-data and
    # a config error never build one
    proc = _python("-c", "import sys, aeris.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestGenScenario:
    def test_writes_loadable_config(self, config_file):
        cfg = ScenarioConfig.from_json(config_file.read_text())
        assert len(cfg.trajectories) == 8
        assert cfg.grid.n_slots == 400

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["gen-scenario", "--out", str(a), "--seed", "7"]) == 0
        assert cli.main(["gen-scenario", "--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_are_the_library_scenario(self, tmp_path):
        out = tmp_path / "s.json"
        assert cli.main(["gen-scenario", "--out", str(out), "--seed", "0"]) == 0
        assert out.read_text() == gen_default_scenario(0).to_json()

    @pytest.mark.parametrize("flag, value", [("--dt", "-0.1"), ("--dt", "0"),
                                             ("--horizon", "1e400"), ("--horizon", "inf"),
                                             ("--dt", "1e-4"), ("--dt", "1e-300"),
                                             ("--horizon", "1e308"), ("--dt", "1e-320")])
    def test_out_of_range_value_exit_code(self, tmp_path, flag, value, capsys):
        # 1e-4 s slots would need about 20 GB to build, 1e-300 s a 303-digit
        # slot count, and the last two a slot count past the largest float;
        # all are rejected before anything is built
        out = tmp_path / "x.json"
        code = cli.main(["gen-scenario", "--out", str(out), "--seed", "1", flag, value])
        assert code == 2 and not out.exists()
        if value in ("1e-4", "1e-300", "1e308", "1e-320"):
            assert "config error: grid:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, slots, nodes", [
        ("--horizon", "600", 6000, 14), ("--horizon", "1200", 12000, 14),
        ("--dt", "0.01", 12000, 14), ("--aircraft", "40", 1200, 42)])
    def test_large_grid_within_the_cap(self, tmp_path, flag, value, slots, nodes):
        # 1.2 M to 2.4 M graph cells: larger than the documented scenario's
        # 235 200, and builds of them stay under 300 MB
        out = tmp_path / "x.json"
        assert cli.main(["gen-scenario", "--out", str(out), "--seed", "1", flag, value]) == 0
        cfg = ScenarioConfig.from_json(out.read_text())
        assert cfg.grid.n_slots == slots
        assert len(cfg.trajectories) + 2 == nodes

    def test_negative_building_count_exit_code(self, tmp_path):
        code = cli.main(["gen-scenario", "--out", str(tmp_path / "x.json"), "--seed", "1",
                         "--buildings", "-1"])
        assert code == 2

    @pytest.mark.parametrize("flag, count", [("--sources", "0"), ("--destinations", "0"),
                                             ("--sensitive", "-1")])
    def test_bad_node_count_exit_code(self, tmp_path, monkeypatch, flag, count):
        monkeypatch.setattr(harness, "gen_city", lambda *a: pytest.fail("generation ran"))
        out = tmp_path / "x.json"
        assert cli.main(["gen-scenario", "--out", str(out), "--seed", "1", flag, count]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("load", ["inf", "nan"])
    def test_non_finite_load_exit_code(self, tmp_path, load):
        code = cli.main(["gen-scenario", "--out", str(tmp_path / "x.json"), "--seed", "1",
                         "--load", load])
        assert code == 2

    def test_negative_seed_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "gen_city", lambda *a: pytest.fail("generation ran"))
        out = tmp_path / "x.json"
        assert cli.main(["gen-scenario", "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: seed:")

    def test_generation_failure_exit_code(self, tmp_path, monkeypatch):
        # the corridor scene finds no clear spot for its source
        monkeypatch.setattr(harness, "gen_city", west_strip_city)
        code = cli.main(["gen-scenario", "--out", str(tmp_path / "x.json"), "--seed", "1"])
        assert code == 3


class TestRunCommand:
    def test_run_writes_metrics_and_events(self, config_file, tmp_path):
        out = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        code = cli.main(["run", "--config", str(config_file), "--method", "baseline_aggregate",
                         "--seed", "0", "--out", str(out), "--events", str(events)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "baseline_aggregate"
        lines = events.read_text().strip().splitlines()
        assert json.loads(lines[0])["type"] == "meta"

    def test_unknown_method_exit_code(self, config_file, tmp_path):
        code = cli.main(["run", "--config", str(config_file), "--method", "nope",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2

    # a waypoint of three numbers once ended the run in an IndexError
    @pytest.mark.parametrize("short_waypoint", [False, True])
    def test_malformed_config_exit_code(self, config_file, tmp_path, capsys, short_waypoint):
        doc = {"scene": {}}
        if short_waypoint:
            doc = json.loads(config_file.read_text())
            doc["trajectories"][0]["waypoints"][1] = [0.0, 1.0, 2.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(bad), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config: malformed")

    # grid.t0 is the grid start time older documents held
    @pytest.mark.parametrize("key", ["bogus", "t0"])
    def test_unknown_nested_key_exit_code(self, config_file, tmp_path, key):
        doc = json.loads(config_file.read_text())
        doc["grid"][key] = 0.0
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(bogus), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2

    # a key older documents held, a NaN load, which would leave draw_flows'
    # arrival loop without an end, a misspelt field, or a seed that is no
    # non-negative integer
    @pytest.mark.parametrize("key, value", [
        *RETIRED_KEYS.items(), ("load_per_min", float("nan")), ("load_per_mni", 99.0),
        ("seed", -3), ("seed", 1.5)])
    def test_rejected_document_exit_code(self, config_file, tmp_path, monkeypatch, capsys,
                                         key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(config_file.read_text()), key: value}))
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the document loaded"))
        code = cli.main(["run", "--config", str(bad), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    # a slot count sizes the grid's arrays: one that is no integer once ended
    # the run in a TypeError
    @pytest.mark.parametrize("n_slots", [400.0, 400.5, True])
    def test_non_integer_slot_count_exit_code(self, config_file, tmp_path, monkeypatch, capsys,
                                              n_slots):
        doc = json.loads(config_file.read_text())
        doc["grid"]["n_slots"] = n_slots
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the document loaded"))
        code = cli.main(["run", "--config", str(bad), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: grid.n_slots:")

    # True is an int, but no slot length
    def test_boolean_slot_length_exit_code(self, config_file, tmp_path, monkeypatch, capsys):
        doc = json.loads(config_file.read_text())
        doc["grid"]["dt"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert '"dt": true' in bad.read_text()
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the document loaded"))
        code = cli.main(["run", "--config", str(bad), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: grid.dt:")

    def test_negative_run_seed_exit_code(self, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "build_world", lambda *a: pytest.fail("a world was built"))
        code = cli.main(["run", "--config", str(config_file), "--method", "predictive",
                         "--seed", "-1", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed:")

    def test_unschedulable_hop_exit_code(self, tmp_path, monkeypatch):
        # a hop whose local forecast holds no finite slot cannot be timed
        config = tmp_path / "busy.json"
        assert cli.main(["gen-scenario", "--out", str(config), "--seed", "1", "--aircraft", "8",
                         "--buildings", "8", "--horizon", "40", "--load", "12"]) == 0
        monkeypatch.setattr(tactical, "local_mean_series", lambda view, world, link, times:
                            np.full(sum(len(t) for t in times), np.nan))
        code = cli.main(["run", "--config", str(config), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_non_json_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("scene: {}")
        code = cli.main(["run", "--config", str(bad), "--method", "predictive",
                         "--seed", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_internal_value_error_propagates(self, config_file, tmp_path, monkeypatch):
        def broken(*a, **k):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "run", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["run", "--config", str(config_file), "--method", "predictive",
                      "--seed", "0", "--out", str(tmp_path / "m.json")])

    def test_determinism_bit_identical_files(self, config_file, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert cli.main(["run", "--config", str(config_file), "--method",
                             "baseline_spacetime", "--seed", "3", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweepAndPlot:
    def test_sweep_then_plot(self, config_file, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--config", str(config_file), "--loads", "6",
                         "--methods", "baseline_aggregate,baseline_spacetime",
                         "--seeds", "2", "--out", str(sweep_csv)])
        assert code == 0
        lines = sweep_csv.read_text().strip().splitlines()
        assert lines[0] == ("load,method,seed,interference_mw_s,interference_db,"
                            "delivery_rate,mean_delay_s,energy_mj")
        assert len(lines) == 1 + 1 * 2 * 2
        plot_csv = tmp_path / "fig.csv"
        code = cli.main(["plot-data", "--in", str(sweep_csv), "--out", str(plot_csv)])
        assert code == 0
        plines = plot_csv.read_text().strip().splitlines()
        assert len(plines) == 1 + 2

    def test_bad_loads_exit_code(self, config_file, tmp_path):
        code = cli.main(["sweep", "--config", str(config_file), "--loads", "6,x",
                         "--methods", "all", "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("loads", ["inf", "6,nan", "6,-1"])
    def test_non_finite_or_negative_loads_exit_code(self, config_file, tmp_path,
                                                    monkeypatch, loads):
        def no_seed(task):
            raise AssertionError("a seed ran before the loads were checked")
        monkeypatch.setattr(harness, "_seed_rows", no_seed)
        monkeypatch.setenv("AERIS_THREADS", "1")
        code = cli.main(["sweep", "--config", str(config_file), "--loads", loads,
                         "--methods", "all", "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_malformed_thread_count_exit_code(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("AERIS_THREADS", "two")
        code = cli.main(["sweep", "--config", str(config_file), "--loads", "6",
                         "--methods", "all", "--seeds", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("body", [
        "",
        "load,method,seed\n6.0,predictive,0\n",
        "load,method,seed,interference_mw_s,interference_db,delivery_rate,mean_delay_s,"
        "energy_mj\nsix,predictive,0,1.0,0.0,1.0,1.0,1.0\n",
        # a method plot-data cannot order once ended it in a ValueError
        "load,method,seed,interference_mw_s,interference_db,delivery_rate,mean_delay_s,"
        "energy_mj\n6.0,foo,0,1.0,0.0,1.0,1.0,1.0\n",
    ])
    def test_malformed_sweep_csv_exit_code(self, tmp_path, body):
        bad = tmp_path / "sweep.csv"
        bad.write_text(body)
        code = cli.main(["plot-data", "--in", str(bad), "--out", str(tmp_path / "f.csv")])
        assert code == 2

    def test_methods_all(self, config_file, tmp_path):
        out = tmp_path / "sweep_all.csv"
        code = cli.main(["sweep", "--config", str(config_file), "--loads", "6",
                         "--methods", "all", "--seeds", "1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 3
