"""Golden outputs: a hash of every event log and metrics report in a fixed check set.

    PYTHONPATH=src python3 tests/golden.py

rewrites tests/golden.json from the code in ./src. tests/test_golden.py
recomputes every entry and names the runs whose outputs moved. A change that
moves outputs on purpose commits the rewritten file.

The check set:

* every run of both perfbench workloads (36 runs), whose hashes also give each
  workload's perfbench output digest, computed as `perfbench/workloads.py` does;
* the mini world at loads 12 and 30 with all three methods;
* the mini-world cascade grid, predictive only: blockage thresholds -70, -80,
  -88 and -97 dB x region radii 50 and 400 m x loads 12 and 30, the only part
  that reaches local detours and escalation replans.

For each run it stores the sha256 of `json.dumps(events, sort_keys=True)` and
the sha256 of the metrics report with its floats as exact hex strings.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")

MINI_LOADS = (12.0, 30.0)
THRESHOLDS_DB = (-70.0, -80.0, -88.0, -97.0)
RADII_M = (50.0, 400.0)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _perfbench():
    """The benchmark's workloads and its report-to-hex function, so the digests
    here are computed as the benchmark computes them."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.WORKLOADS, workloads._bits


def mini_config():
    """The small world the harness tests share."""
    from aeris.harness import gen_default_scenario

    cfg = gen_default_scenario(seed=1, n_aircraft=8, n_buildings=8, horizon_s=40.0)
    return replace(cfg, sampling_period_s=2.0, load_per_min=12.0)


def compute() -> dict:
    """{"runs": {name: {"events", "metrics"}}, "perfbench": {workload: digest}}."""
    from aeris import harness

    perfbench_workloads, _bits = _perfbench()
    runs, digests, worlds = {}, {}, {}

    def world_for(cfg, w):
        # only draw_flows reads these two fields, so workloads that differ in
        # nothing else share their worlds
        key = (replace(cfg, frac_short_deadline=0.0, load_per_min=0.0).to_json(), w)
        if key not in worlds:
            worlds[key] = harness.build_world(cfg, w)
        return worlds[key]

    def one(name, cfg, method, seed, world, load):
        events = []
        report = harness.run(cfg, method, seed, events=events, world=world, load_per_min=load)
        blob = json.dumps(events, sort_keys=True).encode()
        runs[name] = {"events": _sha(blob), "metrics": _sha(repr(_bits(report)).encode())}
        return report, blob

    for wl_name, wl in sorted(perfbench_workloads.items()):
        cfg = harness.gen_default_scenario(0, **wl.scenario)
        parts = []
        for w, run_seeds in wl.worlds:
            world = world_for(cfg, w)
            for s, load, m in itertools.product(run_seeds, wl.loads, harness.METHODS):
                report, blob = one(f"{wl_name}/world{w}/seed{s}/load{load:g}/{m}",
                                   cfg, m, s, world, load)
                parts.append((("run", w, s, load, m), _bits(report), _sha(blob)))
        digests[wl_name] = _sha(repr(sorted(parts)).encode())

    cfg = mini_config()
    world = world_for(cfg, 0)
    for load, m in itertools.product(MINI_LOADS, harness.METHODS):
        one(f"mini/load{load:g}/{m}", cfg, m, 0, world, load)
    for threshold, radius, load in itertools.product(THRESHOLDS_DB, RADII_M, MINI_LOADS):
        grid_cfg = replace(cfg, blockage_threshold_db=threshold, region_radius_m=radius)
        one(f"cascade/threshold{threshold:g}/radius{radius:g}/load{load:g}",
            grid_cfg, "predictive", 0, world, load)
    return {"runs": runs, "perfbench": digests}


def moved(want: dict, got: dict) -> list:
    """Names of the runs and perfbench workloads whose hashes differ, or that
    only one side holds."""
    out = []
    for section in ("runs", "perfbench"):
        a, b = want.get(section, {}), got.get(section, {})
        out += [f"{section}:{k}" for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    return out


def main() -> int:
    got = compute()
    if GOLDEN.exists():
        for name in moved(json.loads(GOLDEN.read_text()), got):
            print(f"moved: {name}")
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(got['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
