"""Alternating A/B timings of a change against a parent checkout, end to end.

    python3 tools/e2e_pairs.py --parent ../parent --out BENCH_new.json

Run it from the root of the change's checkout. --parent is a checkout of the
commit to compare against, made for example with `git worktree add ../parent
HEAD~1` or `git archive HEAD~1 | tar -x -C ../parent`. Every measurement runs
in a fresh process, once per side and pair, and the side that goes first
alternates from pair to pair (the parent first in even pairs, counting from 0).
It measures:

* the acceptance sweep: `harness.sweep(gen_default_scenario(0), loads
  1/2/4/8/16, all three methods, 20 seeds)` at AERIS_THREADS=1 and at 2, 3
  pairs each, wall time in the child from before aeris is imported (import
  work a change moves into the run counts on both sides alike), with the rows
  hashed (floats as hex) so sides and thread counts can be compared;
* Tier-1: ROADMAP's pytest command, 2 pairs, wall time of the child and its
  summary;
* perfbench: 10 pairs of `perfbench/run.py --seconds 60 --trace 0` per
  workload, with seeds 601, 602, ..., and one `--trace 1` run per workload and
  side, with seed 700.

It also records each side's line counts, as `wc -l` gives them, of
`src/aeris/*.py` and `tests/*.py`: per file and in total.

The sweep and Tier-1 timings are raw wall times: the alternating pairs,
not a host reading, are what makes the two sides comparable. perfbench's own
figures are recorded as it reports them. The result, with a summary per
metric (medians, quartiles, the pairs the change wins), is written to --out
as JSON. Nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# perfbench's run length and the pairs taken of each measurement
SECONDS = 60.0
PERFBENCH_PAIRS = 10
SWEEP_PAIRS = 3
TIER1_PAIRS = 2
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SWEEP = """
import hashlib, json, time
t0 = time.perf_counter()
from aeris import harness
cfg = harness.gen_default_scenario(0)
rows = harness.sweep(cfg, [1.0, 2.0, 4.0, 8.0, 16.0], list(harness.METHODS), 20)
wall = time.perf_counter() - t0
blob = json.dumps([{k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
                   for r in rows], sort_keys=True).encode()
print(json.dumps({"wall_s": wall, "rows": len(rows),
                  "rows_sha256": hashlib.sha256(blob).hexdigest()}))
"""


def child(root: Path, cmd: list, threads: int = 1) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "AERIS_THREADS": str(threads)}
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)


def sweep(root: Path, threads: int) -> dict:
    proc = child(root, [sys.executable, "-c", SWEEP], threads)
    if proc.returncode:
        raise RuntimeError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(root: Path) -> dict:
    t0 = time.perf_counter()
    proc = child(root, TIER1)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1],
            "returncode": proc.returncode}


def perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    proc = child(root, [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)])
    if proc.returncode:
        raise RuntimeError(proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    machine = json.loads((root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                         .read_text())["machine"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digests": machine["digests"],
            "host_factor": machine["host_factor"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def line_counts(root: Path) -> dict:
    """Newlines per file, as `wc -l` counts them, and their total, for each
    of src/aeris/*.py and tests/*.py."""
    out = {}
    for pattern in ("src/aeris/*.py", "tests/*.py"):
        files = {p.name: p.read_bytes().count(b"\n") for p in sorted(root.glob(pattern))}
        out[pattern] = {"files": files, "total": sum(files.values())}
    return out


def pairs(n: int, sides: dict, measure) -> list:
    """n alternating pairs of measure(root) over the two sides."""
    out = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = measure(sides[side], i)
            print(f"  pair {i} {side}: {json.dumps(pair[side])[:160]}", file=sys.stderr)
        out.append(pair)
    return out


def summary(pair_list: list, value, better: str) -> dict:
    """Medians, quartiles and wins of value(side result) over the pairs."""
    if not pair_list:
        return {"pairs": 0}
    a = np.array([value(p["parent"]) for p in pair_list], dtype=float)
    b = np.array([value(p["change"]) for p in pair_list], dtype=float)
    q1, q3 = np.percentile(a, [25, 75])
    wins = int(np.sum(b < a if better == "lower" else b > a))
    return {"parent_median": float(np.median(a)), "parent_q1": float(q1), "parent_q3": float(q3),
            "change_median": float(np.median(b)), "change_wins": wins,
            "ties": int(np.sum(a == b)), "pairs": len(pair_list),
            "median_change_rel": float(np.median(b) / np.median(a) - 1.0),
            "parent_iqr": float(q3 - q1),
            "median_diff_exceeds_parent_iqr": bool(abs(np.median(b) - np.median(a)) > q3 - q1),
            "bit_equal": bool(np.array_equal(a, b))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"what": __doc__.split("\n\n")[2].replace("\n", " "),
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "loadavg_before": os.getloadavg()},
              "perfbench": {}, "summary": {},
              "lines": {side: line_counts(root) for side, root in sides.items()}}

    for wl in WORKLOADS:
        print(f"perfbench {wl}", file=sys.stderr)
        untraced = pairs(PERFBENCH_PAIRS, sides, lambda root, i, wl=wl: perfbench(
            root, wl, 601 + i, 0))
        traced = pairs(1, sides, lambda root, i, wl=wl: perfbench(root, wl, 700, 1))
        record["perfbench"][wl] = {"untraced": untraced, "traced": traced}
        record["summary"][wl] = {
            m["name"]: summary(untraced, lambda r, n=m["name"]: r["metrics"][n], m["better"])
            for m in spec["end_to_end"]}
        record["summary"][wl]["all_correct"] = all(
            p[s]["correct"] for p in untraced + traced for s in sides)
        record["summary"][wl]["digests"] = sorted(
            {d for p in untraced + traced for s in sides for d in p[s]["digests"]})

    for threads in (1, 2):
        print(f"acceptance sweep, AERIS_THREADS={threads}", file=sys.stderr)
        runs = pairs(SWEEP_PAIRS, sides, lambda root, i, t=threads: sweep(root, t))
        record[f"acceptance_sweep_threads{threads}"] = runs
        record["summary"][f"acceptance_sweep_threads{threads}"] = {
            "wall_s": summary(runs, lambda r: r["wall_s"], "lower"),
            "rows_sha256": sorted({p[s]["rows_sha256"] for p in runs for s in sides})}

    print("tier-1", file=sys.stderr)
    runs = pairs(TIER1_PAIRS, sides, lambda root, i: tier1(root))
    record["tier1"] = runs
    record["summary"]["tier1"] = {"wall_s": summary(runs, lambda r: r["wall_s"], "lower")}

    record["machine"]["loadavg_after"] = os.getloadavg()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
