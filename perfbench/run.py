"""Benchmark of aeris, end to end and per layer.

    python3 perfbench/run.py --workload corridor-sweep --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout: it imports aeris from ./src and reads the
metric list from ./BENCHMARK.json. It repeats identical passes over the
workload until --seconds is used up (at least two), checks every run's
outputs, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. --trace 0 prints the end-to-end metrics.
--trace 1 alternates traced and untraced passes and prints the per-layer
metrics instead. A machine record is printed above the result and written, with
the spans of the last traced pass, to ./.perfbench_out/. perfbench/DESIGN.md
explains the choices.
"""

import os

# One thread everywhere: the workloads are single-process (set before numpy loads).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "AERIS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 2
OUT_DIR = Path(".perfbench_out")


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "aeris" / "__init__.py").is_file():
        print("perfbench: run from the root of an aeris checkout (no src/aeris here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())

    from aeris import harness
    from tracing import Tracer
    from workloads import WORKLOADS, end_to_end, host_factor, run_pass, sample_counts

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    machine = machine_record()
    config = harness.gen_default_scenario(0, **wl.scenario)
    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None

    passes, traced, layer = [], [], []
    t_start = time.perf_counter()
    while True:
        # traced runs alternate traced and untraced passes, starting traced
        trace_this = tracer is not None and len(traced) <= len(passes)
        if trace_this:
            tracer.reset()
            with tracer.installed():
                p = run_pass(harness, config, wl, rng, tracer)
            traced.append(p)
            layer.append(tracer.layer_stats())
        else:
            p = run_pass(harness, config, wl, rng)
            passes.append(p)
        if tracer is None:
            done = len(passes) >= MIN_PASSES
        else:
            done = len(traced) >= MIN_PASSES and len(passes) >= 1
        if done and time.perf_counter() - t_start + p.wall_s > args.seconds:
            break

    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    digests = sorted({p.digest for p in every})
    correct = failed == 0 and len(digests) == 1
    errors = [e for p in every for e in p.errors]
    if tracer is not None and any(c != layer[0][0] for c, _ in layer):
        correct = False
        errors.append("per-layer counts differ between traced passes")

    if failed:  # incomplete passes: report the failure, not partial figures
        values, names = {}, []
    elif tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(passes, wl, rss_mb, host_factor(passes))
        machine["as_timed"] = end_to_end(passes, wl, rss_mb)
        names = spec["end_to_end"]
    else:
        counts, _ = layer[0]
        seconds = {k: statistics.median(s[k] for _, s in layer) for k in layer[0][1]}
        totals = traced[0].totals
        values = {**counts, **seconds,
                  "radio_env.truth.pairs_per_s":
                      counts["radio_env.truth.pairs"] / seconds["radio_env.truth.s"],
                  "radio_env.map_query.rows_per_s":
                      counts["radio_env.map_query.rows"] / seconds["radio_env.map_query.s"],
                  "harness.flows": totals["flow"], "harness.delivered": totals["delivered"],
                  "harness.transmissions": totals["transmission"],
                  "harness.reroutes": totals["reroute"],
                  "trace.overhead_ratio": statistics.median(p.wall_s for p in traced)
                  / statistics.median(p.wall_s for p in passes) - 1.0}
        names = spec["per_layer"]
    missing = sorted({m["name"] for m in names} - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in names}

    machine.update({
        "loadavg_after": os.getloadavg(),
        "host_factor": host_factor(every),
        "reference_kernel_s_per_pass": [statistics.median(p.reference_s) for p in every],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - t_start,
        "pass_wall_s": [p.wall_s for p in passes],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "digests": digests, "samples": sample_counts(passes or traced),
        "errors": errors[:20],
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"machine": machine, "result": result},
                                                    indent=1))
    if tracer is not None:
        with open(stem.with_suffix(".spans.tsv"), "w") as f:
            f.write("name\tstart\tend\tparent\tseed\tmethod\tflow\trows\tflagged\n")
            for sp in tracer.spans:
                f.write("\t".join(map(str, sp)) + "\n")
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
