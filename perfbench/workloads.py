"""The benchmark's workloads and one measured pass over them.

Inputs are fixed: every pass of a workload builds the same worlds and runs the
same (run seed, load, method) triples on them. The workload seed only
permutes the order in which worlds, and the runs on each world, execute, so
each pass yields the same output digest whatever the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from tracing import TimedEvents

SHORT_DEADLINE_S = 2.0
# Host speed is the median reference-kernel time of a run; timings are scaled to
# a host on which the kernel takes this long (see DESIGN.md, "Host drift").
REFERENCE_NOMINAL_S = 0.008


@dataclass(frozen=True)
class Workload:
    scenario: dict  # keyword arguments to gen_default_scenario(0, ...)
    worlds: tuple  # ((world seed, (run seed, ...)), ...)
    loads: tuple  # flows/min; every run seed runs every load with every method


WORKLOADS = {
    # the acceptance sweep's shape: paired seeds, a world per seed, 5 loads x 3 methods
    "corridor-sweep": Workload({}, ((0, (0,)), (1, (1,))), (1.0, 2.0, 4.0, 8.0, 16.0)),
    # short deadlines at a high rate; two worlds with one run seed each keep a pass
    # near 16 s, so a 60 s run holds three or more passes and each deadline class
    # still has >= 100 flows per pass
    "peak-load": Workload({"frac_short_deadline": 0.5, "load_per_min": 64.0},
                          ((0, (2,)), (1, (3,))), (64.0,)),
}


@dataclass
class PassResult:
    """Timings, outputs and checks of one pass over a workload."""

    wall_s: float = 0.0
    seconds: dict = field(default_factory=dict)  # ("build", w) | ("run", w, s, load, m) -> s
    flows: dict = field(default_factory=dict)  # run key -> flows attempted
    latency: dict = field(default_factory=dict)  # (w, s, load, flow) -> (deadline_s, s)
    rows: dict = field(default_factory=dict)  # run key -> MetricsReport
    totals: Counter = field(default_factory=Counter)  # event counts over the pass
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)  # kernel time before each unit


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop plus small numpy products. None of it
    is aeris code, so a change to aeris cannot move it; only the host can."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(1200):
        acc += float((a @ a).sum())
    return time.perf_counter() - t0


def _bits(report) -> tuple:
    """The report's fields with floats as exact hex strings (nan-safe equality)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


def _row_values(report) -> tuple:
    return (report.interference_mw_s, report.interference_db, report.delivery_rate,
            report.mean_delay_s, report.mean_energy_mj)


def _check_run(harness, report, events) -> str | None:
    """Why the run's output is wrong, or None when every check passes."""
    if _bits(harness.replay_metrics(events)) != _bits(report):
        return "replay_metrics(events) differs from the report"
    if not all(math.isfinite(v) for v in _row_values(report)):
        return f"non-finite row {_row_values(report)}"
    if len(events.flow_latencies()) != report.n_flows:
        return "a flow has no outcome event"
    return None


def run_pass(harness, config, wl: Workload, rng, tracer=None) -> PassResult:
    """Build every world of the workload and run its runs, in an order drawn from rng."""
    res = PassResult()
    digest_parts = []
    t_pass = time.perf_counter()
    worlds = list(wl.worlds)
    rng.shuffle(worlds)
    for w, run_seeds in worlds:
        runs = [(s, load, m) for s in run_seeds for load in wl.loads for m in harness.METHODS]
        rng.shuffle(runs)
        res.attempted += 1 + len(runs)
        if tracer is not None:
            tracer.events, tracer.world_seed = None, w
        res.reference_s.append(reference_kernel())
        try:
            t0 = time.perf_counter()
            world = harness.build_world(config, w)
            res.seconds[("build", w)] = time.perf_counter() - t0
        except Exception as e:  # a failed build fails its runs too
            res.failed += 1 + len(runs)
            res.errors.append(f"build_world(seed {w}): {e!r}")
            continue
        for s, load, m in runs:
            key = ("run", w, s, load, m)
            res.reference_s.append(reference_kernel())
            events = TimedEvents(s, m)
            if tracer is not None:
                tracer.events = events
            try:
                t0 = time.perf_counter()
                report = harness.run(config, m, s, events=events, world=world,
                                     load_per_min=load)
                res.seconds[key] = time.perf_counter() - t0
            except Exception as e:
                res.failed += 1
                res.errors.append(f"run{key[1:]}: {e!r}")
                continue
            problem = _check_run(harness, report, events)
            if problem:
                res.failed += 1
                res.errors.append(f"run{key[1:]}: {problem}")
            res.flows[key] = report.n_flows
            res.rows[key] = report
            if m == "predictive":
                for f, lat in events.flow_latencies().items():
                    res.latency[(w, s, load, f)] = lat
            res.totals.update(ev["type"] for ev in events)
            res.totals["delivered"] += report.n_delivered
            blob = json.dumps(list(events), sort_keys=True, default=repr).encode()
            digest_parts.append((key, _bits(report), hashlib.sha256(blob).hexdigest()))
        del world
    if tracer is not None:
        tracer.events = tracer.world_seed = None
    res.wall_s = time.perf_counter() - t_pass
    res.digest = hashlib.sha256(repr(sorted(digest_parts)).encode()).hexdigest()
    return res


def _median_over(passes, key) -> float:
    return statistics.median(p.seconds[key] for p in passes if key in p.seconds)


def host_factor(passes) -> float:
    """How much slower than nominal the host ran: median kernel time / nominal."""
    return statistics.median(t for p in passes for t in p.reference_s) / REFERENCE_NOMINAL_S


def end_to_end(passes, wl: Workload, peak_rss_mb: float, host: float = 1.0) -> dict:
    """The end-to-end metrics of a run. Each timing is first the median of one
    unit (a world build, a run, a flow) over the passes, then pooled over units,
    then divided by `host` (see host_factor)."""
    first = passes[0]
    out = {}
    build = {w: _median_over(passes, ("build", w)) / host for w, _ in wl.worlds}
    run_keys = sorted(first.rows)
    run_s = {k: _median_over(passes, k) / host for k in run_keys}
    out["setup_s"] = statistics.fmean(build.values())
    out["sweep_seeds_per_s"] = len(build) / (
        sum(build.values()) + sum(run_s.values()))
    for m, short in (("predictive", "predictive"), ("baseline_aggregate", "aggregate"),
                     ("baseline_spacetime", "spacetime")):
        keys = [k for k in run_keys if k[4] == m]
        out[f"{short}_flows_per_s"] = sum(first.flows[k] for k in keys) / sum(
            run_s[k] for k in keys)
    for cls, pick in (("short", lambda d: d <= SHORT_DEADLINE_S),
                      ("long", lambda d: d > SHORT_DEADLINE_S)):
        per_flow = [statistics.median(p.latency[k][1] for p in passes) / host
                    for k, (d, _) in sorted(first.latency.items()) if pick(d)]
        p50, p90 = np.percentile(per_flow, [50, 90])
        out[f"predictive_{cls}_ms_p50"] = 1e3 * float(p50)
        out[f"predictive_{cls}_ms_p90"] = 1e3 * float(p90)
    out["peak_rss_mb"] = peak_rss_mb
    pred = [first.rows[k] for k in run_keys if k[4] == "predictive"]
    out["predictive_delivery_rate"] = sum(r.n_delivered for r in pred) / sum(
        r.n_flows for r in pred)
    top = max(wl.loads)

    def median_interference(method):
        return statistics.median(first.rows[k].interference_mw_s for k in run_keys
                                 if k[3] == top and k[4] == method)

    pred_top = median_interference("predictive")
    out["gap_db_vs_aggregate"] = 10 * math.log10(median_interference("baseline_aggregate")
                                                 / pred_top)
    out["gap_db_vs_spacetime"] = 10 * math.log10(median_interference("baseline_spacetime")
                                                 / pred_top)
    return out


def sample_counts(passes) -> dict:
    """How many units each pooled end-to-end figure rests on."""
    first = passes[0]
    short = sum(1 for d, _ in first.latency.values() if d <= SHORT_DEADLINE_S)
    return {"passes": len(passes), "world_builds": sum(k[0] == "build" for k in first.seconds),
            "runs": len(first.rows), "predictive_short_flows": short,
            "predictive_long_flows": len(first.latency) - short}
