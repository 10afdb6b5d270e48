"""Per-layer tracing of aeris from the benchmark's own files.

Each traced entry point is wrapped where its caller looks it up: the names
`aeris.harness` imported from the layer modules, `echelon.local_mean_series`
as both harness and tactical see it, the tactical entry points on their
module, and the two batch kernels (`GroundTruthChannel.gain_db_many`,
`RadioMap.query_many`) on their classes. `scene.los_blocked` is not wrapped:
it runs once per truth row, so the truth kernel's row count stands in for it.

A span is [name, start, end, parent, seed, method, flow, rows, flagged]. The
seed, method and flow come from the run's `TimedEvents` list, which follows
the `meta` and `flow` events as the run appends them. Spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, SEED, METHOD, FLOW, ROWS, FLAGGED = range(9)


class TimedEvents(list):
    """A run's event list that stamps each event with `perf_counter()` when it
    is appended and remembers which seed, method and flow are current."""

    def __init__(self, seed=None, method=None):
        super().__init__()
        self.stamps = []
        self.seed, self.method, self.flow = seed, method, None

    def append(self, ev):
        self.stamps.append(time.perf_counter())
        kind = ev["type"]
        if kind == "meta":
            self.seed, self.method = ev["seed"], ev["method"]
        elif kind == "flow":
            self.flow = ev["flow"]
        super().append(ev)

    def flow_latencies(self) -> dict:
        """flow index -> (deadline_s, seconds from its `flow` to its `outcome` event)."""
        start, out = {}, {}
        for ev, t in zip(self, self.stamps):
            if ev["type"] == "flow":
                start[ev["flow"]] = (ev["deadline_s"], t)
            elif ev["type"] == "outcome":
                deadline, t0 = start[ev["flow"]]
                out[ev["flow"]] = (deadline, t - t0)
        return out


def _links(graph) -> int:
    return int(np.isfinite(graph.weights).sum()) // 2


def _patch_table():
    """(owner, attribute, span name, rows(result), flagged(result), flagged exceptions)."""
    from aeris import echelon, harness, radio_env, tactical, trajectory
    from aeris.errors import EscalateToStrategic, InfeasibleSchedule, NoFeasiblePath

    no_path = (NoFeasiblePath, ValueError)  # the harness treats both as "no path"
    return [
        (radio_env.GroundTruthChannel, "gain_db_many", "radio_env.truth", len, None, ()),
        (radio_env.RadioMap, "query_many", "radio_env.map_query", len, None, ()),
        (harness, "sample_along", "radio_env.sample", len, None, ()),
        (harness, "sample_between", "radio_env.sample", len, None, ()),
        (harness, "sample_ground_pairs", "radio_env.sample", len, None, ()),
        (harness, "build_map", "radio_env.build_map", lambda m: len(m.samples), None, ()),
        (trajectory, "realize", "trajectory.realize", None, None, ()),
        (harness, "synthesize", "channel_graph.synthesize", _links, None, ()),
        (harness, "prepare_planner", "strategic.prepare_planner", None, None, ()),
        (harness, "build_world", "harness.build_world", None, None, ()),
        (harness, "run", "harness.run", None, None, ()),
        (harness, "reserve_path", "strategic.reserve_path", None, None, no_path),
        (harness, "min_delay_reservation", "strategic.min_delay_reservation", None, None,
         no_path),
        (harness, "baseline_aggregate", "harness.baseline_aggregate", None, None, ()),
        (echelon, "local_mean_series", "echelon.local_mean_series", len, None, ()),
        (tactical, "local_mean_series", "echelon.local_mean_series", len, None, ()),
        (tactical, "detect_blockage", "tactical.detect_blockage", None, bool, ()),
        (tactical, "schedule_timing", "tactical.schedule_timing", None, None,
         (InfeasibleSchedule,)),
        (tactical, "reroute_local", "tactical.reroute_local", None, None,
         (EscalateToStrategic,)),
        (harness, "cap_power", "operational.cap_power", None, lambda d: not d.transmit, ()),
    ]


class Tracer:
    """Collects spans and call counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.events = None  # TimedEvents of the run in progress, None while building
        self.world_seed = None
        self._stack = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, name, fn, rows, flag, flagged_exc):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ev = self.events
            tags = (ev.seed, ev.method, ev.flow) if ev is not None \
                else (self.world_seed, None, None)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, *tags, 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except flagged_exc:
                span[FLAGGED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if rows is not None:
                span[ROWS] = rows(out)
            if flag is not None:
                span[FLAGGED] = bool(flag(out))
            return out

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        from aeris import harness

        patches = [(owner, attr, self._wrap(name, getattr(owner, attr), rows, flag, exc))
                   for owner, attr, name, rows, flag, exc in _patch_table()]
        patches.append((harness, "required_power_dbm",
                        self._count("operational.required_power_dbm.calls",
                                    harness.required_power_dbm)))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layer_stats(self) -> tuple:
        """(counts, seconds) for this pass. Counts must repeat exactly from pass
        to pass; seconds are inclusive span time except `harness.run.*.self_s`,
        which is run time outside every child span."""
        calls, rows, flagged, secs = Counter(), Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            dur = sp[END] - sp[START]
            name = sp[NAME]
            calls[name] += 1
            rows[name] += sp[ROWS]
            flagged[name] += sp[FLAGGED]
            secs[name] += dur
            if sp[PARENT] >= 0:
                child[sp[PARENT]] += dur
        run_self = Counter()
        for sp, inner in zip(self.spans, child):
            if sp[NAME] == "harness.run":
                run_self[sp[METHOD]] += sp[END] - sp[START] - inner

        def ratio(name):
            return flagged[name] / calls[name] if calls[name] else 0.0

        def per_call(name):
            return rows[name] / calls[name] if calls[name] else 0.0

        counts = {
            "radio_env.truth.pairs": rows["radio_env.truth"],
            "radio_env.truth.rows_per_call": per_call("radio_env.truth"),
            "radio_env.sample.samples": rows["radio_env.sample"],
            "radio_env.map.points": rows["radio_env.build_map"],
            "radio_env.map_query.calls": calls["radio_env.map_query"],
            "radio_env.map_query.rows": rows["radio_env.map_query"],
            "radio_env.map_query.rows_per_call": per_call("radio_env.map_query"),
            "channel_graph.links": rows["channel_graph.synthesize"],
            "strategic.reserve_path.calls": calls["strategic.reserve_path"],
            "strategic.reserve_path.infeasible_ratio": ratio("strategic.reserve_path"),
            "strategic.min_delay_reservation.calls": calls["strategic.min_delay_reservation"],
            "strategic.min_delay_reservation.infeasible_ratio":
                ratio("strategic.min_delay_reservation"),
            "echelon.local_mean_series.calls": calls["echelon.local_mean_series"],
            "echelon.local_mean_series.rows": rows["echelon.local_mean_series"],
            "tactical.detect_blockage.calls": calls["tactical.detect_blockage"],
            "tactical.detect_blockage.blocked_ratio": ratio("tactical.detect_blockage"),
            "tactical.schedule_timing.calls": calls["tactical.schedule_timing"],
            "tactical.schedule_timing.infeasible_ratio": ratio("tactical.schedule_timing"),
            "tactical.reroute_local.calls": calls["tactical.reroute_local"],
            "tactical.reroute_local.escalation_ratio": ratio("tactical.reroute_local"),
            "operational.cap_power.calls": calls["operational.cap_power"],
            "operational.cap_power.defer_ratio": ratio("operational.cap_power"),
            **self.counts,
        }
        seconds = {f"{name}.s": secs[name] for name in (
            "radio_env.truth", "radio_env.sample", "radio_env.build_map",
            "radio_env.map_query", "trajectory.realize", "channel_graph.synthesize",
            "strategic.prepare_planner", "harness.build_world", "strategic.reserve_path",
            "strategic.min_delay_reservation", "echelon.local_mean_series",
            "tactical.detect_blockage", "tactical.schedule_timing", "tactical.reroute_local",
            "operational.cap_power", "harness.baseline_aggregate")}
        seconds.update({f"harness.run.{m}.self_s": s for m, s in run_self.items()})
        return counts, seconds
