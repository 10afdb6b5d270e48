"""Command-line interface.

Subcommands: gen-scenario, run, sweep, plot-data. Exit codes: 0 on success,
2 on a configuration error, 3 when the scenario is infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigInvalid, GenerationFailed, InfeasibleSchedule, NoFeasiblePath
from .harness import (METHODS, ScenarioConfig, gen_default_scenario, plot_data,
                      plot_data_to_csv, run, sweep, sweep_from_csv, sweep_to_csv)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aeris",
                                description="Predictive low-altitude network simulator")
    sub = p.add_subparsers(dest="command", required=True)

    # flags left out fall back to gen_default_scenario's own defaults
    g = sub.add_parser("gen-scenario", help="generate a scenario config document",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--buildings", dest="n_buildings", type=int)
    g.add_argument("--aircraft", dest="n_aircraft", type=int)
    g.add_argument("--sensitive", dest="n_sensitive", type=int)
    g.add_argument("--sources", dest="n_sources", type=int)
    g.add_argument("--destinations", dest="n_destinations", type=int)
    g.add_argument("--horizon", dest="horizon_s", type=float)
    g.add_argument("--dt", type=float)
    g.add_argument("--load", dest="load_per_min", type=float)
    g.add_argument("--frac-short", dest="frac_short_deadline", type=float)

    r = sub.add_parser("run", help="run one scenario with one method")
    r.add_argument("--config", required=True)
    r.add_argument("--method", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--events", default=None, help="optional JSON-lines event log")

    s = sub.add_parser("sweep", help="load sweep over methods and seeds")
    s.add_argument("--config", required=True)
    s.add_argument("--loads", required=True, help="comma list, flows per minute")
    s.add_argument("--methods", required=True, help="comma list or 'all'")
    s.add_argument("--seeds", type=int, required=True)
    s.add_argument("--out", required=True)

    d = sub.add_parser("plot-data", help="median + IQR per load/method from a sweep CSV")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-scenario":
            opts = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            cfg = gen_default_scenario(**opts)
            with open(args.out, "w") as f:
                f.write(cfg.to_json())
        elif args.command == "run":
            with open(args.config) as f:
                cfg = ScenarioConfig.from_json(f.read())
            events = [] if args.events else None
            report = run(cfg, args.method, args.seed, events=events)
            with open(args.out, "w") as f:
                f.write(report.to_json())
            if args.events:
                with open(args.events, "w") as f:
                    for ev in events:
                        f.write(json.dumps(ev, sort_keys=True) + "\n")
        elif args.command == "sweep":
            with open(args.config) as f:
                cfg = ScenarioConfig.from_json(f.read())
            try:
                loads = [float(x) for x in args.loads.split(",")]
            except ValueError:
                raise ConfigInvalid("loads", f"not a number list: {args.loads!r}") from None
            methods = list(METHODS) if args.methods == "all" else args.methods.split(",")
            rows = sweep(cfg, loads, methods, args.seeds)
            sweep_to_csv(rows, args.out)
        elif args.command == "plot-data":
            rows = sweep_from_csv(args.infile)
            plot_data_to_csv(plot_data(rows), args.out)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (GenerationFailed, NoFeasiblePath, InfeasibleSchedule) as e:
        print(f"infeasible scenario: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
