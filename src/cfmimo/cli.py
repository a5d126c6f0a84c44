"""Command-line entry points: simulate, compare, export-cdf.

Exit codes: 0 on success, 2 for configuration/input errors, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import evaluation as ev
from . import harness as hn
from .channel import MapParseError
from .mobility import TrackParseError
from .topology import TopologyParseError

_CONFIG_ERRORS = (hn.ConfigError, TopologyParseError, TrackParseError, MapParseError, FileNotFoundError)


def _load(args) -> hn.ExperimentConfig:
    cfg = hn.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "mobility", None):
        overrides["mobility_source"] = args.mobility
    # replace() checks the overridden config again: --mobility rwp brings in
    # the rwp rules
    return replace(cfg, **overrides)


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    report = hn.run_experiment(cfg)
    out = os.path.join(cfg.out_dir, report.algorithm)
    ev.write_report(report, out)
    print(f"wrote {out}/report.txt (sum rate {report.sum_rate:.4g} bit/s, jain {report.jain:.4f})")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load(args)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise hn.ConfigError("--algorithms must name at least one algorithm")
    reports = hn.compare_algorithms(cfg, algorithms)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, rep in reports.items():
        ev.write_report(rep, os.path.join(cfg.out_dir, name))
    table = hn.comparison_table(reports)
    path = os.path.join(cfg.out_dir, "comparison.csv")
    with open(path, "w") as f:
        f.write(table)
    print(table, end="")
    print(f"wrote {path}")
    return 0


def _cmd_export_cdf(args) -> int:
    values, _ = ev.export_cdf(args.run)
    print(f"wrote {os.path.join(args.run, 'cdf.csv')} ({values.size} samples)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cfmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--mobility", choices=("rwp", "file"), default=None,
                       help="override the config's mobility source")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several algorithms on shared realizations")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--algorithms", required=True, help="comma-separated algorithm keys")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--mobility", choices=("rwp", "file"), default=None,
                       help="override the config's mobility source")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cdf = sub.add_parser("export-cdf", help="emit the empirical SE CDF of a finished run")
    p_cdf.add_argument("--run", required=True, help="run directory containing se_blocks.csv")
    p_cdf.set_defaults(func=_cmd_export_cdf)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
