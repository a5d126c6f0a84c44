"""Command-line entry points: simulate, compare, export-cdf.

Exit codes: 0 on success, 2 for configuration/input errors, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import InputError, open_text, read_rows

SE_BLOCKS_HEADER = "block,ue_id,se,g"


class RunFileError(InputError):
    """Malformed file of a finished run; the message names the file and line."""


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap threshold at 32 MB and its trim threshold at 64 MB.

    A block's evaluation allocates and frees draw chunks and precoding
    temporaries of up to a few MB, chunk after chunk. Under glibc's dynamic
    thresholds the first of them are mmapped, and later the heap is trimmed
    each time a chunk's arrays are freed, so every chunk faults its pages in
    again: a desk compare (M = 100, K = 20, n_mc = 500, 2 blocks) took
    about 35,000 page faults instead of 8,000, and 40-60 ms more system
    time. Called first, before numpy is imported, so that every array
    starts out under the fixed thresholds; a capped-scale compare (M = 400,
    K = 80) peaked about 2.5 MB higher with the call made after argument
    parsing. Does nothing off Linux.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):
            return
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# simulate and compare import the simulator modules when they run, so that
# export-cdf, which only reads and writes text, starts no numpy
def _load(args):
    """The run's ExperimentConfig: the config file with the command line's overrides."""
    from dataclasses import replace

    from . import harness as hn

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
    from . import evaluation as ev
    from . import harness as hn

    cfg = _load(args)
    report = hn.run_experiment(cfg)
    out = os.path.join(cfg.out_dir, report.algorithm)
    ev.write_report(report, out)
    print(f"wrote {out}/report.txt (sum rate {report.sum_rate:.4g} bit/s, jain {report.jain:.4f})")
    return 0


def _cmd_compare(args) -> int:
    from . import evaluation as ev
    from . import harness as hn

    cfg = _load(args)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise hn.ConfigError("--algorithms must name at least one algorithm")
    reports = hn.compare_algorithms(cfg, algorithms)
    for name, rep in reports.items():
        ev.write_report(rep, os.path.join(cfg.out_dir, name))
    table = hn.comparison_table(reports)
    path = os.path.join(cfg.out_dir, "comparison.csv")
    with open(path, "w") as f:
        f.write(table)
    print(table, end="")
    print(f"wrote {path}")
    return 0


def export_cdf(run_dir) -> list[float]:
    """Write ``cdf.csv``, the empirical CDF of a finished run's per-UE-per-block SE.

    Reads the SE column of the run's ``se_blocks.csv`` and writes rows
    ``se,cdf`` in ascending SE, the i-th of n at ordinate i/n. Returns the
    sorted SE values. A file that is not UTF-8 text, a header other than
    ``block,ue_id,se,g``, no rows, or a row that is not four fields with a
    finite SE raises RunFileError, and nothing is written.
    """
    raw = os.path.join(run_dir, "se_blocks.csv")
    if not os.path.exists(raw):
        raise FileNotFoundError(f"no raw SE file at {raw}")
    values = []
    with open_text(raw, RunFileError) as f:
        if f.readline().strip() != SE_BLOCKS_HEADER:
            raise RunFileError(f"{raw}:1: expected header '{SE_BLOCKS_HEADER}'")
        rows = read_rows(f, raw, SE_BLOCKS_HEADER, (str, str, float, str), RunFileError, start=2)
        for ln, row, (_, _, se, _) in rows:
            if not math.isfinite(se):
                raise RunFileError(f"{raw}:{ln}: non-finite SE in {row!r}")
            values.append(se)
    if not values:
        raise RunFileError(f"{raw}: no SE rows")
    values.sort()
    n = len(values)
    with open(os.path.join(run_dir, "cdf.csv"), "w") as f:
        f.write("se,cdf\n")
        f.writelines(f"{v:.10g},{i / n:.10g}\n" for i, v in enumerate(values, start=1))
    return values


def _cmd_export_cdf(args) -> int:
    values = export_cdf(args.run)
    print(f"wrote {os.path.join(args.run, 'cdf.csv')} ({len(values)} samples)")
    return 0


def main(argv=None) -> int:
    _pin_malloc_thresholds()
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
    except Exception as e:
        if isinstance(e, (InputError, FileNotFoundError)):
            print(f"config error: {e}", file=sys.stderr)
            return 2
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
