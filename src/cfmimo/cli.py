"""Command-line entry points: simulate, compare, export-cdf.

Exit codes: 0 on success, 2 for configuration/input errors, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from . import REPORT_FILES, SE_BLOCKS_HEADER, InputError, open_text, read_rows

#: the table compare writes in out_dir, and the CDF export-cdf writes in a run directory
COMPARISON_FILE, CDF_FILE = "comparison.csv", "cdf.csv"


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


def _check_writes(out_dir: str, files) -> None:
    """Raise InputError ``<path>: cannot write: <reason>`` unless this process
    can write ``files`` (paths under ``out_dir``, "" the current directory),
    making their directories. In turn, out_dir's nearest existing ancestor and
    each existing parent of a file must be a directory it may write and enter,
    then each existing file a file it may write. Nothing is created."""
    top = os.path.abspath(out_dir or ".")
    while not os.path.exists(top):
        top = os.path.dirname(top)
    paths = [os.path.join(out_dir, f) for f in files]
    # (path, the name its refusal gives, whether it must be a directory)
    checks = [(top, out_dir or ".", True), *((d, d, True) for d in map(os.path.dirname, paths))]
    for path, name, is_dir in [*checks, *((p, p, False) for p in paths)]:
        if not os.path.exists(path):
            continue
        if os.path.isdir(path) != is_dir:
            code = errno.ENOTDIR if is_dir else errno.EISDIR
        elif not os.access(path, os.W_OK | os.X_OK if is_dir else os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise InputError(f"{name}: cannot write: {os.strerror(code)}")


def _run(args, algorithms=None) -> int:
    """Run compare_algorithms on the config file with the command line's
    overrides, and write each algorithm's report directory under out_dir.
    ``algorithms=None`` is simulate, a one-algorithm compare: the config's
    algorithm, a summary line and no comparison.csv."""
    # imported here, so that export-cdf, which only reads and writes text, starts no numpy
    from dataclasses import replace

    from . import evaluation as ev
    from . import harness as hn

    cfg = hn.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if args.mobility:
        overrides["mobility_source"] = args.mobility
    # replace() checks the overridden config again: --mobility rwp brings in
    # the rwp rules
    cfg = replace(cfg, **overrides)
    names = hn.check_algorithms(cfg, algorithms or [cfg.algorithm])
    files = [os.path.join(a, f) for a in names for f in REPORT_FILES]
    _check_writes(cfg.out_dir, files if algorithms is None else [*files, COMPARISON_FILE])
    reports = hn.compare_algorithms(cfg, names)
    for name, rep in reports.items():
        ev.write_report(rep, os.path.join(cfg.out_dir, name))
    if algorithms is None:
        rep = reports[cfg.algorithm]
        print(f"wrote {os.path.join(cfg.out_dir, cfg.algorithm)}/report.txt "
              f"(sum rate {rep.sum_rate:.4g} bit/s, jain {rep.jain:.4f})")
        return 0
    table = hn.comparison_table(reports)
    path = os.path.join(cfg.out_dir, COMPARISON_FILE)
    with open(path, "w") as f:
        f.write(table)
    print(table, end="")
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise InputError("--algorithms must name at least one algorithm")
    return _run(args, algorithms)


def export_cdf(run_dir) -> list[float]:
    """Write ``cdf.csv``, the empirical CDF of a finished run's per-UE-per-block SE.

    Reads the SE column of the run's ``se_blocks.csv`` and writes rows
    ``se,cdf`` in ascending SE, the i-th of n at ordinate i/n. Returns the
    sorted SE values. A file that cannot be read or is not UTF-8 text, a
    header other than SE_BLOCKS_HEADER, no rows, or a row that is not
    four fields with a finite SE raises InputError, and nothing is written;
    so does a ``cdf.csv`` that cannot be written, checked first.
    """
    _check_writes(run_dir, [CDF_FILE])
    raw = os.path.join(run_dir, REPORT_FILES[1])
    values = []
    with open_text(raw) as f:
        if f.readline().strip() != SE_BLOCKS_HEADER:
            raise InputError(f"{raw}:1: expected header '{SE_BLOCKS_HEADER}'")
        rows = read_rows(f, raw, SE_BLOCKS_HEADER, (str, str, float, str), start=2)
        for ln, row, (_, _, se, _) in rows:
            if not math.isfinite(se):
                raise InputError(f"{raw}:{ln}: non-finite SE in {row!r}")
            values.append(se)
    if not values:
        raise InputError(f"{raw}: no SE rows")
    values.sort()
    n = len(values)
    with open(os.path.join(run_dir, CDF_FILE), "w") as f:
        f.write("se,cdf\n")
        f.writelines(f"{v:.10g},{i / n:.10g}\n" for i, v in enumerate(values, start=1))
    return values


def _cmd_export_cdf(args) -> int:
    values = export_cdf(args.run)
    print(f"wrote {os.path.join(args.run, CDF_FILE)} ({len(values)} samples)")
    return 0


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = argparse.ArgumentParser(prog="cfmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the options of simulate and compare
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--mobility", choices=("rwp", "file"), default=None,
                     help="override the config's mobility source")

    sub.add_parser("simulate", parents=[run], help="run one experiment").set_defaults(func=_run)

    p_cmp = sub.add_parser("compare", parents=[run], help="run several algorithms on shared realizations")
    p_cmp.add_argument("--algorithms", required=True, help="comma-separated algorithm keys")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cdf = sub.add_parser("export-cdf", help="emit the empirical SE CDF of a finished run")
    p_cdf.add_argument("--run", required=True, help="run directory containing se_blocks.csv")
    p_cdf.set_defaults(func=_cmd_export_cdf)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
