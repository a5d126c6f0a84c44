"""Desk-scale downlink cell-free massive MIMO simulator.

Topology and mobility generation, a three-slope/map-based channel model with
intra-block aging, a family of user-centric AP selection algorithms, Monte-
Carlo link evaluation with partial MMSE precoding, and a config-driven
experiment harness.

Import what you use from the submodules (``cfmimo.topology``, ``mobility``,
``channel``, ``selection``, ``evaluation``, ``harness``, ``cli``); importing
the package itself loads none of them, so a command starts only what it runs.
"""

from contextlib import contextmanager

__version__ = "0.1.0"

#: header line of a run's se_blocks.csv, which write_report writes and export-cdf reads
SE_BLOCKS_HEADER = "block,ue_id,se,g"
#: the files write_report writes in a report directory, which the CLI checks before a run
REPORT_FILES = ("report.txt", "se_blocks.csv")


class InputError(ValueError):
    """A bad configuration or input file; the CLI exits 2 on it."""


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text whose lines end only at ``\\n``,
    ``\\r\\n`` or ``\\r`` (each read as ``\\n``). A path open refuses raises
    InputError ``<path>: cannot read: <reason>``, and a byte that is not
    UTF-8, met anywhere in the ``with`` block, ``<path>: not UTF-8 text``."""
    try:
        f = open(path, encoding="utf-8")
    except OSError as e:
        raise InputError(f"{path}: cannot read: {e.strerror}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None


def read_rows(f, path, fields, types, start=1):
    """Yield (line number, row, values) for each non-blank line of ``f``.

    Line numbers count from ``start`` and include blank or whitespace-only
    lines, which are skipped; ``#`` starts no comment. ``row`` is the line
    without its line end, split on ``,`` into one field per entry of
    ``types``, and ``values`` are those fields converted by ``types`` after
    ``str.strip``. That strip also takes \\x1c-\\x1f, as ``np.loadtxt`` does
    and ``int`` and ``float`` do not, so both parsers of the path-loss map
    read a number alike. A row of another field count, or a field a type
    refuses, raises InputError naming the line and quoting the row;
    ``fields`` names the columns.
    """
    for ln, line in enumerate(f, start):
        row = line.rstrip("\n")
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != len(types):
            raise InputError(f"{path}:{ln}: expected '{fields}', got {row!r}")
        try:
            values = [convert(part.strip()) for convert, part in zip(types, parts)]
        except ValueError:
            raise InputError(f"{path}:{ln}: non-numeric field in {row!r}") from None
        yield ln, row, values


def _check_ids(line_of, path, kind, rows):
    """Raise InputError unless the ids of ``line_of`` (id -> first line, in file
    order) are 0..N-1, naming the first stray id's line and the smallest missing id."""
    n = len(line_of)
    stray = next((i for i in line_of if not 0 <= i < n), None)
    if stray is not None:
        missing = min(set(range(n)) - line_of.keys())
        raise InputError(
            f"{path}:{line_of[stray]}: {kind} id {stray} is outside 0..{n - 1}; "
            f"the ids of {n} {kind} {rows} must be 0..{n - 1}, and id {missing} is missing"
        )
