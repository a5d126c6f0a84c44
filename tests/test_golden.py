"""Golden run outputs: a rerun of each recorded config must give its files.

Each directory under tests/golden holds a config.txt, the input files it
names (by relative name, so config_hash does not depend on where the repo
lives), and what ``cfmimo compare --out .`` wrote there: comparison.csv and
each algorithm's report.txt and se_blocks.csv. The algorithms are the rows of
comparison.csv. Together the configs reach every algorithm, both SINR
estimators, topology, track and path-loss map files, and (M = 64, K = 16,
n_mc = 600) three draw chunks per block, of 256, 256 and 88 draws, each
drawn from its own child of the block seed, with full-CF precoded in
sub-chunks of up to 32 draws inside each chunk.

A rerun must match field by field: integers and text (the config hash, the
names) exactly, every other number within GOLDEN_REL_TOL relative. Outputs
that meet that rule but differ in their bytes raise a GoldenDrift warning
that names them, so a change can say which rule it met.

After an intended change to the numbers, record the goldens again:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import math
import os
import sys
import warnings
from pathlib import Path

import pytest

from cfmimo import cli
from cfmimo.selection import ALGORITHMS

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REL_TOL = 1e-9
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.txt").is_file())


class GoldenDrift(UserWarning):
    """Outputs within the tolerance whose bytes differ from the goldens."""


def case_algorithms(case_dir: Path) -> list[str]:
    rows = (case_dir / "comparison.csv").read_text().splitlines()[1:]
    return [row.split(",", 1)[0] for row in rows]


def case_outputs(algorithms) -> list[str]:
    return ["comparison.csv"] + [f"{a}/{f}" for a in algorithms for f in ("report.txt", "se_blocks.csv")]


def _fields(line: str) -> list[str]:
    return [f for part in line.split(" = ") for f in part.split(",")]


def _field_matches(key: str, want: str, got: str) -> bool:
    if want == got:
        return True
    if key == "config_hash":
        return False
    try:
        int(want), int(got)
        return False
    except ValueError:
        pass
    try:
        return math.isclose(float(want), float(got), rel_tol=GOLDEN_REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def diff_outputs(expected: str, actual: str) -> list[str]:
    """Mismatches between an expected and an actual output file, one per
    field; fields split at ',' and ' = ', and a line's first field is its key."""
    want_lines, got_lines = expected.splitlines(), actual.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    problems = []
    for ln, (want_line, got_line) in enumerate(zip(want_lines, got_lines), start=1):
        want, got = _fields(want_line), _fields(got_line)
        if len(want) != len(got):
            problems.append(f"line {ln}: {got_line!r}, expected {want_line!r}")
            continue
        for w, g in zip(want, got):
            if not _field_matches(want[0], w, g):
                problems.append(f"line {ln}: {g}, expected {w}")
    return problems


def run_case(case_dir: Path, out_dir) -> list[str]:
    """Run the case's compare from its directory; returns its algorithms."""
    algorithms = case_algorithms(case_dir)
    argv = ["compare", "--config", "config.txt", "--algorithms", ",".join(algorithms), "--out", str(out_dir)]
    assert cli.main(argv) == 0
    return algorithms


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path, monkeypatch):
    case_dir = GOLDEN / case
    monkeypatch.chdir(case_dir)
    drifted = []
    for name in case_outputs(run_case(case_dir, tmp_path)):
        expected = (case_dir / name).read_text()
        actual = (tmp_path / name).read_text()
        problems = diff_outputs(expected, actual)
        assert not problems, f"{case}/{name}: " + "; ".join(problems[:5])
        if actual != expected:
            drifted.append(name)
    if drifted:
        warnings.warn(GoldenDrift(f"{case}: within {GOLDEN_REL_TOL:g} relative, bytes differ in {drifted}"))


def test_golden_cases_cover_the_pipeline():
    configs = {case: (GOLDEN / case / "config.txt").read_text() for case in CASES}
    algorithms = {a for case in CASES for a in case_algorithms(GOLDEN / case)}
    assert algorithms == set(ALGORITHMS)
    text = "".join(configs.values())
    for key in ("sinr_estimator = per-draw", "channel_provider = map", "mobility_source = file",
                "topology_source = file", "n_mc = 600", "clusters_per_side"):
        assert key in text


def test_golden_diff_catches_a_small_se_change():
    text = (GOLDEN / "all-algorithms" / "full-cf" / "se_blocks.csv").read_text()
    head, *rows = text.splitlines(keepends=True)
    i = next(i for i, row in enumerate(rows) if float(row.split(",")[2]) > 0)
    block, ue, se, g = rows[i].rstrip("\n").split(",")

    def with_se(value: str) -> str:
        return "".join([head] + rows[:i] + [f"{block},{ue},{value},{g}\n"] + rows[i + 1:])

    assert diff_outputs(text, with_se(f"{float(se) * (1 + 1e-8):.10g}"))
    # within the tolerance, though no longer the same bytes
    assert not diff_outputs(text, with_se(f"{float(se) * (1 + 1e-10):.17g}"))
    assert diff_outputs(text, text.replace(f"{block},{ue},", f"{block},{int(ue) + 1},", 1))


if __name__ == "__main__":
    for case in sys.argv[1:] or CASES:
        os.chdir(GOLDEN / case)
        print(case, run_case(GOLDEN / case, "."))
