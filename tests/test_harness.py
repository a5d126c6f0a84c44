import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cfmimo
from cfmimo import channel as ch
from cfmimo import cli, harness
from cfmimo import evaluation as ev
from cfmimo import selection as sel
from cfmimo.channel import RadioConfig
from cfmimo.evaluation import write_report
from cfmimo.harness import (
    ExperimentConfig,
    compare_algorithms,
    comparison_table,
    config_hash,
    derive_seed,
    parse_config,
    serialize_config,
)
from cfmimo.mobility import load_tracks
from cfmimo.topology import AreaSpec, generate_ppp_topology, load_topology

import mapgen
import oracles
from test_golden import GOLDEN, case_algorithms


def mini_config(**kw) -> ExperimentConfig:
    base = dict(
        area_width=200.0, area_height=200.0, topology_m=12, ue_count=4,
        blocks=2, n_mc=60, g_max=10, seed=5, algorithm="small-cell",
        clusters_per_side=2, e_best=2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def lone_run(cfg: ExperimentConfig, algorithm=None):
    """The report of a run of one algorithm, the config's by default."""
    algorithm = algorithm or cfg.algorithm
    return compare_algorithms(cfg, [algorithm])[algorithm]


def test_config_round_trip():
    cfg = mini_config(delta=0.9, beta0_db=-18.5, allow_tau_p_equality=True)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(cfmimo.InputError, match="unknown config key"):
        parse_config("not_a_key = 3\n")


def test_config_bad_value_rejected():
    with pytest.raises(cfmimo.InputError, match="bad value"):
        parse_config("blocks = many\n")


def test_config_comments_and_blanks_ok():
    cfg = parse_config("# comment\n\nblocks = 7  # trailing\n")
    assert cfg.blocks == 7


def test_config_lines_end_only_at_newlines():
    cfg = parse_config("blocks = 7\rn_mc = 3\r\nue_count = 4\n")
    assert (cfg.blocks, cfg.n_mc, cfg.ue_count) == (7, 3, 4)
    with pytest.raises(cfmimo.InputError, match="^line 1: bad value for blocks"):
        parse_config("blocks = 7\fn_mc = 3\n")


_TWO_AP_TOPOLOGY = generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "\f", "\x85"], ids=["lf", "cr", "crlf", "ff", "nel"])
@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_topology, "100,100\n0,10,10\n1,20,20{end}2,30,30\n", ":3: expected 'ap_id,x,y', got "),
        (lambda p: load_tracks(p, 0.02), "0,0,10,10\n0,0.02,11,10{end}0,0.04,12,10\n", ":2: expected 'ue_id,t,x,y', got "),
        (lambda p: ch.load_pathloss_map(p, _TWO_AP_TOPOLOGY), "10,10,0,0\n0,0,0,90{end}1,0,0,91\n",
         ":2: expected 'ap_id,cell_ix,cell_iy,pathloss_db'"),
    ],
    ids=["topology", "tracks", "map"],
)
def test_input_lines_end_only_at_newlines(tmp_path, loader, text, message, end):
    # \n, \r and \r\n end a line; \f and \x85, line breaks to str.splitlines,
    # join two rows into one malformed line, and the error names that line
    path = tmp_path / "input.txt"
    path.write_bytes(text.format(end=end).encode("utf-8"))
    if end in ("\n", "\r", "\r\n"):
        loader(path)
    else:
        with pytest.raises(cfmimo.InputError, match=re.escape(f"{path}{message}")):
            loader(path)


# per row file: its loader, file name, header line (None for none), a good
# row, the column names, a short row and a row with a non-numeric field
_ROW_FILES = {
    "topology": (load_topology, "topology.txt", "100,100", "0,10,10", "ap_id,x,y", "1,20", "1,x,20"),
    "tracks": (lambda p: load_tracks(p, 0.02), "tracks.txt", None, "0,0,10,10", "ue_id,t,x,y",
               "0,0.02,11", "0,0.02,x,10"),
    "map": (lambda p: ch.load_pathloss_map(p, _TWO_AP_TOPOLOGY), "map.txt", "10,10,0,0", "0,0,0,90",
            "ap_id,cell_ix,cell_iy,pathloss_db", "1,0,0", "1,0,x,91"),
    "se_blocks": (lambda p: cli.export_cdf(p.parent), "se_blocks.csv", "block,ue_id,se,g", "0,0,1.5,1",
                  "block,ue_id,se,g", "0,1,2.5", "0,1,abc,1"),
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", ["short", "non-numeric"])
@pytest.mark.parametrize("reader", list(_ROW_FILES))
def test_row_rule_same_for_every_row_file(tmp_path, reader, kind, end):
    # one row rule: blank and whitespace-only lines are skipped but counted,
    # and a bad row gets one of two messages quoting it without its line end
    load, name, header, good, fields, short, non_numeric = _ROW_FILES[reader]
    bad = short if kind == "short" else non_numeric
    lines = ([header] if header else []) + [good, "", " \t", bad, good]
    path = tmp_path / name
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
    message = f"expected '{fields}', got '{bad}'" if kind == "short" else f"non-numeric field in '{bad}'"
    with pytest.raises(cfmimo.InputError) as info:
        load(path)
    assert str(info.value) == f"{path}:{len(lines) - 1}: {message}"


def test_derive_seed_stable_and_distinct():
    a = derive_seed(3, "eval", 0).generate_state(2)
    b = derive_seed(3, "eval", 0).generate_state(2)
    c = derive_seed(3, "eval", 1).generate_state(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_minimal_run_shapes():
    cfg = mini_config(topology_m=2, ue_count=1, blocks=1, n_mc=40)
    rep = lone_run(cfg)
    assert rep.se_per_block.shape == (1, 1)
    assert rep.g_per_block[0, 0] == 1  # small cell serves with exactly one AP
    assert rep.se_per_block[0, 0] >= 0.0


def test_run_determinism_byte_identical(tmp_path):
    cfg = mini_config()
    rep1 = lone_run(cfg)
    rep2 = lone_run(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_report(rep1, d1)
    write_report(rep2, d2)
    for name in ("report.txt", "se_blocks.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_full_cf_outranks_small_cell_sum_rate():
    cfg = mini_config(topology_m=20, ue_count=5, blocks=3, n_mc=80)
    rep_cf = lone_run(cfg, algorithm="full-cf")
    rep_sc = lone_run(cfg, algorithm="small-cell")
    assert rep_cf.sum_rate > rep_sc.sum_rate


def test_compare_single_algorithm():
    cfg = mini_config()
    reports = compare_algorithms(cfg, ["small-cell"])
    assert set(reports) == {"small-cell"}
    table = comparison_table(reports)
    assert table.splitlines()[0].startswith("algorithm,")


def test_report_aggregates_are_formed_from_se():
    # a UE's rate is bandwidth x SE, so the aggregates formed again from the
    # report's own per-block SE are its aggregates to the bit
    cfg = mini_config()
    for rep in compare_algorithms(cfg, ["small-cell", "full-cf"]).values():
        rate = (cfg.bandwidth_hz * rep.se_per_block).mean(axis=1)
        assert rep.sum_rate == float(rate.sum())
        assert rep.jain == sel.jain_index(rate)
        assert rep.pf_objective == float(np.log(np.maximum(rate, 1.0)).sum())


def map_config(tmp_path) -> ExperimentConfig:
    """mini_config on a file topology with a mapgen shadow map."""
    topo = generate_ppp_topology(AreaSpec(200.0, 200.0), 12, seed=4)
    topo_path, map_path = tmp_path / "topo.txt", tmp_path / "map.txt"
    mapgen.save_topology(topo, topo_path)
    mapgen.build_shadow_map(map_path, topo, RadioConfig(), grid=20.0, seed=9)
    return mini_config(
        topology_source="file", topology_file=str(topo_path),
        channel_provider="map", pathloss_map_file=str(map_path),
    )


def _assert_compare_matches_lone_run(cfg, tmp_path, algorithms=("small-cell", "full-cf")):
    # every algorithm, not just the first, since later ones reuse the block's draws
    reports = compare_algorithms(cfg, algorithms)
    for algo, inside in reports.items():
        outside = lone_run(cfg, algorithm=algo)
        d1, d2 = tmp_path / "in" / algo, tmp_path / "out" / algo
        write_report(inside, d1)
        write_report(outside, d2)
        assert (d1 / "report.txt").read_bytes() == (d2 / "report.txt").read_bytes()
        assert (d1 / "se_blocks.csv").read_bytes() == (d2 / "se_blocks.csv").read_bytes()


def test_compare_shares_realizations(tmp_path):
    # the same algorithm run inside and outside compare is byte-identical,
    # so all algorithms in one comparison see the same channels
    _assert_compare_matches_lone_run(mini_config(), tmp_path)


def test_compare_shares_realizations_map(tmp_path):
    _assert_compare_matches_lone_run(map_config(tmp_path), tmp_path)


@pytest.mark.parametrize("shape", [(16, 5, 40), (64, 16, 577)], ids=["m16", "m64"])
@pytest.mark.parametrize("estimator", ev.SINR_ESTIMATORS)
def test_compare_shares_realizations_every_algorithm(tmp_path, estimator, shape):
    # the 2 x 2 cluster grid lets cuc run. At M = 64, K = 16, n_mc = 577 a
    # block has three draw chunks and full-CF precodes in 18 sub-chunks of 32
    # draws and one of a single draw, so state leaking between algorithms shows
    m, k, n_mc = shape
    cfg = ExperimentConfig(topology_m=m, area_width=200.0, area_height=200.0, ue_count=k, blocks=3, n_mc=n_mc,
                           g_max=8, clusters_per_side=2, sinr_estimator=estimator, seed=11)
    _assert_compare_matches_lone_run(cfg, tmp_path, sel.ALGORITHMS)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compare_builds_provider_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ch.LogDistanceProvider, "__init__")
    compare_algorithms(mini_config(), ["small-cell", "full-cf"])
    assert len(calls) == 1

    cfg = map_config(tmp_path)
    calls = _count_calls(monkeypatch, ch, "load_pathloss_map")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == 1


def test_compare_draws_once_per_block(tmp_path, monkeypatch):
    # one walk over each block's draws evaluates every algorithm; the calls
    # are counted in this process, so no block runs in a forked worker
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: 1)
    cfg = mini_config()
    calls = _count_calls(monkeypatch, ev, "evaluate_matrices")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == cfg.blocks

    cfg = map_config(tmp_path)
    calls = _count_calls(monkeypatch, ev, "evaluate_matrices")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == cfg.blocks


def test_run_block_is_a_column_of_compare(monkeypatch):
    # block b of every algorithm, run alone on the prepared set-up, is column
    # b of its compare report; nothing is forked
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: 1)
    cfg = mini_config(blocks=3)
    reports = compare_algorithms(cfg, sel.ALGORITHMS)
    scn = harness.prepare(cfg, sel.ALGORITHMS)
    assert scn.algorithms == tuple(sel.ALGORITHMS)
    w_bad = dict.fromkeys(scn.algorithms, 0)
    for b in range(cfg.blocks):
        for algo, (se, g_k, w_m) in zip(scn.algorithms, harness.run_block(scn, b)):
            assert np.array_equal(se, reports[algo].se_per_block[:, b])
            assert np.array_equal(g_k, reports[algo].g_per_block[:, b])
            assert w_m.shape == (cfg.topology_m,) and w_m.sum() == g_k.sum()
            w_bad[algo] += int((w_m > cfg.tau_p).any())
    assert w_bad == {algo: reports[algo].w_violation_blocks for algo in scn.algorithms}


def test_benchmark_scenario_matches_prepare(tmp_path, monkeypatch):
    # perfbench/scenario.py restates the run's set-up; on each smoke workload
    # it must build what prepare builds
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import scenario
    import workloads

    for name, w in workloads.workloads(smoke=True).items():
        (tmp_path / name).mkdir()
        config_path, _, _ = w.prepare(611, str(tmp_path / name))
        cfg = harness.load_config(config_path)
        topo, trace, provider, pilots = scenario.build(cfg)
        scn = harness.prepare(cfg, w.algorithms)
        assert np.array_equal(topo.ap_positions, scn.topology.ap_positions), name
        assert np.array_equal(trace.positions, scn.trace.positions), name
        assert np.array_equal(trace.speed, scn.trace.speed), name
        assert np.array_equal(pilots, scn.pilots), name
        for b in range(cfg.blocks):
            positions = trace.positions[:, b, :]
            assert np.array_equal(provider.pathloss_db(positions), scn.provider.pathloss_db(positions)), (name, b)


def test_unknown_algorithm_rejected():
    with pytest.raises(cfmimo.InputError, match="unknown algorithm"):
        lone_run(mini_config(), algorithm="magic")


def test_track_file_mobility_round_trip(tmp_path):
    path = tmp_path / "tracks.txt"
    with open(path, "w") as f:
        for ue in range(3):
            for i in range(40):
                t = i * 0.02
                f.write(f"{ue},{t:.4f},{10.0 + ue + 0.01 * i:.6f},{20.0 + ue:.6f}\n")
    cfg = mini_config(
        mobility_source="file", tracks_file=str(path), ue_count=3, blocks=2
    )
    rep = lone_run(cfg)
    assert rep.se_per_block.shape == (3, 2)


def test_track_file_too_short_rejected(tmp_path):
    path = tmp_path / "tracks.txt"
    with open(path, "w") as f:
        f.write("0,0.0,10,10\n0,0.02,11,10\n")
    cfg = mini_config(mobility_source="file", tracks_file=str(path), blocks=50)
    with pytest.raises(cfmimo.InputError, match="track horizon"):
        lone_run(cfg)


def test_export_cdf_ordinates(tmp_path):
    cfg = mini_config(topology_m=4, ue_count=1, blocks=3, n_mc=40)
    rep = lone_run(cfg)
    write_report(rep, tmp_path)
    values = cli.export_cdf(tmp_path)
    rows = [line.split(",") for line in (tmp_path / "cdf.csv").read_text().splitlines()[1:]]
    assert [float(v) for v, _ in rows] == values
    assert np.allclose([float(c) for _, c in rows], [1 / 3, 2 / 3, 1.0])
    # independent re-sort oracle (plain Python sort of the written SE values)
    assert values == sorted(float(f"{v:.10g}") for v in rep.se_per_block.reshape(-1).tolist())


@pytest.mark.parametrize("se_blocks", sorted(Path(__file__).parent.glob("golden/*/*/se_blocks.csv")),
                         ids=lambda p: f"{p.parent.parent.name}/{p.parent.name}")
def test_export_cdf_equals_numpy_reference_on_goldens(tmp_path, se_blocks):
    for side in ("cli", "reference"):
        (tmp_path / side).mkdir()
        shutil.copy(se_blocks, tmp_path / side)
    assert cli.main(["export-cdf", "--run", str(tmp_path / "cli")]) == 0
    oracles.export_cdf_reference(tmp_path / "reference")
    assert (tmp_path / "cli" / "cdf.csv").read_bytes() == (tmp_path / "reference" / "cdf.csv").read_bytes()


def test_report_hash_tracks_config():
    a = config_hash(mini_config())
    b = config_hash(mini_config(seed=6))
    assert a != b


def test_report_hash_ignores_out_dir():
    assert config_hash(mini_config(out_dir="a")) == config_hash(mini_config(out_dir="b/c"))


def test_cli_compare_equals_lone_run_of_another_algorithm(tmp_path):
    # config_hash leaves out the algorithm key: full-cf inside a compare of a
    # config naming small-cell writes the bytes of a lone simulate of that
    # config edited to name full-cf
    text = serialize_config(mini_config())
    assert "algorithm = small-cell" in text
    cfg_path, lone_path = tmp_path / "cfg.txt", tmp_path / "lone.txt"
    cfg_path.write_text(text)
    lone_path.write_text(text + "algorithm = full-cf\n")
    compare_out, lone_out = tmp_path / "compare", tmp_path / "lone"
    assert cli.main(["compare", "--config", str(cfg_path), "--algorithms", "small-cell,full-cf",
                     "--out", str(compare_out)]) == 0
    assert cli.main(["simulate", "--config", str(lone_path), "--out", str(lone_out)]) == 0
    for name in ("report.txt", "se_blocks.csv"):
        assert (compare_out / "full-cf" / name).read_bytes() == (lone_out / "full-cf" / name).read_bytes()


def test_config_estimate_form_raw_removed():
    with pytest.raises(cfmimo.InputError, match="'raw' was removed"):
        parse_config("estimate_form = raw\n")


def test_cli_simulate_and_export(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"))))
    rc = cli.main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    run_dir = tmp_path / "out" / "small-cell"
    # simulate is a one-algorithm compare that prints one line and writes no comparison.csv
    assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == ["report.txt", "se_blocks.csv", "small-cell"]
    assert re.fullmatch(rf"wrote {re.escape(str(run_dir))}/report\.txt \(sum rate \S+ bit/s, jain \S+\)\n",
                        capsys.readouterr().out)
    rc = cli.main(["export-cdf", "--run", str(run_dir)])
    assert rc == 0
    lines = (run_dir / "cdf.csv").read_text().splitlines()
    assert lines[0] == "se,cdf"
    assert lines[-1].endswith(",1")


def test_cli_seed_override_equals_config_seed(tmp_path):
    # simulate --seed 9 on a seed = 5 config writes the bytes of a config
    # that sets seed = 9
    override, config = tmp_path / "override.txt", tmp_path / "config.txt"
    override.write_text(serialize_config(mini_config(seed=5)))
    config.write_text(serialize_config(mini_config(seed=9)))
    assert cli.main(["simulate", "--config", str(override), "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    for name in ("report.txt", "se_blocks.csv"):
        a, b = (tmp_path / side / "small-cell" / name for side in "ab")
        assert a.read_bytes() == b.read_bytes()


def test_cli_compare(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"))))
    rc = cli.main(["compare", "--config", str(cfg_path), "--algorithms", "small-cell,full-cf"])
    assert rc == 0
    assert (tmp_path / "out" / "comparison.csv").exists()
    assert (tmp_path / "out" / "full-cf" / "report.txt").exists()


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports cfmimo from this checkout."""
    src = os.path.dirname(os.path.dirname(cfmimo.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports cfmimo from this checkout."""
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=_checkout_env(), cwd=cwd, capture_output=True, text=True, timeout=300)


_NUMPY_FREE_EXPORT = """
import sys
import cfmimo.cli
rc = cfmimo.cli.main(["export-cdf", "--run", sys.argv[1]])
simulator = {f"cfmimo.{m}" for m in ("topology", "mobility", "channel", "selection", "evaluation", "harness")}
loaded = sorted(m for m in sys.modules if m in simulator or m == "numpy" or m.startswith("numpy."))
if loaded:
    sys.exit(f"export-cdf loaded {loaded}")
sys.exit(rc)
"""


def test_cli_export_cdf_loads_no_numpy(tmp_path):
    shutil.copy(Path(__file__).parent / "golden" / "all-algorithms" / "full-cf" / "se_blocks.csv", tmp_path)
    proc = run_python(_NUMPY_FREE_EXPORT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cdf.csv").exists()


_PEAK_MEMORY_RUN = """
import sys
from cfmimo import cli

def vm_hwm_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

out = sys.argv[1]
peaks = []
for n_mc in (256, 4096):
    cfg = f"{out}/cfg-{n_mc}.txt"
    with open(cfg, "w") as f:
        f.write(f"topology_m = 100\\nue_count = 20\\nblocks = 1\\nn_mc = {n_mc}\\nseed = 3\\n")
    argv = ["compare", "--config", cfg, "--algorithms", "small-cell", "--out", f"{out}/{n_mc}"]
    if cli.main(argv) != 0:
        sys.exit(f"compare at n_mc = {n_mc} failed")
    peaks.append(vm_hwm_kb())
print(*peaks)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from Linux's /proc")
def test_cli_peak_memory_flat_in_n_mc(tmp_path):
    # one small-cell hardening block at M = 100, K = 20, compared in a fresh
    # interpreter at n_mc = 256 and then at 4096 (32 draw chunks of 131):
    # the draws live one chunk at a time, so the process's peak RSS (VmHWM)
    # after the larger run may pass the one after the smaller by at most 10%
    proc = run_python(_PEAK_MEMORY_RUN, tmp_path)
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.splitlines()[-1].split())
    assert large <= 1.1 * small, f"VmHWM after n_mc = 256: {small} kB, after n_mc = 4096: {large} kB"


_NO_SCIPY_RUN = """
import sys
import cfmimo.cli

def no_scipy(after):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if loaded:
        sys.exit(f"{after} loaded {loaded}")

no_scipy("import cfmimo.cli")
cfg, out, algorithms = sys.argv[1:]
rc = cfmimo.cli.main(["compare", "--config", cfg, "--algorithms", algorithms, "--out", out])
no_scipy("compare")
sys.modules["scipy"] = None  # any later import of scipy now fails
for a in algorithms.split(","):
    rc = rc or cfmimo.cli.main(["export-cdf", "--run", f"{out}/{a}"])
sys.exit(rc)
"""


def test_cli_runs_without_scipy(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config()))
    algorithms = ["small-cell", "full-cf"]
    blocked = tmp_path / "blocked"
    proc = run_python(_NO_SCIPY_RUN, cfg_path, blocked, ",".join(algorithms))
    assert proc.returncode == 0, proc.stderr
    plain = tmp_path / "plain"
    assert cli.main(["compare", "--config", str(cfg_path), "--algorithms", ",".join(algorithms),
                     "--out", str(plain)]) == 0
    names = ["comparison.csv"]
    for a in algorithms:
        assert cli.main(["export-cdf", "--run", str(plain / a)]) == 0
        names += [f"{a}/report.txt", f"{a}/se_blocks.csv", f"{a}/cdf.csv"]
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name


_NUMPY_MA_PROBE = """
import sys
import numpy
import cfmimo.cli
if "numpy.ma" in sys.modules:
    print("numpy imports numpy.ma eagerly")
    sys.exit(0)
cfg, out, algorithms = sys.argv[1:]
rc = cfmimo.cli.main(["compare", "--config", cfg, "--algorithms", algorithms, "--out", out])
if "numpy.ma" in sys.modules:
    sys.exit("compare imported numpy.ma")
sys.exit(rc)
"""


def test_cli_compare_leaves_numpy_ma_unloaded(tmp_path):
    # numpy's set routines and percentile import numpy.ma (~15 ms) on their
    # first call; a compare run calls none of them
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config()))
    proc = run_python(_NUMPY_MA_PROBE, cfg_path, tmp_path / "out", "unifsrv-heu,full-cf,small-cell")
    assert proc.returncode == 0, proc.stderr
    if "eagerly" in proc.stdout:
        pytest.skip("this numpy imports numpy.ma on import")


def test_cli_compare_on_input_files_leaves_numpy_ma_unloaded(tmp_path):
    # the same for a run that reads topology, track and path-loss map files:
    # the track loader's median speed calls no np.median, which imports it
    case = GOLDEN / "map-tracks"
    algorithms = ",".join(case_algorithms(case))
    proc = run_python(_NUMPY_MA_PROBE, "config.txt", tmp_path / "out", algorithms, cwd=case)
    assert proc.returncode == 0, proc.stderr
    if "eagerly" in proc.stdout:
        pytest.skip("this numpy imports numpy.ma on import")


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("blocks = banana\n")
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.txt")]) == 2


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config()))

    def boom(cfg, algorithms):
        raise RuntimeError("backend exploded")

    monkeypatch.setattr("cfmimo.harness.compare_algorithms", boom)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3


def test_cli_non_finite_se_exits_3_without_report(tmp_path, monkeypatch, capsys):
    # the calls are counted in this process, so no block runs in a forked worker
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: 1)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))))
    evaluate_matrices = ev.evaluate_matrices
    calls = []

    def nan_on_block_1(*args, **kwargs):
        results = evaluate_matrices(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            gamma, se, rate = results[0]
            se = se.copy()
            se[2] = np.nan
            results[0] = gamma, se, rate
        return results

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", nan_on_block_1)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3
    assert "block 1: UE 2 has non-finite SE nan" in capsys.readouterr().err
    assert not (out / "small-cell" / "report.txt").exists()


def test_cli_mobility_override_is_checked(tmp_path, monkeypatch):
    # speed 0 is fine for a track file; --mobility rwp makes it a config error
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out), mobility_source="file", speed_mps=0.0)))
    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", None)  # a block would exit 3
    assert cli.main(["simulate", "--config", str(cfg_path), "--mobility", "rwp"]) == 2
    assert not out.exists()


def test_cli_compare_unknown_algorithm_exits_2_before_block_0(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))))

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", no_block)
    rc = cli.main(["compare", "--config", str(cfg_path), "--algorithms", "small-cell,bogus"])
    assert rc == 2
    assert not out.exists()


def test_cli_compare_empty_out_dir_writes_current_dir(tmp_path, monkeypatch):
    # out_dir = (empty) writes into the current directory, as --out . does
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir="")))
    assert "out_dir = \n" in cfg_path.read_text()
    runs = {}
    for name, extra in (("empty", []), ("dot", ["--out", "."])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        argv = ["compare", "--config", str(cfg_path), "--algorithms", "small-cell,full-cf"] + extra
        assert cli.main(argv) == 0
        runs[name] = {
            str(p.relative_to(tmp_path / name)): p.read_bytes()
            for p in sorted((tmp_path / name).rglob("*")) if p.is_file()
        }
    assert runs["empty"] == runs["dot"]
    assert sorted(runs["empty"]) == [
        "comparison.csv", "full-cf/report.txt", "full-cf/se_blocks.csv",
        "small-cell/report.txt", "small-cell/se_blocks.csv",
    ]


# Block fan-out: compare runs the blocks b = w (mod P) in forked worker w of
# P = min(blocks, usable CPUs); these tests pin P through the CPU lookup.


def _fan_out_argv(tmp_path, command="simulate"):
    """A run of mini_config with 5 blocks: simulate runs small-cell, compare three algorithms."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"), blocks=5)))
    algorithms = ["--algorithms", "small-cell,full-cf,unifsrv-heu"] if command == "compare" else []
    return [command, "--config", str(cfg_path), *algorithms]


def _fail_blocks(monkeypatch, fail):
    """Call fail(b) as each block b starts, wherever the block runs."""
    run_block = harness.run_block

    def failing(scn, b):
        fail(b)
        return run_block(scn, b)

    monkeypatch.setattr(harness, "run_block", failing)


def _raise_on(*blocks):
    """A fail hook that raises for each of ``blocks`` as a failing block does."""
    def fail(b):
        if b in blocks:
            raise RuntimeError(f"block {b}: failed on purpose")
    return fail


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_writes_the_same_bytes(tmp_path, monkeypatch):
    runs = {}
    for procs in (1, 3):
        monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: procs)
        out = tmp_path / f"p{procs}"
        argv = _fan_out_argv(tmp_path, "compare")
        assert cli.main([*argv, "--out", str(out)]) == 0
        runs[procs] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        _assert_no_child()
    assert len(runs[1]) == 7
    assert runs[1] == runs[3]


@pytest.mark.parametrize("procs", [2, 3])
def test_fan_out_worker_failure_exits_3_without_report(tmp_path, monkeypatch, capsys, procs):
    # block 1 runs in forked worker 1
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: procs)
    argv = _fan_out_argv(tmp_path)
    _fail_blocks(monkeypatch, _raise_on(1))
    assert cli.main(argv) == 3
    assert "runtime error: block 1: failed on purpose" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _assert_no_child()


@pytest.mark.parametrize("procs", [2, 3])
def test_fan_out_names_the_lowest_failing_block(tmp_path, monkeypatch, capsys, procs):
    # block 1 runs in worker 1; block 2 in this process with two workers, in worker 2 with three
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: procs)
    argv = _fan_out_argv(tmp_path)
    _fail_blocks(monkeypatch, _raise_on(1, 2))
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "block 1: failed on purpose" in err
    assert "block 2" not in err
    _assert_no_child()


def test_fan_out_worker_that_dies_fails_its_blocks(tmp_path, monkeypatch, capsys):
    # a worker that ends without sending a result: the run names its blocks and exit status
    monkeypatch.setattr("cfmimo.harness._usable_cpus", lambda: 2)
    argv = _fan_out_argv(tmp_path)

    def die_on_block_3(b):
        if b == 3:
            os._exit(7)

    _fail_blocks(monkeypatch, die_on_block_3)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == "runtime error: block 3: the worker process of blocks 1, 3 ended without sending its result " \
        "(exit status 7)\n"
    assert not (tmp_path / "out").exists()
    _assert_no_child()


_COMPARE_ON_TWO_CPUS = """
import sys
from cfmimo import cli, harness
harness._usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def _stat(pid):
    """(state, parent pid) of a process, from /proc/<pid>/stat; ("gone", 0) once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except (FileNotFoundError, ProcessLookupError):
        return "gone", 0
    return state, int(ppid)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc; the death signal is Linux's")
def test_killed_compare_leaves_no_worker_running(tmp_path):
    # a block of n_mc = 1e6 takes seconds: SIGKILL the run once its worker exists
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"), n_mc=10**6)))
    argv = ["compare", "--config", str(cfg_path), "--algorithms", "full-cf"]
    run = subprocess.Popen([sys.executable, "-c", _COMPARE_ON_TWO_CPUS, *argv], env=_checkout_env(),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            workers = [int(e) for e in os.listdir("/proc") if e.isdigit() and _stat(e)[1] == run.pid]
        assert len(workers) == 1, f"the run ended with status {run.poll()} before its worker was seen"
        run.kill()
        run.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _stat(workers[0])[0] not in ("gone", "Z") and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _stat(workers[0])[0] in ("gone", "Z")
    finally:
        run.kill()
        run.wait(timeout=10)
        for pid in workers:
            if _stat(pid)[0] not in ("gone", "Z"):
                os.kill(pid, signal.SIGKILL)
