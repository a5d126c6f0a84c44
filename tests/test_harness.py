import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfmimo
from cfmimo import channel as ch
from cfmimo import cli
from cfmimo import evaluation as ev
from cfmimo.channel import RadioConfig
from cfmimo.evaluation import write_report
from cfmimo.harness import (
    ConfigError,
    ExperimentConfig,
    compare_algorithms,
    comparison_table,
    config_hash,
    derive_seed,
    load_config,
    parse_config,
    run_experiment,
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


def test_config_round_trip():
    cfg = mini_config(delta=0.9, beta0_db=-18.5, allow_tau_p_equality=True)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("not_a_key = 3\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("blocks = many\n")


def test_config_comments_and_blanks_ok():
    cfg = parse_config("# comment\n\nblocks = 7  # trailing\n")
    assert cfg.blocks == 7


def test_config_lines_end_only_at_newlines():
    cfg = parse_config("blocks = 7\rn_mc = 3\r\nue_count = 4\n")
    assert (cfg.blocks, cfg.n_mc, cfg.ue_count) == (7, 3, 4)
    with pytest.raises(ConfigError, match="^line 1: bad value for blocks"):
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
    rep = run_experiment(cfg)
    assert rep.se_per_block.shape == (1, 1)
    assert rep.g_per_block[0, 0] == 1  # small cell serves with exactly one AP
    assert rep.se_per_block[0, 0] >= 0.0


def test_run_determinism_byte_identical(tmp_path):
    cfg = mini_config()
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_report(rep1, d1)
    write_report(rep2, d2)
    for name in ("report.txt", "se_blocks.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_full_cf_outranks_small_cell_sum_rate():
    cfg = mini_config(topology_m=20, ue_count=5, blocks=3, n_mc=80)
    rep_cf = run_experiment(cfg, algorithm="full-cf")
    rep_sc = run_experiment(cfg, algorithm="small-cell")
    assert rep_cf.sum_rate > rep_sc.sum_rate


def test_compare_single_algorithm():
    cfg = mini_config()
    reports = compare_algorithms(cfg, ["small-cell"])
    assert set(reports) == {"small-cell"}
    table = comparison_table(reports)
    assert table.splitlines()[0].startswith("algorithm,")


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


def _assert_compare_matches_lone_run(cfg, tmp_path):
    # every algorithm, not just the first, since later ones reuse the block's draws
    reports = compare_algorithms(cfg, ["small-cell", "full-cf"])
    for algo, inside in reports.items():
        outside = run_experiment(cfg, algorithm=algo)
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
    # one walk over each block's draws evaluates every algorithm
    cfg = mini_config()
    calls = _count_calls(monkeypatch, ev, "evaluate_matrices")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == cfg.blocks

    cfg = map_config(tmp_path)
    calls = _count_calls(monkeypatch, ev, "evaluate_matrices")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == cfg.blocks


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        run_experiment(mini_config(), algorithm="magic")


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
    rep = run_experiment(cfg)
    assert rep.se_per_block.shape == (3, 2)


def test_track_file_too_short_rejected(tmp_path):
    path = tmp_path / "tracks.txt"
    with open(path, "w") as f:
        f.write("0,0.0,10,10\n0,0.02,11,10\n")
    cfg = mini_config(mobility_source="file", tracks_file=str(path), blocks=50)
    with pytest.raises(ConfigError, match="track horizon"):
        run_experiment(cfg)


def test_export_cdf_ordinates(tmp_path):
    cfg = mini_config(topology_m=4, ue_count=1, blocks=3, n_mc=40)
    rep = run_experiment(cfg)
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


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "no raw SE file at {raw}"),
        ("block,ue_id,se,g\n", "{raw}: no SE rows"),
        ("block,ue_id,se,g\n\n", "{raw}: no SE rows"),
        ("block,ue_id,se,g\n0,0,1.5,1\n0,1,nan,1\n", "{raw}:3: non-finite SE in '0,1,nan,1'"),
        ("block,ue_id,se,g\n0,0,-inf,1\n", "{raw}:2: non-finite SE in '0,0,-inf,1'"),
        ("block,ue_id,se,g\n0,0,abc,1\n", "{raw}:2: non-numeric field in '0,0,abc,1'"),
        ("block,ue_id,se,g\n0,0,1.5\n", "{raw}:2: expected 'block,ue_id,se,g', got '0,0,1.5'"),
        ("ue_id,se\n0,1.5\n", "{raw}:1: expected header 'block,ue_id,se,g'"),
        ("", "{raw}:1: expected header 'block,ue_id,se,g'"),
    ],
)
def test_cli_export_cdf_bad_input_exits_2(tmp_path, capsys, text, message):
    raw = tmp_path / "se_blocks.csv"
    if text is not None:
        raw.write_text(text)
    assert cli.main(["export-cdf", "--run", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: " + message.format(raw=raw) + "\n"
    assert not (tmp_path / "cdf.csv").exists()


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
    with pytest.raises(ConfigError, match="'raw' was removed"):
        parse_config("estimate_form = raw\n")


def test_cli_simulate_and_export(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"))))
    rc = cli.main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    run_dir = tmp_path / "out" / "small-cell"
    assert (run_dir / "report.txt").exists()
    rc = cli.main(["export-cdf", "--run", str(run_dir)])
    assert rc == 0
    lines = (run_dir / "cdf.csv").read_text().splitlines()
    assert lines[0] == "se,cdf"
    assert lines[-1].endswith(",1")


def test_cli_compare(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(tmp_path / "out"))))
    rc = cli.main(["compare", "--config", str(cfg_path), "--algorithms", "small-cell,full-cf"])
    assert rc == 0
    assert (tmp_path / "out" / "comparison.csv").exists()
    assert (tmp_path / "out" / "full-cf" / "report.txt").exists()


def run_python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports cfmimo from this checkout."""
    src = os.path.dirname(os.path.dirname(cfmimo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=300)


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

    def boom(cfg):
        raise RuntimeError("backend exploded")

    monkeypatch.setattr("cfmimo.harness.run_experiment", boom)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3


@pytest.mark.parametrize(
    "line",
    [
        "n_mc = 0", "blocks = 0", "ue_count = 0", "sinr_estimator = foo",
        "estimate_form = xx", "estimate_form = raw", "pilot_method = bogus", "tau_p = 300",
        "tx_power_w = 0", "delta = 1.5", "g_max = 0", "mdp_round_budget = 0",
        "area_width = 0", "topology_m = 0", "speed_mps = 0", "mean_transition_m = 0", "tau_p = 0",
        "tx_power_w = nan", "area_height = nan", "shadowing_sigma_db = nan", "beta0_db = nan",
        "beta0_db = inf", "topology_source = grid", "mobility_source = walk",
        "channel_provider = raytrace",
    ],
)
def test_cli_bad_run_setting_exits_2_before_block_0(tmp_path, monkeypatch, line):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))) + line + "\n")

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", no_block)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    assert not out.exists()


_FILE_INPUTS = {
    "topology": "100,100\n0,20,20\n1,70,70\n",
    "tracks": "0,0,1,1\n1,0,2,2\n0,0.02,1.5,1\n1,0.02,2.5,2\n",
    "map": "10,10,0,0\n0,0,0,90\n1,0,0,91\n",
}


@pytest.mark.parametrize("bad", ["config", "topology", "tracks", "map", "se_blocks"])
def test_cli_non_utf8_byte_exits_2_before_block_0(tmp_path, monkeypatch, capsys, bad):
    # a \xff on the second line of any input file is an input error naming
    # the file: exit 2, one stderr line, no run directory and no cdf.csv
    out = tmp_path / "out"
    paths = {name: tmp_path / f"{name}.txt" for name in _FILE_INPUTS}
    for name, text in _FILE_INPUTS.items():
        paths[name].write_text(text)
    paths["config"] = tmp_path / "cfg.txt"
    paths["config"].write_text(serialize_config(mini_config(
        out_dir=str(out), ue_count=2, e_best=1,
        topology_source="file", topology_file=str(paths["topology"]),
        mobility_source="file", tracks_file=str(paths["tracks"]),
        channel_provider="map", pathloss_map_file=str(paths["map"]),
    )))
    paths["se_blocks"] = tmp_path / "run" / "se_blocks.csv"
    paths["se_blocks"].parent.mkdir()
    paths["se_blocks"].write_text("block,ue_id,se,g\n0,0,1.5,1\n0,1,2.5,1\n")
    first, second, rest = paths[bad].read_bytes().split(b"\n", 2)
    paths[bad].write_bytes(first + b"\n" + second + b"\xff\n" + rest)

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", no_block)
    if bad == "se_blocks":
        rc = cli.main(["export-cdf", "--run", str(paths[bad].parent)])
    else:
        rc = cli.main(["simulate", "--config", str(paths["config"])])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {paths[bad]}: not UTF-8 text\n"
    assert not out.exists()
    assert not (paths["se_blocks"].parent / "cdf.csv").exists()


def test_cli_mobility_override_is_checked(tmp_path, monkeypatch):
    # speed 0 is fine for a track file; --mobility rwp makes it a config error
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out), mobility_source="file", speed_mps=0.0)))
    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", None)  # a block would exit 3
    assert cli.main(["simulate", "--config", str(cfg_path), "--mobility", "rwp"]) == 2
    assert not out.exists()


def test_cli_non_finite_se_exits_3_without_report(tmp_path, monkeypatch, capsys):
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


@pytest.mark.parametrize(
    "clusters, algorithms, message",
    [
        (0, "small-cell,cuc", "cuc needs a cluster grid: set clusters_per_side to at least 1"),
        (-3, "small-cell", "clusters_per_side must be at least 0, got -3"),
    ],
)
def test_cli_cluster_grid_errors_exit_2_before_block_0(tmp_path, monkeypatch, capsys, clusters, algorithms, message):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    text = serialize_config(mini_config(out_dir=str(out)))
    cfg_path.write_text(text.replace("clusters_per_side = 2", f"clusters_per_side = {clusters}"))

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", no_block)
    rc = cli.main(["compare", "--config", str(cfg_path), "--algorithms", algorithms])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
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
