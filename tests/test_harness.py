import os
import subprocess
import sys

import numpy as np
import pytest

import cfmimo
from cfmimo import channel as ch
from cfmimo import cli
from cfmimo import evaluation as ev
from cfmimo.channel import RadioConfig
from cfmimo.evaluation import export_cdf, write_report
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
from cfmimo.topology import AreaSpec, generate_ppp_topology, save_topology

import mapgen


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
    save_topology(topo, topo_path)
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
    cfg = mini_config()
    calls = _count_calls(monkeypatch, ev, "draw_block")
    compare_algorithms(cfg, ["small-cell", "full-cf"])
    assert len(calls) == cfg.blocks

    cfg = map_config(tmp_path)
    calls = _count_calls(monkeypatch, ev, "draw_block")
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
    values, ordinates = export_cdf(tmp_path)
    assert np.allclose(ordinates, [1 / 3, 2 / 3, 1.0])
    assert np.all(np.diff(values) >= 0)
    # independent re-sort oracle (plain Python sort of the written SE values)
    assert values.tolist() == sorted(float(f"{v:.10g}") for v in rep.se_per_block.reshape(-1).tolist())


def test_report_hash_tracks_config():
    a = config_hash(mini_config())
    b = config_hash(mini_config(seed=6))
    assert a != b


def test_report_hash_ignores_out_dir():
    assert config_hash(mini_config(out_dir="a")) == config_hash(mini_config(out_dir="b/c"))


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


_NO_SCIPY_RUN = """
import sys
import cfmimo.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit(f"import cfmimo.cli loaded {loaded}")
sys.modules["scipy"] = None  # any later import of scipy now fails
cfg, out, algorithms = sys.argv[1:]
rc = cfmimo.cli.main(["compare", "--config", cfg, "--algorithms", algorithms, "--out", out])
for a in algorithms.split(","):
    rc = rc or cfmimo.cli.main(["export-cdf", "--run", f"{out}/{a}"])
sys.exit(rc)
"""


def test_cli_runs_without_scipy(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config()))
    algorithms = ["small-cell", "full-cf"]
    src = os.path.dirname(os.path.dirname(cfmimo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    blocked = tmp_path / "blocked"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(cfg_path), str(blocked), ",".join(algorithms)],
        env=env, capture_output=True, text=True, timeout=300,
    )
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
import cfmimo.cli
if "numpy.ma" in sys.modules:
    print("numpy imports numpy.ma eagerly")
    sys.exit(0)
cfg, out = sys.argv[1:]
rc = cfmimo.cli.main(["compare", "--config", cfg, "--algorithms", "unifsrv-heu,full-cf,small-cell", "--out", out])
if "numpy.ma" in sys.modules:
    sys.exit("compare imported numpy.ma")
sys.exit(rc)
"""


def test_cli_compare_leaves_numpy_ma_unloaded(tmp_path):
    # numpy's set routines and percentile import numpy.ma (~15 ms) on their
    # first call; a compare run calls none of them
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config()))
    src = os.path.dirname(os.path.dirname(cfmimo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
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

    monkeypatch.setattr("cfmimo.cli.hn.run_experiment", boom)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3


@pytest.mark.parametrize(
    "line",
    [
        "n_mc = 0", "blocks = 0", "ue_count = 0", "sinr_estimator = foo",
        "estimate_form = xx", "pilot_method = bogus", "tau_p = 300",
        "tx_power_w = 0", "delta = 1.5", "g_max = 0", "mdp_round_budget = 0",
    ],
)
def test_cli_bad_run_setting_exits_2_before_block_0(tmp_path, monkeypatch, line):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))) + line + "\n")

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_draws", no_block)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    assert not out.exists()


def test_cli_non_finite_se_exits_3_without_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))))
    evaluate_draws = cli.hn.ev.evaluate_draws
    calls = []

    def nan_on_block_1(*args, **kwargs):
        gamma, se, rate = evaluate_draws(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            se = se.copy()
            se[2] = np.nan
        return gamma, se, rate

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_draws", nan_on_block_1)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3
    assert "block 1: UE 2 has non-finite SE nan" in capsys.readouterr().err
    assert not (out / "small-cell" / "report.txt").exists()


def test_cli_compare_unknown_algorithm_exits_2_before_block_0(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(serialize_config(mini_config(out_dir=str(out))))

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_draws", no_block)
    rc = cli.main(["compare", "--config", str(cfg_path), "--algorithms", "small-cell,bogus"])
    assert rc == 2
    assert not out.exists()
