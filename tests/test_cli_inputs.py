"""The CLI's input contract: every bad input exits 2 before block 0.

Each row of ``ROWS`` is one bad input: the command, the files and config
lines that differ from one valid base set, extra argv, and the stderr line
after ``config error: `` (``{map}`` and the like name the set's files). One
runner checks each: exit 2, that one line, and no path created at or under
out_dir or as ``cdf.csv``.
"""

import os

import pytest

from cfmimo import cli

from test_harness import run_python

# the valid base set: a run of two ppp APs and two rwp UEs, and a finished
# run's se_blocks.csv. A row that gives the topology, track or map file
# also selects it in the config
_BASE_CONFIG = ["topology_m = 2", "area_width = 100", "area_height = 100", "ue_count = 2", "blocks = 1", "n_mc = 8"]
_BASE_FILES = {
    "topology": "100,100\n0,20,20\n1,70,70\n",
    "tracks": "0,0,1,1\n1,0,2,2\n0,0.02,1.5,1\n1,0.02,2.5,2\n",
    "map": "10,10,0,0\n0,0,0,90\n1,0,0,91\n",
    "se_blocks": "block,ue_id,se,g\n0,0,1.5,1\n0,1,2.5,1\n",
}
_SELECT = {
    "topology": ("topology_source = file", "topology_file = {topology}"),
    "tracks": ("mobility_source = file", "tracks_file = {tracks}"),
    "map": ("channel_provider = map", "pathloss_map_file = {map}"),
}
# rows' texts are written as UTF-8 with surrogateescape, so this stands for
# the byte \xff
_NOT_UTF8 = "\udcff"
# a file given as this is made a directory; a row may also make a path the
# run would write, such as "out/unifsrv-heu", named relative to the set
_DIRECTORY = object()


def _row(id, message, command="simulate", files=None, config=(), argv=()):
    """One bad input; a file given as None is left out."""
    return pytest.param(command, files or {}, config, argv, message, id=id)


_BAD_SETTINGS = {
    "n_mc = 0": "n_mc must be at least 1, got 0",
    "blocks = 0": "blocks must be at least 1, got 0",
    "ue_count = 0": "ue_count must be at least 1, got 0",
    "sinr_estimator = foo": "unknown sinr_estimator 'foo'; known: ['hardening', 'per-draw']",
    "estimate_form = xx": "estimate_form 'xx' is unknown; known: ['mmse']",
    "estimate_form = raw": "estimate_form 'raw' was removed; known: ['mmse']",
    "pilot_method = bogus": "unknown pilot_method 'bogus'; known: ['random', 'sequential']",
    "tau_p = 300": "tau_p (300) must be shorter than tau_c (200)",
    "tx_power_w = 0": "tx_power_w must be positive, got 0.0",
    "block_duration_s = 0": "block_duration_s must be positive, got 0.0",
    "delta = 1.5": "delta must lie in (0, 1], got 1.5",
    "g_max = 0": "g_max must be at least 1, got 0",
    "e_best = 0": "e_best must be at least 1, got 0",
    "mdp_round_budget = 0": "mdp_round_budget must be at least 1, got 0",
    "area_width = 0": "area_width must be positive, got 0.0",
    "topology_m = 0": "topology_m must be at least 1, got 0",
    "speed_mps = 0": "speed_mps must be positive, got 0.0",
    "mean_transition_m = 0": "mean_transition_m must be positive, got 0.0",
    "tau_p = 0": "tau_p must be at least 1, got 0",
    "tx_power_w = nan": "tx_power_w must be finite, got nan",
    "area_height = nan": "area_height must be finite, got nan",
    "shadowing_sigma_db = nan": "shadowing_sigma_db must be finite, got nan",
    "shadowing_sigma_db = -1": "shadowing_sigma_db must be at least 0, got -1.0",
    "beta0_db = nan": "beta0_db must be finite, got nan",
    "beta0_db = inf": "beta0_db must be finite, got inf",
    "topology_source = grid": "unknown topology_source 'grid'; known: ['ppp', 'file']",
    "mobility_source = walk": "unknown mobility_source 'walk'; known: ['rwp', 'file']",
    "channel_provider = raytrace": "unknown channel_provider 'raytrace'; known: ['log-distance', 'map']",
    # radio scales whose beta, or the pilot term of the estimate variance, overflow
    "shadowing_sigma_db = 1e4": "the largest beta of the run is not finite: tx_power_w 0.2 W over noise 6.361e-13 W, "
                                "times the gain of its least path loss -2.241e+04 dB",
    "bandwidth_hz = 1e-300": "the largest beta of the run is not finite: tx_power_w 0.2 W over noise 3.179e-320 W, "
                             "times the gain of its least path loss 65.05 dB",
    "tx_power_w = 1e300": "the pilot term of the run is not finite: largest beta 4.917e+305 x tx_power_w 1e+300 W "
                          "x tau_p 10 x 2 UEs",
    # beta and the pilot term are finite, R * beta * p * tau_p is not
    "shadowing_sigma_db = 1e3": "the estimate variance of the run is not finite: largest R 4.379e+216 x largest "
                                "beta 1.377e+228 x tx_power_w 0.2 W x tau_p 10",
    # every scale is finite, and the P-MMSE regularizer rounds away beside the largest gain
    **{f"shadowing_sigma_db = {sigma}": f"the largest beta of the run, {beta}, reaches 2^52: the P-MMSE regularizer "
       "n0/p = R/beta falls below the rounding unit of the largest channel gain R"
       for sigma, beta in [("400", "1.484e+93"), ("500", "4.635e+115")]},
}
_DEEP_MAP = "10,10,0,0\n" + "".join(f"0,{i},0,90\n" for i in range(9000))  # 106 kB of rows
_MIN_INT64_MAP = f"10,10,0,0\n0,{-2**63},0,90\n1,{-2**63},0,91\n"

ROWS = [
    *(_row("setting-" + line.replace(" = ", "="), message, config=[line]) for line, message in _BAD_SETTINGS.items()),
    _row("config-not-a-number", "{config}:8: bad value for blocks: invalid literal for int() with base 10: 'banana'",
         config=["blocks = banana"]),
    _row("config-unknown-key", "{config}:8: unknown config key 'bogus'", config=["bogus = 1"]),
    _row("config-no-equals", "{config}:8: expected 'key = value', got 'blocks 3'", config=["blocks 3"]),
    _row("config-bad-bool", "{config}:8: bad value for allow_tau_p_equality: expected true/false",
         config=["allow_tau_p_equality = maybe"]),
    *(_row(name + "-missing", f"{{{name}}}: cannot read: No such file or directory", files={name: None})
      for name in ["config", *_SELECT]),
    *(_row(name + "-is-a-directory", f"{{{name}}}: cannot read: Is a directory", files={name: _DIRECTORY})
      for name in ["config", *_SELECT]),
    _row("cdf-is-a-directory", "{se_blocks}: cannot read: Is a directory", "export-cdf",
         files={"se_blocks": _DIRECTORY}),
    # the source line alone: the config names no file
    *(_row(name + "-without-file", f"{source.replace(' = ', '=')} needs {key.split(' = ')[0]}", config=[source])
      for name, (source, key) in _SELECT.items()),
    _row("config-not-utf8", "{config}: not UTF-8 text", config=["n_mc = 8" + _NOT_UTF8]),
    # two blocks, so each walk must reach t = 0.02 s: 2 x 1e12 x 2 x 0.02 / 50 legs, or legs
    # of 1e-12 m; in a square of 0.02 m or less each leg spends up to 1000 draws
    *(_row(id, "the random-waypoint walk draws more than 1e+05 waypoints: shorten it (ue_count, speed_mps, blocks, "
           "block_duration_s) or fit mean_transition_m to the area", config=lines)
      for id, lines in [
          ("rwp-too-fast", ["blocks = 2", "speed_mps = 1e12"]),
          ("rwp-too-short", ["blocks = 2", "mean_transition_m = 1e-12"]),
          *((f"rwp-area-{side}", [f"area_width = {side}", f"area_height = {side}", "ue_count = 3", "blocks = 50"])
            for side in ["0.02", "0.01", "1e-4"]),
      ]),
    # speed 0 is fine for a track file; --mobility rwp makes it a config error
    _row("mobility-override", "speed_mps must be positive, got 0.0",
         config=["mobility_source = file", "speed_mps = 0"], argv=["--mobility", "rwp"]),
    _row("compare-unknown-algorithm", "unknown algorithm 'bogus'; known: ['cuc', 'full-cf', 'mdp-greedy', 'puc', "
         "'puc-const', 'small-cell', 'unifsrv-heu']", "compare", argv=["--algorithms", "small-cell,bogus"]),
    _row("compare-cuc-without-grid", "cuc needs a cluster grid: set clusters_per_side to at least 1", "compare",
         argv=["--algorithms", "small-cell,cuc"]),
    _row("compare-negative-grid", "clusters_per_side must be at least 0, got -3", "compare",
         config=["clusters_per_side = -3"], argv=["--algorithms", "small-cell"]),
    _row("compare-no-algorithm", "--algorithms must name at least one algorithm", "compare",
         argv=["--algorithms", ","]),
    # the names are checked before the paths: a regular file where the
    # report directory of a refused name would go does not mask the name
    _row("compare-unknown-algorithm-over-a-file", "unknown algorithm 'bogus'; known: ['cuc', 'full-cf', "
         "'mdp-greedy', 'puc', 'puc-const', 'small-cell', 'unifsrv-heu']", "compare",
         files={"out/bogus": ""}, argv=["--algorithms", "small-cell,bogus"]),
    _row("simulate-unknown-algorithm-over-a-file", "unknown algorithm 'bogus'; known: ['cuc', 'full-cf', "
         "'mdp-greedy', 'puc', 'puc-const', 'small-cell', 'unifsrv-heu']",
         files={"out/bogus": ""}, config=["algorithm = bogus"]),
    _row("compare-cuc-without-grid-over-a-file", "cuc needs a cluster grid: set clusters_per_side to at least 1",
         "compare", files={"out/cuc": ""}, argv=["--algorithms", "small-cell,cuc"]),
    # an out_dir below a regular file cannot be made
    *(_row(command + "-out-under-a-file", "{config}/out: cannot write: Not a directory", command,
           argv=[*extra, "--out", "{config}/out"])
      for command, extra in [("simulate", []), ("compare", ["--algorithms", "small-cell"])]),
    # a path the run would write exists, and it cannot be written
    _row("simulate-report-dir-is-a-file", "{out}/unifsrv-heu: cannot write: Not a directory",
         files={"out/unifsrv-heu": ""}),
    _row("simulate-report-is-a-directory", "{out}/unifsrv-heu/report.txt: cannot write: Is a directory",
         files={"out/unifsrv-heu/report.txt": _DIRECTORY}),
    _row("compare-comparison-is-a-directory", "{out}/comparison.csv: cannot write: Is a directory", "compare",
         files={"out/comparison.csv": _DIRECTORY}, argv=["--algorithms", "small-cell,full-cf"]),
    _row("cdf-output-is-a-directory", "{run}/cdf.csv: cannot write: Is a directory", "export-cdf",
         files={"run/cdf.csv": _DIRECTORY}),
    *(_row("topology-" + id, "{topology}" + message, files={"topology": text}) for id, text, message in [
        ("not-utf8", "100,100\n0,20,20" + _NOT_UTF8 + "\n1,70,70\n", ": not UTF-8 text"),
        ("empty", "", ": empty topology file"),
        ("three-field-header", "100,100,5\n0,20,20\n1,70,70\n", ":1: expected header 'area_width,area_height'"),
        ("header-only", "100,100\n", ": no AP rows"),
        ("infinite-area", "inf,100\n0,10,10\n1,20,20\n",
         ":1: bad area header: area must have finite, positive extent, got infx100.0"),
        ("nan-point", "100,100\n0,nan,10\n1,20,20\n", ":2: non-finite point in '0,nan,10'"),
    ]),
    *(_row("tracks-" + id, "{tracks}" + message, files={"tracks": text}) for id, text, message in [
        ("not-utf8", "0,0,1,1" + _NOT_UTF8 + "\n1,0,2,2\n0,0.02,1.5,1\n1,0.02,2.5,2\n", ": not UTF-8 text"),
        ("blank-lines-only", "\n \n", ": no track rows"),
        ("late-start", "0,0.01,1,1\n1,0,2,2\n0,0.02,1.5,1\n1,0.02,2.5,2\n", ": UE 0 track must start at t=0"),
        ("stray-id", "0,0,10,10\n2,0,20,20\n0,0.02,11,10\n2,0.02,21,20\n",
         ":2: UE id 2 is outside 0..1; the ids of 2 UE tracks must be 0..1, and id 1 is missing"),
        ("nan-time", "0,0,10,10\n1,0,20,20\n0,nan,11,10\n1,0.02,21,20\n", ":3: non-finite time in '0,nan,11,10'"),
        ("nan-point", "0,0,10,10\n1,0,20,20\n0,0.02,nan,10\n1,0.02,21,20\n", ":3: non-finite point in '0,0.02,nan,10'"),
    ]),
    # the base tracks run from t = 0 to 0.02 s: two 20 ms blocks
    _row("tracks-short-horizon", "{tracks}: track horizon covers 2 blocks, config asks for 5",
         files={"tracks": _BASE_FILES["tracks"]}, config=["blocks = 5"]),
    *(_row("map-" + id, "{map}" + message, files={"map": text}) for id, text, message in [
        ("header-only", "10,10,0,0\n", ": no map rows"),
        ("duplicate", "10,10,0,0\n0,0,0,90\n1,0,0,91\n0,0,0,92\n", ":4: duplicate cell (0, 0, 0)"),
        # loadtxt refuses the whitespace-only line, so the row scanner reads the rows
        ("duplicate-after-blank", "10,10,0,0\n \n0,0,0,90\n1,0,0,91\n0,0,0,92\n", ":5: duplicate cell (0, 0, 0)"),
        ("unknown-ap", "10,10,0,0\n0,0,0,90\n5,0,0,91\n", ":3: unknown AP id 5"),
        ("not-utf8", "10,10,0,0\n0,0,0,90\n1,0,0,9" + _NOT_UTF8 + "1\n", ": not UTF-8 text"),
        # past the first chunk numpy's reader takes of the file
        ("not-utf8-deep", _DEEP_MAP + "1,0,0,9" + _NOT_UTF8 + "1\n", ": not UTF-8 text"),
        # \f ends no line: the two rows are one malformed row
        ("form-feed", "10,10,0,0\n0,0,0,90\f1,0,0,91\n",
         ":2: expected 'ap_id,cell_ix,cell_iy,pathloss_db', got '0,0,0,90\\x0c1,0,0,91'"),
        ("nan-origin", "10,10,nan,0\n0,0,0,90\n1,0,0,91\n", ":1: non-finite header field"),
        # loadtxt reads -2**63; the whitespace-only line sends the file to the row scanner
        ("min-int64", _MIN_INT64_MAP, f":2: cell index out of range in '0,{-2**63},0,90'"),
        ("min-int64-blank", _MIN_INT64_MAP + " \n", f":2: cell index out of range in '0,{-2**63},0,90'"),
        ("nan-loss", "10,10,0,0\n0,0,0,90\n1,0,0,nan\n", ":3: non-finite path loss in '1,0,0,nan'"),
        # the cell index of x = 100 m is 1e302
        ("grid-too-fine", "1e-300,1e-300,0,0\n0,0,0,90\n1,0,0,91\n",
         ":1: the 100 x 100 m area's cell indices pass int64 on this grid"),
        # the one covered cell lies at (5000, 5000), outside the 100 x 100 m area
        ("covers-no-ue", "10,10,5000,5000\n0,0,0,90\n1,0,0,91\n", ": no UE position of the run lies in a covered cell"),
    ]),
    # the least loss of the whole table sets the largest beta, also in a cell no UE reaches
    _row("map-loss-overflows", "the largest beta of the run is not finite: tx_power_w 0.2 W over noise 6.361e-13 W, "
         "times the gain of its least path loss -1e+05 dB",
         files={"tracks": _BASE_FILES["tracks"], "map": "10,10,0,0\n0,0,0,90\n1,0,0,91\n1,9,9,-1e5\n"}),
    # two rows that would size a 2 GiB table are refused before it is allocated
    _row("map-table-past-cap", f"{{map}}: a path-loss table of 1 x {2**28 + 1} x 1 cells passes the 2^28-cell cap",
         files={"topology": "100,100\n0,20,20\n", "map": f"10,10,0,0\n0,0,0,90\n0,{2**28},0,91\n"}),
    # 8 * (2**62 + 1) bytes overflows, so numpy refuses the table before it allocates
    _row("map-table-too-large", f"{{map}}: a path-loss table of 1 x {2**62 + 1} x 1 cells is too large to allocate",
         files={"topology": "100,100\n0,20,20\n", "map": f"10,10,0,0\n0,0,0,90\n0,{2**62},0,91\n"}),
    _row("cdf-no-file", "{se_blocks}: cannot read: No such file or directory", "export-cdf",
         files={"se_blocks": None}),
    *(_row("cdf-" + id, message, "export-cdf", files={"se_blocks": text}) for id, text, message in [
        ("header-only", "block,ue_id,se,g\n", "{se_blocks}: no SE rows"),
        ("blank-row", "block,ue_id,se,g\n\n", "{se_blocks}: no SE rows"),
        ("nan-se", "block,ue_id,se,g\n0,0,1.5,1\n0,1,nan,1\n", "{se_blocks}:3: non-finite SE in '0,1,nan,1'"),
        ("minus-inf-se", "block,ue_id,se,g\n0,0,-inf,1\n", "{se_blocks}:2: non-finite SE in '0,0,-inf,1'"),
        ("non-numeric-se", "block,ue_id,se,g\n0,0,abc,1\n", "{se_blocks}:2: non-numeric field in '0,0,abc,1'"),
        ("short-row", "block,ue_id,se,g\n0,0,1.5\n", "{se_blocks}:2: expected 'block,ue_id,se,g', got '0,0,1.5'"),
        ("other-header", "ue_id,se\n0,1.5\n", "{se_blocks}:1: expected header 'block,ue_id,se,g'"),
        ("empty", "", "{se_blocks}:1: expected header 'block,ue_id,se,g'"),
        ("not-utf8", "block,ue_id,se,g\n0,0,1.5,1" + _NOT_UTF8 + "\n", "{se_blocks}: not UTF-8 text"),
    ]),
]


def _write_inputs(tmp_path, command, files, config, argv):
    """Write the base set with the row's files and config lines; return the
    CLI's argv, whose ``{config}`` and the like name the set's files, and the
    paths that messages name."""
    paths = {name: tmp_path / f"{name}.txt" for name in ("config", "topology", "tracks", "map")}
    paths.update(out=tmp_path / "out", run=tmp_path / "run", se_blocks=tmp_path / "run" / "se_blocks.csv")
    paths["run"].mkdir()
    names = {name: str(path) for name, path in paths.items()}
    lines = [*_BASE_CONFIG, f"out_dir = {paths['out']}"]
    lines += [line.format(**names) for name in files if name in _SELECT for line in _SELECT[name]]
    texts = {**_BASE_FILES, "config": "".join(line + "\n" for line in [*lines, *config]), **files}
    for name, text in texts.items():
        path = paths.get(name, tmp_path / name)
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is _DIRECTORY:
            path.mkdir()
        elif text is not None:
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = [arg.format(**names) for arg in argv]
    if command == "export-cdf":
        return ["export-cdf", "--run", str(paths["se_blocks"].parent), *argv], names
    return [command, "--config", names["config"], *argv], names


def _outputs(tmp_path):
    """out_dir, the paths under it and export-cdf's cdf.csv, those that
    exist, each with whether it is a directory."""
    out, cdf = tmp_path / "out", tmp_path / "run" / "cdf.csv"
    return {(p, p.is_dir()) for p in [out, *out.rglob("*"), cdf] if p.exists()}


@pytest.mark.parametrize("command, files, config, argv, message", ROWS)
def test_bad_input_exits_2_before_block_0(tmp_path, monkeypatch, capsys, command, files, config, argv, message):
    argv, names = _write_inputs(tmp_path, command, files, config, argv)

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr("cfmimo.harness.ev.evaluate_matrices", no_block)
    made = _outputs(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message.format(**names)}\n"
    assert _outputs(tmp_path) == made


def test_unwritable_report_exits_2(tmp_path, monkeypatch, capsys):
    # root passes every os.access check, so os.access itself refuses the report
    argv, names = _write_inputs(tmp_path, "simulate", {"out/unifsrv-heu/report.txt": ""}, (), ())
    report = os.path.join(names["out"], "unifsrv-heu", "report.txt")
    access = os.access
    monkeypatch.setattr("cfmimo.cli.os.access", lambda path, mode: path != report and access(path, mode))
    made = _outputs(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {report}: cannot write: Permission denied\n"
    assert _outputs(tmp_path) == made


def test_bad_input_exit_status_of_the_module(tmp_path):
    # python -m cfmimo.cli in a fresh interpreter: the process exits 2
    row = next(p for p in ROWS if p.id == "map-duplicate")
    command, files, config, argv, message = row.values
    argv, names = _write_inputs(tmp_path, command, files, config, argv)
    proc = run_python("import runpy; runpy.run_module('cfmimo.cli', run_name='__main__')", *argv)
    assert (proc.returncode, proc.stderr) == (2, f"config error: {message.format(**names)}\n")
    assert not _outputs(tmp_path)


def test_base_set_runs(tmp_path):
    # every file of the base set is valid, so each row fails by its change alone
    argv, _ = _write_inputs(tmp_path, "simulate", {name: _BASE_FILES[name] for name in _SELECT}, (), ())
    assert cli.main(argv) == 0
    assert cli.main(["export-cdf", "--run", str(tmp_path / "run")]) == 0
