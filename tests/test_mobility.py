import numpy as np
import pytest

from cfmimo.mobility import TrackParseError, generate_rwp, load_tracks
from cfmimo.topology import AreaSpec


def test_rwp_per_block_displacement_bounded():
    area = AreaSpec(200.0, 200.0)
    trace = generate_rwp(area, k=5, speed=0.8, duration=4.0, block_duration=0.02, seed=2)
    step = np.linalg.norm(np.diff(trace.positions, axis=1), axis=2)
    assert step.max() <= 0.8 * 0.02 + 1e-9


def test_rwp_single_block_horizon():
    area = AreaSpec(100.0, 100.0)
    trace = generate_rwp(area, k=3, speed=1.0, duration=0.02, block_duration=0.02, seed=1)
    assert trace.n_blocks == 1


def test_rwp_determinism():
    area = AreaSpec(100.0, 100.0)
    a = generate_rwp(area, k=4, speed=1.5, duration=10.0, block_duration=0.5, seed=9)
    b = generate_rwp(area, k=4, speed=1.5, duration=10.0, block_duration=0.5, seed=9)
    assert np.array_equal(a.positions, b.positions)


def test_rwp_stays_in_area():
    area = AreaSpec(50.0, 80.0)
    trace = generate_rwp(area, k=6, speed=3.6, duration=200.0, block_duration=1.0, seed=4)
    assert np.all(area.contains(trace.positions.reshape(-1, 2)))


def test_rwp_rejects_bad_args():
    area = AreaSpec(100.0, 100.0)
    with pytest.raises(ValueError):
        generate_rwp(area, k=1, speed=1.0, duration=1.0, block_duration=0.1, mean_transition=0.0)
    with pytest.raises(ValueError):
        generate_rwp(area, k=1, speed=0.0, duration=1.0, block_duration=0.1)


def test_rwp_center_denser_than_corner():
    # qualitative stationary property over >= 1e4 samples
    area = AreaSpec(90.0, 90.0)
    trace = generate_rwp(area, k=2, speed=10.0, duration=6000.0, block_duration=1.0,
                         mean_transition=40.0, seed=13)
    pts = trace.positions.reshape(-1, 2)
    assert pts.shape[0] >= 10_000
    third = 30.0
    center = np.count_nonzero(
        (pts[:, 0] >= third) & (pts[:, 0] < 2 * third)
        & (pts[:, 1] >= third) & (pts[:, 1] < 2 * third)
    )
    corner = np.count_nonzero((pts[:, 0] < third) & (pts[:, 1] < third))
    assert center > corner


def _write_track(path, rows):
    path.write_text("".join(f"{u},{t:.6f},{x:.6f},{y:.6f}\n" for u, t, x, y in rows))


def test_tracks_linear_interpolation_collinear(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(0, 0.0, 0.0, 0.0), (0, 1.0, 10.0, 5.0)])
    trace = load_tracks(path, block_duration=0.1)
    pts = trace.positions[0]
    # all interpolated points sit on the segment
    cross = pts[:, 0] * 5.0 - pts[:, 1] * 10.0
    assert np.allclose(cross, 0.0, atol=1e-9)
    assert trace.n_blocks == 11


def test_tracks_identity_resample(tmp_path):
    bd = 0.02
    rows = [(0, i * bd, float(i), 2.0 * i) for i in range(50)]
    path = tmp_path / "tracks.txt"
    _write_track(path, rows)
    trace = load_tracks(path, block_duration=bd)
    assert trace.n_blocks == 50
    assert np.allclose(trace.positions[0, :, 0], np.arange(50), atol=1e-9)
    assert np.allclose(trace.positions[0, :, 1], 2.0 * np.arange(50), atol=1e-9)


def test_tracks_mobility_period_block_count(tmp_path):
    # 400 s of samples at block starts -> 20000 blocks at 20 ms
    bd = 0.02
    n = 20_000
    t = np.arange(n) * bd
    x = 0.5 * t  # straight line, well within any gap limit
    path = tmp_path / "tracks.txt"
    with open(path, "w") as f:
        for ti, xi in zip(t, x):
            f.write(f"0,{ti:.6f},{xi:.6f},1.0\n")
    trace = load_tracks(path, block_duration=bd)
    assert trace.n_blocks == 20_000
    assert trace.ue_count == 1
    assert trace.speed[0] == pytest.approx(0.5, rel=1e-6)


def test_tracks_never_extrapolate(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(0, 0.0, 0.0, 0.0), (0, 0.95, 9.5, 0.0)])
    trace = load_tracks(path, block_duration=0.1)
    # last grid point 0.9 <= last waypoint 0.95
    assert trace.n_blocks == 10
    assert trace.positions[0, -1, 0] == pytest.approx(9.0)


def test_tracks_gap_rejected(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(0, 0.0, 0.0, 0.0), (0, 0.05, 1.0, 0.0), (0, 2.0, 2.0, 0.0)])
    with pytest.raises(TrackParseError, match="gap"):
        load_tracks(path, block_duration=0.02)


def test_tracks_out_of_area_rejected(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(0, 0.0, 5.0, 5.0), (0, 0.1, 20.0, 5.0)])
    with pytest.raises(TrackParseError, match="outside"):
        load_tracks(path, block_duration=0.02, area=AreaSpec(10.0, 10.0))


def test_tracks_nonincreasing_time_rejected(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(0, 0.0, 0.0, 0.0), (0, 0.1, 1.0, 0.0), (0, 0.1, 2.0, 0.0)])
    with pytest.raises(TrackParseError, match="increasing"):
        load_tracks(path, block_duration=0.02)


@pytest.mark.parametrize(
    "row, what, area",
    [
        ("0,nan,11,10", "time", None),
        ("0,inf,11,10", "time", None),
        ("0,-inf,11,10", "time", None),
        ("0,0.02,nan,10", "point", None),
        ("0,0.02,11,-inf", "point", None),
        ("0,0.02,nan,10", "point", AreaSpec(100.0, 100.0)),
    ],
    ids=["nan", "inf", "-inf", "x-nan", "y-inf", "x-nan-area"],
)
def test_tracks_non_finite_time_names_line(tmp_path, row, what, area):
    # a nan time or coordinate passed every check and gave nan positions (and
    # a nan speed); with an area, a nan point read as outside it
    path = tmp_path / "tracks.txt"
    path.write_text(f"0,0,10,10\n{row}\n0,0.04,12,10\n")
    with pytest.raises(TrackParseError, match=rf"tracks\.txt:2: non-finite {what} in '{row}'$"):
        load_tracks(path, block_duration=0.02, area=area)


@pytest.mark.parametrize("n_steps", [5, 6], ids=["odd", "even"])
def test_tracks_speed_is_np_median_bit_for_bit(tmp_path, n_steps):
    # the speed is the median step rate, taken by a sort rather than by
    # np.median (which imports numpy.ma); it must give np.median's bits
    rng = np.random.default_rng(n_steps)
    k = 8
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.05, n_steps))])
    xy = rng.uniform(0.0, 100.0, size=(k, n_steps + 1, 2))
    rows = [(u, *map(float, (t[j], *xy[u, j]))) for j in range(n_steps + 1) for u in range(k)]
    path = tmp_path / "tracks.txt"  # repr reads back bit for bit
    path.write_text("".join(f"{u},{tj!r},{x!r},{y!r}\n" for u, tj, x, y in rows))
    trace = load_tracks(path, block_duration=0.02)
    want = [np.median(np.hypot(*np.diff(xy[u], axis=0).T) / np.diff(t)) for u in range(k)]
    assert trace.speed.tobytes() == np.array(want).tobytes()


def test_tracks_non_finite_first_time_names_line(tmp_path):
    # a lone -inf time passed the start-at-t=0 check and overflowed the
    # block count
    path = tmp_path / "tracks.txt"
    path.write_text("0,-inf,10,10\n")
    with pytest.raises(TrackParseError, match=r"tracks\.txt:1: non-finite time in '0,-inf,10,10'$"):
        load_tracks(path, block_duration=0.02)


@pytest.mark.parametrize(
    "ids, line, stray, missing",
    [((3, 7), 1, 3, 0), ((0, 2), 2, 2, 1), ((1, -1), 2, -1, 0)],
)
def test_tracks_ids_must_be_0_to_k_minus_1(tmp_path, ids, line, stray, missing):
    # the report labels UE i by row i, so ids are never renumbered
    path = tmp_path / "tracks.txt"
    _write_track(path, [(u, t, 1.0, 1.0) for t in (0.0, 0.02) for u in ids])
    message = rf"tracks\.txt:{line}: UE id {stray} is outside 0\.\.1; .* id {missing} is missing$"
    with pytest.raises(TrackParseError, match=message):
        load_tracks(path, block_duration=0.02)


def test_tracks_ids_in_any_order(tmp_path):
    path = tmp_path / "tracks.txt"
    _write_track(path, [(1, 0.0, 5.0, 6.0), (0, 0.0, 1.0, 2.0), (1, 0.02, 5.0, 6.0), (0, 0.02, 1.0, 2.0)])
    trace = load_tracks(path, block_duration=0.02)
    assert trace.positions[:, 0].tolist() == [[1.0, 2.0], [5.0, 6.0]]
