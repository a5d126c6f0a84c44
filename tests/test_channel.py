import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0
from scipy.stats import ks_2samp

from cfmimo import InputError
from cfmimo.channel import (
    DC_M,
    D0_M,
    LIGHT_SPEED,
    ChannelSnapshot,
    LogDistanceProvider,
    RadioConfig,
    _j0,
    aging_coefficient,
    assign_pilots,
    estimate_variance_matrix,
    hata_offset_db,
    load_pathloss_map,
    noise_power_w,
    pathloss_three_slope,
    snapshot,
)
from cfmimo.topology import AreaSpec, NetworkTopology, generate_ppp_topology

from conftest import block_draws, make_snapshot, random_snapshot
import oracles
from mapgen import save_pathloss_map
from oracles import estimate_variance, j0_series

# fixed-offset term checked against an independent hand evaluation of the
# constants at f_c = 2000 MHz, a_AP = 12.5 m, a_UE = 1.65 m
L0_EXPECTED = 142.5588578243433


def test_hata_offset_matches_hand_value(radio):
    assert hata_offset_db(radio) == pytest.approx(L0_EXPECTED, abs=1e-9)


def test_pathloss_far_slope_hand_value(radio):
    # d = 100 m sits on the far slope: L0 + 35*log10(0.1 km)
    expected = L0_EXPECTED + 35.0 * np.log10(0.1)
    assert pathloss_three_slope(100.0, radio) == pytest.approx(expected, abs=1e-9)


def test_pathloss_continuity_at_breakpoints(radio):
    eps = 1e-9
    for d in (D0_M, DC_M):
        below = pathloss_three_slope(d - eps, radio)
        at = pathloss_three_slope(d, radio)
        above = pathloss_three_slope(d + eps, radio)
        assert abs(at - below) < 1e-6
        assert abs(at - above) < 1e-6
    # spec-level continuity bound at the exact breakpoints
    mid_at_dc = hata_offset_db(radio) + 15 * np.log10(DC_M / 1e3) + 20 * np.log10(DC_M / 1e3)
    far_at_dc = hata_offset_db(radio) + 35 * np.log10(DC_M / 1e3)
    assert abs(mid_at_dc - far_at_dc) <= 1e-9


def test_pathloss_near_field_clamp(radio):
    assert np.isfinite(pathloss_three_slope(0.0, radio))
    assert pathloss_three_slope(0.0, radio) == pathloss_three_slope(D0_M, radio)


def test_pathloss_monotone(radio):
    d = np.linspace(0.0, 500.0, 2000)
    pl = pathloss_three_slope(d, radio)
    assert np.all(np.diff(pl) >= -1e-12)


def _shadow_field(topo, provider, pos, cfg):
    """The provider's path loss less the three-slope loss of the AP-UE
    distances: the shadow field it adds."""
    diff = topo.ap_positions[:, None, :] - pos[None, :, :]
    return provider.pathloss_db(pos) - pathloss_three_slope(np.hypot(diff[..., 0], diff[..., 1]), cfg)


def test_shadowing_zero_sigma_identity():
    topo = generate_ppp_topology(AreaSpec(1000.0, 1000.0), 3, seed=1)
    cfg = RadioConfig(shadowing_sigma_db=0.0)
    pos = np.random.default_rng(2).uniform(0.0, 1000.0, size=(4, 2))
    field = _shadow_field(topo, LogDistanceProvider(topo, cfg, 4, seed=1), pos, cfg)
    assert np.array_equal(field, np.zeros((3, 4)))


def test_shadowing_variance():
    # the shadow field over 500 x 200 links has variance sigma^2 within 3%
    sigma = 8.0
    topo = generate_ppp_topology(AreaSpec(1000.0, 1000.0), 500, seed=3)
    cfg = RadioConfig(shadowing_sigma_db=sigma)
    pos = np.random.default_rng(4).uniform(0.0, 1000.0, size=(200, 2))
    field = _shadow_field(topo, LogDistanceProvider(topo, cfg, 200, seed=42), pos, cfg)
    assert abs(field.var() - sigma**2) / sigma**2 < 0.03


def test_shadowing_determinism():
    # one seed gives one field, and the field stays fixed for the run: two
    # position sets see the same per-link shadow
    topo = generate_ppp_topology(AreaSpec(1000.0, 1000.0), 10, seed=5)
    cfg = RadioConfig(shadowing_sigma_db=4.0)
    a, b = (LogDistanceProvider(topo, cfg, 10, seed=5) for _ in range(2))
    pos1, pos2 = np.random.default_rng(6).uniform(0.0, 1000.0, size=(2, 10, 2))
    field = _shadow_field(topo, a, pos1, cfg)
    assert np.array_equal(field, _shadow_field(topo, b, pos1, cfg))
    assert np.allclose(_shadow_field(topo, a, pos2, cfg), field, rtol=0, atol=1e-9)


def test_noise_power_matches_link_budget(radio):
    n0_dbm = 10 * np.log10(noise_power_w(radio) * 1e3)
    # independent figure: -174 dBm/Hz + 10 log10(2e7) + 9 dB = -91.99 dBm
    assert n0_dbm == pytest.approx(-91.99, abs=0.05)


def _line_topo(n=3, spacing=100.0):
    area = AreaSpec(1000.0, 1000.0)
    pos = np.array([[spacing * (i + 1), 500.0] for i in range(n)])
    return NetworkTopology(area=area, ap_positions=pos)


def test_snapshot_zero_distance_finite(radio):
    topo = _line_topo(1)
    cfg = RadioConfig(shadowing_sigma_db=0.0)
    provider = LogDistanceProvider(topo, cfg, n_ues=1)
    snap = snapshot(topo, topo.ap_positions[:1], provider, cfg)
    assert np.isfinite(snap.beta).all()
    assert snap.beta[0, 0] > 0


def test_snapshot_power_linearity():
    topo = _line_topo(2)
    pos = np.array([[150.0, 480.0], [260.0, 530.0]])
    base = RadioConfig(shadowing_sigma_db=0.0, tx_power_w=0.2)
    doubled = RadioConfig(shadowing_sigma_db=0.0, tx_power_w=0.4)
    s1 = snapshot(topo, pos, LogDistanceProvider(topo, base, 2), base)
    s2 = snapshot(topo, pos, LogDistanceProvider(topo, doubled, 2), doubled)
    assert np.allclose(s2.beta, 2.0 * s1.beta, rtol=1e-12)


def test_beta_permutation_equivariance():
    topo = _line_topo(4)
    cfg = RadioConfig(shadowing_sigma_db=0.0)
    rng = np.random.default_rng(3)
    pos = rng.uniform(50.0, 900.0, size=(5, 2))
    provider = LogDistanceProvider(topo, cfg, 5)
    perm = np.array([3, 0, 4, 1, 2])
    s1 = snapshot(topo, pos, provider, cfg)
    s2 = snapshot(topo, pos[perm], provider, cfg)
    assert np.allclose(s2.beta, s1.beta[:, perm])


def test_snapshot_beta_consistent_with_pathloss(radio):
    topo = _line_topo(3)
    pos = np.array([[111.0, 222.0], [333.0, 444.0]])
    cfg = RadioConfig(shadowing_sigma_db=6.0)
    provider = LogDistanceProvider(topo, cfg, 2, seed=9)
    snap = snapshot(topo, pos, provider, cfg)
    recomputed = cfg.tx_power_w * 10 ** (-snap.pathloss_db / 10) / snap.noise_power
    assert np.allclose(snap.beta, recomputed, rtol=1e-12)


def test_aging_unity_at_estimation_slot(radio):
    assert aging_coefficient(radio.pilot_len_slots + 1, 5.0, radio) == pytest.approx(1.0)


def test_aging_static_ue(radio):
    t = np.arange(radio.block_len_slots)
    rho = aging_coefficient(t, 0.0, radio)
    assert np.allclose(rho, 1.0)


def test_aging_bounded_and_even(radio):
    t = np.arange(radio.block_len_slots)
    for v in (0.8, 3.6, 30.0, 120.0):
        rho = aging_coefficient(t, v, radio)
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)
    center = radio.pilot_len_slots + 1
    for delta in (1, 5, 50):
        left = aging_coefficient(center - delta, 50.0, radio)
        right = aging_coefficient(center + delta, 50.0, radio)
        assert left == pytest.approx(right, abs=1e-12)


def test_aging_first_bessel_zero(radio):
    z1 = 2.404825557695773
    lag = 100
    v = z1 * LIGHT_SPEED / (2 * np.pi * radio.carrier_freq_hz * radio.slot_duration_s * lag)
    t = radio.pilot_len_slots + 1 + lag
    rho = aging_coefficient(t, v, radio)
    assert abs(rho) < 1e-6
    assert abs(rho - j0_series(z1)) < 1e-6


def test_aging_matches_series_oracle(radio):
    for lag in (0, 3, 17, 60, 150):
        t = radio.pilot_len_slots + 1 + lag
        rho = aging_coefficient(t, 7.0, radio)
        arg = 2 * np.pi * (7.0 * radio.carrier_freq_hz / LIGHT_SPEED) * radio.slot_duration_s * lag
        assert rho == pytest.approx(j0_series(arg), abs=1e-9)


def test_j0_bit_identical_to_scipy():
    # scipy evaluates the same Cephes approximations; it is the oracle here
    # only, the package never imports it
    edges = [0.0, -0.0, 1e-5, 5.0, -5.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
    near = [np.nextafter(e, d) for e in (1e-5, 5.0, -5.0) for d in (-np.inf, np.inf)]
    x = np.concatenate([
        np.linspace(-60.0, 200.0, 1_000_001),
        np.geomspace(1e-9, 5.0, 100_001),  # both sides of the 1e-5 cut
        edges,
        near,
    ])
    assert np.array_equal(_j0(x), scipy_j0(x), equal_nan=True)


def test_aging_scalar_in_float_out(radio):
    rho = aging_coefficient(radio.block_len_slots, 30.0, radio)
    assert type(rho) is float
    assert rho == scipy_j0(
        2.0 * np.pi * (30.0 * radio.carrier_freq_hz / LIGHT_SPEED)
        * radio.slot_duration_s * (radio.block_len_slots - radio.pilot_len_slots - 1)
    )
    assert aging_coefficient(np.arange(3), 30.0, radio).shape == (3,)


def _fading_snapshot(m=2, k=3):
    rng = np.random.default_rng(8)
    pl = rng.uniform(80.0, 110.0, size=(m, k))
    cfg = RadioConfig()
    n0 = noise_power_w(cfg)
    beta = cfg.tx_power_w * 10 ** (-pl / 10) / n0
    return ChannelSnapshot(beta=beta, pathloss_db=pl, noise_power=n0)


def test_fading_marginal_ks(radio, monkeypatch):
    # the package's per-draw |h_t| and a fresh |h0| share the Rayleigh
    # marginal at the 1% level
    snap = _fading_snapshot(1, 1)
    _, h_t = block_draws(monkeypatch, snap, np.zeros(1, dtype=int), np.full(1, 25.0), radio, 10_000, seed=4,
                         estimator="per-draw")
    rng = np.random.default_rng(7)
    r = snap.channel_gain()[0, 0]
    fresh = np.abs(np.sqrt(r / 2) * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)))
    assert ks_2samp(np.abs(h_t[:, 0, 0]), fresh).pvalue > 0.01


def test_estimate_variance_hand_value():
    # rho = 1 (static UE), beta = 10, copilot betas {10, 5}, pilot power
    # p = 0.2 W and tau_p = 10: R = 10 n0 / 0.2 = 50 (make_snapshot's
    # n0 = 1), and the MMSE factor is (10 * 0.2 * 10) / (15 * 0.2 * 10 + 1) = 20 / 31
    cfg = RadioConfig()
    z = estimate_variance_matrix(make_snapshot([[10.0, 5.0]]), [0, 0], cfg.pilot_len_slots + 1, np.zeros(2), cfg)
    assert z[0, 0] == pytest.approx(50.0 * 20.0 / 31.0, rel=1e-12)


def test_estimate_variance_max_at_first_data_slot(radio):
    snap = make_snapshot([[5.0]])
    zs = [
        estimate_variance_matrix(snap, [0], t=t, speeds=[3.6], cfg=radio)[0, 0]
        for t in range(radio.pilot_len_slots + 1, radio.block_len_slots + 1)
    ]
    assert np.argmax(zs) == 0


def test_estimate_variance_contamination_decreases(radio):
    # UE 0 alone on its pilot, then sharing it with UE 1
    snap = make_snapshot([[5.0, 2.0]])
    z_lone, z_shared = (
        estimate_variance_matrix(snap, pilots, t=60, speeds=np.ones(2), cfg=radio)[0, 0]
        for pilots in ([0, 1], [0, 0])
    )
    assert z_shared < z_lone


def test_estimate_variance_mmse_form_bounded(radio):
    cfg = RadioConfig(estimate_form="mmse")
    snap = make_snapshot([[50.0]])
    z = estimate_variance_matrix(snap, [0], t=cfg.pilot_len_slots + 1, speeds=[0.0], cfg=cfg)
    assert 0 < z[0, 0] <= snap.channel_gain()[0, 0] + 1e-18


def test_estimate_variance_matrix_matches_scalar(radio):
    snap = _fading_snapshot(3, 4)
    pilots = np.array([0, 1, 0, 1])
    z = estimate_variance_matrix(snap, pilots, t=97, speeds=np.full(4, 2.0), cfg=radio)
    for m in range(3):
        for k in range(4):
            mates = snap.beta[m, pilots == pilots[k]]
            want = estimate_variance(snap.beta[m, k], mates, t=97, v=2.0, cfg=radio)
            assert z[m, k] == pytest.approx(want, rel=1e-12)


def test_estimate_variance_matrix_mmse_bounds():
    # 0 <= Z <= rho^2 R on every link and Z = 0 where R = 0, over random
    # snapshots (60 dB of beta spread, outage links), pilot sets, speeds and
    # slots; rho is the aging factor estimate_variance_matrix applies
    cfg = RadioConfig()
    rng = np.random.default_rng(21)
    for seed in range(40):
        m, k = (int(n) for n in rng.integers(1, 9, size=2))
        base = random_snapshot(m, k, seed=seed, spread_db=60.0)
        pl = np.where(rng.uniform(size=(m, k)) < 0.2, np.inf, base.pathloss_db)
        beta = np.where(np.isfinite(pl), base.beta, 0.0)
        snap = ChannelSnapshot(beta=beta, pathloss_db=pl, noise_power=base.noise_power)
        pilots = rng.integers(0, cfg.pilot_len_slots, size=k)
        speeds = np.where(rng.uniform(size=k) < 0.3, 0.0, rng.uniform(0.0, 40.0, size=k))
        t = int(rng.integers(cfg.pilot_len_slots + 1, cfg.block_len_slots + 1))
        z = estimate_variance_matrix(snap, pilots, t, speeds, cfg)
        rho = aging_coefficient(cfg.pilot_len_slots + 1 - t, speeds, cfg)
        r = snap.channel_gain()
        assert np.all(z >= 0)
        assert np.all(z <= rho**2 * r * (1 + 1e-12))
        assert np.all(z[r == 0] == 0)


def test_pilots_sequential_singletons():
    pilots = assign_pilots(8, 10, seed=0, method="sequential")
    assert np.array_equal(pilots, np.arange(8))


def test_pilots_reuse_at_scale():
    pilots = assign_pilots(50, 10, seed=123)
    counts = np.bincount(pilots, minlength=10)
    assert counts.sum() == 50
    assert counts.mean() == pytest.approx(5.0)
    assert counts.min() >= 1


def test_pilots_determinism():
    a = assign_pilots(40, 10, seed=7)
    b = assign_pilots(40, 10, seed=7)
    assert np.array_equal(a, b)


def _write_map(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for r in rows:
            f.write(",".join(str(v) for v in r) + "\n")


def test_map_lookup_identity(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1)
    path = tmp_path / "map.txt"
    save_pathloss_map(
        path, 10.0, 10.0, (0.0, 0.0),
        [(0, 0, 0, 90.0), (0, 1, 0, 95.0), (1, 0, 0, 88.0), (1, 1, 0, 93.5)],
    )
    plmap = load_pathloss_map(path, topo)
    out = plmap.pathloss_db(np.array([[10.0, 0.0]]))
    assert out[0, 0] == 95.0
    assert out[1, 0] == 93.5


def test_map_uncovered_cell_is_outage(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 1, seed=1)
    path = tmp_path / "map.txt"
    save_pathloss_map(path, 10.0, 10.0, (0.0, 0.0), [(0, 0, 0, 90.0)])
    plmap = load_pathloss_map(path, topo)
    cfg = RadioConfig()
    snap = snapshot(topo, np.array([[55.0, 55.0]]), plmap, cfg)
    assert snap.beta[0, 0] == 0.0


def test_map_same_cell_constant(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 1, seed=1)
    path = tmp_path / "map.txt"
    save_pathloss_map(path, 10.0, 10.0, (0.0, 0.0), [(0, 2, 3, 101.0)])
    plmap = load_pathloss_map(path, topo)
    a = plmap.pathloss_db(np.array([[19.0, 28.0]]))
    b = plmap.pathloss_db(np.array([[21.0, 32.0]]))
    assert a[0, 0] == b[0, 0] == 101.0


def test_map_unknown_ap_rejected(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 1, seed=1)
    path = tmp_path / "map.txt"
    save_pathloss_map(path, 10.0, 10.0, (0.0, 0.0), [(0, 0, 0, 90.0), (7, 0, 0, 90.0)])
    with pytest.raises(InputError, match="unknown AP id 7"):
        load_pathloss_map(path, topo)


def test_map_missing_ap_coverage_rejected(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1)
    path = tmp_path / "map.txt"
    save_pathloss_map(path, 10.0, 10.0, (0.0, 0.0), [(0, 0, 0, 90.0)])
    with pytest.raises(InputError, match="no coverage"):
        load_pathloss_map(path, topo)


def test_map_bad_spacing_rejected(tmp_path):
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 1, seed=1)
    path = tmp_path / "map.txt"
    _write_map(path, "0,10,0,0", [(0, 0, 0, 90.0)])
    with pytest.raises(InputError, match="spacing"):
        load_pathloss_map(path, topo)


@pytest.mark.parametrize("header", ["10,10,nan,0", "10,10,0,-inf", "inf,10,0,0", "10,nan,0,0"])
def test_map_non_finite_header_rejected(tmp_path, header):
    # a nan origin put every UE outside the map and ran to a sum rate of 0
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 1, seed=1)
    path = tmp_path / "map.txt"
    _write_map(path, header, [(0, 0, 0, 90.0)])
    with pytest.raises(InputError, match=r"map\.txt:1: non-finite header field$"):
        load_pathloss_map(path, topo)


def test_map_monotone_outage(tmp_path):
    # removing rows never increases any beta
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 3, seed=2)
    rows = [
        (ap, ix, iy, 80.0 + 3 * ap + ix + iy)
        for ap in range(3)
        for ix in range(4)
        for iy in range(4)
    ]
    full_path = tmp_path / "full.txt"
    save_pathloss_map(full_path, 10.0, 10.0, (0.0, 0.0), rows)
    rng = np.random.default_rng(5)
    keep = [r for r in rows if rng.uniform() > 0.3 or r[0] == 0 and r[1] == 0 and r[2] == 0]
    # keep at least one row per AP so the reduced file still parses
    for ap in range(3):
        if not any(r[0] == ap for r in keep):
            keep.append(next(r for r in rows if r[0] == ap))
    sub_path = tmp_path / "sub.txt"
    save_pathloss_map(sub_path, 10.0, 10.0, (0.0, 0.0), keep)
    cfg = RadioConfig()
    pos = rng.uniform(0.0, 35.0, size=(6, 2))
    full_beta = snapshot(topo, pos, load_pathloss_map(full_path, topo), cfg).beta
    sub_beta = snapshot(topo, pos, load_pathloss_map(sub_path, topo), cfg).beta
    assert np.all(sub_beta <= full_beta + 1e-18)


def _write_map_text(path, body):
    path.write_text("10,10,0,0\n" + body)
    return path


def _load_two_ap_map(path):
    return load_pathloss_map(path, generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1))


def test_map_duplicate_cell_names_line(tmp_path):
    path = _write_map_text(tmp_path / "map.txt", "0,0,0,90\n1,0,0,91\n0,1,0,92\n1,0,0,93\n")
    with pytest.raises(InputError, match=r"map\.txt:5: duplicate cell \(1, 0, 0\)$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize("row", ["0,x,0,90", "0,0,0,loud", "0,1.5,0,90", "1.5,0,0,90"])
def test_map_non_numeric_field_names_line(tmp_path, row):
    path = _write_map_text(tmp_path / "map.txt", f"0,0,0,90\n1,0,0,91\n{row}\n")
    with pytest.raises(InputError, match=rf"map\.txt:4: non-numeric field in '{row}'$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize("row", ["0,1,0", "0,1,0,90,7", "# AP 0 coverage"])
def test_map_wrong_field_count_names_line(tmp_path, row):
    path = _write_map_text(tmp_path / "map.txt", f"0,0,0,90\n{row}\n1,0,0,91\n")
    message = f"expected 'ap_id,cell_ix,cell_iy,pathloss_db', got '{row}'"
    with pytest.raises(InputError, match=rf"map\.txt:3: {message}$"):
        _load_two_ap_map(path)


def test_map_hash_starts_no_comment(tmp_path):
    path = _write_map_text(tmp_path / "map.txt", "0,0,0,90\n1,0,0,91\n#0,1,0,90\n")
    with pytest.raises(InputError, match=r"map\.txt:4: non-numeric field in '#0,1,0,90'$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,1,0", "expected 'ap_id,cell_ix,cell_iy,pathloss_db', got '0,1,0'"),
        ("0,1,x,90", "non-numeric field in '0,1,x,90'"),
        ("5,1,0,90", "unknown AP id 5"),
        ("0,0,0,95", r"duplicate cell \(0, 0, 0\)"),
    ],
)
def test_map_line_number_counts_blank_lines(tmp_path, row, message):
    # blank and whitespace-only lines are skipped but still count as lines
    path = _write_map_text(tmp_path / "map.txt", f"\n0,0,0,90\n  \n\n1,0,0,91\n\t\n{row}\n")
    with pytest.raises(InputError, match=rf"map\.txt:8: {message}$"):
        _load_two_ap_map(path)


_MAP_ROW_ERRORS = {
    "duplicate": ("0,0,0,95", r"duplicate cell \(0, 0, 0\)"),
    "unknown": ("5,1,0,90", "unknown AP id 5"),
    "malformed": ("0,1,x,90", "non-numeric field in '0,1,x,90'"),
}


@pytest.mark.parametrize("blank", [False, True], ids=["no-blank", "blank"])
@pytest.mark.parametrize(
    "order", [p for n in (2, 3) for p in itertools.permutations(_MAP_ROW_ERRORS, n)], ids="-".join
)
def test_map_names_first_bad_row_in_file_order(tmp_path, order, blank):
    # of two or three bad rows the earliest is named, whether loadtxt reads
    # every row and the vectorized check fails, or loadtxt refuses a row (a
    # whitespace-only line or the malformed one) and the scanner reads them
    lead = "0,0,0,90\n" + ("  \n" if blank else "") + "1,0,0,91\n"
    path = _write_map_text(tmp_path / "map.txt", lead + "".join(_MAP_ROW_ERRORS[e][0] + "\n" for e in order))
    message = _MAP_ROW_ERRORS[order[0]][1]
    with pytest.raises(InputError, match=rf"map\.txt:{4 + blank}: {message}$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize("blank", [False, True], ids=["loadtxt", "scanner"])
def test_map_path_loss_is_a_number_or_inf(tmp_path, blank):
    # inf is an explicit outage cell; nan and -inf are errors, and a repeated
    # cell with such a loss is named for its loss, by both loaders
    lead = " \n" if blank else ""
    path = _write_map_text(tmp_path / "map.txt", lead + "0,0,0,90\n1,0,0,inf\n")
    assert _load_two_ap_map(path).pathloss_db(np.array([[0.0, 0.0]]))[:, 0].tolist() == [90.0, np.inf]
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1)
    for row in ("1,1,0,nan", "0,0,0,-inf", "0,0,0,nan"):
        path = _write_map_text(tmp_path / "map.txt", lead + f"0,0,0,90\n1,0,0,91\n{row}\n")
        for loader in (load_pathloss_map, oracles.load_pathloss_map_reference):
            with pytest.raises(InputError, match=rf"map\.txt:{4 + blank}: non-finite path loss in '{row}'$"):
                loader(path, topo)


@pytest.mark.parametrize(
    "body, line",
    [
        # the x extent alone needs a flat index past int64
        (f"0,{-2**62},0,90\n1,{2**62},0,91\n", 3),
        # 2 x (2**32 + 1) x 2**32 cells: the int64 index would wrap, and
        # line 3's cell would land on line 2's
        (f"0,0,0,90\n0,{2**32},0,91\n1,0,{2**32 - 1},92\n", 4),
        # a cell index of magnitude 2**63, which int64 holds: loadtxt reads
        # this map, and the whitespace-only line sends it to the row scanner
        (f"0,{-2**63},0,90\n1,{-2**63},0,91\n", 2),
        (f"0,{-2**63},0,90\n1,{-2**63},0,91\n \n", 2),
    ],
    ids=["x-extent", "wrap", "min-int64", "min-int64-blank"],
)
def test_map_grid_past_int64_names_row(tmp_path, body, line):
    path = _write_map_text(tmp_path / "map.txt", body)
    row = body.splitlines()[line - 2]
    with pytest.raises(InputError, match=rf"map\.txt:{line}: cell index out of range in '{row}'$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize(
    "header, ok", [("1e-300,1e-300,0,0", False), ("10,10,1e300,0", False), ("10,1e-17,0,0", False), ("10,1e-16,0,0", True)]
)
def test_map_grid_must_index_the_area_in_int64(tmp_path, header, ok):
    # a position's cell index is cast to int64 at lookup, so both loaders
    # refuse a grid on which a point of the 100 x 100 m area has none (at
    # y = 100 m, 1e19 is past int64 and 1e18 is not)
    path = tmp_path / "map.txt"
    path.write_text(header + "\n0,0,0,90\n1,0,0,91\n")
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 2, seed=1)
    for loader in (load_pathloss_map, oracles.load_pathloss_map_reference):
        if ok:
            assert loader(path, topo).pathloss_db(np.array([[0.0, 0.0], [0.0, 100.0]]))[0].tolist() == [90.0, np.inf]
        else:
            with pytest.raises(InputError, match=r"map\.txt:1: the 100 x 100 m area's cell indices pass int64"):
                loader(path, topo)


def test_map_blank_lines_skipped(tmp_path):
    path = _write_map_text(tmp_path / "map.txt", "\n0,0,0,90\n  \n1,0,0,91\n\n")
    out = _load_two_ap_map(path).pathloss_db(np.array([[0.0, 0.0]]))
    assert out[:, 0].tolist() == [90.0, 91.0]


@pytest.mark.parametrize("body", ["", "\n", "\n  \n", "\r\n\r\n"])
def test_map_header_without_rows_rejected(tmp_path, body):
    # and without numpy's "input contained no data" warning
    path = _write_map_text(tmp_path / "map.txt", body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"map\.txt: no map rows$"):
            _load_two_ap_map(path)


@pytest.mark.parametrize("blank", [False, True], ids=["loadtxt", "scanner"])
def test_map_non_utf8_byte_deep_in_file_rejected(tmp_path, blank):
    # a \xff on the last row, ~100 kB in, past the first chunk loadtxt reads
    # of the path, so numpy's own reader meets the byte; a whitespace-only
    # line after the header sends the file to the row scanner instead
    rows = "".join(f"0,{i},0,90\n" for i in range(9000))
    path = tmp_path / "map.txt"
    path.write_bytes(("10,10,0,0\n" + (" \n" if blank else "") + rows).encode() + b"1,0,0,9\xff1\n")
    assert path.stat().st_size > 100_000
    with pytest.raises(InputError, match=r"map\.txt: not UTF-8 text$"):
        _load_two_ap_map(path)


@pytest.mark.parametrize("name", ["map.gz", "file://localhost/map.txt"])
def test_map_read_as_plain_text_whatever_its_name(tmp_path, monkeypatch, name):
    # numpy opens a path by its name: given these, it would gunzip the first
    # and take the second for a URL. Here both name plain local map files
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / name).write_text("10,10,0,0\n0,0,0,90\n1,0,0,91\n")
    out = _load_two_ap_map(name).pathloss_db(np.array([[0.0, 0.0]]))
    assert out[:, 0].tolist() == [90.0, 91.0]


@pytest.mark.parametrize("blank", [False, True], ids=["loadtxt", "scanner"])
def test_map_load_peak_memory_per_row(tmp_path, blank):
    # the streamed loader holds the rows (32 B each), the cell index and its
    # sorted copy (8 B each) and then the table; a loader that keeps the
    # file text and its line list needs ~150 B per row, and so does a row
    # scanner that keeps a Python object per row. A whitespace-only line
    # after the header makes loadtxt refuse the file and the scanner read it
    n_aps, side = 4, 160
    ix, iy = np.divmod(np.arange(side * side), side)
    pl = np.round(np.random.default_rng(4).uniform(60.0, 140.0, side * side), 4)
    path = tmp_path / "map.txt"
    with open(path, "w") as f:
        f.write("5,5,0,0\n" + (" \n" if blank else ""))
        for ap in range(n_aps):
            f.writelines(f"{ap},{a},{b},{c}\n" for a, b, c in zip(ix.tolist(), iy.tolist(), pl.tolist()))
    topo = generate_ppp_topology(AreaSpec(800.0, 800.0), n_aps, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plmap = load_pathloss_map(path, topo)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n_rows = n_aps * side * side
    assert plmap._table.shape == (n_aps, side, side)
    assert peak <= 64 * n_rows + plmap._table.nbytes, peak / n_rows


def test_map_round_trip_bit_identical(tmp_path):
    # every listed cell reads back bit for bit; every other cell of the
    # bounding box, for every AP, is outage (+inf)
    rng = np.random.default_rng(3)
    cells = {(ap, int(ix), int(iy)) for ap in range(3) for ix, iy in rng.integers(-4, 6, size=(25, 2))}
    # values exact at the file's 10 significant digits
    entries = [(ap, ix, iy, float(f"{rng.uniform(40.0, 160.0):.10g}")) for ap, ix, iy in sorted(cells)]
    path = tmp_path / "map.txt"
    dx, dy, origin = 2.5, 4.0, (-3.0, 7.0)
    save_pathloss_map(path, dx, dy, origin, entries)
    plmap = load_pathloss_map(path, generate_ppp_topology(AreaSpec(100.0, 100.0), 3, seed=1))
    ixs = range(min(c[1] for c in cells), max(c[1] for c in cells) + 1)
    iys = range(min(c[2] for c in cells), max(c[2] for c in cells) + 1)
    grid = [(ix, iy) for ix in ixs for iy in iys]
    centres = np.array([[origin[0] + ix * dx, origin[1] + iy * dy] for ix, iy in grid])
    expected = np.full((3, len(grid)), np.inf)
    for ap, ix, iy, pl in entries:
        expected[ap, grid.index((ix, iy))] = pl
    got = plmap.pathloss_db(centres)
    assert got.tobytes() == expected.tobytes()


_FUZZ_NEWLINES = ["\n"] * 8 + ["\r\n", "\r"]
# characters that end no line under the line rule (str.splitlines would
# break at each), and a space: each joins two rows into one
_FUZZ_BREAKS = _FUZZ_NEWLINES + ["\v", "\f", "\x1c", "\x85", "\u2028", " "]
_FUZZ_ODD_ROWS = [
    "", "", "  ", "\t", "#0,0,0,90", "# AP 0", "0,1", "0,1,0", "0,1,0,90,7", "1.5,0,0,90",
    "0,1_0,0,90", "0,1,0,9_0.5", "0,9223372036854775808,0,90", "1,0,-9223372036854775809,90",
    "0,100000000000000000000,1,90", " 1 , 2 ,3, 95.5 ", "0,x,0,90", "0,0,0,nan", "0,0,0,-inf",
    "0,0,0,90\x1c", "\x1d1,0,0,90", "0, \x1e1,0,90\x1f", "0,0,-1\x1f\t,90", "0\x1c,0,0,9\x1d0",
    "0,-9223372036854775808,0,90",
]
_FUZZ_FAR = (-(2**62), 2**62)
# \x1c-\x1f, which np.loadtxt strips around a field and int and float refuse
_FUZZ_FIELD_PADS = ["\x1c", "\x1d", "\x1e", "\x1f"]
_FUZZ_HEADERS = ["10,10,0,0"] * 8 + [
    "2.5,4,-3,7", "0,10,0,0", "10,10,0", "a,10,0,0", "10,10,nan,0", "inf,10,0,0", "",
    "10,10,0,0\x1c", "\x1f10,10,0,0",
]


def _fuzz_map_text(rng, n_aps):
    """A small map file: mostly well-formed rows over a few cells, so
    duplicates and unknown AP ids are common, plus odd rows and breaks."""
    lines = [_FUZZ_HEADERS[rng.integers(len(_FUZZ_HEADERS))]]
    hi = 1 if rng.uniform() < 0.3 else 6  # 9 or 64 cells per AP
    for _ in range(rng.integers(0, 12)):
        if rng.uniform() < 0.1:
            lines.append(_FUZZ_ODD_ROWS[rng.integers(len(_FUZZ_ODD_ROWS))])
        else:
            ap = rng.integers(0, n_aps + 1) if rng.uniform() < 0.1 else rng.integers(0, n_aps)
            ix, iy = rng.integers(-2, hi, size=2)
            fields = [str(ap), str(ix), str(iy), f"{rng.uniform(60.0, 140.0):.6g}"]
            if rng.uniform() < 0.05:
                # a cell 2**62 out: with a cell 2**62 out the other way, a
                # second AP or a second cell_iy, the grid passes int64
                fields[rng.integers(1, 3)] = str(rng.choice(_FUZZ_FAR))
            if rng.uniform() < 0.15:
                f = rng.integers(4)
                pad = _FUZZ_FIELD_PADS[rng.integers(len(_FUZZ_FIELD_PADS))]
                fields[f] = pad + fields[f] if rng.uniform() < 0.5 else fields[f] + pad
            lines.append(",".join(fields))
    mix = _FUZZ_BREAKS if rng.uniform() < 0.4 else _FUZZ_NEWLINES
    breaks = [mix[rng.integers(len(mix))] for _ in lines]
    text = "".join(line + end for line, end in zip(lines, breaks))
    return text[: rng.integers(len(text) - 1, len(text) + 1)]  # sometimes no final break


def _load_outcome(loader, path, topo):
    """(error type, message), or the accepted table's shape and bytes (so
    nan cells compare too) and the grid."""
    try:
        plmap = loader(path, topo)
    except Exception as e:  # every failure must match too
        return type(e), str(e)
    grid = (plmap._dx, plmap._dy, plmap._origin, plmap._offset)
    return plmap._table.shape, plmap._table.tobytes(), grid


def test_map_loader_matches_reference_on_fuzzed_files(tmp_path):
    # the streamed loader and its row-by-row re-read against the line-list
    # reference: the same table for every accepted file, the same error for
    # every other. The same file with a whitespace-only line appended after
    # a final line break, which loadtxt refuses, goes to the row scanner and
    # must load to the same outcome
    rng = np.random.default_rng(2024)
    kinds = set()
    for n in range(300):
        n_aps = int(rng.integers(1, 4))
        topo = generate_ppp_topology(AreaSpec(100.0, 100.0), n_aps, seed=1)
        path = tmp_path / f"map{n}.txt"
        text = _fuzz_map_text(rng, n_aps)
        path.write_bytes(text.encode("utf-8"))
        got = _load_outcome(load_pathloss_map, path, topo)
        want = _load_outcome(oracles.load_pathloss_map_reference, path, topo)
        assert got == want, path.read_bytes()
        kind = want[1].split(": ", 1)[-1].split(" ")[0] if isinstance(want[0], type) else "accepted"
        if kind == "cell" and any(str(v) in want[1] for v in _FUZZ_FAR):
            kind = "grid"  # past int64 by the grid rule, not by one index of magnitude 2**63
        if kind == "non-finite" and "path loss" in want[1]:
            kind = "loss"  # a nan or -inf row, not a header field
        kinds.add(kind)
        if text:  # an empty file has no header for the line to follow
            text += ("" if text.endswith(("\n", "\r")) else "\n") + " \n"
            path.write_bytes(text.encode("utf-8"))
            assert _load_outcome(load_pathloss_map, path, topo) == got, path.read_bytes()
    # the fuzz reaches acceptance and the main error kinds
    assert {"accepted", "duplicate", "unknown", "non-numeric", "non-finite", "loss", "expected", "grid"} <= kinds, kinds
