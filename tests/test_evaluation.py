import tracemalloc

import numpy as np
import pytest

from cfmimo.channel import (
    ESTIMATE_FORMS,
    LIGHT_SPEED,
    ChannelSnapshot,
    RadioConfig,
    aging_coefficient,
    estimate_variance_matrix,
    noise_power_w,
)
from cfmimo.evaluation import (
    PrecodingContext,
    _percentile_rows,
    build_report,
    evaluate_block,
    evaluate_matrices,
    hardening_moments,
    instant_sinr,
    precode_pmmse,
    radiated_powers,
    received_gains,
    spectral_efficiency,
)
from cfmimo.harness import ExperimentConfig, prepare
from cfmimo.selection import (
    CooperationMatrix,
    SelectionConstraints,
    run_algorithm,
    select_full_cf,
    select_small_cell,
)
from cfmimo.topology import AreaSpec, generate_ppp_topology
from cfmimo.channel import LogDistanceProvider, snapshot as make_channel_snapshot

from conftest import block_draws, make_snapshot, no_outage, random_snapshot
import oracles


def _sw(w, powers):
    """sqrt(p) conj(w): the power-scaled conjugate precoders received_gains takes."""
    return np.sqrt(powers) * np.conj(w)


def _members(group):
    """(UE, serving rows, column in S) of each direct member of a layout group."""
    return [(k, group.rows[pos].tolist(), col) for k, pos, col in group.direct]


def test_context_sets():
    d = CooperationMatrix(np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    ctx = PrecodingContext.from_matrix(d)
    assert ctx.n_ues == 3
    # UE0 and UE1 share AP1, so S = {0, 1} for both; UE2 is isolated and is
    # its own interferer set
    g01, g2 = ctx.groups
    assert g01.s_set.tolist() == [0, 1] and g01.rows.tolist() == [0, 1]
    assert _members(g01) == [(0, [0, 1], 0), (1, [1], 1)]
    assert g2.s_set.tolist() == [2] and g2.rows.tolist() == [2]
    assert _members(g2) == [(2, [2], 0)]
    assert not g01.wide.size and not g2.wide.size


def test_context_contains_self_even_unserved():
    # UE1 has no serving AP: it is in no group, in no interferer set, and
    # its precoder column stays zero; UE0's interferer set is itself
    d = CooperationMatrix(np.array([[1, 0], [0, 0]]))
    ctx = PrecodingContext.from_matrix(d)
    assert ctx.n_ues == 2
    (group,) = ctx.groups
    assert group.s_set.tolist() == [0]
    assert _members(group) == [(0, [0], 0)]
    w = precode_pmmse(ctx, np.ones((1, 2, 2), dtype=complex), reg=1e-3)
    assert abs(w[0, 0, 0]) == pytest.approx(1.0) and not w[..., 1].any()


def test_split_powers_equal_share():
    cfg = RadioConfig()
    d = CooperationMatrix(np.array([[1, 1], [1, 0]]))
    p = radiated_powers(d, cfg) / np.maximum(d.g_k, 1)
    assert p[0, 0] == pytest.approx(cfg.tx_power_w / 2)
    assert p[0, 1] == pytest.approx(cfg.tx_power_w / 2)
    assert p[1, 0] == pytest.approx(cfg.tx_power_w)
    assert p[1, 1] == 0.0


def test_radiated_powers_scale_with_serving_set():
    # each serving link radiates its split budget despite the unit-norm
    # precoder direction, so the effective scaling carries G_k
    cfg = RadioConfig()
    d = CooperationMatrix(np.array([[1, 1], [1, 0]]))
    p_eff = radiated_powers(d, cfg)
    assert p_eff[0, 0] == pytest.approx(cfg.tx_power_w / 2 * 2)
    assert p_eff[1, 0] == pytest.approx(cfg.tx_power_w * 2)
    assert p_eff[0, 1] == pytest.approx(cfg.tx_power_w / 2 * 1)
    assert p_eff[1, 1] == 0.0


def test_instant_sinr_per_draw_single_link():
    # one draw, one UE, no interference: per-draw gamma is the plain
    # instantaneous SNR p |conj(h) w|^2 / n0
    h = np.array([[[0.5 - 1.2j]]])
    w = h / np.abs(h)
    p = np.array([[0.3]])
    n0 = 1e-2
    gamma = instant_sinr(*received_gains(h, _sw(w, p)), rho=1.0, noise=n0, estimator="per-draw")
    direct = 0.3 * abs(h[0, 0, 0]) ** 2 / n0
    assert gamma[0] == pytest.approx(direct, rel=1e-9)


def test_instant_sinr_per_draw_is_log_mean():
    # the ergodic-equivalent output satisfies log2(1+gamma) = mean log2(1+gamma_n)
    rng = np.random.default_rng(9)
    h = rng.standard_normal((200, 1, 1)) + 1j * rng.standard_normal((200, 1, 1))
    w = h / np.abs(h)
    p = np.array([[0.3]])
    n0 = 0.5
    gamma = instant_sinr(*received_gains(h, _sw(w, p)), rho=1.0, noise=n0, estimator="per-draw")
    gamma_n = 0.3 * np.abs(h[:, 0, 0]) ** 2 / n0
    assert np.log2(1 + gamma[0]) == pytest.approx(np.mean(np.log2(1 + gamma_n)), rel=1e-9)


def test_instant_sinr_unknown_estimator_rejected():
    h = np.ones((1, 1, 1), dtype=complex)
    with pytest.raises(ValueError, match="estimator"):
        instant_sinr(*received_gains(h, _sw(h, np.array([[0.2]]))), rho=1.0, noise=1e-3, estimator="magic")


def test_precoder_single_link_matched_filter():
    ctx = PrecodingContext.from_matrix(CooperationMatrix(np.array([[1]])))
    est = np.array([[0.3 - 0.4j]])
    w = precode_pmmse(ctx, est[None], reg=1e-6 / 0.2)[0]
    assert abs(w[0, 0]) == pytest.approx(1.0)
    # conjugate-matched received gain is real positive
    gain = np.conj(est[0, 0]) * w[0, 0]
    assert gain.imag == pytest.approx(0.0, abs=1e-12)
    assert gain.real > 0


def test_precoder_orthogonal_channels_align():
    d = CooperationMatrix(np.ones((2, 2), dtype=int))
    ctx = PrecodingContext.from_matrix(d)
    est = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    w = precode_pmmse(ctx, est[None], reg=1e-12 / 0.2)[0]
    assert abs(np.vdot(est[:, 0], w[:, 0])) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.vdot(est[:, 1], w[:, 0])) < 1e-6
    assert abs(np.vdot(est[:, 0], w[:, 1])) < 1e-6


def test_precoder_woodbury_path_matches_direct():
    # serving set larger than interferer set takes the S x S solve; the
    # oracle solves the G x G system directly
    rng = np.random.default_rng(0)
    m, k = 6, 2
    est = rng.standard_normal((3, m, k)) + 1j * rng.standard_normal((3, m, k))
    d = CooperationMatrix(np.ones((m, k), dtype=int))
    ctx = PrecodingContext.from_matrix(d)
    reg = 1e-3 / 0.3
    w_wood = precode_pmmse(ctx, est, reg)
    w_direct = oracles.pmmse_oracle(d.d, est, reg)
    assert np.allclose(w_wood, w_direct, atol=1e-9)


def _cn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_matches_oracle(d, est, reg=0.05 / 0.2, ues=None):
    ctx = PrecodingContext.from_matrix(CooperationMatrix(np.asarray(d)))
    w = precode_pmmse(ctx, est, reg)
    ref = oracles.pmmse_oracle(d, est, reg)
    assert w.shape == est.shape
    cols = slice(None) if ues is None else ues
    assert np.abs(w[..., cols] - ref[..., cols]).max() < 1e-9
    return ctx, w


def test_precoder_fullcf_distinct_serving_sets_one_group():
    # every UE shares one interferer set while the serving sets differ, as
    # under full-CF with beta0 cuts
    rng = np.random.default_rng(21)
    m, k = 12, 4
    d = np.ones((m, k), dtype=int)
    d[[0, 3], 0] = 0
    d[[5, 6, 7], 1] = 0
    d[11, 2] = 0
    ctx, _ = _assert_matches_oracle(d, _cn(rng, (5, m, k)))
    (group,) = ctx.groups
    assert group.s_set.tolist() == list(range(k))
    assert len({tuple(col) for col in d.T}) == k


def test_precoder_group_mixes_direct_and_woodbury():
    # one interferer group {0..3}: UE0 (G=2) and UE3 (G=3) solve directly,
    # UE1 (G=10) and UE2 (G=7) through the S x S form
    m = 10
    d = np.zeros((m, 4), dtype=int)
    d[[0, 1], 0] = 1
    d[:, 1] = 1
    d[:7, 2] = 1
    d[[0, 5, 6], 3] = 1
    rng = np.random.default_rng(22)
    ctx, _ = _assert_matches_oracle(d, _cn(rng, (4, m, 4)))
    (group,) = ctx.groups
    assert group.s_set.tolist() == [0, 1, 2, 3]
    assert d.sum(axis=0).tolist() == [2, 10, 7, 3]
    assert [k for k, _, _ in group.direct] == [0, 3] and group.wide.tolist() == [1, 2]


def _tree_extras(tree):
    """The extra-row positions of every node of a layout's Gram tree."""
    if not isinstance(tree, tuple):
        return []
    return [e for extra, sub in tree for e in [extra] + _tree_extras(sub)]


def test_precoder_layout_built_once_serves_any_chunk():
    # one interferer group of 8 UEs, all wide (G >= 12 > |S| = 8), over
    # distinct serving sets: rows 0-5 are the core, UEs 0-3 share no row
    # beyond it (so tree nodes {0, 1, 2, 3} and {0, 1} add none), UEs 4-7
    # share rows 8-17. One layout serves chunks of 1, 3 and all 7 draws, and
    # each gives the same precoders, within the oracle's tolerance.
    m, k, n = 20, 8, 7
    d = np.zeros((m, k), dtype=int)
    d[:6] = 1
    d[6:12, 0] = 1
    d[12:18, 1] = 1
    d[6:17, 2] = 1
    d[7:18, 3] = 1
    d[6:, 4:] = 1
    d[[18, 19, 6, 7], [4, 5, 6, 7]] = 0
    ctx = PrecodingContext.from_matrix(CooperationMatrix(d))
    est = _cn(np.random.default_rng(27), (n, m, k))
    reg = 0.05 / 0.2
    ref = oracles.pmmse_oracle(d, est, reg)
    runs = []
    for step in (1, 3, n):
        w = np.concatenate([precode_pmmse(ctx, est[i : i + step], reg) for i in range(0, n, step)])
        assert np.abs(w - ref).max() < 1e-9
        runs.append(w)
    assert all(np.array_equal(w, runs[-1]) for w in runs)
    (group,) = ctx.groups
    assert group.wide.tolist() == list(range(k)) and not group.direct
    assert len({tuple(col) for col in d.T}) == k
    assert group.core.tolist() == list(range(6))
    assert any(extra.size == 0 for extra in _tree_extras(group.tree))


def test_precoder_unserved_ues_zero():
    d = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 1, 0]])
    rng = np.random.default_rng(23)
    _, w = _assert_matches_oracle(d, _cn(rng, (3, 4, 4)))
    assert not w[..., [1, 3]].any()


def test_precoder_strong_rows_outside_serving_set():
    # rows 6 and 7 lie outside UE0's serving set and carry 1e6 times the
    # amplitude for the other UEs; forming UE0's Gram as a full Gram minus
    # those rows would lose UE0's part of it to cancellation
    m = 8
    d = np.ones((m, 3), dtype=int)
    d[[6, 7], 0] = 0
    d[5, 2] = 0
    rng = np.random.default_rng(25)
    est = _cn(rng, (6, m, 3))
    est[:, 6:, 1:] *= 1e6
    _assert_matches_oracle(d, est, ues=0)


@pytest.mark.parametrize("noise", [1e-2, 1e-10, 1e-12])
def test_precoder_accurate_at_high_snr(noise):
    # per-link SNR p |est|^2 / n0 up to ~1e12; UE2 (G=3) solves directly, the
    # others (G=7, 8) take the S x S form. A float direct solve already loses
    # ~1e-6 at n0 = 1e-10, so the reference is solved in exact arithmetic.
    m = 8
    d = np.ones((m, 3), dtype=int)
    d[7, 0] = 0
    d[3:, 2] = 0
    rng = np.random.default_rng(26)
    est = _cn(rng, (3, m, 3))
    reg = noise / 0.2
    ctx = PrecodingContext.from_matrix(CooperationMatrix(d))
    w = precode_pmmse(ctx, est, reg)
    ref = oracles.pmmse_oracle(d, est, reg, exact=True)
    assert np.abs(w - ref).max() < 1e-12


def _sinr_instance(seed, n=7, m=5, k=4):
    rng = np.random.default_rng(seed)
    d = (rng.uniform(size=(m, k)) < 0.6).astype(int)
    d[0] = 1
    coop = CooperationMatrix(d)
    ctx = PrecodingContext.from_matrix(coop)
    h = _cn(rng, (n, m, k))
    w = precode_pmmse(ctx, _cn(rng, (n, m, k)), reg=0.1 / 0.2)
    powers = radiated_powers(coop, RadioConfig(tx_power_w=0.2))
    return h, w, powers, rng.uniform(0.3, 1.0, size=k)


@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_instant_sinr_matches_gain_loop_oracle(estimator):
    for seed in range(3):
        h, w, powers, rho = _sinr_instance(seed)
        gamma = instant_sinr(*received_gains(h, _sw(w, powers)), rho, noise=0.05, estimator=estimator)
        gains = oracles.gains_oracle(h, w, powers)
        ref = oracles.sinr_from_gains_oracle(gains, rho, 0.05, estimator)
        assert np.allclose(gamma, ref, rtol=1e-12, atol=0.0)


def test_precoder_duplicate_channels_split_interference():
    cfg = RadioConfig()
    n0 = 1e-10
    h = np.array([[0.5 + 0.2j], [0.1 - 0.3j]])
    # single UE baseline
    d1 = CooperationMatrix(np.ones((2, 1), dtype=int))
    ctx1 = PrecodingContext.from_matrix(d1)
    w1 = precode_pmmse(ctx1, h[None], reg=n0 / 0.2)[0]
    p1 = np.full((2, 1), 0.1)
    g1 = instant_sinr(*received_gains(h[None], _sw(w1[None], p1)), rho=1.0, noise=n0)
    # duplicated UE with the same channel
    h2 = np.concatenate([h, h], axis=1)
    d2 = CooperationMatrix(np.ones((2, 2), dtype=int))
    ctx2 = PrecodingContext.from_matrix(d2)
    w2 = precode_pmmse(ctx2, h2[None], reg=n0 / 0.2)[0]
    p2 = np.full((2, 2), 0.1)
    g2 = instant_sinr(*received_gains(h2[None], _sw(w2[None], p2)), rho=1.0, noise=n0)
    assert g2[0] <= g1[0] + 1e-9
    assert g2[1] <= g1[0] + 1e-9


def test_instant_sinr_single_link_oracle():
    # no interferers, perfect estimate, rho = 1, one draw: the bound reduces
    # to p |sum_m conj(h) w|^2 / n0, coded directly here
    rng = np.random.default_rng(1)
    m = 3
    h = (rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))) * 1e-5
    d = CooperationMatrix(np.ones((m, 1), dtype=int))
    ctx = PrecodingContext.from_matrix(d)
    n0 = 1e-13
    w = precode_pmmse(ctx, h[None], reg=n0 / 0.2)[0]
    p = np.full((m, 1), 0.2)
    gamma = instant_sinr(*received_gains(h[None], _sw(w[None], p)), rho=1.0, noise=n0)
    direct = abs(np.sum(np.sqrt(0.2) * np.conj(h[:, 0]) * w[:, 0])) ** 2 / n0
    assert gamma[0] == pytest.approx(direct, rel=1e-9)


def test_instant_sinr_unserved_ue_zero():
    d = CooperationMatrix(np.array([[1, 0], [1, 0]]))
    ctx = PrecodingContext.from_matrix(d)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    w = precode_pmmse(ctx, h, reg=1e-3 / 0.2)
    gamma = instant_sinr(*received_gains(h, _sw(w, np.full((2, 2), 0.1))), rho=1.0, noise=1e-3)
    assert gamma[1] == 0.0


def test_instant_sinr_vanishes_with_aging():
    h = np.array([[[1.0 + 0j]]])
    w = np.array([[[1.0 + 0j]]])
    p = np.array([[0.2]])
    g_fresh = instant_sinr(*received_gains(h, _sw(w, p)), rho=1.0, noise=1e-3)
    g_aged = instant_sinr(*received_gains(h, _sw(w, p)), rho=0.0, noise=1e-3)
    assert g_aged[0] == 0.0
    assert g_fresh[0] > 0


def test_spectral_efficiency_values(radio):
    se, rate = spectral_efficiency(np.array([0.0, 1.0]), radio)
    assert se[0] == 0.0 and rate[0] == 0.0
    assert rate[1] == pytest.approx(19e6)  # 20 MHz * 0.95 * log2(2)
    wide = RadioConfig(bandwidth_hz=40e6)
    _, rate_wide = spectral_efficiency(np.array([1.0]), wide)
    assert rate_wide[0] == pytest.approx(2 * rate[1])


def _block_report(coop, rates):
    """build_report of one block in which ``coop`` serves UEs at ``rates``:
    the rates as SE over a 1 Hz band."""
    rates = np.asarray(rates, dtype=float)[:, None]
    cons = SelectionConstraints(g_max=30)
    return build_report("small-cell", 0, "0" * 16, 1, rates, 1.0, coop.g_k[:, None], coop.w_m[:, None], cons)


def test_objective_values_basics():
    rep = _block_report(CooperationMatrix(np.ones((3, 2), dtype=int)), [5e6, 5e6])
    assert rep.sum_rate == pytest.approx(1e7)
    assert rep.jain == pytest.approx(1.0)
    assert rep.mean_connections == 6
    assert rep.pf_objective == pytest.approx(2 * np.log(5e6))


def test_objective_values_hand_triple():
    rep = _block_report(CooperationMatrix(np.array([[1, 0], [0, 1]])), [3e6, 1e6])
    assert rep.sum_rate == pytest.approx(4e6)
    assert rep.jain == pytest.approx(16.0 / 20.0)  # (4e6)^2 / (2 * 1e13)
    assert rep.mean_connections == 2
    assert rep.pf_objective == pytest.approx(np.log(3e6) + np.log(1e6))


def test_objective_pf_floors_zero_rates():
    rep = _block_report(CooperationMatrix(np.array([[1, 0]])), [2e6, 0.0])
    assert rep.pf_objective == pytest.approx(np.log(2e6))


def test_draw_block_estimate_moments_at_speed_0(monkeypatch):
    # static UEs (rho = 1, so h_t = h0): E|est|^2 = Z and E{est conj(h_t)} = Z
    # on every link, copilot links included, within five standard errors
    snap, cfg = _desk_instance(m=6, k=4, seed=9)
    pilots, speeds, n = np.array([0, 1, 0, 1]), np.zeros(4), 4000
    est, h_t = block_draws(monkeypatch, snap, pilots, speeds, cfg, n, seed=13, estimator="per-draw")
    z = estimate_variance_matrix(snap, pilots, cfg.block_len_slots, speeds, cfg)
    assert np.all(aging_coefficient(cfg.block_len_slots, speeds, cfg) == 1.0)
    for sample in (np.abs(est) ** 2, est * np.conj(h_t)):
        err = np.abs(sample.mean(axis=0) - z)
        assert np.all(err <= 5 * sample.std(axis=0) / np.sqrt(n))


def test_draw_block_joint_law_with_moving_ues(monkeypatch):
    # the estimate-then-residual stream has the joint law of the block-start
    # draw h0 ~ CN(0, R), est = E[h0 | est] and h_t = rho h0 + sqrt(1 - rho^2) g:
    # E|est|^2 = Z, E|h_t|^2 = R and E{est conj(h_t)} = rho Z, within five
    # standard errors on every link. The last UE's speed puts the block-end
    # rho at J0's first zero, where h_t is uncorrelated with the estimate.
    # n = 4000 takes 1,639-draw chunks, so the law holds across chunk seeds.
    snap, cfg = _desk_instance(m=6, k=5, seed=9)
    lag = cfg.block_len_slots - cfg.pilot_len_slots - 1
    v_zero = 2.404825557695773 * LIGHT_SPEED / (2 * np.pi * cfg.carrier_freq_hz * cfg.slot_duration_s * lag)
    pilots, speeds, n = np.array([0, 1, 0, 1, 0]), np.array([0.8, 3.0, 12.0, 30.0, v_zero]), 4000
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 1639 * 30)
    est, h_t = block_draws(monkeypatch, snap, pilots, speeds, cfg, n, seed=13, estimator="per-draw")
    z = estimate_variance_matrix(snap, pilots, cfg.block_len_slots, speeds, cfg)
    rho = aging_coefficient(cfg.block_len_slots, speeds, cfg)
    assert np.all(rho < 1.0) and abs(rho[-1]) < 1e-6
    cases = (
        (np.abs(est) ** 2, z),
        (np.abs(h_t) ** 2, snap.channel_gain()),
        (est * np.conj(h_t), rho * z),
    )
    for sample, want in cases:
        err = np.abs(sample.mean(axis=0) - want)
        assert np.all(err <= 5 * sample.std(axis=0) / np.sqrt(n))


def test_draw_block_hardening_draws_the_estimates_only(monkeypatch):
    # hardening draws est first and stops: the same estimates as per-draw at
    # the same seed, and its gains are formed on those estimates only; an
    # unknown estimator is refused
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig()
    hard = block_draws(monkeypatch, snap, pilots, speeds, cfg, 8, seed=5, estimator="hardening")
    full = block_draws(monkeypatch, snap, pilots, speeds, cfg, 8, seed=5, estimator="per-draw")
    assert np.array_equal(hard[0], full[0]) and np.array_equal(hard[1], hard[0])
    assert not np.array_equal(full[1], full[0])
    coop = select_small_cell(snap, no_outage(snap))
    with pytest.raises(ValueError, match="estimator"):
        evaluate_block(snap, coop, pilots, speeds, cfg, 8, seed=5, estimator="magic")


def test_hardening_moments_rao_blackwell_identity():
    # with the estimates and precoders fixed, the hardening desired gain and
    # total power are the mean of gain_kk and of sum_i |gain_ik|^2 over the
    # residual: average 120k draws of h_t = rho est + nu,
    # nu ~ CN(0, R - rho^2 Z), within five standard errors for every UE
    snap, cfg = _desk_instance(m=6, k=3, seed=4)
    pilots, speeds = np.array([0, 1, 0]), np.array([0.8, 3.0, 12.0])
    coop = select_full_cf(snap, no_outage(snap))
    z = estimate_variance_matrix(snap, pilots, cfg.block_len_slots, speeds, cfg)
    rho = aging_coefficient(cfg.block_len_slots, speeds, cfg)
    resid = np.maximum(snap.channel_gain() - rho**2 * z, 0.0)
    est = np.sqrt(z / 2.0) * _cn(np.random.default_rng(21), (2, 6, 3))
    powers = radiated_powers(coop, cfg)
    ctx = PrecodingContext.from_matrix(coop)
    w = precode_pmmse(ctx, est, snap.noise_power / cfg.tx_power_w)
    desired, total = hardening_moments(est, _sw(w, powers), rho, resid)
    rng = np.random.default_rng(22)
    n = 120_000
    sw = np.sqrt(powers) * w  # (2, M, K)
    for d in range(2):
        x, y = rng.standard_normal((2, n, 6, 3))
        nu = np.sqrt(resid / 2.0) * (x + 1j * y)
        h_t = rho * est[d] + nu
        gains = np.einsum("mi,nmk->nik", sw[d], h_t.conj())
        samples = ((np.diagonal(gains, axis1=1, axis2=2), desired[d]), ((np.abs(gains) ** 2).sum(axis=1), total[d]))
        for sample, want in samples:
            err = np.abs(sample.mean(axis=0) - want)
            assert np.all(err <= 5 * sample.std(axis=0) / np.sqrt(n))


def _evaluate_one_link(monkeypatch, gamma_db, estimator, n_mc=100_000):
    """evaluate_block's gamma for one AP serving one static UE at mean SNR
    gamma_bar, and the per-draw desired gains and total powers it combined."""
    cfg = RadioConfig()
    n0 = noise_power_w(cfg)
    gamma_bar = 10.0 ** (gamma_db / 10.0)
    r_gain = gamma_bar * n0 / cfg.tx_power_w
    snap = ChannelSnapshot(
        beta=np.array([[gamma_bar]]), pathloss_db=np.array([[-10.0 * np.log10(r_gain)]]), noise_power=n0
    )
    coop = CooperationMatrix(np.ones((1, 1), dtype=int))
    seen = []

    def spy(desired, total, *args, **kwargs):
        seen.append((desired, total))
        return instant_sinr(desired, total, *args, **kwargs)

    monkeypatch.setattr("cfmimo.evaluation.instant_sinr", spy)
    gamma, _, _ = evaluate_block(snap, coop, np.zeros(1, dtype=int), 0.0, cfg, n_mc=n_mc, seed=31, estimator=estimator)
    return gamma[0], seen[0], n0, cfg, gamma_bar


@pytest.mark.parametrize("gamma_db", [0.0, 10.0])
def test_evaluate_block_one_link_hardening_closed_form(monkeypatch, gamma_db):
    # imperfect-CSI use-and-forget bound, within five standard errors taken
    # by batch means over the draws evaluate_block combined
    gamma, (desired, total), n0, cfg, gamma_bar = _evaluate_one_link(monkeypatch, gamma_db, "hardening")
    batches = [instant_sinr(d, t, 1.0, n0)[0] for d, t in zip(np.split(desired, 20), np.split(total, 20))]
    sem = np.std(batches, ddof=1) / np.sqrt(len(batches))
    want = oracles.hardening_one_link_sinr(gamma_bar, cfg.tx_power_w, cfg.pilot_len_slots)
    assert abs(gamma - want) <= 5 * sem


@pytest.mark.parametrize("gamma_db", [0.0, 10.0])
def test_evaluate_block_one_link_per_draw_closed_form(monkeypatch, gamma_db):
    # mean log2(1 + gamma_n) against e^{1/g} E1(1/g) / ln 2, within five
    # standard errors of the per-draw log terms
    gamma, (desired, total), n0, _, gamma_bar = _evaluate_one_link(monkeypatch, gamma_db, "per-draw")
    assert np.array_equal(total, np.abs(desired) ** 2)  # one link: no interference
    logs = np.log2(1.0 + np.abs(desired[:, 0]) ** 2 / n0)
    sem = logs.std() / np.sqrt(logs.size)
    assert abs(np.log2(1.0 + gamma) - oracles.per_draw_one_link_se(gamma_bar)) <= 5 * sem


def test_small_cell_hardening_se_matches_its_closed_form():
    # desk block 0 of seed 3: each UE's mean SE over 12 seeds at n_mc = 500
    # within five standard errors of the small-cell form (its aging factor is
    # copied from the package, see the oracle)
    scn = prepare(ExperimentConfig(seed=3), ["small-cell"])
    snap = make_channel_snapshot(scn.topology, scn.trace.positions[:, 0, :], scn.provider, scn.radio)
    coop = run_algorithm("small-cell", snap, scn.constraints)
    assert (coop.d.sum(axis=0) == 1).all()  # the form's premise: one AP per UE
    se = [evaluate_matrices(snap, [coop], scn.pilots, scn.trace.speed, scn.radio, 500, seed)[0][1]
          for seed in range(12)]
    want = oracles.small_cell_hardening_se(
        snap.beta, coop.d.argmax(axis=0), scn.pilots, scn.trace.speed, scn.radio
    )
    z = oracles.z_scores(se, want)
    assert np.abs(z).max() <= 5


def _desk_instance(m=30, k=8, seed=5):
    area = AreaSpec(300.0, 300.0)
    topo = generate_ppp_topology(area, m, seed=seed)
    cfg = RadioConfig()
    provider = LogDistanceProvider(topo, cfg, k, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    pos = rng.uniform(0.0, 300.0, size=(k, 2))
    return make_channel_snapshot(topo, pos, provider, cfg), cfg


def test_full_cf_beats_small_cell_median():
    snap, cfg = _desk_instance()
    pilots = np.arange(8) % cfg.pilot_len_slots
    speeds = np.full(8, 0.8)
    _, se_cf, _ = evaluate_block(
        snap, select_full_cf(snap, no_outage(snap)), pilots, speeds, cfg, n_mc=300, seed=7
    )
    _, se_sc, _ = evaluate_block(
        snap, select_small_cell(snap, no_outage(snap)), pilots, speeds, cfg, n_mc=300, seed=7
    )
    assert np.median(se_cf) > np.median(se_sc)


def test_se_invariant_under_joint_ap_relabeling():
    snap, cfg = _desk_instance(m=10, k=4)
    coop = select_full_cf(snap, no_outage(snap))
    ctx = PrecodingContext.from_matrix(coop)
    rng = np.random.default_rng(8)
    r = snap.channel_gain()
    h = np.sqrt(r / 2)[None] * (
        rng.standard_normal((50, 10, 4)) + 1j * rng.standard_normal((50, 10, 4))
    )
    powers = radiated_powers(coop, cfg) / np.maximum(coop.g_k, 1)
    w = precode_pmmse(ctx, h, reg=snap.noise_power / cfg.tx_power_w)
    gamma = instant_sinr(*received_gains(h, _sw(w, powers)), rho=1.0, noise=snap.noise_power)
    perm = rng.permutation(10)
    gamma_p = instant_sinr(
        *received_gains(h[:, perm], _sw(w[:, perm], powers[perm])), rho=1.0, noise=snap.noise_power
    )
    assert np.allclose(gamma_p, gamma, rtol=1e-10)


def test_added_interferer_median_nonincrease():
    # adding a co-served UE to an AP does not raise the victim's SINR in the
    # median over instances (MMSE re-optimization allows rare exceptions)
    diffs = []
    for seed in range(12):
        snap, cfg = _desk_instance(m=8, k=3, seed=seed)
        pilots = np.array([0, 1, 2])
        speeds = np.zeros(3)
        d = np.zeros((8, 3), dtype=int)
        best = np.argsort(-snap.beta[:, 0])[:3]
        d[best, 0] = 1
        d[np.argmax(snap.beta[:, 1]), 1] = 1
        before = evaluate_block(
            snap, CooperationMatrix(d.copy()), pilots, speeds, cfg, n_mc=400, seed=seed
        )[0][0]
        d2 = d.copy()
        d2[best[0], 2] = 1  # newcomer lands on the victim's strongest AP
        after = evaluate_block(
            snap, CooperationMatrix(d2), pilots, speeds, cfg, n_mc=400, seed=seed
        )[0][0]
        diffs.append(after - before)
    assert np.median(diffs) <= 0


def test_evaluate_block_deterministic():
    snap, cfg = _desk_instance(m=12, k=4)
    coop = select_full_cf(snap, no_outage(snap))
    pilots = np.array([0, 1, 2, 3])
    speeds = np.full(4, 0.8)
    a = evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=100, seed=11)
    b = evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=100, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def _outage_instance():
    """12 x 5 snapshot with one outage link, its pilots and speeds."""
    base, _ = _desk_instance(m=12, k=5, seed=3)
    pl = base.pathloss_db.copy()
    pl[4, 2] = np.inf  # one outage link: R = 0 and beta = 0, served under full D
    beta = np.where(np.isfinite(pl), base.beta, 0.0)
    snap = ChannelSnapshot(beta=beta, pathloss_db=pl, noise_power=base.noise_power)
    return snap, np.array([0, 1, 0, 2, 1]), np.array([0.0, 0.8, 3.0, 12.0, 30.0])


@pytest.mark.parametrize("form", ESTIMATE_FORMS)
@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_evaluate_block_matches_reference_bytes(monkeypatch, form, estimator):
    # 64 draws in one chunk, then in six 10-draw chunks and a 4-draw tail,
    # each chunk from its own child of the block seed
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig(estimate_form=form)
    for chunk_elems in (1 << 18, 600):
        monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", chunk_elems)
        for coop in (CooperationMatrix(np.ones((12, 5), dtype=int)), select_small_cell(snap, no_outage(snap))):
            got = evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=64, seed=17, estimator=estimator)
            want = oracles.evaluate_block_reference(
                snap, coop, pilots, speeds, cfg, n_mc=64, seed=17, estimator=estimator
            )
            for x, y in zip(got, want):
                assert np.array_equal(x, y)


def _invariance_coops(snap):
    """Full D, D with beta0-like cuts and small-cell on the 12 x 5 outage instance."""
    cuts = np.ones((12, 5), dtype=int)
    cuts[[0, 3], 0] = 0
    cuts[[5, 6, 7], 1] = 0
    cuts[11, 2] = 0
    cuts[9, 3] = 0
    cuts[[0, 3, 5, 6, 7, 8, 9, 10, 11], 4] = 0
    # one interferer group over distinct serving sets, as under full-CF with
    # beta0 cuts: UEs 0-3 solve the S x S form, UE 4 (G = 3) solves directly
    (group,) = PrecodingContext.from_matrix(CooperationMatrix(cuts)).groups
    assert group.s_set.tolist() == list(range(5))
    assert group.wide.tolist() == [0, 1, 2, 3] and [k for k, _, _ in group.direct] == [4]
    assert len({tuple(col) for col in cuts.T}) == 5
    return [CooperationMatrix(np.ones((12, 5), dtype=int)), CooperationMatrix(cuts), select_small_cell(snap, no_outage(snap))]


@pytest.mark.parametrize("form", ESTIMATE_FORMS)
@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_evaluate_block_chunk_invariant(monkeypatch, form, estimator):
    # 63 draws in 10-draw chunks (six and a 3-draw tail), precoded in
    # sub-chunks of one draw, of up to 2 and of the whole chunk: every draw
    # is precoded by calls of the same shapes and every sum over draws runs
    # in draw order, so the SE is the same to the bit
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig(estimate_form=form)
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 600)
    for coop in _invariance_coops(snap):
        runs = []
        for gather_elems in (1, 120, 1 << 15):
            monkeypatch.setattr("cfmimo.evaluation._GATHER_ELEMS", gather_elems)
            runs.append(evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=63, seed=17, estimator=estimator))
        for run in runs[:-1]:
            for x, y in zip(run, runs[-1]):
                assert np.array_equal(x, y)


@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_evaluate_matrices_alone_equals_shared(monkeypatch, estimator):
    # a matrix's SE is the same to the bit whether it is evaluated alone or
    # with others on the block's draws, over several chunks, also when the
    # matrices' sub-chunks differ in size (2 draws for full D)
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig()
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 600)
    coops = _invariance_coops(snap)
    for gather_elems in (120, 1 << 15):
        monkeypatch.setattr("cfmimo.evaluation._GATHER_ELEMS", gather_elems)
        shared = evaluate_matrices(snap, coops, pilots, speeds, cfg, n_mc=63, seed=17, estimator=estimator)
        for coop, together in zip(coops, shared):
            alone = evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=63, seed=17, estimator=estimator)
            for x, y in zip(alone, together):
                assert np.array_equal(x, y)


def _traced_peak(fn) -> int:
    """Peak traced bytes of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - entry


def test_evaluate_block_peak_below_one_draw_array(monkeypatch):
    # with M >> K a chunk's estimates, precoders and conjugate precoders are a
    # small slice of the draws: a whole block, draws included, peaks below
    # one (n, M, K) complex array
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 1 << 14)
    n, m, k = 512, 64, 8
    snap, cfg = _desk_instance(m=m, k=k)
    speeds, pilots = np.full(k, 0.8), np.arange(k) % cfg.pilot_len_slots
    coop = select_full_cf(snap, no_outage(snap))
    peak = _traced_peak(lambda: evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=n, seed=3))
    assert peak < n * m * k * np.dtype(complex).itemsize


@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_block_peak_flat_in_n_mc(monkeypatch, estimator):
    # 16-draw chunks: n_mc = 32 spans 2 chunks and n_mc = 512 spans 32, and
    # the block's traced peaks agree within 10%; only the (n_mc, K) desired
    # gains and total powers, 24 bytes per draw and UE, grow with n_mc
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 1 << 14)
    m, k = 256, 4
    snap, cfg = _desk_instance(m=m, k=k)
    speeds, pilots = np.full(k, 0.8), np.arange(k) % cfg.pilot_len_slots
    coop = select_full_cf(snap, no_outage(snap))
    small, large = (
        _traced_peak(lambda: evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=n, seed=3, estimator=estimator))
        for n in (32, 512)
    )
    assert large <= 1.1 * small, (small, large)


def test_received_gains_leaves_inputs():
    h, w, powers, _ = _sinr_instance(4)
    sw = _sw(w, powers)
    copies = h.copy(), sw.copy()
    received_gains(h, sw)
    for before, after in zip(copies, (h, sw)):
        assert np.array_equal(before, after)


def test_percentile_rows_matches_numpy():
    # report.txt's p95 column: the same bits as np.percentile for every
    # block count, zeros and ties included
    rng = np.random.default_rng(12)
    for n in range(1, 120):
        x = rng.exponential(size=(6, n))
        x[1] = 0.0
        x[2] = np.round(x[2], 1)
        for q in (95, 50):
            assert _percentile_rows(x, q).tobytes() == np.percentile(x, q, axis=1).tobytes()
