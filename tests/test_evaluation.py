import tracemalloc

import numpy as np
import pytest

from cfmimo.channel import ChannelSnapshot, RadioConfig, noise_power_w
from cfmimo.evaluation import (
    ConstraintReport,
    PrecodingContext,
    _percentile_rows,
    check_constraints,
    draw_block,
    evaluate_block,
    evaluate_draws,
    instant_sinr,
    objective_values,
    precode_pmmse,
    radiated_powers,
    received_gains,
    spectral_efficiency,
    split_powers,
)
from cfmimo.selection import (
    CooperationMatrix,
    SelectionConstraints,
    select_full_cf,
    select_small_cell,
)
from cfmimo.topology import AreaSpec, generate_ppp_topology
from cfmimo.channel import LogDistanceProvider, snapshot as make_channel_snapshot

from conftest import make_snapshot, random_snapshot
import oracles
from oracles import draw_estimates


def test_context_sets():
    d = CooperationMatrix(np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    ctx = PrecodingContext.from_matrix(d)
    assert ctx.serving_sets[0].tolist() == [0, 1]
    assert ctx.serving_sets[2].tolist() == [2]
    # UE0 and UE1 share AP1; UE2 is isolated but still contains itself
    assert ctx.interferer_sets[0].tolist() == [0, 1]
    assert ctx.interferer_sets[2].tolist() == [2]


def test_context_contains_self_even_unserved():
    d = CooperationMatrix(np.array([[1, 0], [0, 0]]))
    ctx = PrecodingContext.from_matrix(d)
    assert 1 in ctx.interferer_sets[1].tolist()


def test_split_powers_equal_share():
    cfg = RadioConfig()
    d = CooperationMatrix(np.array([[1, 1], [1, 0]]))
    p = split_powers(d, cfg)
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
    gamma = instant_sinr(received_gains(h, w, p), rho=1.0, noise=n0, estimator="per-draw")
    direct = 0.3 * abs(h[0, 0, 0]) ** 2 / n0
    assert gamma[0] == pytest.approx(direct, rel=1e-9)


def test_instant_sinr_per_draw_is_log_mean():
    # the ergodic-equivalent output satisfies log2(1+gamma) = mean log2(1+gamma_n)
    rng = np.random.default_rng(9)
    h = rng.standard_normal((200, 1, 1)) + 1j * rng.standard_normal((200, 1, 1))
    w = h / np.abs(h)
    p = np.array([[0.3]])
    n0 = 0.5
    gamma = instant_sinr(received_gains(h, w, p), rho=1.0, noise=n0, estimator="per-draw")
    gamma_n = 0.3 * np.abs(h[:, 0, 0]) ** 2 / n0
    assert np.log2(1 + gamma[0]) == pytest.approx(np.mean(np.log2(1 + gamma_n)), rel=1e-9)


def test_instant_sinr_unknown_estimator_rejected():
    h = np.ones((1, 1, 1), dtype=complex)
    with pytest.raises(ValueError, match="estimator"):
        instant_sinr(received_gains(h, h, np.array([[0.2]])), rho=1.0, noise=1e-3, estimator="magic")


def test_precoder_single_link_matched_filter():
    ctx = PrecodingContext.from_matrix(CooperationMatrix(np.array([[1]])))
    est = np.array([[0.3 - 0.4j]])
    w = precode_pmmse(ctx, est, noise=1e-6, powers_ue=np.array([0.2]))
    assert abs(w[0, 0]) == pytest.approx(1.0)
    # conjugate-matched received gain is real positive
    gain = np.conj(est[0, 0]) * w[0, 0]
    assert gain.imag == pytest.approx(0.0, abs=1e-12)
    assert gain.real > 0


def test_precoder_orthogonal_channels_align():
    d = CooperationMatrix(np.ones((2, 2), dtype=int))
    ctx = PrecodingContext.from_matrix(d)
    est = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    w = precode_pmmse(ctx, est, noise=1e-12, powers_ue=np.array([0.2, 0.2]))
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
    powers = np.full(k, 0.3)
    w_wood = precode_pmmse(ctx, est, noise=1e-3, powers_ue=powers)
    w_direct = oracles.pmmse_oracle(ctx.serving_sets, ctx.interferer_sets, est, 1e-3, powers)
    assert np.allclose(w_wood, w_direct, atol=1e-9)


def _cn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_matches_oracle(d, est, noise=0.05, powers=None, ues=None):
    ctx = PrecodingContext.from_matrix(CooperationMatrix(np.asarray(d)))
    if powers is None:
        powers = np.linspace(0.2, 0.5, est.shape[-1])
    w = precode_pmmse(ctx, est, noise=noise, powers_ue=powers)
    ref = oracles.pmmse_oracle(ctx.serving_sets, ctx.interferer_sets, est, noise, powers)
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
    assert len({s.tobytes() for s in ctx.interferer_sets}) == 1
    assert len({idx.tobytes() for idx in ctx.serving_sets}) == k


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
    assert len({s.tobytes() for s in ctx.interferer_sets}) == 1
    assert [idx.size for idx in ctx.serving_sets] == [2, 10, 7, 3]


def test_precoder_rejects_interferer_set_without_own_ue():
    ctx = PrecodingContext(
        serving_sets=(np.array([0]), np.array([0])),
        interferer_sets=(np.array([0, 1]), np.array([0])),
    )
    with pytest.raises(ValueError, match="UE 1"):
        precode_pmmse(ctx, np.ones((1, 2), dtype=complex), noise=1e-3, powers_ue=np.ones(2))


def test_precoder_unserved_ues_zero():
    d = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 1, 0]])
    rng = np.random.default_rng(23)
    _, w = _assert_matches_oracle(d, _cn(rng, (3, 4, 4)))
    assert not w[..., [1, 3]].any()


def test_precoder_two_dimensional_input():
    rng = np.random.default_rng(24)
    d = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1], [1, 1, 1]])
    est = _cn(rng, (5, 3))
    _, w = _assert_matches_oracle(d, est)
    assert w.shape == (5, 3)


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
    powers = np.array([0.2, 0.3, 0.25])
    ctx = PrecodingContext.from_matrix(CooperationMatrix(d))
    w = precode_pmmse(ctx, est, noise=noise, powers_ue=powers)
    ref = oracles.pmmse_oracle(
        ctx.serving_sets, ctx.interferer_sets, est, noise, powers, exact=True
    )
    assert np.abs(w - ref).max() < 1e-12


def _sinr_instance(seed, n=7, m=5, k=4):
    rng = np.random.default_rng(seed)
    d = (rng.uniform(size=(m, k)) < 0.6).astype(int)
    d[0] = 1
    coop = CooperationMatrix(d)
    ctx = PrecodingContext.from_matrix(coop)
    h = _cn(rng, (n, m, k))
    w = precode_pmmse(ctx, _cn(rng, (n, m, k)), noise=0.1, powers_ue=np.full(k, 0.2))
    powers = radiated_powers(coop, RadioConfig(tx_power_w=0.2))
    return h, w, powers, rng.uniform(0.3, 1.0, size=k)


@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_instant_sinr_matches_gain_loop_oracle(estimator):
    for seed in range(3):
        h, w, powers, rho = _sinr_instance(seed)
        gamma = instant_sinr(received_gains(h, w, powers), rho, noise=0.05, estimator=estimator)
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
    w1 = precode_pmmse(ctx1, h, noise=n0, powers_ue=np.array([0.2]))
    p1 = np.full((2, 1), 0.1)
    g1 = instant_sinr(received_gains(h[None], w1[None], p1), rho=1.0, noise=n0)
    # duplicated UE with the same channel
    h2 = np.concatenate([h, h], axis=1)
    d2 = CooperationMatrix(np.ones((2, 2), dtype=int))
    ctx2 = PrecodingContext.from_matrix(d2)
    w2 = precode_pmmse(ctx2, h2, noise=n0, powers_ue=np.array([0.2, 0.2]))
    p2 = np.full((2, 2), 0.1)
    g2 = instant_sinr(received_gains(h2[None], w2[None], p2), rho=1.0, noise=n0)
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
    w = precode_pmmse(ctx, h, noise=n0, powers_ue=np.array([0.2]))
    p = np.full((m, 1), 0.2)
    gamma = instant_sinr(received_gains(h[None], w[None], p), rho=1.0, noise=n0)
    direct = abs(np.sum(np.sqrt(0.2) * np.conj(h[:, 0]) * w[:, 0])) ** 2 / n0
    assert gamma[0] == pytest.approx(direct, rel=1e-9)


def test_instant_sinr_unserved_ue_zero():
    d = CooperationMatrix(np.array([[1, 0], [1, 0]]))
    ctx = PrecodingContext.from_matrix(d)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    w = precode_pmmse(ctx, h, noise=1e-3, powers_ue=np.array([0.2, 0.2]))
    gamma = instant_sinr(received_gains(h, w, np.full((2, 2), 0.1)), rho=1.0, noise=1e-3)
    assert gamma[1] == 0.0


def test_instant_sinr_vanishes_with_aging():
    h = np.array([[[1.0 + 0j]]])
    w = np.array([[[1.0 + 0j]]])
    p = np.array([[0.2]])
    g_fresh = instant_sinr(received_gains(h, w, p), rho=1.0, noise=1e-3)
    g_aged = instant_sinr(received_gains(h, w, p), rho=0.0, noise=1e-3)
    assert g_aged[0] == 0.0
    assert g_fresh[0] > 0


def test_spectral_efficiency_values(radio):
    se, rate = spectral_efficiency(np.array([0.0, 1.0]), radio)
    assert se[0] == 0.0 and rate[0] == 0.0
    assert rate[1] == pytest.approx(19e6)  # 20 MHz * 0.95 * log2(2)
    wide = RadioConfig(bandwidth_hz=40e6)
    _, rate_wide = spectral_efficiency(np.array([1.0]), wide)
    assert rate_wide[0] == pytest.approx(2 * rate[1])


def test_objective_values_basics():
    d = CooperationMatrix(np.ones((3, 2), dtype=int))
    sum_rate, phi, conns, pf = objective_values(d, np.array([5e6, 5e6]))
    assert sum_rate == pytest.approx(1e7)
    assert phi == pytest.approx(1.0)
    assert conns == 6
    assert pf == pytest.approx(2 * np.log(5e6))


def test_objective_values_hand_triple():
    d = CooperationMatrix(np.array([[1, 0], [0, 1]]))
    rates = np.array([3e6, 1e6])
    sum_rate, phi, conns, pf = objective_values(d, rates)
    assert sum_rate == pytest.approx(4e6)
    assert phi == pytest.approx(16.0 / 20.0)  # (4e6)^2 / (2 * 1e13)
    assert conns == 2
    assert pf == pytest.approx(np.log(3e6) + np.log(1e6))


def test_objective_pf_floors_zero_rates():
    d = CooperationMatrix(np.array([[1, 0]]))
    _, _, _, pf = objective_values(d, np.array([2e6, 0.0]))
    assert pf == pytest.approx(np.log(2e6))


def test_check_constraints_hand_cases():
    cons = SelectionConstraints(g_max=2, tau_p=1, beta0=0.0)
    ok = CooperationMatrix(np.array([[1, 0], [0, 1]]))
    assert check_constraints(ok, cons) == ConstraintReport(0, 0, 0)
    bad = CooperationMatrix(np.array([[1, 1], [1, 1], [1, 0]]))
    rep = check_constraints(bad, cons)
    assert rep.w_violations == 2  # two APs serve 2 > tau_p
    assert rep.g_violations == 1  # UE0 served by 3 > g_max
    assert not rep.ok


def test_check_constraints_recount_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = (rng.uniform(size=(6, 5)) < 0.5).astype(int)
        cons = SelectionConstraints(g_max=3, tau_p=2, beta0=0.0)
        rep = check_constraints(CooperationMatrix(d), cons)
        w_count = sum(1 for m in range(6) if sum(d[m]) > 2)
        g_count = sum(1 for k in range(5) if sum(d[m][k] for m in range(6)) > 3)
        assert rep.w_violations == w_count
        assert rep.g_violations == g_count


def test_draw_estimates_variance_and_correlation():
    rng = np.random.default_rng(4)
    n = 20_000
    r = np.full((1, 1), 2.0e-10)
    z = np.full((1, 1), 0.5e-10)  # z < r: partial correlation branch
    h0 = np.sqrt(r / 2) * (rng.standard_normal((n, 1, 1)) + 1j * rng.standard_normal((n, 1, 1)))
    est = draw_estimates(h0, r, z, rng)
    assert est.var() == pytest.approx(z[0, 0], rel=0.05)
    cov = np.mean(est * np.conj(h0))
    assert abs(cov) == pytest.approx(np.sqrt(z[0, 0] * r[0, 0] * (z[0, 0] / r[0, 0])), rel=0.05)
    # z > r caps at full correlation while keeping the marginal variance
    z_big = np.full((1, 1), 8.0e-10)
    est_big = draw_estimates(h0, r, z_big, rng)
    assert est_big.var() == pytest.approx(z_big[0, 0], rel=0.05)
    corr = np.mean(est_big * np.conj(h0)) / np.sqrt(z_big[0, 0] * r[0, 0])
    assert abs(corr) == pytest.approx(1.0, rel=0.05)


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
        snap, select_full_cf(snap), pilots, speeds, cfg, n_mc=300, seed=7
    )
    _, se_sc, _ = evaluate_block(
        snap, select_small_cell(snap), pilots, speeds, cfg, n_mc=300, seed=7
    )
    assert np.median(se_cf) > np.median(se_sc)


def test_se_invariant_under_joint_ap_relabeling():
    snap, cfg = _desk_instance(m=10, k=4)
    coop = select_full_cf(snap)
    ctx = PrecodingContext.from_matrix(coop)
    rng = np.random.default_rng(8)
    r = snap.channel_gain()
    h = np.sqrt(r / 2)[None] * (
        rng.standard_normal((50, 10, 4)) + 1j * rng.standard_normal((50, 10, 4))
    )
    powers = split_powers(coop, cfg)
    w = precode_pmmse(ctx, h, noise=snap.noise_power, powers_ue=np.full(4, cfg.tx_power_w))
    gamma = instant_sinr(received_gains(h, w, powers), rho=1.0, noise=snap.noise_power)
    perm = rng.permutation(10)
    gamma_p = instant_sinr(
        received_gains(h[:, perm], w[:, perm], powers[perm]), rho=1.0, noise=snap.noise_power
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
    coop = select_full_cf(snap)
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


@pytest.mark.parametrize("form", ["raw", "mmse"])
@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_evaluate_block_matches_reference_bytes(form, estimator):
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig(estimate_form=form)
    for coop in (CooperationMatrix(np.ones((12, 5), dtype=int)), select_small_cell(snap)):
        got = evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=64, seed=17, estimator=estimator)
        want = oracles.evaluate_block_reference(
            snap, coop, pilots, speeds, cfg, n_mc=64, seed=17, estimator=estimator
        )
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("form", ["raw", "mmse"])
@pytest.mark.parametrize("estimator", ["hardening", "per-draw"])
def test_evaluate_block_chunk_invariant(monkeypatch, form, estimator):
    # a budget of 100 elements takes the 12 x 5 draws two at a time, the
    # last three together (no one-draw chunk), 1 << 40 all 63 in one chunk;
    # every sum over draws runs in draw order either way
    snap, pilots, speeds = _outage_instance()
    cfg = RadioConfig(estimate_form=form)
    cuts = np.ones((12, 5), dtype=int)
    cuts[[0, 3], 0] = 0
    cuts[[5, 6, 7], 1] = 0
    cuts[11, 2] = 0
    cuts[9, 3] = 0
    cuts[[0, 3, 5, 6, 7, 8, 9, 10, 11], 4] = 0
    coops = [CooperationMatrix(np.ones((12, 5), dtype=int)), CooperationMatrix(cuts), select_small_cell(snap)]
    # one interferer group over distinct serving sets, as under full-CF with
    # beta0 cuts: UEs 0-3 solve the S x S form, UE 4 (G = 3) solves directly
    ctx = PrecodingContext.from_matrix(coops[1])
    assert len({s.tobytes() for s in ctx.interferer_sets}) == 1
    assert len({idx.tobytes() for idx in ctx.serving_sets}) == 5
    for coop in coops:
        runs = []
        for chunk_elems in (100, 1 << 40):
            monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", chunk_elems)
            runs.append(evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=63, seed=17, estimator=estimator))
        for x, y in zip(*runs):
            assert np.array_equal(x, y)


def test_evaluate_draws_peak_below_one_draw_array(monkeypatch):
    # with M >> K a chunk's estimates, precoders and conjugate precoders are a
    # small slice of the draws; evaluated whole, each would be one (n, M, K)
    # complex array on its own
    monkeypatch.setattr("cfmimo.evaluation._CHUNK_ELEMS", 1 << 14)
    n, m, k = 512, 64, 8
    snap, cfg = _desk_instance(m=m, k=k)
    speeds = np.full(k, 0.8)
    draws = draw_block(snap, speeds, cfg, n, seed=3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        evaluate_draws(snap, select_full_cf(snap), np.arange(k) % cfg.pilot_len_slots, speeds, cfg, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < n * m * k * np.dtype(complex).itemsize


def test_received_gains_leaves_inputs():
    h, w, powers, _ = _sinr_instance(4)
    copies = h.copy(), w.copy(), powers.copy()
    received_gains(h, w, powers)
    for before, after in zip(copies, (h, w, powers)):
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
