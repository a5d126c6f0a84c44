import numpy as np
import pytest

from cfmimo.selection import (
    ALGORITHMS,
    CooperationMatrix,
    SelectionConstraints,
    jain_index,
    select_cuc,
    select_full_cf,
    select_puc,
    select_puc_const,
    select_small_cell,
    select_unifsrv_heu,
    run_algorithm,
)
from cfmimo.topology import AreaSpec, NetworkTopology, build_square_clusters, generate_ppp_topology

from conftest import make_snapshot, no_outage, random_snapshot
import oracles
from oracles import simplified_sinr


def loose(g_max=100, tau_p=100, delta=0.95, e_best=1, beta0=0.0):
    return SelectionConstraints(g_max=g_max, tau_p=tau_p, delta=delta, e_best=e_best, beta0=beta0)


# ---------------------------------------------------------------------------
# simplified SINR and fairness index
# ---------------------------------------------------------------------------

def test_sinr_full_service_equals_total():
    beta = np.array([4.0, 2.0, 1.0])
    assert simplified_sinr(np.ones(3), beta) == pytest.approx(beta.sum())


def test_sinr_no_service_zero():
    assert simplified_sinr(np.zeros(3), np.array([4.0, 2.0, 1.0])) == 0.0


def test_sinr_hand_value():
    # served 4 over unserved 3 plus one: 4 / (7 - 4 + 1) = 1.0
    assert simplified_sinr(np.array([1, 0, 0]), np.array([4.0, 2.0, 1.0])) == pytest.approx(1.0)


def test_sinr_monotone_in_serving_set():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(2, 12)
        beta = rng.uniform(0.1, 30.0, size=m)
        d = (rng.uniform(size=m) < 0.4).astype(float)
        off = np.flatnonzero(d == 0)
        if off.size == 0:
            continue
        add = rng.choice(off)
        grown = d.copy()
        grown[add] = 1.0
        assert simplified_sinr(grown, beta) > simplified_sinr(d, beta)


def test_jain_equal_values():
    assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)


def test_jain_single_nonzero():
    assert jain_index([0.0, 0.0, 5.0, 0.0]) == pytest.approx(0.25)


def test_jain_hand_value():
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0)


def test_jain_scale_invariance_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0.0, 20.0, size=rng.integers(1, 15))
        phi = jain_index(v)
        assert 1.0 / v.size - 1e-12 <= phi <= 1.0 + 1e-12
        assert jain_index(17.3 * v) == pytest.approx(phi)


def test_jain_all_zero_convention():
    assert jain_index(np.zeros(4)) == 1.0


# ---------------------------------------------------------------------------
# UnifSrv-heu
# ---------------------------------------------------------------------------

def test_unifsrv_single_ue_keeps_best_ap_only():
    # with one UE the fairness index is 1, so no serving-set growth occurs
    snap = make_snapshot(np.array([[5.0], [3.0], [1.0]]))
    coop = select_unifsrv_heu(snap, loose())
    assert np.array_equal(coop.d, [[1], [0], [0]])


def test_unifsrv_two_ues_never_grow():
    # with K=2 the fairness index cannot drop below 1/2, so the ascending
    # threshold index is always 1 and the strict test blocks every addition
    snap = make_snapshot(np.array([[10.0, 0.2], [1.0, 2.0], [0.5, 0.3]]))
    coop = select_unifsrv_heu(snap, loose())
    assert np.array_equal(coop.d, [[1, 0], [0, 1], [0, 0]])
    assert np.array_equal(coop.g_k, [1, 1])


UNIFSRV_BETA = np.array(
    [
        [9.0, 0.5, 0.4],
        [1.0, 2.0, 0.1],
        [0.5, 0.3, 0.05],
    ]
)

# Hand execution of the step list on UNIFSRV_BETA (tau_p=3, g_max=3,
# delta=0.95): init serves (AP0,AP1,AP0); at rank 2 the fairness index is
# ~0.596, the ascending index is ceil(0.404*3)=2, alpha = S_UE1 ~ 1.111, and
# only UE2 (S ~ 0.348) qualifies, gaining AP1; at rank 3 alpha is again the
# middle S and UE2 (S ~ 0.476, served 0.5 < 0.95 * 0.55) gains AP2.
UNIFSRV_EXPECTED = np.array(
    [
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 1],
    ]
)


def test_unifsrv_hand_trace():
    snap = make_snapshot(UNIFSRV_BETA)
    coop = select_unifsrv_heu(snap, loose(g_max=3, tau_p=3))
    assert np.array_equal(coop.d, UNIFSRV_EXPECTED)


def test_unifsrv_delta_stop_rule():
    # with delta tiny, even the worst-served UE stops at its initial AP
    snap = make_snapshot(UNIFSRV_BETA)
    coop = select_unifsrv_heu(snap, loose(g_max=3, tau_p=3, delta=0.5))
    assert np.array_equal(coop.g_k, [1, 1, 1])


def test_unifsrv_constraints_hard():
    for seed in range(25):
        snap = random_snapshot(12, 7, seed)
        cons = SelectionConstraints(g_max=4, tau_p=2, delta=0.99, beta0=0.0)
        coop = select_unifsrv_heu(snap, cons)
        assert coop.g_k.max() <= cons.g_max
        assert coop.w_m.max() <= cons.tau_p


def test_unifsrv_matches_pseudocode_oracle():
    for seed in range(20):
        snap = random_snapshot(4, 3, seed)
        cons = SelectionConstraints(g_max=3, tau_p=2, delta=0.9, beta0=0.5)
        got = select_unifsrv_heu(snap, cons).d
        want = oracles.unifsrv_heu_oracle(
            snap.beta.tolist(), tau_p=2, g_max=3, delta=0.9, beta0=0.5
        )
        assert np.array_equal(got, want)


def test_unifsrv_matches_oracle_on_tied_sweep():
    # integer beta gives ties and exact sums; tau_p up to 4 fills a UE's best
    # AP before its first connection, so that connection falls back to a
    # lower-ranked AP which the rank walk reaches again later
    rng = np.random.default_rng(2024)
    fell_back = 0
    for _ in range(250):
        m, k = int(rng.integers(2, 41)), int(rng.integers(1, 31))
        beta = np.round(rng.uniform(0.0, 6.0, size=(m, k)))
        tau_p, g_max = int(rng.integers(0, 5)), int(rng.integers(1, 9))
        delta = float(rng.choice([0.6, 0.95, 1.0]))
        equality = bool(rng.integers(2))
        cons = SelectionConstraints(
            g_max=g_max, tau_p=tau_p, delta=delta, beta0=1.0, allow_tau_p_equality=equality
        )
        got = select_unifsrv_heu(make_snapshot(beta), cons).d
        want = oracles.unifsrv_heu_oracle(
            beta.tolist(), tau_p, g_max, delta, beta0=1.0, allow_tau_p_equality=equality
        )
        assert np.array_equal(got, want), (m, k, tau_p, g_max, delta, equality)
        best = np.argmax(beta, axis=0)
        fell_back += int(np.any(got.any(axis=0) & (got[best, np.arange(k)] == 0)))
    assert fell_back > 50


def test_unifsrv_tau_p_equality_toggle():
    # the relaxed reading may overfill an AP by one
    beta = np.array([[5.0, 4.0, 3.0, 6.0], [0.4, 0.3, 0.2, 0.1]])
    snap = make_snapshot(beta)
    strict = SelectionConstraints(g_max=2, tau_p=2, delta=1.0, beta0=0.0)
    relaxed = SelectionConstraints(
        g_max=2, tau_p=2, delta=1.0, beta0=0.0, allow_tau_p_equality=True
    )
    w_strict = select_unifsrv_heu(snap, strict).w_m.max()
    w_relaxed = select_unifsrv_heu(snap, relaxed).w_m.max()
    assert w_strict <= 2
    assert w_relaxed >= w_strict


# ---------------------------------------------------------------------------
# PUC
# ---------------------------------------------------------------------------

def test_puc_tiny_delta_best_ap_only():
    snap = random_snapshot(8, 4, seed=2)
    coop = select_puc(snap, loose(delta=1e-9))
    assert np.array_equal(coop.g_k, np.ones(4))
    best = snap.beta.argmax(axis=0)
    assert np.array_equal(coop.d[best, np.arange(4)], np.ones(4))


def test_puc_delta_one_serves_all():
    snap = random_snapshot(8, 4, seed=3)
    coop = select_puc(snap, loose(delta=1.0))
    assert coop.d.sum() == 8 * 4


def test_puc_hand_value():
    # 8 >= 0.8 * 10 after the first AP, so the serving set is {AP0}
    snap = make_snapshot(np.array([[8.0], [1.0], [1.0]]))
    coop = select_puc(snap, loose(delta=0.8))
    assert np.array_equal(coop.d, [[1], [0], [0]])


def test_puc_matches_pseudocode_oracle():
    for seed in range(20):
        snap = random_snapshot(5, 4, seed)
        got = select_puc(snap, loose(delta=0.9, beta0=0.3)).d
        want = oracles.puc_oracle(snap.beta.tolist(), delta=0.9, beta0=0.3)
        assert np.array_equal(got, want)
    # tie-heavy beta in 0.1 steps: the served sum often lands next to delta
    # times the total, where a total summed in another order than the
    # running sum moves a UE
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, k = int(rng.integers(9, 41)), int(rng.integers(1, 6))
        delta = float(rng.choice([0.5, 0.9, 0.95]))
        beta = rng.integers(1, 5, size=(m, k)) / 10.0
        got = select_puc(make_snapshot(beta), loose(delta=delta)).d
        assert np.array_equal(got, oracles.puc_oracle(beta.tolist(), delta=delta)), (beta.tolist(), delta)


def test_puc_ue_permutation_equivariant():
    snap = random_snapshot(6, 5, seed=4)
    perm = np.array([4, 2, 0, 1, 3])
    base = select_puc(snap, loose(delta=0.9)).d
    permuted = select_puc(make_snapshot(snap.beta[:, perm]), loose(delta=0.9)).d
    assert np.array_equal(permuted, base[:, perm])


# ---------------------------------------------------------------------------
# PUC-const
# ---------------------------------------------------------------------------

def test_puc_const_unbinding_cap_serves_everything():
    # tau_p >= K: the full walk connects every candidate AP, i.e. full CF
    snap = random_snapshot(6, 3, seed=5)
    cons = loose(tau_p=3)
    coop = select_puc_const(snap, cons)
    assert np.array_equal(coop.d, select_full_cf(snap, cons).d)


def test_puc_const_single_slot_keeps_better_ue():
    snap = make_snapshot(np.array([[2.0, 7.0]]))
    coop = select_puc_const(snap, loose(tau_p=1))
    assert np.array_equal(coop.d, [[0, 1]])


def test_puc_const_eviction_cascade_hand_trace():
    # UE0 takes both APs; UE1 (beta 6 > 5) evicts UE0 from AP0 but loses the
    # AP1 comparison (3 < 4); UE2 is too weak to displace anyone.
    beta = np.array([[5.0, 6.0, 1.0], [4.0, 3.0, 2.0]])
    snap = make_snapshot(beta)
    coop = select_puc_const(snap, loose(tau_p=1))
    assert np.array_equal(coop.d, [[0, 1, 0], [1, 0, 0]])
    assert np.array_equal(coop.g_k, [1, 1, 0])


def test_puc_const_load_cap_always_met():
    for seed in range(25):
        snap = random_snapshot(9, 8, seed)
        coop = select_puc_const(snap, loose(tau_p=3))
        assert coop.w_m.max() <= 3


def test_puc_const_matches_pseudocode_oracle():
    for seed in range(20):
        snap = random_snapshot(4, 3, seed)
        got = select_puc_const(snap, loose(tau_p=2, beta0=0.4)).d
        want = oracles.puc_const_oracle(snap.beta.tolist(), tau_p=2, beta0=0.4)
        assert np.array_equal(got, want)


def test_puc_const_matches_oracle_at_scale():
    # one capped-scale instance: 400 APs, 80 UEs and 10 slots per AP, so
    # APs fill and later UEs evict
    snap = random_snapshot(400, 80, seed=41)
    got = select_puc_const(snap, loose(tau_p=10)).d
    assert np.array_equal(got, oracles.puc_const_oracle(snap.beta.tolist(), tau_p=10))
    assert got.sum(axis=1).max() == 10


def test_puc_const_order_dependence_exhibit():
    # twin UEs: swapping their labels leaves beta unchanged but moves the
    # single load slot, so UE-permutation equivariance fails (by design, the
    # iteration order is part of the contract)
    beta = np.array([[5.0, 5.0], [2.0, 2.0]])
    perm = np.array([1, 0])
    base = select_puc_const(make_snapshot(beta), loose(tau_p=1)).d
    permuted = select_puc_const(make_snapshot(beta[:, perm]), loose(tau_p=1)).d
    assert not np.array_equal(permuted, base[:, perm])


def test_unifsrv_order_dependence_exhibit():
    # same twin construction: the earlier twin takes the contested load slot
    beta = np.array([[9.0, 2.0, 2.0], [0.3, 1.0, 1.0], [0.2, 0.9, 0.9]])
    cons = SelectionConstraints(g_max=3, tau_p=1, delta=0.99, beta0=0.0)
    perm = np.array([0, 2, 1])
    base = select_unifsrv_heu(make_snapshot(beta), cons).d
    permuted = select_unifsrv_heu(make_snapshot(beta[:, perm]), cons).d
    assert not np.array_equal(permuted, base[:, perm])


# ---------------------------------------------------------------------------
# CUC
# ---------------------------------------------------------------------------

def _clustered_topo(m=20, n_per_side=2, seed=6):
    topo = generate_ppp_topology(AreaSpec(200.0, 200.0), m, seed=seed)
    return build_square_clusters(topo, n_per_side)


def test_cuc_requires_clusters():
    topo = generate_ppp_topology(AreaSpec(100.0, 100.0), 4, seed=0)
    snap = random_snapshot(4, 2, seed=1)
    message = "^CUC requires a topology with a built cluster grid$"
    with pytest.raises(ValueError, match=message):
        select_cuc(snap, topo, loose())
    with pytest.raises(ValueError, match=message):
        run_algorithm("cuc", snap, loose(), topo=None)


def test_cuc_exhaustive_e_serves_all():
    topo = _clustered_topo()
    snap = random_snapshot(topo.n_aps, 3, seed=7)
    coop = select_cuc(snap, topo, loose(e_best=topo.n_aps))
    assert np.array_equal(coop.d, select_full_cf(snap, loose()).d)


def test_cuc_single_cluster_case():
    area = AreaSpec(100.0, 100.0)
    pos = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0], [80.0, 80.0]])
    topo = build_square_clusters(NetworkTopology(area=area, ap_positions=pos), 2)
    beta = np.array([[9.0], [8.0], [7.0], [0.1]])
    snap = make_snapshot(beta)
    coop = select_cuc(snap, topo, loose(e_best=3))
    # the three best APs share cluster 0; AP3 (cluster 3) stays out
    assert np.array_equal(coop.d[:, 0], [1, 1, 1, 0])


def test_cuc_mean_serving_size_bounds():
    # medium-density configuration: 7 anchors, ~20 APs per cluster
    topo = build_square_clusters(generate_ppp_topology(AreaSpec(750.0, 750.0), 180, seed=8), 3)
    q = topo.n_aps / topo.n_clusters
    e = 7
    snap = random_snapshot(topo.n_aps, 20, seed=9)
    coop = select_cuc(snap, topo, loose(e_best=e))
    mean_g = coop.g_k.mean()
    assert q <= mean_g <= e * q
    # direct simulation oracle: union of the clusters of the e best APs
    want = oracles.cuc_oracle(snap.beta.tolist(), topo.cluster_of_ap.tolist(), e)
    assert np.array_equal(coop.d, want)


def test_cuc_matches_pseudocode_oracle():
    topo = _clustered_topo(m=8, n_per_side=2, seed=10)
    for seed in range(10):
        snap = random_snapshot(8, 3, seed)
        got = select_cuc(snap, topo, loose(e_best=2, beta0=0.4)).d
        want = oracles.cuc_oracle(
            snap.beta.tolist(), topo.cluster_of_ap.tolist(), 2, beta0=0.4
        )
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# small cell and full CF
# ---------------------------------------------------------------------------

def test_small_cell_one_ap_each():
    snap = random_snapshot(10, 6, seed=11)
    coop = select_small_cell(snap, no_outage(snap))
    assert np.array_equal(coop.g_k, np.ones(6))


def test_small_cell_tie_breaks_low_index():
    snap = make_snapshot(np.array([[3.0], [3.0], [1.0]]))
    coop = select_small_cell(snap, no_outage(snap))
    assert np.array_equal(coop.d, [[1], [0], [0]])


def test_small_cell_ap_permutation_oracle():
    snap = random_snapshot(7, 5, seed=12)
    perm = np.random.default_rng(13).permutation(7)
    base = select_small_cell(snap, no_outage(snap)).d
    permuted = select_small_cell(make_snapshot(snap.beta[perm]), no_outage(snap)).d
    assert np.array_equal(permuted, base[perm])


def test_full_cf_all_ones():
    snap = random_snapshot(5, 4, seed=14)
    coop = select_full_cf(snap, no_outage(snap))
    assert coop.d.sum() == 20


def test_full_cf_outage_masked():
    beta = np.array([[5.0, 0.001], [2.0, 3.0]])
    snap = make_snapshot(beta)
    coop = select_full_cf(snap, loose(beta0=0.01))
    assert np.array_equal(coop.d, [[1, 0], [1, 1]])


def test_full_cf_deterministic():
    snap = random_snapshot(5, 4, seed=15)
    assert np.array_equal(select_full_cf(snap, no_outage(snap)).d, select_full_cf(snap, no_outage(snap)).d)


def test_small_cell_full_cf_oracles():
    for seed in range(10):
        snap = random_snapshot(4, 3, seed)
        assert np.array_equal(
            select_small_cell(snap, no_outage(snap)).d, oracles.small_cell_oracle(snap.beta.tolist())
        )
        assert np.array_equal(
            select_full_cf(snap, no_outage(snap)).d, oracles.full_cf_oracle(snap.beta.tolist())
        )


# ---------------------------------------------------------------------------
# every algorithm on tied inputs
# ---------------------------------------------------------------------------

ORACLES = {
    "unifsrv-heu": lambda b, c, cl, u: oracles.unifsrv_heu_oracle(
        b, c.tau_p, c.g_max, c.delta, c.beta0, c.allow_tau_p_equality
    ),
    "puc": lambda b, c, cl, u: oracles.puc_oracle(b, c.delta, c.beta0),
    "puc-const": lambda b, c, cl, u: oracles.puc_const_oracle(b, c.tau_p, c.beta0),
    "cuc": lambda b, c, cl, u: oracles.cuc_oracle(b, cl, c.e_best, c.beta0),
    "small-cell": lambda b, c, cl, u: oracles.small_cell_oracle(b, c.beta0),
    "full-cf": lambda b, c, cl, u: oracles.full_cf_oracle(b, c.beta0),
    "mdp-greedy": lambda b, c, cl, u: oracles.mdp_greedy_oracle(b, c.tau_p, c.g_max, u, c.beta0),
}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_algorithm_matches_oracle_on_tied_sweep(name):
    # integer beta gives ties and exact sums, so a puc UE's served SNR can
    # land exactly on delta times its total; every fifth instance has one AP
    # and every fifth one UE, e_best runs up to M + 1, and the round budget
    # alternates between below and above g_max
    rng = np.random.default_rng(17)
    on_delta = 0
    for i in range(150):
        m = 1 if i % 5 == 0 else int(rng.integers(1, 21))
        k = 1 if i % 5 == 1 else int(rng.integers(1, 16))
        beta = np.round(rng.uniform(0.0, 6.0, size=(m, k)))
        g_max = int(rng.integers(1, 9))
        budget = int(rng.integers(1, g_max)) if i % 2 and g_max > 1 else g_max + int(rng.integers(1, 3))
        cons = SelectionConstraints(
            g_max=g_max,
            tau_p=int(rng.integers(0, 5)),
            delta=float(rng.choice([0.5, 0.95, 1.0])),
            e_best=int(rng.integers(1, m + 2)),
            beta0=1.0,
            allow_tau_p_equality=bool(rng.integers(2)),
        )
        pos = rng.uniform(0.0, 100.0, size=(m, 2))
        topo = build_square_clusters(
            NetworkTopology(area=AreaSpec(100.0, 100.0), ap_positions=pos), int(rng.integers(1, 4))
        )
        got = run_algorithm(name, make_snapshot(beta), cons, topo=topo, mdp_round_budget=budget).d
        want = ORACLES[name](beta.tolist(), cons, topo.cluster_of_ap.tolist(), budget)
        assert np.array_equal(got, want), (i, m, k, cons, budget)
        # a UE whose served sum meets delta * total exactly, with one more
        # candidate left that puc must refuse
        ranked = -np.sort(-np.where(beta >= 1.0, beta, 0.0), axis=0)
        hit = np.cumsum(ranked, axis=0)[:-1] == cons.delta * ranked.sum(axis=0)
        on_delta += int(np.any(hit & (ranked[1:] > 0.0)))
    assert on_delta > 20


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

BF_BETA = [[3.0, 1.0], [1.0, 2.0]]


def test_brute_force_refuses_large_instances():
    beta = random_snapshot(7, 3, seed=16).beta.tolist()
    with pytest.raises(ValueError, match="too large"):
        oracles.brute_force_selection(beta, 100, 100, (1.0, 0.0, 0.0))


def test_brute_force_zero_tau_p_returns_empty():
    d = oracles.brute_force_selection(BF_BETA, 0, 2, (1.0, 0.0, 0.0))
    assert np.sum(d) == 0


def test_brute_force_rate_only_gives_full_cf():
    d = oracles.brute_force_selection(BF_BETA, 2, 2, (1.0, 0.0, 0.0))
    assert np.sum(d) == 4


def test_brute_force_matches_hand_enumeration():
    # Hand enumeration over the 9 feasible matrices at tau_p=1 (each AP row
    # in {00, 01, 10}), weights (1, 0.5, 0.1). Best candidates:
    #   diag pairing:     S=(1.5, 1), obj = 2.5 + 0.5*0.9615 - 0.2 = 2.7808
    #   both APs -> UE0:  S=(4, 0),   obj = 4.0 + 0.5*0.5    - 0.2 = 4.05
    #   both APs -> UE1:  S=(0, 3),   obj = 3.0 + 0.5*0.5    - 0.2 = 3.05
    # so concentrating on UE0 wins.
    d = oracles.brute_force_selection(BF_BETA, 1, 2, (1.0, 0.5, 0.1))
    assert np.array_equal(d, [[1, 0], [1, 0]])


def test_unifsrv_gap_to_brute_force_recorded():
    # scalarization mimicking the episode objective; the heuristic is not
    # claimed optimal, only measured against the enumerated maximum
    gaps = []
    for seed in range(6):
        snap = random_snapshot(3, 3, seed, spread_db=12.0)
        cons = SelectionConstraints(g_max=3, tau_p=2, delta=0.95, beta0=0.0)
        heu = select_unifsrv_heu(snap, cons).d
        opt = oracles.brute_force_selection(snap.beta.tolist(), 2, 3, (1.0, 1.0, 0.01))

        def scalarized(d):
            from cfmimo.selection import simplified_sinr_all

            s = simplified_sinr_all(d, snap.beta)
            return s.sum() + jain_index(s) - 0.01 * np.sum(d)

        gap = scalarized(opt) - scalarized(heu)
        assert gap >= -1e-9
        gaps.append(gap)
    print(f"unifsrv-heu scalarized gap to optimum: max {max(gaps):.4f}")
