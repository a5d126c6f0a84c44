"""Independent reference implementations used as test oracles.

Everything here is written straight from the algorithm step lists with plain
Python loops and lists, deliberately avoiding the vectorized package code
paths. The selection oracles share the package's documented tie-breaks
(descending beta, lowest AP id first; ascending UE order) and its outage
masking, but none of its code. The precoder and gain oracles loop over draws
and UEs and call numpy only for one dense linear solve per UE and draw.
evaluate_block_reference is the exception: it pins the Monte-Carlo draw
arithmetic bit for bit, so it keeps the package's earlier whole-array form.

The channel and selection references at the end (fading state and aged
channel, shadowing, scalar estimate variance, simplified SINR, estimate
draws) are the per-link forms the package replaced with its matrix and
block forms; the tests check the statistics and closed forms on them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cfmimo.channel import ChannelSnapshot, RadioConfig, aging_coefficient, noise_power_w


def j0_series(x, terms=60):
    """Power-series zeroth-order Bessel function of the first kind."""
    total = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= -(x * x / 4.0) / (n * n)
        total += term
    return total


def masked(beta, beta0):
    return [[b if b >= beta0 else 0.0 for b in row] for row in beta]


def descending_aps(beta, k):
    m = len(beta)
    return sorted(range(m), key=lambda ap: (-beta[ap][k], ap))


def sinr_simple(beta, d, k):
    m = len(beta)
    served = sum(d[ap][k] * beta[ap][k] for ap in range(m))
    total = sum(beta[ap][k] for ap in range(m))
    return served / (total - served + 1.0)


def jain(values):
    ssq = sum(v * v for v in values)
    if ssq == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * ssq)


def unifsrv_heu_oracle(beta, tau_p, g_max, delta, beta0=0.0, allow_tau_p_equality=False):
    """Fairness-threshold heuristic, executed step by step."""
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    orders = [descending_aps(beta, k) for k in range(k_ues)]

    def load_ok(ap):
        load = sum(d[ap][i] for i in range(k_ues))
        if allow_tau_p_equality:
            return load <= tau_p
        return load < tau_p

    s = [0.0] * k_ues
    for k in range(k_ues):
        for ap in orders[k]:
            if beta[ap][k] <= 0.0:
                break
            if load_ok(ap):
                d[ap][k] = 1
                break
        s[k] = sinr_simple(beta, d, k)
    for rank in range(1, m):
        phi = jain(s)
        idx = math.ceil((1.0 - phi) * k_ues)
        idx = min(max(idx, 1), k_ues)
        alpha = sorted(s)[idx - 1]
        for k in range(k_ues):
            ap = orders[k][rank]
            if beta[ap][k] > 0.0:
                g_k = sum(d[a][k] for a in range(m))
                served = sum(d[a][k] * beta[a][k] for a in range(m))
                total = sum(beta[a][k] for a in range(m))
                if s[k] < alpha and load_ok(ap) and g_k < g_max and served < delta * total:
                    d[ap][k] = 1
            s[k] = sinr_simple(beta, d, k)
    return d


def puc_oracle(beta, delta, beta0=0.0):
    """Best-SNR growth until the delta fraction of the total SNR is served."""
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        total = sum(beta[ap][k] for ap in range(m))
        for ap in descending_aps(beta, k):
            if beta[ap][k] <= 0.0:
                break
            served = sum(d[a][k] * beta[a][k] for a in range(m))
            if served < delta * total:
                d[ap][k] = 1
            else:
                break
    return d


def puc_const_oracle(beta, tau_p, beta0=0.0):
    """Full walk over APs with weakest-UE eviction at loaded APs."""
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        for ap in descending_aps(beta, k):
            if beta[ap][k] <= 0.0:
                break
            served = [i for i in range(k_ues) if d[ap][i] == 1]
            if len(served) < tau_p:
                d[ap][k] = 1
            elif served:
                worst = min(served, key=lambda i: (beta[ap][i], i))
                if beta[ap][worst] < beta[ap][k]:
                    d[ap][worst] = 0
                    d[ap][k] = 1
    return d


def cuc_oracle(beta, cluster_of_ap, e_best, beta0=0.0):
    """Serve with the complete clusters of the e_best strongest APs."""
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        order = descending_aps(beta, k)
        for ap in order[:e_best]:
            if beta[ap][k] <= 0.0:
                break
            for other in range(m):
                if cluster_of_ap[other] == cluster_of_ap[ap]:
                    d[other][k] = 1
    return d


def small_cell_oracle(beta, beta0=0.0):
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        best = descending_aps(beta, k)[0]
        if beta[best][k] > 0.0:
            d[best][k] = 1
    return d


def full_cf_oracle(beta, beta0=0.0):
    beta = masked(beta, beta0)
    return [[1 if b > 0.0 else 0 for b in row] for row in beta]


def mdp_greedy_oracle(beta, tau_p, g_max, u_m, beta0=0.0):
    """Greedy rollout of the per-UE connection rounds, loops only."""
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        steps = 0
        while steps < u_m and sum(d[a][k] for a in range(m)) < g_max:
            cands = [
                ap
                for ap in range(m)
                if beta[ap][k] > 0.0
                and d[ap][k] == 0
                and sum(d[ap][i] for i in range(k_ues)) < tau_p
            ]
            if not cands:
                break
            best = min(cands, key=lambda ap: (-beta[ap][k], ap))
            d[best][k] = 1
            steps += 1
    return d


def replay_episode(beta, tau_p, g_max, u_m, weights, actions_per_ue, beta0=0.0):
    """Recompute every reward of a scripted episode from the definitions.

    actions_per_ue[k] is the scripted action list for UE k; a round still ends
    early once the serving set reaches g_max or u_m steps elapse. Returns
    (total return, r1 list, r2 list, r3, D).
    """
    w1, w2, w3 = weights
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    r1_list = []
    r2_list = []
    for k in range(k_ues):
        steps = 0
        beta_max = max(beta[ap][k] for ap in range(m) if beta[ap][k] > 0.0)
        for action in actions_per_ue[k]:
            load = sum(d[action][i] for i in range(k_ues))
            if load >= tau_p:
                r1_list.append(-1.0)
            else:
                r1_list.append(w1 * beta[action][k] / beta_max)
                d[action][k] = 1
            steps += 1
            if steps >= u_m or sum(d[a][k] for a in range(m)) >= g_max:
                break
        g_k = sum(d[a][k] for a in range(m))
        r2_list.append(w2 * (1.0 - g_k / m))
    s = [sinr_simple(beta, d, k) for k in range(k_ues)]
    ssum = sum(s)
    ssq = sum(v * v for v in s)
    r3 = 0.0 if ssq == 0.0 else w3 * ssum**3 / (k_ues * ssq)
    total = sum(r1_list) + sum(r2_list) + r3
    return total, r1_list, r2_list, r3, d


def best_episode_return(beta, tau_p, g_max, u_m, weights, beta0=0.0):
    """Exhaustive maximum episode return over all action sequences.

    Feasible on tiny instances only; explores every choice of candidate AP
    (or stopping early) at every step of every round.
    """
    w1, w2, w3 = weights
    beta = masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])

    def finish(d):
        s = [sinr_simple(beta, d, k) for k in range(k_ues)]
        ssum = sum(s)
        ssq = sum(v * v for v in s)
        return 0.0 if ssq == 0.0 else w3 * ssum**3 / (k_ues * ssq)

    best = [-math.inf]

    def explore(ue, steps, d, acc):
        if ue == k_ues:
            total = acc + finish(d)
            if total > best[0]:
                best[0] = total
            return
        g_k = sum(d[a][ue] for a in range(m))
        round_done = steps >= u_m or g_k >= g_max
        if not round_done:
            # option: end the round now (skip)
            explore(ue + 1, 0, d, acc + w2 * (1.0 - g_k / m))
            beta_max = max(beta[ap][ue] for ap in range(m) if beta[ap][ue] > 0.0)
            for action in range(m):
                if beta[action][ue] <= 0.0:
                    continue
                load = sum(d[action][i] for i in range(k_ues))
                if load >= tau_p:
                    explore(ue, steps + 1, d, acc - 1.0)
                else:
                    undo = d[action][ue]
                    d[action][ue] = 1
                    explore(ue, steps + 1, d, acc + w1 * beta[action][ue] / beta_max)
                    d[action][ue] = undo
        else:
            explore(ue + 1, 0, d, acc + w2 * (1.0 - g_k / m))

    explore(0, 0, [[0] * k_ues for _ in range(m)], 0.0)
    return best[0]


def _q(z):
    """Exact rational (re, im) pair of a complex float."""
    z = complex(z)
    return (Fraction(z.real), Fraction(z.imag))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den)


def _system_exact(est, rows, interferers, k, noise, powers_ue):
    """pmmse_oracle's system for one draw (M, K) as rational (re, im) pairs."""
    a = [[(Fraction(noise) if r == c else Fraction(0), Fraction(0)) for c in rows] for r in rows]
    for i in interferers:
        v = [_q(est[r, i]) for r in rows]
        p = Fraction(float(powers_ue[i]))
        for r, vr in enumerate(v):
            for c, vc in enumerate(v):
                prod = _cmul(vr, (vc[0], -vc[1]))
                a[r][c] = (a[r][c][0] + p * prod[0], a[r][c][1] + p * prod[1])
    return a, [_q(est[r, k]) for r in rows]


def _solve_exact(a, b):
    """Gauss-Jordan elimination on rational (re, im) pairs; returns complex floats."""
    n = len(b)
    rows = [list(a[r]) + [b[r]] for r in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != (0, 0))
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != (0, 0):
                f = _cdiv(rows[r][c], rows[c][c])
                rows[r] = [(x[0] - fy[0], x[1] - fy[1]) for x, fy in zip(rows[r], (_cmul(f, v) for v in rows[c]))]
    out = [_cdiv(rows[r][n], rows[r][r]) for r in range(n)]
    return np.array([complex(float(x[0]), float(x[1])) for x in out])


def pmmse_oracle(serving_sets, interferer_sets, estimates, noise, powers_ue, exact=False):
    """Unit-norm partial MMSE precoders by one direct solve per UE and draw.

    w_k solves (sum_{i in S_k} p_i est_i est_i^H |_{M_k} + n0 I) w = est_k|_{M_k}
    and is normalized; entries outside M_k stay zero. ``estimates`` is
    (N, M, K) or (M, K). With ``exact`` the system is formed and solved in
    rational arithmetic (tiny sizes only), which stays accurate however badly
    n0 conditions it.
    """
    est = np.asarray(estimates, dtype=complex)
    squeeze = est.ndim == 2
    if squeeze:
        est = est[None]
    w = np.zeros_like(est)
    for n in range(est.shape[0]):
        for k in range(est.shape[2]):
            rows = [int(m) for m in serving_sets[k]]
            if not rows:
                continue
            if exact:
                a, b = _system_exact(est[n], rows, interferer_sets[k], k, noise, powers_ue)
                sol = _solve_exact(a, b)
            else:
                a = noise * np.eye(len(rows), dtype=complex)
                for i in interferer_sets[k]:
                    v = est[n, rows, i]
                    a += powers_ue[i] * np.outer(v, v.conj())
                sol = np.linalg.solve(a, est[n, rows, k])
            norm = math.sqrt(sum(abs(x) ** 2 for x in sol))
            if norm > 0:
                for r, x in zip(rows, sol):
                    w[n, r, k] = x / norm
    return w[0] if squeeze else w


def gains_oracle(h, precoders, powers):
    """Received gains gain_ik = sum_m sqrt(p_mi) conj(h_mk) w_mi per draw, (N, i, k)."""
    n_draws, m_aps, k_ues = h.shape
    gains = np.zeros((n_draws, k_ues, k_ues), dtype=complex)
    for n in range(n_draws):
        for i in range(k_ues):
            for k in range(k_ues):
                gains[n, i, k] = sum(
                    math.sqrt(powers[m, i]) * h[n, m, k].conjugate() * precoders[n, m, i]
                    for m in range(m_aps)
                )
    return gains


def sinr_from_gains_oracle(gains, rho, noise, estimator):
    """Per-UE SINR from gain draws under the hardening or per-draw rule."""
    n_draws, k_ues, _ = gains.shape
    out = []
    for k in range(k_ues):
        if estimator == "hardening":
            mean_kk = sum(gains[n, k, k] for n in range(n_draws)) / n_draws
            moment = sum(abs(gains[n, i, k]) ** 2 for n in range(n_draws) for i in range(k_ues))
            desired = abs(mean_kk) ** 2
            out.append(rho[k] ** 2 * desired / (moment / n_draws - desired + noise))
        else:
            logs = 0.0
            for n in range(n_draws):
                desired = abs(gains[n, k, k]) ** 2
                interference = sum(abs(gains[n, i, k]) ** 2 for i in range(k_ues)) - desired
                logs += math.log1p(rho[k] ** 2 * desired / (interference + noise))
            out.append(math.expm1(logs / n_draws))
    return out


def evaluate_block_reference(snap, coop, pilots, speeds, cfg, n_mc=500, seed=0, estimator="hardening"):
    """Monte-Carlo (gamma, se, rate) per UE, drawn and mixed out of place.

    The package's earlier single-slot evaluate_block arithmetic, kept as it
    was: every draw and the estimate mix are whole-array expressions
    (complex divisions, np.where masks) rather than the in-place products of
    draw_block and mix_estimates. Precoding, SINR and Z reuse the package's
    functions, so a byte-level match pins the draw order and the in-place
    arithmetic only.
    """
    from cfmimo.channel import estimate_variance_matrix
    from cfmimo.evaluation import (
        PrecodingContext,
        instant_sinr,
        precode_pmmse,
        radiated_powers,
        received_gains,
        spectral_efficiency,
        split_powers,
    )

    t = cfg.block_len_slots
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (snap.n_ues,))
    rng = np.random.default_rng(seed)
    ctx = PrecodingContext.from_matrix(coop)
    powers = split_powers(coop, cfg)
    powers_eff = radiated_powers(coop, cfg)
    r = snap.channel_gain()
    shape = (n_mc, snap.n_aps, snap.n_ues)
    h0 = np.sqrt(r / 2.0)[None] * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    powers_ue = np.full(snap.n_ues, cfg.tx_power_w)
    z = estimate_variance_matrix(snap, pilots, t, speeds, cfg, powers)
    est = draw_estimates(h0, r[None], z[None], rng)
    w = precode_pmmse(ctx, est, snap.noise_power, powers_ue)
    rho = np.atleast_1d(aging_coefficient(t, speeds, cfg))
    g = np.sqrt(r / 2.0)[None] * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h_t = rho[None, None, :] * h0 + np.sqrt(np.maximum(0.0, 1.0 - rho**2))[None, None, :] * g
    gamma = instant_sinr(received_gains(h_t, w, powers_eff), rho, snap.noise_power, estimator=estimator)
    se, rate = spectral_efficiency(gamma, cfg)
    return gamma, se, rate


def draw_estimates(h0, r_gain, z, rng):
    """Channel estimates with exact variance Z, correlated with h0.

    a = min(1, sqrt(Z/R)) reproduces the MMSE orthogonality Cov(est, h0) =
    a*sqrt(Z*R) whenever Z <= R and caps at full correlation otherwise.
    h0 may be (M, K) or batched (N, M, K).
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r_gain > 0, z / np.where(r_gain > 0, r_gain, 1.0), 0.0)
    a = np.minimum(1.0, np.sqrt(ratio))
    unit = np.where(r_gain > 0, h0 / np.sqrt(np.where(r_gain > 0, r_gain, 1.0)), 0.0)
    eps = (rng.standard_normal(h0.shape) + 1j * rng.standard_normal(h0.shape)) / np.sqrt(2.0)
    return np.sqrt(z) * (a * unit + np.sqrt(np.maximum(0.0, 1.0 - a**2)) * eps)


@dataclass(frozen=True)
class FadingState:
    """Block-start Rayleigh state h0 ~ CN(0, R) plus the draw stream."""

    h0: np.ndarray
    r_gain: np.ndarray
    rng: np.random.Generator


def draw_fading(snap: ChannelSnapshot, seed) -> FadingState:
    """Draw the block-start channel matrix for one block."""
    rng = np.random.default_rng(seed)
    r = snap.channel_gain()
    h0 = np.sqrt(r / 2.0) * (
        rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
    )
    return FadingState(h0=h0, r_gain=r, rng=rng)


def realize_channel(state: FadingState, t, v, cfg: RadioConfig) -> np.ndarray:
    """Aged channel h[t] = rho*h0 + sqrt(1-rho^2)*g with fresh g ~ CN(0, R).

    ``v`` may be scalar or per-UE (K,); the per-draw innovation g comes from
    the state's stream, so consecutive calls yield independent realizations.
    """
    rho = np.atleast_1d(aging_coefficient(t, v, cfg))[None, :]
    r = state.r_gain
    g = np.sqrt(r / 2.0) * (
        state.rng.standard_normal(r.shape) + 1j * state.rng.standard_normal(r.shape)
    )
    return rho * state.h0 + np.sqrt(np.maximum(0.0, 1.0 - rho**2)) * g


def apply_shadowing(pl_db: np.ndarray, sigma: float, seed) -> np.ndarray:
    """Add i.i.d. log-normal shadowing, one fixed draw per AP-UE pair."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return np.array(pl_db, dtype=float, copy=True)
    rng = np.random.default_rng(seed)
    return np.asarray(pl_db, dtype=float) + sigma * rng.standard_normal(np.shape(pl_db))


def estimate_variance(beta_mk, copilot_betas, t, v, cfg: RadioConfig, p_mk=None):
    """Variance Z of the aged MMSE channel estimate for one AP-UE link.

    ``copilot_betas`` holds beta from the same AP to every UE sharing the
    pilot (including this one). The aging factor uses the pilot-to-slot lag
    tau_p + 1 - t. Form "raw" applies the contamination quotient
    rho^2 * beta^2 * n0 / (p * sum(beta) * n0 + p) as given; form "mmse" is
    the conventional saturating estimator in channel-gain units,
    rho^2 * R * (beta*p*tau_p) / (sum(beta)*p*tau_p + 1), bounded by R.
    """
    p = cfg.tx_power_w if p_mk is None else p_mk
    n0 = noise_power_w(cfg)
    rho = aging_coefficient(cfg.pilot_len_slots + 1 - np.asarray(t, dtype=float), v, cfg)
    beta_mk = np.asarray(beta_mk, dtype=float)
    csum = np.sum(np.asarray(copilot_betas, dtype=float))
    if cfg.estimate_form == "raw":
        return rho**2 * beta_mk**2 * n0 / (p * csum * n0 + p)
    r_gain = beta_mk * n0 / p
    tp = cfg.pilot_len_slots
    return rho**2 * r_gain * (beta_mk * p * tp) / (csum * p * tp + 1.0)


def simplified_sinr(d_col: np.ndarray, beta_col: np.ndarray) -> float:
    """Selection-time SINR proxy: served SNR over unserved SNR plus one."""
    d_col = np.asarray(d_col, dtype=float)
    beta_col = np.asarray(beta_col, dtype=float)
    served = float(np.dot(d_col, beta_col))
    total = float(beta_col.sum())
    return served / (total - served + 1.0)
