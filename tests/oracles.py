"""References that the tests compare the package against.

Each public function here is a reference for a package function or a closed
form of its physics, and some test calls both and compares them. Names with
a leading underscore are the references' own helpers. Each is written from
the algorithm's step list or the closed form with plain Python loops and
lists, deliberately avoiding the vectorized package code paths:

- The selection oracles, brute_force_selection and the episode references
  share the package's documented tie-breaks (descending beta, lowest AP id
  first; ascending UE order) and its outage masking, but none of its code.
- The precoder and gain oracles loop over draws and UEs and call numpy only
  for one dense linear solve per UE and draw.
- evaluate_block_reference is the exception: it pins the Monte-Carlo draw
  arithmetic bit for bit, so it redraws the package's stream in whole-array
  form and reuses the package's precoding, gain and SINR functions.
- j0_series, estimate_variance, hardening_one_link_sinr and
  per_draw_one_link_se are closed forms: the aging factor, one link's
  estimate variance, and one link's SINR and SE.
- load_pathloss_map_reference is the line-list form of the streaming map
  loader; the parser fuzz holds the two to the same tables and messages.
- export_cdf_reference is the numpy form of the CLI's text-only CDF export;
  the two must write the same bytes.
"""

import itertools
import math
import os
from fractions import Fraction

import numpy as np

from cfmimo import InputError
from cfmimo.channel import (
    PathLossMap,
    RadioConfig,
    aging_coefficient,
    noise_power_w,
)


def j0_series(x, terms=60):
    """Power-series zeroth-order Bessel function of the first kind."""
    total = 0.0
    term = 1.0
    for n in range(terms):
        if n > 0:
            term *= -(x * x / 4.0) / (n * n)
        total += term
    return total


def _masked(beta, beta0):
    return [[b if b >= beta0 else 0.0 for b in row] for row in beta]


def _descending_aps(beta, k):
    m = len(beta)
    return sorted(range(m), key=lambda ap: (-beta[ap][k], ap))


def _sinr_simple(beta, d, k):
    m = len(beta)
    served = sum(d[ap][k] * beta[ap][k] for ap in range(m))
    total = sum(beta[ap][k] for ap in range(m))
    return served / (total - served + 1.0)


def _jain(values):
    ssq = sum(v * v for v in values)
    if ssq == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * ssq)


def unifsrv_heu_oracle(beta, tau_p, g_max, delta, beta0=0.0, allow_tau_p_equality=False):
    """Fairness-threshold heuristic, executed step by step."""
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    orders = [_descending_aps(beta, k) for k in range(k_ues)]

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
        s[k] = _sinr_simple(beta, d, k)
    for rank in range(1, m):
        phi = _jain(s)
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
            s[k] = _sinr_simple(beta, d, k)
    return d


def puc_oracle(beta, delta, beta0=0.0):
    """Best-SNR growth until the delta fraction of the total SNR is served."""
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        ranked = _descending_aps(beta, k)
        # both sums run in rank order, as the package adds them (a loop, not
        # sum(), which compensates its rounding from Python 3.12)
        total = 0.0
        for ap in ranked:
            total += beta[ap][k]
        served = 0.0
        for ap in ranked:
            if beta[ap][k] <= 0.0 or served >= delta * total:
                break
            d[ap][k] = 1
            served += beta[ap][k]
    return d


def puc_const_oracle(beta, tau_p, beta0=0.0):
    """Full walk over APs with weakest-UE eviction at loaded APs."""
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        for ap in _descending_aps(beta, k):
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
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        order = _descending_aps(beta, k)
        for ap in order[:e_best]:
            if beta[ap][k] <= 0.0:
                break
            for other in range(m):
                if cluster_of_ap[other] == cluster_of_ap[ap]:
                    d[other][k] = 1
    return d


def small_cell_oracle(beta, beta0=0.0):
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    d = [[0] * k_ues for _ in range(m)]
    for k in range(k_ues):
        best = _descending_aps(beta, k)[0]
        if beta[best][k] > 0.0:
            d[best][k] = 1
    return d


def full_cf_oracle(beta, beta0=0.0):
    beta = _masked(beta, beta0)
    return [[1 if b > 0.0 else 0 for b in row] for row in beta]


def mdp_greedy_oracle(beta, tau_p, g_max, u_m, beta0=0.0):
    """Greedy rollout of the per-UE connection rounds, loops only."""
    beta = _masked(beta, beta0)
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


def brute_force_selection(beta, tau_p, g_max, weights, beta0=0.0):
    """Exhaustive search over feasible cooperation matrices (tiny instances).

    Maximizes w_rate * sum(S) + w_fair * Jain(S) - w_conn * connections over
    all 0/1 matrices within the load cap tau_p and the serving-set cap g_max,
    outage links (beta below beta0) held off. Refuses instances with
    M*K > 20. Ties keep the first maximizer in lexicographic enumeration
    order of the flattened matrix.
    """
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])
    if m * k_ues > 20:
        raise ValueError(f"instance too large for enumeration: M*K = {m * k_ues}")
    w_rate, w_fair, w_conn = weights
    best_obj = -math.inf
    best_d = [[0] * k_ues for _ in range(m)]
    for bits in itertools.product((0, 1), repeat=m * k_ues):
        d = [list(bits[ap * k_ues:(ap + 1) * k_ues]) for ap in range(m)]
        if any(d[ap][k] and beta[ap][k] <= 0.0 for ap in range(m) for k in range(k_ues)):
            continue
        if any(sum(row) > tau_p for row in d):
            continue
        if any(sum(d[ap][k] for ap in range(m)) > g_max for k in range(k_ues)):
            continue
        s = [_sinr_simple(beta, d, k) for k in range(k_ues)]
        obj = w_rate * sum(s) + w_fair * _jain(s) - w_conn * sum(bits)
        if obj > best_obj:
            best_obj = obj
            best_d = d
    return best_d


def replay_episode(beta, tau_p, g_max, u_m, weights, actions_per_ue, beta0=0.0):
    """Recompute every reward of a scripted episode from the definitions.

    actions_per_ue[k] is the scripted action list for UE k; a round still ends
    early once the serving set reaches g_max or u_m steps elapse. Returns
    (total return, r1 list, r2 list, r3, D).
    """
    w1, w2, w3 = weights
    beta = _masked(beta, beta0)
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
    s = [_sinr_simple(beta, d, k) for k in range(k_ues)]
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
    beta = _masked(beta, beta0)
    m = len(beta)
    k_ues = len(beta[0])

    def finish(d):
        s = [_sinr_simple(beta, d, k) for k in range(k_ues)]
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


def _system_exact(est, rows, interferers, k, reg):
    """pmmse_oracle's system for one draw (M, K) as rational (re, im) pairs."""
    a = [[(Fraction(reg) if r == c else Fraction(0), Fraction(0)) for c in rows] for r in rows]
    for i in interferers:
        v = [_q(est[r, i]) for r in rows]
        for r, vr in enumerate(v):
            for c, vc in enumerate(v):
                prod = _cmul(vr, (vc[0], -vc[1]))
                a[r][c] = (a[r][c][0] + prod[0], a[r][c][1] + prod[1])
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


def pmmse_oracle(d, estimates, reg, exact=False):
    """Unit-norm partial MMSE precoders by one direct solve per UE and draw.

    M_k is the serving set {m : d[m][k] = 1} of the M x K 0/1 matrix d and
    S_k the UEs sharing at least one of its APs. w_k solves
    (sum_{i in S_k} est_i est_i^H |_{M_k} + reg I) w = est_k|_{M_k}, reg = n0 / p
    for the one UE power p, and is normalized; entries outside M_k stay zero.
    ``estimates`` is (N, M, K). With ``exact`` the system is formed and
    solved in rational arithmetic (tiny sizes only), which stays accurate
    however badly reg conditions it.
    """
    est = np.asarray(estimates, dtype=complex)
    d = [[int(x) for x in row] for row in np.asarray(d)]
    m_aps, k_ues = len(d), len(d[0])
    serving = [[m for m in range(m_aps) if d[m][k]] for k in range(k_ues)]
    interferers = [
        [i for i in range(k_ues) if any(d[m][i] for m in serving[k])] for k in range(k_ues)
    ]
    w = np.zeros_like(est)
    for n in range(est.shape[0]):
        for k in range(est.shape[2]):
            rows = serving[k]
            if not rows:
                continue
            if exact:
                a, b = _system_exact(est[n], rows, interferers[k], k, reg)
                sol = _solve_exact(a, b)
            else:
                a = reg * np.eye(len(rows), dtype=complex)
                for i in interferers[k]:
                    v = est[n, rows, i]
                    a += np.outer(v, v.conj())
                sol = np.linalg.solve(a, est[n, rows, k])
            norm = math.sqrt(sum(abs(x) ** 2 for x in sol))
            if norm > 0:
                for r, x in zip(rows, sol):
                    w[n, r, k] = x / norm
    return w


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
    """Monte-Carlo (gamma, se, rate) per UE, drawn out of place.

    The package's evaluate_block arithmetic with every step a whole-array
    expression over all n_mc draws, rather than its walk over draw chunks.
    Chunk c of max(1, _CHUNK_ELEMS // (M K)) draws takes its normals from
    the c-th spawned child of the block seed: est ~ CN(0, Z) from one
    (n, M, K, 2) normal array, the real and imaginary part of each element
    in turn, then for per-draw nu ~ CN(0, R - rho^2 Z) the same way, and
    h_t = rho est + nu. The hardening moments given est are formed out of
    place too. Precoding, received_gains, the SINR rules and Z reuse the
    package's functions, so a byte-level match pins the draw stream, the
    chunk walk and the in-place arithmetic only.
    """
    from cfmimo import evaluation
    from cfmimo.channel import estimate_variance_matrix
    from cfmimo.evaluation import (
        PrecodingContext,
        instant_sinr,
        precode_pmmse,
        radiated_powers,
        received_gains,
        spectral_efficiency,
    )

    t = cfg.block_len_slots
    m, k = snap.n_aps, snap.n_ues
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (k,))
    ctx = PrecodingContext.from_matrix(coop)
    powers_eff = radiated_powers(coop, cfg)
    z = estimate_variance_matrix(snap, pilots, t, speeds, cfg)
    rho = np.atleast_1d(aging_coefficient(t, speeds, cfg))
    resid = np.maximum(snap.channel_gain() - rho**2 * z, 0.0)
    step = max(1, evaluation._CHUNK_ELEMS // (m * k))
    children = np.random.SeedSequence(seed).spawn(-(-n_mc // step))
    est, nu = [], []
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        shape = (min(step, n_mc - c * step), m, k, 2)
        x = rng.standard_normal(shape)
        est.append(np.sqrt(z / 2.0) * (x[..., 0] + 1j * x[..., 1]))
        if estimator == "per-draw":
            y = rng.standard_normal(shape)
            nu.append(np.sqrt(resid / 2.0) * (y[..., 0] + 1j * y[..., 1]))
    est = np.concatenate(est)
    w = precode_pmmse(ctx, est, snap.noise_power / cfg.tx_power_w)
    sw = np.sqrt(powers_eff) * np.conj(w)
    if estimator == "hardening":
        desired, total = received_gains(est, sw)
        radiated = (np.abs(sw) ** 2).sum(axis=2)
        desired, total = rho * desired, rho**2 * total + (radiated[:, None] @ resid)[:, 0]
    else:
        desired, total = received_gains(rho * est + np.concatenate(nu), sw)
    gamma = instant_sinr(desired, total, rho, snap.noise_power, estimator=estimator)
    se, rate = spectral_efficiency(gamma, cfg)
    return gamma, se, rate


def hardening_one_link_sinr(gamma_bar, p, tau_p):
    """Use-and-forget SINR of one static UE served by one AP with MMSE CSI.

    Noise-limited, unit-norm precoder est/|est|: h = est + e with e
    independent of est ~ CN(0, Z), so the mean gain is sqrt(p) E|est| =
    sqrt(p Z pi/4) and the gain power p R. With c^2 = Z/R = x/(x + 1),
    x = gamma_bar p tau_p the pilot processing gain (rho = 1),
    gamma = c^2 (pi/4) gamma_bar / ((1 - c^2 pi/4) gamma_bar + 1).
    """
    x = gamma_bar * p * tau_p
    q = x / (x + 1.0) * math.pi / 4.0
    return q * gamma_bar / ((1.0 - q) * gamma_bar + 1.0)


def _exp_integral_e1(x, terms=80):
    """E1(x) = -gamma_Euler - ln x - sum_{k>=1} (-x)^k / (k k!), for 0 < x <= 5."""
    euler_gamma = 0.5772156649015329
    term, parts = 1.0, []
    for k in range(1, terms):
        term *= -x / k
        parts.append(term / k)
    return -euler_gamma - math.log(x) - math.fsum(parts)


def per_draw_one_link_se(gamma_bar):
    """Mean log2(1 + gamma_bar |h|^2) over Rayleigh h, in bit/s/Hz before
    the pilot overhead: e^{1/gamma_bar} E1(1/gamma_bar) / ln 2. One AP's
    unit-norm precoder passes |h| whatever the estimate, so CSI drops out."""
    return math.exp(1.0 / gamma_bar) * _exp_integral_e1(1.0 / gamma_bar) / math.log(2.0)


def estimate_variance(beta_mk, copilot_betas, t, v, cfg: RadioConfig):
    """Variance Z of the aged MMSE channel estimate for one AP-UE link.

    ``copilot_betas`` holds beta from the same AP to every UE sharing the
    pilot (including this one). The aging factor uses the pilot-to-slot lag
    tau_p + 1 - t. In channel-gain units, with pilot power p = tx_power_w,
    Z = rho^2 * R * (beta*p*tau_p) / (sum(beta)*p*tau_p + 1), bounded by R.
    """
    p = cfg.tx_power_w
    n0 = noise_power_w(cfg)
    rho = aging_coefficient(cfg.pilot_len_slots + 1 - np.asarray(t, dtype=float), v, cfg)
    beta_mk = np.asarray(beta_mk, dtype=float)
    csum = np.sum(np.asarray(copilot_betas, dtype=float))
    r_gain = beta_mk * n0 / p
    tp = cfg.pilot_len_slots
    return rho**2 * r_gain * (beta_mk * p * tp) / (csum * p * tp + 1.0)


_MAP_ROW = np.dtype([("ap", "i8"), ("ix", "i8"), ("iy", "i8"), ("pl", "f8")])


def load_pathloss_map_reference(path, topo) -> PathLossMap:
    """The line-list map loader the package's streaming loader replaced.

    It reads the lines by the package's line rule (UTF-8 text, lines ending
    only at \\n, \\r\\n or \\r, line ends stripped) into one list, holds
    that list and the body copy at once, checks duplicates with a stable
    argsort, and defines every accepted table and every error message the
    streaming loader must reproduce.
    """
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f]
    if not lines:
        raise InputError(f"{path}: empty map file")
    head = lines[0].split(",")
    if len(head) != 4:
        raise InputError(f"{path}:1: expected header 'grid_dx,grid_dy,origin_x,origin_y'")
    try:
        dx, dy, ox, oy = (float(v) for v in head)
    except ValueError:
        raise InputError(f"{path}:1: non-numeric header field") from None
    if not all(math.isfinite(v) for v in (dx, dy, ox, oy)):
        raise InputError(f"{path}:1: non-finite header field")
    if dx <= 0 or dy <= 0:
        raise InputError(f"{path}:1: grid spacing must be positive and uniform per axis")
    w, h = topo.area.width, topo.area.height
    if max(abs(ox), abs(w - ox)) / dx >= 2**63 or max(abs(oy), abs(h - oy)) / dy >= 2**63:
        raise InputError(f"{path}:1: the {w:g} x {h:g} m area's cell indices pass int64 on this grid")

    body = lines[1:]
    if not any(line.strip() for line in body):
        raise InputError(f"{path}: no map rows")
    bad = None
    try:
        rows = np.loadtxt(body, delimiter=",", dtype=_MAP_ROW, comments=None, ndmin=1)
    except ValueError:
        rows, bad = _scan_map_rows_reference(path, body, topo.n_aps)
    unknown = (rows["ap"] < 0) | (rows["ap"] >= topo.n_aps)
    # a nan or -inf loss (+inf is an outage cell) stops the map before the
    # duplicate check, so a repeated cell with such a loss is named for it
    non_finite = np.isnan(rows["pl"]) | (rows["pl"] == -np.inf)
    # a cell index of magnitude 2**63; of those, int64 holds only -2**63
    huge = (rows["ix"] == -(2**63)) | (rows["iy"] == -(2**63))
    # a row that grows the grid of the rows up to it past an int64 flat
    # index; the extents are Python ints, which do not wrap
    nx, ny = (
        np.maximum.accumulate(rows[f]).astype(object) - np.minimum.accumulate(rows[f]).astype(object) + 1
        for f in ("ix", "iy")
    )
    wide = (topo.n_aps * nx * ny >= 2**63).astype(bool)
    stops = np.flatnonzero(unknown | non_finite | huge | wide)
    n_ok = int(stops[0]) if stops.size else len(rows)
    ap, ix, iy = rows["ap"][:n_ok], rows["ix"][:n_ok], rows["iy"][:n_ok]
    if n_ok:
        ix_min, iy_min = int(ix.min()), int(iy.min())
        nx, ny = int(ix.max()) - ix_min + 1, int(iy.max()) - iy_min + 1
        cell = (ap * nx + ix - ix_min) * ny + iy - iy_min
        order = np.argsort(cell, kind="stable")
        repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
        if repeats.size:
            i = int(repeats.min())
            raise InputError(
                f"{path}:{_map_row_line_reference(body, i)}: duplicate cell ({ap[i]}, {ix[i]}, {iy[i]})"
            )
    if stops.size:
        ln = _map_row_line_reference(body, n_ok)
        if unknown[n_ok]:
            raise InputError(f"{path}:{ln}: unknown AP id {rows['ap'][n_ok]}")
        if non_finite[n_ok]:
            raise InputError(f"{path}:{ln}: non-finite path loss in {body[ln - 2]!r}")
        raise InputError(f"{path}:{ln}: cell index out of range in {body[ln - 2]!r}")
    if bad is not None:
        raise bad
    missing = np.flatnonzero(np.bincount(ap, minlength=topo.n_aps) == 0).tolist()
    if missing:
        raise InputError(f"{path}: no coverage rows for AP ids {missing}")

    if 2**28 < topo.n_aps * nx * ny < 2**60:
        raise InputError(f"{path}: a path-loss table of {topo.n_aps} x {nx} x {ny} cells passes the 2^28-cell cap")
    try:
        table = np.full((topo.n_aps, nx, ny), np.inf)
    except (ValueError, MemoryError):
        raise InputError(
            f"{path}: a path-loss table of {topo.n_aps} x {nx} x {ny} cells is too large to allocate"
        ) from None
    table.reshape(-1)[cell] = rows["pl"]
    return PathLossMap(dx, dy, (ox, oy), table, (ix_min, iy_min))


def _scan_map_rows_reference(path, body, n_aps):
    """Rows before the first malformed one, and the error naming its line."""
    parsed, bad = [], None
    for ln, line in enumerate(body, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            bad = InputError(f"{path}:{ln}: expected 'ap_id,cell_ix,cell_iy,pathloss_db', got {line!r}")
            break
        try:
            # stripped as np.loadtxt strips a field: str.strip takes \x1c-\x1f too
            ap, cix, ciy = (int(part.strip()) for part in parts[:3])
            pl = float(parts[3].strip())
        except ValueError:
            bad = InputError(f"{path}:{ln}: non-numeric field in {line!r}")
            break
        if not 0 <= ap < n_aps:
            bad = InputError(f"{path}:{ln}: unknown AP id {ap}")
            break
        if max(abs(cix), abs(ciy)) >= 2**63:
            bad = InputError(f"{path}:{ln}: cell index out of range in {line!r}")
            break
        parsed.append((ap, cix, ciy, pl))
    return np.array(parsed, dtype=_MAP_ROW), bad


def _map_row_line_reference(body, i) -> int:
    """File line number of data row ``i``, counting past blank lines."""
    rows = (ln for ln, line in enumerate(body, start=2) if line.strip())
    return next(itertools.islice(rows, i, None))


def export_cdf_reference(run_dir) -> tuple[np.ndarray, np.ndarray]:
    """numpy CDF export: write ``cdf.csv`` from column 2 of ``se_blocks.csv``;
    returns (sorted values, ordinates i/n for i = 1..n)."""
    raw = os.path.join(run_dir, "se_blocks.csv")
    values = np.sort(np.loadtxt(raw, delimiter=",", skiprows=1, usecols=2, ndmin=1))
    n = values.size
    ordinates = np.arange(1, n + 1) / n
    with open(os.path.join(run_dir, "cdf.csv"), "w") as f:
        f.write("se,cdf\n")
        f.writelines(f"{v:.10g},{c:.10g}\n" for v, c in zip(values.tolist(), ordinates.tolist()))
    return values, ordinates
