"""Per-block SINR and throughput for a given cooperation matrix.

SE is estimated by Monte-Carlo over fading, aging, and channel-estimate
draws: partial MMSE precoders are built per draw from the estimates over
each UE's serving set, and the received gains

    gain_ik = sum_m sqrt(p_mi) D_mi conj(h_mk[t]) w_mi

are combined either with the use-and-forget hardening bound

    gamma_k = rho_k^2 |E{gain_kk}|^2 / (sum_i E{|gain_ik|^2} - |E{gain_kk}|^2 + n0)

or per draw (instantaneous SINR of every realization, ergodic-equivalent
output), at the block end (worst aging).

A block's draws split in two. draw_block takes what no selection changes:
the unit-variance block-start fading h0/sqrt(R), the estimate-error
direction and the aged channel, three (n_mc, M, K) complex arrays.
evaluate_draws then runs what the cooperation matrix shapes: the estimate
variance Z, the estimates mixed from the shared draws, the precoders and the
received gains. So several algorithms evaluated on one block share one set
of draws; evaluate_block is the two in one call.

evaluate_draws streams the draw axis in chunks of about _CHUNK_ELEMS (M, K)
elements: each chunk's estimates, precoders and power-scaled conjugate
precoders live only while its gains are formed. So the live arrays of an
evaluation are the three draw arrays, one chunk of each of those three, and
the (n_mc, K, K) gains that instant_sinr combines once every chunk is in.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSnapshot, RadioConfig, aging_coefficient, estimate_variance_matrix
from .selection import CooperationMatrix, SelectionConstraints, jain_index

SINR_ESTIMATORS = ("hardening", "per-draw")


@dataclass(frozen=True)
class PrecodingContext:
    """Serving sets and co-served interferer sets derived from D.

    serving_sets[k] lists the AP rows with D[m, k] = 1; interferer_sets[k]
    lists the UEs sharing at least one serving AP with k (always including k).
    """

    serving_sets: tuple
    interferer_sets: tuple

    @classmethod
    def from_matrix(cls, coop: CooperationMatrix) -> "PrecodingContext":
        d = coop.d
        share = (d.T.astype(int) @ d.astype(int)) > 0
        serving = []
        interferers = []
        for k in range(d.shape[1]):
            serving.append(np.flatnonzero(d[:, k]))
            s = np.flatnonzero(share[k])
            if k not in s:
                s = np.sort(np.append(s, k))
            interferers.append(s)
        return cls(serving_sets=tuple(serving), interferer_sets=tuple(interferers))


def split_powers(coop: CooperationMatrix, cfg: RadioConfig) -> np.ndarray:
    """Equal per-AP power split: p_mk = budget / W_m on serving links."""
    d = coop.d.astype(float)
    w = d.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(w > 0, cfg.tx_power_w / w, 0.0) * d
    return p


def radiated_powers(coop: CooperationMatrix, cfg: RadioConfig) -> np.ndarray:
    """Effective per-link powers entering the unit-norm precoded gains.

    Each serving link radiates its split budget p_mk on average; since the
    precoding direction w_k is normalized over the G_k serving APs
    (mean |w_mk|^2 = 1/G_k), the per-link scaling is p_mk * G_k so that
    E{p_eff |w_mk|^2} = p_mk. A UE's received power thus grows with its
    serving-set size, as the per-AP budget model implies.
    """
    return split_powers(coop, cfg) * np.maximum(coop.g_k, 1)[None, :]


#: Scale of either part of a CN(0, 1) draw; (x + 1j*y) / sqrt(2) is computed
#: as x * (1 / sqrt(2)), so the product gives the same bytes.
_HALF_SCALE = 1.0 / np.sqrt(2.0)


def _complex_normal(rng, shape, scale, buf=None) -> np.ndarray:
    """scale * (x + 1j*y) for standard-normal x then y, built in place.

    ``buf`` is an optional float scratch array of ``shape`` that the draws
    pass through.
    """
    out = np.empty(shape, dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(shape, out=buf), scale, out=part)
    return out


def _inv_sqrt_gain(r_gain: np.ndarray) -> np.ndarray:
    """1/sqrt(R) per link, 0 where R = 0 (outage)."""
    r_gain = np.asarray(r_gain, dtype=float)
    return np.where(r_gain > 0, 1.0 / np.sqrt(np.where(r_gain > 0, r_gain, 1.0)), 0.0)


def mix_estimates(unit: np.ndarray, eps: np.ndarray, r_gain: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Estimates sqrt(Z) (a unit + sqrt(1 - a^2) eps) with a = min(1, sqrt(Z/R)).

    ``unit`` is the channel over sqrt(R) (0 where R = 0) and ``eps`` an
    independent CN(0, 1) draw of the same shape; r_gain and z broadcast
    against them.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r_gain > 0, z / np.where(r_gain > 0, r_gain, 1.0), 0.0)
    a = np.minimum(1.0, np.sqrt(ratio))
    b = np.sqrt(np.maximum(0.0, 1.0 - a**2))
    est = np.multiply(unit, a)
    est.real += eps.real * b
    est.imag += eps.imag * b
    est *= np.sqrt(z)
    return est


class BlockDraws(NamedTuple):
    """The Monte-Carlo draws of one block that no selection changes.

    unit is the block-start channel h0 over sqrt(R) (0 on outage links), eps
    the estimate-error direction and h_t the channel aged to the block end,
    each (n_mc, M, K) complex; rho is the per-UE aging correlation at the
    block end.
    """

    unit: np.ndarray
    eps: np.ndarray
    h_t: np.ndarray
    rho: np.ndarray


def draw_block(snap: ChannelSnapshot, speeds, cfg: RadioConfig, n_mc: int, seed) -> BlockDraws:
    """Draw one block's fading, estimate-error and aging realizations.

    The stream draws h0, then eps, then the aging innovation g, each real
    part before its imaginary part; h_t = rho h0 + sqrt(1 - rho^2) g is
    built in g's array and h0 becomes unit in place.
    """
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (snap.n_ues,))
    rng = np.random.default_rng(seed)
    r = snap.channel_gain()
    shape = (n_mc, snap.n_aps, snap.n_ues)
    buf = np.empty(shape)
    h0 = _complex_normal(rng, shape, np.sqrt(r / 2.0), buf)
    eps = _complex_normal(rng, shape, _HALF_SCALE, buf)
    h_t = _complex_normal(rng, shape, np.sqrt(r / 2.0), buf)
    rho = np.atleast_1d(aging_coefficient(cfg.block_len_slots, speeds, cfg))
    h_t *= np.sqrt(np.maximum(0.0, 1.0 - rho**2))
    for part_t, part_0 in ((h_t.real, h0.real), (h_t.imag, h0.imag)):
        part_t += np.multiply(part_0, rho, out=buf)
    del buf
    h0 *= _inv_sqrt_gain(r)
    return BlockDraws(unit=h0, eps=eps, h_t=h_t, rho=rho)


#: Complex (M, K) elements of one draw chunk in evaluate_draws (which takes
#: at least two draws a chunk); bounds each chunk's estimates, precoders and
#: precoding temporaries at ~4 MB whatever n_mc is.
_CHUNK_ELEMS = 1 << 18


def _interferer_groups(ctx: PrecodingContext):
    """Served UEs grouped by identical interferer set, in first-UE order."""
    groups = {}
    for k, (idx, s_set) in enumerate(zip(ctx.serving_sets, ctx.interferer_sets)):
        if k not in s_set:
            raise ValueError(f"interferer set of UE {k} does not contain it")
        if idx.size:
            groups.setdefault(s_set.tobytes(), (s_set, []))[1].append(k)
    return groups.values()


def _gram(u: np.ndarray) -> np.ndarray:
    """Batched U^H U of (n, rows, S) draws."""
    return u.conj().transpose(0, 2, 1) @ u


def _member_grams(served, u, where, members, core, gram):
    """Yield (k, U_k^H U_k) for each member in order, U_k being its rows of u.

    ``served`` is the (M, K) boolean serving matrix and ``gram`` the Gram over
    ``core``, the rows every member serves (a boolean mask over M). The
    members are split in halves; each half adds the Gram of the rows all its
    members serve beyond ``core`` and recurses, so a row shared by a subtree
    enters one sum for all of it. Only row Grams are added, never subtracted.
    """
    if len(members) == 1:
        yield members[0], gram
        return
    half = len(members) // 2
    for part in (members[:half], members[half:]):
        sub = served[:, part].all(axis=1)
        extra = where[np.flatnonzero(sub & ~core)]
        yield from _member_grams(served, u, where, part, sub, gram + _gram(u[:, extra]))


def precode_pmmse(
    ctx: PrecodingContext, estimates: np.ndarray, noise: float, powers_ue: np.ndarray
) -> np.ndarray:
    """Unit-norm partial MMSE precoders over each UE's serving set.

    w_k solves (sum_{i in S_k} p_i est_i est_i^H |_{M_k} + n0 I) w = est_k and
    is normalized per draw. ``estimates`` is (M, K) or (N, M, K); the return
    matches, with zeros outside the serving sets. Every interferer set must
    contain its own UE, as PrecodingContext.from_matrix guarantees.

    Served UEs are grouped by interferer set S, and each group gathers its
    estimates est[:, R, S] once, over the union R of its members' serving
    sets. A member with G <= |S| solves the G x G system directly. A member
    with G > |S| solves an S x S system instead: its estimate is column j of
    its serving rows U, so (n0 I + U P U^H)^-1 U e_j = U (U^H U + n0 P^-1)^-1
    e_j / p_j, with nothing subtracted (the b - U(...)U^H b form of the
    matrix-inversion lemma cancels away the result at high SNR). The Gram
    U^H U is additive over serving rows: the Gram over the core (the APs every
    such member of the group serves) is formed once, and each member adds the
    Gram of its own extra rows, shared down a balanced split of the members
    (see _member_grams). One matmul maps every member's S-vector back onto R.
    Every draw is solved on its own; evaluate_draws passes chunks of about
    _CHUNK_ELEMS (M, K) elements, which bounds every gathered temporary.
    """
    est = np.asarray(estimates)
    squeeze = est.ndim == 2
    if squeeze:
        est = est[None]
    m_aps, k_ues = est.shape[1:]
    if len(ctx.serving_sets) != k_ues:
        raise ValueError("context and estimate dimensions disagree")
    w = np.zeros_like(est)
    served = np.zeros((m_aps, k_ues), dtype=bool)
    for k, idx in enumerate(ctx.serving_sets):
        served[idx, k] = True

    def store(k, sol):
        norm = np.linalg.norm(sol, axis=1, keepdims=True)
        w[:, ctx.serving_sets[k], k] = np.where(norm > 0, sol / np.where(norm > 0, norm, 1.0), 0.0)

    for s_set, members in _interferer_groups(ctx):
        p = powers_ue[s_set]
        col = {k: int(np.flatnonzero(s_set == k)[0]) for k in members}
        wide = [k for k in members if ctx.serving_sets[k].size > s_set.size]
        rows = np.flatnonzero(served[:, members].any(axis=1))
        where = np.empty(m_aps, dtype=np.intp)
        where[rows] = np.arange(rows.size)
        u = est[:, rows[:, None], s_set[None, :]]  # (n, R, S)
        for k in members:
            if k not in wide:
                uk = u[:, where[ctx.serving_sets[k]]]  # (n, G, S)
                a = (uk * p) @ uk.conj().transpose(0, 2, 1)
                a[:, np.arange(a.shape[1]), np.arange(a.shape[1])] += noise
                store(k, np.linalg.solve(a, uk[:, :, col[k], None])[..., 0])
        if not wide:
            continue
        core = served[:, wide].all(axis=1)
        coef = np.empty((u.shape[0], s_set.size, len(wide)), dtype=u.dtype)
        grams = _member_grams(served, u, where, wide, core, _gram(u[:, where[np.flatnonzero(core)]]))
        for c, (k, inner) in enumerate(grams):
            unit = np.zeros((s_set.size, 1))
            unit[col[k]] = 1.0
            coef[:, :, c] = np.linalg.solve(inner + np.diag(noise / p), unit)[..., 0]
        proj = u @ coef  # (n, R, members)
        for c, k in enumerate(wide):
            store(k, proj[:, where[ctx.serving_sets[k]], c])
    return w[0] if squeeze else w


def received_gains(h: np.ndarray, precoders: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Received-gain draws gain_ik = sum_m sqrt(p_mi) conj(h_mk) w_mi.

    h and precoders are (N, M, K) draws, powers the per-link (M, K) split;
    returns (N, i, k). Formed as the conjugate of (sqrt(p) conj(w))^T h, one
    batched matmul per draw; the power-scaled conjugate precoder is the one
    temporary of the inputs' size, and the inputs are not written.
    """
    sw = np.conj(precoders)
    sw *= np.sqrt(powers)
    gains = sw.transpose(0, 2, 1) @ h
    return np.conj(gains, out=gains)


def instant_sinr(gains: np.ndarray, rho, noise: float, estimator: str = "hardening") -> np.ndarray:
    """SINR per UE from Monte-Carlo received-gain draws.

    gains is the (N, i, k) output of received_gains; rho the aging
    correlation (scalar or per-UE).

    "hardening" combines empirical means first (use-and-forget bound: the
    desired-signal square is subtracted from the total received moment to
    form the interference). "per-draw" evaluates the instantaneous SINR of
    every draw, conditioning the signal on the current realization, and
    returns the ergodic-equivalent SINR gamma with log2(1 + gamma) equal to
    the mean per-draw log2(1 + gamma_n); single-AP links are then not
    penalized by the missing channel hardening.
    """
    k_ues = gains.shape[2]
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho.size == 1:
        rho = np.full(k_ues, rho[0])
    if estimator == "hardening":
        mu = gains.mean(axis=0)
        m2 = (np.abs(gains) ** 2).mean(axis=0)
        desired = np.abs(np.diagonal(mu)) ** 2
        interference = m2.sum(axis=0) - desired
        return rho**2 * desired / (interference + noise)
    if estimator == "per-draw":
        p2 = np.abs(gains) ** 2  # (N, i, k)
        k_idx = np.arange(k_ues)
        desired = p2[:, k_idx, k_idx]
        interference = p2.sum(axis=1) - desired
        gamma_n = rho[None, :] ** 2 * desired / (interference + noise)
        return np.expm1(np.log1p(gamma_n).mean(axis=0))
    raise ValueError(f"unknown SINR estimator {estimator!r}")


def spectral_efficiency(gamma, cfg: RadioConfig):
    """Per-UE SE (bit/s/Hz) and throughput with the pilot-overhead factor."""
    gamma = np.asarray(gamma, dtype=float)
    overhead = (cfg.block_len_slots - cfg.pilot_len_slots) / cfg.block_len_slots
    se = overhead * np.log2(1.0 + gamma)
    return se, cfg.bandwidth_hz * se


def evaluate_draws(
    snap: ChannelSnapshot,
    coop: CooperationMatrix,
    pilots: np.ndarray,
    speeds,
    cfg: RadioConfig,
    draws: BlockDraws,
    estimator: str = "hardening",
):
    """Monte-Carlo SE of one cooperation matrix on a block's shared draws.

    Returns (gamma, se, rate) per UE. Only the estimates depend on ``coop``
    (through Z); ``draws`` is read, never written. The draws are taken in
    chunks of about _CHUNK_ELEMS (M, K) elements: each chunk's estimates are
    mixed and precoded and its received gains stored, and instant_sinr
    combines the gains of every draw with ``estimator`` at the end, so every
    sum over draws runs in draw order whatever the chunk size.

    No chunk holds a single draw unless the block does. precode_pmmse's
    gathers lay two or more draws out draw-innermost, and numpy then runs
    its matmuls and norms in its own loops; one draw comes out row-major and
    takes BLAS and pairwise sums, which round differently.
    """
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (snap.n_ues,))
    ctx = PrecodingContext.from_matrix(coop)
    z = estimate_variance_matrix(snap, pilots, cfg.block_len_slots, speeds, cfg, split_powers(coop, cfg))
    r = snap.channel_gain()
    powers_ue = np.full(snap.n_ues, cfg.tx_power_w)
    powers = radiated_powers(coop, cfg)
    n_mc = draws.unit.shape[0]
    gains = np.empty((n_mc, snap.n_ues, snap.n_ues), dtype=complex)
    step = max(2, _CHUNK_ELEMS // (snap.n_aps * snap.n_ues))
    starts = list(range(0, n_mc, step))
    if len(starts) > 1 and n_mc - starts[-1] == 1:
        starts.pop()  # a one-draw tail joins the chunk before it
    for n0, n1 in zip(starts, starts[1:] + [n_mc]):
        c = slice(n0, n1)
        w = precode_pmmse(ctx, mix_estimates(draws.unit[c], draws.eps[c], r, z), snap.noise_power, powers_ue)
        gains[c] = received_gains(draws.h_t[c], w, powers)
        del w
    gamma = instant_sinr(gains, draws.rho, snap.noise_power, estimator=estimator)
    se, rate = spectral_efficiency(gamma, cfg)
    return gamma, se, rate


def evaluate_block(
    snap: ChannelSnapshot,
    coop: CooperationMatrix,
    pilots: np.ndarray,
    speeds,
    cfg: RadioConfig,
    n_mc: int = 500,
    seed=0,
    estimator: str = "hardening",
):
    """Monte-Carlo SE for one block; returns (gamma, se, rate) per UE.

    Draws n_mc joint realizations of the block-start channel, its aged value
    at the block end and the channel estimates (draw_block), then evaluates
    ``coop`` on them (evaluate_draws).
    """
    draws = draw_block(snap, speeds, cfg, n_mc, seed)
    return evaluate_draws(snap, coop, pilots, speeds, cfg, draws, estimator=estimator)


def objective_values(coop: CooperationMatrix, rates) -> tuple[float, float, int, float]:
    """(sum rate, Jain index over rates, total connections, PF objective).

    The proportional-fairness objective floors rates at 1 bit/s before the
    log to keep zero-rate UEs finite.
    """
    sum_rate, phi, pf = _rate_objectives(rates)
    return sum_rate, phi, coop.total_connections, pf


def _rate_objectives(rates) -> tuple[float, float, float]:
    """(sum rate, Jain index, PF objective) of per-UE rates."""
    rates = np.asarray(rates, dtype=float)
    return float(rates.sum()), jain_index(rates), float(np.log(np.maximum(rates, 1.0)).sum())


@dataclass(frozen=True)
class ConstraintReport:
    """Counts of cap violations for one cooperation matrix."""

    w_violations: int
    g_violations: int
    nonbinary: int

    @property
    def ok(self) -> bool:
        return self.w_violations == 0 and self.g_violations == 0 and self.nonbinary == 0


def check_constraints(coop: CooperationMatrix, constraints: SelectionConstraints) -> ConstraintReport:
    """Count APs over the load cap and UEs over the serving-set cap."""
    d = np.asarray(coop.d)
    return ConstraintReport(
        w_violations=int(np.count_nonzero(d.sum(axis=1) > constraints.tau_p)),
        g_violations=int(np.count_nonzero(d.sum(axis=0) > constraints.g_max)),
        nonbinary=int(np.count_nonzero((d != 0) & (d != 1))),
    )


@dataclass
class MetricsReport:
    """Per-run metrics: per-block SE plus the aggregate objective values."""

    algorithm: str
    seed: int
    config_hash: str
    n_mc: int
    se_per_block: np.ndarray  # (K, T)
    g_per_block: np.ndarray  # (K, T)
    w_per_block: np.ndarray  # (M, T)
    rate_per_ue: np.ndarray  # (K,) mean over blocks
    sum_rate: float
    jain: float
    pf_objective: float
    mean_connections: float
    w_violation_blocks: int
    g_violation_blocks: int

    @property
    def n_ues(self) -> int:
        return self.se_per_block.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.se_per_block.shape[1]

    @property
    def mean_g_per_ue(self) -> np.ndarray:
        return self.g_per_block.mean(axis=1)


def build_report(
    algorithm: str,
    seed: int,
    config_hash: str,
    n_mc: int,
    se_blocks: np.ndarray,
    rate_blocks: np.ndarray,
    g_blocks: np.ndarray,
    w_blocks: np.ndarray,
    constraints: SelectionConstraints,
) -> MetricsReport:
    """Aggregate per-block results into a MetricsReport."""
    rate_per_ue = rate_blocks.mean(axis=1)
    sum_rate, jain, pf = _rate_objectives(rate_per_ue)
    w_bad = int(np.count_nonzero((w_blocks > constraints.tau_p).any(axis=0)))
    g_bad = int(np.count_nonzero((g_blocks > constraints.g_max).any(axis=0)))
    return MetricsReport(
        algorithm=algorithm,
        seed=seed,
        config_hash=config_hash,
        n_mc=n_mc,
        se_per_block=se_blocks,
        g_per_block=g_blocks,
        w_per_block=w_blocks,
        rate_per_ue=rate_per_ue,
        sum_rate=sum_rate,
        jain=jain,
        pf_objective=pf,
        mean_connections=float(g_blocks.sum(axis=0).mean()),
        w_violation_blocks=w_bad,
        g_violation_blocks=g_bad,
    )


def export_cdf(run_dir) -> tuple[np.ndarray, np.ndarray]:
    """Write ``cdf.csv``, the empirical CDF of a finished run's per-UE-per-block SE.

    Reads the SE column of the run's ``se_blocks.csv`` and writes rows
    ``se,cdf`` in ascending SE. Returns (sorted values, ordinates i/n for
    i = 1..n).
    """
    raw = os.path.join(run_dir, "se_blocks.csv")
    if not os.path.exists(raw):
        raise FileNotFoundError(f"no raw SE file at {raw}")
    values = np.sort(np.loadtxt(raw, delimiter=",", skiprows=1, usecols=2, ndmin=1))
    n = values.size
    ordinates = np.arange(1, n + 1) / n
    with open(os.path.join(run_dir, "cdf.csv"), "w") as f:
        f.write("se,cdf\n")
        f.writelines(f"{v:.10g},{c:.10g}\n" for v, c in zip(values.tolist(), ordinates.tolist()))
    return values, ordinates


def _percentile_rows(values: np.ndarray, q: float) -> np.ndarray:
    """np.percentile(values, q, axis=1) by its default linear method.

    Written out because numpy's percentile calls np.unique, whose first call
    in a process imports numpy.ma (~15 ms). The steps are numpy's: virtual
    index (n - 1) q/100, both neighbours clamped to the last value from n - 1
    up, and the lerp that works from the upper neighbour when the weight is at
    least 0.5, so the result is the same to the bit.
    """
    s = np.sort(values, axis=1)
    n = s.shape[1]
    virtual = (n - 1) * (q / 100)
    lo = hi = -1
    if virtual < n - 1:
        lo = math.floor(virtual)
        hi = lo + 1
    t = virtual - lo
    diff = s[:, hi] - s[:, lo]
    return s[:, hi] - diff * (1 - t) if t >= 0.5 else s[:, lo] + diff * t


def write_report(report: MetricsReport, out_dir) -> None:
    """Serialize the report: metadata header, per-UE rows, aggregate rows,
    plus the raw per-block SE file for CDF plotting."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write("# run metadata\n")
        f.write(f"algorithm = {report.algorithm}\n")
        f.write(f"seed = {report.seed}\n")
        f.write(f"config_hash = {report.config_hash}\n")
        f.write(f"blocks = {report.n_blocks}\n")
        f.write(f"n_mc = {report.n_mc}\n")
        f.write(f"pf_rate_floor_bps = 1\n")
        f.write("# per-ue\n")
        f.write("ue_id,mean_se,p95_se,mean_G\n")
        mean_se = report.se_per_block.mean(axis=1)
        p95_se = _percentile_rows(report.se_per_block, 95)
        mean_g = report.mean_g_per_ue
        for k in range(report.n_ues):
            f.write(f"{k},{mean_se[k]:.10g},{p95_se[k]:.10g},{mean_g[k]:.10g}\n")
        f.write("# aggregate\n")
        f.write(f"sum_rate_bps = {report.sum_rate:.10g}\n")
        f.write(f"jain = {report.jain:.10g}\n")
        f.write(f"pf_objective = {report.pf_objective:.10g}\n")
        f.write(f"mean_connections = {report.mean_connections:.10g}\n")
        f.write(f"w_violation_blocks = {report.w_violation_blocks}\n")
        f.write(f"g_violation_blocks = {report.g_violation_blocks}\n")
    with open(os.path.join(out_dir, "se_blocks.csv"), "w") as f:
        f.write("block,ue_id,se,g\n")
        for t in range(report.n_blocks):
            for k in range(report.n_ues):
                f.write(f"{t},{k},{report.se_per_block[k, t]:.10g},{int(report.g_per_block[k, t])}\n")
