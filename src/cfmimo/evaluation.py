"""Per-block SINR and throughput for given cooperation matrices.

SE is estimated by Monte-Carlo over fading, aging, and channel-estimate
draws: partial MMSE precoders are built per draw from the estimates over
each UE's serving set, and the received gains

    gain_ik = sum_m sqrt(p_mi) D_mi conj(h_mk[t]) w_mi

are combined either with the use-and-forget hardening bound

    gamma_k = rho_k^2 |E{gain_kk}|^2 / (sum_i E{|gain_ik|^2} - |E{gain_kk}|^2 + n0)

or per draw (instantaneous SINR of every realization, ergodic-equivalent
output), at the block end (worst aging).

The draws are what no selection changes: the MMSE channel estimates
est ~ CN(0, Z), whose variance Z comes from the pilot power, and for the
per-draw rule the channel aged to the block end, h_t = rho est + nu with the
residual nu ~ CN(0, R - rho^2 Z) independent of est. So every cooperation
matrix of a block is evaluated on the same draws (evaluate_matrices;
evaluate_block is its one-matrix form).

The hardening bound needs no h_t: given est, the gain's mean is rho_k times
the gain formed on est and its second moment adds the residual's power
sum_m p_mi |w_mi|^2 (R_mk - rho_k^2 Z_mk) (hardening_moments). That is the
conditional expectation of the bound's draws on the aged channel, with the
same expectation and a lower Monte-Carlo variance.

The walk is chunk-major. Each matrix's precoding layout (PrecodingContext)
is built once; then the draw axis is taken in chunks of
max(1, _CHUNK_ELEMS // (M K)) draws, a number fixed by M and K alone. Chunk
c is drawn from its own generator, the c-th child of the block seed: est,
then for per-draw nu, each straight into its complex array's float view
(real, then imaginary part of each element), and h_t built in nu's array.
Every matrix then precodes the chunk in sub-chunks of at most _GATHER_ELEMS
gathered estimates of its widest interferer group, so that precode_pmmse
works in cache, and keeps of each draw two (K,) vectors: the desired gain
gain_kk and the total received power sum_i |gain_ik|^2 (for hardening, their
conditional moments). instant_sinr combines those (n_mc, K) arrays once the
last chunk is in. So what lives is one chunk of draws (est, and h_t for
per-draw), one sub-chunk of precoders, whose power-scaled conjugate is
formed in their own array, and 24 bytes per draw and UE for each matrix; no
array grows with n_mc M K. Each draw is
precoded by BLAS and LAPACK calls of the same shapes whatever else its
sub-chunk holds, and every sum over draws runs in draw order, so a matrix's
SE does not depend on the sub-chunk size or on which other matrices share
the block.
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
    """precode_pmmse's layout of a cooperation matrix D, built once per D.

    UE k's serving rows are the APs m with D[m, k] = 1, and its interferer
    set S_k the UEs sharing at least one serving AP with it (k included).
    groups holds one _Group per distinct interferer set of a served UE, in
    first-UE order; an unserved UE is in no group. n_ues is K.
    """

    n_ues: int
    groups: tuple

    @classmethod
    def from_matrix(cls, coop: CooperationMatrix) -> "PrecodingContext":
        d = coop.d
        # a float matmul runs in BLAS and counts 0/1 products exactly
        df = d.astype(float)
        share = (df.T @ df) > 0
        members_of = {}
        for k in np.flatnonzero(share.diagonal()).tolist():
            members_of.setdefault(share[k].tobytes(), []).append(k)
        groups = []
        for members in members_of.values():
            s_set = np.flatnonzero(share[members[0]])
            rows = np.flatnonzero(d[:, members].any(axis=1))
            pos = {k: np.flatnonzero(d[rows, k]) for k in members}
            col = {k: int(np.searchsorted(s_set, k)) for k in members}
            wide = [k for k in members if pos[k].size > s_set.size]
            mask = np.zeros((rows.size, len(wide)), dtype=bool)
            rhs = np.zeros((len(wide), s_set.size, 1))
            for c, k in enumerate(wide):
                mask[pos[k], c] = True
                rhs[c, col[k]] = 1.0
            core = mask.all(axis=1) if wide else np.zeros(rows.size, dtype=bool)
            groups.append(
                _Group(
                    s_set=s_set,
                    rows=rows,
                    direct=tuple((k, pos[k], col[k]) for k in members if k not in wide),
                    wide=np.array(wide, dtype=np.intp),
                    wide_mask=mask,
                    wide_rhs=rhs,
                    core=np.flatnonzero(core),
                    tree=_gram_tree(mask, list(range(len(wide))), core) if wide else None,
                )
            )
        return cls(n_ues=d.shape[1], groups=tuple(groups))


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


def _complex_normal(rng, shape, scale) -> np.ndarray:
    """A new complex array scale * (x + 1j*y), x and y standard normal.

    The draws go straight into the array's float view, the real then the
    imaginary part of each element in turn, and are scaled there; ``scale``
    broadcasts against ``shape``.
    """
    out = np.empty(shape, dtype=complex)
    parts = out.view(float).reshape(*shape, 2)
    rng.standard_normal(out=parts)
    parts *= scale[..., None]
    return out


#: Complex (M, K) elements of one draw chunk: bounds each chunk's estimates
#: (and h_t) at ~4 MB whatever n_mc is. The chunk size depends on M and K
#: alone, so a block's draws do not depend on the matrices evaluated on them.
_CHUNK_ELEMS = 1 << 18

#: Gathered (R, S) elements of one precoding sub-chunk, over the widest
#: interferer group of a layout: keeps precode_pmmse's gathered estimates and
#: their conjugate near 0.5 MB each, so a sub-chunk's precoding works in a
#: 2 MB L2 cache (16 draws for one group of R = 100 APs and S = 20 UEs).
_GATHER_ELEMS = 1 << 15


class _Group(NamedTuple):
    """Precoding layout of the served UEs that share one interferer set.

    s_set is the interferer set S and rows the union R of the members'
    serving rows (AP indices, ascending). Each member with G <= |S| is a
    (k, positions of its serving rows in R, its column in S) triple of
    ``direct``. The W members with G > |S| are ``wide`` (UE indices, in
    order); ``wide_mask`` is the (R, W) mask of the rows each one serves,
    ``wide_rhs`` the (W, S, 1) unit vectors of their own columns in S,
    ``core`` the positions in R every one of them serves and ``tree`` the
    Gram tree below the core (see _gram_tree).
    """

    s_set: np.ndarray
    rows: np.ndarray
    direct: tuple
    wide: np.ndarray
    wide_mask: np.ndarray
    wide_rhs: np.ndarray
    core: np.ndarray
    tree: object


def _gram_tree(mask: np.ndarray, members: list, core: np.ndarray):
    """Gram tree of the wide members ``members`` (columns of ``mask``).

    ``core`` is the (R,) mask of the rows whose Gram is summed above this
    tree. A lone member is its leaf, its column. Otherwise the members are
    split in halves, and each half is an (extra, subtree) pair: the positions
    of the rows all its members serve beyond ``core``, then its own tree. So
    a row shared by a subtree enters one Gram for all of it.
    """
    if len(members) == 1:
        return members[0]
    half = len(members) // 2
    nodes = []
    for part in (members[:half], members[half:]):
        sub = mask[:, part].all(axis=1)
        nodes.append((np.flatnonzero(sub & ~core), _gram_tree(mask, part, sub)))
    return tuple(nodes)


def _gram(u: np.ndarray, uh: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Batched U^H U of rows ``pos`` of the (n, R, S) draws u; uh is conj(u)."""
    return uh[:, pos].transpose(0, 2, 1) @ u[:, pos]


def _write_leaf_grams(tree, gram, u, uh, out) -> None:
    """Write each wide member's Gram U_k^H U_k into out[:, c], c its column.

    ``gram`` is the Gram over the rows summed above ``tree``. Each node adds
    the Gram of its extra rows, and passes its parent's on where it has none;
    only row Grams are added, never subtracted.
    """
    if not isinstance(tree, tuple):
        out[:, tree] = gram
        return
    for extra, sub in tree:
        _write_leaf_grams(sub, gram + _gram(u, uh, extra) if extra.size else gram, u, uh, out)


def _normalize(x: np.ndarray) -> np.ndarray:
    """x scaled in place to unit norm along axis 1; a zero vector stays zero."""
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norm, out=x, where=norm > 0)


def precode_pmmse(
    ctx: PrecodingContext, estimates: np.ndarray, noise: float, powers_ue: np.ndarray
) -> np.ndarray:
    """Unit-norm partial MMSE precoders over each UE's serving set.

    w_k solves (sum_{i in S_k} p_i est_i est_i^H |_{M_k} + n0 I) w = est_k and
    is normalized per draw. ``estimates`` is (N, M, K) and so is the return,
    with zeros outside the serving sets.

    The work follows ctx.groups, the layout built once per context: served
    UEs grouped by interferer set S, each group gathering its estimates
    est[:, R, S] once, C-contiguous, over the union R of its members' serving
    sets. A member with G <= |S| solves the G x G system directly. A member
    with G > |S| solves an S x S system instead: its estimate is column j of
    its serving rows U, so (n0 I + U P U^H)^-1 U e_j = U (U^H U + n0 P^-1)^-1
    e_j / p_j, with nothing subtracted (the b - U(...)U^H b form of the
    matrix-inversion lemma cancels away the result at high SNR). The Gram
    U^H U is additive over serving rows: the Gram over the core (the APs every
    such member of the group serves) is formed once, and each member adds the
    Gram of its own extra rows, shared down a balanced split of the members
    (see _gram_tree). The group's S x S systems are solved in one stacked
    call, one matmul maps every member's S-vector back onto R, and one masked
    scaling and one scatter store them all. Every draw is solved on its own
    in BLAS and LAPACK calls of the same shapes, so a draw's precoders do not
    depend on how many draws share the call.
    """
    est = np.asarray(estimates)
    n, _, k_ues = est.shape
    if ctx.n_ues != k_ues:
        raise ValueError("context and estimate dimensions disagree")
    w = np.zeros_like(est)
    flat = est.reshape(n, -1)
    for g in ctx.groups:
        p = powers_ue[g.s_set]
        u = flat.take(g.rows[:, None] * k_ues + g.s_set, axis=1)  # (n, R, S)
        # G <= |S|: the G x G system is no larger than the S x S one below,
        # and solving these members by that form too measured slower
        for k, pos, col in g.direct:
            uk = u[:, pos]  # (n, G, S)
            a = (uk * p) @ uk.conj().transpose(0, 2, 1)
            a[:, np.arange(pos.size), np.arange(pos.size)] += noise
            w[:, g.rows[pos], k] = _normalize(np.linalg.solve(a, uk[:, :, col, None])[..., 0])
        if not g.wide.size:
            continue
        s = g.s_set.size
        uh = u.conj()
        a = np.empty((n, g.wide.size, s, s), dtype=u.dtype)
        _write_leaf_grams(g.tree, _gram(u, uh, g.core), u, uh, a)
        a.reshape(n, g.wide.size, s * s)[:, :, :: s + 1] += noise / p
        coef = np.linalg.solve(a, g.wide_rhs)[..., 0]  # (n, W, S)
        proj = u @ coef.transpose(0, 2, 1)  # (n, R, W)
        proj *= g.wide_mask
        w[:, g.rows[:, None], g.wide] = _normalize(proj)
    return w


def received_gains(h: np.ndarray, sw: np.ndarray):
    """Each draw's desired gain gain_kk and total received power sum_i |gain_ik|^2.

    gain_ik = sum_m sqrt(p_mi) conj(h_mk) w_mi is the conjugate of
    (sw^T h)_ik, sw = sqrt(p) conj(w) the power-scaled conjugate precoders
    of the per-link (M, K) split p. h and sw are (N, M, K) draws, and both
    returns are (N, K). The (N, i, k) gains are one batched matmul per draw
    and live only here; no input is written.
    """
    gains = sw.transpose(0, 2, 1) @ h
    total = (np.abs(gains) ** 2).sum(axis=1)
    return np.conj(np.diagonal(gains, axis1=1, axis2=2)), total


def hardening_moments(est, sw, rho, resid):
    """The hardening bound's desired gain and total power given each estimate draw.

    With h_t = rho est + nu and nu ~ CN(0, resid) independent of est and of
    the precoders, gain_ik = sum_m sqrt(p_mi) conj(h_mk) w_mi has mean
    rho_k gt_ik, gt the gains formed on est, and second moment
    |rho_k gt_ik|^2 + sum_m p_mi |w_mi|^2 resid_mk. Returns the (N, K) means
    rho_k gt_kk and the (N, K) sums over i of the second moments; the
    residual's part is summed over i first and enters through one real
    (1, M) @ (M, K) product per draw, of the same shape whatever N is. est
    and sw, the power-scaled conjugate precoders of received_gains, are
    (N, M, K) draws, rho is per UE and resid (M, K).
    """
    radiated = np.abs(sw)
    radiated *= radiated
    radiated = radiated.sum(axis=2)  # sum_i p_mi |w_mi|^2
    desired, total = received_gains(est, sw)
    desired *= rho
    total *= rho**2
    total += (radiated[:, None] @ resid)[:, 0]
    return desired, total


def instant_sinr(desired, total, rho, noise: float, estimator: str = "hardening") -> np.ndarray:
    """SINR per UE from each draw's desired gain and total received power.

    desired and total are the (N, K) draws of gain_kk and sum_i |gain_ik|^2
    that received_gains returns, or their conditional moments from
    hardening_moments; rho is the aging correlation (scalar or per-UE).

    "hardening" combines empirical means first (use-and-forget bound: the
    desired-signal square is subtracted from the total received moment to
    form the interference). "per-draw" evaluates the instantaneous SINR of
    every draw, conditioning the signal on the current realization, and
    returns the ergodic-equivalent SINR gamma with log2(1 + gamma) equal to
    the mean per-draw log2(1 + gamma_n); single-AP links are then not
    penalized by the missing channel hardening.
    """
    rho = np.asarray(rho, dtype=float)
    if estimator == "hardening":
        signal = np.abs(desired.mean(axis=0)) ** 2
        return rho**2 * signal / (total.mean(axis=0) - signal + noise)
    if estimator == "per-draw":
        signal = np.abs(desired) ** 2
        gamma_n = rho**2 * signal / (total - signal + noise)
        return np.expm1(np.log1p(gamma_n).mean(axis=0))
    raise ValueError(f"unknown SINR estimator {estimator!r}")


def spectral_efficiency(gamma, cfg: RadioConfig):
    """Per-UE SE (bit/s/Hz) and throughput with the pilot-overhead factor."""
    gamma = np.asarray(gamma, dtype=float)
    overhead = (cfg.block_len_slots - cfg.pilot_len_slots) / cfg.block_len_slots
    se = overhead * np.log2(1.0 + gamma)
    return se, cfg.bandwidth_hz * se


def _chunk_rng(seed, c: int) -> np.random.Generator:
    """Generator of draw chunk c: the c-th child of the block seed."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, c)))


def evaluate_matrices(
    snap: ChannelSnapshot,
    coops,
    pilots: np.ndarray,
    speeds,
    cfg: RadioConfig,
    n_mc: int = 500,
    seed=0,
    estimator: str = "hardening",
) -> list:
    """Monte-Carlo SE of each cooperation matrix of ``coops`` on one block's draws.

    Returns one (gamma, se, rate) per matrix, in order. With Z the estimate
    variance (estimate_variance_matrix at the block end), each chunk draws
    est ~ CN(0, Z), then for "per-draw" only the residual
    nu ~ CN(0, R - rho^2 Z), and builds h_t = rho est + nu in nu's array.
    That is the aged channel's law given its estimate: E{est conj(h0)} =
    E|est|^2 = Z makes est = E[h0 | est], so h_t = rho h0 + sqrt(1 - rho^2) g,
    with g a fresh CN(0, R), has mean rho est and variance
    rho^2 (R - Z) + (1 - rho^2) R about it. Every matrix then precodes the
    chunk and keeps each draw's desired gain and total power (for
    "hardening", their moments given est, see hardening_moments; for
    "per-draw", received_gains on h_t), and instant_sinr combines each
    matrix's (n_mc, K) arrays at the end. See the module docstring for the
    chunk and sub-chunk sizes.
    """
    if estimator not in SINR_ESTIMATORS:
        raise ValueError(f"unknown SINR estimator {estimator!r}")
    hardening = estimator == "hardening"
    m, k = snap.n_aps, snap.n_ues
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (k,))
    z = estimate_variance_matrix(snap, pilots, cfg.block_len_slots, speeds, cfg)
    rho = np.atleast_1d(aging_coefficient(cfg.block_len_slots, speeds, cfg))
    resid = np.maximum(snap.channel_gain() - rho**2 * z, 0.0)
    est_scale, nu_scale = np.sqrt(z / 2.0), np.sqrt(resid / 2.0)
    powers_ue = np.full(k, cfg.tx_power_w)
    plans = []
    for coop in coops:
        ctx = PrecodingContext.from_matrix(coop)
        widest = max((g.rows.size * g.s_set.size for g in ctx.groups), default=1)
        plans.append((ctx, np.sqrt(radiated_powers(coop, cfg)), max(1, _GATHER_ELEMS // widest)))
    desired = [np.empty((n_mc, k), dtype=complex) for _ in plans]
    total = [np.empty((n_mc, k)) for _ in plans]
    step = max(1, _CHUNK_ELEMS // (m * k))
    for c, start in enumerate(range(0, n_mc, step)):
        rng = _chunk_rng(seed, c)
        n = min(step, n_mc - start)
        est = _complex_normal(rng, (n, m, k), est_scale)
        h_t = None
        if not hardening:
            h_t = _complex_normal(rng, (n, m, k), nu_scale)
            for h_draw, est_draw in zip(h_t, est):  # one draw's temporary at a time
                h_draw += est_draw * rho
        for (ctx, root_powers, sub), d, t in zip(plans, desired, total):
            for s in range(0, n, sub):
                part, out = slice(s, s + sub), slice(start + s, start + min(s + sub, n))
                # sqrt(p) conj(w), formed in the precoders' own array
                sw = precode_pmmse(ctx, est[part], snap.noise_power, powers_ue)
                np.conj(sw, out=sw)
                sw *= root_powers
                if hardening:
                    d[out], t[out] = hardening_moments(est[part], sw, rho, resid)
                else:
                    d[out], t[out] = received_gains(h_t[part], sw)
                del sw
        del est, h_t  # freed before the next chunk is drawn
    results = []
    for d, t in zip(desired, total):
        gamma = instant_sinr(d, t, rho, snap.noise_power, estimator=estimator)
        results.append((gamma, *spectral_efficiency(gamma, cfg)))
    return results


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
    """Monte-Carlo SE of one cooperation matrix for one block; returns
    (gamma, se, rate) per UE. The one-matrix form of evaluate_matrices."""
    return evaluate_matrices(snap, [coop], pilots, speeds, cfg, n_mc, seed, estimator)[0]


@dataclass
class MetricsReport:
    """Per-run metrics: per-block SE plus the aggregate objective values."""

    algorithm: str
    seed: int
    config_hash: str
    n_mc: int
    se_per_block: np.ndarray  # (K, T)
    g_per_block: np.ndarray  # (K, T)
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
    w_bad = int(np.count_nonzero((w_blocks > constraints.tau_p).any(axis=0)))
    g_bad = int(np.count_nonzero((g_blocks > constraints.g_max).any(axis=0)))
    return MetricsReport(
        algorithm=algorithm,
        seed=seed,
        config_hash=config_hash,
        n_mc=n_mc,
        se_per_block=se_blocks,
        g_per_block=g_blocks,
        rate_per_ue=rate_per_ue,
        sum_rate=float(rate_per_ue.sum()),
        jain=jain_index(rate_per_ue),
        # rates floored at 1 bit/s keep a zero-rate UE's log finite
        pf_objective=float(np.log(np.maximum(rate_per_ue, 1.0)).sum()),
        mean_connections=float(g_blocks.sum(axis=0).mean()),
        w_violation_blocks=w_bad,
        g_violation_blocks=g_bad,
    )


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
