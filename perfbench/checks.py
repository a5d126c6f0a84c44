"""Correctness checks of a workload's CLI outputs, run outside the timed part.

Every expected value is a closed form, an independent oracle
(``tests/oracles.py``), the generator's own record of the files it wrote, or
a recomputation from the raw ``se_blocks.csv``; none is a stored copy of an
earlier output. Where the checks need per-block snapshots or serving sets
(which the CLI does not write), they rebuild them with cfmimo's public calls
and tie them to the CLI run through the serving-set sizes in
``se_blocks.csv``.

A check returns a list of ``(name, ok, detail)``.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import exp1

import scenario
from cfmimo import channel as ch, evaluation as ev, harness as hn, selection as sel

#: Hardening-bound tolerance at 200k draws: about five standard errors of
#: the Monte-Carlo estimate of |E{gain}|^2 at a 0-10 dB link.
HARDENING_RTOL = 0.02
#: Per-draw tolerance in standard errors of the mean of log2(1 + SNR draws).
PER_DRAW_SIGMAS = 5.0
ONE_LINK_DRAWS = 200_000
AGGREGATE_RTOL = 1e-9


class Outputs:
    """Parsed CLI outputs of one round: per algorithm SE (K, T), G (K, T),
    the raw SE text column, and report.txt as a dict."""

    def __init__(self, out_dir: str, algorithms):
        self.out_dir = out_dir
        self.se, self.g, self.se_text, self.report = {}, {}, {}, {}
        for a in algorithms:
            rows = _read_csv(os.path.join(out_dir, a, "se_blocks.csv"))
            t = 1 + max(int(r[0]) for r in rows)
            k = 1 + max(int(r[1]) for r in rows)
            se = np.full((k, t), np.nan)
            g = np.zeros((k, t), dtype=int)
            for b, ue, s, gk in rows:
                se[int(ue), int(b)] = float(s)
                g[int(ue), int(b)] = int(gk)
            self.se[a], self.g[a], self.se_text[a] = se, g, [r[2] for r in rows]
            self.report[a] = _read_report(os.path.join(out_dir, a, "report.txt"))


def _read_csv(path):
    with open(path) as f:
        next(f)
        return [line.rstrip("\n").split(",") for line in f if line.strip()]


def _read_report(path) -> dict:
    rep = {"per_ue": []}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("ue_id,"):
                continue
            if " = " in line:
                key, value = line.split(" = ", 1)
                rep[key] = value
            else:
                ue, mean_se, p95_se, mean_g = line.split(",")
                rep["per_ue"].append((int(ue), float(mean_se), float(p95_se), float(mean_g)))
    return rep


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _percentile_linear(values, q: float) -> float:
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def common(cfg, out: Outputs, algorithms):
    """Finite, non-negative SE; report aggregates recomputed from se_blocks.csv."""
    results = []
    for a in algorithms:
        se, g, rep = out.se[a], out.g[a], out.report[a]
        results.append((f"{a}: every SE finite and >= 0", bool(np.all(np.isfinite(se)) and np.all(se >= 0)), ""))
        bad = []
        k_ues, t = se.shape
        means = [math.fsum(se[k]) / t for k in range(k_ues)]
        for (ue, mean_se, p95_se, mean_g), k in zip(rep["per_ue"], range(k_ues)):
            want = (means[k], _percentile_linear(se[k].tolist(), 0.95), math.fsum(g[k]) / t)
            if ue != k or not all(_close(x, y, AGGREGATE_RTOL) for x, y in zip((mean_se, p95_se, mean_g), want)):
                bad.append(k)
        if len(rep["per_ue"]) != k_ues:
            bad.append("row count")
        sum_rate = cfg.bandwidth_hz * math.fsum(means)
        ssq = math.fsum(m * m for m in means)
        jain = 1.0 if ssq == 0 else math.fsum(means) ** 2 / (k_ues * ssq)
        conns = math.fsum(g.sum(axis=0)) / t
        for key, want in (("sum_rate_bps", sum_rate), ("jain", jain), ("mean_connections", conns)):
            if not _close(float(rep[key]), want, AGGREGATE_RTOL):
                bad.append(f"{key} {rep[key]} vs {want:.12g}")
        results.append((f"{a}: report.txt aggregates match se_blocks.csv", not bad, f"mismatch: {bad}" if bad else ""))
    return results


def _one_link_se(gamma_bar: float, estimator: str, seed: int):
    """cfmimo's SE on one AP serving one static UE at mean SNR gamma_bar."""
    radio = ch.RadioConfig(estimate_form="mmse")
    n0 = ch.noise_power_w(radio)
    r_gain = gamma_bar * n0 / radio.tx_power_w
    snap = ch.ChannelSnapshot(
        beta=np.array([[gamma_bar]]), pathloss_db=np.array([[-10.0 * math.log10(r_gain)]]), noise_power=n0
    )
    _, se, _ = ev.evaluate_block(
        snap, sel.CooperationMatrix(d=np.ones((1, 1))), np.zeros(1, dtype=int), 0.0, radio,
        n_mc=ONE_LINK_DRAWS, seed=seed, estimator=estimator,
    )
    overhead = (radio.block_len_slots - radio.pilot_len_slots) / radio.block_len_slots
    return float(se[0]), overhead, radio


def hardening_closed_form(seed: int):
    """Use-and-forget bound on a noise-limited one-AP link with imperfect CSI:
    gamma = c^2 (pi/4) g / ((1 - c^2 pi/4) g + 1), c^2 = Z/R from the MMSE
    estimate variance Z = R (g p tau_p) / (g p tau_p + 1) (static UE, rho = 1)."""
    results = []
    for gamma_db in (0.0, 10.0):
        gbar = 10.0 ** (gamma_db / 10.0)
        got, overhead, radio = _one_link_se(gbar, "hardening", seed)
        x = gbar * radio.tx_power_w * radio.pilot_len_slots
        c2 = x / (x + 1.0)
        q = c2 * math.pi / 4.0
        want = overhead * math.log2(1.0 + q * gbar / ((1.0 - q) * gbar + 1.0))
        results.append((f"hardening bound at {gamma_db:g} dB", _close(got, want, HARDENING_RTOL),
                        f"SE {got:.5f} vs closed form {want:.5f}"))
    return results


def per_draw_closed_form(seed: int):
    """Per-draw SE on the same link: overhead * e^{1/g} E1(1/g) / ln 2, within
    PER_DRAW_SIGMAS standard errors (spread taken from an independent sample)."""
    results = []
    rng = np.random.default_rng([seed, 17])
    for gamma_db in (0.0, 10.0):
        gbar = 10.0 ** (gamma_db / 10.0)
        got, overhead, _ = _one_link_se(gbar, "per-draw", seed)
        want = overhead * math.exp(1.0 / gbar) * exp1(1.0 / gbar) / math.log(2.0)
        sd = overhead * np.std(np.log2(1.0 + gbar * rng.exponential(size=ONE_LINK_DRAWS)))
        tol = PER_DRAW_SIGMAS * sd / math.sqrt(ONE_LINK_DRAWS)
        results.append((f"per-draw SE at {gamma_db:g} dB", abs(got - want) <= tol,
                        f"SE {got:.5f} vs closed form {want:.5f} (tol {tol:.5f})"))
    return results


def desk_serving_sets(cfg, out: Outputs):
    """Full-CF G_k = count of non-outage APs; small-cell G_k = 1; full-CF
    sum rate above small-cell."""
    topo, trace, provider, _ = scenario.build(cfg)
    beta0 = 10.0 ** (cfg.beta0_db / 10.0)
    counts = np.stack([(s.beta >= beta0).sum(axis=0) for s in scenario.snapshots(cfg, topo, trace, provider)], axis=1)
    full, small = out.report["full-cf"], out.report["small-cell"]
    return [
        ("full-cf: G_k equals the UE's non-outage AP count", bool(np.array_equal(out.g["full-cf"], counts)),
         f"mean G {out.g['full-cf'].mean():.2f}"),
        ("small-cell: G_k = 1", bool(np.array_equal(out.g["small-cell"], np.minimum(counts, 1))), ""),
        ("full-cf sum rate above small-cell", float(full["sum_rate_bps"]) > float(small["sum_rate_bps"]),
         f"{full['sum_rate_bps']} vs {small['sum_rate_bps']}"),
    ]


def _selections(cfg, algorithms, snaps, topo):
    constraints = cfg.constraints()
    weights = sel.RewardWeights(step=cfg.mdp_w1, round=cfg.mdp_w2, episode=cfg.mdp_w3)
    return {
        a: [sel.run_algorithm(a, s, constraints, topo=topo, mdp_round_budget=cfg.mdp_round_budget,
                              mdp_weights=weights) for s in snaps]
        for a in algorithms
    }


def capped_selection(cfg, out: Outputs, seed: int):
    """Caps on every block; D equal to the pure-Python oracles on one block."""
    import oracles

    topo, trace, provider, _ = scenario.build(cfg)
    snaps = scenario.snapshots(cfg, topo, trace, provider)
    chosen = _selections(cfg, ("unifsrv-heu", "mdp-greedy"), snaps, topo)
    results = []
    for a, coops in chosen.items():
        g = np.stack([c.g_k for c in coops], axis=1)
        w_max = max(int(c.w_m.max()) for c in coops)
        results.append((f"{a}: rebuilt serving sets match the run's G_k", bool(np.array_equal(g, out.g[a])), ""))
        results.append((f"{a}: W_m <= tau_p and G_k <= g_max on every block",
                        w_max <= cfg.tau_p and int(out.g[a].max()) <= cfg.g_max,
                        f"max W {w_max}, max G {int(out.g[a].max())}"))
    b = int(np.random.default_rng([seed, 5]).integers(cfg.blocks))
    beta = snaps[b].beta.tolist()
    beta0 = 10.0 ** (cfg.beta0_db / 10.0)
    want = {
        "unifsrv-heu": oracles.unifsrv_heu_oracle(beta, cfg.tau_p, cfg.g_max, cfg.delta, beta0=beta0,
                                                  allow_tau_p_equality=cfg.allow_tau_p_equality),
        "mdp-greedy": oracles.mdp_greedy_oracle(beta, cfg.tau_p, cfg.g_max, cfg.mdp_round_budget, beta0=beta0),
    }
    for a, d in want.items():
        results.append((f"{a}: D equals the oracle on block {b}",
                        bool(np.array_equal(np.asarray(d), chosen[a][b].d)), ""))
    return results


def _interp_clamped(t_grid, t_pts, x_pts):
    """Piecewise-linear interpolation, held at the end points."""
    out = []
    for t in t_grid:
        if t <= t_pts[0]:
            out.append(x_pts[0])
        elif t >= t_pts[-1]:
            out.append(x_pts[-1])
        else:
            j = int(np.searchsorted(t_pts, t, side="right")) - 1
            f = (t - t_pts[j]) / (t_pts[j + 1] - t_pts[j])
            out.append(x_pts[j] + f * (x_pts[j + 1] - x_pts[j]))
    return np.array(out)


def map_ingest(cfg, out: Outputs, map_inputs, algorithms):
    """Files as cfmimo reads them equal what the generator wrote; outage links
    never served; cdf.csv is the sorted SE with ordinates i/n."""
    topo, trace, provider, _ = scenario.build(cfg)
    results = [("topology file read as written", bool(np.array_equal(topo.ap_positions, map_inputs.ap_xy)), "")]

    t_grid = np.arange(trace.n_blocks) * cfg.block_duration_s
    want_xy = np.stack([
        np.stack([_interp_clamped(t_grid, map_inputs.wp_t, map_inputs.wp_xy[k, :, i]) for i in (0, 1)], axis=-1)
        for k in range(trace.ue_count)
    ])
    err = float(np.max(np.abs(trace.positions - want_xy)))
    results.append(("trace positions equal the waypoint interpolation", err <= 1e-9, f"max error {err:.3g} m"))

    table = map_inputs.table
    snaps = scenario.snapshots(cfg, topo, trace, provider)
    pl_ok = True
    outage_links = 0
    expected_pl = []
    for b, snap in enumerate(snaps):
        idx = np.floor(want_xy[:, b, :] / map_inputs.grid + 0.5).astype(int)
        inside = (idx[:, 0] < table.shape[1]) & (idx[:, 1] < table.shape[2])
        pl = np.full(snap.pathloss_db.shape, np.inf)
        pl[:, inside] = table[:, idx[inside, 0], idx[inside, 1]]
        pl_ok &= bool(np.array_equal(snap.pathloss_db, pl))
        outage_links += int(np.count_nonzero(~np.isfinite(pl)))
        expected_pl.append(pl)
    results.append(("snapshot path loss equals the generated nearest cell", pl_ok,
                    f"{outage_links} outage links over {len(snaps)} blocks"))

    chosen = _selections(cfg, algorithms, snaps, topo)
    for a, coops in chosen.items():
        served_outage = sum(int(np.count_nonzero(c.d[~np.isfinite(pl)])) for c, pl in zip(coops, expected_pl))
        g = np.stack([c.g_k for c in coops], axis=1)
        results.append((f"{a}: outage links never served", served_outage == 0, f"{served_outage} served"))
        results.append((f"{a}: rebuilt serving sets match the run's G_k", bool(np.array_equal(g, out.g[a])), ""))
        cdf = _read_csv(os.path.join(out.out_dir, a, "cdf.csv"))
        values = sorted(out.se_text[a], key=float)
        n = len(values)
        ok = len(cdf) == n and all(
            float(v) == float(s) and _close(float(p), i / n, 1e-9)
            for i, ((v, p), s) in enumerate(zip(cdf, values), start=1)
        )
        results.append((f"{a}: cdf.csv is the sorted SE with ordinates i/n", ok, f"{len(cdf)} rows"))
    return results


def run_checks(workload, config_path: str, out_dir: str, seed: int, map_inputs):
    cfg = hn.load_config(config_path)
    out = Outputs(out_dir, workload.algorithms)
    results = common(cfg, out, workload.algorithms)
    if workload.name == "desk-fullcf":
        results += hardening_closed_form(seed) + desk_serving_sets(cfg, out)
    elif workload.name == "capped-scale":
        results += per_draw_closed_form(seed) + capped_selection(cfg, out, seed)
    elif workload.name == "map-ingest":
        results += map_ingest(cfg, out, map_inputs, workload.algorithms)
    return results
