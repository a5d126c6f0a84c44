"""Per-layer metrics from the spans of traced rounds.

Each metric is computed per traced round and reported as the median over
traced rounds. "Per block" means per (algorithm, block) pair of the
``compare`` command. FLOP and byte figures are computed from the problem
sizes and the serving sets the run chose, not measured by counters.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict

COMPLEX_MAC = 8  # real flops in one complex multiply-add
#: (n_mc, M, K) complex128 arrays live in evaluate_block: h0, estimates,
#: precoders, innovation draw and the aged channel.
BLOCK_TENSORS = 5

UNITS = {
    "topology.build_ms": "ms", "mobility.build_ms": "ms",
    "channel.provider_ms": "ms", "channel.provider_builds": "count", "channel.map_rows_per_s": "rows/s",
    "channel.snapshot_ms": "ms", "channel.estimate_var_ms": "ms",
    "selection.ms_per_block": "ms", "selection.env_steps_per_block": "count",
    "selection.connections_per_block": "count", "selection.mean_interferers": "count",
    "evaluation.ms_per_block": "ms", "evaluation.precode_ms": "ms", "evaluation.sinr_ms": "ms",
    "evaluation.estimate_draw_ms": "ms", "evaluation.self_ms": "ms", "evaluation.us_per_ue_draw": "us",
    "evaluation.precode_gflop": "GFLOP", "evaluation.sinr_gflop": "GFLOP",
    "evaluation.precode_gflops": "GFLOP/s", "evaluation.sinr_gflops": "GFLOP/s", "evaluation.tensor_mb": "MB",
    "harness.self_ms": "ms", "harness.report_build_ms": "ms",
    "cli.write_report_ms": "ms", "cli.export_cdf_ms": "ms", "cli.report_bytes": "B", "cli.import_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


def precode_flop(g: int, s: int) -> float:
    """Real flops of one UE's P-MMSE precoder for one draw, by solve branch.

    Direct (G <= S): Gram U P U^H, LU of the G x G system, two triangular
    solves, normalisation. Woodbury (G > S): U^H b, U^H U, LU of the S x S
    system, its solves, the back-projection U mid, normalisation.
    """
    if g == 0:
        return 0.0
    if g <= s:
        return COMPLEX_MAC * (g * g * s + g**3 / 3.0 + g * g + g)
    return COMPLEX_MAC * (2 * g * s + s * s * g + s**3 / 3.0 + s * s + g)


class Spans:
    """Spans of one traced command, with self time (duration minus children)."""

    def __init__(self, path: str):
        with open(path) as f:
            self.rows = json.load(f)["spans"]
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.rows:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [r[2] - r[1] - child[i] for i, r in enumerate(self.rows)]

    def of(self, *names):
        return [(i, r) for i, r in enumerate(self.rows) if r[0] in names]

    def total(self, *names) -> float:
        return sum(r[2] - r[1] for _, r in self.of(*names))

    def count(self, *names) -> int:
        return len(self.of(*names))


def _round_metrics(wl, cfg, spans: list, report_bytes: int, map_rows: int) -> dict:
    compare = spans[0]
    pairs = len(wl.algorithms) * wl.blocks
    m, k, n_mc = wl.n_aps, wl.n_ues, cfg.n_mc

    def mean_ms(sp, *names):
        n = sp.count(*names)
        return 1e3 * sp.total(*names) / n if n else 0.0

    selections = [r[6] for _, r in compare.of("selection.run_algorithm")]
    precode_flops = [n_mc * sum(precode_flop(g, s) for g, s in zip(sel["g"], sel["s"])) for sel in selections]
    sinr_flop = COMPLEX_MAC * n_mc * m * k * k
    eval_s = compare.total("evaluation.evaluate_block")
    precode_s = compare.total("evaluation.precode_pmmse")
    sinr_s = compare.total("evaluation.instant_sinr")
    map_s = compare.total("channel.load_pathloss_map")
    n_maps = compare.count("channel.load_pathloss_map")
    exports = [sp for sp in spans[1:] if sp.count("cli.cmd_export_cdf")]
    return {
        "topology.build_ms": mean_ms(compare, "topology.generate_ppp_topology", "topology.load_topology"),
        "mobility.build_ms": mean_ms(compare, "mobility.generate_rwp", "mobility.load_tracks"),
        "channel.provider_ms": 1e3 * compare.total("channel.LogDistanceProvider", "channel.load_pathloss_map"),
        "channel.provider_builds": compare.count("channel.LogDistanceProvider", "channel.load_pathloss_map"),
        "channel.map_rows_per_s": map_rows * n_maps / map_s if n_maps else 0.0,
        "channel.snapshot_ms": 1e3 * compare.total("channel.snapshot") / pairs,
        "channel.estimate_var_ms": 1e3 * compare.total("channel.estimate_variance_matrix") / pairs,
        "selection.ms_per_block": 1e3 * compare.total("selection.run_algorithm") / pairs,
        "selection.env_steps_per_block": compare.count("selection.ApSelectionEnv.step") / pairs,
        "selection.connections_per_block": statistics.fmean(sum(s["g"]) for s in selections),
        "selection.mean_interferers": statistics.fmean(statistics.fmean(s["s"]) for s in selections),
        "evaluation.ms_per_block": 1e3 * eval_s / pairs,
        "evaluation.precode_ms": 1e3 * precode_s / pairs,
        "evaluation.sinr_ms": 1e3 * sinr_s / pairs,
        "evaluation.estimate_draw_ms": 1e3 * compare.total("evaluation.draw_estimates") / pairs,
        "evaluation.self_ms": 1e3 * sum(compare.self_time[i] for i, _ in compare.of("evaluation.evaluate_block")) / pairs,
        "evaluation.us_per_ue_draw": 1e6 * eval_s / (pairs * k * n_mc),
        "evaluation.precode_gflop": statistics.fmean(precode_flops) / 1e9,
        "evaluation.sinr_gflop": sinr_flop / 1e9,
        "evaluation.precode_gflops": sum(precode_flops) / precode_s / 1e9,
        "evaluation.sinr_gflops": sinr_flop * pairs / sinr_s / 1e9,
        "evaluation.tensor_mb": BLOCK_TENSORS * 16 * n_mc * m * k / 1e6,
        "harness.self_ms": 1e3 * sum(compare.self_time[i] for i, _ in compare.of("harness.run_experiment")),
        "harness.report_build_ms": 1e3 * compare.total("evaluation.build_report"),
        "cli.write_report_ms": 1e3 * compare.total("evaluation.write_report"),
        "cli.export_cdf_ms": statistics.fmean(mean_ms(sp, "cli.cmd_export_cdf") for sp in exports) if exports else 0.0,
        "cli.report_bytes": report_bytes,
    }


def per_layer(wl, config_path: str, ref_dir: str, map_inputs, traced: list, plain: list, probes: list) -> dict:
    from cfmimo import harness as hn

    cfg = hn.load_config(config_path)
    report_bytes = 0
    if os.path.isdir(ref_dir):
        report_bytes = os.path.getsize(os.path.join(ref_dir, "comparison.csv")) + sum(
            os.path.getsize(os.path.join(ref_dir, a, f)) for a in wl.algorithms for f in ("report.txt", "se_blocks.csv")
        )
    map_rows = map_inputs.map_rows if map_inputs else 0
    per_round = [_round_metrics(wl, cfg, [Spans(p) for p in r.span_files], report_bytes, map_rows) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]} if per_round else {}
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    if plain and traced:
        plain_s = statistics.median(r.wall for r in plain)
        traced_s = statistics.median(r.wall for r in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return {name: (metrics.get(name, 0.0), unit) for name, unit in UNITS.items()}
