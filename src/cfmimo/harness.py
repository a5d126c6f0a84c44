"""Experiment orchestration: config parsing, seeding, per-block simulation.

One experiment = (topology, mobility trace, channel provider, selection
algorithms) driven block by block: update UE positions, snapshot the
channel, select each algorithm's serving sets, then evaluate SE for all of
them on the block's shared Monte-Carlo draws; aggregate per algorithm.
Every random stream derives from the master seed by a stable hash, so a
(config, seed) pair reproduces byte-identical reports in any order.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import InputError, open_text
from . import channel as ch
from . import evaluation as ev
from . import mobility as mb
from . import selection as sel
from . import topology as tp


class ConfigError(InputError):
    """Invalid experiment configuration or config file."""


def derive_seed(master: int, *tags) -> np.random.SeedSequence:
    """Stable per-stream seed: SHA-256 over the master seed and stream tags."""
    digest = hashlib.sha256(repr((int(master),) + tags).encode()).digest()
    return np.random.SeedSequence(int.from_bytes(digest[:16], "big"))


@dataclass
class ExperimentConfig:
    """Flat experiment description; round-trips through the key=value format."""

    area_width: float = 400.0
    area_height: float = 400.0
    topology_source: str = "ppp"  # ppp | file
    topology_m: int = 100
    topology_file: str = ""
    clusters_per_side: int = 0
    mobility_source: str = "rwp"  # rwp | file
    ue_count: int = 20
    speed_mps: float = 0.8
    mean_transition_m: float = 50.0
    tracks_file: str = ""
    blocks: int = 50
    block_duration_s: float = 0.02
    channel_provider: str = "log-distance"  # log-distance | map
    pathloss_map_file: str = ""
    carrier_freq_hz: float = 2.0e9
    bandwidth_hz: float = 20.0e6
    noise_figure_db: float = 9.0
    tau_c: int = 200
    tau_p: int = 10
    tx_power_w: float = 0.2
    ap_height_m: float = 12.5
    ue_height_m: float = 1.65
    shadowing_sigma_db: float = 8.0
    estimate_form: str = "mmse"
    sinr_estimator: str = "hardening"  # hardening | per-draw
    pilot_method: str = "random"
    algorithm: str = "unifsrv-heu"
    g_max: int = 30
    delta: float = 0.95
    e_best: int = 7
    beta0_db: float = -20.0
    allow_tau_p_equality: bool = False
    mdp_round_budget: int = 100
    # reward weights of the selection MDP; the greedy rollout reads no reward
    mdp_w1: float = 1.0
    mdp_w2: float = 10.0
    mdp_w3: float = 2000.0
    n_mc: int = 500
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for key in ("n_mc", "blocks", "ue_count", "mdp_round_budget", "tau_p"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.clusters_per_side < 0:
            raise ConfigError(f"clusters_per_side must be at least 0, got {self.clusters_per_side}")
        positive = ["area_width", "area_height"]
        if self.mobility_source == "rwp":
            positive += ["speed_mps", "mean_transition_m"]
        for key in positive:
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.topology_source == "ppp" and self.topology_m < 1:
            raise ConfigError(f"topology_m must be at least 1, got {self.topology_m}")
        for key, known in (
            ("topology_source", ("ppp", "file")),
            ("mobility_source", ("rwp", "file")),
            ("channel_provider", ("log-distance", "map")),
            ("sinr_estimator", ev.SINR_ESTIMATORS),
            ("pilot_method", ch.PILOT_METHODS),
        ):
            if getattr(self, key) not in known:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}; known: {list(known)}")
        if self.tau_p >= self.tau_c:
            raise ConfigError(f"tau_p ({self.tau_p}) must be shorter than tau_c ({self.tau_c})")
        try:
            self.constraints()
            self.radio()
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def radio(self) -> ch.RadioConfig:
        return ch.RadioConfig(
            carrier_freq_hz=self.carrier_freq_hz,
            bandwidth_hz=self.bandwidth_hz,
            noise_figure_db=self.noise_figure_db,
            slot_duration_s=self.block_duration_s / self.tau_c,
            block_len_slots=self.tau_c,
            pilot_len_slots=self.tau_p,
            tx_power_w=self.tx_power_w,
            ap_height_m=self.ap_height_m,
            ue_height_m=self.ue_height_m,
            shadowing_sigma_db=self.shadowing_sigma_db,
            estimate_form=self.estimate_form,
        )

    def constraints(self) -> sel.SelectionConstraints:
        return sel.SelectionConstraints(
            g_max=self.g_max,
            tau_p=self.tau_p,
            delta=self.delta,
            e_best=self.e_best,
            beta0=10.0 ** (self.beta0_db / 10.0),
            allow_tau_p_equality=self.allow_tau_p_equality,
        )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Deterministic key = value text form (field order, repr-stable floats)."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = f"{v:.12g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value format, whose lines end only at ``\\n``,
    ``\\r\\n`` or ``\\r``; unknown keys and bad values are errors."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    values = {}
    for ln, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, bool):
                if raw.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                values[key] = raw.lower() == "true"
            elif isinstance(current, int):
                values[key] = int(raw)
            elif isinstance(current, float):
                values[key] = float(raw)
            else:
                values[key] = raw
        except ValueError as e:
            raise ConfigError(f"line {ln}: bad value for {key}: {e}") from e
    try:
        return ExperimentConfig(**values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path) -> ExperimentConfig:
    try:
        with open_text(path, ConfigError) as f:
            return parse_config(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of every field that shapes the results.

    ``out_dir`` and ``algorithm`` are left out, so every report of a compare
    run and a lone run of the same config file carry the same hash.
    """
    text = serialize_config(replace(cfg, out_dir="", algorithm=""))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build_topology(cfg: ExperimentConfig) -> tp.NetworkTopology:
    area = tp.AreaSpec(width=cfg.area_width, height=cfg.area_height)
    if cfg.topology_source == "ppp":
        topo = tp.generate_ppp_topology(area, cfg.topology_m, derive_seed(cfg.seed, "topology"))
    else:
        if not cfg.topology_file:
            raise ConfigError("topology_source=file needs topology_file")
        topo = tp.load_topology(cfg.topology_file)
    if cfg.clusters_per_side > 0:
        topo = tp.build_square_clusters(topo, cfg.clusters_per_side)
    return topo


def _build_trace(cfg: ExperimentConfig, area: tp.AreaSpec) -> mb.MobilityTrace:
    if cfg.mobility_source == "rwp":
        return mb.generate_rwp(
            area,
            cfg.ue_count,
            cfg.speed_mps,
            duration=cfg.blocks * cfg.block_duration_s,
            block_duration=cfg.block_duration_s,
            mean_transition=cfg.mean_transition_m,
            seed=int(derive_seed(cfg.seed, "mobility").generate_state(1)[0]),
        )
    if not cfg.tracks_file:
        raise ConfigError("mobility_source=file needs tracks_file")
    trace = mb.load_tracks(cfg.tracks_file, cfg.block_duration_s, area=area)
    if trace.n_blocks < cfg.blocks:
        raise ConfigError(
            f"track horizon covers {trace.n_blocks} blocks, config asks for {cfg.blocks}"
        )
    return trace


def _build_provider(cfg: ExperimentConfig, topo: tp.NetworkTopology, radio: ch.RadioConfig, n_ues: int):
    if cfg.channel_provider == "log-distance":
        return ch.LogDistanceProvider(
            topo, radio, n_ues, seed=derive_seed(cfg.seed, "shadowing")
        )
    if not cfg.pathloss_map_file:
        raise ConfigError("channel_provider=map needs pathloss_map_file")
    return ch.load_pathloss_map(cfg.pathloss_map_file, topo)


def run_experiment(cfg: ExperimentConfig, algorithm: str | None = None) -> ev.MetricsReport:
    """Run one experiment end to end; fully deterministic per (config, seed).

    The block loop of compare_algorithms with one algorithm, so a lone run
    and the same algorithm inside a comparison write the same report.
    """
    algo = algorithm or cfg.algorithm
    return compare_algorithms(cfg, [algo])[algo]


def compare_algorithms(cfg: ExperimentConfig, algorithms) -> dict[str, ev.MetricsReport]:
    """One report per algorithm on identical channel/mobility realizations.

    Every algorithm name, and cuc's cluster grid, is checked before any
    work. The run is block-major: the topology, trace, path-loss provider
    and pilots are built once. Per block: advance UE positions, take one
    channel snapshot, select every algorithm's serving sets on it, then
    evaluate them all on one walk over the block's Monte-Carlo draws for
    cfg.sinr_estimator (evaluation.evaluate_matrices), so that the draws
    live one chunk at a time, whatever n_mc and the number of algorithms.
    Module errors, and a non-finite SE, raise RuntimeError naming the block,
    and the algorithm where the error is its own.
    """
    algorithms = list(dict.fromkeys(algorithms))
    for name in algorithms:
        if name not in sel.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}; known: {sorted(sel.ALGORITHMS)}")
    if "cuc" in algorithms and cfg.clusters_per_side < 1:
        raise ConfigError("cuc needs a cluster grid: set clusters_per_side to at least 1")
    radio = cfg.radio()
    constraints = cfg.constraints()
    topo = _build_topology(cfg)
    trace = _build_trace(cfg, topo.area)
    cfg_k = trace.ue_count  # track files fix K; for rwp this equals cfg.ue_count
    provider = _build_provider(cfg, topo, radio, cfg_k)
    pilots = ch.assign_pilots(cfg_k, cfg.tau_p, derive_seed(cfg.seed, "pilots"), method=cfg.pilot_method)
    se_blocks = {a: np.zeros((cfg_k, cfg.blocks)) for a in algorithms}
    rate_blocks = {a: np.zeros((cfg_k, cfg.blocks)) for a in algorithms}
    g_blocks = {a: np.zeros((cfg_k, cfg.blocks), dtype=int) for a in algorithms}
    w_blocks = {a: np.zeros((topo.n_aps, cfg.blocks), dtype=int) for a in algorithms}
    for b in range(cfg.blocks):
        where = f"block {b}"
        try:
            snap = ch.snapshot(topo, trace.positions[:, b, :], provider, radio)
            coops = []
            for algo in algorithms:
                if len(algorithms) > 1:
                    where = f"block {b}, {algo}"
                coops.append(
                    sel.run_algorithm(algo, snap, constraints, topo=topo, mdp_round_budget=cfg.mdp_round_budget)
                )
            where = f"block {b}"
            seed = derive_seed(cfg.seed, "eval", b)
            results = ev.evaluate_matrices(
                snap, coops, pilots, trace.speed, radio, cfg.n_mc, seed, estimator=cfg.sinr_estimator
            )
            for algo, coop, (_, se, rate) in zip(algorithms, coops, results):
                if len(algorithms) > 1:
                    where = f"block {b}, {algo}"
                bad = np.flatnonzero(~np.isfinite(se))
                if bad.size:
                    raise FloatingPointError(f"UE {bad[0]} has non-finite SE {se[bad[0]]}")
                se_blocks[algo][:, b] = se
                rate_blocks[algo][:, b] = rate
                g_blocks[algo][:, b] = coop.g_k
                w_blocks[algo][:, b] = coop.w_m
        except ConfigError:
            raise
        except Exception as e:
            raise RuntimeError(f"{where}: {e}") from e
    return {
        algo: ev.build_report(
            algorithm=algo,
            seed=cfg.seed,
            config_hash=config_hash(cfg),
            n_mc=cfg.n_mc,
            se_blocks=se_blocks[algo],
            rate_blocks=rate_blocks[algo],
            g_blocks=g_blocks[algo],
            w_blocks=w_blocks[algo],
            constraints=constraints,
        )
        for algo in algorithms
    }


def comparison_table(reports: dict[str, ev.MetricsReport]) -> str:
    """Side-by-side objective table (sum rate, fairness, mean serving size)."""
    lines = ["algorithm,sum_rate_bps,jain,mean_G,mean_connections"]
    for name, rep in reports.items():
        mean_g = float(rep.mean_g_per_ue.mean())
        lines.append(
            f"{name},{rep.sum_rate:.10g},{rep.jain:.10g},{mean_g:.10g},{rep.mean_connections:.10g}"
        )
    return "\n".join(lines) + "\n"
