"""Experiment orchestration: config parsing, seeding, per-block simulation.

One experiment = (topology, mobility trace, channel provider, pilots,
selection algorithms): ``prepare`` builds that ``Scenario`` and runs every
refusal once, before block 0. Then ``run_block`` drives it block by block:
snapshot the channel at the block's UE positions, select each algorithm's
serving sets, then evaluate SE for all of them on the block's shared
Monte-Carlo draws; ``compare_algorithms`` aggregates per algorithm. Every
random stream derives from the master seed by a stable hash, so a
(config, seed) pair reproduces byte-identical reports in any order.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import math
import os
import pickle
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import InputError, open_text
from . import channel as ch
from . import evaluation as ev
from . import mobility as mb
from . import selection as sel
from . import topology as tp


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
                raise InputError(f"{f.name} must be finite, got {value}")
        for key in ("n_mc", "blocks", "ue_count", "mdp_round_budget", "tau_p"):
            if getattr(self, key) < 1:
                raise InputError(f"{key} must be at least 1, got {getattr(self, key)}")
        positive = ["area_width", "area_height", "block_duration_s"]
        if self.mobility_source == "rwp":
            positive += ["speed_mps", "mean_transition_m"]
        for key in positive:
            if getattr(self, key) <= 0:
                raise InputError(f"{key} must be positive, got {getattr(self, key)}")
        if self.topology_source == "ppp" and self.topology_m < 1:
            raise InputError(f"topology_m must be at least 1, got {self.topology_m}")
        for key, known in (
            ("topology_source", ("ppp", "file")),
            ("mobility_source", ("rwp", "file")),
            ("channel_provider", ("log-distance", "map")),
            ("sinr_estimator", ev.SINR_ESTIMATORS),
            ("pilot_method", ch.PILOT_METHODS),
        ):
            if getattr(self, key) not in known:
                raise InputError(f"unknown {key} {getattr(self, key)!r}; known: {list(known)}")
        if self.tau_p >= self.tau_c:
            raise InputError(f"tau_p ({self.tau_p}) must be shorter than tau_c ({self.tau_c})")
        try:
            self.constraints()
            self.radio()
        except ValueError as e:
            raise InputError(str(e)) from e

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
            clusters_per_side=self.clusters_per_side,
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


def parse_config(text: str, path=None) -> ExperimentConfig:
    """Parse the key = value format, whose lines end only at ``\\n``,
    ``\\r\\n`` or ``\\r``; unknown keys and bad values are errors, each
    naming ``<path>:<line>`` (``line <line>`` without a path)."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    values = {}
    for ln, line in enumerate(io.StringIO(text, newline=None), start=1):
        where = f"line {ln}" if path is None else f"{path}:{ln}"
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{where}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise InputError(f"{where}: unknown config key {key!r}")
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
            raise InputError(f"{where}: bad value for {key}: {e}") from e
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open_text(path) as f:
        return parse_config(f.read(), path)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of every field that shapes the results.

    ``out_dir`` and ``algorithm`` are left out, so every report of a compare
    run and a lone run of the same config file carry the same hash.
    """
    text = serialize_config(replace(cfg, out_dir="", algorithm=""))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_algorithms(cfg: ExperimentConfig, names) -> list[str]:
    """``names`` de-duplicated in order; InputError for an unknown name, or
    for cuc without a cluster grid in cfg."""
    names = list(dict.fromkeys(names))
    for name in names:
        if name not in sel.ALGORITHMS:
            raise InputError(f"unknown algorithm {name!r}; known: {sorted(sel.ALGORITHMS)}")
    if "cuc" in names and cfg.clusters_per_side < 1:
        raise InputError("cuc needs a cluster grid: set clusters_per_side to at least 1")
    return names


@dataclass(frozen=True)
class Scenario:
    """What a run builds before block 0, shared by every block and algorithm."""

    cfg: ExperimentConfig
    algorithms: tuple
    radio: ch.RadioConfig
    constraints: sel.SelectionConstraints
    topology: tp.NetworkTopology
    trace: mb.MobilityTrace
    provider: object  # ch.LogDistanceProvider or ch.PathLossMap
    pilots: np.ndarray


def prepare(cfg: ExperimentConfig, algorithms) -> Scenario:
    """Build the topology, mobility trace, path-loss provider and pilots of
    a run of ``algorithms`` once, refusing with InputError in the README's
    order (cfg checked its own keys; the CLI checks its output paths after
    the names): the algorithm list (check_algorithms), the input files,
    where an rwp walk past its draw cap takes the place of the tracks, a
    path-loss map that covers none of the run's UE positions, and last
    radio scales whose beta, pilot term or estimate-variance numerator
    overflows, or whose beta reaches 2**52 (channel.check_scale)."""
    algorithms = tuple(check_algorithms(cfg, algorithms))
    radio = cfg.radio()
    if cfg.topology_source == "ppp":
        area = tp.AreaSpec(width=cfg.area_width, height=cfg.area_height)
        topo = tp.generate_ppp_topology(area, cfg.topology_m, derive_seed(cfg.seed, "topology"))
    elif not cfg.topology_file:
        raise InputError("topology_source=file needs topology_file")
    else:
        topo = tp.load_topology(cfg.topology_file)
    if cfg.mobility_source == "rwp":
        trace = mb.generate_rwp(
            topo.area, cfg.ue_count, cfg.speed_mps, duration=cfg.blocks * cfg.block_duration_s,
            block_duration=cfg.block_duration_s, mean_transition=cfg.mean_transition_m,
            seed=int(derive_seed(cfg.seed, "mobility").generate_state(1)[0]),
        )
    elif not cfg.tracks_file:
        raise InputError("mobility_source=file needs tracks_file")
    else:
        trace = mb.load_tracks(cfg.tracks_file, cfg.block_duration_s, area=topo.area)
        if trace.n_blocks < cfg.blocks:
            raise InputError(
                f"{cfg.tracks_file}: track horizon covers {trace.n_blocks} blocks, config asks for {cfg.blocks}"
            )
    k = trace.ue_count  # track files fix K; for rwp this equals cfg.ue_count
    if cfg.channel_provider == "log-distance":
        provider = ch.LogDistanceProvider(topo, radio, k, seed=derive_seed(cfg.seed, "shadowing"))
    elif not cfg.pathloss_map_file:
        raise InputError("channel_provider=map needs pathloss_map_file")
    else:
        provider = ch.load_pathloss_map(cfg.pathloss_map_file, topo)
        # a map that covers no UE would run to SE 0 for all and a Jain index of 1
        losses = provider.pathloss_db(trace.positions[:, : cfg.blocks].reshape(-1, 2))
        if (losses == np.inf).all():
            raise InputError(f"{cfg.pathloss_map_file}: no UE position of the run lies in a covered cell")
    ch.check_scale(provider, radio, k)
    pilots = ch.assign_pilots(k, cfg.tau_p, derive_seed(cfg.seed, "pilots"), method=cfg.pilot_method)
    return Scenario(cfg, algorithms, radio, cfg.constraints(), topo, trace, provider, pilots)


def run_block(scn: Scenario, b: int) -> list:
    """(se, g_k, w_m) of each algorithm of ``scn`` on block b.

    Take the block's channel snapshot at its UE positions, select every
    algorithm's serving sets on it, then evaluate them all on one walk over
    the block's Monte-Carlo draws for cfg.sinr_estimator
    (evaluation.evaluate_matrices), so that the draws live one chunk at a
    time, whatever n_mc and the number of algorithms. Module errors, and a
    non-finite SE, raise RuntimeError naming the block, and the algorithm
    where the error is its own.
    """
    cfg, algorithms = scn.cfg, scn.algorithms
    where = f"block {b}"
    try:
        snap = ch.snapshot(scn.topology, scn.trace.positions[:, b, :], scn.provider, scn.radio)
        coops = []
        for algo in algorithms:
            if len(algorithms) > 1:
                where = f"block {b}, {algo}"
            coops.append(sel.run_algorithm(algo, snap, scn.constraints, topo=scn.topology,
                                           mdp_round_budget=cfg.mdp_round_budget))
        where = f"block {b}"
        seed = derive_seed(cfg.seed, "eval", b)
        results = ev.evaluate_matrices(
            snap, coops, scn.pilots, scn.trace.speed, scn.radio, cfg.n_mc, seed, estimator=cfg.sinr_estimator
        )
        out = []
        for algo, coop, (_, se, _) in zip(algorithms, coops, results):
            if len(algorithms) > 1:
                where = f"block {b}, {algo}"
            bad = np.flatnonzero(~np.isfinite(se))
            if bad.size:
                raise FloatingPointError(f"UE {bad[0]} has non-finite SE {se[bad[0]]}")
            out.append((se, coop.g_k, coop.w_m))
        return out
    except Exception as e:
        raise RuntimeError(f"{where}: {e}") from e


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the OS cannot say,
    or has no os.memfd_create for the block workers' record files."""
    try:
        return len(os.sched_getaffinity(0)) if hasattr(os, "memfd_create") else 1
    except AttributeError:  # no sched_getaffinity off Linux
        return 1


def _blocks_text(blocks: range) -> str:
    """``1, 3, 5`` for a few blocks, ``1, 3, ..., 49`` for more."""
    if len(blocks) <= 4:
        return ", ".join(map(str, blocks))
    return f"{blocks[0]}, {blocks[1]}, ..., {blocks[-1]}"


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent ends (prctl
    PR_SET_PDEATHSIG), and exit at once if the parent has ended already."""
    import signal

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        pass
    else:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _block_worker(scn: Scenario, blocks: range, records, parent: int) -> None:
    """A forked worker: pickle ``(b, run_block(scn, b), None)`` for each block
    into the file ``records``, or ``(b, None, error text)`` for the first
    that fails and stop; then end the process without returning."""
    code = 1
    try:
        _die_with_parent(parent)
        for b in blocks:
            try:
                record = (b, run_block(scn, b), None)
            except Exception as e:
                record = (b, None, str(e))
            pickle.dump(record, records)
            records.flush()
            if record[2] is not None:
                break
        code = 0
    finally:
        os._exit(code)


def _map_blocks(scn: Scenario) -> list:
    """``[run_block(scn, b) for b in range(n_blocks)]`` on P = min(n_blocks,
    usable CPUs) processes, where n_blocks is scn.cfg.blocks.

    Worker w evaluates the blocks b = w (mod P). This process is worker 0:
    it forks the others first, each a copy of its memory that pickles its
    results into an anonymous in-memory file of its own and exits, then
    runs its own blocks, reaps every worker and reads its file. A block's
    result depends only on what was built before the fork and on b, so it
    is the same in any worker and the list is the same for any P; P = 1
    forks nothing. A worker stops at its first failing block; the exception
    of the lowest failing block is raised (a worker's as RuntimeError with
    its text), and a worker that ends without writing a block's result fails
    that block with a RuntimeError naming its blocks and its exit status.
    """
    import signal  # imported here, so that a set-up alone does not load it

    n_blocks = scn.cfg.blocks
    procs = min(n_blocks, _usable_cpus())
    if procs > 1:
        sys.stdout.flush()
        sys.stderr.flush()
    parent = os.getpid()
    files = []  # every worker's record file
    workers = []  # (blocks, pid, record file), until reaped
    results, errors, statuses = {}, {}, {}
    try:
        for w in range(1, procs):
            blocks = range(w, n_blocks, procs)
            records = open(os.memfd_create("cfmimo-blocks"), "w+b")
            files.append(records)
            pid = os.fork()
            if pid == 0:
                _block_worker(scn, blocks, records, parent)
            workers.append((blocks, pid, records))
        for b in range(0, n_blocks, procs):
            try:
                results[b] = run_block(scn, b)
            except Exception as e:
                errors[b] = e
                break
        while workers:
            blocks, pid, records = workers[-1]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop()
            statuses[blocks] = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            records.seek(0)
            while True:
                try:
                    b, value, error = pickle.load(records)
                except (EOFError, pickle.UnpicklingError):  # the end, or a record cut short
                    break
                if error is None:
                    results[b] = value
                else:
                    errors[b] = RuntimeError(error)
    finally:
        for _, pid, _ in workers:  # left by an exception above
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for records in files:
            records.close()
    for b in range(n_blocks):
        if b in errors:
            raise errors[b]
        if b not in results:
            blocks = range(b % procs, n_blocks, procs)
            raise RuntimeError(
                f"block {b}: the worker process of blocks {_blocks_text(blocks)} ended without "
                f"sending its result ({statuses[blocks]})"
            )
    return [results[b] for b in range(n_blocks)]


def compare_algorithms(cfg: ExperimentConfig, algorithms) -> dict[str, ev.MetricsReport]:
    """One report per algorithm on identical channel/mobility realizations.

    The run is block-major: prepare builds and checks the set-up once, then
    run_block runs each block on it. A block depends only on that set-up and
    its index, so the blocks run on as many processes as there are CPUs to
    use (_map_blocks), and the reports are the same bytes on any number. An
    algorithm's report does not depend on which others share the run, so
    ``compare_algorithms(cfg, [name])[name]`` is a lone run of ``name``.
    """
    scn = prepare(cfg, algorithms)
    blocks = _map_blocks(scn)
    reports = {}
    for i, algo in enumerate(scn.algorithms):
        # (K, blocks) SE and G, and (M, blocks) W, one column per block
        se, g, w = (np.stack(column, axis=1) for column in zip(*(block[i] for block in blocks)))
        reports[algo] = ev.build_report(
            algorithm=algo, seed=cfg.seed, config_hash=config_hash(cfg), n_mc=cfg.n_mc, se_blocks=se,
            bandwidth_hz=cfg.bandwidth_hz, g_blocks=g, w_blocks=w, constraints=scn.constraints,
        )
    return reports


def comparison_table(reports: dict[str, ev.MetricsReport]) -> str:
    """Side-by-side objective table (sum rate, fairness, mean serving size)."""
    lines = ["algorithm,sum_rate_bps,jain,mean_G,mean_connections"]
    for name, rep in reports.items():
        mean_g = float(rep.mean_g_per_ue.mean())
        lines.append(
            f"{name},{rep.sum_rate:.10g},{rep.jain:.10g},{mean_g:.10g},{rep.mean_connections:.10g}"
        )
    return "\n".join(lines) + "\n"
