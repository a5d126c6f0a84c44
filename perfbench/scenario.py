"""What a cfmimo run builds before block 0, made through public calls only.

Shared by the set-up probe (which times each step) and by the checks (which
recompute per-block snapshots and serving sets apart from the CLI run).
"""

from cfmimo import channel as ch, harness as hn, mobility as mb, topology as tp


def build(cfg: hn.ExperimentConfig, lap=lambda step: None):
    """Return (topology, trace, provider, pilots) as ``run_experiment`` builds
    them for ``cfg``; ``lap(step)`` is called after each step."""
    area = tp.AreaSpec(width=cfg.area_width, height=cfg.area_height)
    if cfg.topology_source == "file":
        topo = tp.load_topology(cfg.topology_file)
    else:
        topo = tp.generate_ppp_topology(area, cfg.topology_m, hn.derive_seed(cfg.seed, "topology"))
    lap("topology_s")
    if cfg.mobility_source == "file":
        trace = mb.load_tracks(cfg.tracks_file, cfg.block_duration_s, area=topo.area)
    else:
        trace = mb.generate_rwp(
            topo.area, cfg.ue_count, cfg.speed_mps,
            duration=cfg.blocks * cfg.block_duration_s,
            block_duration=cfg.block_duration_s,
            mean_transition=cfg.mean_transition_m,
            seed=int(hn.derive_seed(cfg.seed, "mobility").generate_state(1)[0]),
        )
    lap("mobility_s")
    if cfg.channel_provider == "map":
        provider = ch.load_pathloss_map(cfg.pathloss_map_file, topo)
    else:
        provider = ch.LogDistanceProvider(
            topo, cfg.radio(), trace.ue_count, seed=hn.derive_seed(cfg.seed, "shadowing")
        )
    lap("provider_s")
    pilots = ch.assign_pilots(
        trace.ue_count, cfg.tau_p, hn.derive_seed(cfg.seed, "pilots"), method=cfg.pilot_method
    )
    lap("pilots_s")
    return topo, trace, provider, pilots


def snapshots(cfg: hn.ExperimentConfig, topo, trace, provider):
    """The per-block channel snapshots of the run, in block order."""
    radio = cfg.radio()
    return [ch.snapshot(topo, trace.positions[:, b, :], provider, radio) for b in range(cfg.blocks)]
