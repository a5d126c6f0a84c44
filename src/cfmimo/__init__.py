"""Desk-scale downlink cell-free massive MIMO simulator.

Topology and mobility generation, a three-slope/map-based channel model with
intra-block aging, a family of user-centric AP selection algorithms, Monte-
Carlo link evaluation with partial MMSE precoding, and a config-driven
experiment harness.
"""

from .topology import AreaSpec, NetworkTopology, build_square_clusters, generate_ppp_topology, load_topology, save_topology
from .mobility import MobilityTrace, generate_rwp, load_tracks
from .channel import (
    ChannelSnapshot,
    RadioConfig,
    aging_coefficient,
    assign_pilots,
    load_pathloss_map,
    noise_power_w,
    pathloss_three_slope,
    snapshot,
)
from .selection import (
    ALGORITHMS,
    ApSelectionEnv,
    CooperationMatrix,
    MdpState,
    RewardWeights,
    SelectionConstraints,
    brute_force_selection,
    greedy_policy,
    jain_index,
    run_algorithm,
    run_episode,
    select_cuc,
    select_full_cf,
    select_mdp_greedy,
    select_puc,
    select_puc_const,
    select_small_cell,
    select_unifsrv_heu,
)
from .evaluation import (
    ConstraintReport,
    MetricsReport,
    PrecodingContext,
    check_constraints,
    evaluate_block,
    export_cdf,
    instant_sinr,
    objective_values,
    precode_pmmse,
    received_gains,
    spectral_efficiency,
    write_report,
)
from .harness import ExperimentConfig, compare_algorithms, derive_seed, load_config, parse_config, run_experiment, serialize_config

__version__ = "0.1.0"
