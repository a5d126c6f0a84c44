"""The benchmark's workloads: config text, generated inputs and CLI commands.

Each workload stresses a different layer of the per-block pipeline:

- desk-fullcf: P-MMSE evaluation over ~94-AP full-CF serving sets with all
  UEs in one interferer group; selection and set-up cost about nothing.
- capped-scale: M=400, K=80; Python-loop selection (unifsrv-heu and the
  mdp-greedy environment) is the larger part, and evaluation runs the
  direct-solve branch over many small, different-sized groups.
- map-ingest: topology, track and path-loss map files (~600k rows with
  outage cells); the file parsers, outage semantics and report I/O run
  only here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from inputs import MapSpec, write_map_inputs


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple
    config: dict  # ExperimentConfig keys other than seed, out_dir and input files
    map_spec: MapSpec | None = None  # set when cfmimo reads generated files
    export_cdf: bool = False

    @property
    def n_ues(self) -> int:
        return self.map_spec.k if self.map_spec else self.config["ue_count"]

    @property
    def n_aps(self) -> int:
        return self.map_spec.m if self.map_spec else self.config["topology_m"]

    @property
    def blocks(self) -> int:
        return self.config["blocks"]

    def prepare(self, seed: int, work: str):
        """Write the inputs for ``seed`` under ``work``; returns
        (config path, output directory, map inputs or None)."""
        out_dir = os.path.join(work, "out")
        values = dict(self.config, seed=seed, out_dir=out_dir)
        map_inputs = None
        if self.map_spec is not None:
            map_inputs = write_map_inputs(seed, os.path.join(work, "inputs"), self.map_spec)
            values.update(
                topology_source="file", topology_file=map_inputs.topology_path,
                mobility_source="file", tracks_file=map_inputs.tracks_path,
                channel_provider="map", pathloss_map_file=map_inputs.map_path,
                area_width=self.map_spec.width, area_height=self.map_spec.height,
                block_duration_s=self.map_spec.block_duration,
            )
        config_path = os.path.join(work, "config.txt")
        with open(config_path, "w") as f:
            f.writelines(f"{key} = {value}\n" for key, value in values.items())
        return config_path, out_dir, map_inputs

    def commands(self, config_path: str, out_dir: str) -> list:
        cmds = [["compare", "--config", config_path, "--algorithms", ",".join(self.algorithms)]]
        if self.export_cdf:
            cmds += [["export-cdf", "--run", os.path.join(out_dir, a)] for a in self.algorithms]
        return cmds


def workloads(smoke: bool = False) -> dict:
    """The three workloads; ``smoke`` shrinks each to a few seconds of work."""
    desk = dict(
        topology_source="ppp", topology_m=100, area_width=400, area_height=400,
        ue_count=20, blocks=2, n_mc=500, estimate_form="mmse", sinr_estimator="hardening",
    )
    capped = dict(
        topology_source="ppp", topology_m=400, area_width=1000, area_height=1000,
        ue_count=80, blocks=3, n_mc=8, sinr_estimator="per-draw",
    )
    spec = MapSpec()
    mapped = dict(blocks=spec.blocks, n_mc=16, sinr_estimator="per-draw")
    if smoke:
        desk.update(topology_m=24, area_width=150, area_height=150, ue_count=6, blocks=1, n_mc=40)
        capped.update(topology_m=60, area_width=300, area_height=300, ue_count=12, blocks=2)
        spec = MapSpec(m=12, k=6, width=100.0, height=100.0, blocks=3, radius_min=60.0, radius_max=110.0)
        mapped.update(blocks=spec.blocks, n_mc=8)
    return {
        "desk-fullcf": Workload("desk-fullcf", ("small-cell", "full-cf"), desk),
        "capped-scale": Workload("capped-scale", ("unifsrv-heu", "mdp-greedy"), capped),
        "map-ingest": Workload("map-ingest", ("unifsrv-heu", "puc"), mapped, map_spec=spec, export_cdf=True),
    }
