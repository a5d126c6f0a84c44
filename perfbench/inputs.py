"""Seeded input files for the map-ingest workload.

Writes, from one workload seed, the three files cfmimo ingests:

- ``topology.txt``: M APs uniform over the area (``area_width,area_height``
  header, ``ap_id,x,y`` rows).
- ``pathloss.map``: a 5 m grid per AP (``grid_dx,grid_dy,origin_x,origin_y``
  header, ``ap_id,cell_ix,cell_iy,pathloss_db`` rows). Each AP covers a disc
  of random radius, minus scattered holes; every cell left out is an outage
  cell for that AP.
- ``tracks.txt``: one waypoint per block per UE (``ue_id,t_seconds,x,y``),
  a straight walk at a random speed and heading.

The generator keeps the numbers it wrote (parsed back from the written
text), so the checks can compare cfmimo's view of the files against them.
Run it alone to regenerate a set of inputs:

    python3 perfbench/inputs.py --seed 1 --out /tmp/map-inputs
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MapSpec:
    m: int = 100
    k: int = 40
    width: float = 400.0
    height: float = 400.0
    grid: float = 5.0
    blocks: int = 10
    block_duration: float = 0.02
    radius_min: float = 280.0
    radius_max: float = 460.0
    hole_frac: float = 0.02


@dataclass
class MapInputs:
    topology_path: str
    map_path: str
    tracks_path: str
    grid: float
    ap_xy: np.ndarray  # (M, 2) as written
    table: np.ndarray  # (M, nx, ny) path loss in dB as written, +inf = outage
    wp_t: np.ndarray  # (T,) waypoint times as written
    wp_xy: np.ndarray  # (K, T, 2) waypoints as written
    map_rows: int
    map_bytes: int


def _fmt(values: np.ndarray, spec: str) -> np.ndarray:
    """Format floats as cfmimo will read them back; returns (text, parsed)."""
    text = np.array([format(v, spec) for v in values.ravel()])
    return text.reshape(values.shape), text.astype(float).reshape(values.shape)


def _pathloss_db(d_m: np.ndarray, rng) -> np.ndarray:
    """Log-distance loss (128.1 + 37.6 log10 d_km) with 0-6 dB clutter."""
    d_km = np.maximum(d_m, 10.0) / 1e3
    return 128.1 + 37.6 * np.log10(d_km) + rng.uniform(0.0, 6.0, size=d_m.shape)


def _clear_of_cell_edges(xy: np.ndarray, grid: float, margin: float) -> np.ndarray:
    """True where no coordinate lies within ``margin`` of a half-cell line,
    so nearest-cell lookup has one answer however it rounds."""
    frac = np.abs((xy / grid) % 1.0 - 0.5)
    return np.all(frac * grid > margin, axis=-1)


def write_map_inputs(seed: int, out_dir: str, spec: MapSpec = MapSpec()) -> MapInputs:
    rng = np.random.default_rng([seed, 0x6D6170])
    os.makedirs(out_dir, exist_ok=True)

    ap_text, ap_xy = _fmt(rng.uniform(0.0, 1.0, size=(spec.m, 2)) * [spec.width, spec.height], ".6f")
    topology_path = os.path.join(out_dir, "topology.txt")
    with open(topology_path, "w") as f:
        f.write(f"{spec.width:g},{spec.height:g}\n")
        f.writelines(f"{i},{x},{y}\n" for i, (x, y) in enumerate(ap_text))

    nx = int(round(spec.width / spec.grid)) + 1
    ny = int(round(spec.height / spec.grid)) + 1
    gx, gy = np.meshgrid(np.arange(nx) * spec.grid, np.arange(ny) * spec.grid, indexing="ij")
    table = np.full((spec.m, nx, ny), np.inf)
    lines = [f"{spec.grid:g},{spec.grid:g},0,0\n"]
    for ap, (ax, ay) in enumerate(ap_xy):
        d = np.hypot(gx - ax, gy - ay)
        covered = d <= rng.uniform(spec.radius_min, spec.radius_max)
        covered &= rng.uniform(size=d.shape) >= spec.hole_frac
        ix, iy = np.nonzero(covered)
        text, parsed = _fmt(_pathloss_db(d[ix, iy], rng), ".5f")
        table[ap, ix, iy] = parsed
        lines.extend(f"{ap},{i},{j},{v}\n" for i, j, v in zip(ix.tolist(), iy.tolist(), text))
    map_path = os.path.join(out_dir, "pathloss.map")
    with open(map_path, "w") as f:
        f.writelines(lines)

    t_text, wp_t = _fmt(np.arange(spec.blocks) * spec.block_duration, ".10g")
    wp_xy = np.empty((spec.k, spec.blocks, 2))
    span = np.arange(spec.blocks)[:, None] * spec.block_duration
    for ue in range(spec.k):
        while True:
            start = rng.uniform([20.0, 20.0], [spec.width - 20.0, spec.height - 20.0])
            theta = rng.uniform(0.0, 2.0 * np.pi)
            speed = rng.uniform(0.5, 3.0)
            path = start + span * speed * np.array([np.cos(theta), np.sin(theta)])
            _, path = _fmt(path, ".6f")
            if np.all(_clear_of_cell_edges(path, spec.grid, 0.05)):
                break
        wp_xy[ue] = path
    tracks_path = os.path.join(out_dir, "tracks.txt")
    with open(tracks_path, "w") as f:
        for ue in range(spec.k):
            for b in range(spec.blocks):
                f.write(f"{ue},{t_text[b]},{wp_xy[ue, b, 0]:.6f},{wp_xy[ue, b, 1]:.6f}\n")

    return MapInputs(
        topology_path=topology_path,
        map_path=map_path,
        tracks_path=tracks_path,
        grid=spec.grid,
        ap_xy=ap_xy,
        table=table,
        wp_t=wp_t,
        wp_xy=wp_xy,
        map_rows=len(lines) - 1,
        map_bytes=os.path.getsize(map_path),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inputs = write_map_inputs(args.seed, args.out)
    print(f"wrote {args.out}: {inputs.map_rows} map rows, {inputs.map_bytes} bytes")


if __name__ == "__main__":
    main()
