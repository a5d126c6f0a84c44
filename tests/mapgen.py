"""Input files for tests: topology and path-loss map writers, and a
synthetic non-uniform path-loss map for serving-set economy checks.

In the shadow map, per AP, three random angular wedges (about half of all
directions) carry a deep shadow on top of the three-slope baseline, plus
light clutter; a diffuse leakage ceiling keeps every link just above the
outage floor so the weak tail inflates the total SNR that growth-until-95%
selection chases, while adding almost no usable power.
"""

import numpy as np

from cfmimo.channel import pathloss_three_slope


def save_topology(topo, path) -> None:
    """Write the topology file: ``area_width,area_height`` header then one
    ``ap_id,x,y`` row per AP, sorted by id."""
    with open(path, "w") as f:
        f.write(f"{topo.area.width:.10g},{topo.area.height:.10g}\n")
        for i, (x, y) in enumerate(topo.ap_positions):
            f.write(f"{i},{x:.10g},{y:.10g}\n")


def save_pathloss_map(path, dx, dy, origin, entries) -> None:
    """Write a map file; ``entries`` iterates (ap_id, ix, iy, pathloss_db)."""
    with open(path, "w") as f:
        f.write(f"{dx:.10g},{dy:.10g},{origin[0]:.10g},{origin[1]:.10g}\n")
        for ap, ix, iy, pl in entries:
            f.write(f"{ap},{ix},{iy},{pl:.10g}\n")


def build_shadow_map(
    path,
    topo,
    cfg,
    grid=10.0,
    depth_db=35.0,
    blocked_frac=0.5,
    clutter_db=4.0,
    ceiling_db=124.5,
    seed=9,
):
    rng = np.random.default_rng(seed)
    nx = int(np.ceil(topo.area.width / grid)) + 1
    ny = int(np.ceil(topo.area.height / grid)) + 1
    xs = np.arange(nx) * grid
    ys = np.arange(ny) * grid
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    entries = []
    for ap, (ax, ay) in enumerate(topo.ap_positions):
        widths = rng.dirichlet(np.ones(3)) * (2.0 * np.pi * blocked_frac)
        starts = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
        d = np.hypot(gx - ax, gy - ay)
        pl = pathloss_three_slope(d, cfg)
        ang = np.arctan2(gy - ay, gx - ax) % (2.0 * np.pi)
        shadow = np.zeros_like(d, dtype=bool)
        for s, w in zip(starts, widths):
            shadow |= ((ang - s) % (2.0 * np.pi)) < w
        pl = np.minimum(pl + depth_db * shadow + rng.uniform(0.0, clutter_db, size=d.shape), ceiling_db)
        for ix in range(nx):
            for iy in range(ny):
                entries.append((ap, ix, iy, pl[ix, iy]))
    save_pathloss_map(path, grid, grid, (0.0, 0.0), entries)
