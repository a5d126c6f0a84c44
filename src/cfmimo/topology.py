"""Static network layout: AP placement, simulation area, square cluster grid.

AP positions are either drawn uniformly over a rectangle (binomial point
process, i.e. a PPP conditioned on the AP count) or ingested from a plain-text
file. Cluster-based serving-set selection assigns each AP to a cell of a
square grid over the area. Topologies are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import InputError, _check_ids, open_text, read_rows


@dataclass(frozen=True)
class AreaSpec:
    """Rectangular simulation area in meters, origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"area must have finite, positive extent, got {self.width}x{self.height}")

    def contains(self, xy) -> np.ndarray:
        xy = np.asarray(xy, dtype=float)
        x, y = xy[..., 0], xy[..., 1]
        return (x >= 0) & (x <= self.width) & (y >= 0) & (y <= self.height)


@dataclass(frozen=True)
class NetworkTopology:
    """AP layout over an area; ``ap_positions`` is an (M, 2) float array
    ordered by AP id."""

    area: AreaSpec
    ap_positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.ap_positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("ap_positions must be a non-empty (M, 2) array")
        if not np.all(self.area.contains(pos)):
            raise ValueError("all AP positions must lie within the area bounds")
        object.__setattr__(self, "ap_positions", pos)
        pos.setflags(write=False)

    @property
    def n_aps(self) -> int:
        return self.ap_positions.shape[0]


def generate_ppp_topology(area: AreaSpec, m: int, seed) -> NetworkTopology:
    """Draw ``m`` AP positions independently uniform over the area.

    Conditioning a PPP on its point count gives i.i.d. uniform positions, so
    with a fixed AP count this is the exact per-realization distribution.
    Bit-reproducible for a given seed.
    """
    if m < 1:
        raise ValueError(f"need at least one AP, got m={m}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(m, 2)) * np.array([area.width, area.height])
    return NetworkTopology(area=area, ap_positions=pos)


def build_square_clusters(topo: NetworkTopology, n_per_side: int) -> np.ndarray:
    """Each AP's (M,) cell index in an n x n grid of equal square cells over the area.

    Assignment is a pure function of position: cell index = floor(coord / cell
    size), row-major, in [0, n * n). APs sitting exactly on the outer boundary
    fall into the last cell of that axis.
    """
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    cw = topo.area.width / n_per_side
    ch = topo.area.height / n_per_side
    ix = np.minimum((topo.ap_positions[:, 0] // cw).astype(int), n_per_side - 1)
    iy = np.minimum((topo.ap_positions[:, 1] // ch).astype(int), n_per_side - 1)
    return iy * n_per_side + ix


def load_topology(path) -> NetworkTopology:
    """Parse a topology file, enforcing bounds and id uniqueness.

    The AP ids of M rows must be 0..M-1, in any order. Raises
    InputError naming the 1-based line number on any malformed row,
    duplicate AP id, id outside 0..M-1, non-finite or out-of-area position.
    """
    by_id: dict[int, tuple[float, float]] = {}
    line_of: dict[int, int] = {}
    with open_text(path) as f:
        first = f.readline()
        if not first:
            raise InputError(f"{path}: empty topology file")
        head = first.rstrip("\n").split(",")
        if len(head) != 2:
            raise InputError(f"{path}:1: expected header 'area_width,area_height'")
        try:
            area = AreaSpec(width=float(head[0]), height=float(head[1]))
        except ValueError as e:
            raise InputError(f"{path}:1: bad area header: {e}") from e

        parsed = read_rows(f, path, "ap_id,x,y", (int, float, float), start=2)
        for ln, row, (ap_id, x, y) in parsed:
            if ap_id in by_id:
                raise InputError(f"{path}:{ln}: duplicate AP id {ap_id}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"{path}:{ln}: non-finite point in {row!r}")
            if not bool(area.contains((x, y))):
                raise InputError(f"{path}:{ln}: AP {ap_id} at ({x}, {y}) outside area")
            by_id[ap_id] = (x, y)
            line_of[ap_id] = ln
    if not by_id:
        raise InputError(f"{path}: no AP rows")
    _check_ids(line_of, path, "AP", "rows")
    pos = np.array([by_id[i] for i in range(len(by_id))], dtype=float)
    return NetworkTopology(area=area, ap_positions=pos)
