"""UE positions at communication-block boundaries.

Two sources: a random-waypoint walk (uniform start, uniform direction,
Rayleigh-distributed transition lengths, constant speed, zero pause,
waypoints redrawn until they land in-area) or an external track file
interpolated onto the block grid. Positions are sampled at block starts
t = 0, bd, 2*bd, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import InputError, _check_ids, open_text, read_rows
from .topology import AreaSpec


class TrackParseError(InputError):
    """Malformed track file; message names the offending line."""


@dataclass(frozen=True)
class MobilityTrace:
    """Per-UE positions at block boundaries.

    positions: (K, T, 2) array, block_duration in seconds, speed: (K,) m/s.
    """

    ue_count: int
    block_duration: float
    positions: np.ndarray
    speed: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        spd = np.asarray(self.speed, dtype=float)
        if pos.ndim != 3 or pos.shape[0] != self.ue_count or pos.shape[2] != 2:
            raise ValueError("positions must be (ue_count, T, 2)")
        if spd.shape != (self.ue_count,):
            raise ValueError("speed must have one entry per UE")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "speed", spd)
        pos.setflags(write=False)
        spd.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return self.positions.shape[1]


def _truncate_to_area(origin, direction, length, area: AreaSpec) -> float:
    """Largest travel distance <= length that keeps the endpoint in-area."""
    limit = length
    for axis, extent in ((0, area.width), (1, area.height)):
        d = direction[axis]
        if d > 1e-12:
            limit = min(limit, (extent - origin[axis]) / d)
        elif d < -1e-12:
            limit = min(limit, -origin[axis] / d)
    return max(0.0, limit)


def generate_rwp(
    area: AreaSpec,
    k: int,
    speed: float,
    duration: float,
    block_duration: float,
    mean_transition: float = 50.0,
    seed=0,
) -> MobilityTrace:
    """Random-waypoint walk sampled at block starts.

    Each UE starts uniform in the area, then repeatedly draws a direction
    uniform on [0, 2*pi) and a Rayleigh transition length with the given
    mean, redrawing until the waypoint lands in-area (the classic RWP
    confinement that thins density at the walls), and moves there at constant
    ``speed``. T = floor(duration / block_duration) samples per UE.
    Deterministic per (seed, ue index).
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if mean_transition <= 0:
        raise ValueError(f"mean_transition must be positive, got {mean_transition}")
    if block_duration <= 0 or duration < block_duration:
        raise ValueError("need duration >= block_duration > 0")
    n_blocks = int(np.floor(duration / block_duration + 1e-9))
    sample_t = np.arange(n_blocks) * block_duration
    # Rayleigh mean is scale * sqrt(pi/2)
    ray_scale = mean_transition / np.sqrt(np.pi / 2.0)
    extent = np.array([area.width, area.height])

    positions = np.empty((k, n_blocks, 2))
    for ue in range(k):
        rng = np.random.default_rng([seed, ue])
        origin = rng.uniform(0.0, 1.0, size=2) * extent
        t_leg = 0.0  # time at which the current transition began
        filled = 0
        while filled < n_blocks:
            for _ in range(1000):
                theta = rng.uniform(0.0, 2.0 * np.pi)
                length = rng.rayleigh(ray_scale)
                direction = np.array([np.cos(theta), np.sin(theta)])
                end = origin + direction * length
                if bool(area.contains(end)):
                    break
            else:  # pathological corner case: cut the leg at the wall
                length = _truncate_to_area(origin, direction, length, area)
                end = origin + direction * length
            t_end = t_leg + length / speed
            while filled < n_blocks and sample_t[filled] < t_end - 1e-12:
                dt = sample_t[filled] - t_leg
                positions[ue, filled] = origin + direction * speed * dt
                filled += 1
            origin = end
            t_leg = t_end
    return MobilityTrace(
        ue_count=k,
        block_duration=block_duration,
        positions=positions,
        speed=np.full(k, float(speed)),
    )


def load_tracks(path, block_duration: float, area: AreaSpec | None = None) -> MobilityTrace:
    """Ingest a track file (rows ``ue_id,t_seconds,x,y``) onto the block grid.

    Positions are linearly interpolated at block starts and never extrapolated
    beyond any UE's last waypoint: T = floor(min last timestamp / bd) + 1.
    Per-UE speed is estimated as the median displacement rate between
    consecutive waypoints. The UE ids of a file with K tracks must be
    0..K-1, in any order; row i of the trace is UE i. A non-finite time or
    coordinate, sample gaps larger than 10x block_duration, (when ``area``
    is given) out-of-area points and an id outside 0..K-1 are parse errors;
    the last names the first row of the first such id and the smallest
    missing id.
    """
    if block_duration <= 0:
        raise ValueError("block_duration must be positive")
    tracks: dict[int, list[tuple[float, float, float]]] = {}
    line_of: dict[int, int] = {}
    with open_text(path, TrackParseError) as f:
        parsed = read_rows(f, path, "ue_id,t,x,y", (int, float, float, float), TrackParseError)
        for ln, row, (ue, t, x, y) in parsed:
            if not math.isfinite(t):
                raise TrackParseError(f"{path}:{ln}: non-finite time in {row!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TrackParseError(f"{path}:{ln}: non-finite point in {row!r}")
            if area is not None and not bool(area.contains((x, y))):
                raise TrackParseError(f"{path}:{ln}: point ({x}, {y}) outside area")
            rows = tracks.setdefault(ue, [])
            line_of.setdefault(ue, ln)
            if rows and t <= rows[-1][0]:
                raise TrackParseError(f"{path}:{ln}: timestamps not strictly increasing for UE {ue}")
            if rows and t - rows[-1][0] > 10.0 * block_duration + 1e-9:
                raise TrackParseError(
                    f"{path}:{ln}: gap {t - rows[-1][0]:.4g} s exceeds 10x block duration for UE {ue}"
                )
            rows.append((t, x, y))
    if not tracks:
        raise TrackParseError(f"{path}: no track rows")
    _check_ids(line_of, path, "UE", "tracks", TrackParseError)
    k = len(tracks)
    for ue in range(k):
        if tracks[ue][0][0] > 1e-9:
            raise TrackParseError(f"{path}: UE {ue} track must start at t=0")

    last_t = min(tracks[ue][-1][0] for ue in range(k))
    n_blocks = int(np.floor(last_t / block_duration + 1e-9)) + 1
    grid = np.arange(n_blocks) * block_duration

    positions = np.empty((k, n_blocks, 2))
    speeds = np.empty(k)
    for i in range(k):
        arr = np.array(tracks[i])
        t, x, y = arr[:, 0], arr[:, 1], arr[:, 2]
        positions[i, :, 0] = np.interp(grid, t, x)
        positions[i, :, 1] = np.interp(grid, t, y)
        if len(t) > 1:
            # the median as np.median takes it, without np.median's import of numpy.ma
            step = np.sort(np.hypot(np.diff(x), np.diff(y)) / np.diff(t))
            mid = len(step) // 2
            speeds[i] = step[mid] if len(step) % 2 else (step[mid - 1] + step[mid]) / 2
        else:
            speeds[i] = 0.0
    return MobilityTrace(
        ue_count=k,
        block_duration=block_duration,
        positions=positions,
        speed=speeds,
    )
