"""Large-scale SNR and small-scale fading with intra-block channel aging.

Per block, a path-loss provider (three-slope log-distance with log-normal
shadowing, or an ingested path-loss map) yields the M x K path-loss matrix,
from which the average-SNR matrix beta = p / (L * n0) is formed. Within a
block, scalar Rayleigh channels decorrelate with UE motion following a
zeroth-order Bessel correlation; channel estimates carry the aged,
pilot-contaminated MMSE variance.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import InputError, open_text, read_rows

BOLTZMANN = 1.380649e-23
T0_KELVIN = 290.0
LIGHT_SPEED = 299792458.0
ESTIMATE_FORMS = ("mmse",)
PILOT_METHODS = ("random", "sequential")
# near and far breakpoints of the three-slope path loss, in meters
D0_M = 10.0
DC_M = 50.0


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer constants shared by channel and evaluation.

    The per-AP transmit budget ``tx_power_w`` doubles as the baseline per-link
    power in beta; at evaluation time each AP splits it equally over its
    served UEs; pilots are sent at ``tx_power_w``. ``estimate_form`` names
    the channel-estimate variance model; "mmse", the pilot-contaminated MMSE
    estimate bounded by the channel variance, is the only one.
    """

    carrier_freq_hz: float = 2.0e9
    bandwidth_hz: float = 20.0e6
    noise_figure_db: float = 9.0
    slot_duration_s: float = 1.0e-4
    block_len_slots: int = 200
    pilot_len_slots: int = 10
    tx_power_w: float = 0.2
    ap_height_m: float = 12.5
    ue_height_m: float = 1.65
    shadowing_sigma_db: float = 8.0
    estimate_form: str = "mmse"

    def __post_init__(self):
        if self.pilot_len_slots >= self.block_len_slots:
            raise ValueError("pilot length must be shorter than the block")
        for name in ("carrier_freq_hz", "bandwidth_hz", "slot_duration_s", "tx_power_w", "ap_height_m", "ue_height_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.shadowing_sigma_db < 0:
            raise ValueError(f"shadowing_sigma_db must be at least 0, got {self.shadowing_sigma_db}")
        if self.estimate_form not in ESTIMATE_FORMS:
            why = "was removed" if self.estimate_form == "raw" else "is unknown"
            raise ValueError(f"estimate_form {self.estimate_form!r} {why}; known: {list(ESTIMATE_FORMS)}")


def noise_power_w(cfg: RadioConfig) -> float:
    """Thermal noise power k_B * T0 * B scaled by the receiver noise figure."""
    return BOLTZMANN * T0_KELVIN * cfg.bandwidth_hz * 10.0 ** (cfg.noise_figure_db / 10.0)


def hata_offset_db(cfg: RadioConfig) -> float:
    """Fixed COST231-Hata offset; carrier frequency enters in MHz."""
    f_mhz = cfg.carrier_freq_hz / 1e6
    return (
        46.3
        + 33.9 * np.log10(f_mhz)
        - 13.82 * np.log10(cfg.ap_height_m)
        - (1.1 * np.log10(f_mhz) - 0.7) * cfg.ue_height_m
        + (1.56 * np.log10(f_mhz) - 0.8)
    )


def pathloss_three_slope(d, cfg: RadioConfig):
    """Three-slope log-distance path loss in dB, continuous at both breakpoints.

    Distances are given in meters and compared against the breakpoints in
    meters; inside the logarithms the COST231-Hata convention (km) applies.
    Below the near breakpoint the loss is constant, so the 1 m clamp only
    guards degenerate zero-distance inputs.
    """
    d = np.maximum(np.asarray(d, dtype=float), 1.0)
    l0 = hata_offset_db(cfg)
    dc_km = DC_M / 1e3
    d0_km = D0_M / 1e3
    d_km = d / 1e3
    near = l0 + 15.0 * np.log10(dc_km) + 20.0 * np.log10(d0_km)
    mid = l0 + 15.0 * np.log10(dc_km) + 20.0 * np.log10(d_km)
    far = l0 + 35.0 * np.log10(d_km)
    out = np.where(d > DC_M, far, np.where(d <= D0_M, near, mid))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChannelSnapshot:
    """Per-block large-scale state: path loss, noise, and average SNR beta."""

    beta: np.ndarray
    pathloss_db: np.ndarray
    noise_power: float

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if np.any(b < 0) or not np.all(np.isfinite(b)):
            raise ValueError("beta entries must be finite and non-negative")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "pathloss_db", np.asarray(self.pathloss_db, dtype=float))
        b.setflags(write=False)
        self.pathloss_db.setflags(write=False)

    @property
    def n_aps(self) -> int:
        return self.beta.shape[0]

    @property
    def n_ues(self) -> int:
        return self.beta.shape[1]

    def channel_gain(self) -> np.ndarray:
        """Large-scale fading variance R = 1/L per link (0 where in outage)."""
        return _gain(self.pathloss_db)


def _gain(pl_db: np.ndarray) -> np.ndarray:
    """1/L from path loss in dB; 0 where the loss is infinite (outage)."""
    return np.where(np.isfinite(pl_db), 10.0 ** (-pl_db / 10.0), 0.0)


class LogDistanceProvider:
    """Three-slope path loss plus a per-(AP, UE) shadow field fixed for the run."""

    def __init__(self, topo, cfg: RadioConfig, n_ues: int, seed=0):
        self._ap_pos = topo.ap_positions
        self._cfg = cfg
        # at sigma 0 the field is signed zeros, and loss + (-0.0) is the loss
        rng = np.random.default_rng(seed)
        self._shadow = cfg.shadowing_sigma_db * rng.standard_normal((topo.n_aps, n_ues))

    def pathloss_db(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (self._shadow.shape[1], 2):
            raise ValueError(f"expected ({self._shadow.shape[1]}, 2) positions")
        diff = self._ap_pos[:, None, :] - positions[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        return pathloss_three_slope(dist, self._cfg) + self._shadow

    def min_pathloss_db(self) -> float:
        """A floor of every loss pathloss_db returns: the near-field loss plus
        the least entry of the shadow field."""
        return pathloss_three_slope(0.0, self._cfg) + float(self._shadow.min())


class PathLossMap:
    """Grid-sampled path loss per AP with nearest-cell lookup.

    Cells absent from the ingested file, or listed with an ``inf`` loss, are
    outage (+inf loss, beta = 0).
    """

    def __init__(self, dx, dy, origin, table, index_offset):
        self._dx = dx
        self._dy = dy
        self._origin = origin
        self._table = table  # (M, nx, ny), +inf where uncovered
        self._offset = index_offset

    def pathloss_db(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        ix = np.rint((positions[:, 0] - self._origin[0]) / self._dx).astype(int) - self._offset[0]
        iy = np.rint((positions[:, 1] - self._origin[1]) / self._dy).astype(int) - self._offset[1]
        m, nx, ny = self._table.shape
        out = np.full((m, positions.shape[0]), np.inf)
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        out[:, inside] = self._table[:, ix[inside], iy[inside]]
        return out

    def min_pathloss_db(self) -> float:
        """The least loss in the table, +inf when every cell is outage."""
        return float(self._table.min())


_MAP_ROW = np.dtype([("ap", "i8"), ("ix", "i8"), ("iy", "i8"), ("pl", "f8")])
_MAP_FIELDS = "ap_id,cell_ix,cell_iy,pathloss_db"
_MAP_TYPES = (int, int, int, float)
# names numpy opens through a decompressor when given them as a path
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
#: the most cells a path-loss table may hold: 2 GiB of float64
MAP_MAX_CELLS = 2**28


def load_pathloss_map(path, topo) -> PathLossMap:
    """Parse a path-loss map file for ``topo``.

    Format: header ``grid_dx,grid_dy,origin_x,origin_y`` then rows
    ``ap_id,cell_ix,cell_iy,pathloss_db``. Blank lines are skipped; ``#``
    starts no comment, so a ``#`` line is a malformed row. Every AP id must
    belong to the topology and appear at least once. A path loss is a number
    or ``inf``, an explicit outage cell, as an absent cell is. A repeated
    cell, a cell index of magnitude 2**63, a grid too large for an int64 flat
    index, a path loss of ``nan`` or ``-inf``, a non-finite header field,
    non-positive grid spacing and a grid on which a point of ``topo.area``
    has a cell index past int64 are errors, each naming the file line
    (``path:line``) of the first offending row. A table of more than
    MAP_MAX_CELLS cells, or one numpy cannot allocate, is an error naming
    its size.

    The file is streamed: one ``np.loadtxt`` call reads the rows after the
    header into 32 B records, or, where it refuses a row, the row scanner
    does. ``_map_cells`` alone decides whether the rows form a map; only a
    bad row is read once more, to quote it. ``np.loadtxt`` is given the
    path, not the open file: it reads a path in chunks in C, but walks an
    open file one Python line at a time, which takes about 1.5x as long.
    numpy opens a path by its name, so a name it would decompress (``.gz``
    and the like) is read through the open file instead.
    """
    with open_text(path) as f:
        first = f.readline()
        dx, dy, ox, oy = _parse_map_header(path, first.rstrip("\n") if first else None)
        w, h = topo.area.width, topo.area.height
        # a position's cell index is cast to int64 at lookup
        if not all(abs(i) < 2**63 for i in (ox / dx, (w - ox) / dx, oy / dy, (h - oy) / dy)):
            raise InputError(f"{path}:1: the {w:g} x {h:g} m area's cell indices pass int64 on this grid")
        body = f.tell()
        # an absolute path, so numpy never reads a name like "http://..." as a URL
        source, skip = (f, 0) if str(path).endswith(_COMPRESSED_SUFFIXES) else (os.path.abspath(path), 1)
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as "no map rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(
                    source, delimiter=",", dtype=_MAP_ROW, comments=None, ndmin=1,
                    skiprows=skip, encoding="utf-8",
                )
            refusal = None
        except ValueError:
            # loadtxt's message gives no file line, and loadtxt refuses
            # some rows the row rule accepts (whitespace-only lines, "1_0").
            # A byte that is not UTF-8 lands here too: the scanner names a
            # bad row before it, or meets the byte and open_text names it
            f.seek(body)
            rows, refusal = _scan_map_rows(path, f)
        if not rows.size:
            raise refusal or InputError(f"{path}: no map rows")
        cell, grid, bad = _map_cells(rows, topo.n_aps)
        if bad:
            f.seek(body)
            parsed = read_rows(f, path, _MAP_FIELDS, _MAP_TYPES, start=2)
            ln, row, values = next(itertools.islice(parsed, bad[0], None))
            raise InputError(f"{path}:{ln}: " + bad[1].format(*values, row=row))
    if refusal:
        raise refusal
    missing = np.flatnonzero(np.bincount(rows["ap"], minlength=topo.n_aps) == 0).tolist()
    if missing:
        raise InputError(f"{path}: no coverage rows for AP ids {missing}")

    size = f"{path}: a path-loss table of {topo.n_aps} x {grid[2]} x {grid[3]} cells"
    # numpy refuses 2**60 cells or more (8 B each pass int64) before it allocates
    if MAP_MAX_CELLS < topo.n_aps * grid[2] * grid[3] < 2**60:
        raise InputError(f"{size} passes the 2^28-cell cap")
    try:
        table = np.full((topo.n_aps, *grid[2:]), np.inf)
    except (ValueError, MemoryError):
        raise InputError(f"{size} is too large to allocate") from None
    table.reshape(-1)[cell] = rows["pl"]
    return PathLossMap(dx, dy, (ox, oy), table, grid[:2])


def _parse_map_header(path, line):
    """(dx, dy, origin_x, origin_y) from the first line; ``line`` is None
    for an empty file."""
    if line is None:
        raise InputError(f"{path}: empty map file")
    head = line.split(",")
    if len(head) != 4:
        raise InputError(f"{path}:1: expected header 'grid_dx,grid_dy,origin_x,origin_y'")
    try:
        dx, dy, ox, oy = (float(v) for v in head)
    except ValueError:
        raise InputError(f"{path}:1: non-numeric header field") from None
    if not all(map(math.isfinite, (dx, dy, ox, oy))):
        raise InputError(f"{path}:1: non-finite header field")
    if dx <= 0 or dy <= 0:
        raise InputError(f"{path}:1: grid spacing must be positive and uniform per axis")
    return dx, dy, ox, oy


def _map_cells(rows, n_aps):
    """(flat table index of each row, (ix_min, iy_min, nx, ny), None) if the
    non-empty ``rows`` form a map; else (None, None, (i, message template))
    for the first bad row i, the one after the longest prefix that does. A
    repeated cell grows no grid, so no row is both a repeat and out of range;
    a repeat whose path loss is ``nan`` or ``-inf`` is named for its loss.
    """
    index = _map_index(rows, n_aps)
    if not isinstance(index, str):
        return *index, None
    lo, hi = 0, len(rows) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (lo, mid - 1) if isinstance(_map_index(rows[:mid], n_aps), str) else (mid, hi)
    return None, None, (lo, _map_index(rows[:lo + 1], n_aps))


def _map_index(rows, n_aps):
    """(flat table index of each row, (ix_min, iy_min, nx, ny)) if the rows
    form a map; else the message template of the first rule they break, in
    this order: every AP id in ``range(n_aps)``, every path loss a number or
    ``inf``, every cell index below 2**63 in magnitude and a grid whose flat
    index fits int64, no cell twice."""
    ap, ix, iy = rows["ap"], rows["ix"], rows["iy"]
    if ((ap < 0) | (ap >= n_aps)).any():
        return "unknown AP id {0}"
    if not (rows["pl"] > -np.inf).all():
        return "non-finite path loss in {row!r}"
    ix_min, iy_min = int(ix.min()), int(iy.min())
    nx, ny = int(ix.max()) - ix_min + 1, int(iy.max()) - iy_min + 1
    if min(ix_min, iy_min) == -(2**63) or n_aps * nx * ny >= 2**63:
        return "cell index out of range in {row!r}"
    cell = (ap * nx + ix - ix_min) * ny + iy - iy_min  # numpy reuses the temporaries
    ordered = np.sort(cell)
    if (ordered[1:] == ordered[:-1]).any():
        return "duplicate cell ({0}, {1}, {2})"
    return cell, (ix_min, iy_min, nx, ny)


def _scan_map_rows(path, body):
    """``_MAP_ROW`` records of the rows of ``body``, the open map file after
    its header, read by the row rule up to the first row it refuses, and that
    refusal (or None). An integer that int64 cannot hold reads as -2**63."""
    packed = bytearray()
    try:
        for _, _, (*ints, pl) in read_rows(body, path, _MAP_FIELDS, _MAP_TYPES, start=2):
            packed += struct.pack("=qqqd", *[v if -(2**63) <= v < 2**63 else -(2**63) for v in ints], pl)
    except InputError as refusal:
        return np.frombuffer(packed, dtype=_MAP_ROW), refusal
    return np.frombuffer(packed, dtype=_MAP_ROW), None


def check_scale(provider, cfg: RadioConfig, n_ues: int) -> None:
    """Raise InputError unless every snapshot from ``provider`` holds finite
    beta, a finite pilot term beta * p * tau_p * n_ues, the bound of the
    estimate variance's contamination sum, a finite numerator
    R * beta * p * tau_p of the estimate variance, and beta below 2**52, where
    the P-MMSE regularizer n0/p = R/beta still outweighs the rounding of R.
    The largest R is the gain of the provider's least path loss, and the
    largest beta p/n0 times it."""
    pl = provider.min_pathloss_db()
    n0 = noise_power_w(cfg)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = float(_gain(np.float64(pl)))
        beta = float(cfg.tx_power_w * gain / n0)
    if not math.isfinite(beta):
        raise InputError(
            f"the largest beta of the run is not finite: tx_power_w {cfg.tx_power_w:.4g} W over noise "
            f"{n0:.4g} W, times the gain of its least path loss {pl:.4g} dB"
        )
    if not math.isfinite(beta * cfg.tx_power_w * cfg.pilot_len_slots * n_ues):
        raise InputError(
            f"the pilot term of the run is not finite: largest beta {beta:.4g} x tx_power_w "
            f"{cfg.tx_power_w:.4g} W x tau_p {cfg.pilot_len_slots} x {n_ues} UEs"
        )
    if not math.isfinite(gain * (beta * (cfg.tx_power_w * cfg.pilot_len_slots))):
        raise InputError(
            f"the estimate variance of the run is not finite: largest R {gain:.4g} x largest beta {beta:.4g} "
            f"x tx_power_w {cfg.tx_power_w:.4g} W x tau_p {cfg.pilot_len_slots}"
        )
    if beta >= 2.0**52:
        raise InputError(
            f"the largest beta of the run, {beta:.4g}, reaches 2^52: the P-MMSE regularizer n0/p = R/beta "
            "falls below the rounding unit of the largest channel gain R"
        )


def snapshot(topo, positions, provider, cfg: RadioConfig) -> ChannelSnapshot:
    """Evaluate the provider at the UE positions and form beta = p/(L*n0)."""
    pl_db = provider.pathloss_db(np.asarray(positions, dtype=float))
    n0 = noise_power_w(cfg)
    beta = cfg.tx_power_w * _gain(pl_db) / n0
    return ChannelSnapshot(beta=beta, pathloss_db=pl_db, noise_power=n0)


# Cephes j0 (Moshier), the rational approximations scipy.special.j0
# evaluates, so _j0 returns the same bits without importing scipy.
_J0_DR1 = 5.78318596294678452118e0  # first zero of J0, squared
_J0_DR2 = 3.04712623436620863991e1  # second zero, squared
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
          1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
          5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
          5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)
_SQRT_2_OVER_PI = 7.9788456080286535587989e-1


def _polevl(x, coef):
    """Horner's rule, highest power first."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    """Horner's rule for a monic polynomial whose leading 1 is not stored."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _j0(x):
    """Bessel function J0 of the first kind, elementwise, as Cephes computes it.

    |x| <= 5: (z - DR1)(z - DR2) RP(z)/RQ(z) with z = x^2, or 1 - z/4 below
    1e-5. |x| > 5: the Hankel asymptotic form with rational P and Q. cos and
    sin come from math (the C library scipy calls too), as numpy's own may
    round differently.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= 5.0
    a = x[near]
    z = a * a
    p = (z - _J0_DR1) * (z - _J0_DR2)
    p = p * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    out[near] = np.where(a < 1.0e-5, 1.0 - z / 4.0, p)
    a = x[~near]
    with np.errstate(over="ignore"):
        q = 25.0 / (a * a)
    w = 5.0 / a
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
    # cos(inf) is a domain error in math and nan in C; nan passes through both
    xn = np.where(np.isinf(a), np.nan, a - np.pi / 4.0).tolist()
    cos = np.array(list(map(math.cos, xn)))
    sin = np.array(list(map(math.sin, xn)))
    p = p * cos - w * q * sin
    out[~near] = p * _SQRT_2_OVER_PI / np.sqrt(a)
    return out


def aging_coefficient(t, v, cfg: RadioConfig):
    """Bessel channel-aging correlation at slot ``t`` for UE speed ``v``.

    rho = J0(2*pi * (v * f_c / c) * T_s * (t - tau_p - 1)); broadcasts over
    array-valued t or v.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    arg = (
        2.0 * np.pi * (v * cfg.carrier_freq_hz / LIGHT_SPEED)
        * cfg.slot_duration_s * (t - cfg.pilot_len_slots - 1)
    )
    out = _j0(arg)
    return out if np.ndim(out) else float(out)


def assign_pilots(k: int, tau_p: int, seed, method: str = "random") -> np.ndarray:
    """Assign one of tau_p pilot indices to each UE.

    "random" draws uniformly (the default); "sequential" cycles ue % tau_p,
    which keeps copilot sets singletons whenever K <= tau_p.
    """
    if k < 1 or tau_p < 1:
        raise ValueError("need k >= 1 and tau_p >= 1")
    if method == "random":
        return np.random.default_rng(seed).integers(0, tau_p, size=k)
    if method == "sequential":
        return np.arange(k) % tau_p
    raise ValueError(f"unknown pilot assignment method {method!r}")


def estimate_variance_matrix(
    snap: ChannelSnapshot, pilots: np.ndarray, t, speeds, cfg: RadioConfig
) -> np.ndarray:
    """MMSE estimate variance Z over all links, aged to slot ``t``.

    Z = rho^2 R (beta p tau_p) / (csum p tau_p + 1) with the pilot power
    p = tx_power_w on every link, csum the sum of beta over the UE's copilot
    group at that AP and rho the aging factor over the pilot-to-slot lag
    tau_p + 1 - t. So 0 <= Z <= rho^2 R, and Z = 0 where R = 0.
    """
    beta = snap.beta
    rho = np.atleast_1d(
        aging_coefficient(cfg.pilot_len_slots + 1 - np.asarray(t, dtype=float), speeds, cfg)
    )[None, :]
    # contamination sum per (AP, pilot group), mapped back onto UE columns
    groups = np.asarray(pilots)
    csum = np.zeros_like(beta)
    for pid in dict.fromkeys(groups.tolist()):
        cols = groups == pid
        csum[:, cols] = beta[:, cols].sum(axis=1, keepdims=True)
    ptp = cfg.tx_power_w * cfg.pilot_len_slots
    return rho**2 * snap.channel_gain() * (beta * ptp) / (csum * ptp + 1.0)
