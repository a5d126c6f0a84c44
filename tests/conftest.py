import numpy as np
import pytest

from cfmimo.channel import ChannelSnapshot, RadioConfig
from cfmimo.selection import SelectionConstraints
from cfmimo.topology import AreaSpec, generate_ppp_topology


@pytest.fixture
def radio() -> RadioConfig:
    return RadioConfig()


@pytest.fixture
def area() -> AreaSpec:
    return AreaSpec(width=400.0, height=400.0)


def make_snapshot(beta) -> ChannelSnapshot:
    """Snapshot with a prescribed beta matrix (selection tests only need beta)."""
    beta = np.asarray(beta, dtype=float)
    n0 = 1.0
    with np.errstate(divide="ignore"):
        pl = np.where(beta > 0, -10.0 * np.log10(beta * n0 / 0.2), np.inf)
    return ChannelSnapshot(beta=beta, pathloss_db=pl, noise_power=n0)


def no_outage(snap: ChannelSnapshot) -> SelectionConstraints:
    """Constraints with no cap in reach and no outage threshold, so a
    selection sees the snapshot's beta as it is."""
    return SelectionConstraints(g_max=snap.n_aps, beta0=0.0)


def random_snapshot(m, k, seed, spread_db=25.0) -> ChannelSnapshot:
    """Random log-spread beta matrix for property sweeps."""
    rng = np.random.default_rng(seed)
    beta = 10.0 ** (rng.uniform(-1.0, spread_db / 10.0, size=(m, k)))
    return make_snapshot(beta)


@pytest.fixture
def ppp_topo(area):
    return generate_ppp_topology(area, 30, seed=11)
