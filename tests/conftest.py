import numpy as np
import pytest

from cfmimo.channel import ChannelSnapshot, RadioConfig
from cfmimo.evaluation import evaluate_block, precode_pmmse, received_gains
from cfmimo.selection import CooperationMatrix, SelectionConstraints
from cfmimo.topology import AreaSpec


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


def block_draws(monkeypatch, snap, pilots, speeds, cfg, n, seed, estimator):
    """The estimates one evaluate_block run under full-CF precodes and the
    channels its received_gains forms gains on (h_t for per-draw; for
    hardening, whose moments are formed on the estimates, the estimates
    again), each (n, M, K) in draw order."""
    est, gain_channels = [], []

    def precode_spy(ctx, estimates, *args):
        est.append(estimates.copy())
        return precode_pmmse(ctx, estimates, *args)

    def gains_spy(h, *args, **kwargs):
        gain_channels.append(h.copy())
        return received_gains(h, *args, **kwargs)

    monkeypatch.setattr("cfmimo.evaluation.precode_pmmse", precode_spy)
    monkeypatch.setattr("cfmimo.evaluation.received_gains", gains_spy)
    coop = CooperationMatrix(np.ones((snap.n_aps, snap.n_ues), dtype=int))
    evaluate_block(snap, coop, pilots, speeds, cfg, n_mc=n, seed=seed, estimator=estimator)
    monkeypatch.undo()
    return np.concatenate(est), np.concatenate(gain_channels)
