"""The library's refusals that no scenario test reaches: one table of the
call, the exception it raises and the whole message."""

import re

import numpy as np
import pytest

from cfmimo.channel import ChannelSnapshot, LogDistanceProvider, RadioConfig, assign_pilots
from cfmimo.evaluation import PrecodingContext, precode_pmmse
from cfmimo.mobility import generate_rwp, load_tracks
from cfmimo.selection import ALGORITHMS, CooperationMatrix, SelectionConstraints, jain_index, run_algorithm
from cfmimo.topology import AreaSpec, NetworkTopology, build_square_clusters

from conftest import random_snapshot

_AREA = AreaSpec(100.0, 100.0)
_TOPO = NetworkTopology(area=_AREA, ap_positions=np.array([[20.0, 20.0], [70.0, 70.0]]))


def _case(id, call, kind, message):
    return pytest.param(call, kind, message, id=id)


REFUSALS = [
    _case("matrix-not-2d", lambda: CooperationMatrix(np.ones(3)), ValueError, "d must be an M x K matrix"),
    _case("matrix-not-binary", lambda: CooperationMatrix(np.full((2, 2), 2)), ValueError, "d entries must be 0/1"),
    _case("jain-empty", lambda: jain_index([]), ValueError, "need at least one value"),
    _case("unknown-algorithm",
          lambda: run_algorithm("bogus", random_snapshot(2, 2, seed=0), SelectionConstraints(g_max=1)),
          ValueError, f"unknown algorithm 'bogus'; known: {sorted(ALGORITHMS)}"),
    *(_case(f"snapshot-beta-{beta}", lambda beta=beta: ChannelSnapshot([[beta]], [[0.0]], 1.0),
            ValueError, "beta entries must be finite and non-negative")
      for beta in (-1.0, np.nan, np.inf)),
    _case("radio-pilot-fills-block", lambda: RadioConfig(block_len_slots=10, pilot_len_slots=10),
          ValueError, "pilot length must be shorter than the block"),
    _case("pathloss-positions-shape",
          lambda: LogDistanceProvider(_TOPO, RadioConfig(), 2).pathloss_db(np.zeros((3, 2))),
          ValueError, "expected (2, 2) positions"),
    _case("pilots-no-ue", lambda: assign_pilots(0, 4, seed=0), ValueError, "need k >= 1 and tau_p >= 1"),
    _case("pilots-no-pilot", lambda: assign_pilots(3, 0, seed=0), ValueError, "need k >= 1 and tau_p >= 1"),
    _case("pilots-unknown-method", lambda: assign_pilots(3, 4, seed=0, method="bogus"),
          ValueError, "unknown pilot assignment method 'bogus'"),
    _case("precode-k-mismatch",
          lambda: precode_pmmse(PrecodingContext.from_matrix(CooperationMatrix(np.ones((2, 2)))),
                                np.ones((1, 2, 3), dtype=complex), 1.0),
          ValueError, "context and estimate dimensions disagree"),
    _case("rwp-shorter-than-a-block", lambda: generate_rwp(_AREA, 2, 1.0, duration=0.01, block_duration=0.02),
          ValueError, "need duration >= block_duration > 0"),
    *(_case(f"tracks-block-duration-{bd}", lambda bd=bd: load_tracks("tracks.txt", bd),
            ValueError, "block_duration must be positive") for bd in (0.0, -0.02)),
    *(_case(f"topology-{id}", lambda pos=pos: NetworkTopology(area=_AREA, ap_positions=pos),
            ValueError, "ap_positions must be a non-empty (M, 2) array")
      for id, pos in [("no-ap", np.zeros((0, 2))), ("three-columns", np.zeros((2, 3))), ("flat", np.zeros(2))]),
    _case("topology-outside-area", lambda: NetworkTopology(area=_AREA, ap_positions=np.array([[150.0, 10.0]])),
          ValueError, "all AP positions must lie within the area bounds"),
    _case("clusters-no-cell", lambda: build_square_clusters(_TOPO, 0), ValueError, "n_per_side must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, kind, message", REFUSALS)
def test_refusal(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is kind
