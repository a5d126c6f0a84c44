import numpy as np
import pytest

from cfmimo import InputError
from cfmimo.topology import (
    AreaSpec,
    NetworkTopology,
    build_square_clusters,
    generate_ppp_topology,
    load_topology,
)

import mapgen


def test_zero_area_rejected():
    with pytest.raises(ValueError):
        AreaSpec(width=0.0, height=750.0)
    with pytest.raises(ValueError):
        AreaSpec(width=750.0, height=-1.0)


@pytest.mark.parametrize("width, height", [(float("inf"), 750.0), (750.0, float("nan")), (float("-inf"), 1.0)])
def test_non_finite_area_rejected(width, height):
    with pytest.raises(ValueError, match="finite, positive extent"):
        AreaSpec(width=width, height=height)


@pytest.mark.parametrize("header", ["inf,100", "nan,100", "100,-inf"])
def test_load_non_finite_area_header_names_line_1(tmp_path, header):
    # an infinite area let every AP and UE in and ran to a sum rate of 0
    path = tmp_path / "t.txt"
    path.write_text(f"{header}\n0,10,20\n")
    with pytest.raises(InputError, match=r"t\.txt:1: bad area header: area must have finite"):
        load_topology(path)


def test_ppp_count_and_bounds():
    area = AreaSpec(width=750.0, height=750.0)
    topo = generate_ppp_topology(area, 324, seed=7)
    assert topo.n_aps == 324
    assert np.all(area.contains(topo.ap_positions))


def test_ppp_single_point():
    topo = generate_ppp_topology(AreaSpec(10.0, 10.0), 1, seed=0)
    assert topo.ap_positions.shape == (1, 2)
    assert bool(topo.area.contains(topo.ap_positions[0]))


def test_ppp_determinism():
    area = AreaSpec(100.0, 100.0)
    a = generate_ppp_topology(area, 1000, seed=1)
    b = generate_ppp_topology(area, 1000, seed=1)
    assert np.array_equal(a.ap_positions, b.ap_positions)


def test_ppp_rejects_zero_count():
    with pytest.raises(ValueError):
        generate_ppp_topology(AreaSpec(10.0, 10.0), 0, seed=0)


def test_out_of_area_positions_rejected():
    with pytest.raises(ValueError):
        NetworkTopology(area=AreaSpec(10.0, 10.0), ap_positions=np.array([[5.0, 11.0]]))


def test_save_load_round_trip(tmp_path):
    topo = generate_ppp_topology(AreaSpec(200.0, 300.0), 25, seed=3)
    path = tmp_path / "topo.txt"
    mapgen.save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded.area == topo.area
    assert np.allclose(loaded.ap_positions, topo.ap_positions, atol=1e-7)


def test_load_smoke(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100,100\n0,10,20\n1,30,40\n2,50,60\n")
    topo = load_topology(path)
    assert topo.n_aps == 3
    assert np.array_equal(topo.ap_positions[1], [30.0, 40.0])


def test_load_out_of_bounds_names_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("750,750\n0,10,20\n1,900,0\n")
    # a finite point outside the area; a nan or inf one is a non-finite point
    with pytest.raises(InputError, match=r"t\.txt:3: AP 1 at \(900\.0, 0\.0\) outside area$"):
        load_topology(path)


def test_load_duplicate_id(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100,100\n0,1,1\n0,2,2\n")
    with pytest.raises(InputError, match="duplicate"):
        load_topology(path)


@pytest.mark.parametrize(
    "rows, line, stray, missing",
    [("0,1,1\n2,2,2\n", 3, 2, 1), ("-1,1,1\n0,2,2\n", 2, -1, 1), ("1,1,1\n2,2,2\n", 3, 2, 0)],
)
def test_load_ids_must_be_0_to_m_minus_1(tmp_path, rows, line, stray, missing):
    # a map or track row names an AP by its file id, so ids are never renumbered
    path = tmp_path / "t.txt"
    path.write_text("100,100\n" + rows)
    message = rf"t\.txt:{line}: AP id {stray} is outside 0\.\.1; .* id {missing} is missing$"
    with pytest.raises(InputError, match=message):
        load_topology(path)


def test_load_ids_in_any_order(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100,100\n1,30,40\n0,10,20\n")
    assert load_topology(path).ap_positions.tolist() == [[10.0, 20.0], [30.0, 40.0]]


def test_load_malformed_row_names_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100,100\n0,1,1\nnot-a-row\n")
    with pytest.raises(InputError, match=":3:"):
        load_topology(path)


def test_clusters_uniform_grid_one_per_cell():
    area = AreaSpec(100.0, 100.0)
    pos = np.array([[25.0, 25.0], [75.0, 25.0], [25.0, 75.0], [75.0, 75.0]])
    topo = NetworkTopology(area=area, ap_positions=pos)
    assert sorted(build_square_clusters(topo, 2).tolist()) == [0, 1, 2, 3]


def test_single_cluster_absorbs_all():
    topo = generate_ppp_topology(AreaSpec(50.0, 50.0), 17, seed=5)
    cluster = build_square_clusters(topo, 1)
    assert cluster.shape == (17,)
    assert np.all(cluster == 0)


def test_cluster_member_counts_sum_to_m():
    topo = generate_ppp_topology(AreaSpec(750.0, 750.0), 324, seed=7)
    counts = np.bincount(build_square_clusters(topo, 4), minlength=16)
    assert counts.size == 16
    assert counts.sum() == topo.n_aps
    # average occupancy matches the medium-density setting of ~20 APs/cluster
    assert abs(counts.mean() - 20.0) <= 0.5


def test_cluster_assignment_is_pure():
    topo = generate_ppp_topology(AreaSpec(300.0, 300.0), 60, seed=9)
    a = build_square_clusters(topo, 3)
    b = build_square_clusters(topo, 3)
    assert np.array_equal(a, b)


def test_boundary_ap_goes_to_last_cell():
    area = AreaSpec(100.0, 100.0)
    pos = np.array([[100.0, 100.0], [0.0, 0.0], [50.0, 50.0]])
    topo = NetworkTopology(area=area, ap_positions=pos)
    cluster = build_square_clusters(topo, 2)
    assert cluster[0] == 3  # top-right cell
    assert cluster[1] == 0
    assert cluster[2] == 3  # interior boundary floors upward
