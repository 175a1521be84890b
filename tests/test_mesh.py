import numpy as np
import pytest
from hypothesis import given, strategies as st

from contactbem.mesh import (
    Material,
    MeshError,
    build_mesh,
    element_frame,
    pair_contacts,
)


def square(tags=("D", "N", "N", "N"), n=1, side=1.0, origin=(0.0, 0.0)):
    ox, oy = origin
    poly = [
        (ox, oy),
        (ox + side, oy),
        (ox + side, oy + side),
        (ox, oy + side),
    ]
    spec = [{"tag": t, "n": n} for t in tags]
    return build_mesh(poly, spec)


def test_material_invariants():
    m = Material(4e3, 0.35, 1e-3)
    assert m.shear_modulus == pytest.approx(4e3 / 2.7)
    with pytest.raises(MeshError):
        Material(-1.0, 0.3)
    with pytest.raises(MeshError):
        Material(1.0, 0.5)
    with pytest.raises(MeshError):
        Material(1.0, 0.3, -1e-3)


def test_unit_square_frames():
    mesh = square()
    assert mesh.n_elements == 4
    assert mesh.n_nodes == 4
    normals = [element_frame(mesh, e)[1] for e in range(4)]
    expected = [(0, -1), (1, 0), (0, 1), (-1, 0)]
    for n, ref in zip(normals, expected):
        assert np.allclose(n, ref)


def test_orientation_rejected():
    poly = [(0, 0), (0, 1), (1, 1), (1, 0)]  # clockwise
    spec = [{"tag": "D", "n": 1}] * 4
    with pytest.raises(MeshError, match="anti-clockwise"):
        build_mesh(poly, spec)


def test_self_intersection_rejected():
    poly = [(0, 0), (1, 1), (1, 0), (0, 1)]
    spec = [{"tag": "D", "n": 1}] * 4
    with pytest.raises(MeshError):
        build_mesh(poly, spec)


@pytest.mark.parametrize("poly,match", [
    # vertex (2, 0) lies on the bottom edge
    ([(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)],
     r"segments 0 and 3 touch at \(2, 0\)"),
    # two non-adjacent edges run along the same line and overlap
    ([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 2), (0, 2)],
     "touch"),
    # consecutive edges fold back on each other
    ([(0, 0), (2, 0), (1, 0), (1, 1)], "folds back"),
    ([(0, 0), (1, 0), (1, 0), (0, 1)], "segment 1: zero length"),
])
def test_touching_polyline_rejected(poly, match):
    spec = [{"tag": "D", "n": 1}] * len(poly)
    with pytest.raises(MeshError, match=match):
        build_mesh(poly, spec)


def test_dirichlet_required_unless_floating_contact():
    poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
    spec = [{"tag": "N", "n": 1}] * 4
    with pytest.raises(MeshError, match="Dirichlet"):
        build_mesh(poly, spec)
    spec[0]["tag"] = "C"
    mesh = build_mesh(poly, spec, allow_floating=True)
    assert mesh.part_tag[0] == "C"


def test_dirichlet_contact_closure_disjoint():
    poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
    spec = [
        {"tag": "C", "n": 1},
        {"tag": "D", "n": 1},
        {"tag": "N", "n": 1},
        {"tag": "N", "n": 1},
    ]
    with pytest.raises(MeshError, match="closures"):
        build_mesh(poly, spec)


def test_closed_normal_sum():
    mesh = square(n=3)
    total = np.zeros(2)
    perim = 0.0
    for e in range(mesh.n_elements):
        _, n, L = element_frame(mesh, e)
        total += L * n
        perim += L
    assert np.linalg.norm(total) <= 1e-10 * perim


@given(st.floats(-np.pi, np.pi))
def test_frame_equivariance(theta):
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
    rot = [tuple(R @ p) for p in poly]
    spec = [{"tag": "D", "n": 1}] * 4
    m0 = build_mesh(poly, spec)
    m1 = build_mesh(rot, spec)
    for e in range(4):
        t0, n0, L0 = element_frame(m0, e)
        t1, n1, L1 = element_frame(m1, e)
        assert np.allclose(t1, R @ t0, atol=1e-12)
        assert np.allclose(n1, R @ n0, atol=1e-12)
        assert L1 == pytest.approx(L0)


def test_grading_geometric():
    poly = [(0, 0), (10, 0), (10, 10), (0, 10)]
    spec = [
        {"tag": "N", "n": 8, "grade": ("start", 0.1)},
        {"tag": "N", "n": 1},
        {"tag": "N", "n": 1},
        {"tag": "D", "n": 1},
    ]
    mesh = build_mesh(poly, spec)
    lens = [element_frame(mesh, e)[2] for e in range(8)]
    assert lens[0] == pytest.approx(0.1, rel=0.05)
    ratios = np.diff(np.log(lens))
    assert np.allclose(ratios, ratios[0], atol=1e-8)  # geometric progression
    assert sum(lens) == pytest.approx(10.0)


def test_shoelace_area_preserved():
    poly = [(0, 0), (4, 0), (4, 2), (0, 2)]
    spec = [{"tag": "D", "n": 3}, {"tag": "N", "n": 2}, {"tag": "N", "n": 5}, {"tag": "N", "n": 1}]
    mesh = build_mesh(poly, spec)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(8.0)


def _stacked_pair(nA, nB):
    # B below with contact on its top face, A above with contact on bottom
    polyB = [(0, 0), (1, 0), (1, 1), (0, 1)]
    specB = [
        {"tag": "D", "n": 1},
        {"tag": "N", "n": 1},
        {"tag": "C", "n": nB},
        {"tag": "N", "n": 1},
    ]
    meshB = build_mesh(polyB, specB, domain_label="B")
    polyA = [(0, 1), (1, 1), (1, 2), (0, 2)]
    specA = [
        {"tag": "C", "n": nA},
        {"tag": "N", "n": 1},
        {"tag": "D", "n": 1},
        {"tag": "N", "n": 1},
    ]
    meshA = build_mesh(polyA, specA, domain_label="A")
    return meshA, meshB


def test_pair_contacts_matching():
    meshA, meshB = _stacked_pair(10, 10)
    pair = pair_contacts(meshA, meshB)
    assert len(pair.overlap_map) == 10
    total = sum(s1 - s0 for _, _, s0, s1 in pair.overlap_map)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pair_contacts_split_refinement():
    meshA, meshB = _stacked_pair(20, 10)
    pair = pair_contacts(meshA, meshB)
    assert len(pair.overlap_map) == 20


def test_pair_contacts_shifted_partitions():
    polyB = [(0, 0), (1, 0), (1, 1), (0, 1)]
    specB = [{"tag": "D", "n": 1}, {"tag": "N", "n": 1}, {"tag": "C", "n": 2}, {"tag": "N", "n": 1}]
    meshB = build_mesh(polyB, specB, domain_label="B")
    # A contact with an off-center interior node at 0.3 from the right end
    polyA = [(0, 1), (0.7, 1), (1, 1), (1, 2), (0, 2)]
    specA = [
        {"tag": "C", "n": 1},
        {"tag": "C", "n": 1},
        {"tag": "N", "n": 1},
        {"tag": "D", "n": 1},
        {"tag": "N", "n": 1},
    ]
    meshA = build_mesh(polyA, specA, domain_label="A")
    pair = pair_contacts(meshA, meshB)
    lengths = sorted(round(s1 - s0, 9) for _, _, s0, s1 in pair.overlap_map)
    assert lengths == [0.2, 0.3, 0.5]


def test_pair_contacts_divergent_traces_rejected():
    meshA, _ = _stacked_pair(4, 4)
    polyB = [(0, 0), (1, 0), (1, 1.001), (0, 1.001)]
    specB = [{"tag": "D", "n": 1}, {"tag": "N", "n": 1}, {"tag": "C", "n": 4}, {"tag": "N", "n": 1}]
    meshB = build_mesh(polyB, specB, domain_label="B")
    with pytest.raises(MeshError):
        pair_contacts(meshA, meshB)


def test_contact_frames_point_outward_from_master():
    _, meshB = _stacked_pair(4, 4)
    meshA, _ = _stacked_pair(4, 4)
    pair = pair_contacts(meshA, meshB)
    # master is the bottom block; its outward normal on the contact is +e2
    assert np.allclose(pair.normal, [0.0, 1.0])


def test_split_contact_zone_rejected():
    poly = [(0, 0), (4, 0), (4, 1), (0, 1)]
    spec = [{"tag": "C", "n": 2}, {"tag": "N", "n": 1},
            {"tag": "C", "n": 1}, {"tag": "N", "n": 1}]
    mesh = build_mesh(poly, spec, domain_label="Q", allow_floating=True)
    with pytest.raises(MeshError, match=r"domain Q: .*between elements 1 and 3"):
        pair_contacts(mesh, mesh)
