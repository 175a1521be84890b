import numpy as np
import pytest
from hypothesis import given, strategies as st

from contactbem.assembly import DomainDof, _mortar_mass
from contactbem.cli import parse_scenario, preset_conforming
from contactbem.mesh import (
    BoundaryMesh,
    Material,
    MeshError,
    TAG_DIRICHLET_MASK,
    _project,
    build_mesh,
    pair_contacts,
)
from oracles import square


def test_material_invariants():
    """The shear modulus of a material; parse_scenario bounds E, nu and
    chi (test_cli's MALFORMED_NODES)."""
    m = Material(4e3, 0.35, 1e-3)
    assert m.shear_modulus == pytest.approx(4e3 / 2.7)


def test_unit_square_frames():
    mesh = square()
    assert mesh.n_elements == 4
    assert mesh.n_nodes == 4
    normals = mesh.normals
    expected = [(0, -1), (1, 0), (0, 1), (-1, 0)]
    for n, ref in zip(normals, expected):
        assert np.allclose(n, ref)


def test_degenerate_element_rejected():
    with pytest.raises(MeshError, match="degenerate element 1"):
        BoundaryMesh("A", [(0, 0), (1, 0), (1, 0)], [(0, 1), (1, 2), (2, 0)],
                     ["D", "N", "N"], np.arange(3))


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
    # a crossing near the float limit, where raw orientation products overflow
    ([(0, 0), (2e155, 0), (2e155, 2e155), (1e155, -1e155), (0, 2e155)],
     "self-intersects"),
    ([(-1e308, 0), (1e308, 0), (0, 1e308)], "extent inf is not finite"),
])
def test_touching_polyline_rejected(poly, match):
    spec = [{"tag": "D", "n": 1}] * len(poly)
    with pytest.raises(MeshError, match=match):
        build_mesh(poly, spec)


def test_valid_polygon_accepted_at_any_scale():
    """The closure, orientation and crossing tests run at unit extent."""
    house = np.array([(0, 0), (2, 0), (2, 2), (1, 3), (0, 2)], dtype=float)
    for scale in (1e-150, 1.0, 1e150):
        build_mesh(scale * house, [{"tag": "D", "n": 1}] * 5)


def test_dirichlet_required_unless_floating_contact():
    poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
    spec = [{"tag": "N", "n": 1}] * 4
    with pytest.raises(MeshError, match="Dirichlet"):
        build_mesh(poly, spec)
    spec[0]["tag"] = "C"
    mesh = build_mesh(poly, spec, allow_floating=True)
    assert mesh.part_tag[0] == "C"


def test_dirichlet_contact_closure_disjoint():
    with pytest.raises(MeshError, match="closures"):
        square(("C", "D", "N", "N"))


def test_part_arrays_of_all_five_tags():
    """The mesh decodes its tags once: per-element Dirichlet and contact
    masks, their node closures, and where a traction joins across a node."""
    poly = [(0, 0), (2, 0), (4, 0), (6, 0), (6, 2), (6, 4), (2, 4), (-4, 4),
            (-4, 0)]
    tags = ("N", "C", "N", "DxNy", "NxDy", "N", "N", "D", "N")
    spec = [{"tag": t, "n": 2 if t == "C" else 1} for t in tags]
    mesh = build_mesh(poly, spec)
    assert sorted(set(mesh.part_tag)) == sorted(TAG_DIRICHLET_MASK)
    for e, tag in enumerate(mesh.part_tag):
        assert tuple(mesh.dirichlet[e]) == TAG_DIRICHLET_MASK[tag]
        assert mesh.contact[e] == (tag == "C")
    node_dirichlet = np.zeros((mesh.n_nodes, 2), dtype=bool)
    node_contact = np.zeros(mesh.n_nodes, dtype=bool)
    for e, nodes in enumerate(mesh.elements):
        for node in nodes:
            node_dirichlet[node] |= TAG_DIRICHLET_MASK[mesh.part_tag[e]]
            node_contact[node] |= mesh.part_tag[e] == "C"
    assert np.array_equal(mesh.node_dirichlet, node_dirichlet)
    assert np.array_equal(mesh.node_contact, node_contact)
    # element e joins element e - 1 at the node they share
    assert mesh.joins_prev.tolist() == [
        True,  # N | N, collinear, across the wraparound
        False,  # N | C, collinear
        True,  # C | C inside the contact segment
        False,  # C | N, collinear
        False,  # N | DxNy at a corner
        False,  # DxNy | NxDy, collinear
        False,  # NxDy | N at a corner
        True,  # N | N, collinear, from one segment to the next
        False,  # N | D at a corner
        False,  # D | N at a corner
    ]


def test_closed_normal_sum():
    mesh = square(n=3)
    total = np.zeros(2)
    perim = 0.0
    for n, L in zip(mesh.normals, mesh.lengths):
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
    assert np.allclose(m1.tangents, m0.tangents @ R.T, atol=1e-12)
    assert np.allclose(m1.normals, m0.normals @ R.T, atol=1e-12)
    assert m1.lengths == pytest.approx(m0.lengths)


def test_grading_geometric():
    poly = [(0, 0), (10, 0), (10, 10), (0, 10)]
    spec = [
        {"tag": "N", "n": 8, "grade": ("start", 0.1)},
        {"tag": "N", "n": 1},
        {"tag": "N", "n": 1},
        {"tag": "D", "n": 1},
    ]
    mesh = build_mesh(poly, spec)
    lens = mesh.lengths[:8]
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


def test_projection_rounds_as_pointwise_formula():
    """The array projection of pairing and of the simplicity check gives
    the per-point formula's values, bit for bit."""
    rng = np.random.default_rng(3)
    chain = rng.normal(size=(6, 2)) * 10
    points = rng.normal(size=(20, 2)) * 10
    t, dist = _project(points, chain)
    for i, p in enumerate(points):
        for k, (a, b) in enumerate(zip(chain[:-1], chain[1:])):
            d = b - a
            tk = np.clip((p - a) @ d / (d @ d), 0.0, 1.0)
            assert t[i, k] == tk
            assert dist[i, k] == np.linalg.norm(p - (a + tk * d))


def test_pair_contacts_matching():
    meshA, meshB = _stacked_pair(10, 10)
    pair = pair_contacts(meshA, meshB)
    assert len(pair.pieces) == 10
    total = np.diff(pair.breaks).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pair_contacts_split_refinement():
    meshA, meshB = _stacked_pair(20, 10)
    pair = pair_contacts(meshA, meshB)
    assert len(pair.pieces) == 20


def _shifted_pair():
    """B's contact has nodes at x = 1, 0.5, 0; A's at x = 0, 0.7, 1."""
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
    return pair_contacts(meshA, meshB)


def test_pair_contacts_shifted_partitions():
    pair = _shifted_pair()
    lengths = sorted(np.round(np.diff(pair.breaks), 9))
    assert lengths == [0.2, 0.3, 0.5]


def test_mortar_mass_of_shifted_partitions():
    """M_AB pairs A's traction hats with B's displacement hats across
    non-matching traces: the entries integrated by hand, and each A row
    summed over B's columns is the integral of its hat."""
    pair = _shifted_pair()
    dd_A, dd_B = (DomainDof(mesh, Material(1.0, 0.3))
                  for mesh in (pair.mesh_A, pair.mesh_B))
    M = _mortar_mass(pair, dd_A, dd_B)
    # rows: A's hats at x = 0, 0.7, 1; columns: B's hats at x = 1, 0.5, 0
    rows = [dd_A.phi_of[0, 0], dd_A.phi_of[0, 1], dd_A.phi_of[1, 1]]
    cols = [next(n for n in range(pair.mesh_B.n_nodes)
                 if np.array_equal(pair.mesh_B.nodes[n], (x, 1.0)))
            for x in (1.0, 0.5, 0.0)]
    exact = np.array([[2 / 525, 109 / 700, 4 / 21],
                      [53 / 420, 11 / 35, 5 / 84],
                      [3 / 25, 3 / 100, 0.0]])
    expected = np.zeros_like(M)
    for k in range(2):  # each xy component pairs with itself only
        expected[np.ix_(2 * np.array(rows) + k, 2 * np.array(cols) + k)] = exact
    assert np.abs(M - expected).max() <= 1e-15
    hats = np.array([0.35, 0.5, 0.15])  # int of A's hats over the contact
    assert np.abs(M[2 * np.array(rows)].sum(1) - hats).max() <= 1e-15


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e3, 1e9])
def test_pair_contacts_scale_free(scale):
    """The pairing of conforming's contact traces does not depend on the
    unit of length: the same 48 overlap pieces at every scale."""
    def meshes(factor):
        out = []
        for ds in parse_scenario(preset_conforming()).domains:
            parts = [dict(p) for p in ds.parts]
            for p in parts:
                if "grade" in p:
                    p["grade"] = (p["grade"][0], factor * p["grade"][1])
            out.append(build_mesh(factor * np.array(ds.polyline), parts,
                                  domain_label=ds.label,
                                  allow_floating=ds.allow_floating))
        return out

    unit = pair_contacts(*meshes(1.0))
    pair = pair_contacts(*meshes(scale))
    assert len(unit.pieces) == len(pair.pieces) == 48
    assert np.abs(pair.arclength_B - scale * unit.arclength_B).max() <= (
        1e-12 * scale * unit.arclength_B[-1])


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
