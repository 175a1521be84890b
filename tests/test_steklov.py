import numpy as np
import pytest

from contactbem.assembly import (
    _master_w_columns,
    assemble,
    solve_tbvp,
)
from contactbem.mesh import Material, build_mesh, pair_contacts
from contactbem.steklov import SteklovError, SteklovOperator

MAT = Material(young_modulus=200.0, poisson_ratio=0.3)
RNG = np.random.default_rng(7)
NO_DATA = [None, None]  # no boundary data on either domain


def stacked_pair(nA, nB, side=1.0, clamp_top=False):
    polyB = [(0, 0), (side, 0), (side, side), (0, side)]
    specB = [{"tag": "D", "n": nB}, {"tag": "N", "n": nB},
             {"tag": "C", "n": nB}, {"tag": "N", "n": nB}]
    meshB = build_mesh(polyB, specB, domain_label="B")
    polyA = [(0, side), (side, side), (side, 2 * side), (0, 2 * side)]
    top = "D" if clamp_top else "N"
    specA = [{"tag": "C", "n": nA}, {"tag": "N", "n": nA},
             {"tag": top, "n": nA}, {"tag": "N", "n": nA}]
    meshA = build_mesh(polyA, specA, domain_label="A", allow_floating=True)
    pair = pair_contacts(meshA, meshB)
    im = assemble([meshA, meshB], pair, [MAT, MAT])
    return meshA, meshB, pair, im


def test_single_domain_rejected():
    mesh = build_mesh(
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [{"tag": "D", "n": 1}] + [{"tag": "N", "n": 1}] * 3,
    )
    im = assemble(mesh, None, MAT)
    with pytest.raises(SteklovError):
        SteklovOperator(im)


def _top_pressure(im, value):
    ddA = im.layout.domains[0]
    meshA = im.pair.mesh_A
    f = np.zeros(2 * ddA.n_phi)
    for e in range(meshA.n_elements):
        if meshA.part_tag[e] == "N" and meshA.normals[e, 1] > 0.5:
            f[ddA.phi_dofs_of_element(e)[1::2]] = value
    return f


def test_superposition():
    *_, im = stacked_pair(3, 3)
    op = SteklovOperator(im)
    f_N = [_top_pressure(im, -1.0), None]
    w = RNG.normal(size=op.n_w) * 1e-3
    full = op.solve(w, [None, None], f_N)
    offset = op.solve(np.zeros(op.n_w), [None, None], f_N)
    hom = op.solve(w, NO_DATA, NO_DATA)
    for d in range(2):
        assert np.allclose(full.p[d], offset.p[d] + hom.p[d], atol=1e-12)
        assert np.allclose(full.v[d], offset.v[d] + hom.v[d], atol=1e-12)


def test_hessian_equals_column_construction():
    """The multi-RHS Hessian equals the one built column by column from the
    gradient of the homogeneous response to each unit gap."""
    *_, im = stacked_pair(4, 3)
    op = SteklovOperator(im)
    n = op.n_w
    H_ref = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        H_ref[:, i] = op.gradient(op.solve(e, NO_DATA, NO_DATA))
    H_ref = 0.5 * (H_ref + H_ref.T)
    assert np.abs(op.H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()


def test_hessian_psd_with_rigid_nullspace():
    """With the upper body supported only through the contact, gap fields
    equal to its rigid-motion traces cost no energy; everything else does."""
    meshA, meshB, pair, im = stacked_pair(4, 4)
    op = SteklovOperator(im)
    H = op.H
    assert H.shape == (op.n_w, op.n_w)
    pos = np.array([pair.mesh_B.nodes[n] for n in pair.nodes_B])
    rigid = np.zeros((3, op.n_w))
    rigid[0, 0::2] = 1.0
    rigid[1, 1::2] = 1.0
    rigid[2, 0::2] = -(pos[:, 1] - 0.5)
    rigid[2, 1::2] = pos[:, 0] - 0.5
    ev = np.sort(np.linalg.eigvalsh(H))
    scale = ev[-1]
    for r in rigid:
        assert np.linalg.norm(H @ r) <= 1e-10 * scale * np.linalg.norm(r)
    assert abs(ev[2]) <= 1e-10 * scale
    assert ev[3] > 1e-3 * scale  # strictly positive off the rigid modes
    # potential equals the quadratic form of H (homogeneous data)
    w = RNG.normal(size=op.n_w) * 1e-3
    hom = op.solve(w, NO_DATA, NO_DATA)
    assert op.potential(hom) == pytest.approx(0.5 * w @ H @ w, rel=1e-10)


def test_hessian_pd_when_upper_body_clamped():
    *_, im = stacked_pair(3, 3, clamp_top=True)
    op = SteklovOperator(im)
    ev = np.linalg.eigvalsh(op.H)
    assert ev.min() > 0.0


def test_gradient_matches_finite_differences():
    """Potential gradient under nonzero boundary data via central FD."""
    meshA, meshB, pair, im = stacked_pair(3, 3)
    g_B = np.zeros(2 * meshB.n_nodes)
    g_B[0::2] = 1e-4  # uniform horizontal shift of the support
    op = SteklovOperator(im)
    data = ([None, g_B], [_top_pressure(im, -2.0), None])
    w0 = RNG.normal(size=op.n_w) * 1e-3
    g = op.gradient(op.solve(w0, *data))
    h = 1e-6
    for i in range(op.n_w):
        e = np.zeros(op.n_w)
        e[i] = h
        de = (op.potential(op.solve(w0 + e, *data))
              - op.potential(op.solve(w0 - e, *data))) / (2 * h)
        assert de == pytest.approx(g[i], rel=1e-6, abs=1e-10)


def test_pairing_energy_agrees_on_patch_state():
    """On a state both trial spaces represent exactly (uniform compression)
    the pairing energy and the potential-calculus energy coincide."""
    f = -5.0
    meshA, meshB, pair, im = stacked_pair(4, 4)
    op = SteklovOperator(im)
    E, nu = MAT.young_modulus, MAT.poisson_ratio
    # g_D on B's bottom must match the uniaxial state: u = 0 there only if
    # u1 = e11 x1 is zero, so prescribe the exact trace instead
    e11 = -nu * (1 + nu) * f / E
    g_B = np.zeros(2 * meshB.n_nodes)
    g_B[0::2] = e11 * meshB.nodes[:, 0]
    sol = op.solve(np.zeros(op.n_w), [None, g_B], [_top_pressure(im, f), None])
    e_pair = op.energy_pairing(sol)
    # exact strain energy density * area for uniaxial plane strain
    e22 = f * (1 - nu * nu) / E
    density = 0.5 * f * e22
    assert e_pair == pytest.approx(2.0 * density, rel=1e-6)


def _face_mass(mesh, dd, face):
    """phi x psi mass of the elements in face (rows: traction dofs)."""
    Mf = np.zeros((2 * dd.n_phi, 2 * mesh.n_nodes))
    for e in face:
        L = mesh.lengths[e]
        np.add.at(
            Mf,
            (dd.phi_dofs_of_element(e)[:, None], dd.psi_dofs_of_element(e)[None, :]),
            np.kron([[L / 3, L / 6], [L / 6, L / 3]], np.eye(2)),
        )
    return Mf


def _single_domain_trace_operator(poly, spec, contact_pred, master_pos):
    """Mass-projected trace-to-traction operator of one body with its
    contact face clamped, columns ordered by master node positions."""
    mesh = build_mesh(poly, spec)
    im = assemble(mesh, None, MAT)
    dd = im.layout.domains[0]
    face = [e for e in range(mesh.n_elements) if contact_pred(mesh, e)]
    nodes = {n for e in face for n in mesh.elements[e]}
    order = []
    for p in master_pos:
        hits = [n for n in nodes if np.allclose(mesh.nodes[n], p, atol=1e-12)]
        assert len(hits) == 1
        order.append(hits[0])
    cols = np.array([2 * n + k for n in order for k in range(2)])
    Mf = _face_mass(mesh, dd, face)
    n_w = len(cols)
    S = np.empty((n_w, n_w))
    for i in range(n_w):
        g = np.zeros(2 * mesh.n_nodes)
        g[cols[i]] = 1.0
        sol = solve_tbvp(im, [g], [None])
        S[:, i] = (Mf.T @ sol.p[0])[cols]
    return 0.5 * (S + S.T)


def _series_error(n):
    meshA, meshB, pair, im = stacked_pair(n, n)
    H = SteklovOperator(im).H
    master_pos = [pair.mesh_B.nodes[nd] for nd in pair.nodes_B]
    polyB = [(0, 0), (1, 0), (1, 1), (0, 1)]
    specB = [{"tag": "D", "n": n}, {"tag": "N", "n": n},
             {"tag": "D", "n": n}, {"tag": "N", "n": n}]
    S_B = _single_domain_trace_operator(
        polyB, specB,
        lambda mesh, e: mesh.part_tag[e] == "D" and mesh.normals[e, 1] > 0.5,
        master_pos,
    )
    polyA = [(0, 1), (1, 1), (1, 2), (0, 2)]
    specA = [{"tag": "D", "n": n}, {"tag": "N", "n": n},
             {"tag": "N", "n": n}, {"tag": "N", "n": n}]
    S_A = _single_domain_trace_operator(
        polyA, specA,
        lambda mesh, e: mesh.part_tag[e] == "D",
        master_pos,
    )
    H_series = np.linalg.inv(np.linalg.inv(S_A) + np.linalg.inv(S_B))
    return np.abs(H - H_series).max() / np.abs(H).max()


def test_series_composition_approximate():
    """The coupled contact Hessian is close to the harmonic mean of the two
    clamped-face one-body operators.  The one-body discretizations carry
    clamped-corner singularities that the coupled weak interface does not,
    so agreement is structural (same operator, ~10%), not to solver precision."""
    assert _series_error(8) < 0.12


def test_gradient_equals_master_traction_on_smooth_state():
    """Uniform compression: the exact contact traction is constant, so the
    energy-calculus gradient and the mass-projected master traction agree."""
    f = -5.0
    meshA, meshB, pair, im = stacked_pair(4, 4)
    E, nu = MAT.young_modulus, MAT.poisson_ratio
    e11 = -nu * (1 + nu) * f / E
    g_B = np.zeros(2 * meshB.n_nodes)
    g_B[0::2] = e11 * meshB.nodes[:, 0]
    op = SteklovOperator(im)
    sol = op.solve(np.zeros(op.n_w), [None, g_B], [_top_pressure(im, f), None])
    g = op.gradient(sol)
    # master-side traction projected onto the nodal gap basis
    face = [e for e in range(meshB.n_elements) if meshB.part_tag[e] == "C"]
    M_w = _face_mass(meshB, im.layout.domains[1], face)[:, _master_w_columns(pair)]
    t = M_w.T @ sol.p[1]
    scale = np.abs(t).max()
    assert np.abs(g + t).max() <= 1e-6 * scale
    # and the projected traction itself matches the constant (0, f)
    w_shapes = M_w.sum(axis=0)  # integral of each nodal shape
    assert np.allclose(t[1::2], f * w_shapes[1::2], rtol=1e-6)
    assert np.abs(t[0::2]).max() <= 1e-6 * scale
