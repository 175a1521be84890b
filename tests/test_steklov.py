import numpy as np
import pytest

from contactbem.assembly import _master_w_columns, assemble, solve_tbvp
from contactbem.steklov import SteklovOperator
from oracles import (
    MAT,
    NO_DATA,
    energy_pairing,
    gradient,
    patch_data,
    potential,
    square,
    stacked,
    top_pressure,
)

RNG = np.random.default_rng(7)


def test_superposition():
    *_, im = stacked(3, 3)
    op = SteklovOperator(im)
    f_N = [top_pressure(im, -1.0), None]
    w = RNG.normal(size=op.n_w) * 1e-3
    full = solve_tbvp(im, [None, None], f_N, w=w)
    offset = solve_tbvp(im, [None, None], f_N, w=np.zeros(op.n_w))
    hom = solve_tbvp(im, NO_DATA, NO_DATA, w=w)
    for d in range(2):
        assert np.allclose(full.p[d], offset.p[d] + hom.p[d], atol=1e-12)
        assert np.allclose(full.v[d], offset.v[d] + hom.v[d], atol=1e-12)


def test_hessian_equals_column_construction():
    """The multi-RHS Hessian equals the one built column by column from the
    gradient of the homogeneous response to each unit gap."""
    *_, im = stacked(4, 3)
    op = SteklovOperator(im)
    n = op.n_w
    H_ref = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        H_ref[:, i] = gradient(op, solve_tbvp(im, NO_DATA, NO_DATA, w=e))
    H_ref = 0.5 * (H_ref + H_ref.T)
    assert np.abs(op.H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()


def test_hessian_psd_with_rigid_nullspace():
    """With the upper body supported only through the contact, gap fields
    equal to its rigid-motion traces cost no energy; everything else does."""
    meshA, meshB, pair, im = stacked(4, 4)
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
    assert potential(op, w, NO_DATA, NO_DATA) == pytest.approx(
        0.5 * w @ H @ w, rel=1e-10)


def test_hessian_pd_when_upper_body_clamped():
    *_, im = stacked(3, 3, top="D")
    op = SteklovOperator(im)
    ev = np.linalg.eigvalsh(op.H)
    assert ev.min() > 0.0


def test_gradient_matches_finite_differences():
    """Potential gradient under nonzero boundary data via central FD."""
    meshA, meshB, pair, im = stacked(3, 3)
    g_B = np.zeros(2 * meshB.n_nodes)
    g_B[0::2] = 1e-4  # uniform horizontal shift of the support
    op = SteklovOperator(im)
    data = ([None, g_B], [top_pressure(im, -2.0), None])
    w0 = RNG.normal(size=op.n_w) * 1e-3
    g = gradient(op, solve_tbvp(im, *data, w=w0))
    h = 1e-6
    for i in range(op.n_w):
        e = np.zeros(op.n_w)
        e[i] = h
        de = (potential(op, w0 + e, *data)
              - potential(op, w0 - e, *data)) / (2 * h)
        assert de == pytest.approx(g[i], rel=1e-6, abs=1e-10)


def test_pairing_energy_agrees_on_patch_state():
    """On a state both trial spaces represent exactly (uniform compression)
    the pairing energy and the potential-calculus energy coincide."""
    f = -5.0
    *_, im = stacked(4, 4)
    op = SteklovOperator(im)
    sol = solve_tbvp(im, *patch_data(im, f), w=np.zeros(op.n_w))
    e_pair = energy_pairing(op, sol)
    # exact strain energy density * area for uniaxial plane strain
    E, nu = MAT.young_modulus, MAT.poisson_ratio
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
            (dd.phi_dofs[e][:, None], dd.psi_dofs[e][None, :]),
            np.kron([[L / 3, L / 6], [L / 6, L / 3]], np.eye(2)),
        )
    return Mf


def _single_domain_trace_operator(mesh, contact_pred, master_pos):
    """Mass-projected trace-to-traction operator of one body with its
    contact face clamped, columns ordered by master node positions."""
    im = assemble([mesh], None, [MAT])
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
    meshA, meshB, pair, im = stacked(n, n)
    H = SteklovOperator(im).H
    master_pos = [pair.mesh_B.nodes[nd] for nd in pair.nodes_B]
    S_B = _single_domain_trace_operator(
        square(("D", "N", "D", "N"), n),
        lambda mesh, e: mesh.part_tag[e] == "D" and mesh.normals[e, 1] > 0.5,
        master_pos,
    )
    S_A = _single_domain_trace_operator(
        square(("D", "N", "N", "N"), n, origin=(0.0, 1.0)),
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
    meshA, meshB, pair, im = stacked(4, 4)
    op = SteklovOperator(im)
    sol = solve_tbvp(im, *patch_data(im, f), w=np.zeros(op.n_w))
    g = gradient(op, sol)
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
