import functools

import numpy as np
import pytest

from contactbem.assembly import (
    AssemblyError,
    DomainDof,
    _domain_matrices,
    assemble,
    scatter_solution,
)
from contactbem.cli import build_system, parse_scenario, preset_conforming
from contactbem.mesh import MeshError, build_mesh
from oracles import MAT, known_data_vector, solve_data, square, stacked


def uniaxial_fields(mat, f):
    """Plane-strain uniaxial stress sigma_22 = f, sigma_11 = sigma_12 = 0."""
    E, nu = mat.young_modulus, mat.poisson_ratio
    e22 = f * (1 - nu * nu) / E
    e11 = -nu * (1 + nu) * f / E

    def u(x):
        return np.array([e11 * x[0], e22 * x[1]])

    sig = np.diag([0.0, f])
    return u, sig


def test_phi_nodes_merge_only_when_collinear_same_tag():
    poly = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]
    spec = [{"tag": t, "n": 1} for t in ("D", "D", "N", "N", "N")]
    dd = DomainDof(build_mesh(poly, spec), MAT)
    # ten element ends, one merge at the collinear same-tag junction
    assert dd.n_phi == 9
    assert dd.phi_of[0, 1] == dd.phi_of[1, 0]
    spec[1]["tag"] = "N"
    dd = DomainDof(build_mesh(poly, spec), MAT)
    # tag change forbids the merge even though the geometry is straight
    assert dd.n_phi == 10
    assert dd.phi_of[0, 1] != dd.phi_of[1, 0]


def test_phi_wraparound_merge():
    # straight junction between last and first element, same tag everywhere
    poly = [(0, 0), (1, 0), (1, 1), (-1, 1), (-1, 0)]
    spec = [{"tag": "D", "n": 1}] * 5
    dd = DomainDof(build_mesh(poly, spec), MAT)
    m = dd.mesh.n_elements
    assert dd.phi_of[m - 1, 1] == dd.phi_of[0, 0]
    # 2m element ends, one merged junction (the straight one), splits at corners
    assert dd.n_phi == 2 * m - 1


def test_mass_matrix_closed_form():
    mesh = square(("D", "N", "N", "N"), side=2.0)
    dd = DomainDof(mesh, MAT)
    Mg = _domain_matrices(dd)[3]
    rows = dd.phi_dofs[0]
    cols = dd.psi_dofs[0]
    B = Mg[np.ix_(rows, cols)]
    L = 2.0
    ref = np.zeros((4, 4))
    for m in range(2):
        for n in range(2):
            v = L / 3 if m == n else L / 6
            ref[2 * m, 2 * n] = v
            ref[2 * m + 1, 2 * n + 1] = v
    assert np.allclose(B, ref, atol=1e-14)
    # element 0's traction shapes (split from its neighbours at the corners)
    # pair with its own nodal shapes only
    rest = Mg[rows].copy()
    rest[:, cols] = 0.0
    assert np.all(rest == 0.0)
    # each component integrates the unit partition over the perimeter
    assert Mg.sum() == pytest.approx(2 * 4 * L, rel=1e-14)


def test_rigid_translation_annihilated():
    mesh = square(("D",) * 4, n=4, side=1.3)
    dd = DomainDof(mesh, MAT)
    _, Tg, _, Mg = _domain_matrices(dd)
    H = 0.5 * Mg + Tg
    for c in (np.array([1.0, 0.0]), np.array([0.3, -0.7])):
        cv = np.tile(c, dd.n_psi)
        r = H @ cv
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(Tg)


def test_pure_dirichlet_block_negative_definite():
    # small domain (diameter < 1) so the single-layer operator is definite
    mesh = square(("D",) * 4, n=3, side=0.5)
    im = assemble([mesh], None, [MAT])
    assert im.asymmetry <= 1e-10
    w = np.linalg.eigvalsh(0.5 * (im.K + im.K.T))
    assert w.max() < 0.0


def test_assembled_symmetry_mixed_tags():
    mesh = square(("NxDy", "N", "N", "DxNy"), n=3, side=2.0)
    im = assemble([mesh], None, [MAT])
    assert im.asymmetry <= 1e-10


def _neumann_data(dd, sig):
    f_N = np.zeros(2 * dd.n_phi)
    mesh = dd.mesh
    for e, n in enumerate(mesh.normals):
        t = sig @ n
        dofs = dd.phi_dofs[e]
        f_N[dofs[0]], f_N[dofs[1]] = t
        f_N[dofs[2]], f_N[dofs[3]] = t
    return f_N


def test_patch_uniaxial_single_domain():
    """Roller-supported square under uniform tension reproduces the linear
    displacement field and constant reaction tractions to solver precision."""
    f = 7.0
    mesh = square(("NxDy", "N", "N", "DxNy"), n=4, side=2.0)
    im = assemble([mesh], None, [MAT])
    dd = im.layout.domains[0]
    u_ex, sig = uniaxial_fields(MAT, f)
    g_D = np.array([u_ex(x) for x in mesh.nodes]).ravel()
    f_N = _neumann_data(dd, sig)
    sol = solve_data(im, [g_D], [f_N])
    v_ref = np.array([u_ex(x) for x in mesh.nodes]).ravel()
    scale = np.abs(v_ref).max()
    assert np.abs(sol.v[0] - v_ref).max() <= 1e-7 * scale
    # reaction tractions: bottom roller carries -f, left roller nothing
    for e, n in enumerate(mesh.normals):
        t_ref = sig @ n
        dofs = dd.phi_dofs[e]
        if mesh.part_tag[e] == "NxDy":
            assert sol.p[0][dofs[1]] == pytest.approx(t_ref[1], abs=1e-6 * f)
        if mesh.part_tag[e] == "DxNy":
            assert sol.p[0][dofs[0]] == pytest.approx(t_ref[0], abs=1e-6 * f)


@pytest.mark.parametrize("nA,nB", [(4, 4), (6, 4)])
def test_patch_transmission_two_domains(nA, nB):
    """Two stacked squares under uniform compression: the coupled system
    transmits the uniaxial state exactly, including across a non-matching
    contact discretization (linear traces live in both trace spaces)."""
    f = -5.0
    meshA, meshB, pair, im = stacked(nA, nB)
    assert im.asymmetry <= 1e-10
    u_ex, sig = uniaxial_fields(MAT, f)
    ddA, ddB = im.layout.domains
    g_A = np.zeros(2 * meshA.n_nodes)
    g_B = np.array([u_ex(x) for x in meshB.nodes]).ravel()
    f_A = _neumann_data(ddA, sig)
    f_B = np.zeros(2 * ddB.n_phi)
    w = np.zeros(2 * len(pair.nodes_B))
    sol = solve_data(im, [g_A, g_B], [f_A, f_B], w=w)
    scale = np.abs(u_ex((1.0, 2.0))).max()
    for mesh, v in ((meshA, sol.v[0]), (meshB, sol.v[1])):
        v_ref = np.array([u_ex(x) for x in mesh.nodes]).ravel()
        assert np.abs(v - v_ref).max() <= 1e-6 * scale
    # contact tractions: master side carries sigma . n_B = (0, f) and the
    # opposing side the exact negative
    for e in pair.elements_B:
        dofs = ddB.phi_dofs[e]
        assert sol.p[1][dofs[1]] == pytest.approx(f, rel=1e-6)
        assert sol.p[1][dofs[0]] == pytest.approx(0.0, abs=1e-6 * abs(f))
    for e in pair.elements_A:
        dofs = ddA.phi_dofs[e]
        assert sol.p[0][dofs[1]] == pytest.approx(-f, rel=1e-6)


def test_gap_data_rigid_offset():
    """A uniform vertical gap w shifts the floating body rigidly when the
    interface is traction free."""
    meshA, meshB, pair, im = stacked(4, 4)
    g_B = np.zeros(2 * meshB.n_nodes)
    w = np.tile([0.0, 0.04], len(pair.nodes_B))
    sol = solve_data(im, [None, g_B], [None, None], w=w)
    # B stays at rest, A translates by w
    assert np.abs(sol.v[1]).max() <= 1e-8
    vA = sol.v[0].reshape(-1, 2)
    assert np.allclose(vA[:, 1], 0.04, atol=1e-8)
    assert np.abs(vA[:, 0]).max() <= 1e-8
    assert np.abs(sol.p[0]).max() <= 1e-8
    assert np.abs(sol.p[1]).max() <= 1e-8


def test_contact_dirichlet_conflict_rejected():
    # a roller face sharing a node with the contact closure is ill-posed
    poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
    spec = [{"tag": "D", "n": 1}, {"tag": "N", "n": 1},
            {"tag": "C", "n": 1}, {"tag": "DxNy", "n": 1}]
    with pytest.raises(MeshError, match="closures"):
        build_mesh(poly, spec)


def test_known_vector_matches_columns():
    mesh = square(("NxDy", "N", "N", "DxNy"), n=2)
    im = assemble([mesh], None, [MAT])
    vec = known_data_vector(im, [None], [None])
    assert vec.shape[0] == im.R_known.shape[1]


def test_scatter_solution_matches_block_loop():
    """The layout's index arrays place every unknown where the block order
    (pD, vN, pC, vC per domain) says, and keep the prescribed data
    elsewhere."""
    *_, im = stacked(3, 2)
    rng = np.random.default_rng(5)
    x = rng.normal(size=len(im.layout.unknown_cols))
    g_D = [rng.normal(size=2 * dd.n_psi) for dd in im.layout.domains]
    f_N = [rng.normal(size=2 * dd.n_phi) for dd in im.layout.domains]
    sol = scatter_solution(im, x, known_data_vector(im, g_D, f_N))
    n = 0  # global index of the next unknown
    for di, dd in enumerate(im.layout.domains):
        p = np.where(dd.trac_unknown, 0.0, f_N[di])
        v = np.where(dd.disp_known, g_D[di], 0.0)
        for out, dofs in ((p, dd.pD), (v, dd.vN), (p, dd.pC), (v, dd.vC)):
            for d in dofs:
                out[d] = x[n]
                n += 1
        assert np.array_equal(sol.p[di], p)
        assert np.array_equal(sol.v[di], v)
    assert n == len(x)


@functools.lru_cache
def _layout(case):
    """The layout of the stacked squares or of the conforming preset."""
    if case == "stacked":
        return stacked(3, 2)[3].layout
    return build_system(parse_scenario(preset_conforming())).im.layout


LAYOUTS = ("stacked", "conforming")


def _psi_ranges(layout):
    """Per domain, the full-layout columns of its displacement dofs, from
    the domains' widths laid end to end."""
    ranges, off = [], 0
    for dd in layout.domains:
        ranges.append(range(off + 2 * dd.n_phi, off + dd.width))
        off += dd.width
    assert off == layout.width
    return ranges


@pytest.mark.parametrize("case", LAYOUTS)
def test_layout_full_inverts_the_column_selections(case):
    """full(known, unknown), selected at known_cols and at unknown_cols,
    gives back both inputs, for a vector and for a matrix."""
    layout = _layout(case)
    rng = np.random.default_rng(3)
    n_known, n_unknown = len(layout.known_cols), len(layout.unknown_cols)
    assert n_known + n_unknown == layout.width
    for shape in ((), (3,)):
        known = rng.normal(size=(n_known,) + shape)
        unknown = rng.normal(size=(n_unknown,) + shape)
        full = layout.full(known, unknown)
        assert full.shape == (layout.width,) + shape
        assert np.array_equal(full[layout.known_cols], known)
        assert np.array_equal(full[layout.unknown_cols], unknown)


@pytest.mark.parametrize("case", LAYOUTS)
def test_layout_known_disp_marks_the_known_psi_columns(case):
    layout = _layout(case)
    psi = {c for r in _psi_ranges(layout) for c in r}
    assert layout.known_disp.tolist() == [int(c) in psi
                                          for c in layout.known_cols]
    assert layout.known_disp.any() and not layout.known_disp.all()


@pytest.mark.parametrize("case", LAYOUTS)
def test_layout_segment_cols_cover_the_segment(case):
    """segment_cols of every segment holds (x, y) column pairs covering
    exactly the traction dofs at both ends of the segment's elements, or
    the displacement dofs of its nodes."""
    layout = _layout(case)
    phi_start = 0
    for d, (dd, psi) in enumerate(zip(layout.domains, _psi_ranges(layout))):
        mesh = dd.mesh
        for seg in range(mesh.segment.max() + 1):
            els = [e for e in range(mesh.n_elements) if mesh.segment[e] == seg]
            trac = {phi_start + 2 * int(dd.phi_of[e, end]) + k
                    for e in els for end in range(2) for k in range(2)}
            disp = {psi.start + 2 * int(node) + k
                    for e in els for node in mesh.elements[e] for k in range(2)}
            for traction, want in ((True, trac), (False, disp)):
                cols = layout.segment_cols(d, seg, traction)
                assert np.array_equal(cols[:, 1], cols[:, 0] + 1)
                assert set(cols.ravel().tolist()) == want
        phi_start = psi.stop


def test_singular_matrix_raises_assembly_error():
    """An exactly singular K fails the solve as an AssemblyError, which the
    command line maps to exit 3, not as numpy's LinAlgError."""
    im = assemble([square(("D", "N", "N", "N"), n=2)], None, [MAT])
    im.K[0, :] = 0.0
    im.K[:, 0] = 0.0
    im.factorize()
    with pytest.raises(AssemblyError, match="singular assembled matrix"):
        im.solve(np.ones(len(im.layout.unknown_cols)))
