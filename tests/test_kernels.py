from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from contactbem.kernels import (
    KernelError,
    all_pair_blocks,
    galerkin_integral,
    kelvin_T,
    kelvin_U,
)
from contactbem.mesh import BoundaryMesh, Material, build_mesh

MAT = Material(young_modulus=200.0, poisson_ratio=0.3)
RNG = np.random.default_rng(42)


def test_kelvin_U_hand_value():
    mat = Material(1.0, 0.0)
    U = kelvin_U((0.0, 0.0), (1.0, 0.0), mat)
    assert U[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))
    assert U[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_kelvin_U_swap_and_translation():
    for _ in range(5):
        x, y, c = RNG.normal(size=(3, 2))
        U1 = kelvin_U(x, y, MAT)
        assert np.allclose(U1, kelvin_U(y, x, MAT).T)
        assert np.allclose(U1, kelvin_U(x + c, y + c, MAT))


def test_kelvin_U_coincident_raises():
    with pytest.raises(KernelError):
        kelvin_U((1.0, 2.0), (1.0, 2.0), MAT)


def test_kelvin_T_homogeneity_and_normal_linearity():
    x, y = np.array([0.2, -0.1]), np.array([1.4, 0.7])
    n = np.array([0.6, 0.8])
    T = kelvin_T(x, y, n, MAT)
    assert np.allclose(kelvin_T(3 * x, 3 * y, n, MAT), T / 3)
    assert np.allclose(kelvin_T(x, y, -n, MAT), -T)


def test_kelvin_T_is_traction_of_U():
    """Finite-difference check: T is the traction operator applied to U in y."""
    mat = Material(3.0, 0.25)
    G, nu = mat.shear_modulus, mat.poisson_ratio
    lam = 2 * G * nu / (1 - 2 * nu)
    x = np.array([0.0, 0.0])
    y = np.array([0.8, 0.5])
    n = np.array([1.0, 1.0]) / np.sqrt(2)
    h = 1e-6

    def U_at(yy):
        return kelvin_U(x, yy, mat)

    grad = np.zeros((2, 2, 2))  # grad[k][i][j] = dU_ki/dy_j
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        grad[:, :, j] = (U_at(y + e) - U_at(y - e)) / (2 * h)
    T_fd = np.zeros((2, 2))
    for k in range(2):
        eps = 0.5 * (grad[k] + grad[k].T)
        sig = lam * np.trace(eps) * np.eye(2) + 2 * G * eps
        T_fd[k] = sig @ n
    assert np.allclose(T_fd, kelvin_T(x, y, n, mat), rtol=1e-6, atol=1e-9)


def _two_element_mesh(p0, p1, p2, p3):
    """Open chain folded into a valid closed polyline for testing: we only
    integrate over the first two elements, placed well inside the polygon."""
    poly = [tuple(p0), tuple(p1), tuple(p2), tuple(p3), (50.0, 80.0), (-60.0, 80.0)]
    spec = [{"tag": "D", "n": 1} for _ in poly]
    return build_mesh(poly, spec)


def _oracle_block(mesh, ei, ej, kind, mat):
    """Adaptive scipy quadrature oracle for a separated pair."""
    ai, bi = mesh.elements[ei]
    aj, bj = mesh.elements[ej]
    p0, p1 = mesh.nodes[ai], mesh.nodes[bi]
    q0, q1 = mesh.nodes[aj], mesh.nodes[bj]
    ni, Li = mesh.normals[ei], mesh.lengths[ei]
    nj, Lj = mesh.normals[ej], mesh.lengths[ej]
    out = np.zeros((4, 4))
    G, nu = mat.shear_modulus, mat.poisson_ratio
    aD = -G / (2 * np.pi * (1 - nu))
    for m in range(2):
        for n in range(2):
            for k in range(2):
                for l in range(2):
                    def f(t, s, m=m, n=n, k=k, l=l):
                        x = p0 + s * (p1 - p0)
                        y = q0 + t * (q1 - q0)
                        shp = (1 - s if m == 0 else s) * (1 - t if n == 0 else t)
                        if kind == "U":
                            v = kelvin_U(x, y, mat)[k, l]
                        elif kind == "T":
                            v = kelvin_T(x, y, nj, mat)[k, l]
                        else:  # S regularized integrand
                            rv = y - x
                            r = np.hypot(*rv)
                            d = rv / r
                            D = aD * (-np.log(r) * np.eye(2) + np.outer(d, d))
                            ds_m = (-1 if m == 0 else 1) / Li
                            ds_n = (-1 if n == 0 else 1) / Lj
                            return ds_m * ds_n * D[k, l] * Li * Lj
                        return shp * v * Li * Lj
                    val, _ = integrate.dblquad(f, 0, 1, 0, 1, epsabs=1e-12,
                                              epsrel=1e-12)
                    out[2 * m + k, 2 * n + l] = val
    return out


@pytest.mark.parametrize("kind", ["U", "T", "S"])
def test_separated_pair_matches_adaptive_oracle(kind):
    mesh = _two_element_mesh((0, 0), (3, 0), (10, 4), (13, 7))
    got = galerkin_integral(mesh, 0, 2, kind, MAT)
    ref = _oracle_block(mesh, 0, 2, kind, MAT)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-10 * scale


def _panel_oracle_block(mesh, ei, ej, kind, mat, order, panels=10):
    """Block of a pair whose elements stay apart, by composite tensor
    Gauss-Legendre: each element parameter on [0, 1] is cut into equal
    panels of the given order, and the Kelvin U, T and regularized S
    integrands of _oracle_block are evaluated on all point pairs at once."""
    g, gw = np.polynomial.legendre.leggauss(order)
    h = 1.0 / panels
    u = (h * np.arange(panels)[:, None] + 0.5 * h * (g + 1.0)).ravel()
    w = np.tile(0.5 * h * gw, panels)
    (p0, p1), (q0, q1) = mesh.nodes[mesh.elements[[ei, ej]]]
    Li = mesh.lengths[ei]
    nj, Lj = mesh.normals[ej], mesh.lengths[ej]
    x = p0 + u[:, None] * (p1 - p0)  # test points, rows
    y = q0 + u[:, None] * (q1 - q0)  # trial points, columns
    rv = y[None, :, :] - x[:, None, :]
    r = np.hypot(rv[..., 0], rv[..., 1])
    d = rv / r[..., None]
    G, nu = mat.shear_modulus, mat.poisson_ratio
    eye = np.eye(2)
    K = np.empty((2, 2) + r.shape)  # K[k, l] over the point pairs
    for k in range(2):
        for l in range(2):
            dd = d[..., k] * d[..., l]
            if kind == "U":
                K[k, l] = (-(3 - 4 * nu) * np.log(r) * eye[k, l] + dd) / (
                    8 * np.pi * G * (1 - nu))
            elif kind == "T":
                o2 = 1 - 2 * nu
                drn = d @ nj
                K[k, l] = -(drn * (o2 * eye[k, l] + 2 * dd)
                            - o2 * (d[..., k] * nj[l] - nj[k] * d[..., l])) / (
                    4 * np.pi * (1 - nu) * r)
            else:
                K[k, l] = -G / (2 * np.pi * (1 - nu)) * (
                    -np.log(r) * eye[k, l] + dd)
    if kind == "S":  # tangential derivatives of the linear shapes
        shp_i = np.tile([-1.0 / Li, 1.0 / Li], (len(u), 1))
        shp_j = np.tile([-1.0 / Lj, 1.0 / Lj], (len(u), 1))
    else:
        shp_i = shp_j = np.stack([1.0 - u, u], axis=1)
    ref = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            ref[k::2, l::2] = shp_i.T @ (w[:, None] * K[k, l] * w) @ shp_j
    return ref * Li * Lj


@pytest.mark.parametrize("kind", ["U", "T", "S"])
def test_near_singular_pair_matches_oracle(kind):
    # parallel elements a fifth of an element length apart: subdivision path
    mesh = _two_element_mesh((0, 0), (5, 0), (5.0, 1.0), (0.0, 1.0))
    got = galerkin_integral(mesh, 0, 2, kind, MAT)
    ref8 = _panel_oracle_block(mesh, 0, 2, kind, MAT, order=8)
    ref = _panel_oracle_block(mesh, 0, 2, kind, MAT, order=12)
    scale = np.abs(ref).max()
    assert np.abs(ref8 - ref).max() <= 1e-12 * scale
    assert np.abs(got - ref).max() <= 1e-9 * scale


def test_coincident_U_closed_form():
    mat = Material(1.0, 0.0)
    poly = [(0, 0), (2, 0), (2, 2), (0, 2)]
    spec = [{"tag": "D", "n": 1}] * 4
    mesh = build_mesh(poly, spec)
    got = galerkin_integral(mesh, 0, 0, "U", mat)
    L = 2.0
    cU = 1.0 / (8 * np.pi * mat.shear_modulus)
    Iln_d = L * L * np.log(L) / 4 - 7 * L * L / 16
    Iln_o = L * L * np.log(L) / 4 - 5 * L * L / 16
    # element along +x: t = (1,0)
    for m in range(2):
        for n in range(2):
            Iln = Iln_d if m == n else Iln_o
            assert got[2 * m + 0, 2 * n + 0] == pytest.approx(
                cU * (-3 * Iln + (L / 2) ** 2), rel=1e-13
            )
            assert got[2 * m + 1, 2 * n + 1] == pytest.approx(cU * (-3 * Iln), rel=1e-13)
            assert got[2 * m + 0, 2 * n + 1] == pytest.approx(0.0, abs=1e-14)


def test_coincident_U_against_duffy_oracle():
    """Independent numeric evaluation of the coincident singular integral."""
    L, mat = 1.7, MAT
    poly = [(0, 0), (L, 0), (L, L), (0, L)]
    spec = [{"tag": "D", "n": 1}] * 4
    mesh = build_mesh(poly, spec)
    got = galerkin_integral(mesh, 0, 0, "U", mat)
    # oracle: integrate ln|u-s| against shapes by splitting at the diagonal
    cU = 1.0 / (8 * np.pi * mat.shear_modulus * (1 - mat.poisson_ratio))
    k34 = 3 - 4 * mat.poisson_ratio
    for m in range(2):
        for n in range(2):
            def f(t, s, m=m, n=n):
                shp = (1 - s if m == 0 else s) * (1 - t if n == 0 else t)
                return shp * np.log(abs(t - s) * L)
            v1, _ = integrate.dblquad(f, 0, 1, lambda s: s, 1, epsabs=1e-13)
            v2, _ = integrate.dblquad(f, 0, 1, 0, lambda s: s, epsabs=1e-13)
            Iln = (v1 + v2) * L * L
            ref_diag = cU * (-k34 * Iln + (L / 2) ** 2)
            assert got[2 * m + 0, 2 * n + 0] == pytest.approx(ref_diag, rel=1e-9)


def _adjacent_U_oracle(e0, e1, mat, order, levels=40, ratio=0.15):
    """U block of the pair (x = p1 - a e0, y = p1 + b e1) that shares the
    vertex p1 at a = b = 0: tensor Gauss-Legendre of the given order on
    cells graded geometrically toward the vertex in both parameters, with
    the Kelvin formula evaluated on r = a e0 + b e1, exact near the vertex."""
    breaks = np.concatenate([[0.0], ratio ** np.arange(levels, -1, -1.0)])
    g, gw = np.polynomial.legendre.leggauss(order)
    h = np.diff(breaks)[:, None]
    a = (breaks[:-1, None] + 0.5 * h * (g + 1.0)).ravel()
    w = (0.5 * h * gw).ravel()
    A, B = a[:, None], a[None, :]  # a along element 0, b along element 1
    r1, r2 = A * e0[0] + B * e1[0], A * e0[1] + B * e1[1]
    r = np.hypot(r1, r2)
    G, nu = mat.shear_modulus, mat.poisson_ratio
    c = 1.0 / (8.0 * np.pi * G * (1.0 - nu))
    log_term = -(3.0 - 4.0 * nu) * np.log(r)
    U = {(0, 0): log_term + (r1 / r) ** 2, (1, 1): log_term + (r2 / r) ** 2,
         (0, 1): r1 * r2 / r**2}
    U[1, 0] = U[0, 1]
    # shape functions: element 0 runs from its free end (a = 1) to p1,
    # element 1 from p1 to its free end (b = 1)
    shp0 = np.stack([a, 1.0 - a], axis=1)
    shp1 = np.stack([1.0 - a, a], axis=1)
    L0, L1 = np.hypot(*e0), np.hypot(*e1)
    ref = np.zeros((4, 4))
    for (k, l), Ukl in U.items():
        ref[k::2, l::2] = shp0.T @ (w[:, None] * c * Ukl * w[None, :]) @ shp1
    return ref * L0 * L1


def test_adjacent_U_against_subdivided_oracle():
    """Adjacent singular pair against an independent oracle: tensor-product
    Gauss-Legendre on cells graded toward the shared vertex, converged in
    its order."""
    mesh = _two_element_mesh((0, 0), (3, 0), (3 + 2 * np.cos(0.7), 2 * np.sin(0.7)), (9, 6))
    got = galerkin_integral(mesh, 0, 1, "U", MAT)
    (a0, a1), (b0, b1) = mesh.elements[0], mesh.elements[1]
    assert a1 == b0  # the shared vertex ends element 0 and starts element 1
    e0 = mesh.nodes[a1] - mesh.nodes[a0]
    e1 = mesh.nodes[b1] - mesh.nodes[b0]
    ref12 = _adjacent_U_oracle(e0, e1, MAT, order=12)
    ref = _adjacent_U_oracle(e0, e1, MAT, order=16)
    scale = np.abs(ref).max()
    assert np.abs(ref12 - ref).max() <= 1e-10 * scale
    assert np.abs(got - ref).max() <= 1e-8 * scale


def test_pair_swap_symmetry_U_S():
    mesh = _two_element_mesh((0, 0), (3, 0), (10, 4), (13, 7))
    U, T, S = all_pair_blocks(mesh, MAT)
    m = mesh.n_elements
    for i in range(m):
        for j in range(m):
            assert np.allclose(U[i, j], U[j, i].T, rtol=1e-12, atol=1e-16)
            assert np.allclose(S[i, j], S[j, i].T, rtol=1e-12, atol=1e-16)


def test_T_star_is_transpose():
    mesh = _two_element_mesh((0, 0), (3, 0), (10, 4), (13, 7))
    Ts = galerkin_integral(mesh, 0, 2, "T*", MAT)
    T = galerkin_integral(mesh, 2, 0, "T", MAT)
    assert np.allclose(Ts, T.T)


def _graded_mesh():
    """Ten elements with all three pair classes; the single top element
    lies within 1.5 of its own length of the graded bottom elements, so
    those separated pairs are bisected."""
    poly = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (0.0, 1.0)]
    spec = [{"tag": "D", "n": 5, "grade": ("start", 0.05)}, {"tag": "N", "n": 2},
            {"tag": "N", "n": 1}, {"tag": "N", "n": 2}]
    return build_mesh(poly, spec)


def test_blocks_match_golden_scalar_quadrature():
    """U, T, S as the former per-point scalar quadrature computed them."""
    golden = np.load(Path(__file__).parent / "data" / "golden_blocks.npz")
    blocks = dict(zip("UTS", all_pair_blocks(_graded_mesh(), MAT)))
    for name, got in blocks.items():
        ref = golden[name]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_single_pair_is_a_block_of_all_pairs():
    """galerkin_integral evaluates a batch of one pair through the evaluator
    of all_pair_blocks; only the batch layout may change the roundoff."""
    mesh = _graded_mesh()
    blocks = dict(zip("UTS", all_pair_blocks(mesh, MAT)))
    m = mesh.n_elements
    for kind, A in blocks.items():
        tol = 1e-13 * np.abs(A).max()
        for i in range(m):
            for j in range(m):
                got = galerkin_integral(mesh, i, j, kind, MAT)
                assert np.abs(got - A[i, j]).max() <= tol, (kind, i, j)


def test_touching_elements_raise():
    # unit square plus an element whose start node lies on element 0
    nodes = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 1)]
    mesh = BoundaryMesh("A", nodes, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)],
                        ["D"] * 5, np.arange(5))
    with pytest.raises(KernelError, match="elements 0 and 4"):
        all_pair_blocks(mesh, MAT)
    with pytest.raises(KernelError):
        galerkin_integral(mesh, 4, 0, "U", MAT)
    twice = BoundaryMesh("A", nodes[:4], [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)],
                         ["D"] * 5, np.arange(5))
    with pytest.raises(KernelError, match="elements 0 and 4 overlap"):
        all_pair_blocks(twice, MAT)
