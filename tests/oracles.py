"""Test oracles and shared fixtures.  The oracles compute by a plainer
route what the library computes (which keeps only what a run executes):
the Kelvin kernels point by point, the potential calculus from full solves,
the energy terms from trace pairings, the QP variables' change of variables
as functions, the known-data vector and the load program from per-domain
tables of boundary data.  The main fixture is square A resting
on square B, in contact along y = side, with B clamped at its bottom."""

import numpy as np

from contactbem.assembly import assemble, scatter_solution, solve_tbvp
from contactbem.evolve import LoadProgram, run
from contactbem.evolve import modified_dirichlet as modified_data
from contactbem.kernels import KernelError
from contactbem.mesh import Material, build_mesh, frame_matrix, pair_contacts
from contactbem.qp import ContactError, ContactLaw

MAT = Material(young_modulus=200.0, poisson_ratio=0.3)
LAW = ContactLaw(mu=0.8, k_g=4e5)
NO_DATA = [None, None]  # no boundary data on either domain


# -- fixtures -----------------------------------------------------------------

def square(tags=("D", "N", "N", "N"), n=1, side=1.0, origin=(0.0, 0.0),
           **kwargs):
    """Mesh of a square from its lower-left corner origin, counter-clockwise,
    with n elements per side and side tags tags; kwargs go to build_mesh."""
    ox, oy = origin
    poly = [(ox, oy), (ox + side, oy), (ox + side, oy + side), (ox, oy + side)]
    spec = [{"tag": t, "n": n} for t in tags]
    return build_mesh(poly, spec, **kwargs)


def stacked(nA, nB, side=1.0, top="N"):
    """(meshA, meshB, pair, im) of square A on square B, nA and nB elements
    per side.  B is clamped at its bottom; A's top face has tag top, so A
    floats on the contact unless top prescribes a displacement."""
    meshB = square(("D", "N", "C", "N"), nB, side, domain_label="B")
    meshA = square(("C", "N", top, "N"), nA, side, origin=(0.0, side),
                   domain_label="A", allow_floating=True)
    pair = pair_contacts(meshA, meshB)
    im = assemble([meshA, meshB], pair, [MAT, MAT])
    return meshA, meshB, pair, im


def top_pressure(im, value):
    """A's traction data: value in y on its upward-facing Neumann elements."""
    ddA = im.layout.domains[0]
    meshA = im.pair.mesh_A
    f = np.zeros(2 * ddA.n_phi)
    for e in range(meshA.n_elements):
        if meshA.part_tag[e] == "N" and meshA.normals[e, 1] > 0.5:
            f[ddA.phi_dofs[e, 1::2]] = value
    return f


def patch_data(im, f):
    """(g_D, f_N) of the uniaxial state sigma_22 = f of the stacked squares:
    pressure f on A's top, and on B's bottom the exact trace u_1 = e11 x_1
    (u = 0 there only if u_1 is), with e11 the plane-strain lateral strain."""
    E, nu = MAT.young_modulus, MAT.poisson_ratio
    meshB = im.pair.mesh_B
    g_B = np.zeros(2 * meshB.n_nodes)
    g_B[0::2] = -nu * (1 + nu) * f / E * meshB.nodes[:, 0]
    return [None, g_B], [top_pressure(im, f), None]


# -- boundary data per domain --------------------------------------------------

def known_data_vector(im, g_D, f_N) -> np.ndarray:
    """Stack per-domain boundary data in the layout's known_cols order.

    g_D: per-domain full nodal arrays (2 n_psi,), entries read only where the
    displacement component is prescribed; f_N: per-domain full traction
    arrays (2 n_phi,), read only where the traction is prescribed; None for
    no data.
    """
    vals = []
    for di, dd in enumerate(im.layout.domains):
        f = np.zeros(2 * dd.n_phi) if f_N[di] is None else np.asarray(f_N[di], float)
        g = np.zeros(2 * dd.n_psi) if g_D[di] is None else np.asarray(g_D[di], float)
        vals.append(f[~dd.trac_unknown])
        vals.append(g[dd.disp_known])
    return np.concatenate(vals)


def solve_data(im, g_D, f_N, w=None):
    """solve_tbvp of per-domain boundary data (g_D, f_N) and gap w."""
    return solve_tbvp(im, known_data_vector(im, g_D, f_N), w)


def load_program(im, times, g_D, f_N) -> LoadProgram:
    """The program of per-domain breakpoint tables: g_D[d] (n_times,
    2 n_psi) of nodal Dirichlet values, f_N[d] (n_times, 2 n_phi) of
    traction coefficients, either None for no data."""
    def row(tabs, j):
        return [None if tab is None else tab[j] for tab in tabs]
    table = [known_data_vector(im, row(g_D, j), row(f_N, j))
             for j in range(len(times))]
    ones = [np.ones(2 * dd.n_psi) for dd in im.layout.domains]
    dirichlet = known_data_vector(im, ones, [None] * len(ones)) > 0.0
    return LoadProgram(list(times), np.array(table), dirichlet)


def load_tables(sc, im):
    """Per-domain breakpoint tables (g_D, f_N) of a scenario's loads, element
    by element: a Dirichlet load sets the displacement of both nodes of its
    segment's elements, a Neumann load the traction at both of their ends."""
    m = len(sc.load_times)
    g_D = [np.zeros((m, 2 * dd.n_psi)) for dd in im.layout.domains]
    f_N = [np.zeros((m, 2 * dd.n_phi)) for dd in im.layout.domains]
    for tabs, loads in ((g_D, sc.dirichlet_loads), (f_N, sc.neumann_loads)):
        for entry in loads:
            d = entry["domain"]
            dd = im.layout.domains[d]
            for e in np.flatnonzero(dd.mesh.segment == entry["segment"]):
                for end in range(2):
                    if tabs is g_D:
                        dofs = 2 * dd.mesh.elements[e, end] + np.arange(2)
                    else:
                        dofs = 2 * dd.phi_of[e, end] + np.arange(2)
                    tabs[d][:, dofs] = entry["values"]
    return g_D, f_N


# -- pointwise Kelvin kernels -------------------------------------------------

def _ray(x, y):
    """Distance r from x to y and the unit vector d along y - x."""
    r_vec = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    r = np.hypot(r_vec[0], r_vec[1])
    if r == 0.0:
        raise KernelError("coincident points")
    return r, r_vec / r


def kelvin_U(x, y, mat: Material) -> np.ndarray:
    """Kelvin fundamental solution U_kl(x, y), symmetric 2x2 (mm/MPa scale)."""
    r, d = _ray(x, y)
    G = mat.shear_modulus
    nu = mat.poisson_ratio
    c = 1.0 / (8.0 * np.pi * G * (1.0 - nu))
    return c * (-(3.0 - 4.0 * nu) * np.log(r) * np.eye(2) + np.outer(d, d))


def kelvin_T(x, y, n_y, mat: Material) -> np.ndarray:
    """Traction kernel T_kl(x, y): traction at y (normal n_y) of the Kelvin
    field loaded at x in direction k."""
    r, d = _ray(x, y)
    n = np.asarray(n_y, dtype=float)
    nu = mat.poisson_ratio
    o2 = 1.0 - 2.0 * nu
    drn = d @ n
    c = -1.0 / (4.0 * np.pi * (1.0 - nu) * r)
    return c * (
        drn * (o2 * np.eye(2) + 2.0 * np.outer(d, d))
        - o2 * (np.outer(d, n) - np.outer(n, d))
    )


# -- the QP variables y = (alpha + w_t, alpha - w_t, beta, beta + w_n) ---------

def split_y(y: np.ndarray):
    """Views of the four equal-length blocks of a stacked y vector."""
    n = len(y) // 4
    if 4 * n != len(y):
        raise ContactError("y length must be a multiple of four")
    return y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]


def y_to_awb(y: np.ndarray):
    """Recover (alpha, beta, w_t, w_n) from the bound-constrained variables."""
    y1, y2, y3, y4 = split_y(np.asarray(y, dtype=float))
    alpha = 0.5 * (y1 + y2)
    w_t = 0.5 * (y1 - y2)
    beta = y3.copy()
    w_n = y4 - y3
    return alpha, beta, w_t, w_n


def awb_to_y(alpha, beta, w_t, w_n) -> np.ndarray:
    """Stack (alpha, beta, w_t, w_n) into the bound-constrained variables."""
    alpha, beta, w_t, w_n = map(np.asarray, (alpha, beta, w_t, w_n))
    return np.concatenate([alpha + w_t, alpha - w_t, beta, beta + w_n])


# -- full solves and their energy calculus ------------------------------------
# With the coupled system K x = R_known d + W w, the elastic potential of the
# solved state is -x^T (R_known d + W w) / 2 and its gap gradient -W^T x.

def gradient(op, sol) -> np.ndarray:
    """d(elastic potential)/dw of a solved state."""
    return -op.im.W.T @ sol.x


def potential(op, w, g_D, f_N) -> float:
    """Elastic potential of the state solved for (g_D, f_N) and gap w
    (includes the data work terms); the right side is formed as
    solve_tbvp forms it."""
    im = op.im
    d = known_data_vector(im, g_D, f_N)
    rhs = im.R_known @ d
    if w is not None and im.W.shape[1]:
        rhs = rhs + im.W @ np.asarray(w, float)
    return float(-0.5 * solve_tbvp(im, d, w).x @ rhs)


def energy_pairing(op, sol) -> float:
    """Boundary-pairing elastic energy (1/2) <p, v> per domain: independent
    of the potential calculus, it agrees with it up to discretization error
    and exactly on states the trial spaces represent exactly."""
    e = 0.0
    for p, v, Mg in zip(sol.p, sol.v, op.im.Mg):
        e += 0.5 * (p @ (Mg @ v))
    return float(e)


def offset_constant(op, d) -> float:
    """Offset potential -d^T P d / 2 of known data d at zero gap, with
    P = sym(R_known^T K^{-1} R_known): the constant of the step QP."""
    RZ = op.im.R_known.T @ op.Z[:, :op.n_known]
    return float(-0.5 * d @ (0.5 * (RZ + RZ.T) @ d))


def traction(op) -> np.ndarray:
    """M^{-1} G per xy component: the nodal contact traction (xy) of s."""
    n = op.im.pair.n_master_nodes
    return np.linalg.solve(op.M, op.G.reshape(n, -1)).reshape(op.G.shape)


def incremental_energy(w_t, w_n, alpha, beta, op, g_D, f_N, law: ContactLaw,
                       tau: float, chi: float, z_prev) -> float:
    """Value of the per-step boundary functional at (w, alpha, beta).

    Sum of the elastic potential of the coupled state solved for the
    boundary data (g_D, f_N) at gap w, the quadratic compliance term in beta
    and the friction work coupling the frozen penetration weight to the slip
    magnitude alpha (N mm).
    """
    M = op.M
    w = frame_matrix(op.im.pair) @ np.concatenate([w_t, w_n])
    e = potential(op, w, g_D, f_N)
    e += 0.5 * (tau * law.k_g / (tau + chi)) * beta @ (M @ beta)
    e += law.mu * law.k_g * (z_prev.beta @ (M @ alpha))
    return float(e)


def objective(p, y, c=0.0) -> float:
    """0.5 y^T A y - b^T y + c of a QPProblem p."""
    return float(0.5 * y @ (p.A @ y) - p.b @ y + c)


def run_records(*args, **kwargs) -> list:
    """The accepted records of evolve.run, collected as it streams them."""
    records = []
    assert run(*args, on_step=records.append, **kwargs) is records[-1]
    return records


def tables_at(times, tables, t) -> list:
    """Per-domain breakpoint tables (rows at times, None for no data)
    interpolated at t column by column, clamped outside the breakpoints."""
    return [None if tab is None
            else np.array([np.interp(t, times, col) for col in tab.T])
            for tab in tables]


def domain_data(im, d):
    """Per-domain (g_D, f_N) of a known-data vector d: full nodal and
    traction arrays, zero on the components d does not prescribe."""
    sol = scatter_solution(im, np.zeros(len(im.layout.unknown_cols)), d)
    return sol.v, sol.p


def modified_dirichlet(g_now, g_old, tau, chi) -> list:
    """Per-domain modified Dirichlet data; None where a domain has none."""
    return [None if gn is None else modified_data(gn, go, tau, chi)
            for gn, go in zip(g_now, g_old)]


# -- energy residuum ----------------------------------------------------------

def residuum_scale(res) -> float:
    """Size of an EnergyResiduum's terms, for relative bounds."""
    return max(abs(res.stored_new), abs(res.stored_old), res.r1,
               abs(res.visc), abs(res.work_ext), 1e-30)
