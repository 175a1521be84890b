"""Assembly of the symmetric SGBEM block system for one or two domains.

Scalar-granular generalization of the classical (p_D, v_N, p_C, v_C) block
layout: every (node, component) is classified independently so componentwise
mixed boundary conditions (roller faces) fit the same structure.  Rows are
Galerkin-tested boundary integral equations:

    traction-unknown dof  ->  -[U p] + [(1/2 M + T) v] = 0   (displacement BIE)
    displacement-unknown  ->  [(T* - 1/2 M^T) p] - [S v] = 0 (traction BIE)

For a two-domain pair the contact mass pairings are sign-flipped on side A's
displacement-BIE rows and side B's traction-BIE rows and replaced by the
cross-domain mortar mass, which renders the overall matrix symmetric while
enforcing the gap and equilibrium transmission conditions weakly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .kernels import all_pair_blocks
from .mesh import (
    TAG_DIRICHLET_MASK,
    BoundaryMesh,
    ContactPair,
    Material,
    p1_mass,
    scatter,
)

CORNER_TOL = 1e-9


class AssemblyError(RuntimeError):
    pass


@dataclass
class DomainDof:
    """Per-domain shape-function bookkeeping.

    Traction (phi) nodes live per element end and are merged across two
    consecutive elements only when the part tag matches and the geometry has
    no corner, so tractions may jump at junctions.  Displacement (psi) nodes
    are the shared mesh nodes.
    """

    mesh: BoundaryMesh
    mat: Material
    phi_of: np.ndarray = None  # (m, 2) -> phi node id
    n_phi: int = 0
    phi_tag: list = None  # tag per phi node
    trac_unknown: np.ndarray = None  # bool (2 n_phi)
    disp_known: np.ndarray = None  # bool (2 n_nodes)
    # local block index lists (scalar dof ids in phi/psi spaces)
    pD: np.ndarray = None
    pC: np.ndarray = None
    vN: np.ndarray = None
    vC: np.ndarray = None

    def __post_init__(self):
        mesh = self.mesh
        m = mesh.n_elements
        tags = mesh.part_tag
        # merge decision per shared mesh node between consecutive elements:
        # the same tag and no geometric corner
        prev = np.roll(np.arange(m), 1)
        tp, te = mesh.tangents[prev], mesh.tangents
        merged_with_prev = ((mesh.elements[prev, 1] == mesh.elements[:, 0])
                            & (np.array(tags)[prev] == np.array(tags))
                            & (abs(tp[:, 0] * te[:, 1] - tp[:, 1] * te[:, 0])
                               <= CORNER_TOL)
                            & ((tp * te).sum(1) >= 0))
        self.phi_of = np.zeros((m, 2), dtype=np.int64)
        nid = 0
        self.phi_tag = []
        for e in range(m):
            if e > 0 and merged_with_prev[e]:
                self.phi_of[e, 0] = self.phi_of[e - 1, 1]
            else:
                self.phi_of[e, 0] = nid
                self.phi_tag.append(tags[e])
                nid += 1
            self.phi_of[e, 1] = nid
            self.phi_tag.append(tags[e])
            nid += 1
        # wraparound: merge the end of the last element into the start of the
        # first one; the dropped id is always the freshest, so popping is safe
        if merged_with_prev[0]:
            self.phi_of[m - 1, 1] = self.phi_of[0, 0]
            nid -= 1
            self.phi_tag.pop()
        self.n_phi = nid

        # a traction component is unknown where its displacement is
        # prescribed and on the contact; a displacement component is
        # prescribed at every node of an element that prescribes it, and a
        # contact node keeps both displacement components unknown
        phi_contact = np.repeat(np.array(self.phi_tag) == "C", 2)
        self.trac_unknown = phi_contact | np.array(
            [TAG_DIRICHLET_MASK[t] for t in self.phi_tag]).ravel()
        n = mesh.n_nodes
        disp_known = np.zeros((n, 2), dtype=bool)
        e_dir, k_dir = np.nonzero([TAG_DIRICHLET_MASK[t] for t in tags])
        disp_known[mesh.elements[e_dir].T, k_dir] = True
        self.disp_known = disp_known.ravel()
        contact_node = np.zeros(n, dtype=bool)
        contact_node[mesh.elements[np.array(tags) == "C"]] = True
        contact_dof = np.repeat(contact_node, 2)
        if np.any(contact_dof & self.disp_known):
            raise AssemblyError("contact node carries Dirichlet data")
        self.pD = np.flatnonzero(self.trac_unknown & ~phi_contact)
        self.pC = np.flatnonzero(phi_contact)
        self.vN = np.flatnonzero(~(self.disp_known | contact_dof))
        self.vC = np.flatnonzero(contact_dof)

    @property
    def n_psi(self) -> int:
        return self.mesh.n_nodes

    @property
    def width(self) -> int:
        """Full column width: all phi dofs then all psi dofs."""
        return 2 * self.n_phi + 2 * self.n_psi

    def phi_dofs_of_element(self, e: int) -> np.ndarray:
        p0, p1 = self.phi_of[e]
        return np.array([2 * p0, 2 * p0 + 1, 2 * p1, 2 * p1 + 1])

    def psi_dofs_of_element(self, e: int) -> np.ndarray:
        a, b = self.mesh.elements[e]
        return np.array([2 * a, 2 * a + 1, 2 * b, 2 * b + 1])


def _domain_matrices(dd: DomainDof):
    """Dense U (phi x phi), T (phi x psi), S (psi x psi), M (phi x psi)."""
    mesh = dd.mesh
    m = mesh.n_elements
    U, T, S = all_pair_blocks(mesh, dd.mat)
    nF = 2 * dd.n_phi
    nP = 2 * dd.n_psi
    RI = np.array([dd.phi_dofs_of_element(e) for e in range(m)])
    PI = np.array([dd.psi_dofs_of_element(e) for e in range(m)])
    # pair blocks (i, j, a, b) land at (dofs of i)[a], (dofs of j)[b]
    rows_F, rows_P = RI[:, None, :, None], PI[:, None, :, None]
    cols_F, cols_P = RI[None, :, None, :], PI[None, :, None, :]
    Ug = scatter(rows_F, cols_F, U, (nF, nF))
    Tg = scatter(rows_F, cols_P, T, (nF, nP))
    Sg = scatter(rows_P, cols_P, S, (nP, nP))
    Mg = np.kron(p1_mass(mesh.lengths, dd.phi_of, mesh.elements,
                         (dd.n_phi, dd.n_psi)), np.eye(2))
    return Ug, Tg, Sg, Mg


def _mortar_mass(pair: ContactPair, dd_A: DomainDof, dd_B: DomainDof) -> np.ndarray:
    """Cross mass M^AB: rows A-contact phi dofs, cols B psi dofs."""
    eA, eB = pair.pieces.T
    M = p1_mass(np.diff(pair.breaks), dd_A.phi_of[eA], pair.mesh_B.elements[eB],
                (dd_A.n_phi, dd_B.n_psi), pair.shapes_A, pair.shapes_B)
    return np.kron(M, np.eye(2))


@dataclass
class DofLayout:
    """Where every unknown and every prescribed value sits in the full layout.

    The full layout stacks, per domain, all phi dofs and then all psi dofs,
    starting at offsets[d] (offsets[-1] is the total width).  unknown_cols
    holds the full-layout column of each unknown, per domain in block order
    pD, vN, pC, vC; known_cols that of each prescribed value, in
    known_data_vector order.  Together they cover every column once.
    """

    domains: list  # [DomainDof] (one or two entries, order A then B)
    offsets: np.ndarray = field(init=False)
    unknown_cols: np.ndarray = field(init=False)
    known_cols: np.ndarray = field(init=False)

    def __post_init__(self):
        self.offsets = np.cumsum([0] + [dd.width for dd in self.domains])
        unknown, known = [], []
        for off, dd in zip(self.offsets, self.domains):
            psi = off + 2 * dd.n_phi
            unknown += [off + dd.pD, psi + dd.vN, off + dd.pC, psi + dd.vC]
            known += [off + np.flatnonzero(~dd.trac_unknown),
                      psi + np.flatnonzero(dd.disp_known)]
        self.unknown_cols = np.concatenate(unknown)
        self.known_cols = np.concatenate(known)

    @property
    def n_unknowns(self) -> int:
        return len(self.unknown_cols)


@dataclass
class BoundarySolution:
    """Full boundary traction and displacement vectors per domain."""

    p: list  # per domain (2 n_phi,)
    v: list  # per domain (2 n_psi,)
    x: np.ndarray = None  # raw unknown vector, ordered per the layout
    rhs: np.ndarray = None


@dataclass
class InfluenceMatrices:
    layout: DofLayout
    pair: ContactPair
    K: np.ndarray
    R_known: np.ndarray  # maps known boundary data to the load vector
    W: np.ndarray  # maps gap data w to the load vector
    Mg: list = None  # per-domain phi x psi mass
    asymmetry: float = 0.0
    K_sym: np.ndarray = None  # 0.5 (K + K^T), set by factorize
    K_inf: float = field(init=False)  # |K|_inf, the scale of check_residual

    def __post_init__(self):
        self.K_inf = np.linalg.norm(self.K, ord=np.inf)

    def factorize(self):
        self.K_sym = 0.5 * (self.K + self.K.T)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.K_sym is None:
            raise AssemblyError("factorization unavailable")
        try:
            return np.linalg.solve(self.K_sym, rhs)
        except np.linalg.LinAlgError:
            raise AssemblyError("singular assembled matrix (zero pivot in "
                                "the LU factorization)") from None


def assemble(meshes, pair: ContactPair, mats) -> InfluenceMatrices:
    """Assemble (and factorize) the SGBEM system for one or two domains."""
    if isinstance(meshes, BoundaryMesh):
        meshes = [meshes]
        mats = [mats] if isinstance(mats, Material) else list(mats)
    else:
        meshes = list(meshes)
        mats = list(mats)
    two = len(meshes) == 2
    if two and pair is None:
        raise AssemblyError("two-domain assembly needs a ContactPair")

    doms = [DomainDof(mesh, mat) for mesh, mat in zip(meshes, mats)]
    layout = DofLayout(doms)
    off = layout.offsets

    # every full-layout row: the displacement BIE on phi dofs, the traction
    # BIE on psi dofs; K and R_known take the rows of the unknowns
    full = np.zeros((off[-1], off[-1]))
    Mg_list = []
    for di, dd in enumerate(doms):
        Ug, Tg, Sg, Mg = _domain_matrices(dd)
        Mg_list.append(Mg)
        M1 = Mg.copy()
        M2 = Mg.copy()
        if two and di == 0 and len(dd.pC):
            M1[np.ix_(dd.pC, dd.vC)] *= -1.0
        if two and di == 1 and len(dd.pC):
            M2[np.ix_(dd.pC, dd.vC)] *= -1.0
        phi = slice(off[di], off[di] + 2 * dd.n_phi)
        psi = slice(phi.stop, off[di + 1])
        full[phi, phi] = -Ug
        full[phi, psi] = 0.5 * M1 + Tg
        full[psi, phi] = Tg.T - 0.5 * M2.T
        full[psi, psi] = -Sg

    W_full = np.zeros((off[-1], 2 * pair.n_master_nodes if two else 0))
    if two:
        dd_A, dd_B = doms
        M_AB = _mortar_mass(pair, dd_A, dd_B)  # nonzero rows: A's pC only
        A_phi = slice(0, 2 * dd_A.n_phi)
        B_psi = slice(off[1] + 2 * dd_B.n_phi, off[2])
        # side A displacement-BIE contact rows couple to B's contact trace
        # and carry the gap data on the right-hand side; side B traction-BIE
        # contact rows couple to A's contact tractions
        full[A_phi, B_psi] += M_AB
        W_full[dd_A.pC] = -M_AB[np.ix_(dd_A.pC, _master_w_columns(pair))]
        full[B_psi, A_phi] += M_AB.T

    # rows first, then columns: the column selection of a row block comes
    # out column-major, and that order fixes how R_known @ data rounds;
    # full[np.ix_(rows, cols)] is C-ordered and moves x by 3e-11
    rows = full[layout.unknown_cols]
    K = rows[:, layout.unknown_cols]
    R_known = -rows[:, layout.known_cols]
    nrm = np.linalg.norm(K)
    asym = np.linalg.norm(K - K.T) / nrm if nrm > 0 else 0.0

    im = InfluenceMatrices(
        layout=layout,
        pair=pair,
        K=K,
        R_known=R_known,
        W=W_full[layout.unknown_cols],
        Mg=Mg_list,
        asymmetry=asym,
    )
    im.factorize()
    return im


def _master_w_columns(pair: ContactPair) -> np.ndarray:
    """B psi dof columns (into 2 n_psi_B) carrying the master gap values."""
    return (2 * pair.nodes_B[:, None] + np.arange(2)).ravel()


def known_data_vector(im: InfluenceMatrices, g_D, f_N) -> np.ndarray:
    """Stack prescribed boundary data in known-column order.

    g_D: per-domain full nodal arrays (2 n_psi,), entries read only where the
    displacement component is prescribed; f_N: per-domain full traction
    arrays (2 n_phi,), read only where the traction is prescribed.
    """
    vals = []
    for di, dd in enumerate(im.layout.domains):
        f = np.zeros(2 * dd.n_phi) if f_N[di] is None else np.asarray(f_N[di], float)
        g = np.zeros(2 * dd.n_psi) if g_D[di] is None else np.asarray(g_D[di], float)
        vals.append(f[~dd.trac_unknown])
        vals.append(g[dd.disp_known])
    return np.concatenate(vals) if vals else np.zeros(0)


def check_residual(im: InfluenceMatrices, x: np.ndarray, rhs: np.ndarray) -> float:
    """Linear residual |K x - rhs| of a backsolve (one or many columns).

    Raises AssemblyError above 1e-10 of the scale |K| |x| + |rhs|.
    """
    res = np.linalg.norm(im.K @ x - rhs)
    scale = im.K_inf * max(np.linalg.norm(x), 1e-300) + np.linalg.norm(rhs)
    if res > 1e-10 * scale:
        raise AssemblyError(f"linear residual {res:.3e} above tolerance")
    return float(res)


def solve_tbvp(im: InfluenceMatrices, g_D, f_N, w=None) -> BoundarySolution:
    """Solve the transmission problem for given boundary data and gap w."""
    data = known_data_vector(im, g_D, f_N)
    rhs = im.R_known @ data
    if w is not None and im.W.shape[1]:
        rhs = rhs + im.W @ np.asarray(w, float)
    x = im.solve(rhs)
    check_residual(im, x, rhs)
    sol = scatter_solution(im, x, data)
    sol.rhs = rhs
    return sol


def scatter_solution(im: InfluenceMatrices, x: np.ndarray,
                     data: np.ndarray) -> BoundarySolution:
    """Per-domain traction and displacement vectors from the unknowns x and
    the prescribed values data (in known_data_vector order)."""
    layout = im.layout
    # the two index arrays partition the columns (DomainDof rejects a
    # prescribed contact displacement), so every entry is written
    full = np.empty(layout.offsets[-1])
    full[layout.known_cols] = data
    full[layout.unknown_cols] = x
    p, v = [], []
    for off, dd in zip(layout.offsets, layout.domains):
        p.append(full[off:off + 2 * dd.n_phi])
        v.append(full[off + 2 * dd.n_phi:off + dd.width])
    return BoundarySolution(p=p, v=v, x=x)


def geometry_hash(meshes, mats) -> str:
    h = hashlib.sha256()
    for mesh, mat in zip(meshes, mats):
        h.update(np.ascontiguousarray(mesh.nodes).tobytes())
        h.update(np.ascontiguousarray(mesh.elements).tobytes())
        h.update("".join(mesh.part_tag).encode())
        h.update(
            np.array([mat.young_modulus, mat.poisson_ratio, mat.relaxation_time]).tobytes()
        )
    return h.hexdigest()
