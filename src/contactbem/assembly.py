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
from .mesh import BoundaryMesh, ContactPair, Material, p1_mass, scatter


class AssemblyError(RuntimeError):
    pass


@dataclass
class DomainDof:
    """Per-domain shape-function bookkeeping.

    Traction (phi) nodes live per element end and are merged across two
    consecutive elements where the mesh joins them (mesh.joins_prev: the
    same part tag and no corner), so tractions may jump at junctions.
    Displacement (psi) nodes are the shared mesh nodes.
    """

    mesh: BoundaryMesh
    mat: Material
    phi_of: np.ndarray = field(init=False)  # (m, 2) -> phi node id
    n_phi: int = field(init=False)
    # (m, 4) scalar dofs (x, y at the start, x, y at the end) of each element
    phi_dofs: np.ndarray = field(init=False)
    psi_dofs: np.ndarray = field(init=False)
    trac_unknown: np.ndarray = field(init=False)  # bool (2 n_phi)
    disp_known: np.ndarray = field(init=False)  # bool (2 n_nodes)
    # local block index lists (scalar dof ids in phi/psi spaces)
    pD: np.ndarray = field(init=False)
    pC: np.ndarray = field(init=False)
    vN: np.ndarray = field(init=False)
    vC: np.ndarray = field(init=False)

    def __post_init__(self):
        mesh = self.mesh
        m = mesh.n_elements
        joins_prev = mesh.joins_prev
        # element ends in order (start, end of element 0, then of 1, ...);
        # every end and every unjoined start opens the next node id, a
        # joined start takes the id of the end before it
        opens = np.ones((m, 2), dtype=bool)
        opens[1:, 0] = ~joins_prev[1:]
        # wraparound: the end of the last element joins the start of the
        # first one; it would open the last id, which wraps to 0
        self.n_phi = int(opens.sum()) - int(joins_prev[0])
        self.phi_of = (np.cumsum(opens).reshape(m, 2) - 1) % self.n_phi
        # the element whose end opens each phi node; joined ends share a tag
        opener = np.repeat(np.arange(m), 2)[opens.ravel()][:self.n_phi]
        self.phi_dofs = np.repeat(2 * self.phi_of, 2, axis=1) + [0, 1, 0, 1]
        self.psi_dofs = np.repeat(2 * mesh.elements, 2, axis=1) + [0, 1, 0, 1]

        # a traction component is unknown where its displacement is
        # prescribed and on the contact; a displacement component is
        # prescribed at every node of an element that prescribes it, and a
        # contact node keeps both displacement components unknown
        phi_contact = np.repeat(mesh.contact[opener], 2)
        self.trac_unknown = phi_contact | mesh.dirichlet[opener].ravel()
        self.disp_known = mesh.node_dirichlet.ravel()
        contact_dof = np.repeat(mesh.node_contact, 2)
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


def _domain_matrices(dd: DomainDof):
    """Dense U (phi x phi), T (phi x psi), S (psi x psi), M (phi x psi)."""
    mesh = dd.mesh
    U, T, S = all_pair_blocks(mesh, dd.mat)
    nF = 2 * dd.n_phi
    nP = 2 * dd.n_psi
    RI, PI = dd.phi_dofs, dd.psi_dofs
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
    """The one map between boundary values and the full layout.

    The full layout stacks, per domain, all phi dofs and then all psi dofs:
    spans[d] holds the (phi, psi) slices of domain d in a layout of width
    columns.  unknown_cols holds the full-layout column of each unknown, per
    domain in block order pD, vN, pC, vC; known_cols that of each prescribed
    value, per domain the prescribed tractions and then the prescribed
    displacements, and known_disp marks the latter.  Together the two cover
    every column once.
    """

    domains: list  # [DomainDof] (one or two entries, order A then B)
    width: int = field(init=False)
    spans: list = field(init=False)
    unknown_cols: np.ndarray = field(init=False)
    known_cols: np.ndarray = field(init=False)
    known_disp: np.ndarray = field(init=False)

    def __post_init__(self):
        offsets = np.cumsum([0] + [dd.width for dd in self.domains])
        self.width = int(offsets[-1])
        self.spans = [(slice(off, off + 2 * dd.n_phi),
                       slice(off + 2 * dd.n_phi, off + dd.width))
                      for off, dd in zip(offsets, self.domains)]
        unknown, known = [], []
        for (phi, psi), dd in zip(self.spans, self.domains):
            unknown += [phi.start + dd.pD, psi.start + dd.vN,
                        phi.start + dd.pC, psi.start + dd.vC]
            known += [phi.start + np.flatnonzero(~dd.trac_unknown),
                      psi.start + np.flatnonzero(dd.disp_known)]
        self.unknown_cols = np.concatenate(unknown)
        self.known_cols = np.concatenate(known)
        self.known_disp = np.isin(self.known_cols,
                                  np.r_[tuple(psi for _, psi in self.spans)])

    def segment_cols(self, d: int, segment: int, traction: bool) -> np.ndarray:
        """(k, 2) full-layout columns of the x and y values that a load on
        polyline segment `segment` of domain d sets: the traction dofs at
        both ends of each of its elements, or the displacement dofs of its
        nodes (a dof shared by two elements appears twice)."""
        dd = self.domains[d]
        els = dd.mesh.segment == segment
        phi, psi = self.spans[d]
        if traction:
            return phi.start + dd.phi_dofs[els].reshape(-1, 2)
        return psi.start + dd.psi_dofs[els].reshape(-1, 2)

    def full(self, known: np.ndarray, unknown: np.ndarray) -> np.ndarray:
        """The full-layout rows of a vector or a matrix, given its rows at
        known_cols and at unknown_cols."""
        out = np.empty((self.width,) + np.shape(unknown)[1:])
        out[self.known_cols] = known
        out[self.unknown_cols] = unknown
        return out


@dataclass
class BoundarySolution:
    """Full boundary traction and displacement vectors per domain."""

    p: list  # per domain (2 n_phi,)
    v: list  # per domain (2 n_psi,)
    x: np.ndarray = None  # raw unknown vector, ordered per the layout


@dataclass
class InfluenceMatrices:
    layout: DofLayout
    pair: ContactPair
    K: np.ndarray  # the system matrix; factorize symmetrizes it
    R_known: np.ndarray  # maps known boundary data to the load vector
    W: np.ndarray  # maps gap data w to the load vector
    Mg: list = None  # per-domain phi x psi mass
    asymmetry: float = 0.0  # of K as assembled
    K_inf: float = field(init=False)  # |K|_inf, the scale of check_residual

    def __post_init__(self):
        self.K_inf = np.linalg.norm(self.K, ord=np.inf)

    def factorize(self):
        """Replace K by 0.5 (K + K^T), the matrix that solve solves with
        (perfbench/probe.py times this step under its name)."""
        self.K = 0.5 * (self.K + self.K.T)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(self.K, rhs)
        except np.linalg.LinAlgError:
            raise AssemblyError("singular assembled matrix (zero pivot in "
                                "the LU factorization)") from None


def assemble(meshes, pair: ContactPair, mats) -> InfluenceMatrices:
    """Assemble (and symmetrize) the SGBEM system of the meshes, one or two
    (A then B), with their materials; pair is None for one domain."""
    two = len(meshes) == 2

    doms = [DomainDof(mesh, mat) for mesh, mat in zip(meshes, mats)]
    layout = DofLayout(doms)

    # every full-layout row: the displacement BIE on phi dofs, the traction
    # BIE on psi dofs; K and R_known take the rows of the unknowns
    full = np.zeros((layout.width, layout.width))
    Mg_list = []
    for di, (dd, (phi, psi)) in enumerate(zip(doms, layout.spans)):
        Ug, Tg, Sg, Mg = _domain_matrices(dd)
        Mg_list.append(Mg)
        M1 = Mg.copy()
        M2 = Mg.copy()
        if two and di == 0 and len(dd.pC):
            M1[np.ix_(dd.pC, dd.vC)] *= -1.0
        if two and di == 1 and len(dd.pC):
            M2[np.ix_(dd.pC, dd.vC)] *= -1.0
        full[phi, phi] = -Ug
        full[phi, psi] = 0.5 * M1 + Tg
        full[psi, phi] = Tg.T - 0.5 * M2.T
        full[psi, psi] = -Sg

    W_full = np.zeros((layout.width, 2 * pair.n_master_nodes if two else 0))
    if two:
        dd_A, dd_B = doms
        M_AB = _mortar_mass(pair, dd_A, dd_B)  # nonzero rows: A's pC only
        A_phi, B_psi = layout.spans[0][0], layout.spans[1][1]
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


def check_residual(im: InfluenceMatrices, x: np.ndarray, rhs: np.ndarray) -> float:
    """Linear residual |K x - rhs| of a backsolve (one or many columns).

    Raises AssemblyError if it is not finite or above 1e-10 of the scale
    |K| |x| + |rhs|.
    """
    res = np.linalg.norm(im.K @ x - rhs)
    if not np.isfinite(res):
        raise AssemblyError(f"linear residual {res} is not finite")
    scale = im.K_inf * max(np.linalg.norm(x), 1e-300) + np.linalg.norm(rhs)
    if res > 1e-10 * scale:
        raise AssemblyError(f"linear residual {res:.3e} above tolerance")
    return float(res)


def solve_tbvp(im: InfluenceMatrices, d, w=None) -> BoundarySolution:
    """Solve the transmission problem for known data d and gap w."""
    rhs = im.R_known @ d
    if w is not None and im.W.shape[1]:
        rhs = rhs + im.W @ np.asarray(w, float)
    x = im.solve(rhs)
    check_residual(im, x, rhs)
    return scatter_solution(im, x, d)


def scatter_solution(im: InfluenceMatrices, x: np.ndarray,
                     data: np.ndarray) -> BoundarySolution:
    """Per-domain traction and displacement vectors from the unknowns x and
    the prescribed values data (in known_cols order)."""
    full = im.layout.full(data, x)
    spans = im.layout.spans
    return BoundarySolution(p=[full[phi] for phi, _ in spans],
                            v=[full[psi] for _, psi in spans], x=x)


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
