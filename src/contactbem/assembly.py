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
from scipy.linalg import get_lapack_funcs

from .kernels import all_pair_blocks
from .mesh import (
    BoundaryMesh,
    ContactPair,
    Material,
    element_frame,
)

CORNER_TOL = 1e-9
_GX2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GW2 = np.array([0.5, 0.5])


class AssemblyError(RuntimeError):
    pass


def _phi_unknown(tag: str, comp: int) -> bool:
    """Is the traction component unknown on an element with this tag?"""
    if tag in ("D", "C"):
        return True
    if tag == "DxNy":
        return comp == 0
    if tag == "NxDy":
        return comp == 1
    return False


def _psi_known(tag: str, comp: int) -> bool:
    """Is the displacement component prescribed on this element?"""
    if tag == "D":
        return True
    if tag == "DxNy":
        return comp == 0
    if tag == "NxDy":
        return comp == 1
    return False


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
    phi_pos: np.ndarray = None  # (n_phi, 2) coordinates
    trac_unknown: np.ndarray = None  # bool (2 n_phi)
    disp_known: np.ndarray = None  # bool (2 n_nodes)
    contact_node: np.ndarray = None  # bool (n_nodes)
    # local block index lists (scalar dof ids in phi/psi spaces)
    pD: np.ndarray = None
    pC: np.ndarray = None
    vN: np.ndarray = None
    vC: np.ndarray = None

    def __post_init__(self):
        mesh = self.mesh
        m = mesh.n_elements
        tags = mesh.part_tag
        # merge decision per shared mesh node between consecutive elements
        self.phi_of = np.zeros((m, 2), dtype=np.int64)
        merged_with_prev = np.zeros(m, dtype=bool)
        frames = [element_frame(mesh, e) for e in range(m)]
        for e in range(m):
            prev = (e - 1) % m
            if mesh.elements[prev][1] != mesh.elements[e][0]:
                continue
            if tags[prev] != tags[e]:
                continue
            tp, te = frames[prev][0], frames[e][0]
            if abs(tp[0] * te[1] - tp[1] * te[0]) > CORNER_TOL or (tp @ te) < 0:
                continue  # geometric corner
            merged_with_prev[e] = True
        nid = 0
        self.phi_tag = []
        pos = []
        for e in range(m):
            if e > 0 and merged_with_prev[e]:
                self.phi_of[e, 0] = self.phi_of[e - 1, 1]
            else:
                self.phi_of[e, 0] = nid
                self.phi_tag.append(tags[e])
                pos.append(mesh.nodes[mesh.elements[e][0]])
                nid += 1
            self.phi_of[e, 1] = nid
            self.phi_tag.append(tags[e])
            pos.append(mesh.nodes[mesh.elements[e][1]])
            nid += 1
        # wraparound: merge the end of the last element into the start of the
        # first one; the dropped id is always the freshest, so popping is safe
        if merged_with_prev[0]:
            self.phi_of[m - 1, 1] = self.phi_of[0, 0]
            nid -= 1
            self.phi_tag.pop()
            pos.pop()
        self.n_phi = nid
        self.phi_pos = np.array(pos)

        self.trac_unknown = np.zeros(2 * self.n_phi, dtype=bool)
        for p, t in enumerate(self.phi_tag):
            for k in range(2):
                self.trac_unknown[2 * p + k] = _phi_unknown(t, k)

        n = mesh.n_nodes
        self.disp_known = np.zeros(2 * n, dtype=bool)
        self.contact_node = np.zeros(n, dtype=bool)
        for e in range(m):
            t = tags[e]
            for node in mesh.elements[e]:
                for k in range(2):
                    if _psi_known(t, k):
                        self.disp_known[2 * node + k] = True
                if t == "C":
                    self.contact_node[node] = True

        pD, pC = [], []
        for p, t in enumerate(self.phi_tag):
            for k in range(2):
                if not _phi_unknown(t, k):
                    continue
                (pC if t == "C" else pD).append(2 * p + k)
        vN, vC = [], []
        for node in range(n):
            for k in range(2):
                d = 2 * node + k
                if self.contact_node[node]:
                    if self.disp_known[d]:
                        raise AssemblyError("contact node carries Dirichlet data")
                    vC.append(d)
                elif not self.disp_known[d]:
                    vN.append(d)
        self.pD = np.array(pD, dtype=np.int64)
        self.pC = np.array(pC, dtype=np.int64)
        self.vN = np.array(vN, dtype=np.int64)
        self.vC = np.array(vC, dtype=np.int64)

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


def _element_mass_block(L: float) -> np.ndarray:
    M = np.zeros((4, 4))
    for m in range(2):
        for n in range(2):
            v = L / 3.0 if m == n else L / 6.0
            M[2 * m, 2 * n] = v
            M[2 * m + 1, 2 * n + 1] = v
    return M


def _scatter(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray, shape) -> np.ndarray:
    """Dense matrix summing blocks[...] into (rows[...], cols[...]), in order."""
    flat = np.bincount((rows * shape[1] + cols).ravel(), weights=blocks.ravel(),
                       minlength=shape[0] * shape[1])
    return flat.reshape(shape)


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
    Ug = _scatter(rows_F, cols_F, U, (nF, nF))
    Tg = _scatter(rows_F, cols_P, T, (nF, nP))
    Sg = _scatter(rows_P, cols_P, S, (nP, nP))
    Ls = np.array([element_frame(mesh, e)[2] for e in range(m)])
    Mg = _scatter(RI[:, :, None], PI[:, None, :],
                  np.array([_element_mass_block(L) for L in Ls]), (nF, nP))
    return Ug, Tg, Sg, Mg


def _mortar_mass(pair: ContactPair, dd_A: DomainDof, dd_B: DomainDof) -> np.ndarray:
    """Cross mass M^AB: rows A-contact phi dofs, cols B psi dofs."""
    M = np.zeros((2 * dd_A.n_phi, 2 * dd_B.n_psi))
    for eA, eB, s0, s1 in pair.overlap_map:
        a0, a1 = pair.span_A[int(eA)]
        b0, b1 = pair.span_B[int(eB)]
        phiA = dd_A.phi_of[eA]
        psiB = pair.mesh_B.elements[eB]
        for g, wgt in zip(_GX2, _GW2):
            s = s0 + g * (s1 - s0)
            tA = (s - a0) / (a1 - a0)
            tB = (s - b0) / (b1 - b0)
            shA = (1.0 - tA, tA)
            shB = (1.0 - tB, tB)
            w = wgt * (s1 - s0)
            for mm in range(2):
                for nn in range(2):
                    v = w * shA[mm] * shB[nn]
                    for k in range(2):
                        M[2 * phiA[mm] + k, 2 * psiB[nn] + k] += v
    return M


@dataclass
class DofLayout:
    domains: list  # [DomainDof] (one or two entries, order A then B)
    col_of_unknown: np.ndarray = None  # full-layout column of each unknown
    known_cols: np.ndarray = None
    offsets: list = None  # full-layout column offset per domain
    blocks: dict = None  # (dom, name) -> global unknown index array
    # per domain: (unknown ids, phi dofs, unknown ids, psi dofs)
    scatter: list = None

    def __post_init__(self):
        self.offsets = []
        off = 0
        for dd in self.domains:
            self.offsets.append(off)
            off += dd.width
        self.total_width = off
        self.blocks = {}
        self.scatter = []
        cols = []
        n = 0
        for di, dd in enumerate(self.domains):
            for name, space, dofs in (
                ("pD", "phi", dd.pD),
                ("vN", "psi", dd.vN),
                ("pC", "phi", dd.pC),
                ("vC", "psi", dd.vC),
            ):
                self.blocks[(di, name)] = np.arange(n, n + len(dofs))
                n += len(dofs)
                base = self.offsets[di] + (0 if space == "phi" else 2 * dd.n_phi)
                cols.append(base + dofs)
            b = self.blocks
            self.scatter.append((
                np.concatenate([b[(di, "pD")], b[(di, "pC")]]),
                np.concatenate([dd.pD, dd.pC]),
                np.concatenate([b[(di, "vN")], b[(di, "vC")]]),
                np.concatenate([dd.vN, dd.vC]),
            ))
        self.col_of_unknown = np.concatenate(cols)
        known = []
        for di, dd in enumerate(self.domains):
            base = self.offsets[di]
            for d in range(2 * dd.n_phi):
                if not dd.trac_unknown[d]:
                    known.append(base + d)
            for d in range(2 * dd.n_psi):
                if dd.disp_known[d]:
                    known.append(base + 2 * dd.n_phi + d)
        self.known_cols = np.array(known, dtype=np.int64)

    @property
    def n_unknowns(self) -> int:
        return len(self.col_of_unknown)


@dataclass
class BoundarySolution:
    """Full boundary traction and displacement vectors per domain."""

    p: list  # per domain (2 n_phi,)
    v: list  # per domain (2 n_psi,)
    x: np.ndarray = None  # raw unknown vector, ordered per the layout
    rhs: np.ndarray = None
    residual: float = 0.0


@dataclass
class InfluenceMatrices:
    layout: DofLayout
    pair: ContactPair
    K: np.ndarray
    R_known: np.ndarray  # maps known boundary data to the load vector
    W: np.ndarray  # maps gap data w to the load vector
    M_AB: np.ndarray = None
    Mg: list = None  # per-domain phi x psi mass
    asymmetry: float = 0.0
    _factor: tuple = None
    K_inf: float = field(init=False)  # |K|_inf, the scale of check_residual

    def __post_init__(self):
        self.K_inf = np.linalg.norm(self.K, ord=np.inf)

    def factorize(self):
        Ks = 0.5 * (self.K + self.K.T)
        sytrf, = get_lapack_funcs(("sytrf",), (Ks,))
        ldu, ipiv, info = sytrf(Ks, lower=1)
        if info > 0:
            raise AssemblyError(
                f"singular assembled matrix (zero pivot at {info}, "
                f"smallest pivot {np.abs(np.diag(ldu)).min():.3e})"
            )
        self._factor = (ldu, ipiv)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise AssemblyError("factorization unavailable")
        ldu, ipiv = self._factor
        sytrs, = get_lapack_funcs(("sytrs",), (ldu,))
        x, info = sytrs(ldu, ipiv, rhs, lower=1)
        if info != 0:
            raise AssemblyError("backsolve failed")
        return x


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
    n_unk = layout.n_unknowns

    rows_full = np.zeros((n_unk, layout.total_width))
    M_AB = None
    n_master = 0
    if two:
        M_AB = _mortar_mass(pair, doms[0], doms[1])
        n_master = 2 * len(pair.nodes_B)
    W = np.zeros((n_unk, n_master))
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
        type1 = np.hstack([-Ug, 0.5 * M1 + Tg])  # displacement BIE rows
        type2 = np.hstack([Tg.T - 0.5 * M2.T, -Sg])  # traction BIE rows
        off = layout.offsets[di]
        for name, block, local in (
            ("pD", type1, dd.pD),
            ("vN", type2, dd.vN),
            ("pC", type1, dd.pC),
            ("vC", type2, dd.vC),
        ):
            gidx = layout.blocks[(di, name)]
            if len(gidx) == 0:
                continue
            rows_full[np.ix_(gidx, np.arange(off, off + dd.width))] = block[local]

    if two:
        dd_A, dd_B = doms
        # side A displacement-BIE contact rows couple to B's contact trace
        gA = layout.blocks[(0, "pC")]
        colB_psi = layout.offsets[1] + 2 * dd_B.n_phi + np.arange(2 * dd_B.n_psi)
        localA = dd_A.pC
        rows_full[np.ix_(gA, colB_psi)] += M_AB[localA]
        # and carry the gap data on the right-hand side
        wcols = _master_w_columns(pair)
        W[gA] = -M_AB[np.ix_(localA, wcols)]
        # side B traction-BIE contact rows couple to A's contact tractions
        gB = layout.blocks[(1, "vC")]
        colA_phi = layout.offsets[0] + np.arange(2 * dd_A.n_phi)
        localB = dd_B.vC
        rows_full[np.ix_(gB, colA_phi)] += M_AB.T[localB]

    K = rows_full[:, layout.col_of_unknown]
    R_known = -rows_full[:, layout.known_cols]
    nrm = np.linalg.norm(K)
    asym = np.linalg.norm(K - K.T) / nrm if nrm > 0 else 0.0

    im = InfluenceMatrices(
        layout=layout,
        pair=pair,
        K=K,
        R_known=R_known,
        W=W,
        M_AB=M_AB,
        Mg=Mg_list,
        asymmetry=asym,
    )
    im.factorize()
    return im


def _master_w_columns(pair: ContactPair) -> np.ndarray:
    """B psi dof columns (into 2 n_psi_B) carrying the master gap values."""
    cols = []
    for n in pair.nodes_B:
        cols.extend([2 * n, 2 * n + 1])
    return np.array(cols, dtype=np.int64)


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


def solve_tbvp(im: InfluenceMatrices, g_D, f_N, w=None, check: bool = True) -> BoundarySolution:
    """Solve the transmission problem for given boundary data and gap w."""
    rhs = im.R_known @ known_data_vector(im, g_D, f_N)
    if w is not None and im.W.shape[1]:
        rhs = rhs + im.W @ np.asarray(w, float)
    x = im.solve(rhs)
    res = check_residual(im, x, rhs) if check else 0.0
    sol = scatter_solution(im, x, g_D, f_N)
    sol.rhs = rhs
    sol.residual = res
    return sol


def scatter_solution(im: InfluenceMatrices, x: np.ndarray, g_D, f_N) -> BoundarySolution:
    p, v = [], []
    for dd, (g_phi, phi, g_psi, psi), f, g in zip(
            im.layout.domains, im.layout.scatter, f_N, g_D):
        pf = np.zeros(2 * dd.n_phi) if f is None else np.array(f, dtype=float)
        vf = np.zeros(2 * dd.n_psi) if g is None else np.array(g, dtype=float)
        pf[dd.trac_unknown] = 0.0
        vf[~dd.disp_known] = 0.0
        pf[phi] = x[g_phi]
        vf[psi] = x[g_psi]
        p.append(pf)
        v.append(vf)
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
